// Fixture: FLB003 unordered-iter. Hash-order traversal feeding a payload
// serializes in nondeterministic order. Violations are pinned to exact
// lines by tests/flb_analyze_test.cc — edit with care.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace fixture {

std::vector<uint8_t> SerializeCounts(
    const std::unordered_map<std::string, uint64_t>& bytes_by_topic) {
  std::vector<uint8_t> payload;
  for (const auto& [topic, count] : bytes_by_topic) {  // line 15: FLB003
    payload.push_back(static_cast<uint8_t>(topic.size() + count));
  }
  return payload;
}

}  // namespace fixture
