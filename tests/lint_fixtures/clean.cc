// Fixture: a file every rule is happy with — ordered containers, seeded
// determinism, annotated locking, handled statuses. flb_analyze must report
// zero violations here.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/mutex.h"

namespace fixture {

class Status {
 public:
  bool ok() const { return true; }
};

Status SendFrame(int seq);

class Counter {
 public:
  void Bump(const std::string& key) {
    flb::common::MutexLock lock(mu_);
    ++counts_[key];
  }

  std::vector<uint8_t> Serialize() const {
    flb::common::MutexLock lock(mu_);
    std::vector<uint8_t> payload;
    for (const auto& [key, count] : counts_) {
      payload.push_back(static_cast<uint8_t>(key.size() + count));
    }
    return payload;
  }

  Status Flush() {
    // The status is consumed, not dropped.
    Status s = SendFrame(0);
    return s;
  }

 private:
  mutable flb::common::Mutex mu_;
  std::map<std::string, uint64_t> counts_ FLB_GUARDED_BY(mu_);
};

}  // namespace fixture
