// Tests for the flb::obs tracing/metrics layer: span nesting against the
// simulated clock, trace JSON well-formedness, metrics snapshot/reset
// semantics (including the Device/Network reset routing), the multi-stream
// GHE overlap regression, and the bench result writer's schema.

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_common.h"
#include "src/common/sim_clock.h"
#include "src/ghe/ghe_engine.h"
#include "src/gpusim/device.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace flb {
namespace {

using obs::MetricsRegistry;
using obs::MetricType;
using obs::MetricValue;
using obs::ScopedSpan;
using obs::Track;
using obs::TraceEvent;
using obs::TraceRecorder;

// ---------------------------------------------------------------------------
// Minimal JSON parser — enough to validate the exported documents without a
// third-party dependency. Supports objects, arrays, strings (with escapes),
// numbers, true/false/null.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool Has(const std::string& key) const { return object.count(key) > 0; }
  const JsonValue& At(const std::string& key) const {
    return object.at(key);
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    bool ok = ParseValue(out);
    SkipWs();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->str);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out->type = JsonValue::Type::kBool;
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->type = JsonValue::Type::kBool;
      out->boolean = false;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      out->type = JsonValue::Type::kNull;
      pos_ += 4;
      return true;
    }
    return ParseNumber(out);
  }
  bool ParseObject(JsonValue* out) {
    if (!Consume('{')) return false;
    out->type = JsonValue::Type::kObject;
    SkipWs();
    if (Consume('}')) return true;
    while (true) {
      std::string key;
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return false;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
      if (Consume('}')) return true;
      if (!Consume(',')) return false;
    }
  }
  bool ParseArray(JsonValue* out) {
    if (!Consume('[')) return false;
    out->type = JsonValue::Type::kArray;
    SkipWs();
    if (Consume(']')) return true;
    while (true) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      if (Consume(']')) return true;
      if (!Consume(',')) return false;
    }
  }
  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            // Keep the escape verbatim: the tests only need validity.
            out->append("\\u").append(text_, pos_, 4);
            pos_ += 4;
            break;
          }
          default: return false;
        }
      } else {
        out->push_back(c);
      }
    }
    return false;
  }
  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->type = JsonValue::Type::kNumber;
    out->number = std::stod(text_.substr(start, pos_ - start));
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// Enables the global recorder for one test and restores state afterwards.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& rec = TraceRecorder::Global();
    previous_enabled_ = rec.enabled();
    rec.set_enabled(true);
    rec.Clear();
  }
  void TearDown() override {
    auto& rec = TraceRecorder::Global();
    rec.Clear();
    rec.set_max_events(1000000);
    rec.set_enabled(previous_enabled_);
  }
  bool previous_enabled_ = false;
};

// ---------------------------------------------------------------------------
// Spans vs the simulated clock
// ---------------------------------------------------------------------------

TEST_F(ObsTest, ScopedSpanNestsWithSimulatedTime) {
  auto& rec = TraceRecorder::Global();
  SimClock clock;
  const Track track = rec.RegisterTrack("test", "nesting");
  {
    ScopedSpan outer(&clock, track, "outer");
    clock.Charge(CostKind::kOther, 1.0);
    {
      ScopedSpan inner(&clock, track, "inner");
      clock.Charge(CostKind::kOther, 2.0);
    }
    clock.Charge(CostKind::kOther, 3.0);
  }
  ASSERT_EQ(rec.events().size(), 2u);
  // Destruction order: inner closes first.
  const TraceEvent& inner = rec.events()[0];
  const TraceEvent& outer = rec.events()[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_DOUBLE_EQ(inner.ts_us, 1.0e6);
  EXPECT_DOUBLE_EQ(inner.dur_us, 2.0e6);
  EXPECT_DOUBLE_EQ(outer.ts_us, 0.0);
  EXPECT_DOUBLE_EQ(outer.dur_us, 6.0e6);
  // The inner span lies strictly within the outer span.
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us);
}

TEST_F(ObsTest, ChargeSpanChargesAndRecords) {
  auto& rec = TraceRecorder::Global();
  SimClock clock;
  const Track track = rec.RegisterTrack("test", "charge");
  obs::ChargeSpan(&clock, CostKind::kNetwork, 0.5, track, "send", "network");
  EXPECT_DOUBLE_EQ(clock.Now(), 0.5);
  ASSERT_EQ(rec.events().size(), 1u);
  EXPECT_DOUBLE_EQ(rec.events()[0].ts_us, 0.0);
  EXPECT_DOUBLE_EQ(rec.events()[0].dur_us, 0.5e6);
  // Null clock: nothing charged, nothing recorded.
  obs::ChargeSpan(nullptr, CostKind::kNetwork, 0.5, track, "send", "network");
  EXPECT_EQ(rec.events().size(), 1u);
}

TEST_F(ObsTest, DisabledRecorderRecordsNothing) {
  auto& rec = TraceRecorder::Global();
  rec.set_enabled(false);
  SimClock clock;
  const Track track = rec.RegisterTrack("test", "disabled");
  {
    ScopedSpan span(&clock, track, "span");
    clock.Charge(CostKind::kOther, 1.0);
  }
  rec.Instant(track, "instant", "test", 1.0);
  rec.Counter(track, "counter", 1.0, 2.0);
  EXPECT_TRUE(rec.events().empty());
}

TEST_F(ObsTest, EventCapDropsAndCounts) {
  auto& rec = TraceRecorder::Global();
  rec.set_max_events(10);
  const Track track = rec.RegisterTrack("test", "cap");
  for (int i = 0; i < 25; ++i) {
    rec.Instant(track, std::string("i").append(std::to_string(i)), "test",
                i);
  }
  EXPECT_EQ(rec.events().size(), 10u);
  EXPECT_EQ(rec.dropped_events(), 15u);
  // Clear resets the dropped counter but keeps track registrations.
  rec.Clear();
  EXPECT_EQ(rec.dropped_events(), 0u);
  const Track again = rec.RegisterTrack("test", "cap");
  EXPECT_EQ(again.pid, track.pid);
  EXPECT_EQ(again.tid, track.tid);
}

TEST_F(ObsTest, UniqueProcessNamesNeverCollide) {
  auto& rec = TraceRecorder::Global();
  const std::string a = rec.UniqueProcessName("thing");
  const std::string b = rec.UniqueProcessName("thing");
  EXPECT_NE(a, b);
  const Track ta = rec.RegisterTrack(a, "t");
  const Track tb = rec.RegisterTrack(b, "t");
  EXPECT_NE(ta.pid, tb.pid);
}

// ---------------------------------------------------------------------------
// Trace JSON well-formedness
// ---------------------------------------------------------------------------

TEST_F(ObsTest, TraceJsonParsesWithRequiredFields) {
  auto& rec = TraceRecorder::Global();
  const Track track = rec.RegisterTrack("proc \"quoted\"", "thread\n1");
  rec.Span(track, "span", "cat", 0.0, 1.5, {obs::Arg("bytes", uint64_t{42})});
  rec.Instant(track, "mark", "cat", 2.0);
  rec.Counter(track, "gauge", 2.5, 7.0);

  JsonValue doc;
  ASSERT_TRUE(JsonParser(rec.ToJson()).Parse(&doc))
      << "trace JSON failed to parse";
  ASSERT_TRUE(doc.Has("traceEvents"));
  const auto& events = doc.At("traceEvents").array;
  ASSERT_FALSE(events.empty());

  int metadata = 0, spans = 0, instants = 0, counters = 0;
  for (const JsonValue& e : events) {
    ASSERT_TRUE(e.Has("ph"));
    const std::string ph = e.At("ph").str;
    ASSERT_TRUE(e.Has("name"));
    ASSERT_TRUE(e.Has("pid"));
    ASSERT_TRUE(e.Has("tid"));
    if (ph == "M") {
      ++metadata;
      continue;
    }
    ASSERT_TRUE(e.Has("ts"));
    EXPECT_EQ(e.At("ts").type, JsonValue::Type::kNumber);
    if (ph == "X") {
      ++spans;
      ASSERT_TRUE(e.Has("dur"));
      EXPECT_GE(e.At("dur").number, 0.0);
    } else if (ph == "i") {
      ++instants;
    } else if (ph == "C") {
      ++counters;
      ASSERT_TRUE(e.Has("args"));
    } else {
      FAIL() << "unexpected phase: " << ph;
    }
  }
  EXPECT_GE(metadata, 2);  // process_name + thread_name
  EXPECT_EQ(spans, 1);
  EXPECT_EQ(instants, 1);
  EXPECT_EQ(counters, 1);
}

TEST_F(ObsTest, TraceJsonSkipsMetadataForUnusedTracks) {
  auto& rec = TraceRecorder::Global();
  rec.RegisterTrack("used", "t");
  rec.RegisterTrack("unused", "t");
  rec.Instant(rec.RegisterTrack("used", "t"), "e", "c", 0.0);
  const std::string json = rec.ToJson();
  EXPECT_NE(json.find("\"used\""), std::string::npos);
  EXPECT_EQ(json.find("\"unused\""), std::string::npos);
}

// Spans that share a track must be disjoint or strictly nested — a device
// stream is an in-order queue, so interleaved (partially overlapping) spans
// on one track indicate broken timestamp accounting.
void CheckPerTrackSpansDisjointOrNested(const std::vector<TraceEvent>& events) {
  std::map<std::pair<int, int>, std::vector<std::pair<double, double>>> spans;
  for (const TraceEvent& e : events) {
    if (e.phase != TraceEvent::Phase::kComplete) continue;
    spans[{e.track.pid, e.track.tid}].push_back(
        {e.ts_us, e.ts_us + e.dur_us});
  }
  constexpr double kSlackUs = 1e-6;
  for (auto& [track, list] : spans) {
    std::sort(list.begin(), list.end());
    for (size_t i = 0; i + 1 < list.size(); ++i) {
      const auto& a = list[i];
      const auto& b = list[i + 1];
      const bool disjoint = b.first >= a.second - kSlackUs;
      const bool nested = b.second <= a.second + kSlackUs;
      EXPECT_TRUE(disjoint || nested)
          << "track (" << track.first << "," << track.second
          << ") spans interleave: [" << a.first << "," << a.second << ") vs ["
          << b.first << "," << b.second << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Device tracing: sync + async timelines
// ---------------------------------------------------------------------------

TEST_F(ObsTest, DeviceSyncOpsTraceOnSimulatedTimeline) {
  auto& rec = TraceRecorder::Global();
  SimClock clock;
  gpusim::Device device(gpusim::DeviceSpec::Rtx3090(), &clock);
  device.CopyToDevice(1 << 20);
  gpusim::KernelLaunch launch;
  launch.name = "k";
  launch.total_threads = 4096;
  launch.ops_per_thread = 64;
  ASSERT_TRUE(device.Launch(launch).ok());
  device.CopyFromDevice(1 << 20);

  // Events land at the clock positions where each op started, and the
  // kernel follows the H2D copy.
  std::vector<const TraceEvent*> spans;
  for (const TraceEvent& e : rec.events()) {
    if (e.phase == TraceEvent::Phase::kComplete) spans.push_back(&e);
  }
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0]->name, "h2d");
  EXPECT_EQ(spans[1]->name, "k");
  EXPECT_EQ(spans[2]->name, "d2h");
  EXPECT_DOUBLE_EQ(spans[0]->ts_us, 0.0);
  EXPECT_DOUBLE_EQ(spans[1]->ts_us, spans[0]->ts_us + spans[0]->dur_us);
  EXPECT_DOUBLE_EQ(spans[2]->ts_us, spans[1]->ts_us + spans[1]->dur_us);
  EXPECT_NEAR(clock.Now() * 1e6, spans[2]->ts_us + spans[2]->dur_us, 1e-3);
  CheckPerTrackSpansDisjointOrNested(rec.events());
}

TEST_F(ObsTest, MultiStreamGheTraceShowsCopyComputeOverlap) {
  auto& rec = TraceRecorder::Global();
  SimClock clock;
  auto device = std::make_shared<gpusim::Device>(
      gpusim::DeviceSpec::Rtx3090(), &clock);
  ghe::GheConfig cfg;
  cfg.streams = 4;  // a 1024-bit add at 2^14 elements prices faster chunked
  ghe::GheEngine engine(device, cfg);
  ASSERT_TRUE(engine.ModelOp(ghe::HeOp::kAdd, 1024, 1 << 14).ok());
  ASSERT_TRUE(engine.last_batch().async);
  ASSERT_EQ(engine.last_batch().chunks, 4);

  // Collect H2D spans and kernel spans with their stream ids.
  struct Win {
    double start, end;
    int stream;
  };
  std::vector<Win> h2d, kernels;
  for (const TraceEvent& e : rec.events()) {
    if (e.phase != TraceEvent::Phase::kComplete) continue;
    int stream = -1;
    for (const auto& arg : e.args) {
      if (arg.key == "stream") stream = std::stoi(arg.json_value);
    }
    if (e.category == "pcie" && e.name == "h2d") {
      h2d.push_back({e.ts_us, e.ts_us + e.dur_us, stream});
    } else if (e.category == "kernel") {
      kernels.push_back({e.ts_us, e.ts_us + e.dur_us, stream});
    }
  }
  ASSERT_EQ(h2d.size(), 4u);
  ASSERT_EQ(kernels.size(), 4u);

  // Regression: the H2D copy of a later chunk overlaps the kernel of an
  // earlier chunk (the whole point of the multi-stream schedule).
  bool overlap_found = false;
  for (const Win& c : h2d) {
    for (const Win& k : kernels) {
      if (c.stream != k.stream && c.start < k.end && k.start < c.end) {
        overlap_found = true;
      }
    }
  }
  EXPECT_TRUE(overlap_found)
      << "no H2D copy overlapped any other stream's kernel";
  CheckPerTrackSpansDisjointOrNested(rec.events());

  // The trace covers exactly the charged window: last event end == clock.
  double last_end = 0.0;
  for (const TraceEvent& e : rec.events()) {
    if (e.phase == TraceEvent::Phase::kComplete) {
      last_end = std::max(last_end, e.ts_us + e.dur_us);
    }
  }
  EXPECT_NEAR(last_end, clock.Now() * 1e6, 1e-3);
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST_F(ObsTest, CountersGaugesHistograms) {
  MetricsRegistry reg;
  reg.Count("flb.test.counter", 1);
  reg.Count("flb.test.counter", 2);
  reg.Count("flb.test.counter", 5, "k=v");
  reg.Set("flb.test.gauge", 3.5);
  reg.Set("flb.test.gauge", 4.5);  // gauges overwrite
  reg.Observe("flb.test.hist", 0.001);
  reg.Observe("flb.test.hist", 0.01);
  reg.Observe("flb.test.hist", 100.0);

  const auto snapshot = reg.Collect();
  ASSERT_EQ(snapshot.size(), 4u);
  // Sorted by (name, labels): counter "", counter "k=v", gauge, hist.
  EXPECT_EQ(snapshot[0].name, "flb.test.counter");
  EXPECT_EQ(snapshot[0].labels, "");
  EXPECT_DOUBLE_EQ(snapshot[0].value, 3.0);
  EXPECT_EQ(snapshot[1].labels, "k=v");
  EXPECT_DOUBLE_EQ(snapshot[1].value, 5.0);
  EXPECT_EQ(snapshot[2].type, MetricType::kGauge);
  EXPECT_DOUBLE_EQ(snapshot[2].value, 4.5);
  const MetricValue& hist = snapshot[3];
  EXPECT_EQ(hist.type, MetricType::kHistogram);
  EXPECT_EQ(hist.count, 3u);
  EXPECT_DOUBLE_EQ(hist.min, 0.001);
  EXPECT_DOUBLE_EQ(hist.max, 100.0);
  EXPECT_NEAR(hist.value, 100.011, 1e-9);  // sum
  uint64_t bucket_total = 0;
  for (const auto& b : hist.buckets) bucket_total += b.count;
  EXPECT_EQ(bucket_total, 3u);
}

TEST_F(ObsTest, MetricsJsonParses) {
  MetricsRegistry reg;
  reg.Count("flb.test.counter", 2, "a=b");
  reg.Observe("flb.test.hist", 0.5);
  JsonValue doc;
  ASSERT_TRUE(JsonParser(reg.ToJson()).Parse(&doc));
  ASSERT_TRUE(doc.Has("metrics"));
  const auto& metrics = doc.At("metrics").array;
  ASSERT_EQ(metrics.size(), 2u);
  for (const JsonValue& m : metrics) {
    ASSERT_TRUE(m.Has("name"));
    ASSERT_TRUE(m.Has("labels"));
    ASSERT_TRUE(m.Has("type"));
    ASSERT_TRUE(m.Has("value"));
  }
  const JsonValue& hist = metrics[1];
  ASSERT_TRUE(hist.Has("buckets"));
  ASSERT_TRUE(hist.Has("count"));
  EXPECT_DOUBLE_EQ(hist.At("count").number, 1.0);
}

TEST_F(ObsTest, SourcesUnregisterOnDestruction) {
  auto& reg = MetricsRegistry::Global();
  // One metric summed over every live source; other sources may be live,
  // so the checks read differences.
  const auto total = [&reg](const std::string& name) {
    double sum = 0.0;
    for (const MetricValue& m : reg.Collect()) {
      if (m.name == name) sum += m.value;
    }
    return sum;
  };
  const double copies = total("flb.gpusim.h2d_copies");
  const double messages = total("flb.net.messages");
  {
    SimClock clock;
    gpusim::Device device(gpusim::DeviceSpec::Rtx3090(), &clock);
    net::Network network(net::LinkSpec::GigabitEthernet(), &clock);
    // While registered, a source's stats are in every snapshot.
    device.CopyToDevice(1 << 16);
    ASSERT_TRUE(network.Send("a", "b", "topic", std::vector<uint8_t>(100), 1)
                    .ok());
    EXPECT_DOUBLE_EQ(total("flb.gpusim.h2d_copies"), copies + 1);
    EXPECT_DOUBLE_EQ(total("flb.net.messages"), messages + 1);
  }
  EXPECT_DOUBLE_EQ(total("flb.gpusim.h2d_copies"), copies);
  EXPECT_DOUBLE_EQ(total("flb.net.messages"), messages);
}

// ---------------------------------------------------------------------------
// Bench result writer
// ---------------------------------------------------------------------------

TEST(BenchJsonTest, SchemaRoundTrips) {
  bench::BenchJson json;
  json.set_bench("bench_test");
  json.set_section("section one");
  json.Record("metric_a", 1.25, "s");
  json.Record("other section", "metric_b", 42.0, "values/s");
  EXPECT_EQ(json.num_records(), 2u);

  JsonValue doc;
  ASSERT_TRUE(JsonParser(json.ToJson()).Parse(&doc));
  EXPECT_EQ(doc.At("bench").str, "bench_test");
  const auto& results = doc.At("results").array;
  ASSERT_EQ(results.size(), 2u);
  for (const JsonValue& r : results) {
    ASSERT_TRUE(r.Has("bench"));
    ASSERT_TRUE(r.Has("section"));
    ASSERT_TRUE(r.Has("metric"));
    ASSERT_TRUE(r.Has("value"));
    ASSERT_TRUE(r.Has("unit"));
  }
  EXPECT_EQ(results[0].At("section").str, "section one");
  EXPECT_EQ(results[0].At("metric").str, "metric_a");
  EXPECT_DOUBLE_EQ(results[0].At("value").number, 1.25);
  EXPECT_EQ(results[1].At("section").str, "other section");
}

}  // namespace
}  // namespace flb
