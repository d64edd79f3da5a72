// Simulated client-server network (DESIGN.md §1: Gigabit Ethernet
// substitute).
//
// All FL parties live in one process; Network routes messages between named
// parties, counts every byte, and charges transfer time
// (latency + bytes/bandwidth) to the SimClock — the paper Eq. 10-style
// accounting for the communication component of each epoch. Per-topic byte
// counters feed the Table VI component breakdown and the Fig. 7
// compression-ratio measurements.

#ifndef FLB_NET_NETWORK_H_
#define FLB_NET_NETWORK_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/deadline.h"
#include "src/common/mutex.h"
#include "src/common/result.h"
#include "src/common/sim_clock.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace flb::net {

struct LinkSpec {
  // Gigabit Ethernet: ~125 MB/s effective, sub-millisecond LAN RTT.
  double bandwidth_bytes_per_sec = 117.0e6;  // 1 Gbps minus framing overhead
  double latency_sec = 250e-6;
  // Per-serialized-HE-object protocol cost. In FATE's stack every
  // ciphertext is a Python object that is pickled, enveloped, and routed
  // through the eggroll/RPC layer; the paper's measured communication times
  // (Table VI: ~48% of a FATE epoch at Gigabit speeds) are only consistent
  // with a milliseconds-per-object cost, not raw bandwidth. Batch
  // compression attacks exactly this term by collapsing the object count.
  double per_object_overhead_sec = 1.5e-3;

  static LinkSpec GigabitEthernet() { return LinkSpec{}; }
};

struct Message {
  std::string from;
  std::string to;
  std::string topic;
  std::vector<uint8_t> payload;
};

struct NetworkStats {
  uint64_t messages = 0;
  uint64_t bytes = 0;
  std::map<std::string, uint64_t> bytes_by_topic;
  double seconds = 0.0;
};

class FaultInjector;
class ReliableChannel;

// Delivery outcome of one SendDirect attempt, as decided by the attached
// FaultInjector (all-true-delivery when none is attached). ReliableChannel
// reads this to drive its ack/retransmit loop.
struct SendOutcome {
  bool delivered = true;
  bool corrupted = false;
  bool duplicated = false;
};

class Network : public obs::MetricsSource {
 public:
  // `clock` may be null (bytes still counted, no time charged).
  explicit Network(LinkSpec link = LinkSpec::GigabitEthernet(),
                   SimClock* clock = nullptr)
      : link_(link),
        clock_(clock),
        instance_(obs::TraceRecorder::Global().UniqueProcessName("net")) {}

  const LinkSpec& link() const { return link_; }
  SimClock* clock() const { return clock_; }

  // Optional fault injection: when set, every SendDirect consults the
  // injector (drop/duplicate/reorder/corrupt/delay + partitions + crashes)
  // and transfer time from straggler parties is slowed by their factor.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  // Optional reliability: when set, Send/Receive route through the channel
  // (framing, ack/retransmit, duplicate suppression); the channel itself
  // uses the *Direct entry points below. Platform attaches a channel
  // whenever a fault plan is configured; without one the direct path is
  // byte-for-byte the legacy behavior.
  void set_reliable_channel(ReliableChannel* channel) { reliable_ = channel; }
  ReliableChannel* reliable_channel() const { return reliable_; }

  // Optional run-wide deadline: when set and expired, Send/Receive return
  // typed kDeadlineExceeded before touching the wire. Inert (no accounting
  // change) while the budget lasts.
  void set_deadline(const common::Deadline* deadline) { deadline_ = deadline; }
  const common::Deadline* deadline() const { return deadline_; }

  // Enqueues the message at `to` and charges transfer time. A small framing
  // overhead (headers) is added to the payload size; `objects` is the
  // number of serialized HE objects in the payload, each charged the link's
  // per-object protocol overhead (see LinkSpec). Routes through the
  // reliable channel when one is attached.
  Status Send(const std::string& from, const std::string& to,
              const std::string& topic, std::vector<uint8_t> payload,
              size_t objects = 0);

  // Pops the oldest message for `to` with the given topic. NotFound if none
  // is pending — without a reliable channel that is a protocol bug in this
  // sequential harness, so callers generally treat it as fatal; with one,
  // absence becomes a typed recoverable error (kUnavailable).
  Result<Message> Receive(const std::string& to, const std::string& topic);

  // The raw transport under the reliable channel: one delivery attempt /
  // one inbox pop, no framing or retransmission. `outcome` (may be null)
  // reports what the fault injector did to the attempt.
  Status SendDirect(const std::string& from, const std::string& to,
                    const std::string& topic, std::vector<uint8_t> payload,
                    size_t objects = 0, SendOutcome* outcome = nullptr);
  Result<Message> ReceiveDirect(const std::string& to,
                                const std::string& topic);

  // Charges wire time + bytes for a control message (acks) without
  // enqueuing anything: counted under bytes_by_topic[topic], not messages.
  void ChargeControl(const std::string& from, const std::string& to,
                     const std::string& topic, size_t bytes);

  // Drops every pending message (server-restart semantics: in-flight state
  // is lost when the aggregator recovers from a crash).
  void PurgeInboxes() {
    common::MutexLock lock(mu_);
    inboxes_.clear();
  }

  // Snapshot by value: the counters keep moving under their own lock.
  NetworkStats stats() const {
    common::MutexLock lock(mu_);
    return stats_;
  }

  // obs::MetricsSource: NetworkStats exposed through the unified registry.
  void CollectMetrics(std::vector<obs::MetricValue>& out) const override;

  // Transfer time this link would charge for `bytes` carrying `objects`
  // serialized HE objects (exposed for the analytic model benches).
  double TransferSeconds(size_t bytes, size_t objects = 0) const {
    return link_.latency_sec + bytes / link_.bandwidth_bytes_per_sec +
           objects * link_.per_object_overhead_sec;
  }

 private:
  static constexpr size_t kFramingBytes = 64;  // TCP/IP + protocol headers

  LinkSpec link_;
  SimClock* clock_;
  FaultInjector* injector_ = nullptr;
  ReliableChannel* reliable_ = nullptr;
  const common::Deadline* deadline_ = nullptr;
  std::string instance_;
  // Leaf lock over the mutable routing state. Never held across calls into
  // the injector, the clock, or the observability singletons (registry /
  // recorder lock ordering: theirs may be held while ours is taken via
  // CollectMetrics, never the reverse).
  mutable common::Mutex mu_;
  std::map<std::string, std::deque<Message>> inboxes_ FLB_GUARDED_BY(mu_);
  NetworkStats stats_ FLB_GUARDED_BY(mu_);

  // Registers NetworkStats with the global MetricsRegistry for the
  // network's lifetime (declared last: registration after the stats exist).
  obs::ScopedMetricsSource metrics_registration_{this};
};

}  // namespace flb::net

#endif  // FLB_NET_NETWORK_H_
