// ReliableChannel: ack/retransmit reliability on top of the lossy Network.
//
// Every message is framed (see serializer.h: magic + CRC32 + per-link
// sequence number) and sent with a stop-and-wait ack/retransmit loop:
//
//   * a delivery attempt that the fault injector drops (loss, partition,
//     crashed peer) or corrupts (receiver would CRC-NAK) is retried after an
//     exponentially backed-off RTO, charged to the SimClock;
//   * every successful delivery is acknowledged with a small control
//     message charged in the reverse direction;
//   * the retry loop is bounded by a per-message simulated-time deadline
//     budget and an attempt cap — exhaustion surfaces as typed
//     kDeadlineExceeded / kUnavailable statuses the trainers treat as a
//     recoverable dropout, replacing the fatal-NotFound pattern;
//   * the receive side CRC-checks frames (kDataLoss detection), discards
//     corrupted copies, and suppresses duplicates by (link, seq).
//
// In this sequential in-process harness the loop runs at send time: the
// fault injector decides each attempt's fate immediately, so by the time
// Send returns OK exactly one clean copy (plus possibly duplicated or
// corrupted extras, which the receiver filters) is in the peer's inbox.
//
// With no fault injector attached the channel never retransmits and adds
// only the frame header + ack bytes over the raw Network — the "within ack
// overhead" accounting parity the tests pin down.

#ifndef FLB_NET_RELIABLE_CHANNEL_H_
#define FLB_NET_RELIABLE_CHANNEL_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/deadline.h"
#include "src/common/mutex.h"
#include "src/common/result.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"

namespace flb::net {

class CircuitBreaker;

struct ReliableOptions {
  int max_attempts = 8;            // total tries per message
  double initial_rto_sec = 0.01;   // first retransmit timeout
  double backoff = 2.0;            // RTO multiplier per retry
  double max_rto_sec = 0.5;        // RTO cap
  double deadline_sec = 5.0;       // simulated-time budget per message
  size_t ack_bytes = 32;           // ack control-message size
  // Seeded multiplicative jitter on each backoff wait (+/- half of this
  // fraction), so concurrent retriers on different links don't retransmit
  // in lockstep. The jitter for (link, seq, attempt) is a pure function of
  // jitter_seed — bit-reproducible across reruns and thread counts. 0
  // disables it.
  double jitter_frac = 0.1;
  uint64_t jitter_seed = 1;

  // `base` overridden by the FLB_NET_RETRY environment variable when set:
  // comma-separated k=v pairs over the keys max_attempts, rto, backoff,
  // max_rto, deadline, ack_bytes, jitter, seed (e.g.
  // "max_attempts=4,rto=0.02,jitter=0.2"). InvalidArgument on unknown keys
  // or unparseable values.
  static Result<ReliableOptions> FromEnv(const ReliableOptions& base);
};

struct ChannelStats {
  uint64_t sends = 0;        // messages accepted by Send
  uint64_t attempts = 0;     // wire attempts (sends + retransmits)
  uint64_t retransmits = 0;
  uint64_t acks = 0;
  uint64_t timeouts = 0;     // sends that exhausted deadline/attempts
  uint64_t crc_failures = 0;           // corrupted frames discarded
  uint64_t duplicates_suppressed = 0;  // replayed seqs discarded
};

class ReliableChannel : public obs::MetricsSource {
 public:
  explicit ReliableChannel(Network* network, ReliableOptions options = {});

  const ReliableOptions& options() const { return options_; }

  // Optional per-link circuit breaker: when set, Send consults it before
  // touching the wire (open circuit = immediate typed kUnavailable with
  // zero charged time) and reports every whole-send outcome to it.
  void set_breaker(CircuitBreaker* breaker) { breaker_ = breaker; }
  CircuitBreaker* breaker() const { return breaker_; }

  // Optional run-wide deadline: when set, each send's retry budget is
  // clamped to the remaining run budget and an expired deadline surfaces
  // as typed kDeadlineExceeded before any attempt.
  void set_run_deadline(const common::Deadline* deadline) {
    run_deadline_ = deadline;
  }

  // Framed, acknowledged send. kDeadlineExceeded when the retry budget runs
  // out, kUnavailable when every attempt up to the cap was swallowed (peer
  // crashed or partitioned past the deadline horizon).
  Status Send(const std::string& from, const std::string& to,
              const std::string& topic, std::vector<uint8_t> payload,
              size_t objects = 0);

  // Pops, CRC-checks, and de-duplicates the next frame for (to, topic),
  // returning the unframed message. kUnavailable when nothing is pending
  // (the sender gave up or died — recoverable, unlike the raw NotFound);
  // kDataLoss when only corrupted frames were pending.
  Result<Message> Receive(const std::string& to, const std::string& topic);

  // Snapshot by value: the counters keep moving under their own lock.
  ChannelStats stats() const {
    common::MutexLock lock(mu_);
    return stats_;
  }

  // obs::MetricsSource: flb.net.reliable.* counters.
  void CollectMetrics(std::vector<obs::MetricValue>& out) const override;

 private:
  static std::string LinkKey(const std::string& from, const std::string& to,
                             const std::string& topic) {
    return from + '\x1f' + to + '\x1f' + topic;
  }

  Network* network_;
  ReliableOptions options_;
  CircuitBreaker* breaker_ = nullptr;
  const common::Deadline* run_deadline_ = nullptr;
  // Brief per-access leaf lock: never held across the Network / registry /
  // recorder calls inside the retry loop.
  mutable common::Mutex mu_;
  ChannelStats stats_ FLB_GUARDED_BY(mu_);
  std::map<std::string, uint64_t> next_seq_ FLB_GUARDED_BY(mu_);  // sender
  std::map<std::string, std::set<uint64_t>> delivered_
      FLB_GUARDED_BY(mu_);  // receiver side
  obs::ScopedMetricsSource metrics_registration_{this};
};

}  // namespace flb::net

#endif  // FLB_NET_RELIABLE_CHANNEL_H_
