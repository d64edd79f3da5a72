// CircuitBreaker: per-link closed/open/half-open failure isolation over
// simulated time (DESIGN.md §6).
//
// The ReliableChannel already bounds one message's retry loop, but a peer
// that stays down makes every subsequent send pay the full retry budget
// again. The breaker remembers: after `failure_threshold` consecutive
// whole-send failures (kUnavailable / kDeadlineExceeded after retries, or
// CRC-rejected receives) on a directed link it opens and sends fail fast
// with zero charged time. After a seeded-jittered backoff window of
// simulated seconds the link goes half-open and admits one probe; a probe
// success closes the circuit, a failure reopens it with a deeper window.
//
//   closed --N consecutive failures--> open
//   open   --open window elapsed----> half-open (one probe admitted)
//   half-open --probe success-------> closed
//   half-open --probe failure-------> open (backoff doubled, jittered)
//
// Determinism: the jitter for trip k of a link is drawn from
// Rng::ForStream(seed ^ fnv1a(link), k) — a pure function of (seed, link,
// trip count), independent of call interleaving and host thread count.
// Transitions emit flb.resilience.breaker.* counters, instants on the
// "breaker" trace track, and a live state snapshot into obs::RunStatus.

#ifndef FLB_NET_CIRCUIT_BREAKER_H_
#define FLB_NET_CIRCUIT_BREAKER_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "src/common/annotations.h"
#include "src/common/mutex.h"
#include "src/common/sim_clock.h"

namespace flb::net {

struct BreakerOptions {
  int failure_threshold = 3;   // consecutive send failures that trip
  double open_sec = 0.05;      // first open window (simulated seconds)
  double backoff = 2.0;        // window multiplier per consecutive trip
  double max_open_sec = 2.0;   // window cap
  double jitter_frac = 0.1;    // +/- half of this fraction, seeded
  uint64_t seed = 1;           // jitter stream seed
};

struct BreakerStats {
  uint64_t trips = 0;       // closed/half-open -> open transitions
  uint64_t fast_fails = 0;  // sends rejected while open
  uint64_t probes = 0;      // half-open admissions
  uint64_t closes = 0;      // half-open -> closed recoveries
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

class CircuitBreaker {
 public:
  // `clock` may be null: open windows then never elapse on their own, but
  // the trainers only attach a breaker alongside a SimClock in practice.
  explicit CircuitBreaker(BreakerOptions options, const SimClock* clock);

  const BreakerOptions& options() const { return options_; }

  // Gate for one send attempt from -> to. True admits the send (closed, or
  // open window elapsed -> half-open probe); false means fail fast without
  // touching the wire.
  bool AllowSend(const std::string& from, const std::string& to);

  // Outcome of an admitted send (or a receive-side CRC verdict) on the
  // directed link.
  void RecordSuccess(const std::string& from, const std::string& to);
  void RecordFailure(const std::string& from, const std::string& to);

  // Snapshot by value: the counters keep moving under their own lock.
  BreakerStats stats() const {
    common::MutexLock lock(mu_);
    return stats_;
  }

 private:
  struct LinkState {
    BreakerState state = BreakerState::kClosed;
    int consecutive_failures = 0;
    uint64_t trips = 0;          // lifetime trips of this link
    double open_until_sec = 0.0;
  };

  static std::string LinkKey(const std::string& from, const std::string& to) {
    return from + '>' + to;
  }

  double Now() const;
  // Jittered open window for trip number `trip` of `link` (>= 1).
  double OpenWindow(const std::string& link, uint64_t trip) const;
  // Trips `state` open at the current time; caller holds mu_.
  void TripLocked(const std::string& link, LinkState* state)
      FLB_REQUIRES(mu_);
  // Emits the transition metric + trace instant and refreshes the
  // RunStatus snapshot. Called after releasing mu_ (leaf-lock discipline).
  void RecordTransition(const char* kind, const std::string& link);
  void PublishStatus();

  BreakerOptions options_;
  const SimClock* clock_;
  mutable common::Mutex mu_;
  std::map<std::string, LinkState> links_ FLB_GUARDED_BY(mu_);
  BreakerStats stats_ FLB_GUARDED_BY(mu_);
};

}  // namespace flb::net

#endif  // FLB_NET_CIRCUIT_BREAKER_H_
