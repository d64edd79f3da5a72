// WallTimer: measured (real) elapsed time, used by micro-benchmarks and by
// the CPU-HE cost calibration in src/core/cost_model.

#ifndef FLB_COMMON_TIMER_H_
#define FLB_COMMON_TIMER_H_

#include <chrono>

namespace flb {

class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  // flb-lint: allow-next-line(FLB001) the one sanctioned wall-clock reader
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace flb

#endif  // FLB_COMMON_TIMER_H_
