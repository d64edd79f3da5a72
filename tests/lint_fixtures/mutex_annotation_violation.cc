// Fixture: FLB004 mutex-annotation. A raw std::mutex member is invisible
// to -Wthread-safety, and a common::Mutex member that no FLB_* annotation
// references guards nothing the analysis can check. Violations are pinned
// to exact lines by tests/flb_analyze_test.cc — edit with care.

#include <mutex>

#include "src/common/mutex.h"

namespace fixture {

class BadRawMutex {
 public:
  void Bump() {
    std::lock_guard<std::mutex> lock(mu_);
    ++count_;
  }

 private:
  std::mutex mu_;  // line 20: FLB004 (raw std::mutex member)
  int count_ = 0;
};

class UnreferencedMutex {
 public:
  void Bump() {
    flb::common::MutexLock lock(mu_);
    ++count_;
  }

 private:
  flb::common::Mutex mu_;  // line 32: FLB004 (no annotation references mu_)
  int count_ = 0;
};

}  // namespace fixture
