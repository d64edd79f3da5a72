// fixture: no findings — single-lock nesting, deterministic accounting,
// downward includes only.
#include "src/common/mutex.h"

class Meter {
 public:
  void Add(double seconds) {
    common::MutexLock lock(mu_);
    total_ = total_ + seconds;
  }
  double total() const { return total_; }

 private:
  common::Mutex mu_;
  double total_ FLB_GUARDED_BY(mu_) = 0.0;
};
