// Fixture: FLB006 unbounded-retry. A loop that `continue`s on transient
// transport failure (kUnavailable / kDeadlineExceeded) without consulting
// an attempt counter or a common::Deadline spins forever against a dead
// peer. Violations are pinned to exact lines by tests/flb_analyze_test.cc —
// edit with care.

namespace fixture {

class Status {
 public:
  bool ok() const { return true; }
  bool IsUnavailable() const { return false; }
  bool IsDeadlineExceeded() const { return false; }
};

Status Poll();

void SpinForever() {
  while (true) {  // line 19: FLB006 (no budget anywhere in the loop)
    Status s = Poll();
    if (s.IsUnavailable()) continue;
    if (s.ok()) break;
  }
}

// Compliant: the attempt counter bounds the spin.
void BoundedRetry() {
  for (int attempt = 0; attempt < 5; ++attempt) {
    Status s = Poll();
    if (s.IsUnavailable()) continue;
    if (s.ok()) break;
  }
}

// Compliant: the loop consults a deadline before every retry.
void DeadlineBoundedRetry(bool (*deadline_expired)()) {
  while (!deadline_expired()) {
    Status s = Poll();
    if (s.IsDeadlineExceeded()) continue;
    if (s.ok()) break;
  }
}

}  // namespace fixture
