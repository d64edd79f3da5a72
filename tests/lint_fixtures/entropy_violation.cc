// Fixture: FLB002 entropy. Unseeded randomness outside common::Rng breaks
// bit-identical replay. Violations are pinned to exact lines by
// tests/flb_analyze_test.cc — edit with care.

namespace fixture {

int NondeterministicDraw() {
  return rand() % 7;  // line 8: FLB002
}

}  // namespace fixture
