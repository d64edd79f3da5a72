// Fixture: FLB005 discarded-status. Dropping a Status/Result return loses
// typed errors on send/ack paths; (void)-casting without a justification is
// the same bug wearing a hat. Violations are pinned to exact lines by
// tests/flb_analyze_test.cc — edit with care.

namespace fixture {

class Status {
 public:
  bool ok() const { return true; }
};

Status SendFrame(int seq);
Status AckFrame(int seq);

void Retransmit() {
  SendFrame(1);         // line 17: FLB005 (bare discard)
  (void)AckFrame(1);    // line 18: FLB005 ((void) cast, no justification)
  (void)AckFrame(2);    // flb-lint: allow(FLB005) ack failure handled by RTO
  Status s = SendFrame(3);
  if (!s.ok()) return;
}

}  // namespace fixture
