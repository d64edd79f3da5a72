// Private set intersection by RSA blind signatures — FATE's sample
// alignment step for heterogeneous FL, run on crypto::RsaContext's key
// generation and CRT signing. No paper table measures it, so it lives
// beside its one user, examples/psi_alignment.cpp, not in the flb library.
//
// Before vertical training, guest and host must find the sample IDs they
// share without revealing the rest. The classic blind-RSA protocol:
//
//   host:  generates (n, e, d); publishes (n, e).
//   guest: for each id u, draws a unit r and sends  y = H(u) * r^e mod n.
//   host:  signs blindly:                           z = y^d = H(u)^d * r.
//   guest: unblinds t = z * r^{-1} = H(u)^d and tags it with H2(t).
//   host:  tags its own ids the same way (t' = H(v)^d) and sends the tags.
//   guest: intersects tag sets -> the shared IDs.
//
// The host never sees the guest's ids (only blinded group elements); the
// guest learns nothing about host ids outside the intersection beyond
// random-looking tags. H is a full-domain hash into Z_n built from
// splitmix64 expansion; H2 truncates a second expansion to 64 bits.

#ifndef FLB_EXAMPLES_PSI_PSI_H_
#define FLB_EXAMPLES_PSI_PSI_H_

#include <cstdint>
#include <vector>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/sim_clock.h"
#include "src/net/network.h"

namespace flb::fl {

struct PsiOptions {
  int rsa_key_bits = 512;
  uint64_t seed = 99;
};

struct PsiStats {
  size_t guest_ids = 0;
  size_t host_ids = 0;
  size_t intersection = 0;
  uint64_t blind_signatures = 0;  // host-side RSA exponentiations
  uint64_t comm_bytes = 0;
};

// Runs the protocol between parties "guest" and "host" over `network`
// (bytes and transfer time are accounted; RSA compute is charged to the
// clock when non-null). Returns the shared ids in ascending order —
// revealed to the guest, as in FATE.
Result<std::vector<uint64_t>> RsaPsiIntersect(
    const std::vector<uint64_t>& guest_ids,
    const std::vector<uint64_t>& host_ids, const PsiOptions& options,
    net::Network* network, SimClock* clock, PsiStats* stats = nullptr);

}  // namespace flb::fl

#endif  // FLB_EXAMPLES_PSI_PSI_H_
