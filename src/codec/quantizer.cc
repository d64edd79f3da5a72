#include "src/codec/quantizer.h"

#include <cmath>

#include "src/common/check.h"

namespace flb::codec {

namespace {

int CeilLog2(int p) {
  FLB_CHECK(p >= 1);
  int bits = 0;
  int v = p - 1;
  while (v > 0) {
    ++bits;
    v >>= 1;
  }
  return bits;  // ceil(log2(p)), 0 for p == 1
}

}  // namespace

Result<Quantizer> Quantizer::Create(const QuantizerConfig& config) {
  if (!(config.alpha > 0.0) || !std::isfinite(config.alpha)) {
    return Status::InvalidArgument("Quantizer: alpha must be finite and > 0");
  }
  if (config.r_bits < 2 || config.r_bits > 52) {
    return Status::InvalidArgument("Quantizer: r_bits must be in [2, 52]");
  }
  if (config.participants < 1) {
    return Status::InvalidArgument("Quantizer: participants must be >= 1");
  }
  Quantizer q(config);
  if (q.slot_bits() > 62) {
    return Status::InvalidArgument(
        "Quantizer: slot width r + ceil(log2 p) must be <= 62 bits");
  }
  return q;
}

Quantizer::Quantizer(const QuantizerConfig& config)
    : config_(config),
      overflow_bits_(CeilLog2(config.participants)),
      q_max_((uint64_t{1} << config.r_bits) - 1) {}

double Quantizer::MaxAbsoluteError() const {
  return config_.alpha / static_cast<double>(q_max_);
}

Result<uint64_t> Quantizer::Encode(double m) const {
  if (!std::isfinite(m)) {
    return Status::InvalidArgument("Quantizer::Encode: non-finite input");
  }
  if (m < -config_.alpha || m > config_.alpha) {
    if (!config_.clamp) {
      return Status::OutOfRange("Quantizer::Encode: |m| exceeds alpha");
    }
    m = m < 0 ? -config_.alpha : config_.alpha;
  }
  const double e = m + config_.alpha;  // Eq. 6
  const double scaled =
      e / (2.0 * config_.alpha) * static_cast<double>(q_max_);  // Eq. 7
  uint64_t q = static_cast<uint64_t>(std::llround(scaled));
  if (q > q_max_) q = q_max_;  // guard the round-up at m == +alpha
  return q;
}

Result<double> Quantizer::DecodeAggregate(uint64_t slot,
                                          int num_contributors) const {
  if (num_contributors < 1 || num_contributors > config_.participants) {
    return Status::OutOfRange(
        "DecodeAggregate: contributor count outside configured headroom");
  }
  if (slot > static_cast<uint64_t>(num_contributors) * q_max_) {
    return Status::ArithmeticError(
        "DecodeAggregate: slot value exceeds the contributor bound "
        "(overflow or corruption)");
  }
  return static_cast<double>(slot) / static_cast<double>(q_max_) * 2.0 *
             config_.alpha -
         num_contributors * config_.alpha;
}

Result<std::vector<uint64_t>> Quantizer::EncodeBatch(
    const std::vector<double>& ms) const {
  std::vector<uint64_t> out;
  out.reserve(ms.size());
  for (double m : ms) {
    FLB_ASSIGN_OR_RETURN(uint64_t q, Encode(m));
    out.push_back(q);
  }
  return out;
}

Result<std::vector<double>> Quantizer::DecodeAggregateBatch(
    const std::vector<uint64_t>& slots, int num_contributors) const {
  std::vector<double> out;
  out.reserve(slots.size());
  for (uint64_t slot : slots) {
    FLB_ASSIGN_OR_RETURN(double m, DecodeAggregate(slot, num_contributors));
    out.push_back(m);
  }
  return out;
}

}  // namespace flb::codec
