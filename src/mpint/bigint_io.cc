// BigInt text I/O: hex parsing and printing. Split from bigint.cc to keep
// the arithmetic core focused.

#include "src/mpint/bigint.h"

namespace flb::mpint {

namespace {

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

Result<BigInt> BigInt::FromHex(std::string_view hex) {
  if (hex.substr(0, 2) == "0x" || hex.substr(0, 2) == "0X") {
    hex.remove_prefix(2);
  }
  if (hex.empty()) {
    return Status::InvalidArgument("FromHex: empty input");
  }
  std::vector<uint32_t> words((hex.size() + 7) / 8, 0);
  // Consume hex digits from the least-significant end, 8 per limb.
  size_t nibble = 0;
  for (size_t i = hex.size(); i-- > 0; ++nibble) {
    const int d = HexDigit(hex[i]);
    if (d < 0) {
      return Status::InvalidArgument("FromHex: invalid hex digit '" +
                                     std::string(1, hex[i]) + "'");
    }
    words[nibble / 8] |= static_cast<uint32_t>(d) << (4 * (nibble % 8));
  }
  return FromWords(std::move(words));
}

std::string BigInt::ToHex() const {
  if (IsZero()) return "0";
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(limbs_.size() * 8);
  for (size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      out.push_back(kDigits[(limbs_[i] >> shift) & 0xF]);
    }
  }
  // Strip leading zeros of the top limb.
  const size_t first = out.find_first_not_of('0');
  return out.substr(first);
}

}  // namespace flb::mpint
