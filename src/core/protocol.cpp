#include "core/protocol.hpp"

#include <cmath>
#include <stdexcept>

namespace saer {

std::string to_string(Protocol p) {
  switch (p) {
    case Protocol::kSaer: return "SAER";
    case Protocol::kRaes: return "RAES";
  }
  return "?";
}

std::uint64_t ProtocolParams::capacity() const {
  const double cap = c * static_cast<double>(d);
  return cap < 1.0 ? 1 : static_cast<std::uint64_t>(std::llround(cap));
}

std::uint32_t ProtocolParams::default_max_rounds(NodeId n) {
  const double log2n = n > 1 ? std::log2(static_cast<double>(n)) : 1.0;
  return 50 + static_cast<std::uint32_t>(30.0 * std::ceil(log2n));
}

void ProtocolParams::validate() const {
  if (d == 0) throw std::invalid_argument("ProtocolParams: d must be >= 1");
  if (!(c > 0.0)) throw std::invalid_argument("ProtocolParams: c must be > 0");
  if (!std::isfinite(c))
    throw std::invalid_argument("ProtocolParams: c must be finite");
  // capacity() rounds c*d to a u64 through llround, which is only defined
  // below 2^63.
  if (c * static_cast<double>(d) >= 0x1p63)
    throw std::invalid_argument("ProtocolParams: c*d must be below 2^63");
}

}  // namespace saer
