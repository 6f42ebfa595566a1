#include "protocols/registry.hpp"

#include <cctype>
#include <cstdlib>

#include "protocols/binary_exponential.hpp"
#include "protocols/fixed_probability.hpp"
#include "protocols/log_backoff.hpp"
#include "protocols/low_sensing.hpp"
#include "protocols/mw_full_sensing.hpp"
#include "protocols/polynomial_backoff.hpp"
#include "protocols/windowed_ethernet.hpp"

namespace lowsense {

std::unique_ptr<ProtocolFactory> make_protocol(const std::string& name) {
  if (name == "low-sensing" || name == "lsb") {
    return std::make_unique<LowSensingFactory>();
  }
  if (name == "binary-exponential" || name == "beb") {
    return std::make_unique<BinaryExponentialFactory>();
  }
  if (name == "capped-exponential") {
    BinaryExponentialParams p;
    p.max_window = 1024.0;  // Ethernet's truncation point
    return std::make_unique<BinaryExponentialFactory>(p);
  }
  if (name == "polynomial") {
    return std::make_unique<PolynomialBackoffFactory>();
  }
  if (name == "slow-oblivious") {
    return std::make_unique<SlowBackoffFactory>();
  }
  if (name == "mw-full-sensing" || name == "mw") {
    return std::make_unique<MwFullSensingFactory>();
  }
  if (name == "windowed-ethernet" || name == "ethernet") {
    return std::make_unique<WindowedEthernetFactory>();
  }
  if (name.rfind("aloha:", 0) == 0) {
    // `p` is the whole rest of the name: "aloha:0.5x", "aloha:" and
    // "aloha: 0.5" name no protocol.
    const char* text = name.c_str() + 6;
    char* end = nullptr;
    const double p = std::strtod(text, &end);
    if (std::isspace(static_cast<unsigned char>(*text)) || end == text ||
        end != name.c_str() + name.size()) {
      return nullptr;
    }
    if (p > 0.0 && p <= 1.0) return std::make_unique<FixedProbabilityFactory>(p);
    return nullptr;
  }
  return nullptr;
}

std::vector<std::string> protocol_names() {
  return {"low-sensing",   "binary-exponential", "capped-exponential",
          "polynomial",    "slow-oblivious",     "mw-full-sensing",
          "windowed-ethernet", "aloha:<p>"};
}

}  // namespace lowsense
