#include "service/protocol.hpp"

#include <stdexcept>

#include "scenario/json_util.hpp"
#include "scenario/version.hpp"
#include "scenario/wire.hpp"
#include "sim/suggest.hpp"

namespace pnoc::service {

std::string serviceBannerLine() {
  return std::string("{\"pnoc_serve\":") + std::to_string(kServeProtocolVersion) +
         ",\"build\":\"" + scenario::jsonEscape(scenario::kBuildVersion) + "\"}";
}

void checkServiceBanner(const std::string& line) {
  scenario::wire::checkHandshake(line, {"pnoc_serve", kServeProtocolVersion, "daemon",
                                        "client", "service protocol",
                                        "restart the daemon from this tree"});
}

const std::vector<std::string>& verbNames() {
  static const std::vector<std::string> names = {
      "submit", "status",   "watch",     "cancel",  "drain",
      "shutdown", "fleet-add", "fleet-remove", "metrics",
  };
  return names;
}

std::string toString(Verb verb) {
  return verbNames()[static_cast<std::size_t>(verb)];
}

Verb parseVerb(const std::string& name) {
  const std::vector<std::string>& names = verbNames();
  for (std::size_t v = 0; v < names.size(); ++v) {
    if (name == names[v]) return static_cast<Verb>(v);
  }
  std::string listed;
  for (const std::string& candidate : names) {
    if (!listed.empty()) listed += " | ";
    listed += candidate;
  }
  throw std::invalid_argument("unknown op '" + name + "'" +
                              sim::didYouMean(name, names) + " (" + listed + ")");
}

std::string errorReplyLine(const std::string& message) {
  return "{\"ok\":0,\"error\":\"" + scenario::jsonEscape(message) + "\"}";
}

}  // namespace pnoc::service
