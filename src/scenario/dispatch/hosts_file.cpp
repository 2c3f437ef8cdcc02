#include "scenario/dispatch/hosts_file.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "scenario/json_util.hpp"
#include "sim/suggest.hpp"

namespace pnoc::scenario::dispatch {
namespace {

HostEntry parseEntry(const JsonValue& object, std::size_t ordinal) {
  if (object.kind() != JsonValue::Kind::kObject) {
    throw std::invalid_argument("host entry #" + std::to_string(ordinal) +
                                " is not a JSON object");
  }
  HostEntry entry;
  for (const auto& [key, value] : object.members()) {
    if (key == "launcher") {
      if (value.kind() == JsonValue::Kind::kArray) {
        for (const JsonValue& token : value.items()) {
          entry.launcher.push_back(token.asString());
        }
      } else {
        entry.launcher = splitLauncher(value.asString());
      }
    } else if (key == "workers") {
      const std::uint64_t workers = value.asU64();
      if (workers == 0) {
        throw std::invalid_argument("host entry #" + std::to_string(ordinal) +
                                    ": workers must be >= 1");
      }
      entry.workers = static_cast<unsigned>(workers);
    } else if (key == "executable") {
      entry.executable = value.asString();
    } else if (key == "connect_timeout_ms") {
      const std::uint64_t ms = value.asU64();
      if (ms == 0) {
        throw std::invalid_argument("host entry #" + std::to_string(ordinal) +
                                    ": connect_timeout_ms must be >= 1");
      }
      entry.connectTimeoutMs = ms;
    } else {
      throw std::invalid_argument(
          "host entry #" + std::to_string(ordinal) + ": unknown key '" + key +
          "'" +
          sim::didYouMean(
              key, {"launcher", "workers", "executable", "connect_timeout_ms"}) +
          " (launcher | workers | executable | connect_timeout_ms)");
    }
  }
  return entry;
}

FaultPolicy parsePolicyObject(const JsonValue& object) {
  if (object.kind() != JsonValue::Kind::kObject) {
    throw std::invalid_argument("\"policy\" is not a JSON object");
  }
  FaultPolicy policy;
  for (const auto& [key, value] : object.members()) {
    if (!isPolicyKey(key)) {
      throw std::invalid_argument("policy: unknown key '" + key + "'" +
                                  sim::didYouMean(key, policyKeys()) + "\n" +
                                  policyHelpText());
    }
    // fail_soft reads naturally as JSON true/false; every knob also takes
    // the numeric form the CLI uses.
    const std::uint64_t number =
        value.kind() == JsonValue::Kind::kBool ? (value.asBool() ? 1 : 0)
                                               : value.asU64();
    try {
      setPolicyField(policy, key, number);
    } catch (const std::invalid_argument& error) {
      throw std::invalid_argument(std::string("policy: ") + error.what());
    }
  }
  return policy;
}

}  // namespace

std::vector<std::string> splitLauncher(const std::string& text) {
  std::vector<std::string> tokens;
  std::istringstream in(text);
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

HostsFleet parseHostsFleetText(const std::string& text, const std::string& origin) {
  try {
    const JsonValue document = JsonValue::parse(text);
    HostsFleet fleet;
    const JsonValue* list = &document;
    if (document.kind() == JsonValue::Kind::kObject) {
      list = nullptr;
      for (const auto& [key, value] : document.members()) {
        if (key == "hosts") {
          list = &value;
        } else if (key == "policy") {
          fleet.policy = parsePolicyObject(value);
        } else {
          throw std::invalid_argument("unknown top-level key '" + key + "'" +
                                      sim::didYouMean(key, {"hosts", "policy"}) +
                                      " (expected \"hosts\" or \"policy\")");
        }
      }
      if (list == nullptr) {
        throw std::invalid_argument("object form lacks a \"hosts\" array");
      }
    }
    if (list->kind() != JsonValue::Kind::kArray) {
      throw std::invalid_argument("expected a JSON array of host entries");
    }
    for (std::size_t i = 0; i < list->items().size(); ++i) {
      fleet.hosts.push_back(parseEntry(list->items()[i], i));
    }
    if (fleet.hosts.empty()) {
      throw std::invalid_argument("file lists no hosts");
    }
    return fleet;
  } catch (const std::invalid_argument& error) {
    throw std::invalid_argument("hosts file '" + origin + "': " + error.what());
  }
}

HostsFleet loadHostsFleet(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("hosts file '" + path + "': cannot open");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parseHostsFleetText(text.str(), path);
}

std::vector<WorkerTransport> transportsFor(const std::vector<HostEntry>& hosts) {
  std::vector<WorkerTransport> transports;
  for (const HostEntry& host : hosts) {
    transports.insert(transports.end(), host.workers, WorkerTransport(host));
  }
  return transports;
}

std::size_t totalWorkers(const std::vector<HostEntry>& hosts) {
  std::size_t total = 0;
  for (const HostEntry& host : hosts) total += host.workers;
  return total;
}

}  // namespace pnoc::scenario::dispatch
