#include "scenario/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string_view>

#include "scenario/dispatch/hosts_file.hpp"
#include "scenario/spec_file.hpp"
#include "scenario/worker.hpp"
#include "sim/suggest.hpp"
#include "traffic/registry.hpp"
#include "workload/registry.hpp"

namespace pnoc::scenario {

Cli::Cli(std::string binary, std::string synopsis)
    : binary_(std::move(binary)), synopsis_(std::move(synopsis)) {}

void Cli::addKey(std::string key, std::string doc) {
  extraKeys_.emplace_back(std::move(key), std::move(doc));
}

CliStatus Cli::parse(int argc, char** argv, ScenarioSpec* spec) {
  // Worker invocation: the dispatch fleet re-execs this binary with one
  // flag; everything else (including the binary's own defaults) is ignored —
  // the jobs on stdin carry complete specs.
  if (argc > 1 && std::string_view(argv[1]) == kWorkerFlag) {
    workerExitCode_ = runWorkerLoop(std::cin, std::cout);
    return CliStatus::kWorker;
  }

  // Partition argv: @file spec files (order preserved) vs key=value tokens.
  std::vector<char*> kvArgs;
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] == '@') {
      specFiles_.emplace_back(argv[i] + 1);
    } else {
      kvArgs.push_back(argv[i]);
    }
  }
  if (auto error = config_.parseArgs(static_cast<int>(kvArgs.size()), kvArgs.data())) {
    std::fprintf(stderr, "%s: %s\n", binary_.c_str(), error->c_str());
    return CliStatus::kError;
  }

  bool help = false;
  try {
    help = config_.getBool("help", false);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "%s: %s\n", binary_.c_str(), error.what());
    return CliStatus::kError;
  }
  if (help) {
    std::printf("%s — %s\n\n", binary_.c_str(), synopsis_.c_str());
    if (spec != nullptr) {
      std::printf("%s", ScenarioSpec::helpText(*spec).c_str());
    }
    if (runnerKeys_) {
      std::printf("\nrunner keys:\n");
      if (spec != nullptr) {
        std::printf("  @file                       load scenario keys from a key=value"
                    " or JSON spec file\n");
      }
      std::printf("  shards=0                    local worker processes (0 ="
                  " hardware concurrency)\n");
      std::printf("  hosts=@hosts.json           run on a hosts-file fleet instead"
                  " (see scripts/grids/hosts.example.json)\n");
      std::printf("\nfault policy (hosts-file \"policy\" object, CLI keys win):\n%s",
                  dispatch::policyHelpText().c_str());
    }
    if (spec != nullptr) {
      std::printf("\n%s", traffic::patternHelpText().c_str());
      std::printf("\n%s", workload::workloadHelpText().c_str());
    }
    if (!extraKeys_.empty()) {
      std::printf("\n%s options:\n", binary_.c_str());
      for (const auto& [key, doc] : extraKeys_) {
        std::string left = "  " + key;
        if (left.size() < 30) left.resize(30, ' ');
        std::printf("%s  %s\n", left.c_str(), doc.c_str());
      }
    }
    return CliStatus::kHelp;
  }

  if (spec != nullptr) {
    try {
      // Spec files first, command-line keys second: the command line wins.
      if (!collectSpecFiles_) {
        for (const std::string& path : specFiles_) {
          std::vector<ScenarioSpec> loaded = loadSpecFile(path, *spec);
          if (loaded.size() != 1) {
            std::fprintf(stderr,
                         "%s: spec file '%s' holds %zu specs; this binary takes"
                         " exactly one (use pnoc_run for grids)\n",
                         binary_.c_str(), path.c_str(), loaded.size());
            return CliStatus::kError;
          }
          *spec = loaded[0];
        }
      }
      spec->applyOverrides(config_);
      // The spec is final unless the driver layers its own grid (and
      // validates each grid spec itself): refuse one that cannot build.
      if (!collectSpecFiles_) spec->validate();
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "%s: %s\n", binary_.c_str(), error.what());
      return CliStatus::kError;
    }
  } else if (!specFiles_.empty() && !collectSpecFiles_) {
    std::fprintf(stderr, "%s: @file spec arguments are not accepted (no scenario)\n",
                 binary_.c_str());
    return CliStatus::kError;
  }

  if (runnerKeys_) {
    try {
      applyRunnerKeys();
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "%s: %s\n", binary_.c_str(), error.what());
      return CliStatus::kError;
    }
  }

  // Reject anything that is neither a scenario/runner key (consumed above)
  // nor a declared binary key — typos must not silently simulate the wrong
  // thing.  The rejection names the nearest real key when one is close.
  std::vector<std::string> knownKeys;
  if (spec != nullptr) {
    for (const ScenarioField& field : ScenarioSpec::fields()) {
      knownKeys.push_back(field.key);
    }
  }
  if (runnerKeys_) {
    for (const std::string& key : dispatch::policyKeys()) knownKeys.push_back(key);
    knownKeys.insert(knownKeys.end(), {"shards", "hosts"});
  }
  knownKeys.push_back("help");
  for (const auto& [key, doc] : extraKeys_) knownKeys.push_back(key);
  bool unknown = false;
  for (const std::string& key : config_.unconsumedKeys()) {
    const bool declared =
        std::any_of(extraKeys_.begin(), extraKeys_.end(),
                    [&](const auto& entry) { return entry.first == key; });
    if (!declared) {
      std::fprintf(stderr, "%s: unknown option '%s'%s (help=1 lists the keys)\n",
                   binary_.c_str(), key.c_str(),
                   sim::didYouMean(key, knownKeys).c_str());
      unknown = true;
    }
  }
  return unknown ? CliStatus::kError : CliStatus::kRun;
}

void Cli::applyRunnerKeys() {
  // Runner keys ride next to the scenario keys on the binaries that
  // dispatch (and stand alone on spec-less fleet drivers like pnoc_serve).
  backendOptions_.workers = config_.getU32("shards", 0);
  std::string hosts = config_.getString("hosts", "");
  const bool hostsGiven = config_.contains("hosts");
  if (!hosts.empty() && hosts[0] == '@') hosts.erase(0, 1);
  if (hostsGiven && hosts.empty()) {
    // hosts= / hosts=@ (an unset shell variable, usually) must not
    // quietly fall back to a single-machine run.
    throw std::invalid_argument("hosts= needs a file path");
  }
  if (!hosts.empty()) {
    if (backendOptions_.workers != 0) {
      throw std::invalid_argument(
          "shards= and hosts= are mutually exclusive (the hosts file"
          " sizes the fleet)");
    }
    // Read and validate the fleet HERE, once: an unreadable or
    // malformed hosts file is a parse error, and the backend is built
    // from this parsed copy, never by re-reading the file later.
    dispatch::HostsFleet fleet = dispatch::loadHostsFleet(hosts);
    backendOptions_.hosts = std::move(fleet.hosts);
    backendOptions_.policy = fleet.policy;
  }
  // Fault-policy keys layer key-by-key over the hosts file's "policy"
  // object (loaded just above), so `retries=3` on the command line
  // overrides the file's retries but keeps its job_deadline_ms.
  for (const std::string& key : dispatch::policyKeys()) {
    if (!config_.contains(key)) continue;
    dispatch::setPolicyField(backendOptions_.policy, key, config_.getU64(key, 0));
  }
}

}  // namespace pnoc::scenario
