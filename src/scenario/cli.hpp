// Shared command-line intake for every bench, example and driver binary.
//
// All binaries speak the same dialect: `key=value` tokens, `@file` arguments
// that load key=value or JSON spec files, `help=1` for a generated listing,
// and hard rejection of unknown keys.  Scenario keys come from the
// ScenarioSpec binding table; binaries that call setRunnerKeys(true) also get
// the runner keys `shards=N` and `hosts=@hosts.json` plus the fault-policy
// keys, which describe the worker fleet every batch runs on (read them back
// via backendOptions()); a binary declares its own extra keys (json output
// directory, sweep sizes, ...) up front so they are known too.
//
//   scenario::ScenarioSpec spec;             // binary defaults go here
//   spec.params.pattern = "skewed3";
//   scenario::Cli cli("quickstart", "one run, both architectures");
//   cli.addKey("json", "directory for the BENCH record (default .)");
//   cli.setRunnerKeys(true);
//   switch (cli.parse(argc, argv, &spec)) {
//     case scenario::CliStatus::kHelp: return 0;
//     case scenario::CliStatus::kError: return 1;
//     case scenario::CliStatus::kWorker: return cli.workerExitCode();
//     case scenario::CliStatus::kRun: break;
//   }
//   const auto backend = scenario::makeBackend(cli.backendOptions());
//   const std::string jsonDir = cli.config().getString("json", ".");
//
// Every binary that parses through Cli is automatically a dispatch worker
// host: invoked as `<binary> --pnoc-worker` it speaks the JSON job protocol
// on stdin/stdout (scenario/worker.hpp) and exits (the kWorker status
// above).  A binary that calls makeBackend relies on this: its local
// workers are re-execs of itself.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "scenario/execution_backend.hpp"
#include "scenario/scenario_spec.hpp"
#include "sim/config.hpp"

namespace pnoc::scenario {

enum class CliStatus {
  kRun,     // proceed; overrides applied
  kHelp,    // help=1 printed the key listing; exit 0
  kError,   // malformed/unknown input reported on stderr; exit non-zero
  kWorker,  // ran as a protocol worker; exit workerExitCode()
};

class Cli {
 public:
  /// `binary` and `synopsis` head the help=1 output.
  Cli(std::string binary, std::string synopsis);

  /// Declares a binary-specific key (with its help line).  Declared keys
  /// pass the unknown-key check; read their values from config() after
  /// parse().
  void addKey(std::string key, std::string doc);

  /// Drivers with their own grid handling: collect @file paths into
  /// specFiles() instead of applying them onto the parsed spec.
  void setCollectSpecFiles(bool collect) { collectSpecFiles_ = collect; }

  /// Binaries that dispatch to a worker fleet (pnoc_run, pnoc_serve,
  /// quickstart): accept the runner keys (shards=/hosts=) and the
  /// fault-policy keys.  Every other binary rejects them as unknown keys.
  void setRunnerKeys(bool enable) { runnerKeys_ = enable; }

  /// Parses argv[1..]: applies @file spec files and scenario-key overrides
  /// onto `*spec` (skipped when spec == nullptr, for binaries without a
  /// simulation scenario) and validates it (ScenarioSpec::validate; not
  /// with setCollectSpecFiles, whose driver validates each grid spec),
  /// handles help=1 and --pnoc-worker, parses the runner keys when enabled,
  /// rejects unknown keys and malformed values.
  CliStatus parse(int argc, char** argv, ScenarioSpec* spec);

  /// The parsed key=value store (for binary-specific keys).
  sim::Config& config() { return config_; }

  /// The fleet parsed from shards=/hosts= and the fault-policy keys
  /// (defaults: auto local worker count, default policy).
  const BackendOptions& backendOptions() const { return backendOptions_; }

  /// @file arguments in command-line order (driver mode; see
  /// setCollectSpecFiles).
  const std::vector<std::string>& specFiles() const { return specFiles_; }

  /// Exit code of the worker loop after parse() returned kWorker.
  int workerExitCode() const { return workerExitCode_; }

 private:
  std::string binary_;
  std::string synopsis_;
  std::vector<std::pair<std::string, std::string>> extraKeys_;  // key, doc
  std::vector<std::string> specFiles_;
  sim::Config config_;
  BackendOptions backendOptions_;
  bool collectSpecFiles_ = false;
  bool runnerKeys_ = false;
  int workerExitCode_ = 0;

  void applyRunnerKeys();  // shards=/hosts= + policy keys; throws
};

}  // namespace pnoc::scenario
