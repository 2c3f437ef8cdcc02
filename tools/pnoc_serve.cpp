// pnoc_serve: the persistent scheduler daemon — a Unix-domain socket service
// that accepts spec-grid jobs from many concurrent clients and schedules
// them, at per-unit granularity, onto one shared elastic worker fleet.
//
//   pnoc_serve socket=/run/pnoc.sock [journal=/run/pnoc.journal]
//              [shards=N] [hosts=@hosts.json] [executable=/path/to/pnoc_run]
//              [retries=N] [respawns=N] [pipeline=D] [policy keys ...]
//
// The daemon speaks newline-delimited JSON (see src/service/server.hpp for
// the verb set); `pnoc_run serve=<socket> ...` is the matching thin client.
// Every accepted submit is fsync'd to the queue journal BEFORE it is
// acknowledged, and per-job BENCH checkpoints flush as units complete, so
// killing the daemon (SIGINT, SIGTERM, SIGKILL, power loss) and restarting
// it resumes every accepted job and produces byte-identical output files.
#include <algorithm>
#include <cstdio>
#include <exception>

#include "scenario/cli.hpp"
#include "service/server.hpp"
#include "sim/interrupt.hpp"

using namespace pnoc;

int main(int argc, char** argv) {
  scenario::Cli cli("pnoc_serve",
                    "scheduler daemon: socket service -> durable job queue ->"
                    " shared elastic worker fleet");
  cli.addKey("socket", "Unix-domain socket path to listen on (required)");
  cli.addKey("journal", "queue journal path (default <socket>.journal)");
  cli.addKey("executable",
             "worker binary for local shards and op=fleet-add (default: this"
             " binary)");
  cli.addKey("trace", "Chrome-trace span output file (open in ui.perfetto.dev)");
  cli.setRunnerKeys(true);
  switch (cli.parse(argc, argv, nullptr)) {
    case scenario::CliStatus::kHelp:
      std::printf("\nusage: pnoc_serve socket=/run/pnoc.sock [shards=N]"
                  " [hosts=@hosts.json]\n"
                  "shards=N starts N local workers; shards=0 (the default) starts"
                  " one,\nnot one per hardware thread as on pnoc_run.\n"
                  "clients: pnoc_run serve=/run/pnoc.sock op=submit @grid.json"
                  " ...\n");
      return 0;
    case scenario::CliStatus::kError: return 1;
    case scenario::CliStatus::kWorker: return cli.workerExitCode();
    case scenario::CliStatus::kRun: break;
  }

  try {
    service::ServeOptions options;
    options.socketPath = cli.config().getString("socket", "");
    if (options.socketPath.empty()) {
      std::fprintf(stderr, "pnoc_serve: socket= is required (the Unix-domain"
                   " socket path clients connect to)\n");
      return 1;
    }
    options.journalPath =
        cli.config().getString("journal", options.socketPath + ".journal");
    options.workerExecutable = cli.config().getString("executable", "");
    options.tracePath = cli.config().getString("trace", "");
    options.hosts = cli.backendOptions().hosts;
    if (options.hosts.empty()) {
      // shards=N executable=X is the fleet [{"workers":max(N,1),
      // "executable":X}]: a daemon always starts with at least one worker.
      options.hosts.push_back(scenario::dispatch::HostEntry{
          .workers = std::max(cli.backendOptions().workers, 1u),
          .executable = options.workerExecutable});
    }
    options.policy = cli.backendOptions().policy;

    sim::installInterruptHandlers();
    service::ServeDaemon daemon(std::move(options));
    daemon.start();
    return daemon.run();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "pnoc_serve: %s\n", error.what());
    return 1;
  }
}
