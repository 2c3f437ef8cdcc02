// pnoc_run: the batch driver — loads a scenario grid from spec files, fans
// it out to a worker fleet (ExecutionBackend), and emits one merged
// BENCH_<bench>.json through the scenario layer's single record path.
//
//   pnoc_run @grid.json [@more.kv ...] [mode=run|peak]
//            [shards=N | hosts=@hosts.json] [resume=1] [bench=pnoc_run]
//            [json=.] [scenario overrides...]
//
// Grid files are key=value stanzas (blank-line separated) or JSON (object,
// array of objects, or newline-delimited objects); each spec starts from the
// defaults and command-line scenario keys override every loaded spec (the
// command line wins).  `mode=run` measures each spec at its fixed load;
// `mode=peak` runs a saturation search per spec.  Results and BENCH records
// are bit-identical across shard counts and transports, so a hosts file of
// many machines is a drop-in for the local fleet.
//
// Every run/peak record carries its `grid_index`, which makes the BENCH file
// a checkpoint: with `resume=1` an existing record's indices are skipped and
// only the remainder is dispatched, and the merged file is byte-identical
// (timing record aside) to an uninterrupted run.  The driver also rewrites
// the file as jobs complete (at most once a second,
// dispatch::BenchCheckpoint) when resuming or when no BENCH file existed at
// start, so a killed grid resumes from its last write instead of its last
// exit.
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <vector>

#include "metrics/report.hpp"
#include "obs/trace.hpp"
#include "scenario/cli.hpp"
#include "scenario/dispatch/checkpoint.hpp"
#include "scenario/dispatch/fleet.hpp"
#include "scenario/scenario_runner.hpp"
#include "scenario/spec_file.hpp"
#include "scenario/wire.hpp"
#include "service/client.hpp"
#include "service/job_queue.hpp"
#include "service/protocol.hpp"
#include "sim/interrupt.hpp"

using namespace pnoc;

namespace {

std::string joinIndices(const std::vector<std::size_t>& indices) {
  std::string out;
  for (const std::size_t i : indices) {
    if (!out.empty()) out += ",";
    out += std::to_string(i);
  }
  return out;
}

/// Streams one job's watch events until it goes terminal; returns 0 when the
/// job completed clean, 1 otherwise (failed, canceled, daemon gone).
int watchJob(service::ServeClient& client, std::uint64_t job) {
  client.sendLine("{\"op\":\"watch\",\"job\":" + std::to_string(job) + "}");
  while (true) {
    const scenario::JsonValue event = scenario::JsonValue::parse(client.readLine());
    if (const scenario::JsonValue* ok = event.find("ok");
        ok != nullptr && ok->asU64() == 0) {
      std::cerr << "pnoc_run: " << event.at("error").asString() << "\n";
      return 1;
    }
    const std::string kind = event.at("event").asString();
    if (kind == "unit") {
      std::cout << "pnoc_run: job " << job << ": " << event.at("done").asU64()
                << "/" << event.at("units").asU64() << " unit(s) done\n";
      continue;
    }
    if (kind != "job") continue;  // the initial watch ack
    const std::string state = event.at("state").asString();
    std::cout << "pnoc_run: job " << job << " " << state;
    if (const scenario::JsonValue* file = event.find("file");
        file != nullptr && !file->asString().empty()) {
      std::cout << " -> " << file->asString();
    }
    std::cout << "\n";
    return state == "done" ? 0 : 1;
  }
}

/// The serve= thin-client mode: one protocol op against a running
/// pnoc_serve daemon instead of a local dispatch.
int runServeClient(scenario::Cli& cli, const std::string& socketPath,
                   service::GridJob job) {
  service::Verb verb;
  try {
    // typos get a did-you-mean
    verb = service::parseVerb(cli.config().getString("op", "submit"));
  } catch (const std::invalid_argument& error) {
    std::cerr << "pnoc_run: " << error.what() << "\n";
    return 1;
  }
  try {
    service::ServeClient client(socketPath);
    switch (verb) {
      case service::Verb::kSubmit: {
        job.client = cli.config().getString("client", "");
        job.priority = cli.config().getU64("priority", 0);
        const scenario::JsonValue reply = client.request(
            "{\"op\":\"submit\"," + service::gridJobMembers(job) + "}");
        const std::uint64_t id = reply.at("job").asU64();
        std::cout << "pnoc_run: job " << id << " accepted ("
                  << reply.at("units").asU64() << " unit(s))\n";
        if (!cli.config().getBool("wait", true)) return 0;
        return watchJob(client, id);
      }
      case service::Verb::kStatus:
        client.sendLine("{\"op\":\"status\"}");
        std::cout << client.readLine() << "\n";
        return 0;
      case service::Verb::kWatch:
        return watchJob(client, cli.config().getU64("job", 0));
      case service::Verb::kCancel: {
        const std::uint64_t job = cli.config().getU64("job", 0);
        client.request("{\"op\":\"cancel\",\"job\":" + std::to_string(job) + "}");
        std::cout << "pnoc_run: job " << job << " canceled\n";
        return 0;
      }
      case service::Verb::kDrain:
        client.request("{\"op\":\"drain\"}");  // blocks until the queue is empty
        std::cout << "pnoc_run: daemon drained\n";
        return 0;
      case service::Verb::kShutdown:
        client.request("{\"op\":\"shutdown\"}");
        std::cout << "pnoc_run: daemon shutting down\n";
        return 0;
      case service::Verb::kFleetAdd: {
        std::string line = "{\"op\":\"fleet-add\",\"workers\":" +
                           std::to_string(cli.config().getU64("workers", 1));
        const std::string launcher = cli.config().getString("launcher", "");
        if (!launcher.empty()) {
          line += ",\"launcher\":\"" + scenario::jsonEscape(launcher) + "\"";
        }
        const std::string executable = cli.config().getString("executable", "");
        if (!executable.empty()) {
          line += ",\"executable\":\"" + scenario::jsonEscape(executable) + "\"";
        }
        line += "}";
        const scenario::JsonValue reply = client.request(line);
        std::cout << "pnoc_run: fleet now " << reply.at("workers").asU64()
                  << " worker(s)\n";
        return 0;
      }
      case service::Verb::kFleetRemove: {
        const std::uint64_t worker = cli.config().getU64("worker", 0);
        const scenario::JsonValue reply = client.request(
            "{\"op\":\"fleet-remove\",\"worker\":" + std::to_string(worker) + "}");
        std::cout << "pnoc_run: removed worker " << worker << ", fleet now "
                  << reply.at("workers").asU64() << " worker(s)\n";
        return 0;
      }
      case service::Verb::kMetrics: {
        const std::string format = cli.config().getString("metrics", "json");
        client.sendLine("{\"op\":\"metrics\",\"format\":\"" +
                        scenario::jsonEscape(format) + "\"}");
        const std::string line = client.readLine();
        const scenario::JsonValue reply = scenario::JsonValue::parse(line);
        if (const scenario::JsonValue* ok = reply.find("ok");
            ok != nullptr && ok->asU64() == 0) {
          throw std::runtime_error("pnoc_serve: " +
                                   reply.at("error").asString());
        }
        if (const scenario::JsonValue* body = reply.find("body")) {
          std::cout << body->asString();  // Prometheus text, verbatim
          return 0;
        }
        // The reply is {"ok":1,"metrics":<snapshot>}; print the snapshot
        // object itself (JsonValue keeps no raw text for objects).
        const std::string prefix = "{\"ok\":1,\"metrics\":";
        if (line.rfind(prefix, 0) == 0 && line.back() == '}') {
          std::cout << line.substr(prefix.size(),
                                   line.size() - prefix.size() - 1)
                    << "\n";
        } else {
          std::cout << line << "\n";
        }
        return 0;
      }
    }
  } catch (const std::exception& error) {
    std::cerr << "pnoc_run: " << error.what() << "\n";
    return 1;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  scenario::ScenarioSpec base;
  scenario::Cli cli("pnoc_run",
                    "batch driver: spec grid -> worker fleet -> merged BENCH records");
  cli.addKey("mode", "run (fixed-load, default) | peak (saturation search per spec)");
  cli.addKey("bench", "BENCH record name (default pnoc_run)");
  cli.addKey("json", "directory for the BENCH record (default .)");
  cli.addKey("resume", "1: reuse records from the existing BENCH file and dispatch"
                       " only missing grid indices");
  cli.addKey("serve", "pnoc_serve socket path: run as a thin client against the"
                      " daemon instead of dispatching locally");
  cli.addKey("op", "client operation (with serve=): submit (default) | status |"
                   " watch | cancel | drain | shutdown | fleet-add |"
                   " fleet-remove | metrics");
  cli.addKey("metrics", "metrics format for op=metrics: json (default) | text"
                        " (Prometheus exposition)");
  cli.addKey("trace", "Chrome-trace span output file (open in ui.perfetto.dev)");
  cli.addKey("job", "job id for op=watch / op=cancel");
  cli.addKey("priority", "submit priority; larger runs sooner (default 0)");
  cli.addKey("client", "client name for per-client fairness accounting");
  cli.addKey("wait", "0: return after the submit ack instead of watching the"
                     " job to completion (default 1)");
  cli.addKey("workers", "worker count for op=fleet-add (default 1)");
  cli.addKey("launcher", "launcher prefix for op=fleet-add (e.g. 'ssh hostA')");
  cli.addKey("executable", "worker binary for op=fleet-add");
  cli.addKey("worker", "worker slot index for op=fleet-remove");
  cli.setCollectSpecFiles(true);
  cli.setRunnerKeys(true);
  switch (cli.parse(argc, argv, &base)) {
    case scenario::CliStatus::kHelp:
      std::printf("\nusage: pnoc_run @grid.kv [@grid2.json ...] [key=value ...]\n"
                  "grid files: key=value stanzas (blank-line separated) or JSON\n"
                  "(object / array / newline-delimited); command-line scenario keys\n"
                  "override every loaded spec.\n");
      return 0;
    case scenario::CliStatus::kError: return 1;
    case scenario::CliStatus::kWorker: return cli.workerExitCode();
    case scenario::CliStatus::kRun: break;
  }

  auto op = scenario::ScenarioJob::Op::kRun;
  std::string benchName;
  std::string jsonDir;
  bool resume = false;
  try {
    op = scenario::wire::parseOp(cli.config().getString("mode", "run"));
    benchName = cli.config().getString("bench", "pnoc_run");
    jsonDir = cli.config().getString("json", ".");
    resume = cli.config().getBool("resume", false);
  } catch (const std::invalid_argument& error) {
    std::cerr << "pnoc_run: " << error.what() << "\n";
    return 1;
  }

  // The grid: every spec file contributes specs layered over the defaults;
  // command-line scenario keys are re-applied so they override file values.
  std::vector<scenario::ScenarioSpec> grid;
  try {
    for (const std::string& path : cli.specFiles()) {
      for (scenario::ScenarioSpec spec : scenario::loadSpecFile(path, base)) {
        spec.applyOverrides(cli.config());
        grid.push_back(std::move(spec));
      }
    }
  } catch (const std::invalid_argument& error) {
    std::cerr << "pnoc_run: " << error.what() << "\n";
    return 1;
  }
  if (grid.empty()) grid.push_back(base);  // no files: one spec from the CLI
  // The intake check: no dispatch, no BENCH write, when any spec cannot build.
  for (std::size_t i = 0; i < grid.size(); ++i) {
    try {
      grid[i].validate();
    } catch (const std::invalid_argument& error) {
      std::cerr << "pnoc_run: grid index " << i << ": " << error.what() << "\n";
      return 1;
    }
  }

  // SIGINT/SIGTERM mid-grid abort the dispatch with a named exception, so
  // the failure path below flushes the checkpoint and resume=1 picks the
  // grid back up from its last completed job.
  sim::installInterruptHandlers();

  // trace=: Chrome-trace spans for this process (dispatch, unit execution,
  // checkpoint flushes).  The guard uninstalls the global sink before the
  // writer closes on every return path.
  struct TraceGuard {
    std::unique_ptr<obs::TraceWriter> writer;
    ~TraceGuard() {
      if (writer != nullptr) obs::setTrace(nullptr);
    }
  } traceGuard;
  const std::string tracePath = cli.config().getString("trace", "");
  if (!tracePath.empty()) {
    traceGuard.writer = std::make_unique<obs::TraceWriter>(tracePath, "pnoc_run");
    if (traceGuard.writer->ok()) {
      obs::setTrace(traceGuard.writer.get());
    } else {
      std::cerr << "pnoc_run: cannot write trace '" << tracePath
                << "'; running untraced\n";
      traceGuard.writer.reset();
    }
  }

  // serve=: thin-client mode — the grid (and every other key) goes to the
  // daemon instead of a local backend.
  const std::string serveSocket = cli.config().getString("serve", "");
  if (!serveSocket.empty()) {
    return runServeClient(cli, serveSocket,
                          {.op = op, .benchName = benchName, .outDir = jsonDir,
                           .grid = std::move(grid)});
  }

  scenario::dispatch::BenchCheckpoint checkpoint(jsonDir, benchName, grid.size());
  // Incremental checkpointing may only touch the BENCH file mid-run when the
  // operator opted into resume semantics or nothing is there to lose — a
  // failed re-run must not replace an existing complete record with a
  // partial checkpoint the user never asked for.
  const bool checkpointing = resume || !std::ifstream(checkpoint.path()).good();

  // Resume: map the existing BENCH file's records onto the grid and only
  // dispatch the indices it is missing.
  try {
    if (resume) {
      checkpoint = scenario::dispatch::loadBenchCheckpoint(
          jsonDir, benchName, scenario::wire::opName(op), grid);
    }
  } catch (const std::invalid_argument& error) {
    std::cerr << "pnoc_run: " << error.what() << "\n";
    return 1;
  }
  const std::vector<std::size_t> missing = checkpoint.missingIndices();
  if (resume) {
    std::cout << "pnoc_run: resume: " << checkpoint.presentCount() << " of "
              << grid.size() << " spec(s) already recorded, dispatching "
              << missing.size() << " job(s)\n";
  }

  std::vector<scenario::ScenarioJob> jobs;
  jobs.reserve(missing.size());
  for (const std::size_t gridIndex : missing) {
    jobs.push_back(scenario::ScenarioJob{op, grid[gridIndex]});
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<scenario::ScenarioOutcome> outcomes;
  try {
    const auto backend = scenario::makeBackend(cli.backendOptions());
    std::cout << "pnoc_run: " << grid.size()
              << " spec(s), mode=" << scenario::wire::opName(op) << ", "
              << backend->workersFor(jobs.size()) << " worker(s)\n";

    // The checkpoint records each outcome as it arrives and, when allowed,
    // rewrites the BENCH file on its throttle; the final write below (or
    // the failure path's flush) catches what the throttle held back.
    backend->setOutcomeObserver(
        [&](std::size_t jobIndex, const scenario::ScenarioOutcome& outcome) {
          checkpoint.record(missing[jobIndex], outcome);
          if (checkpointing) checkpoint.flushIfDue(scenario::dispatch::steadyNowMs());
        });
    if (!jobs.empty()) outcomes = backend->execute(jobs);
  } catch (const std::exception& error) {
    std::cerr << "pnoc_run: " << error.what() << "\n";
    // Keep every completed job a failed dispatch had already delivered —
    // resume=1 then re-simulates only what is genuinely missing.
    if (checkpointing) checkpoint.flush(scenario::dispatch::steadyNowMs());
    const std::vector<std::size_t> stillMissing = checkpoint.missingIndices();
    std::cerr << "pnoc_run: " << checkpoint.presentCount() << " of " << grid.size()
              << (checkpointing ? " spec(s) checkpointed"
                                : " spec(s) completed (the existing BENCH file is"
                                  " unchanged)");
    if (!stillMissing.empty() && stillMissing.size() <= 32) {
      std::cerr << "; grid index(es) " << joinIndices(stillMissing)
                << " missing";
    } else if (!stillMissing.empty()) {
      std::cerr << "; " << stillMissing.size() << " missing";
    }
    std::cerr << (checkpointing ? " (resume=1 re-dispatches the rest)\n" : "\n");
    return 1;
  }

  // Merge: fresh outcomes land at their grid indices next to the resumed
  // records, and the report table covers what THIS invocation ran.
  const bool run = op == scenario::ScenarioJob::Op::kRun;
  metrics::ReportTable table(run ? "pnoc_run: fixed-load runs"
                                 : "pnoc_run: saturation peaks");
  if (run) {
    table.setHeader({"#", "arch", "pattern", "load", "Gb/s", "accept", "EPM (pJ)"});
  } else {
    table.setHeader({"#", "arch", "pattern", "peak load", "Gb/s", "EPM (pJ)",
                     "points"});
  }
  std::vector<std::size_t> failedIndices;
  for (std::size_t j = 0; j < outcomes.size(); ++j) {
    const auto& outcome = outcomes[j];
    const std::size_t gridIndex = missing[j];
    if (outcome.failed) {
      // Fail-soft failures reach the BENCH file (the observer recorded
      // them) but not the metrics table — their row would be all zeros.
      failedIndices.push_back(gridIndex);
      continue;
    }
    if (run) {
      table.addRow({std::to_string(gridIndex), outcome.spec.get("arch"),
                    outcome.spec.params.pattern,
                    metrics::ReportTable::num(outcome.spec.params.offeredLoad, 5),
                    metrics::ReportTable::num(outcome.metrics.deliveredGbps()),
                    metrics::ReportTable::num(outcome.metrics.acceptance(), 3),
                    metrics::ReportTable::num(outcome.metrics.energyPerPacketPj(), 1)});
    } else {
      table.addRow({std::to_string(gridIndex), outcome.spec.get("arch"),
                    outcome.spec.params.pattern,
                    metrics::ReportTable::num(outcome.search.peak.offeredLoad, 5),
                    metrics::ReportTable::num(
                        outcome.search.peak.metrics.deliveredGbps()),
                    metrics::ReportTable::num(
                        outcome.search.peak.metrics.energyPerPacketPj(), 1),
                    std::to_string(outcome.search.sweep.size())});
    }
  }
  table.print(std::cout);

  const double wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  scenario::JsonRecorder recorder(benchName);
  for (const auto& raw : checkpoint.rawByIndex) {
    if (raw) recorder.addRaw(*raw);
  }
  scenario::recordTiming(recorder, wallSeconds, grid.size());
  std::string written;
  {
    const obs::ScopedSpan span("checkpoint-flush", "checkpoint");
    written = recorder.write(jsonDir);
  }
  if (written.empty()) {
    // The BENCH file IS the product of a grid run; a failed write (ENOSPC,
    // permissions) must not report success.
    std::cerr << "pnoc_run: failed to write the BENCH record to " << jsonDir
              << "\n";
    return 1;
  }
  std::cout << "wrote " << written << " (" << wallSeconds << " s)\n";
  if (!failedIndices.empty()) {
    // A partially-failed grid is still a failed run: every completed record
    // is checkpointed above, the failures are named, and the exit status
    // says so — scripts must not mistake a grid with holes for a clean one.
    std::cerr << "pnoc_run: " << failedIndices.size()
              << " job(s) failed at grid index(es) " << joinIndices(failedIndices)
              << " (failure records written; resume=1 re-dispatches them)\n";
    return 1;
  }
  return 0;
}
