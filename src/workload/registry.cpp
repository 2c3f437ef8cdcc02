#include "workload/registry.hpp"

#include <stdexcept>

#include "workload/closed_loop.hpp"
#include "workload/trace.hpp"

namespace pnoc::workload {
namespace {

ClosedLoopWorkload::Config closedConfigFrom(const sim::Config& options,
                                            bool chain) {
  ClosedLoopWorkload::Config config;
  config.chain = chain;
  config.window = options.getU32("window", config.window);
  if (config.window == 0) {
    throw std::invalid_argument("closed-loop window must be >= 1");
  }
  config.thinkCycles = options.getU64("think", config.thinkCycles);
  config.requestFlits = options.getU32("req_flits", config.requestFlits);
  config.replyFlits = options.getU32("reply_flits", config.replyFlits);
  if (chain) {
    config.forwardFlits = options.getU32("fwd_flits", config.forwardFlits);
  }
  return config;
}

/// Every built-in family, name-sorted (the help listing's order).
constexpr WorkloadFamily kFamilies[] = {
    {"chain", "dependency flows: request -> directory forward -> data reply",
     "window=<n> (4), think=<cycles> (0), req_flits=<n> (8), fwd_flits=<n> (8), "
     "reply_flits=<n> (0 = full packet)",
     [](const sim::Config& options,
        const WorkloadBuildContext& context) -> std::unique_ptr<Workload> {
       return std::make_unique<ClosedLoopWorkload>(
           closedConfigFrom(options, /*chain=*/true), *context.pattern, *context.topology);
     }},
    {"closed", "bounded-window request-reply: a new request only after a reply ejects",
     "window=<n> (4), think=<cycles> (0), req_flits=<n> (8), reply_flits=<n> (0 = full "
     "packet)",
     [](const sim::Config& options,
        const WorkloadBuildContext& context) -> std::unique_ptr<Workload> {
       return std::make_unique<ClosedLoopWorkload>(
           closedConfigFrom(options, /*chain=*/false), *context.pattern, *context.topology);
     }},
    {"open", "open-loop geometric injection at the offered load (the default)", "",
     [](const sim::Config&, const WorkloadBuildContext&) -> std::unique_ptr<Workload> {
       return nullptr;  // no model: CoreNode keeps its pre-scheduled injector
     }},
    {"trace", "replay a recorded NDJSON packet trace (record one with trace_out=)",
     "file=<path>",
     [](const sim::Config& options,
        const WorkloadBuildContext& context) -> std::unique_ptr<Workload> {
       const std::string path = options.getString("file", "");
       if (path.empty()) {
         throw std::invalid_argument("trace workload needs file=<path>");
       }
       return std::make_unique<TraceReplayWorkload>(loadTraceFile(path),
                                                    context.topology->numCores());
     }},
};

constexpr traffic::SpecFamilyTable<WorkloadFactory> kWorkloads{"workload", "workload",
                                                               kFamilies, {}};

}  // namespace

std::span<const WorkloadFamily> workloadFamilies() { return kFamilies; }

std::string workloadHelpText() { return kWorkloads.helpText(); }

std::unique_ptr<Workload> makeWorkload(const std::string& spec,
                                       const WorkloadBuildContext& context) {
  return kWorkloads.make(spec, context);
}

}  // namespace pnoc::workload
