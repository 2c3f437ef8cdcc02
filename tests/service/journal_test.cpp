// Queue-journal tests: event-line round-trips, replay (terminal events
// retire their submits), trailing-corruption tolerance (only the LAST line
// may be a crash artifact), and open()'s atomic compaction.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "scenario/scenario_spec.hpp"
#include "service/journal.hpp"

namespace pnoc::service {
namespace {

std::string readAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

GridJob sampleJob(std::uint64_t id, const std::string& client) {
  scenario::ScenarioSpec spec;
  spec.set("pattern", "skewed3");
  spec.params.offeredLoad = 0.004;
  GridJob job;
  job.id = id;
  job.client = client;
  job.priority = 3;
  job.benchName = "nightly";
  job.outDir = "out";
  job.grid.push_back(spec);
  return job;
}

class TempPath {
 public:
  TempPath() {
    static int counter = 0;
    path_ = ::testing::TempDir() + "pnoc_journal_" + std::to_string(::getpid()) +
            "_" + std::to_string(counter++) + ".ndjson";
  }
  ~TempPath() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(ServiceJournal, SubmitLineRoundTripsByteExactSpecs) {
  const GridJob job = sampleJob(4, "alice");
  const std::vector<GridJob> live =
      replayJournalText(submitEventLine(job) + "\n", "test");
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].id, 4u);
  EXPECT_EQ(live[0].client, "alice");
  EXPECT_EQ(live[0].priority, 3u);
  EXPECT_EQ(live[0].op, scenario::ScenarioJob::Op::kRun);
  EXPECT_EQ(live[0].benchName, "nightly");
  EXPECT_EQ(live[0].outDir, "out");
  // The spec bytes survive replay VERBATIM — restart re-dispatch must hash
  // to the same spec_key as the original submit.
  ASSERT_EQ(live[0].grid.size(), 1u);
  EXPECT_EQ(live[0].grid[0].toJson(), job.grid[0].toJson());
}

// A journal exactly as an earlier build wrote it, committed as text: three
// submits (job 1's client name needs escaping; it is a two-spec peak grid),
// job 2 done, job 3 canceled, and a torn final append.  The canonical spec
// JSON is ScenarioSpec::toJson's field order and formatting.
const char* const kSpecSkewed3 =
    R"({"arch":"dhetpnoc","set":1,"pattern":"skewed3","workload":"open",)"
    R"("trace_out":"","load":0.004,"seed":1,"warmup":100,"measure":400,)"
    R"("cores":64,"cluster_size":4,"reserved":1,"token_hop":0,"channel_cap":0,)"
    R"("writable_waveguides":0,"gating":true,"profile":false,"queue":8,"vcs":16,)"
    R"("vc_depth":64,"link_latency":1,"link_pj":0.1,"propagation":1,)"
    R"("clock_ghz":2.5,"label":""})";
const char* const kSpecHotspot2 =
    R"({"arch":"dhetpnoc","set":1,"pattern":"hotspot2","workload":"open",)"
    R"("trace_out":"","load":0.01,"seed":1,"warmup":1000,"measure":10000,)"
    R"("cores":64,"cluster_size":4,"reserved":1,"token_hop":0,"channel_cap":0,)"
    R"("writable_waveguides":0,"gating":true,"profile":false,"queue":8,"vcs":16,)"
    R"("vc_depth":64,"link_latency":1,"link_pj":0.1,"propagation":1,)"
    R"("clock_ghz":2.5,"label":""})";
const char* const kSpecUniform =
    R"({"arch":"dhetpnoc","set":1,"pattern":"uniform","workload":"open",)"
    R"("trace_out":"","load":0.001,"seed":1,"warmup":1000,"measure":10000,)"
    R"("cores":64,"cluster_size":4,"reserved":1,"token_hop":0,"channel_cap":0,)"
    R"("writable_waveguides":0,"gating":true,"profile":false,"queue":8,"vcs":16,)"
    R"("vc_depth":64,"link_latency":1,"link_pj":0.1,"propagation":1,)"
    R"("clock_ghz":2.5,"label":""})";

std::string pinnedLiveSubmit() {
  return std::string(R"({"event":"submit","job":1,"client":"night \"ops\"\\shift",)"
                     R"("priority":2,"mode":"peak","bench":"fig3","dir":"out","specs":[)") +
         kSpecSkewed3 + "," + kSpecHotspot2 + "]}";
}

std::string pinnedJournalText() {
  return pinnedLiveSubmit() + "\n" +
         R"({"event":"submit","job":2,"client":"","priority":0,"mode":"run",)"
         R"("bench":"b","dir":"out","specs":[)" + kSpecUniform + "]}\n" +
         R"({"event":"submit","job":3,"client":"carol","priority":0,"mode":"run",)"
         R"("bench":"c","dir":"out","specs":[)" + kSpecUniform + "]}\n" +
         "{\"event\":\"done\",\"job\":2}\n" +
         "{\"event\":\"cancel\",\"job\":3}\n" +
         "{\"event\":\"done\",\"job\":1";  // torn: never acknowledged
}

TEST(ServiceJournal, PinnedOnDiskFormatReplaysAndCompactsByteForByte) {
  const std::vector<GridJob> live = replayJournalText(pinnedJournalText(), "pinned");
  ASSERT_EQ(live.size(), 1u);
  const GridJob& job = live[0];
  EXPECT_EQ(job.id, 1u);
  EXPECT_EQ(job.client, "night \"ops\"\\shift");
  EXPECT_EQ(job.priority, 2u);
  EXPECT_EQ(job.op, scenario::ScenarioJob::Op::kFindPeak);
  EXPECT_EQ(job.benchName, "fig3");
  EXPECT_EQ(job.outDir, "out");
  ASSERT_EQ(job.grid.size(), 2u);
  EXPECT_EQ(job.grid[0].params.pattern, "skewed3");
  EXPECT_DOUBLE_EQ(job.grid[0].params.offeredLoad, 0.004);
  EXPECT_EQ(job.grid[0].params.measureCycles, 400u);
  EXPECT_EQ(job.grid[1].params.pattern, "hotspot2");
  EXPECT_DOUBLE_EQ(job.grid[1].params.offeredLoad, 0.01);

  // Compaction rewrites the live submit through the shared writer; its
  // bytes must equal the committed line, member order and escapes included.
  TempPath temp;
  {
    std::ofstream out(temp.path());
    out << pinnedJournalText();
  }
  QueueJournal journal;
  EXPECT_EQ(journal.open(temp.path()).size(), 1u);
  journal.close();
  EXPECT_EQ(readAll(temp.path()), pinnedLiveSubmit() + "\n");
}

TEST(ServiceJournal, TerminalEventsRetireTheirSubmits) {
  std::string text = submitEventLine(sampleJob(1, "a")) + "\n" +
                     submitEventLine(sampleJob(2, "b")) + "\n" +
                     submitEventLine(sampleJob(3, "c")) + "\n" +
                     "{\"event\":\"done\",\"job\":1}\n" +
                     "{\"event\":\"cancel\",\"job\":3}\n";
  const std::vector<GridJob> live = replayJournalText(text, "test");
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].id, 2u);
}

TEST(ServiceJournal, TrailingGarbageIsToleratedMidFileIsNot) {
  const std::string good = submitEventLine(sampleJob(1, "a")) + "\n";
  // A torn final line is the signature of a crash mid-append: the event was
  // never acknowledged, so dropping it is correct.
  const std::vector<GridJob> live =
      replayJournalText(good + "{\"event\":\"submit\",\"jo", "test");
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].id, 1u);

  // The same damage ANYWHERE else means real corruption and must throw.
  EXPECT_THROW(replayJournalText("{\"event\":\"submit\",\"jo\n" + good, "test"),
               std::invalid_argument);
  // So do semantic violations, wherever they sit.
  EXPECT_THROW(replayJournalText(good + good, "test"), std::invalid_argument);
  EXPECT_THROW(replayJournalText("{\"event\":\"done\",\"job\":9}\n", "test"),
               std::invalid_argument);
  EXPECT_THROW(replayJournalText("{\"event\":\"nope\",\"job\":1}\n", "test"),
               std::invalid_argument);
}

TEST(ServiceJournal, OpenCompactsRetiredJobsAndTrailingDamage) {
  TempPath temp;
  {
    std::ofstream out(temp.path());
    out << submitEventLine(sampleJob(1, "a")) << "\n"
        << submitEventLine(sampleJob(2, "b")) << "\n"
        << "{\"event\":\"done\",\"job\":1}\n"
        << "{\"event\":\"sub";  // torn final append
  }
  QueueJournal journal;
  const std::vector<GridJob> live = journal.open(temp.path());
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].id, 2u);
  journal.close();
  // After compaction the file holds exactly the live submits.
  EXPECT_EQ(readAll(temp.path()), submitEventLine(live[0]) + "\n");
}

TEST(ServiceJournal, AppendsAreReplayableAcrossReopen) {
  TempPath temp;
  {
    QueueJournal journal;
    EXPECT_TRUE(journal.open(temp.path()).empty());
    journal.appendSubmit(sampleJob(1, "a"));
    journal.appendSubmit(sampleJob(2, "b"));
    journal.appendDone(1);
  }
  QueueJournal reopened;
  const std::vector<GridJob> live = reopened.open(temp.path());
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].id, 2u);
  EXPECT_EQ(live[0].client, "b");
}

TEST(ServiceJournal, DisabledJournalIsANoOp) {
  QueueJournal journal;  // never opened: journaling off (no journal= path)
  EXPECT_NO_THROW(journal.appendSubmit(sampleJob(1, "a")));
  EXPECT_NO_THROW(journal.appendDone(1));
}

}  // namespace
}  // namespace pnoc::service
