// Spec-file and @file CLI tests: grid files in both formats load correctly,
// layer over the caller's base spec, and reject unknown keys loudly —
// including through Cli::parse, so a typo inside a loaded file cannot
// silently simulate the wrong thing.
#include "scenario/spec_file.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "scenario/cli.hpp"

namespace pnoc::scenario {
namespace {

class TempSpecFile {
 public:
  explicit TempSpecFile(const std::string& contents) {
    static int counter = 0;
    path_ = ::testing::TempDir() + "pnoc_spec_" + std::to_string(::getpid()) +
            "_" + std::to_string(counter++) + ".spec";
    std::ofstream out(path_);
    out << contents;
  }
  ~TempSpecFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(SpecFile, KeyValueStanzasYieldOneSpecEach) {
  const auto specs = parseSpecFileText(
      "# a comment does not split stanzas\n"
      "pattern=uniform\n"
      "load=0.001\n"
      "\n"
      "pattern=skewed3\n"
      "arch=firefly\n"
      "\n"
      "\n"
      "pattern=hotspot:frac=0.3,hot=5\n",
      ScenarioSpec{}, "<test>");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].params.pattern, "uniform");
  EXPECT_DOUBLE_EQ(specs[0].params.offeredLoad, 0.001);
  EXPECT_EQ(specs[1].params.pattern, "skewed3");
  EXPECT_EQ(specs[1].params.architecture, network::Architecture::kFirefly);
  EXPECT_EQ(specs[2].params.pattern, "hotspot:frac=0.3,hot=5");
}

TEST(SpecFile, SpecsLayerOverTheBase) {
  ScenarioSpec base;
  base.set("seed", "99");
  base.set("warmup", "123");
  const auto specs =
      parseSpecFileText("pattern=uniform\n\npattern=skewed1\nseed=7\n", base, "<test>");
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].params.seed, 99u);          // inherited from base
  EXPECT_EQ(specs[0].params.warmupCycles, 123u);
  EXPECT_EQ(specs[1].params.seed, 7u);           // file overrides base
  EXPECT_EQ(specs[1].params.warmupCycles, 123u);
}

TEST(SpecFile, JsonArrayAndNdjsonBothParse) {
  const auto fromArray = parseSpecFileText(
      R"([{"pattern":"uniform","load":0.002},{"pattern":"skewed3","arch":"firefly"}])",
      ScenarioSpec{}, "<test>");
  ASSERT_EQ(fromArray.size(), 2u);
  EXPECT_EQ(fromArray[0].params.pattern, "uniform");
  EXPECT_DOUBLE_EQ(fromArray[0].params.offeredLoad, 0.002);
  EXPECT_EQ(fromArray[1].params.architecture, network::Architecture::kFirefly);

  const auto fromLines = parseSpecFileText(
      "{\"pattern\":\"uniform\"}\n{\"pattern\":\"skewed:level=2\",\"seed\":5}\n",
      ScenarioSpec{}, "<test>");
  ASSERT_EQ(fromLines.size(), 2u);
  EXPECT_EQ(fromLines[1].params.pattern, "skewed:level=2");
  EXPECT_EQ(fromLines[1].params.seed, 5u);

  // A single pretty-printed object is one spec.
  const auto fromObject = parseSpecFileText(
      "{\n  \"pattern\": \"hotspot:frac=0.3,hot=5\",\n  \"load\": 0.004\n}\n", ScenarioSpec{},
      "<test>");
  ASSERT_EQ(fromObject.size(), 1u);
  EXPECT_EQ(fromObject[0].params.pattern, "hotspot:frac=0.3,hot=5");
}

TEST(SpecFile, UnknownKeysInsideFilesAreRejected) {
  EXPECT_THROW(parseSpecFileText("wavelenghts=64\n", ScenarioSpec{}, "<test>"),
               std::invalid_argument);
  EXPECT_THROW(
      parseSpecFileText(R"({"pattern":"uniform","bogus":1})", ScenarioSpec{}, "<test>"),
      std::invalid_argument);
  EXPECT_THROW(parseSpecFileText("load=not-a-number\n", ScenarioSpec{}, "<test>"),
               std::invalid_argument);
  EXPECT_THROW(parseSpecFileText("   \n\n", ScenarioSpec{}, "<test>"),
               std::invalid_argument);  // no specs at all
  EXPECT_THROW(loadSpecFile("/nonexistent/grid.kv"), std::invalid_argument);
  // \uXXXX escapes decode to UTF-8 (clients legitimately submit them in
  // journal/spec strings); a truncated or unpaired one still throws.
  const auto decoded =
      parseSpecFileText(R"({"label":"caf\u00e9"})", ScenarioSpec{}, "<test>");
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].label, "caf\xC3\xA9");
  EXPECT_THROW(
      parseSpecFileText(R"({"label":"caf\uD83D"})", ScenarioSpec{}, "<test>"),
      std::invalid_argument);
}

TEST(SpecFile, ErrorsNameTheOrigin) {
  try {
    parseSpecFileText("bogus=1\n", ScenarioSpec{}, "grid-7.kv");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("grid-7.kv"), std::string::npos);
  }
}

std::string errorFor(const std::string& text, const std::string& origin) {
  try {
    parseSpecFileText(text, ScenarioSpec{}, origin);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(SpecFile, KeyValueErrorsNameTheLine) {
  // Unknown key on line 4 of the second stanza.
  const std::string what = errorFor(
      "pattern=uniform\nload=0.001\n\nwavelenghts=64\n", "grid.kv");
  EXPECT_NE(what.find("grid.kv"), std::string::npos) << what;
  EXPECT_NE(what.find("line 4"), std::string::npos) << what;
  EXPECT_NE(what.find("wavelenghts"), std::string::npos) << what;

  // Malformed value keeps its line too.
  const std::string badValue =
      errorFor("pattern=uniform\nload=not-a-number\n", "grid.kv");
  EXPECT_NE(badValue.find("line 2"), std::string::npos) << badValue;
}

TEST(SpecFile, JsonErrorsNameTheLineTheSpecStartsOn) {
  // NDJSON: the offending object is on line 3.
  const std::string ndjson = errorFor(
      "{\"pattern\":\"uniform\"}\n{\"pattern\":\"skewed:level=2\"}\n{\"bogus\":1}\n",
      "grid.json");
  EXPECT_NE(ndjson.find("grid.json"), std::string::npos) << ndjson;
  EXPECT_NE(ndjson.find("line 3"), std::string::npos) << ndjson;

  // Array form: each element keeps its own start line.
  const std::string array = errorFor(
      "[\n  {\"pattern\":\"uniform\"},\n  {\"pattern\":\"skewed:level=2\",\n"
      "   \"wavelenghts\":64}\n]\n",
      "grid.json");
  EXPECT_NE(array.find("line 3"), std::string::npos) << array;
}

TEST(CliSpecFiles, AtFileAppliesOntoTheSpecAndCommandLineWins) {
  TempSpecFile file("pattern=skewed2\nload=0.003\nseed=17\n");
  const std::string atArg = "@" + file.path();
  const char* argv[] = {"test_binary", atArg.c_str(), "seed=99"};
  ScenarioSpec spec;
  Cli cli("test_binary", "spec-file test");
  ASSERT_EQ(cli.parse(3, const_cast<char**>(argv), &spec), CliStatus::kRun);
  EXPECT_EQ(spec.params.pattern, "skewed2");        // from the file
  EXPECT_DOUBLE_EQ(spec.params.offeredLoad, 0.003); // from the file
  EXPECT_EQ(spec.params.seed, 99u);                 // command line wins
}

TEST(CliSpecFiles, UnknownKeyInsideLoadedFileFailsTheParse) {
  TempSpecFile file("pattern=uniform\nwavelenghts=64\n");  // typo'd key
  const std::string atArg = "@" + file.path();
  const char* argv[] = {"test_binary", atArg.c_str()};
  ScenarioSpec spec;
  Cli cli("test_binary", "spec-file test");
  EXPECT_EQ(cli.parse(2, const_cast<char**>(argv), &spec), CliStatus::kError);
}

TEST(CliSpecFiles, MultiSpecFileIsRejectedBySingleScenarioBinaries) {
  TempSpecFile file("pattern=uniform\n\npattern=skewed3\n");
  const std::string atArg = "@" + file.path();
  const char* argv[] = {"test_binary", atArg.c_str()};
  ScenarioSpec spec;
  Cli cli("test_binary", "spec-file test");
  EXPECT_EQ(cli.parse(2, const_cast<char**>(argv), &spec), CliStatus::kError);
}

TEST(CliSpecFiles, CollectModeKeepsFilesForTheDriver) {
  TempSpecFile file("pattern=hotspot:frac=0.3,hot=5\n\npattern=skewed3\n");
  const std::string atArg = "@" + file.path();
  const char* argv[] = {"pnoc_run", atArg.c_str(), "seed=3"};
  ScenarioSpec spec;
  Cli cli("pnoc_run", "driver test");
  cli.setCollectSpecFiles(true);
  ASSERT_EQ(cli.parse(3, const_cast<char**>(argv), &spec), CliStatus::kRun);
  ASSERT_EQ(cli.specFiles().size(), 1u);
  EXPECT_EQ(cli.specFiles()[0], file.path());
  EXPECT_EQ(spec.params.pattern, "uniform") << "collect mode must not apply files";
  EXPECT_EQ(spec.params.seed, 3u);  // plain overrides still apply
}

TEST(CliSpecFiles, SpecThatCannotBuildFailsTheParse) {
  // The intake check: a pattern or workload that cannot be built is an
  // error at parse time, named, not a crash later in the run.
  const auto parseOf = [](std::vector<const char*> argv, bool collect) {
    ScenarioSpec spec;
    Cli cli("test_binary", "intake check");
    cli.setCollectSpecFiles(collect);
    testing::internal::CaptureStderr();
    const CliStatus status =
        cli.parse(static_cast<int>(argv.size()), const_cast<char**>(argv.data()), &spec);
    return std::make_pair(status, testing::internal::GetCapturedStderr());
  };
  const auto [status, stderrText] = parseOf({"test_binary", "pattern=bogus"}, false);
  EXPECT_EQ(status, CliStatus::kError);
  EXPECT_NE(stderrText.find("unknown traffic pattern: 'bogus'"), std::string::npos)
      << stderrText;
  EXPECT_EQ(parseOf({"test_binary", "workload=closed:windw=4"}, false).first,
            CliStatus::kError);
  // A grid driver layers files over the parsed spec and checks each
  // layered spec itself.
  EXPECT_EQ(parseOf({"pnoc_run", "pattern=bogus"}, true).first, CliStatus::kRun);
}

TEST(CliBackendKeys, BackendAndShardsParse) {
  const char* argv[] = {"test_binary", "shards=4"};
  ScenarioSpec spec;
  Cli cli("test_binary", "backend keys");
  cli.setRunnerKeys(true);
  ASSERT_EQ(cli.parse(2, const_cast<char**>(argv), &spec), CliStatus::kRun);
  EXPECT_EQ(cli.backendOptions().workers, 4u);

  // There is one backend, so there is no backend= key to choose one: the
  // key is unknown whatever its value.
  const char* bad[] = {"test_binary", "backend=fleet"};
  Cli badCli("test_binary", "backend keys");
  badCli.setRunnerKeys(true);
  ScenarioSpec badSpec;
  testing::internal::CaptureStderr();
  EXPECT_EQ(badCli.parse(2, const_cast<char**>(bad), &badSpec), CliStatus::kError);
  const std::string stderrText = testing::internal::GetCapturedStderr();
  EXPECT_NE(stderrText.find("unknown option 'backend'"), std::string::npos) << stderrText;

  const char* defaults[] = {"test_binary"};
  Cli defaultCli("test_binary", "backend keys");
  defaultCli.setRunnerKeys(true);
  ScenarioSpec defaultSpec;
  ASSERT_EQ(defaultCli.parse(1, const_cast<char**>(defaults), &defaultSpec),
            CliStatus::kRun);
  EXPECT_EQ(defaultCli.backendOptions().workers, 0u);
  EXPECT_TRUE(defaultCli.backendOptions().hosts.empty());
}

TEST(CliBackendKeys, SpecBinaryWithoutRunnerKeysRejectsThem) {
  // A scenario binary that never dispatches must not accept shards= and
  // then ignore it: the key is unknown there.
  const char* argv[] = {"test_binary", "shards=2"};
  ScenarioSpec spec;
  Cli cli("test_binary", "no runner keys");
  testing::internal::CaptureStderr();
  EXPECT_EQ(cli.parse(2, const_cast<char**>(argv), &spec), CliStatus::kError);
  const std::string stderrText = testing::internal::GetCapturedStderr();
  EXPECT_NE(stderrText.find("unknown option 'shards'"), std::string::npos) << stderrText;
}

TEST(CliBackendKeys, HelpListsRunnerKeysOnlyWhereEnabled) {
  const auto helpOf = [](bool runnerKeys) {
    const char* argv[] = {"test_binary", "help=1"};
    ScenarioSpec spec;
    Cli cli("test_binary", "help listing");
    cli.setRunnerKeys(runnerKeys);
    testing::internal::CaptureStdout();
    const CliStatus status = cli.parse(2, const_cast<char**>(argv), &spec);
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(status, CliStatus::kHelp);
    return out;
  };
  const std::string with = helpOf(true);
  const std::string without = helpOf(false);
  for (const char* key : {"shards=", "hosts=", "connect_timeout_ms="}) {
    EXPECT_NE(with.find(key), std::string::npos) << key << "\n" << with;
    EXPECT_EQ(without.find(key), std::string::npos) << key << "\n" << without;
  }
  EXPECT_EQ(with.find("backend="), std::string::npos) << with;
  // Both still list the scenario keys.
  EXPECT_NE(with.find("pattern="), std::string::npos);
  EXPECT_NE(without.find("pattern="), std::string::npos);
}

TEST(CliBackendKeys, StreamAndHostsParse) {
  // hosts= names a fleet file (leading @ optional).
  TempSpecFile hosts(R"([{"launcher": ["env"], "workers": 2}])");
  const std::string hostsAtArg = "hosts=@" + hosts.path();
  const char* withHosts[] = {"test_binary", hostsAtArg.c_str()};
  Cli hostsCli("test_binary", "backend keys");
  hostsCli.setRunnerKeys(true);
  ScenarioSpec hostsSpec;
  ASSERT_EQ(hostsCli.parse(2, const_cast<char**>(withHosts), &hostsSpec),
            CliStatus::kRun);
  ASSERT_EQ(hostsCli.backendOptions().hosts.size(), 1u);  // parsed once, here
  EXPECT_EQ(hostsCli.backendOptions().hosts[0].launcher,
            std::vector<std::string>{"env"});
  EXPECT_EQ(hostsCli.backendOptions().hosts[0].workers, 2u);

  // shards= next to a fleet that sizes itself is an error.
  const std::string hostsKey = "hosts=" + hosts.path();
  const char* shardsToo[] = {"test_binary", "shards=8", hostsKey.c_str()};
  Cli shardsCli("test_binary", "backend keys");
  shardsCli.setRunnerKeys(true);
  ScenarioSpec shardsSpec;
  EXPECT_EQ(shardsCli.parse(3, const_cast<char**>(shardsToo), &shardsSpec),
            CliStatus::kError);

  // An unreadable fleet file fails at parse time, not mid-dispatch.
  const char* missing[] = {"test_binary", "hosts=/nonexistent/hosts.json"};
  Cli missingCli("test_binary", "backend keys");
  missingCli.setRunnerKeys(true);
  ScenarioSpec missingSpec;
  EXPECT_EQ(missingCli.parse(2, const_cast<char**>(missing), &missingSpec),
            CliStatus::kError);

  // hosts=@ with no path (an unset shell variable) must not silently run
  // single-machine.
  const char* emptyHosts[] = {"test_binary", "hosts=@"};
  Cli emptyCli("test_binary", "backend keys");
  emptyCli.setRunnerKeys(true);
  ScenarioSpec emptySpec;
  EXPECT_EQ(emptyCli.parse(2, const_cast<char**>(emptyHosts), &emptySpec),
            CliStatus::kError);
}

/// Runs `command` through the shell; returns its exit status and its
/// stdout and stderr, interleaved.
std::pair<int, std::string> runCommand(const std::string& command) {
  FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return {-1, "popen failed"};
  std::string output;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) output.append(buffer, n);
  const int status = ::pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, output};
}

TEST(CliBackendKeys, EveryRunnerBinaryRefusesTheBackendKey) {
  // Every batch runs on the worker fleet, so no binary takes backend=,
  // whatever its value (pnoc_serve once accepted the key and ignored it).
  // The binaries are built next to this one.
  const std::filesystem::path dir =
      std::filesystem::read_symlink("/proc/self/exe").parent_path();
  for (const char* binary : {"pnoc_run", "pnoc_serve", "quickstart"}) {
    const std::filesystem::path path = dir / binary;
    if (!std::filesystem::exists(path)) GTEST_SKIP() << path << " is not built";
    const auto [status, output] = runCommand(path.string() + " backend=fleet");
    EXPECT_EQ(status, 1) << binary << "\n" << output;
    EXPECT_NE(output.find("unknown option 'backend'"), std::string::npos)
        << binary << "\n" << output;
    const auto [helpStatus, help] = runCommand(path.string() + " help=1");
    EXPECT_EQ(helpStatus, 0) << binary << "\n" << help;
    EXPECT_NE(help.find("shards="), std::string::npos) << binary << "\n" << help;
    EXPECT_EQ(help.find("backend"), std::string::npos) << binary << "\n" << help;
  }
}

TEST(CliBackendKeys, DeletedPatternsAreRefusedByName) {
  // The fixed-target permutations, the CSV matrix replay and hotspot's
  // nested base= spec are gone: each is an unknown family or option, and
  // no help listing names them.
  const std::filesystem::path dir =
      std::filesystem::read_symlink("/proc/self/exe").parent_path();
  const std::pair<const char*, const char*> refusals[] = {
      {"tornado", "unknown traffic pattern: 'tornado'"},
      {"matrix:rates=a,demands=b", "unknown traffic pattern: 'matrix'"},
      {"hotspot:base=uniform", "traffic pattern 'hotspot' does not take option 'base'"},
  };
  for (const char* binary : {"quickstart", "pnoc_run"}) {
    const std::filesystem::path path = dir / binary;
    if (!std::filesystem::exists(path)) GTEST_SKIP() << path << " is not built";
    for (const auto& [pattern, message] : refusals) {
      const auto [status, output] =
          runCommand(path.string() + " pattern=" + pattern);
      EXPECT_EQ(status, 1) << binary << " " << pattern << "\n" << output;
      EXPECT_NE(output.find(message), std::string::npos)
          << binary << " " << pattern << "\n" << output;
    }
    const auto [helpStatus, help] = runCommand(path.string() + " help=1");
    EXPECT_EQ(helpStatus, 0) << binary << "\n" << help;
    EXPECT_NE(help.find("skewed-hotspot"), std::string::npos) << binary << "\n" << help;
    for (const char* gone :
         {"transpose", "tornado", "bitcomp", "permutation", "matrix", "base="}) {
      EXPECT_EQ(help.find(gone), std::string::npos) << binary << ": " << gone;
    }
  }
}

TEST(CliBackendKeys, OutOfRangeRunnerValuesAreRefusedByName) {
  // Runner keys read the shared strict grammar: a value past 32 bits is
  // refused rather than wrapped (shards=4294967297 once ran one worker),
  // and so is a negative one.
  for (const char* arg : {"shards=4294967297", "shards=-1", "retries=-1",
                          "job_deadline_ms=18446744073709551616"}) {
    const char* argv[] = {"test_binary", arg};
    ScenarioSpec spec;
    Cli cli("test_binary", "backend keys");
    cli.setRunnerKeys(true);
    testing::internal::CaptureStderr();
    EXPECT_EQ(cli.parse(2, const_cast<char**>(argv), &spec), CliStatus::kError) << arg;
    const std::string stderrText = testing::internal::GetCapturedStderr();
    const std::string key(arg, std::string_view(arg).find('='));
    EXPECT_NE(stderrText.find("option '" + key + "'"), std::string::npos) << stderrText;
  }
}

TEST(CliBackendKeys, BoolValuesTakeAnyCase) {
  // gating is a scenario key and resume a binary key; both read the one
  // boolean grammar.
  const char* argv[] = {"pnoc_run", "gating=TRUE", "resume=TRUE"};
  ScenarioSpec spec;
  spec.params.activityGating = false;
  Cli cli("pnoc_run", "bool keys");
  cli.addKey("resume", "skip records already in the BENCH file");
  cli.setRunnerKeys(true);
  ASSERT_EQ(cli.parse(3, const_cast<char**>(argv), &spec), CliStatus::kRun);
  EXPECT_TRUE(spec.params.activityGating);
  EXPECT_TRUE(cli.config().getBool("resume", false));
}

}  // namespace
}  // namespace pnoc::scenario
