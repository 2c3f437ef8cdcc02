// Workload registry: family lookup, spec parsing (shared grammar with the
// traffic patterns), option validation with nearest-key suggestions, and the
// help text the CLI prints.
#include "workload/registry.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string_view>
#include <vector>

#include "noc/topology.hpp"
#include "traffic/registry.hpp"
#include "workload/closed_loop.hpp"

namespace pnoc::workload {
namespace {

class RegistryFixture : public ::testing::Test {
 protected:
  RegistryFixture()
      : topology_(64, 4),
        pattern_(traffic::makePattern("uniform", topology_,
                                      traffic::BandwidthSet::set1())) {
    context_.topology = &topology_;
    context_.pattern = pattern_.get();
    context_.defaultPacketFlits = 64;
  }

  /// The message makeWorkload(spec) throws, or "(no exception)".
  std::string errorOf(const std::string& spec) const {
    try {
      makeWorkload(spec, context_);
    } catch (const std::invalid_argument& error) {
      return error.what();
    }
    return "(no exception)";
  }

  noc::ClusterTopology topology_;
  std::unique_ptr<traffic::TrafficPattern> pattern_;
  WorkloadBuildContext context_;
};

TEST_F(RegistryFixture, BuiltinFamiliesAreRegistered) {
  std::vector<std::string_view> names;
  for (const WorkloadFamily& family : workloadFamilies()) names.push_back(family.name);
  EXPECT_EQ(names, (std::vector<std::string_view>{"chain", "closed", "open", "trace"}));
}

TEST_F(RegistryFixture, OpenResolvesToNoModel) {
  // nullptr keeps CoreNode's classic open-loop injector byte-identical.
  EXPECT_EQ(makeWorkload("open", context_), nullptr);
}

TEST_F(RegistryFixture, ClosedSpecParsesItsOptions) {
  const auto workload = makeWorkload("closed:window=6,think=20,req_flits=4", context_);
  ASSERT_NE(workload, nullptr);
  const auto* closed = dynamic_cast<const ClosedLoopWorkload*>(workload.get());
  ASSERT_NE(closed, nullptr);
  EXPECT_EQ(closed->name(), "closed");
  EXPECT_EQ(closed->config().window, 6u);
  EXPECT_EQ(closed->config().thinkCycles, Cycle{20});
  EXPECT_EQ(closed->config().requestFlits, 4u);
  EXPECT_FALSE(closed->config().chain);
}

TEST_F(RegistryFixture, ChainSetsTheChainFlagAndForwardSize) {
  const auto workload = makeWorkload("chain:fwd_flits=12", context_);
  const auto* chain = dynamic_cast<const ClosedLoopWorkload*>(workload.get());
  ASSERT_NE(chain, nullptr);
  EXPECT_EQ(chain->name(), "chain");
  EXPECT_TRUE(chain->config().chain);
  EXPECT_EQ(chain->config().forwardFlits, 12u);
}

TEST_F(RegistryFixture, UnknownFamilySuggestsTheNearest) {
  try {
    makeWorkload("closd:window=4", context_);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("unknown workload: 'closd'"), std::string::npos) << message;
    EXPECT_NE(message.find("did you mean 'closed'?"), std::string::npos) << message;
  }
}

TEST_F(RegistryFixture, UnknownOptionSuggestsTheNearest) {
  // The ISSUE's canonical example: windw -> window.
  try {
    makeWorkload("closed:windw=4", context_);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("does not take option 'windw'"), std::string::npos)
        << message;
    EXPECT_NE(message.find("did you mean 'window'?"), std::string::npos) << message;
  }
}

TEST_F(RegistryFixture, TypoHintsComeFromTheKeysTheFactoryRead) {
  // No family lists its keys: the hint candidates are the keys its factory
  // read.  chain reads fwd_flits, closed does not, so only chain suggests it.
  EXPECT_EQ(errorOf("chain:fwd_flit=4"),
            "workload 'chain' does not take option 'fwd_flit'; did you mean 'fwd_flits'?");
  EXPECT_EQ(errorOf("closed:fwd_flit=4"),
            "workload 'closed' does not take option 'fwd_flit'");
  EXPECT_EQ(errorOf("closed:thinkk=3"),
            "workload 'closed' does not take option 'thinkk'; did you mean 'think'?");
}

TEST_F(RegistryFixture, OutOfRangeValuesAreRefusedNamingTheOption) {
  // req_flits=4294967304 once ran as req_flits=8, and think=-1 as a think
  // time of 2^64 - 1 cycles.
  EXPECT_EQ(errorOf("closed:req_flits=4294967304"),
            "option 'req_flits': '4294967304' does not fit in 32 bits");
  EXPECT_EQ(errorOf("closed:think=-1"), "option 'think': '-1' is not an unsigned integer");
  EXPECT_EQ(errorOf("chain:window=4294967297"),
            "option 'window': '4294967297' does not fit in 32 bits");
  EXPECT_EQ(errorOf("closed:reply_flits=1e3"),
            "option 'reply_flits': '1e3' is not an unsigned integer");
}

TEST_F(RegistryFixture, ChainOnlyOptionIsRejectedForClosed) {
  // fwd_flits exists — but only the chain family takes it.
  EXPECT_THROW(makeWorkload("closed:fwd_flits=8", context_), std::invalid_argument);
  EXPECT_NO_THROW(makeWorkload("chain:fwd_flits=8", context_));
}

TEST_F(RegistryFixture, ZeroWindowIsRejected) {
  EXPECT_THROW(makeWorkload("closed:window=0", context_), std::invalid_argument);
}

TEST_F(RegistryFixture, TraceNeedsAFile) {
  EXPECT_THROW(makeWorkload("trace", context_), std::invalid_argument);
  EXPECT_THROW(makeWorkload("trace:file=/nonexistent/trace.ndjson", context_),
               std::invalid_argument);
}

TEST_F(RegistryFixture, HelpTextListsEveryFamilyAndItsOptions) {
  const std::string help = workloadHelpText();
  for (const char* needle : {"open", "closed", "chain", "trace", "window=",
                             "think=", "file=<path>"}) {
    EXPECT_NE(help.find(needle), std::string::npos) << "missing: " << needle;
  }
}

}  // namespace
}  // namespace pnoc::workload
