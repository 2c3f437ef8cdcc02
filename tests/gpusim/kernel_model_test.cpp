#include "gpusim/kernel_model.hpp"

#include <gtest/gtest.h>

namespace pnoc::gpusim {
namespace {

TEST(KernelModel, RosterContainsSection342Benchmarks) {
  for (const std::string name : {"MUM", "BFS", "CP", "RAY", "LPS"}) {
    EXPECT_NO_THROW(benchmarkByName(name)) << name;
  }
  EXPECT_THROW(benchmarkByName("nosuch"), std::invalid_argument);
}

TEST(KernelModel, RosterMixesCudaSdkAndRodinia) {
  int sdk = 0;
  int rodinia = 0;
  for (const auto& kernel : benchmarkRoster()) {
    (kernel.fromCudaSdk ? sdk : rodinia) += 1;
  }
  EXPECT_GE(sdk, 5);
  EXPECT_GE(rodinia, 5);
}

TEST(KernelModel, Fig11ShapeBandwidthBoundGainTens) {
  // "a few of the benchmarks show considerable speedup of up to 63%".
  const double bfs = GpuKernelModel::speedup(benchmarkByName("BFS"), 1024);
  EXPECT_GT(bfs, 1.3);
  EXPECT_LT(bfs, 1.75);
  const double mum = GpuKernelModel::speedup(benchmarkByName("MUM"), 1024);
  EXPECT_GT(mum, 1.2);
  EXPECT_LT(mum, bfs);  // BFS is the biggest winner in the figure
}

TEST(KernelModel, Fig11ShapeComputeBoundGainUnderOnePercent) {
  // "most of the benchmarks show very modest performance improvement of less
  // than below 1%".
  int modest = 0;
  for (const auto& kernel : benchmarkRoster()) {
    const double speedup = GpuKernelModel::speedup(kernel, 1024);
    EXPECT_GE(speedup, 1.0) << kernel.name << ": wider flits can never hurt";
    if (speedup < 1.01) ++modest;
  }
  EXPECT_GE(modest, static_cast<int>(benchmarkRoster().size()) - 4);
}

class FlitSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FlitSweep, SpeedupMonotoneInFlitSize) {
  const auto kernel = benchmarkByName("BFS");
  const std::uint32_t flit = GetParam();
  EXPECT_GE(GpuKernelModel::speedup(kernel, flit * 2),
            GpuKernelModel::speedup(kernel, flit));
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FlitSweep,
                         ::testing::Values(32u, 64u, 128u, 256u, 512u),
                         ::testing::PrintToStringParamName());

TEST(KernelModel, BaselineSpeedupIsOne) {
  for (const auto& kernel : benchmarkRoster()) {
    EXPECT_DOUBLE_EQ(GpuKernelModel::speedup(kernel, 32), 1.0) << kernel.name;
  }
}

TEST(KernelModel, AchievedBandwidthOrdersByMemoryIntensity) {
  InterconnectParams icnt;
  icnt.flitBytes = 128;  // Section 3.4.2 profiling configuration
  const double bfs = GpuKernelModel::achievedBandwidthGbps(benchmarkByName("BFS"), icnt);
  const double mum = GpuKernelModel::achievedBandwidthGbps(benchmarkByName("MUM"), icnt);
  const double cp = GpuKernelModel::achievedBandwidthGbps(benchmarkByName("CP"), icnt);
  const double ray = GpuKernelModel::achievedBandwidthGbps(benchmarkByName("RAY"), icnt);
  EXPECT_GT(bfs, 5.0 * cp);
  EXPECT_GT(mum, 5.0 * ray);
  EXPECT_GT(cp, 1.0);  // even compute-bound kernels touch memory
}

TEST(KernelModel, RuntimeScalesWithIterationsAndLaunches) {
  KernelParams kernel = benchmarkByName("CP");
  InterconnectParams icnt;
  const double base = GpuKernelModel::runtimeCycles(kernel, icnt);
  kernel.iterations *= 2;
  EXPECT_DOUBLE_EQ(GpuKernelModel::runtimeCycles(kernel, icnt), 2.0 * base);
  kernel.kernelLaunches *= 3;
  EXPECT_DOUBLE_EQ(GpuKernelModel::runtimeCycles(kernel, icnt), 6.0 * base);
}

TEST(KernelModel, LatencyBoundKernelIgnoresBandwidth) {
  KernelParams kernel;
  kernel.computeCyclesPerIteration = 1.0;
  kernel.memoryBytesPerIteration = 12800.0;
  kernel.requestBytes = 128;   // 100 requests
  kernel.memoryLatencyCycles = 400.0;
  kernel.maxOutstandingRequests = 1;  // fully serialized: 40000 cycles floor
  InterconnectParams narrow;
  narrow.flitBytes = 32;
  InterconnectParams wide;
  wide.flitBytes = 1024;
  const double tNarrow = GpuKernelModel::runtimeCycles(kernel, narrow);
  const double tWide = GpuKernelModel::runtimeCycles(kernel, wide);
  EXPECT_NEAR(tNarrow / tWide, 1.0, 0.02);
}

TEST(KernelModel, RejectsFlitSmallerThanHeader) {
  InterconnectParams icnt;
  icnt.flitBytes = 8;  // equals the header: no payload
  EXPECT_THROW(icnt.payloadBytesPerCycle(), std::invalid_argument);
}

}  // namespace
}  // namespace pnoc::gpusim
