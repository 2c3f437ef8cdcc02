// Test main: plain gtest, plus the protocol-worker hook.
//
// pnoc_tests doubles as its own worker executable — the dispatch fleet
// re-execs /proc/self/exe with --pnoc-worker, so the cross-process tests
// (streamed results == in-process results) run entirely against the binary
// ctest already built.  Its worker answers every job through faultyAnswer,
// so PNOC_TEST_FAULT (support/fault_injection.hpp) scripts its failures.
#include <gtest/gtest.h>

#include <iostream>
#include <string_view>

#include "scenario/worker.hpp"
#include "support/fault_injection.hpp"

int main(int argc, char** argv) {
  if (argc > 1 && std::string_view(argv[1]) == pnoc::scenario::kWorkerFlag) {
    return pnoc::scenario::runWorkerLoop(std::cin, std::cout,
                                         pnoc::scenario::testfault::faultyAnswer);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
