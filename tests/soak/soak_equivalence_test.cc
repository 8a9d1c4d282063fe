// Soak-scenario scheduling-equivalence suite: for every scenario, a
// DeterministicExecutor run — any seed, weighted or not, batched or not,
// any scope shard count, with the fault script on — must produce a
// per-application journal byte-identical to the serial FIFO oracle's.
// Per-application ordering is the §7 guarantee the concurrent dispatcher
// makes; these runs exercise it under sustained multi-app traffic.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "harness/scenarios.h"
#include "tests/test_util.h"

namespace orcastream {
namespace {

using harness::DispatchMode;
using harness::RunResult;
using harness::ScenarioOptions;
using testing::DeterministicScenarioOptions;
using testing::FlattenJournal;
using testing::SerialScenarioOptions;

/// Runs the named scenario fresh (scenarios are single-shot) and
/// returns its journal.
std::map<std::string, std::vector<std::string>> JournalFor(
    size_t scenario_index, const ScenarioOptions& options) {
  auto scenarios = harness::MakeAllScenarios();
  RunResult result = harness::RunScenario(*scenarios[scenario_index], options);
  EXPECT_TRUE(result.verify.ok())
      << scenarios[scenario_index]->name() << ": " << result.verify.ToString();
  return result.journal;
}

class SoakEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SoakEquivalenceTest, TenSeedsMatchSerialOracle) {
  const size_t index = GetParam();
  auto oracle = JournalFor(index, SerialScenarioOptions());
  ASSERT_FALSE(oracle.empty());

  for (uint64_t seed = 1; seed <= 10; ++seed) {
    ScenarioOptions options = DeterministicScenarioOptions(seed);
    auto journal = JournalFor(index, options);
    EXPECT_EQ(FlattenJournal(journal), FlattenJournal(oracle))
        << "schedule seed " << seed;
  }
}

TEST_P(SoakEquivalenceTest, WeightedDispatchMatchesSerialOracle) {
  const size_t index = GetParam();
  auto oracle = JournalFor(index, SerialScenarioOptions());

  for (uint64_t seed : {3u, 11u, 42u}) {
    ScenarioOptions options = DeterministicScenarioOptions(seed);
    options.weighted_dispatch = true;
    auto journal = JournalFor(index, options);
    EXPECT_EQ(FlattenJournal(journal), FlattenJournal(oracle))
        << "weighted, schedule seed " << seed;
  }
}

TEST_P(SoakEquivalenceTest, BatchedDispatchMatchesSerialOracle) {
  const size_t index = GetParam();
  auto oracle = JournalFor(index, SerialScenarioOptions());

  for (size_t batch : {4u, 16u}) {
    ScenarioOptions options = DeterministicScenarioOptions(/*schedule_seed=*/5);
    options.max_batch_per_step = batch;
    auto journal = JournalFor(index, options);
    EXPECT_EQ(FlattenJournal(journal), FlattenJournal(oracle))
        << "batch " << batch;
  }
}

TEST_P(SoakEquivalenceTest, ShardCountDoesNotChangeJournals) {
  const size_t index = GetParam();
  ScenarioOptions coarse = SerialScenarioOptions();
  coarse.scope_shards = 1;
  auto oracle = JournalFor(index, coarse);

  ScenarioOptions sharded = DeterministicScenarioOptions(/*schedule_seed=*/9);
  sharded.scope_shards = 8;
  auto journal = JournalFor(index, sharded);
  EXPECT_EQ(FlattenJournal(journal), FlattenJournal(oracle));
}

std::string ScenarioParamName(const ::testing::TestParamInfo<size_t>& info) {
  switch (info.param) {
    case 0: return "iot_fleet";
    case 1: return "fraud_pipeline";
    default: return "geo_trending";
  }
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, SoakEquivalenceTest,
                         ::testing::Values(0, 1, 2), ScenarioParamName);

}  // namespace
}  // namespace orcastream
