#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "orca/scope_registry.h"
#include "plan/cardinality_stats.h"
#include "plan/plan_cache.h"
#include "plan/planner.h"
#include "plan/shape_index.h"

namespace orcastream::plan {
namespace {

TEST(CardinalityStatsTest, TracksBucketsEntriesAndLive) {
  CardinalityStats stats(2);
  stats.OnInsert(0, /*new_bucket=*/true);
  stats.OnInsert(0, /*new_bucket=*/false);
  stats.OnInsert(1, /*new_bucket=*/true);
  EXPECT_EQ(stats.attribute(0).buckets, 1u);
  EXPECT_EQ(stats.attribute(0).entries, 2u);
  EXPECT_EQ(stats.attribute(0).live, 2u);
  EXPECT_EQ(stats.attribute(0).dead(), 0u);
  EXPECT_DOUBLE_EQ(stats.attribute(0).avg_live_bucket(), 2.0);
  EXPECT_DOUBLE_EQ(stats.attribute(1).avg_live_bucket(), 1.0);

  stats.OnKill(0);
  EXPECT_EQ(stats.attribute(0).live, 1u);
  EXPECT_EQ(stats.attribute(0).dead(), 1u);
  EXPECT_DOUBLE_EQ(stats.attribute(0).avg_live_bucket(), 1.0);

  stats.Reset();
  EXPECT_EQ(stats.attribute(0).entries, 0u);
  EXPECT_EQ(stats.attribute(1).buckets, 0u);
}

TEST(PlannerTest, CompileOrdersProbesBySmallestExpectedBucket) {
  CardinalityStats stats(3);
  // attr 0: one bucket of 8; attr 1: four buckets of 1; attr 2: two
  // buckets of 2.
  for (int i = 0; i < 8; ++i) stats.OnInsert(0, i == 0);
  for (int i = 0; i < 4; ++i) stats.OnInsert(1, true);
  for (int i = 0; i < 4; ++i) stats.OnInsert(2, i % 2 == 0);

  Planner planner;
  CompiledPlan plan = planner.Compile(0b111, stats, /*epoch=*/7);
  ASSERT_EQ(plan.steps.size(), 3u);
  EXPECT_EQ(plan.shape, 0b111u);
  EXPECT_EQ(plan.epoch, 7u);
  EXPECT_EQ(plan.steps[0].attr, 1u);  // expected 1.0
  EXPECT_EQ(plan.steps[1].attr, 2u);  // expected 2.0
  EXPECT_EQ(plan.steps[2].attr, 0u);  // expected 8.0
}

TEST(PlannerTest, CompileIsDeterministicOnTies) {
  CardinalityStats stats(3);
  stats.OnInsert(0, true);
  stats.OnInsert(1, true);
  stats.OnInsert(2, true);
  Planner planner;
  CompiledPlan plan = planner.Compile(0b111, stats, 0);
  // Equal estimates: stable sort keeps ascending attribute order.
  EXPECT_EQ(plan.steps[0].attr, 0u);
  EXPECT_EQ(plan.steps[1].attr, 1u);
  EXPECT_EQ(plan.steps[2].attr, 2u);
}

TEST(PlannerTest, SkewGuardNeedsBothFloorAndRatio) {
  PlannerPolicy policy;
  policy.skew_guard_ratio = 8.0;
  policy.skew_guard_floor = 64;
  Planner planner(policy);
  // Small absolute buckets never trigger, however bad the ratio.
  EXPECT_FALSE(planner.SkewGuardTriggered(1.0, 63));
  // Above the floor, only a big multiple of the estimate triggers.
  EXPECT_FALSE(planner.SkewGuardTriggered(100.0, 700));
  EXPECT_TRUE(planner.SkewGuardTriggered(2.0, 64));
  EXPECT_TRUE(planner.SkewGuardTriggered(10.0, 1000));
}

TEST(PlanCacheTest, CountsCompilesAndReplans) {
  PlanCache cache;
  EXPECT_EQ(cache.Find(1), nullptr);
  cache.Put(CompiledPlan{1, 0, {}});
  cache.Put(CompiledPlan{2, 0, {}});
  EXPECT_EQ(cache.compiles(), 2u);
  EXPECT_EQ(cache.replans(), 0u);
  cache.Put(CompiledPlan{1, 1, {}});
  EXPECT_EQ(cache.replans(), 1u);
  ASSERT_NE(cache.Find(1), nullptr);
  EXPECT_EQ(cache.Find(1)->epoch, 1u);
  cache.Clear();
  EXPECT_EQ(cache.Find(1), nullptr);
  // A recompile after Clear still counts as a replan.
  cache.Put(CompiledPlan{2, 2, {}});
  EXPECT_EQ(cache.replans(), 2u);
}

AttributeValues Values(std::vector<std::string> a, std::vector<std::string> b,
                       std::vector<std::string> c) {
  return {std::move(a), std::move(b), std::move(c)};
}

TEST(ShapeIndexTest, IntersectsAcrossAttributesAndShortCircuits) {
  ShapeIndex index(3);
  index.Add(0, Values({"m1"}, {"appA"}, {}));
  index.Add(1, Values({"m1"}, {"appB"}, {}));
  index.Add(2, Values({"m2"}, {"appA"}, {}));
  index.Add(3, Values({}, {}, {}));  // wildcard
  index.Add(4, Values({"m1"}, {}, {}));
  index.Prepare();

  std::string m1 = "m1", m9 = "m9", app_a = "appA", op = "opX";
  std::vector<uint32_t> out;
  ASSERT_TRUE(index.Collect({&m1, &app_a, &op}, &out));
  // {m1,appA} shape group -> 0; wildcard -> 3; metric-only -> 4.
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 3, 4}));

  // Missing metric short-circuits every metric-filtering group; only the
  // wildcard survives.
  ASSERT_TRUE(index.Collect({&m9, &app_a, &op}, &out));
  EXPECT_EQ(out, (std::vector<uint32_t>{3}));
  EXPECT_EQ(index.stats().planned_lookups, 2u);
  EXPECT_EQ(index.stats().fallback_lookups, 0u);
}

TEST(ShapeIndexTest, KillHidesPositionsAndClearDropsGroups) {
  ShapeIndex index(3);
  index.Add(0, Values({"m1"}, {"appA"}, {}));
  index.Add(1, Values({"m1"}, {"appA"}, {}));
  index.Prepare();

  std::string m1 = "m1", app_a = "appA", op = "opX";
  std::vector<uint32_t> out;
  index.Kill(0, Values({"m1"}, {"appA"}, {}));
  index.Kill(1, Values({"m1"}, {"appA"}, {}));
  index.Prepare();
  // All members of the group are dead: the group short-circuits on live==0.
  ASSERT_TRUE(index.Collect({&m1, &app_a, &op}, &out));
  EXPECT_TRUE(out.empty());

  uint64_t epoch_before = index.epoch();
  index.Clear();
  EXPECT_GT(index.epoch(), epoch_before);
  EXPECT_EQ(index.group_count(), 0u);
  ASSERT_TRUE(index.Collect({&m1, &app_a, &op}, &out));
  EXPECT_TRUE(out.empty());
}

TEST(ShapeIndexTest, ReplansWhenCardinalitiesChange) {
  ShapeIndex index(3);
  index.Add(0, Values({"m1"}, {"appA"}, {}));
  index.Prepare();
  const CompiledPlan* plan = index.plan(0b011);
  ASSERT_NE(plan, nullptr);
  uint64_t first_epoch = plan->epoch;
  EXPECT_EQ(index.stats().plans_compiled, 1u);
  EXPECT_EQ(index.stats().replans, 0u);

  index.Add(1, Values({"m2"}, {"appA"}, {}));
  index.Prepare();
  plan = index.plan(0b011);
  ASSERT_NE(plan, nullptr);
  EXPECT_GT(plan->epoch, first_epoch);
  EXPECT_EQ(index.stats().replans, 1u);

  // No mutation -> Prepare is a no-op, no spurious recompile.
  index.Prepare();
  EXPECT_EQ(index.stats().plans_compiled, 2u);
}

TEST(ShapeIndexTest, PlanProbesSmallestAttributeFirst) {
  ShapeIndex index(3);
  // Attr 0 ("metric") is one fat bucket; attr 1 ("application") is all
  // singletons — the plan must probe attr 1 first.
  for (uint32_t i = 0; i < 32; ++i) {
    index.Add(i, Values({"hot"}, {"app" + std::to_string(i)}, {}));
  }
  index.Prepare();
  const CompiledPlan* plan = index.plan(0b011);
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->steps.size(), 2u);
  EXPECT_EQ(plan->steps[0].attr, 1u);
  EXPECT_EQ(plan->steps[1].attr, 0u);
}

TEST(ShapeIndexTest, SkewGuardFallsBackOnUnderestimatedBucket) {
  PlannerPolicy policy;
  policy.skew_guard_ratio = 8.0;
  policy.skew_guard_floor = 64;
  ShapeIndex index(3, policy);
  // 999 singleton applications plus one hot application holding 1000
  // entries: avg live bucket ~2, so the plan expects tiny application
  // buckets — probing the hot one violates the estimate 500-fold.
  uint32_t position = 0;
  for (int i = 0; i < 999; ++i) {
    index.Add(position++,
              Values({"m"}, {"cold" + std::to_string(i)}, {}));
  }
  for (int i = 0; i < 1000; ++i) {
    index.Add(position++, Values({"m"}, {"hotApp"}, {}));
  }
  index.Prepare();

  std::string metric = "m", hot = "hotApp", cold = "cold5", op = "opX";
  std::vector<uint32_t> out;
  EXPECT_TRUE(index.Collect({&metric, &cold, &op}, &out));
  EXPECT_EQ(out.size(), 1u);
  EXPECT_FALSE(index.Collect({&metric, &hot, &op}, &out));
  EXPECT_EQ(index.stats().planned_lookups, 1u);
  EXPECT_EQ(index.stats().fallback_lookups, 1u);
}

TEST(ShapeIndexTest, FiltersPastAttrCountActAsWildcards) {
  // Attribute 1 is not indexed by a one-attribute index, so a predicate
  // filtering only there has nothing to probe: it must come back as a
  // candidate for every lookup, unplanned and planned alike.
  ShapeIndex index(1);
  index.Add(0, {{}, {"x"}});
  std::string probe = "anything";
  std::vector<uint32_t> out;
  ASSERT_TRUE(index.Collect({&probe}, &out));
  EXPECT_EQ(out, (std::vector<uint32_t>{0}));
  index.Prepare();
  ASSERT_TRUE(index.Collect({&probe}, &out));
  EXPECT_EQ(out, (std::vector<uint32_t>{0}));
  EXPECT_EQ(index.stats().shapes, 1u);
}

}  // namespace
}  // namespace orcastream::plan

namespace orcastream::orca {
namespace {

OperatorMetricScope MetricAppScope(const std::string& key,
                                   const std::string& metric,
                                   const std::string& app) {
  OperatorMetricScope scope(key);
  scope.AddOperatorMetric(metric);
  scope.AddApplicationFilter(app);
  return scope;
}

TEST(RegistryPlannerTest, EnableOnPopulatedRegistryRebuildsFromLiveSlots) {
  ScopeRegistry registry;
  GraphView view;
  registry.Register(MetricAppScope("a", "m1", "app1"));
  registry.Register(MetricAppScope("b", "m1", "app2"));
  registry.Unregister("b");
  registry.set_predicate_planner(true);
  ASSERT_TRUE(registry.predicate_planner());
  ASSERT_NE(registry.operator_metric_plan(), nullptr);

  OperatorMetricContext context;
  context.application = "app1";
  context.metric = "m1";
  context.instance_name = "op";
  EXPECT_EQ(registry.MatchedKeys(context, view),
            (std::vector<std::string>{"a"}));
  EXPECT_EQ(registry.MatchedKeys(context, view),
            registry.MatchedKeysLinear(context, view));
  EXPECT_GE(registry.plan_stats().planned_lookups, 1u);

  registry.set_predicate_planner(false);
  EXPECT_FALSE(registry.predicate_planner());
  EXPECT_EQ(registry.MatchedKeys(context, view),
            (std::vector<std::string>{"a"}));
}

TEST(RegistryPlannerTest, ChurnReplansAutomatically) {
  ScopeRegistry registry;
  registry.set_predicate_planner(true);
  registry.Register(MetricAppScope("a", "m1", "app1"));
  uint64_t compiles_after_first = registry.plan_stats().plans_compiled;
  EXPECT_GE(compiles_after_first, 1u);

  registry.Register(MetricAppScope("b", "m2", "app1"));
  EXPECT_GT(registry.plan_stats().plans_compiled, compiles_after_first);
  EXPECT_GE(registry.plan_stats().replans, 1u);

  auto generation = registry.BeginGeneration();
  registry.Register(MetricAppScope("c", "m3", "app2"));
  uint64_t compiles_before_retire = registry.plan_stats().plans_compiled;
  registry.RetireGeneration(generation);
  EXPECT_GT(registry.plan_stats().plans_compiled, compiles_before_retire);
}

TEST(RegistryPlannerTest, SkewGuardFallbackStaysEquivalent) {
  ScopeRegistry registry;
  plan::PlannerPolicy policy;
  policy.skew_guard_ratio = 2.0;
  policy.skew_guard_floor = 4;
  registry.set_planner_policy(policy);
  registry.set_predicate_planner(true);
  GraphView view;
  // avg application bucket stays ~2 while "hotApp" holds 32 scopes, so a
  // hotApp lookup trips the guard and must take the legacy path — with
  // identical results.
  for (int i = 0; i < 32; ++i) {
    registry.Register(MetricAppScope("hot" + std::to_string(i), "m", "hotApp"));
  }
  for (int i = 0; i < 32; ++i) {
    registry.Register(
        MetricAppScope("cold" + std::to_string(i), "m",
                       "cold" + std::to_string(i)));
  }
  OperatorMetricContext context;
  context.application = "hotApp";
  context.metric = "m";
  context.instance_name = "op";
  auto keys = registry.MatchedKeys(context, view);
  EXPECT_EQ(keys.size(), 32u);
  EXPECT_EQ(keys, registry.MatchedKeysLinear(context, view));
  EXPECT_GE(registry.plan_stats().fallback_lookups, 1u);
}

}  // namespace
}  // namespace orcastream::orca
