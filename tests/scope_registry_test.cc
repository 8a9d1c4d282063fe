#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "orca/scope_registry.h"
#include "tests/test_util.h"

namespace orcastream::orca {
namespace {

using common::PeId;
using common::Rng;
using orcastream::testing::ClusterHarness;
using topology::AppBuilder;

/// Builds the Figure 2 application (nested composites) and loads it into a
/// GraphView so composite-type and containment filters are exercised.
class ScopeRegistryTest : public ::testing::Test {
 protected:
  ScopeRegistryTest() : cluster_(2) {
    AppBuilder builder("Figure2");
    builder.AddOperator("op1", "Beacon").Output("src1");
    auto body = [](AppBuilder& b, const std::string& in) {
      b.AddOperator("op3", "Split").Input({in}).Output("s3");
      b.AddOperator("op6", "Merge").Input("s3").Output("out");
    };
    builder.BeginComposite("composite1", "c1a");
    body(builder, "src1");
    builder.EndComposite();
    builder.BeginComposite("composite2", "c2");
    builder.AddOperator("op7", "Split").Input({"c1a.out"}).Output("s7");
    builder.BeginComposite("composite1", "nested");
    body(builder, "c2.s7");
    builder.EndComposite();
    builder.EndComposite();
    builder.AddOperator("snk", "NullSink").Input("c2.nested.out");
    auto model = builder.Build();
    EXPECT_TRUE(model.ok()) << model.status();
    auto job = cluster_.sam().SubmitJob(*model);
    EXPECT_TRUE(job.ok()) << job.status();
    job_ = *job;
    view_.AddJob(*cluster_.sam().FindJob(job_));
  }

  /// Attribute pools the random scopes and contexts draw from. The pools
  /// deliberately mix values present in the graph with absent ones so both
  /// match and miss paths are exercised.
  std::string Pick(Rng& rng, const std::vector<std::string>& pool) {
    return pool[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
  }

  OperatorMetricScope RandomOperatorMetricScope(Rng& rng,
                                                const std::string& key) {
    OperatorMetricScope scope(key);
    // Each filter is present with some probability; absent = wildcard.
    if (rng.Bernoulli(0.5)) scope.AddOperatorMetric(Pick(rng, kMetrics));
    if (rng.Bernoulli(0.3)) scope.AddOperatorMetric(Pick(rng, kMetrics));
    if (rng.Bernoulli(0.5)) scope.AddApplicationFilter(Pick(rng, kApps));
    if (rng.Bernoulli(0.4)) scope.AddCompositeTypeFilter(Pick(rng, kComposites));
    if (rng.Bernoulli(0.3)) scope.AddCompositeInstanceFilter(Pick(rng, kInstances));
    if (rng.Bernoulli(0.4)) scope.AddOperatorTypeFilter(Pick(rng, kKinds));
    if (rng.Bernoulli(0.3)) scope.AddOperatorNameFilter(Pick(rng, kOperators));
    if (rng.Bernoulli(0.3)) {
      scope.SetMetricKindFilter(rng.Bernoulli(0.5)
                                    ? runtime::MetricKind::kBuiltin
                                    : runtime::MetricKind::kCustom);
    }
    int port = static_cast<int>(rng.UniformInt(0, 2));
    scope.SetPortScope(port == 0 ? OperatorMetricScope::PortScope::kOperatorLevel
                       : port == 1 ? OperatorMetricScope::PortScope::kPortLevel
                                   : OperatorMetricScope::PortScope::kBoth);
    return scope;
  }

  OperatorMetricContext RandomOperatorMetricContext(Rng& rng) {
    OperatorMetricContext context;
    context.job = job_;
    context.application = Pick(rng, kApps);
    context.instance_name = Pick(rng, kOperators);
    context.operator_kind = Pick(rng, kKinds);
    context.metric = Pick(rng, kMetrics);
    context.metric_kind = rng.Bernoulli(0.5) ? runtime::MetricKind::kBuiltin
                                             : runtime::MetricKind::kCustom;
    context.port = rng.Bernoulli(0.3) ? static_cast<int32_t>(rng.UniformInt(0, 2))
                                      : -1;
    return context;
  }

  const std::vector<std::string> kMetrics = {
      "queueSize", "nTuplesProcessed", "nSeen", "latency", "absentMetric"};
  const std::vector<std::string> kApps = {"Figure2", "OtherApp", "ThirdApp"};
  const std::vector<std::string> kComposites = {"composite1", "composite2",
                                                "compositeX"};
  const std::vector<std::string> kInstances = {"c1a", "c2", "c2.nested",
                                               "missing"};
  const std::vector<std::string> kKinds = {"Beacon", "Split", "Merge",
                                           "NullSink", "Filter"};
  const std::vector<std::string> kOperators = {
      "op1", "c1a.op3", "c1a.op6", "c2.op7", "c2.nested.op3", "c2.nested.op6",
      "snk", "ghost"};

  ClusterHarness cluster_;
  common::JobId job_;
  GraphView view_;
};

TEST_F(ScopeRegistryTest, RandomizedOperatorMetricEquivalence) {
  Rng rng(20260728);
  ScopeRegistry registry;
  for (int i = 0; i < 200; ++i) {
    registry.Register(RandomOperatorMetricScope(rng, "s" + std::to_string(i)));
  }
  for (int i = 0; i < 500; ++i) {
    OperatorMetricContext context = RandomOperatorMetricContext(rng);
    EXPECT_EQ(registry.MatchedKeys(context, view_),
              registry.MatchedKeysLinear(context, view_))
        << "divergence on context app=" << context.application
        << " op=" << context.instance_name << " metric=" << context.metric;
  }
}

TEST_F(ScopeRegistryTest, RandomizedPeMetricEquivalence) {
  Rng rng(7);
  ScopeRegistry registry;
  for (int i = 0; i < 150; ++i) {
    PeMetricScope scope("p" + std::to_string(i));
    if (rng.Bernoulli(0.5)) scope.AddMetricNameFilter(Pick(rng, kMetrics));
    if (rng.Bernoulli(0.4)) scope.AddPeFilter(PeId(rng.UniformInt(1, 6)));
    if (rng.Bernoulli(0.3)) scope.AddPeFilter(PeId(rng.UniformInt(1, 6)));
    if (rng.Bernoulli(0.5)) scope.AddApplicationFilter(Pick(rng, kApps));
    registry.Register(std::move(scope));
  }
  for (int i = 0; i < 500; ++i) {
    PeMetricContext context;
    context.job = job_;
    context.application = Pick(rng, kApps);
    context.pe = PeId(rng.UniformInt(1, 6));
    context.metric = Pick(rng, kMetrics);
    EXPECT_EQ(registry.MatchedKeys(context),
              registry.MatchedKeysLinear(context));
  }
}

TEST_F(ScopeRegistryTest, RandomizedFailureJobAndUserEquivalence) {
  Rng rng(42);
  ScopeRegistry registry;
  const std::vector<std::string> reasons = {"segfault", "host failure",
                                            "oom"};
  const std::vector<std::string> user_names = {"poke", "refresh", "drain"};
  for (int i = 0; i < 60; ++i) {
    PeFailureScope failure("f" + std::to_string(i));
    if (rng.Bernoulli(0.5)) failure.AddApplicationFilter(Pick(rng, kApps));
    if (rng.Bernoulli(0.4)) failure.AddReasonFilter(Pick(rng, reasons));
    if (rng.Bernoulli(0.4)) failure.AddCompositeTypeFilter(Pick(rng, kComposites));
    registry.Register(std::move(failure));

    JobEventScope job_scope(
        "j" + std::to_string(i),
        i % 3 == 0 ? JobEventScope::Kind::kSubmission
        : i % 3 == 1 ? JobEventScope::Kind::kCancellation
                     : JobEventScope::Kind::kBoth);
    if (rng.Bernoulli(0.5)) job_scope.AddApplicationFilter(Pick(rng, kApps));
    registry.Register(std::move(job_scope));

    UserEventScope user("u" + std::to_string(i));
    if (rng.Bernoulli(0.5)) user.AddNameFilter(Pick(rng, user_names));
    if (rng.Bernoulli(0.3)) user.AddNameFilter(Pick(rng, user_names));
    registry.Register(std::move(user));
  }
  for (int i = 0; i < 300; ++i) {
    PeFailureContext failure;
    failure.job = job_;
    failure.application = Pick(rng, kApps);
    failure.reason = Pick(rng, reasons);
    failure.operators = {Pick(rng, kOperators)};
    EXPECT_EQ(registry.MatchedKeys(failure, view_),
              registry.MatchedKeysLinear(failure, view_));

    JobEventContext job_event;
    job_event.job = job_;
    job_event.application = Pick(rng, kApps);
    bool is_submission = rng.Bernoulli(0.5);
    EXPECT_EQ(registry.MatchedKeys(job_event, is_submission),
              registry.MatchedKeysLinear(job_event, is_submission));

    UserEventContext user;
    user.name = Pick(rng, user_names);
    EXPECT_EQ(registry.MatchedKeys(user), registry.MatchedKeysLinear(user));
  }
}

TEST_F(ScopeRegistryTest, MatchedKeysComeBackInRegistrationOrder) {
  ScopeRegistry registry;
  // "late" is indexed under the metric name, "wild" sits in the residual
  // set, "appy" under the application index — yet keys must come back in
  // registration order, not index-bucket order.
  OperatorMetricScope wild("wild");
  registry.Register(std::move(wild));
  OperatorMetricScope appy("appy");
  appy.AddApplicationFilter("Figure2");
  registry.Register(std::move(appy));
  OperatorMetricScope late("late");
  late.AddOperatorMetric("queueSize");
  registry.Register(std::move(late));

  OperatorMetricContext context;
  context.job = job_;
  context.application = "Figure2";
  context.instance_name = "op1";
  context.operator_kind = "Beacon";
  context.metric = "queueSize";
  EXPECT_EQ(registry.MatchedKeys(context, view_),
            (std::vector<std::string>{"wild", "appy", "late"}));
  EXPECT_EQ(registry.MatchedKeys(context, view_),
            registry.MatchedKeysLinear(context, view_));
}

TEST_F(ScopeRegistryTest, ScopeIndexedUnderSeveralValuesMatchesOnce) {
  ScopeRegistry registry;
  // Two metric-name filters on ONE attribute are disjunctive; the subscope
  // must still be tested (and its key returned) only once per event.
  OperatorMetricScope multi("multi");
  multi.AddOperatorMetric("queueSize");
  multi.AddOperatorMetric("nTuplesProcessed");
  registry.Register(std::move(multi));

  OperatorMetricContext context;
  context.job = job_;
  context.application = "Figure2";
  context.instance_name = "op1";
  context.operator_kind = "Beacon";
  context.metric = "queueSize";
  EXPECT_EQ(registry.MatchedKeys(context, view_),
            (std::vector<std::string>{"multi"}));
}

TEST_F(ScopeRegistryTest, WildcardScopesAlwaysChecked) {
  ScopeRegistry registry;
  UserEventScope any("any");
  registry.Register(std::move(any));
  UserEventScope named("named");
  named.AddNameFilter("poke");
  registry.Register(std::move(named));

  UserEventContext poke;
  poke.name = "poke";
  EXPECT_EQ(registry.MatchedKeys(poke),
            (std::vector<std::string>{"any", "named"}));
  UserEventContext other;
  other.name = "somethingElse";
  EXPECT_EQ(registry.MatchedKeys(other), (std::vector<std::string>{"any"}));
}

// --- Lifecycle: Unregister / generations / tombstones / compaction ----------

TEST_F(ScopeRegistryTest, UnregisterRemovesIndexedAndResidualScopes) {
  ScopeRegistry registry;
  UserEventScope wild("wild");  // residual set
  registry.Register(std::move(wild));
  UserEventScope named("named");  // name index
  named.AddNameFilter("poke");
  registry.Register(std::move(named));

  UserEventContext poke;
  poke.name = "poke";
  EXPECT_EQ(registry.MatchedKeys(poke),
            (std::vector<std::string>{"wild", "named"}));

  EXPECT_EQ(registry.Unregister("named"), 1u);
  EXPECT_EQ(registry.MatchedKeys(poke), (std::vector<std::string>{"wild"}));
  EXPECT_EQ(registry.MatchedKeys(poke), registry.MatchedKeysLinear(poke));

  EXPECT_EQ(registry.Unregister("wild"), 1u);
  EXPECT_TRUE(registry.MatchedKeys(poke).empty());
  EXPECT_TRUE(registry.empty());
  // Unknown or already-removed keys are no-ops.
  EXPECT_EQ(registry.Unregister("named"), 0u);
  EXPECT_EQ(registry.Unregister("ghost"), 0u);
}

TEST_F(ScopeRegistryTest, UnregisterByKeyRemovesAcrossAllScopeTypes) {
  ScopeRegistry registry;
  registry.Register(OperatorMetricScope("shared"));
  registry.Register(PeMetricScope("shared"));
  registry.Register(PeFailureScope("shared"));
  registry.Register(JobEventScope("shared"));
  registry.Register(UserEventScope("shared"));
  registry.Register(UserEventScope("kept"));
  EXPECT_EQ(registry.size(), 6u);
  EXPECT_EQ(registry.Unregister("shared"), 5u);
  EXPECT_EQ(registry.size(), 1u);
  UserEventContext context;
  context.name = "anything";
  EXPECT_EQ(registry.MatchedKeys(context), (std::vector<std::string>{"kept"}));
}

TEST_F(ScopeRegistryTest, RegisteringAfterUnregisterReusesKeyCleanly) {
  ScopeRegistry registry;
  UserEventScope first("key");
  first.AddNameFilter("old");
  registry.Register(std::move(first));
  EXPECT_EQ(registry.Unregister("key"), 1u);

  UserEventScope second("key");
  second.AddNameFilter("new");
  registry.Register(std::move(second));

  UserEventContext old_event;
  old_event.name = "old";
  EXPECT_TRUE(registry.MatchedKeys(old_event).empty());
  UserEventContext new_event;
  new_event.name = "new";
  EXPECT_EQ(registry.MatchedKeys(new_event),
            (std::vector<std::string>{"key"}));
  EXPECT_EQ(registry.Unregister("key"), 1u);
  EXPECT_TRUE(registry.empty());
}

TEST_F(ScopeRegistryTest, RetireGenerationRemovesOnlyThatGeneration) {
  ScopeRegistry registry;
  registry.Register(UserEventScope("unowned"));  // generation 0

  ScopeRegistry::Generation first = registry.BeginGeneration();
  registry.Register(UserEventScope("a1"));
  registry.Register(PeFailureScope("a2"));

  ScopeRegistry::Generation second = registry.BeginGeneration();
  registry.Register(UserEventScope("b1"));

  EXPECT_EQ(registry.size(), 4u);
  EXPECT_EQ(registry.RetireGeneration(first), 2u);
  EXPECT_EQ(registry.size(), 2u);

  UserEventContext context;
  context.name = "anything";
  EXPECT_EQ(registry.MatchedKeys(context),
            (std::vector<std::string>{"unowned", "b1"}));
  EXPECT_EQ(registry.MatchedKeys(context),
            registry.MatchedKeysLinear(context));

  // A generation retires at most once; scopes individually unregistered
  // beforehand are not double-counted.
  EXPECT_EQ(registry.RetireGeneration(first), 0u);
  EXPECT_EQ(registry.RetireGeneration(second), 1u);
  EXPECT_EQ(registry.MatchedKeys(context),
            (std::vector<std::string>{"unowned"}));
}

TEST_F(ScopeRegistryTest, CompactionPreservesRegistrationOrder) {
  ScopeRegistry registry;
  registry.set_compaction_threshold(1);  // compact as soon as half is dead
  for (int i = 0; i < 8; ++i) {
    UserEventScope scope("u" + std::to_string(i));
    if (i % 2 == 1) scope.AddNameFilter("poke");
    registry.Register(std::move(scope));
  }
  // Kill every scope divisible by 4 (u0, u4): residual + indexed victims.
  EXPECT_EQ(registry.Unregister("u0"), 1u);
  EXPECT_EQ(registry.Unregister("u4"), 1u);
  EXPECT_EQ(registry.Unregister("u2"), 1u);
  EXPECT_EQ(registry.Unregister("u6"), 1u);
  EXPECT_GT(registry.compaction_count(), 0u);
  EXPECT_EQ(registry.dead_count(), 0u);

  UserEventContext poke;
  poke.name = "poke";
  EXPECT_EQ(registry.MatchedKeys(poke),
            (std::vector<std::string>{"u1", "u3", "u5", "u7"}));
  EXPECT_EQ(registry.MatchedKeys(poke), registry.MatchedKeysLinear(poke));

  // Registrations after a compaction land behind the survivors and keys
  // remain individually removable (positions were renumbered).
  UserEventScope late("u8");
  late.AddNameFilter("poke");
  registry.Register(std::move(late));
  EXPECT_EQ(registry.Unregister("u3"), 1u);
  EXPECT_EQ(registry.MatchedKeys(poke),
            (std::vector<std::string>{"u1", "u5", "u7", "u8"}));
  EXPECT_EQ(registry.MatchedKeys(poke), registry.MatchedKeysLinear(poke));
}

TEST_F(ScopeRegistryTest, RandomizedChurnEquivalence) {
  Rng rng(424242);
  ScopeRegistry registry;
  registry.set_compaction_threshold(4);
  const std::vector<std::string> reasons = {"segfault", "host failure",
                                            "oom"};
  const std::vector<std::string> user_names = {"poke", "refresh", "drain"};

  int next_key = 0;
  std::vector<std::string> live_keys;
  // Model bookkeeping: every key's owning generation (the registry's
  // current generation at registration time) and every generation begun.
  std::unordered_map<std::string, ScopeRegistry::Generation> key_generation;
  std::vector<ScopeRegistry::Generation> generations = {0};

  auto register_random = [&] {
    std::string key = "k" + std::to_string(next_key++);
    switch (rng.UniformInt(0, 4)) {
      case 0:
        registry.Register(RandomOperatorMetricScope(rng, key));
        break;
      case 1: {
        PeMetricScope scope(key);
        if (rng.Bernoulli(0.5)) scope.AddMetricNameFilter(Pick(rng, kMetrics));
        if (rng.Bernoulli(0.4)) scope.AddPeFilter(PeId(rng.UniformInt(1, 6)));
        if (rng.Bernoulli(0.5)) scope.AddApplicationFilter(Pick(rng, kApps));
        registry.Register(std::move(scope));
        break;
      }
      case 2: {
        PeFailureScope scope(key);
        if (rng.Bernoulli(0.5)) scope.AddApplicationFilter(Pick(rng, kApps));
        if (rng.Bernoulli(0.4)) scope.AddReasonFilter(Pick(rng, reasons));
        registry.Register(std::move(scope));
        break;
      }
      case 3: {
        JobEventScope scope(key, rng.Bernoulli(0.5)
                                     ? JobEventScope::Kind::kSubmission
                                     : JobEventScope::Kind::kBoth);
        if (rng.Bernoulli(0.5)) scope.AddApplicationFilter(Pick(rng, kApps));
        registry.Register(std::move(scope));
        break;
      }
      default: {
        UserEventScope scope(key);
        if (rng.Bernoulli(0.6)) scope.AddNameFilter(Pick(rng, user_names));
        registry.Register(std::move(scope));
        break;
      }
    }
    live_keys.push_back(key);
    key_generation[key] = registry.current_generation();
  };

  auto drop_key = [&](const std::string& key) {
    live_keys.erase(std::remove(live_keys.begin(), live_keys.end(), key),
                    live_keys.end());
  };

  auto check_equivalence = [&] {
    OperatorMetricContext op = RandomOperatorMetricContext(rng);
    ASSERT_EQ(registry.MatchedKeys(op, view_),
              registry.MatchedKeysLinear(op, view_));

    PeMetricContext pe;
    pe.job = job_;
    pe.application = Pick(rng, kApps);
    pe.pe = PeId(rng.UniformInt(1, 6));
    pe.metric = Pick(rng, kMetrics);
    ASSERT_EQ(registry.MatchedKeys(pe), registry.MatchedKeysLinear(pe));

    PeFailureContext failure;
    failure.job = job_;
    failure.application = Pick(rng, kApps);
    failure.reason = Pick(rng, reasons);
    failure.operators = {Pick(rng, kOperators)};
    ASSERT_EQ(registry.MatchedKeys(failure, view_),
              registry.MatchedKeysLinear(failure, view_));

    JobEventContext job_event;
    job_event.job = job_;
    job_event.application = Pick(rng, kApps);
    bool is_submission = rng.Bernoulli(0.5);
    ASSERT_EQ(registry.MatchedKeys(job_event, is_submission),
              registry.MatchedKeysLinear(job_event, is_submission));

    UserEventContext user;
    user.name = Pick(rng, user_names);
    ASSERT_EQ(registry.MatchedKeys(user), registry.MatchedKeysLinear(user));
  };

  for (int step = 0; step < 600; ++step) {
    double roll = rng.UniformDouble(0.0, 1.0);
    if (roll < 0.50 || live_keys.empty()) {
      register_random();
    } else if (roll < 0.85) {
      // Unregister a random live key.
      size_t pick = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(live_keys.size()) - 1));
      std::string key = live_keys[pick];
      ASSERT_EQ(registry.Unregister(key), 1u) << "key " << key;
      drop_key(key);
    } else if (roll < 0.92) {
      // Open a fresh generation (a newly loaded logic).
      generations.push_back(registry.BeginGeneration());
    } else {
      // Retire a random generation (ReplaceLogic/Shutdown of that logic).
      size_t pick = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(generations.size()) - 1));
      ScopeRegistry::Generation gen = generations[pick];
      registry.RetireGeneration(gen);
      std::vector<std::string> still_live;
      for (const auto& key : live_keys) {
        if (key_generation[key] != gen) still_live.push_back(key);
      }
      live_keys = std::move(still_live);
    }
    ASSERT_EQ(registry.size(), live_keys.size());
    if (step % 5 == 0) check_equivalence();
  }
  check_equivalence();
  // The churn volume must have driven tombstone reclamation.
  EXPECT_GT(registry.compaction_count(), 0u);
}

TEST_F(ScopeRegistryTest, ClearEmptiesEverything) {
  ScopeRegistry registry;
  registry.Register(OperatorMetricScope("a"));
  registry.Register(PeMetricScope("b"));
  registry.Register(PeFailureScope("c"));
  registry.Register(JobEventScope("d"));
  registry.Register(UserEventScope("e"));
  EXPECT_EQ(registry.size(), 5u);
  registry.Clear();
  EXPECT_TRUE(registry.empty());
  UserEventContext context;
  context.name = "poke";
  EXPECT_TRUE(registry.MatchedKeys(context).empty());
}

TEST_F(ScopeRegistryTest, IndexStatsTrackLiveAndTombstonedEntries) {
  ScopeRegistry registry;
  registry.set_compaction_threshold(100);  // keep tombstones visible
  auto find = [&](const char* name) {
    for (const auto& entry : registry.index_stats()) {
      if (std::string(entry.index) == name) return entry;
    }
    ADD_FAILURE() << "missing index " << name;
    return ScopeRegistry::IndexCardinality{};
  };

  // Two scopes under by_metric ("m1" shared), one under by_application,
  // one wildcard in the residual set.
  OperatorMetricScope a("a");
  a.AddOperatorMetric("m1");
  registry.Register(std::move(a));
  OperatorMetricScope b("b");
  b.AddOperatorMetric("m1");
  b.AddOperatorMetric("m2");
  registry.Register(std::move(b));
  OperatorMetricScope c("c");
  c.AddApplicationFilter("app");
  registry.Register(std::move(c));
  registry.Register(OperatorMetricScope("wild"));

  auto by_metric = find("operator_metric.by_metric");
  EXPECT_EQ(by_metric.buckets, 2u);  // m1, m2
  EXPECT_EQ(by_metric.entries, 3u);
  EXPECT_EQ(by_metric.live, 3u);
  EXPECT_EQ(find("operator_metric.by_application").live, 1u);
  EXPECT_EQ(find("operator_metric.residual").live, 1u);

  // Tombstoning decrements live but not entries until compaction runs.
  registry.Unregister("b");
  by_metric = find("operator_metric.by_metric");
  EXPECT_EQ(by_metric.entries, 3u);
  EXPECT_EQ(by_metric.live, 1u);
  EXPECT_EQ(by_metric.dead(), 2u);
  EXPECT_EQ(registry.dead_count(), 1u);  // one dead slot, two dead entries

  // Compaction rebuilds the store's indexes: entries reconcile with live,
  // matching the store contributing nothing to dead_count().
  registry.set_compaction_threshold(1);
  registry.Unregister("a");
  EXPECT_GT(registry.compaction_count(), 0u);
  EXPECT_EQ(registry.dead_count(), 0u);
  for (const auto& entry : registry.index_stats()) {
    EXPECT_EQ(entry.dead(), 0u) << entry.index;
  }
  by_metric = find("operator_metric.by_metric");
  EXPECT_EQ(by_metric.entries, 0u);
  EXPECT_EQ(find("operator_metric.by_application").live, 1u);
  EXPECT_EQ(find("operator_metric.residual").live, 1u);
}

TEST_F(ScopeRegistryTest, IndexStatsReconcileUnderRandomChurn) {
  Rng rng(20260808);
  ScopeRegistry registry;
  registry.set_compaction_threshold(8);
  std::vector<std::string> keys;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 6; ++i) {
      std::string key = "r" + std::to_string(round) + "_" + std::to_string(i);
      registry.Register(RandomOperatorMetricScope(rng, key));
      keys.push_back(key);
    }
    for (int i = 0; i < 3 && !keys.empty(); ++i) {
      size_t victim = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(keys.size()) - 1));
      registry.Unregister(keys[victim]);
      keys.erase(keys.begin() + static_cast<long>(victim));
    }
    // Invariants that must hold at every point of the churn: live never
    // exceeds entries, and a store that just compacted has no dead
    // entries left anywhere in its indexes.
    for (const auto& entry : registry.index_stats()) {
      EXPECT_LE(entry.live, entry.entries) << entry.index;
    }
    if (registry.dead_count() == 0) {
      for (const auto& entry : registry.index_stats()) {
        EXPECT_EQ(entry.dead(), 0u) << entry.index;
      }
    }
  }
}

}  // namespace
}  // namespace orcastream::orca
