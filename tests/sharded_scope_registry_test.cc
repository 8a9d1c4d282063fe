#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "orca/scope_registry.h"
#include "orca/sharded_scope_registry.h"
#include "tests/test_util.h"

namespace orcastream::orca {
namespace {

using common::PeId;
using common::Rng;
using orcastream::testing::ClusterHarness;
using topology::AppBuilder;

/// A ShardedScopeRegistry and a single ScopeRegistry fed the identical
/// registration stream. The single registry is the equivalence oracle: the
/// sharded result must match its indexed path, which in turn must match
/// its linear-scan path — three implementations, one answer.
class MirroredRegistries {
 public:
  explicit MirroredRegistries(size_t shard_count) : sharded(shard_count) {}

  template <typename Scope>
  void Register(const Scope& scope) {
    sharded.Register(scope);
    single.Register(scope);
  }

  size_t Unregister(const std::string& key) {
    size_t removed = sharded.Unregister(key);
    EXPECT_EQ(removed, single.Unregister(key)) << "key " << key;
    return removed;
  }

  ScopeRegistry::Generation BeginGeneration() {
    ScopeRegistry::Generation generation = sharded.BeginGeneration();
    EXPECT_EQ(generation, single.BeginGeneration());
    return generation;
  }

  size_t RetireGeneration(ScopeRegistry::Generation generation) {
    size_t removed = sharded.RetireGeneration(generation);
    EXPECT_EQ(removed, single.RetireGeneration(generation));
    return removed;
  }

  ShardedScopeRegistry sharded;
  ScopeRegistry single;
};

/// Multi-application fixture: the Figure 2 job drives composite/containment
/// filters, and the application pool spans 9 apps so subscopes scatter
/// across every shard (plus absent apps to exercise the unassigned path).
class ShardedScopeRegistryTest : public ::testing::Test {
 protected:
  ShardedScopeRegistryTest() : cluster_(2) {
    AppBuilder builder("Figure2");
    builder.AddOperator("op1", "Beacon").Output("src1");
    builder.BeginComposite("composite1", "c1a");
    builder.AddOperator("op3", "Split").Input({"src1"}).Output("s3");
    builder.AddOperator("op6", "Merge").Input("s3").Output("out");
    builder.EndComposite();
    builder.AddOperator("snk", "NullSink").Input("c1a.out");
    auto model = builder.Build();
    EXPECT_TRUE(model.ok()) << model.status();
    auto job = cluster_.sam().SubmitJob(*model);
    EXPECT_TRUE(job.ok()) << job.status();
    job_ = *job;
    view_.AddJob(*cluster_.sam().FindJob(job_));
  }

  std::string Pick(Rng& rng, const std::vector<std::string>& pool) {
    return pool[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
  }

  OperatorMetricScope RandomOperatorMetricScope(Rng& rng,
                                                const std::string& key) {
    OperatorMetricScope scope(key);
    if (rng.Bernoulli(0.5)) scope.AddOperatorMetric(Pick(rng, kMetrics));
    // Application filters drive shard routing: none (wildcard → residual),
    // one, or several (forcing shared pins or a shard conflict).
    if (rng.Bernoulli(0.7)) scope.AddApplicationFilter(Pick(rng, kApps));
    if (rng.Bernoulli(0.3)) scope.AddApplicationFilter(Pick(rng, kApps));
    if (rng.Bernoulli(0.3)) scope.AddCompositeTypeFilter("composite1");
    if (rng.Bernoulli(0.4)) scope.AddOperatorTypeFilter(Pick(rng, kKinds));
    return scope;
  }

  OperatorMetricContext RandomOperatorMetricContext(Rng& rng) {
    OperatorMetricContext context;
    context.job = job_;
    context.application = Pick(rng, kApps);
    context.instance_name = Pick(rng, kOperators);
    context.operator_kind = Pick(rng, kKinds);
    context.metric = Pick(rng, kMetrics);
    return context;
  }

  /// Asserts the three implementations agree on every event type.
  void CheckEquivalence(MirroredRegistries& mirror, Rng& rng) {
    OperatorMetricContext op = RandomOperatorMetricContext(rng);
    auto op_keys = mirror.sharded.MatchedKeys(op, view_);
    ASSERT_EQ(op_keys, mirror.single.MatchedKeys(op, view_))
        << "sharded vs single divergence, app=" << op.application;
    ASSERT_EQ(op_keys, mirror.single.MatchedKeysLinear(op, view_));

    PeMetricContext pe;
    pe.job = job_;
    pe.application = Pick(rng, kApps);
    pe.pe = PeId(rng.UniformInt(1, 6));
    pe.metric = Pick(rng, kMetrics);
    auto pe_keys = mirror.sharded.MatchedKeys(pe);
    ASSERT_EQ(pe_keys, mirror.single.MatchedKeys(pe));
    ASSERT_EQ(pe_keys, mirror.single.MatchedKeysLinear(pe));

    PeFailureContext failure;
    failure.job = job_;
    failure.application = Pick(rng, kApps);
    failure.reason = Pick(rng, kReasons);
    failure.operators = {Pick(rng, kOperators)};
    auto failure_keys = mirror.sharded.MatchedKeys(failure, view_);
    ASSERT_EQ(failure_keys, mirror.single.MatchedKeys(failure, view_));
    ASSERT_EQ(failure_keys, mirror.single.MatchedKeysLinear(failure, view_));

    JobEventContext job_event;
    job_event.job = job_;
    job_event.application = Pick(rng, kApps);
    bool is_submission = rng.Bernoulli(0.5);
    auto job_keys = mirror.sharded.MatchedKeys(job_event, is_submission);
    ASSERT_EQ(job_keys, mirror.single.MatchedKeys(job_event, is_submission));
    ASSERT_EQ(job_keys,
              mirror.single.MatchedKeysLinear(job_event, is_submission));

    UserEventContext user;
    user.name = Pick(rng, kUserNames);
    auto user_keys = mirror.sharded.MatchedKeys(user);
    ASSERT_EQ(user_keys, mirror.single.MatchedKeys(user));
    ASSERT_EQ(user_keys, mirror.single.MatchedKeysLinear(user));
  }

  /// ≥ 8 applications so every shard count in the tests gets populated,
  /// plus an app absent from every registration (always unassigned).
  const std::vector<std::string> kApps = {
      "Figure2", "App0", "App1", "App2", "App3", "App4", "App5", "App6",
      "App7",    "NeverRegistered"};
  const std::vector<std::string> kMetrics = {"queueSize", "nTuplesProcessed",
                                             "latency", "absentMetric"};
  const std::vector<std::string> kKinds = {"Beacon", "Split", "Merge",
                                           "NullSink", "Filter"};
  const std::vector<std::string> kOperators = {"op1", "c1a.op3", "c1a.op6",
                                               "snk", "ghost"};
  const std::vector<std::string> kReasons = {"segfault", "host failure",
                                             "oom"};
  const std::vector<std::string> kUserNames = {"poke", "refresh", "drain"};

  ClusterHarness cluster_;
  common::JobId job_;
  GraphView view_;
};

/// The tentpole property: under randomized register/unregister/retire
/// churn across ≥8 applications, the sharded registry stays byte-identical
/// to the single registry and the linear oracle — for every shard count,
/// including the count-1 degeneracy.
TEST_F(ShardedScopeRegistryTest, RandomizedMultiAppChurnEquivalence) {
  for (size_t shard_count : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shard_count=" + std::to_string(shard_count));
    Rng rng(1000 + shard_count);
    MirroredRegistries mirror(shard_count);
    mirror.sharded.set_compaction_threshold(4);
    mirror.single.set_compaction_threshold(4);

    int next_key = 0;
    std::vector<std::string> live_keys;
    std::unordered_map<std::string, ScopeRegistry::Generation> key_generation;
    std::vector<ScopeRegistry::Generation> generations = {0};

    auto register_random = [&] {
      std::string key = "k" + std::to_string(next_key++);
      switch (rng.UniformInt(0, 4)) {
        case 0:
          mirror.Register(RandomOperatorMetricScope(rng, key));
          break;
        case 1: {
          PeMetricScope scope(key);
          if (rng.Bernoulli(0.5)) scope.AddMetricNameFilter(Pick(rng, kMetrics));
          if (rng.Bernoulli(0.4)) scope.AddPeFilter(PeId(rng.UniformInt(1, 6)));
          if (rng.Bernoulli(0.6)) scope.AddApplicationFilter(Pick(rng, kApps));
          if (rng.Bernoulli(0.3)) scope.AddApplicationFilter(Pick(rng, kApps));
          mirror.Register(scope);
          break;
        }
        case 2: {
          PeFailureScope scope(key);
          if (rng.Bernoulli(0.6)) scope.AddApplicationFilter(Pick(rng, kApps));
          if (rng.Bernoulli(0.3)) scope.AddApplicationFilter(Pick(rng, kApps));
          if (rng.Bernoulli(0.4)) scope.AddReasonFilter(Pick(rng, kReasons));
          mirror.Register(scope);
          break;
        }
        case 3: {
          JobEventScope scope(key, rng.Bernoulli(0.5)
                                       ? JobEventScope::Kind::kSubmission
                                       : JobEventScope::Kind::kBoth);
          if (rng.Bernoulli(0.6)) scope.AddApplicationFilter(Pick(rng, kApps));
          mirror.Register(scope);
          break;
        }
        default: {
          UserEventScope scope(key);
          if (rng.Bernoulli(0.6)) scope.AddNameFilter(Pick(rng, kUserNames));
          mirror.Register(scope);
          break;
        }
      }
      live_keys.push_back(key);
      key_generation[key] = mirror.sharded.current_generation();
    };

    for (int step = 0; step < 600; ++step) {
      double roll = rng.UniformDouble(0.0, 1.0);
      if (roll < 0.50 || live_keys.empty()) {
        register_random();
      } else if (roll < 0.85) {
        size_t pick = static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(live_keys.size()) - 1));
        std::string key = live_keys[pick];
        ASSERT_EQ(mirror.Unregister(key), 1u) << "key " << key;
        live_keys.erase(live_keys.begin() + static_cast<ptrdiff_t>(pick));
      } else if (roll < 0.92) {
        generations.push_back(mirror.BeginGeneration());
      } else {
        size_t pick = static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(generations.size()) - 1));
        ScopeRegistry::Generation generation = generations[pick];
        mirror.RetireGeneration(generation);
        std::vector<std::string> still_live;
        for (const auto& key : live_keys) {
          if (key_generation[key] != generation) still_live.push_back(key);
        }
        live_keys = std::move(still_live);
      }
      ASSERT_EQ(mirror.sharded.size(), live_keys.size());
      ASSERT_EQ(mirror.single.size(), live_keys.size());
      if (step % 5 == 0) CheckEquivalence(mirror, rng);
    }
    CheckEquivalence(mirror, rng);
    // The churn exercised the tombstone machinery inside the shards.
    EXPECT_GT(mirror.sharded.compaction_count(), 0u);

    // Drain everything: the shard map must be fully released.
    for (const auto& key : live_keys) mirror.Unregister(key);
    EXPECT_TRUE(mirror.sharded.empty());
    EXPECT_EQ(mirror.sharded.tracked_applications(), 0u);
  }
}

TEST_F(ShardedScopeRegistryTest, ShardCountOneDegeneracy) {
  // One shard: every application routes to shard 0, wildcards to the
  // residual shard — semantically the single-registry setup.
  ShardedScopeRegistry registry(1);
  EXPECT_EQ(registry.shard_count(), 1u);

  OperatorMetricScope scoped("scoped");
  scoped.AddApplicationFilter("Figure2");
  scoped.AddOperatorMetric("queueSize");
  registry.Register(scoped);
  OperatorMetricScope wild("wild");
  registry.Register(wild);

  EXPECT_EQ(registry.shard_of("Figure2"), 0);
  EXPECT_EQ(registry.shard(0).size(), 1u);
  EXPECT_EQ(registry.residual_shard().size(), 1u);

  OperatorMetricContext context;
  context.job = job_;
  context.application = "Figure2";
  context.instance_name = "op1";
  context.operator_kind = "Beacon";
  context.metric = "queueSize";
  EXPECT_EQ(registry.MatchedKeys(context, view_),
            (std::vector<std::string>{"scoped", "wild"}));

  // Shard count 0 clamps to 1.
  EXPECT_EQ(ShardedScopeRegistry(0).shard_count(), 1u);
}

TEST_F(ShardedScopeRegistryTest, UnassignedApplicationConsultsResidualOnly) {
  ShardedScopeRegistry registry(4);
  OperatorMetricScope wild("wild");  // residual
  registry.Register(wild);
  OperatorMetricScope other("other");
  other.AddApplicationFilter("App0");
  registry.Register(other);

  OperatorMetricContext context;
  context.job = job_;
  context.application = "NeverRegistered";
  context.instance_name = "op1";
  context.operator_kind = "Beacon";
  context.metric = "queueSize";
  EXPECT_EQ(registry.shard_of("NeverRegistered"), -1);
  EXPECT_EQ(registry.MatchedKeys(context, view_),
            (std::vector<std::string>{"wild"}));
}

TEST_F(ShardedScopeRegistryTest, MultiAppScopePinsAllItsApplications) {
  ShardedScopeRegistry registry(8);
  // A subscope naming two fresh applications pins both to one shard; a
  // later single-app subscope follows the pin.
  PeFailureScope pair("pair");
  pair.AddApplicationFilter("App0");
  pair.AddApplicationFilter("App1");
  registry.Register(pair);
  int shard_a = registry.shard_of("App0");
  ASSERT_GE(shard_a, 0);
  EXPECT_EQ(registry.shard_of("App1"), shard_a);

  PeFailureScope solo("solo");
  solo.AddApplicationFilter("App1");
  registry.Register(solo);
  EXPECT_EQ(registry.shard_of("App1"), shard_a);

  PeFailureContext context;
  context.job = job_;
  context.application = "App1";
  context.reason = "segfault";
  EXPECT_EQ(registry.MatchedKeys(context, view_),
            (std::vector<std::string>{"pair", "solo"}));
}

TEST_F(ShardedScopeRegistryTest, ConflictingApplicationPinsFallToResidual) {
  ShardedScopeRegistry registry(8);
  // Pin enough single-app subscopes that two applications land on
  // different shards, then register a subscope naming both.
  std::string app_a;
  std::string app_b;
  for (int i = 0; i < 16 && app_b.empty(); ++i) {
    std::string app = "App" + std::to_string(i);
    JobEventScope scope("pin" + std::to_string(i));
    scope.AddApplicationFilter(app);
    registry.Register(scope);
    if (app_a.empty()) {
      app_a = app;
    } else if (registry.shard_of(app) != registry.shard_of(app_a)) {
      app_b = app;
    }
  }
  ASSERT_FALSE(app_b.empty()) << "hash placed 16 apps on one of 8 shards?";

  size_t residual_before = registry.residual_shard().size();
  JobEventScope conflicted("conflicted");
  conflicted.AddApplicationFilter(app_a);
  conflicted.AddApplicationFilter(app_b);
  registry.Register(conflicted);
  EXPECT_EQ(registry.residual_shard().size(), residual_before + 1);

  // Still matched for events of either application.
  for (const std::string& app : {app_a, app_b}) {
    JobEventContext context;
    context.job = job_;
    context.application = app;
    auto keys = registry.MatchedKeys(context, /*is_submission=*/true);
    EXPECT_TRUE(std::find(keys.begin(), keys.end(), "conflicted") !=
                keys.end())
        << "app " << app;
  }
}

TEST_F(ShardedScopeRegistryTest, ShardMapReleasedOnUnregisterAndRetire) {
  ShardedScopeRegistry registry(4);
  PeFailureScope unreg("unreg");
  unreg.AddApplicationFilter("App0");
  registry.Register(unreg);
  EXPECT_EQ(registry.tracked_applications(), 1u);
  EXPECT_EQ(registry.Unregister("unreg"), 1u);
  EXPECT_EQ(registry.tracked_applications(), 0u);

  ScopeRegistry::Generation generation = registry.BeginGeneration();
  PeFailureScope retired("retired");
  retired.AddApplicationFilter("App1");
  registry.Register(retired);
  EXPECT_EQ(registry.tracked_applications(), 1u);
  EXPECT_EQ(registry.RetireGeneration(generation), 1u);
  EXPECT_EQ(registry.tracked_applications(), 0u);
  EXPECT_TRUE(registry.empty());
}

TEST_F(ShardedScopeRegistryTest, RetireGenerationSpansAllShards) {
  ShardedScopeRegistry registry(4);
  registry.Register(UserEventScope("unowned"));  // generation 0, residual

  ScopeRegistry::Generation generation = registry.BeginGeneration();
  for (int i = 0; i < 8; ++i) {
    PeFailureScope scope("g" + std::to_string(i));
    scope.AddApplicationFilter("App" + std::to_string(i));  // scatter shards
    registry.Register(scope);
  }
  registry.Register(UserEventScope("g-user"));  // residual, same generation
  EXPECT_EQ(registry.size(), 10u);

  EXPECT_EQ(registry.RetireGeneration(generation), 9u);
  EXPECT_EQ(registry.size(), 1u);
  UserEventContext context;
  context.name = "anything";
  EXPECT_EQ(registry.MatchedKeys(context),
            (std::vector<std::string>{"unowned"}));
  // Retiring again is a no-op.
  EXPECT_EQ(registry.RetireGeneration(generation), 0u);
}

TEST_F(ShardedScopeRegistryTest, BatchMatchesPerSampleLookups) {
  Rng rng(99);
  MirroredRegistries mirror(4);
  for (int i = 0; i < 200; ++i) {
    mirror.Register(RandomOperatorMetricScope(rng, "s" + std::to_string(i)));
  }
  // Large batch across many apps → several busy shards → the parallel
  // path; results must equal per-sample lookups on both registries.
  std::vector<OperatorMetricContext> contexts;
  for (int i = 0; i < 300; ++i) {
    contexts.push_back(RandomOperatorMetricContext(rng));
  }
  auto batched = mirror.sharded.MatchOperatorMetricBatch(contexts, view_);
  ASSERT_EQ(batched.size(), contexts.size());
  for (size_t i = 0; i < contexts.size(); ++i) {
    ASSERT_EQ(batched[i], mirror.sharded.MatchedKeys(contexts[i], view_));
    ASSERT_EQ(batched[i], mirror.single.MatchedKeysLinear(contexts[i], view_));
  }

  // Small batch takes the serial path; same contract.
  std::vector<OperatorMetricContext> small(contexts.begin(),
                                           contexts.begin() + 8);
  auto small_batched = mirror.sharded.MatchOperatorMetricBatch(small, view_);
  for (size_t i = 0; i < small.size(); ++i) {
    ASSERT_EQ(small_batched[i], mirror.sharded.MatchedKeys(small[i], view_));
  }

  // PE metric batch.
  for (int i = 0; i < 100; ++i) {
    PeMetricScope scope("p" + std::to_string(i));
    if (rng.Bernoulli(0.5)) scope.AddMetricNameFilter(Pick(rng, kMetrics));
    if (rng.Bernoulli(0.6)) scope.AddApplicationFilter(Pick(rng, kApps));
    mirror.Register(scope);
  }
  std::vector<PeMetricContext> pe_contexts;
  for (int i = 0; i < 200; ++i) {
    PeMetricContext context;
    context.job = job_;
    context.application = Pick(rng, kApps);
    context.pe = PeId(rng.UniformInt(1, 6));
    context.metric = Pick(rng, kMetrics);
    pe_contexts.push_back(std::move(context));
  }
  auto pe_batched = mirror.sharded.MatchPeMetricBatch(pe_contexts);
  for (size_t i = 0; i < pe_contexts.size(); ++i) {
    ASSERT_EQ(pe_batched[i], mirror.sharded.MatchedKeys(pe_contexts[i]));
    ASSERT_EQ(pe_batched[i], mirror.single.MatchedKeysLinear(pe_contexts[i]));
  }
}

TEST_F(ShardedScopeRegistryTest, ClearReleasesShardsAndMap) {
  ShardedScopeRegistry registry(4);
  PeFailureScope scoped("a");
  scoped.AddApplicationFilter("App0");
  registry.Register(scoped);
  registry.Register(UserEventScope("b"));
  EXPECT_EQ(registry.size(), 2u);
  registry.Clear();
  EXPECT_TRUE(registry.empty());
  EXPECT_EQ(registry.tracked_applications(), 0u);
  UserEventContext context;
  context.name = "poke";
  EXPECT_TRUE(registry.MatchedKeys(context).empty());
}

}  // namespace
}  // namespace orcastream::orca
