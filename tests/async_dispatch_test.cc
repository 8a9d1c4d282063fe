// Async EventBus dispatch: per-application ordered queues behind the
// DispatchExecutor interface. The DeterministicExecutor pins the async
// semantics reproducibly (per-application delivery streams byte-identical
// to the serial bus, per-queue pacing, start-event gating); the
// ThreadPoolExecutor tests cover real concurrent delivery, lifecycle
// drains, and the churn/self-replacement soak.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "orca/dispatch_executor.h"
#include "orca/event_bus.h"
#include "orca/event_scope.h"
#include "orca/orca_service.h"
#include "orca/orchestrator.h"
#include "orca/sharded_scope_registry.h"
#include "sim/simulation.h"
#include "tests/test_util.h"
#include "topology/app_builder.h"

namespace orcastream::orca {
namespace {

using orcastream::testing::ClusterHarness;
using topology::AppBuilder;

Event AppMetricEvent(const std::string& app, int64_t value,
                     std::vector<std::string> matched = {"scope"}) {
  Event event;
  event.type = Event::Type::kPeMetric;
  event.summary = "peMetric(" + app + "#" + std::to_string(value) + ")";
  event.matched = std::move(matched);
  PeMetricContext context;
  context.application = app;
  context.metric = "m";
  context.value = value;
  event.context = std::move(context);
  return event;
}

Event UserEvent(const std::string& name) {
  Event event;
  event.type = Event::Type::kUser;
  event.summary = "userEvent(" + name + ")";
  event.matched = {"scope"};
  UserEventContext context;
  context.name = name;
  event.context = std::move(context);
  return event;
}

EventBus::Config AsyncConfig(std::shared_ptr<DispatchExecutor> executor,
                             double interval = 0) {
  EventBus::Config config;
  config.dispatch_interval = interval;
  config.executor = std::move(executor);
  return config;
}

// --- Deterministic executor: ordering, equivalence, pacing, gating ----------

/// Single-threaded recorder (DeterministicExecutor runs handlers on the
/// simulation thread). Journals one actuation per metric event so the
/// equivalence suite can compare journal contents, and optionally
/// publishes a same-application child event (queued-while-handling).
class DetRecordingLogic : public Orchestrator {
 public:
  DetRecordingLogic(sim::Simulation* sim, EventBus* bus)
      : sim_(sim), bus_(bus) {}

  void HandleOrcaStart(OrcaContext&, const OrcaStartContext&) override {
    order.push_back("<start>");
  }

  void HandlePeMetricEvent(OrcaContext&, const PeMetricContext& context,
                           const std::vector<std::string>& scopes) override {
    std::string payload = context.application + "#" +
                          std::to_string(context.value) + "/" +
                          context.metric + "/" +
                          std::to_string(scopes.size());
    order.push_back(payload);
    per_app[context.application].push_back(payload);
    at[context.application].push_back(sim_->Now());
    bus_->JournalActuation("act(" + payload + ")");
    // Children exercise publish-from-handler: same application, so they
    // join the tail of the same ordered queue.
    if (publish_children && context.value % 7 == 3 && context.value < 1000) {
      bus_->Publish(AppMetricEvent(context.application,
                                   1000 + context.value));
    }
  }

  void HandleUserEvent(OrcaContext&, const UserEventContext& context,
                       const std::vector<std::string>&) override {
    order.push_back("u:" + context.name);
    per_app["<residual>"].push_back("u:" + context.name);
    bus_->JournalActuation("act(u:" + context.name + ")");
  }

  std::vector<std::string> order;
  std::map<std::string, std::vector<std::string>> per_app;
  std::map<std::string, std::vector<sim::SimTime>> at;
  bool publish_children = false;

 private:
  sim::Simulation* sim_;
  EventBus* bus_;
};

TEST(DeterministicDispatchTest, PerApplicationOrderIsFifo) {
  sim::Simulation sim;
  auto executor = std::make_shared<DeterministicExecutor>(&sim, /*seed=*/7);
  EventBus bus(&sim, AsyncConfig(executor));
  DetRecordingLogic logic(&sim, &bus);
  bus.set_logic(&logic);
  for (int64_t i = 0; i < 20; ++i) {
    bus.Publish(AppMetricEvent("a", i));
    bus.Publish(AppMetricEvent("b", i));
    bus.Publish(UserEvent("u" + std::to_string(i)));
  }
  sim.Run();
  EXPECT_EQ(bus.events_delivered(), 60u);
  EXPECT_EQ(bus.queue_depth(), 0u);
  ASSERT_EQ(logic.per_app["a"].size(), 20u);
  ASSERT_EQ(logic.per_app["b"].size(), 20u);
  ASSERT_EQ(logic.per_app["<residual>"].size(), 20u);
  for (int64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(logic.per_app["a"][i],
              "a#" + std::to_string(i) + "/m/1");
    EXPECT_EQ(logic.per_app["b"][i],
              "b#" + std::to_string(i) + "/m/1");
    EXPECT_EQ(logic.per_app["<residual>"][i], "u:u" + std::to_string(i));
  }
}

TEST(DeterministicDispatchTest, SameSeedReproducesTheGlobalSchedule) {
  auto run = [](uint64_t seed) {
    sim::Simulation sim;
    auto executor = std::make_shared<DeterministicExecutor>(&sim, seed);
    EventBus bus(&sim, AsyncConfig(executor));
    DetRecordingLogic logic(&sim, &bus);
    bus.set_logic(&logic);
    for (int64_t i = 0; i < 30; ++i) {
      bus.Publish(AppMetricEvent("app" + std::to_string(i % 5), i));
    }
    sim.Run();
    return logic.order;
  };
  EXPECT_EQ(run(42), run(42));
}

/// Satellite: randomized async-vs-serial equivalence. For every seed, one
/// workload script (publishes for 10 applications + residual user events,
/// interleaved with sim drains, plus publish-from-handler children) runs
/// against the serial bus and against the async bus under the
/// DeterministicExecutor. The per-application delivery streams — order,
/// payloads, and journal contents — must be byte-identical.
struct BusRun {
  std::map<std::string, std::vector<std::string>> per_app;
  /// Per application: (summary, actuations..., committed) for every
  /// journaled transaction touching it, in delivery order.
  std::map<std::string, std::vector<std::string>> journal;
  uint64_t delivered = 0;
};

BusRun RunWorkload(uint64_t workload_seed, bool async, double interval,
                   bool interleave_drains, bool weighted = false,
                   size_t batch = 1) {
  sim::Simulation sim;
  EventBus::Config config;
  config.dispatch_interval = interval;
  config.max_batch_per_step = batch;
  std::shared_ptr<DeterministicExecutor> executor;
  if (async) {
    executor = std::make_shared<DeterministicExecutor>(&sim, workload_seed,
                                                       weighted);
    config.executor = executor;
  }
  EventBus bus(&sim, config);
  DetRecordingLogic logic(&sim, &bus);
  logic.publish_children = true;
  bus.set_logic(&logic);

  common::Rng rng(workload_seed);
  std::vector<int64_t> next_value(10, 0);
  for (int step = 0; step < 200; ++step) {
    int64_t pick = rng.UniformInt(0, 11);
    if (pick < 10) {
      std::string app = "app" + std::to_string(pick);
      bus.Publish(AppMetricEvent(app, next_value[pick]++));
    } else if (pick == 10) {
      bus.Publish(UserEvent("u" + std::to_string(step)));
    } else if (interleave_drains) {
      // Runs both buses to quiescence (interval 0), so the script stays
      // aligned between the serial and async runs.
      sim.RunFor(1.0);
    }
  }
  sim.Run();

  BusRun result;
  result.per_app = logic.per_app;
  result.delivered = bus.events_delivered();
  auto app_of = [](const std::string& summary) -> std::string {
    if (summary.rfind("userEvent(", 0) == 0) return "<residual>";
    size_t open = summary.find('(');
    size_t hash = summary.find('#');
    if (open == std::string::npos || hash == std::string::npos) return "";
    return summary.substr(open + 1, hash - open - 1);
  };
  for (const TransactionLog::Record* record : bus.transactions().records()) {
    std::string entry = record->event_summary;
    for (const std::string& actuation : record->actuations) {
      entry += "|" + actuation;
    }
    entry += record->state == TransactionLog::State::kCommitted
                 ? "|committed"
                 : "|uncommitted";
    result.journal[app_of(record->event_summary)].push_back(entry);
  }
  return result;
}

TEST(DeterministicDispatchTest, AsyncMatchesSerialPerApplicationManySeeds) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    BusRun serial = RunWorkload(seed, /*async=*/false, /*interval=*/0,
                                /*interleave_drains=*/true);
    BusRun async = RunWorkload(seed, /*async=*/true, /*interval=*/0,
                               /*interleave_drains=*/true);
    EXPECT_EQ(serial.delivered, async.delivered) << "seed " << seed;
    EXPECT_EQ(serial.per_app, async.per_app) << "seed " << seed;
    EXPECT_EQ(serial.journal, async.journal) << "seed " << seed;
  }
}

TEST(DeterministicDispatchTest, AsyncMatchesSerialUnderPacing) {
  // With pacing the global schedules differ by design (per-queue vs
  // global intervals), but the per-application streams and journals must
  // still match. Everything is published up front so both runs see the
  // same queue contents.
  for (uint64_t seed = 21; seed <= 28; ++seed) {
    BusRun serial = RunWorkload(seed, /*async=*/false, /*interval=*/0.25,
                                /*interleave_drains=*/false);
    BusRun async = RunWorkload(seed, /*async=*/true, /*interval=*/0.25,
                               /*interleave_drains=*/false);
    EXPECT_EQ(serial.delivered, async.delivered) << "seed " << seed;
    EXPECT_EQ(serial.per_app, async.per_app) << "seed " << seed;
    EXPECT_EQ(serial.journal, async.journal) << "seed " << seed;
  }
}

/// Satellite: the weighted seeded mode explores backlog-biased schedules
/// (the DeterministicExecutor mirror of the pool's weight heap) — the
/// global interleaving changes, but per-application streams and journals
/// must stay byte-identical to the serial oracle.
TEST(DeterministicDispatchTest, WeightedAsyncMatchesSerialManySeeds) {
  for (uint64_t seed = 29; seed <= 36; ++seed) {
    BusRun serial = RunWorkload(seed, /*async=*/false, /*interval=*/0,
                                /*interleave_drains=*/true);
    BusRun weighted = RunWorkload(seed, /*async=*/true, /*interval=*/0,
                                  /*interleave_drains=*/true,
                                  /*weighted=*/true);
    EXPECT_EQ(serial.delivered, weighted.delivered) << "seed " << seed;
    EXPECT_EQ(serial.per_app, weighted.per_app) << "seed " << seed;
    EXPECT_EQ(serial.journal, weighted.journal) << "seed " << seed;
  }
}

/// Satellite: delivery batching (max_batch_per_step > 1) drains runs of
/// same-application events per executor hop — again a global-schedule
/// change only; per-application semantics are untouched. Weighted and
/// unweighted, with and without pacing (pacing caps the batch at 1 by
/// construction, so that combination is the no-op regression case).
TEST(DeterministicDispatchTest, BatchedAsyncMatchesSerialManySeeds) {
  for (uint64_t seed = 37; seed <= 44; ++seed) {
    BusRun serial = RunWorkload(seed, /*async=*/false, /*interval=*/0,
                                /*interleave_drains=*/true);
    BusRun batched = RunWorkload(seed, /*async=*/true, /*interval=*/0,
                                 /*interleave_drains=*/true,
                                 /*weighted=*/(seed % 2 == 0), /*batch=*/4);
    EXPECT_EQ(serial.delivered, batched.delivered) << "seed " << seed;
    EXPECT_EQ(serial.per_app, batched.per_app) << "seed " << seed;
    EXPECT_EQ(serial.journal, batched.journal) << "seed " << seed;
  }
  for (uint64_t seed = 45; seed <= 48; ++seed) {
    BusRun serial = RunWorkload(seed, /*async=*/false, /*interval=*/0.25,
                                /*interleave_drains=*/false);
    BusRun batched = RunWorkload(seed, /*async=*/true, /*interval=*/0.25,
                                 /*interleave_drains=*/false,
                                 /*weighted=*/true, /*batch=*/8);
    EXPECT_EQ(serial.delivered, batched.delivered) << "seed " << seed;
    EXPECT_EQ(serial.per_app, batched.per_app) << "seed " << seed;
    EXPECT_EQ(serial.journal, batched.journal) << "seed " << seed;
  }
}

TEST(DeterministicDispatchTest, WeightedSameSeedReproducesTheSchedule) {
  auto run = [](uint64_t seed) {
    sim::Simulation sim;
    auto executor = std::make_shared<DeterministicExecutor>(&sim, seed,
                                                            /*weighted=*/true);
    EventBus bus(&sim, AsyncConfig(executor));
    DetRecordingLogic logic(&sim, &bus);
    bus.set_logic(&logic);
    for (int64_t i = 0; i < 30; ++i) {
      // Skewed: app0 holds most of the backlog, so weights actually
      // differ between queues and the weighted pick matters.
      bus.Publish(AppMetricEvent("app" + std::to_string(i % 5 == 0 ? 1 : 0),
                                 i));
    }
    sim.Run();
    return logic.order;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_TRUE(std::make_shared<DeterministicExecutor>(nullptr, 1, true)
                  ->weighted());
}

/// Satellite: dispatch_interval pacing holds independently per
/// application queue, including the cross-drain rule (PR 2's fix) —
/// a queue that drained still owes the remainder of ITS interval, while
/// other queues' pacing clocks are untouched.
TEST(DeterministicDispatchTest, PacingIsPerApplicationQueue) {
  sim::Simulation sim;
  auto executor = std::make_shared<DeterministicExecutor>(&sim, /*seed=*/3);
  EventBus bus(&sim, AsyncConfig(executor, /*interval=*/0.5));
  DetRecordingLogic logic(&sim, &bus);
  bus.set_logic(&logic);
  for (int64_t i = 0; i < 3; ++i) bus.Publish(AppMetricEvent("a", i));
  for (int64_t i = 0; i < 2; ++i) bus.Publish(AppMetricEvent("b", i));
  sim.RunUntil(3);
  // Both queues pace from their own first delivery at t=0 — concurrently,
  // not interleaved into one global 0.5 s cadence.
  EXPECT_EQ(logic.at["a"],
            (std::vector<sim::SimTime>{0.0, 0.5, 1.0}));
  EXPECT_EQ(logic.at["b"], (std::vector<sim::SimTime>{0.0, 0.5}));

  // Cross-drain, per queue: "a" last delivered at t=1.0; publishing at
  // t=3 (past the interval) delivers immediately...
  bus.Publish(AppMetricEvent("a", 100));
  sim.RunUntil(3.2);
  ASSERT_EQ(logic.at["a"].size(), 4u);
  EXPECT_DOUBLE_EQ(logic.at["a"][3], 3.0);
  // ...then a publish 0.2 s after that delivery still owes 0.3 s of "a"'s
  // interval, while "b" (idle since t=0.5) delivers immediately — its
  // queue's clock is independent of "a"'s.
  bus.Publish(AppMetricEvent("a", 101));
  bus.Publish(AppMetricEvent("b", 100));
  sim.RunUntil(10);
  ASSERT_EQ(logic.at["a"].size(), 5u);
  ASSERT_EQ(logic.at["b"].size(), 3u);
  EXPECT_DOUBLE_EQ(logic.at["a"][4], 3.5);
  EXPECT_DOUBLE_EQ(logic.at["b"][2], 3.2);
}

TEST(DeterministicDispatchTest, DrainPreservesPacingRetries) {
  sim::Simulation sim;
  auto executor = std::make_shared<DeterministicExecutor>(&sim, /*seed=*/13);
  EventBus bus(&sim, AsyncConfig(executor, /*interval=*/0.5));
  DetRecordingLogic logic(&sim, &bus);
  bus.set_logic(&logic);
  bus.Publish(AppMetricEvent("a", 0));
  sim.RunUntil(0.2);  // delivered at t=0, queue drained
  bus.Publish(AppMetricEvent("a", 1));  // still owes 0.3 s of pacing
  // Drain encounters the pacing wait; it must keep the owed retry
  // scheduled, not drop the queue (which would strand it forever since
  // the bus still considers it active).
  executor->Drain();
  EXPECT_EQ(bus.events_delivered(), 1u);
  sim.RunUntil(2);
  EXPECT_EQ(logic.at["a"], (std::vector<sim::SimTime>{0.0, 0.5}));
  bus.Publish(AppMetricEvent("a", 2));
  sim.RunUntil(5);
  ASSERT_EQ(logic.at["a"].size(), 3u);
  EXPECT_DOUBLE_EQ(logic.at["a"][2], 2.0);
}

TEST(DeterministicDispatchTest, FrontPublishedStartGatesApplicationQueues) {
  sim::Simulation sim;
  auto executor = std::make_shared<DeterministicExecutor>(&sim, /*seed=*/11);
  EventBus bus(&sim, AsyncConfig(executor));
  // Events retained while no logic is attached (§7 reliable delivery)...
  for (int64_t i = 0; i < 5; ++i) {
    bus.Publish(AppMetricEvent("a", i));
    bus.Publish(AppMetricEvent("b", i));
  }
  // ...must not race ahead of the replacement's front-published start
  // event, even though they sit in different application queues.
  Event start;
  start.type = Event::Type::kOrcaStart;
  start.summary = "orcaStart";
  start.context = OrcaStartContext{};
  bus.PublishFront(std::move(start));
  DetRecordingLogic logic(&sim, &bus);
  bus.set_logic(&logic);
  sim.Run();
  ASSERT_EQ(logic.order.size(), 11u);
  EXPECT_EQ(logic.order.front(), "<start>");
  EXPECT_EQ(logic.per_app["a"].size(), 5u);
  EXPECT_EQ(logic.per_app["b"].size(), 5u);
}

// --- Service-level async dispatch (DeterministicExecutor) -------------------

class ScopedOrca : public Orchestrator {
 public:
  void HandleOrcaStart(OrcaContext& orca,
                       const OrcaStartContext&) override {
    orca.RegisterEventScope(UserEventScope("user"));
    OperatorMetricScope metrics("metrics");
    orca.RegisterEventScope(metrics);
    start_order = next_index++;
    ++starts;
  }
  void HandleUserEvent(OrcaContext&, const UserEventContext& context,
                       const std::vector<std::string>&) override {
    delivered.push_back("u:" + context.name);
    ++next_index;
  }
  void HandleOperatorMetricEvent(OrcaContext&,
                                 const OperatorMetricContext& context,
                                 const std::vector<std::string>&) override {
    delivered.push_back("m:" + context.instance_name + "." + context.metric);
    ++next_index;
  }
  int starts = 0;
  int start_order = -1;
  int next_index = 0;
  std::vector<std::string> delivered;
};

TEST(AsyncServiceTest, ReplaceLogicStartPrecedesSurvivingAppQueueEvents) {
  ClusterHarness cluster(2);
  auto executor =
      std::make_shared<DeterministicExecutor>(&cluster.sim(), /*seed=*/5);
  OrcaService::Config config;
  config.dispatch_executor = executor;
  OrcaService service(&cluster.sim(), &cluster.sam(), &cluster.srm(),
                      config);
  ASSERT_TRUE(service.Load(std::make_unique<ScopedOrca>()).ok());
  cluster.sim().RunUntil(1);

  AppBuilder builder("App");
  builder.AddOperator("src", "Beacon").Output("s").Param("period", 0.5);
  builder.AddOperator("f", "Filter")
      .Input("s")
      .Output("o")
      .Param("field", "seq")
      .Param("op", ">=")
      .Param("value", "0");
  AppConfig app_config;
  app_config.id = "app";
  app_config.application_name = "App";
  ASSERT_TRUE(
      service.RegisterApplication(app_config, *builder.Build()).ok());
  ASSERT_TRUE(service.SubmitApplication("app").ok());
  cluster.sim().RunFor(10);  // accumulate metrics in SRM

  // Queue application-keyed metric events plus residual user events
  // without running the simulator, then replace the logic: the
  // replacement's fresh start must precede every surviving event even
  // though they sit in several queues.
  service.PullMetricsNow();
  service.InjectUserEvent("pending");
  ASSERT_GE(service.queue_depth(), 2u);
  auto replacement_holder = std::make_unique<ScopedOrca>();
  ScopedOrca* replacement = replacement_holder.get();
  ASSERT_TRUE(service.ReplaceLogic(std::move(replacement_holder)).ok());
  cluster.sim().RunFor(5);

  EXPECT_EQ(replacement->starts, 1);
  EXPECT_EQ(replacement->start_order, 0);  // before every survivor
  EXPECT_FALSE(replacement->delivered.empty());
  EXPECT_EQ(service.queue_depth(), 0u);
}

TEST(AsyncServiceTest, ShutdownToLoadRedeliversQueuedEventsDeterministic) {
  ClusterHarness cluster(2);
  auto executor =
      std::make_shared<DeterministicExecutor>(&cluster.sim(), /*seed=*/9);
  OrcaService::Config config;
  config.dispatch_executor = executor;
  OrcaService service(&cluster.sim(), &cluster.sam(), &cluster.srm(),
                      config);
  ASSERT_TRUE(service.Load(std::make_unique<ScopedOrca>()).ok());
  cluster.sim().RunUntil(1);
  service.InjectUserEvent("pending1");
  service.InjectUserEvent("pending2");
  ASSERT_GE(service.queue_depth(), 2u);

  service.Shutdown();
  EXPECT_FALSE(service.loaded());
  EXPECT_EQ(service.queue_depth(), 2u);
  cluster.sim().RunFor(1);
  EXPECT_EQ(service.queue_depth(), 2u);  // retained, not delivered

  auto second_holder = std::make_unique<ScopedOrca>();
  ScopedOrca* second = second_holder.get();
  ASSERT_TRUE(service.Load(std::move(second_holder)).ok());
  cluster.sim().RunFor(1);
  EXPECT_EQ(second->starts, 1);
  EXPECT_EQ(second->start_order, 0);
  EXPECT_EQ(second->delivered,
            (std::vector<std::string>{"u:pending1", "u:pending2"}));
  EXPECT_EQ(service.queue_depth(), 0u);
}

// --- ThreadPoolExecutor: real concurrency ----------------------------------

/// Thread-safe recorder for worker-pool deliveries: per-application FIFO
/// asserted via strictly-increasing values.
class PoolRecordingLogic : public Orchestrator {
 public:
  void HandleOrcaStart(OrcaContext&, const OrcaStartContext&) override {}
  void HandlePeMetricEvent(OrcaContext&, const PeMetricContext& context,
                           const std::vector<std::string>&) override {
    common::MutexLock lock(mu);
    std::vector<int64_t>& values = per_app[context.application];
    if (!values.empty()) {
      EXPECT_LT(values.back(), context.value)
          << "per-application FIFO violated for " << context.application;
    }
    values.push_back(context.value);
  }

  common::Mutex mu;
  std::map<std::string, std::vector<int64_t>> per_app;
};

TEST(ThreadPoolDispatchTest, DeliversEveryEventPerApplicationFifo) {
  sim::Simulation sim;
  auto pool = std::make_shared<ThreadPoolExecutor>(4);
  EventBus bus(&sim, AsyncConfig(pool));
  PoolRecordingLogic logic;
  bus.set_logic(&logic);
  constexpr int kApps = 8;
  constexpr int64_t kPerApp = 250;
  for (int64_t value = 0; value < kPerApp; ++value) {
    for (int app = 0; app < kApps; ++app) {
      bus.Publish(AppMetricEvent("app" + std::to_string(app), value));
    }
  }
  pool->Drain();
  EXPECT_EQ(bus.events_delivered(), kApps * kPerApp);
  EXPECT_EQ(bus.queue_depth(), 0u);
  EXPECT_EQ(bus.transactions().committed_count(),
            static_cast<int64_t>(kApps * kPerApp));
  common::MutexLock lock(logic.mu);
  ASSERT_EQ(logic.per_app.size(), static_cast<size_t>(kApps));
  for (const auto& [app, values] : logic.per_app) {
    EXPECT_EQ(values.size(), static_cast<size_t>(kPerApp)) << app;
  }
}

/// Tentpole (b)+(c) under real concurrency: weighted queue picks and
/// multi-event batch drains on the worker pool, under Zipf-flavored skew
/// (one hot application, many cold ones). Per-application FIFO must
/// survive, nothing may starve, and the queue-stats surface must add up.
/// The TSan CI job runs this to race-check the weigher (called under the
/// executor lock, calling back into the bus lock) and the batch loop.
TEST(ThreadPoolDispatchTest, WeightedBatchedSkewedLoadStaysFifo) {
  sim::Simulation sim;
  auto pool = std::make_shared<ThreadPoolExecutor>(4);
  EventBus::Config config;
  config.executor = pool;
  config.max_batch_per_step = 16;
  config.weighted_dispatch = true;
  EventBus bus(&sim, config);
  PoolRecordingLogic logic;
  bus.set_logic(&logic);

  constexpr int kColdApps = 12;
  constexpr int64_t kHotEvents = 3000;
  constexpr int64_t kPerCold = 100;
  std::vector<int64_t> cold_next(kColdApps, 0);
  int64_t hot_next = 0;
  common::Rng rng(17);
  // Interleaved skewed publish stream: ~70% of traffic hits "hot".
  while (hot_next < kHotEvents) {
    if (rng.Bernoulli(0.7)) {
      bus.Publish(AppMetricEvent("hot", hot_next++));
    } else {
      int app = static_cast<int>(rng.UniformInt(0, kColdApps - 1));
      if (cold_next[app] < kPerCold) {
        bus.Publish(AppMetricEvent("cold" + std::to_string(app),
                                   cold_next[app]++));
      }
    }
    // Monitoring reads race the workers by design; TSan-clean required.
    if (hot_next % 256 == 0) {
      (void)bus.QueueStatsSnapshot();
      (void)bus.AppQueueDepth("hot");
      (void)bus.AppQueueBacklogAge("hot");
    }
  }
  for (int app = 0; app < kColdApps; ++app) {
    while (cold_next[app] < kPerCold) {
      bus.Publish(AppMetricEvent("cold" + std::to_string(app),
                                 cold_next[app]++));
    }
  }
  pool->Drain();

  uint64_t expected = static_cast<uint64_t>(kHotEvents) +
                      static_cast<uint64_t>(kColdApps) * kPerCold;
  EXPECT_EQ(bus.events_delivered(), expected);
  EXPECT_EQ(bus.queue_depth(), 0u);
  {
    common::MutexLock lock(logic.mu);
    ASSERT_EQ(logic.per_app.size(), static_cast<size_t>(kColdApps) + 1);
    EXPECT_EQ(logic.per_app["hot"].size(),
              static_cast<size_t>(kHotEvents));
    for (int app = 0; app < kColdApps; ++app) {
      EXPECT_EQ(logic.per_app["cold" + std::to_string(app)].size(),
                static_cast<size_t>(kPerCold));
    }
  }
  // Drained queues report empty with zero backlog age; delivered counts
  // per queue add up to the total.
  auto stats = bus.QueueStatsSnapshot();
  uint64_t delivered_sum = 0;
  for (const auto& s : stats) {
    EXPECT_EQ(s.depth, 0u) << s.key;
    EXPECT_EQ(s.backlog_age, 0.0) << s.key;
    delivered_sum += s.delivered;
  }
  EXPECT_EQ(delivered_sum, expected);
  EXPECT_EQ(bus.AppQueueDepth("hot"), 0u);
}

TEST(ThreadPoolDispatchTest, StartEventKeepsSimTimeStamp) {
  sim::Simulation sim;
  sim.RunUntil(5);  // advance the simulation clock past zero
  auto pool = std::make_shared<ThreadPoolExecutor>(2);
  EventBus bus(&sim, AsyncConfig(pool));
  class StartLogic : public Orchestrator {
   public:
    void HandleOrcaStart(OrcaContext&,
                         const OrcaStartContext& context) override {
      start_at = context.at;
    }
    std::atomic<double> start_at{-1};
  } logic;
  Event start;
  start.type = Event::Type::kOrcaStart;
  start.summary = "orcaStart";
  start.context = OrcaStartContext{};
  bus.PublishFront(std::move(start));
  bus.set_logic(&logic);
  pool->Drain();
  // The wall-clock pool cannot read the sim clock at delivery time, so
  // the start timestamp is the publication-time sim clock — not seconds
  // since the pool was constructed.
  EXPECT_DOUBLE_EQ(logic.start_at.load(), 5.0);
}

/// Satellite: stress/soak — scope register/unregister churn on the
/// publishing thread, ReplaceLogic-style self-replacement from inside a
/// handler, and concurrent multi-application publishes on the worker
/// pool. ASan (and the TSan job) watch for leaks, data races, and
/// use-after-retire on the outgoing orchestrator.
struct StressState;

class StressLogic : public Orchestrator {
 public:
  explicit StressLogic(StressState* state) : state_(state) {}
  void HandleOrcaStart(OrcaContext&, const OrcaStartContext&) override {}
  void HandlePeMetricEvent(OrcaContext&, const PeMetricContext& context,
                           const std::vector<std::string>& scopes) override;

 private:
  StressState* state_;
};

struct StressState {
  EventBus* bus = nullptr;
  common::Mutex mu;
  /// Owner of the currently installed logic (the OrcaService role).
  std::unique_ptr<Orchestrator> current;
  std::map<std::string, int64_t> last_value;
  std::atomic<int64_t> total{0};
  std::atomic<int> replacements{0};
  std::atomic<bool> fifo_ok{true};

  void Record(const std::string& app, int64_t value, size_t matched) {
    common::MutexLock lock(mu);
    auto [it, inserted] = last_value.try_emplace(app, value);
    if (!inserted) {
      if (value <= it->second) fifo_ok = false;
      it->second = value;
    }
    (void)matched;
  }

  /// §7 self-replacement from inside a handler: the caller's own object
  /// is retired while its handler frame — and possibly other workers'
  /// frames — are still inside it; DisposeAfterDispatch must defer
  /// destruction until they all unwind.
  void SelfReplace(Orchestrator* self) {
    common::MutexLock lock(mu);
    if (current.get() != self) return;  // already replaced by another event
    auto next = std::make_unique<StressLogic>(this);
    bus->set_logic(next.get());
    std::unique_ptr<Orchestrator> outgoing = std::move(current);
    current = std::move(next);
    bus->DisposeAfterDispatch(std::move(outgoing));
    ++replacements;
  }
};

void StressLogic::HandlePeMetricEvent(
    OrcaContext&, const PeMetricContext& context,
    const std::vector<std::string>& scopes) {
  state_->Record(context.application, context.value, scopes.size());
  int64_t n = state_->total.fetch_add(1) + 1;
  if (n % 97 == 0) state_->SelfReplace(this);
}

TEST(ThreadPoolDispatchTest, ChurnAndSelfReplacementSoak) {
  sim::Simulation sim;
  auto pool = std::make_shared<ThreadPoolExecutor>(4);
  EventBus bus(&sim, AsyncConfig(pool));
  StressState state;
  state.bus = &bus;
  {
    auto first = std::make_unique<StressLogic>(&state);
    bus.set_logic(first.get());
    common::MutexLock lock(state.mu);
    state.current = std::move(first);
  }

  // The publishing thread owns the registry, exactly as OrcaService does
  // in production: matching happens at publish time, workers only deliver.
  ShardedScopeRegistry registry(4);
  common::Rng rng(1234);
  constexpr int kApps = 6;
  constexpr int64_t kEvents = 4000;
  std::vector<int64_t> next_value(kApps, 0);
  int64_t published = 0;
  for (int64_t i = 0; i < kEvents; ++i) {
    int app_index = static_cast<int>(rng.UniformInt(0, kApps - 1));
    std::string app = "app" + std::to_string(app_index);
    // Scope churn: every app's scope key flips between registered and
    // unregistered while deliveries run.
    std::string key = "scope-" + app;
    if (rng.Bernoulli(0.05)) {
      if (registry.Unregister(key) == 0) {
        PeMetricScope scope(key);
        scope.AddApplicationFilter(app);
        registry.Register(scope);
      }
    }
    PeMetricContext probe;
    probe.application = app;
    probe.metric = "m";
    std::vector<std::string> matched = registry.MatchedKeys(probe);
    matched.push_back("always");  // deliver even when churned away
    bus.Publish(AppMetricEvent(app, next_value[app_index]++,
                               std::move(matched)));
    ++published;
    if (i % 512 == 0) std::this_thread::yield();
  }
  pool->Drain();

  EXPECT_EQ(state.total.load(), published);
  EXPECT_EQ(bus.events_delivered(), static_cast<uint64_t>(published));
  EXPECT_TRUE(state.fifo_ok.load());
  EXPECT_GT(state.replacements.load(), 0);
  EXPECT_EQ(bus.transactions().committed_count(), published);
  EXPECT_TRUE(bus.transactions().Uncommitted().empty());
  // The final logic is destroyed by `state.current`; every retired one
  // must have been disposed by the bus without leaks (ASan checks).
  bus.set_logic(nullptr);
}

// --- Actuating handlers: async-vs-serial equivalence ------------------------

/// Satellite: the OrcaContext equivalence suite with *actuating*
/// handlers. The logic registers/unregisters scopes, restarts PEs,
/// submits and cancels applications mid-delivery — all through the
/// per-delivery context. Per-application delivery streams and
/// transaction journals must stay byte-identical between the serial bus
/// and the DeterministicExecutor across seeds (the context's immediate
/// mode is the serial oracle, preserved).
class ActuatingOrca : public Orchestrator {
 public:
  explicit ActuatingOrca(std::vector<std::string> hub_apps)
      : hub_apps_(std::move(hub_apps)) {}

  void HandleOrcaStart(OrcaContext& orca,
                       const OrcaStartContext&) override {
    per_app["<residual>"].push_back("<start>");
    OperatorMetricScope ops("ops");
    ops.SetMetricKindFilter(runtime::MetricKind::kCustom);
    for (const auto& hub : hub_apps_) ops.AddApplicationFilter(hub);
    orca.RegisterEventScope(ops);
    orca.RegisterEventScope(JobEventScope("jobs"));
    orca.RegisterEventScope(UserEventScope("user"));
    orca.RegisterEventScope(PeFailureScope("fail"));
    orca.SetMetricPullPeriod(5.0);
    for (const auto& hub : hub_apps_) {
      // hub0 -> "hub0" config id (apps are named Hub<k>).
      orca.SubmitApplication("hub" + hub.substr(3));
    }
  }

  void HandleOperatorMetricEvent(
      OrcaContext& orca, const OperatorMetricContext& context,
      const std::vector<std::string>& scopes) override {
    std::string keys;
    for (const auto& key : scopes) keys += key + "+";
    Record(context.application,
           "m:" + context.instance_name + "." + context.metric + "=" +
               std::to_string(context.value) + "@" +
               std::to_string(context.epoch) + "/" + keys,
           orca);
    // Scope churn keyed off the (deterministic) metric value: toggling
    // "dyn-<app>" changes which keys later events of THIS application
    // match — divergence in registry handling shows up in the streams.
    if (context.value % 5 == 3) {
      std::string key = "dyn-" + context.application;
      if (dyn_registered_.count(key) == 0) {
        OperatorMetricScope dyn(key);
        dyn.AddApplicationFilter(context.application);
        dyn.SetMetricKindFilter(runtime::MetricKind::kCustom);
        orca.RegisterEventScope(dyn);
        dyn_registered_.insert(key);
      } else {
        orca.UnregisterEventScope(key);
        dyn_registered_.erase(key);
      }
    }
    // Journaled runtime-error path (§3): the PE is running, so the
    // restart is refused — deterministically — after being journaled.
    if (context.value % 7 == 2) orca.RestartPe(context.pe);
    // Expand/contract the child application of this hub, driven purely
    // by logic-local state so the decision is schedule-independent.
    if (context.metric == "nSeen") {
      std::string child = "child" + context.application.substr(3);
      bool& submitted = child_submitted_[child];
      if (context.epoch % 2 == 0 && !submitted) {
        orca.SubmitApplication(child);
        submitted = true;
      } else if (context.epoch % 2 == 1 && submitted) {
        orca.CancelApplication(child);
        submitted = false;
      }
    }
  }

  void HandlePeFailureEvent(OrcaContext& orca,
                            const PeFailureContext& context,
                            const std::vector<std::string>&) override {
    Record(context.application, "f:" + context.reason, orca);
    orca.RestartPe(context.pe);  // a real restart: the PE crashed
  }

  void HandleJobSubmissionEvent(OrcaContext& orca,
                                const JobEventContext& context,
                                const std::vector<std::string>&) override {
    Record(context.application, "j+:" + context.config_id, orca);
  }

  void HandleJobCancellationEvent(OrcaContext& orca,
                                  const JobEventContext& context,
                                  const std::vector<std::string>&) override {
    Record(context.application, "j-:" + context.config_id, orca);
  }

  void HandleUserEvent(OrcaContext& orca, const UserEventContext& context,
                       const std::vector<std::string>&) override {
    Record("<residual>", "u:" + context.name, orca);
  }

  std::map<std::string, std::vector<std::string>> per_app;
  /// Per application: the delivery transactions its events ran in, in
  /// delivery order (joined with the journal after the run).
  std::map<std::string, std::vector<TransactionId>> txns;

 private:
  void Record(const std::string& app, std::string payload,
              OrcaContext& orca) {
    per_app[app].push_back(std::move(payload));
    txns[app].push_back(orca.current_transaction());
  }

  std::vector<std::string> hub_apps_;
  std::set<std::string> dyn_registered_;
  std::map<std::string, bool> child_submitted_;
};

struct ActuatingRun {
  std::map<std::string, std::vector<std::string>> per_app;
  std::map<std::string, std::vector<std::string>> journal;
  uint64_t delivered = 0;
};

ActuatingRun RunActuatingWorkload(uint64_t seed, bool async) {
  ClusterHarness cluster(4);
  cluster.factory().RegisterOrReplace("CountingSink", [] {
    return std::make_unique<ops::CallbackSink>(
        [](const topology::Tuple&, runtime::OperatorContext* ctx) {
          ctx->CreateCustomMetric("nSeen");
          ctx->AddToCustomMetric("nSeen", 1);
        });
  });
  OrcaService::Config config;
  if (async) {
    config.dispatch_executor =
        std::make_shared<DeterministicExecutor>(&cluster.sim(), seed);
  }
  OrcaService service(&cluster.sim(), &cluster.sam(), &cluster.srm(),
                      config);

  constexpr int kHubs = 4;
  std::vector<std::string> hub_apps;
  for (int i = 0; i < kHubs; ++i) {
    std::string hub = "Hub" + std::to_string(i);
    hub_apps.push_back(hub);
    AppBuilder builder(hub);
    builder.AddOperator("src", "Beacon").Output("raw").Param("period", 0.5);
    builder.AddOperator("snk", "CountingSink").Input("raw");
    AppConfig app_config;
    app_config.id = "hub" + std::to_string(i);
    app_config.application_name = hub;
    EXPECT_TRUE(
        service.RegisterApplication(app_config, *builder.Build()).ok());
    AppBuilder child_builder("Child" + std::to_string(i));
    child_builder.AddOperator("src", "Beacon")
        .Output("raw")
        .Param("period", 1.0);
    child_builder.AddOperator("snk", "NullSink").Input("raw");
    AppConfig child_config;
    child_config.id = "child" + std::to_string(i);
    child_config.application_name = "Child" + std::to_string(i);
    EXPECT_TRUE(
        service.RegisterApplication(child_config, *child_builder.Build())
            .ok());
  }

  auto logic_holder = std::make_unique<ActuatingOrca>(hub_apps);
  ActuatingOrca* logic = logic_holder.get();
  EXPECT_TRUE(service.Load(std::move(logic_holder)).ok());
  cluster.sim().RunFor(0.5);

  common::Rng rng(seed * 77 + 1);
  int kills = 0;
  for (int step = 0; step < 60; ++step) {
    int64_t pick = rng.UniformInt(0, 9);
    if (pick <= 2) {
      service.InjectUserEvent("u" + std::to_string(step));
    } else if (pick <= 4) {
      service.PullMetricsNow();
    } else if (pick == 5 && kills < 3) {
      // Crash a hub sink PE; the failure handler restarts it.
      std::string hub = "hub" + std::to_string(rng.UniformInt(0, kHubs - 1));
      auto job = service.RunningJob(hub);
      if (job.ok()) {
        auto pe = cluster.sam().FindJob(job.value())->PeOfOperator("snk");
        if (pe.ok() && cluster.sam().KillPe(pe.value(), "crash").ok()) {
          ++kills;
        }
      }
    } else {
      cluster.sim().RunFor(1.0);
    }
  }
  cluster.sim().RunFor(5.0);

  ActuatingRun result;
  result.per_app = logic->per_app;
  result.delivered = service.events_delivered();
  // Join the per-app transaction streams with the journal: summary +
  // actuations + commit state, in delivery order per application.
  for (const auto& [app, txn_list] : logic->txns) {
    for (TransactionId txn : txn_list) {
      const TransactionLog::Record* record =
          service.transactions().Find(txn);
      std::string entry = record == nullptr ? "<none>"
                                            : record->event_summary;
      if (record != nullptr) {
        for (const auto& actuation : record->actuations) {
          entry += "|" + actuation;
        }
        entry += record->state == TransactionLog::State::kCommitted
                     ? "|committed"
                     : "|uncommitted";
      }
      result.journal[app].push_back(std::move(entry));
    }
  }
  return result;
}

TEST(ActuatingDispatchTest, AsyncMatchesSerialWithActuatingHandlers) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    ActuatingRun serial = RunActuatingWorkload(seed, /*async=*/false);
    ActuatingRun async = RunActuatingWorkload(seed, /*async=*/true);
    EXPECT_EQ(serial.delivered, async.delivered) << "seed " << seed;
    EXPECT_EQ(serial.per_app, async.per_app) << "seed " << seed;
    EXPECT_EQ(serial.journal, async.journal) << "seed " << seed;
    // The workload must actually exercise the actuation surface.
    bool any_restart = false;
    for (const auto& [app, entries] : serial.journal) {
      for (const auto& entry : entries) {
        if (entry.find("restartPe(") != std::string::npos) {
          any_restart = true;
        }
      }
    }
    EXPECT_TRUE(any_restart) << "seed " << seed;
    EXPECT_GE(serial.per_app.size(), 2u) << "seed " << seed;
  }
}

// --- ThreadPool: staged actuation through the OrcaContext -------------------

/// Satellite: the actuating ThreadPool soak. Worker-thread handlers
/// actuate through their (staged) OrcaContext — scope churn, application
/// submissions, pull-period changes, timers — while the simulation
/// thread concurrently applies the staged batches and pumps the
/// simulation. ASan/TSan watch the marshalling path; the guard
/// regression asserts that *direct* service calls from the worker are
/// refused with a Status instead of racing (the old Debug-only assert,
/// now a Release-mode guard).
TEST(ThreadPoolServiceTest, ActuatingHandlersStageAndApply) {
  ClusterHarness cluster(3);
  OrcaService::Config config;
  config.dispatch_threads = 4;
  OrcaService service(&cluster.sim(), &cluster.sam(), &cluster.srm(),
                      config);
  // Delivery depends on this unowned scope, registered from the sim
  // thread up front — handler-registered scopes apply asynchronously at
  // commit, so the soak only uses them for churn, not for delivery.
  service.RegisterEventScope(UserEventScope("user"));

  constexpr int kChildren = 3;
  for (int i = 0; i < kChildren; ++i) {
    AppBuilder builder("Child" + std::to_string(i));
    builder.AddOperator("src", "Beacon").Output("raw").Param("period", 1.0);
    builder.AddOperator("snk", "NullSink").Input("raw");
    AppConfig app_config;
    app_config.id = "child" + std::to_string(i);
    app_config.application_name = "Child" + std::to_string(i);
    ASSERT_TRUE(
        service.RegisterApplication(app_config, *builder.Build()).ok());
  }

  struct SoakState {
    OrcaService* service = nullptr;
    std::atomic<int64_t> delivered{0};
    std::atomic<int> submits_staged{0};
    std::atomic<int> timers_created{0};
    std::atomic<bool> guard_failed_precondition{true};
    std::atomic<bool> staged_calls_returned_ok{true};
    std::atomic<bool> timer_ids_valid{true};
    std::atomic<bool> snapshot_reads_ok{true};
    std::atomic<double> start_now{-1};
  } state;
  state.service = &service;

  class SoakLogic : public Orchestrator {
   public:
    explicit SoakLogic(SoakState* state) : state_(state) {}
    void HandleOrcaStart(OrcaContext& orca,
                         const OrcaStartContext&) override {
      EXPECT_TRUE(orca.staged());
      // The staged clock is pinned at the Load-time publication, not at
      // service construction.
      state_->start_now = orca.Now();
    }
    void HandleUserEvent(OrcaContext& orca, const UserEventContext& context,
                         const std::vector<std::string>&) override {
      int64_t n = state_->delivered.fetch_add(1) + 1;
      // Snapshot reads: consistent, lock-free against the sim thread.
      if (orca.Now() < 0) state_->snapshot_reads_ok = false;
      (void)orca.graph().jobs();
      (void)orca.IsRunning("child0");
      (void)orca.metric_pull_period();
      // Staged actuations, exercised across the surface.
      if (n <= 3) {
        std::string child = "child" + std::to_string(n - 1);
        if (!orca.SubmitApplication(child).ok()) {
          state_->staged_calls_returned_ok = false;
        }
        ++state_->submits_staged;
      }
      if (n % 50 == 0) {
        OperatorMetricScope churn("churn-" + std::to_string(n));
        orca.RegisterEventScope(churn);
        orca.UnregisterEventScope("churn-" + std::to_string(n));
        orca.SetMetricPullPeriod(7.0 + static_cast<double>(n % 3));
      }
      if (n % 97 == 0) {
        common::TimerId id =
            orca.CreateTimer(1e9, "soak-" + std::to_string(n));
        if (id.value() == 0) state_->timer_ids_valid = false;
        ++state_->timers_created;
        orca.CancelTimer(id);
      }
      if (context.name == "probe-guard") {
        // Regression (old CheckNotInWorkerHandler assert): a residual
        // DIRECT service call from a worker-thread handler must be
        // refused with FailedPrecondition in every build mode — and must
        // not take effect.
        common::Status direct = state_->service->SubmitApplication("child0");
        if (!direct.IsFailedPrecondition()) {
          state_->guard_failed_precondition = false;
        }
        if (state_->service->CreateTimer(1.0, "never").value() != 0) {
          state_->timer_ids_valid = false;
        }
      }
    }

   private:
    SoakState* state_;
  };

  cluster.sim().RunUntil(3);  // the clock must be pinned at Load, not t=0
  ASSERT_TRUE(service.Load(std::make_unique<SoakLogic>(&state)).ok());
  // Let the start event deliver before anything else publishes, so its
  // handler's pinned Now() is unambiguously the Load-time clock.
  while (service.events_delivered() < 1) std::this_thread::yield();
  EXPECT_DOUBLE_EQ(state.start_now.load(), 3.0);

  constexpr int64_t kEvents = 1500;
  for (int64_t i = 0; i < kEvents; ++i) {
    service.InjectUserEvent(i == 200 ? "probe-guard"
                                     : "evt" + std::to_string(i));
    if (i % 64 == 0) {
      // The simulation thread's run loop: marshal staged batches out of
      // the mailbox and advance the simulation (atomic introspection
      // reads race harmlessly with the workers — TSan-clean by design).
      service.ApplyStagedActuations();
      (void)service.events_delivered();
      (void)service.queue_depth();
      cluster.sim().RunFor(0.01);
    }
  }
  while (service.events_delivered() < kEvents + 1) {
    service.ApplyStagedActuations();
    std::this_thread::yield();
  }
  service.ApplyStagedActuations();
  cluster.sim().RunFor(2.0);  // complete the staged submissions' tasks
  EXPECT_EQ(service.staged_actuations_pending(), 0u);

  EXPECT_EQ(state.delivered.load(), kEvents);
  EXPECT_EQ(state.submits_staged.load(), 3);
  EXPECT_TRUE(state.staged_calls_returned_ok.load());
  EXPECT_TRUE(state.guard_failed_precondition.load());
  EXPECT_TRUE(state.timer_ids_valid.load());
  EXPECT_TRUE(state.snapshot_reads_ok.load());
  EXPECT_GT(state.timers_created.load(), 0);
  // The staged submissions went through on the simulation thread.
  for (int i = 0; i < kChildren; ++i) {
    EXPECT_TRUE(service.IsRunning("child" + std::to_string(i))) << i;
  }
  // The staged calls were journaled into their delivery transactions.
  bool journaled = false;
  for (const TransactionLog::Record* record :
       service.transactions().records()) {
    for (const auto& actuation : record->actuations) {
      if (actuation.find("submitApplication(child") != std::string::npos) {
        journaled = true;
      }
    }
  }
  EXPECT_TRUE(journaled);
  service.Shutdown();
}

/// Staged batches apply in handler call order at commit: the last call
/// in the batch wins.
TEST(ThreadPoolServiceTest, StagedActuationsApplyInCallOrder) {
  ClusterHarness cluster(2);
  OrcaService::Config config;
  config.dispatch_threads = 2;
  OrcaService service(&cluster.sim(), &cluster.sam(), &cluster.srm(),
                      config);
  service.RegisterEventScope(UserEventScope("user"));
  class OrderLogic : public Orchestrator {
   public:
    void HandleOrcaStart(OrcaContext&, const OrcaStartContext&) override {}
    void HandleUserEvent(OrcaContext& orca, const UserEventContext&,
                         const std::vector<std::string>&) override {
      orca.SetMetricPullPeriod(3.0);
      orca.SetMetricPullPeriod(11.0);
      EXPECT_EQ(orca.staged_count(), 2u);
    }
  };
  ASSERT_TRUE(service.Load(std::make_unique<OrderLogic>()).ok());
  service.InjectUserEvent("go");
  while (service.events_delivered() < 2) std::this_thread::yield();
  EXPECT_EQ(service.ApplyStagedActuations(), 2u);
  EXPECT_EQ(service.metric_pull_period(), 11.0);
  service.Shutdown();
}

/// Outside a worker handler the guard admits everything: the same calls
/// that are refused from a worker-thread handler keep working from the
/// simulation thread of a ThreadPool-dispatch service.
TEST(ThreadPoolServiceTest, GuardOnlyRejectsWorkerHandlerEntry) {
  ClusterHarness cluster(2);
  OrcaService::Config config;
  config.dispatch_threads = 2;
  OrcaService service(&cluster.sim(), &cluster.sam(), &cluster.srm(),
                      config);
  service.RegisterEventScope(UserEventScope("standing"));
  EXPECT_EQ(service.scopes().size(), 1u);
  common::TimerId timer = service.CreateTimer(100.0, "later");
  EXPECT_NE(timer.value(), 0);
  service.CancelTimer(timer);
  EXPECT_TRUE(
      service.SubmitApplication("nope").IsNotFound());  // not guarded away
}

TEST(ThreadPoolServiceTest, ServiceDeliversAndDrainsOnShutdown) {
  ClusterHarness cluster(2);
  OrcaService::Config config;
  config.dispatch_threads = 3;
  OrcaService service(&cluster.sim(), &cluster.sam(), &cluster.srm(),
                      config);
  // Under the worker pool, handlers run off the simulation thread, so
  // scopes are registered up front (unowned, surviving logic turnover)
  // and the logic only touches its own state.
  service.RegisterEventScope(UserEventScope("user"));

  // Counters live outside the orchestrator: Shutdown disposes the logic
  // object once its in-flight deliveries unwind.
  struct Counts {
    std::atomic<int> starts{0};
    std::atomic<int64_t> delivered{0};
  } counts;
  class CountingLogic : public Orchestrator {
   public:
    explicit CountingLogic(Counts* counts) : counts_(counts) {}
    void HandleOrcaStart(OrcaContext&, const OrcaStartContext&) override {
      ++counts_->starts;
    }
    void HandleUserEvent(OrcaContext&, const UserEventContext&,
                         const std::vector<std::string>&) override {
      ++counts_->delivered;
    }

   private:
    Counts* counts_;
  };
  ASSERT_TRUE(service.Load(std::make_unique<CountingLogic>(&counts)).ok());
  for (int i = 0; i < 500; ++i) {
    service.InjectUserEvent("evt" + std::to_string(i));
  }
  // Let the pool make some progress (at least the start event plus a few
  // deliveries) before tearing down — Shutdown is allowed to retain
  // whatever has not been popped yet.
  while (service.events_delivered() < 10) std::this_thread::yield();
  // Shutdown detaches the logic and drains the pool: whatever was popped
  // for delivery finishes, the rest is retained for a future Load (§7).
  service.Shutdown();
  EXPECT_EQ(counts.starts.load(), 1);
  EXPECT_EQ(static_cast<uint64_t>(counts.delivered.load()) + 1,
            service.events_delivered());
  EXPECT_EQ(service.queue_depth() + service.events_delivered(), 501u);
}

// --- ThreadPool: snapshot sharing and lifetime -----------------------------

/// What worker handlers read from their delivery snapshots. Handlers bump
/// `probes` last, so the simulation thread reads the other fields after
/// seeing it advance.
struct GraphProbe {
  common::JobId job;
  common::PeId pe;
  std::atomic<const GraphView::JobRecord*> record{nullptr};
  std::atomic<int> jobs_seen{-1};
  std::atomic<bool> running_seen{false};
  std::atomic<bool> staged_ok{true};
  // Hold handshake: the worker pins a record, then waits for `released`.
  std::atomic<bool> holding{false};
  std::atomic<bool> released{false};
  std::atomic<size_t> held_pes{0};
  std::string held_app_name;  // written by the worker before `probes`
  std::atomic<int> probes{0};
};

class GraphProbeLogic : public Orchestrator {
 public:
  explicit GraphProbeLogic(GraphProbe* probe) : probe_(probe) {}
  void HandleOrcaStart(OrcaContext&, const OrcaStartContext&) override {}
  void HandleUserEvent(OrcaContext& orca, const UserEventContext& context,
                       const std::vector<std::string>&) override {
    const GraphView::JobRecord* record = orca.graph().FindJob(probe_->job);
    probe_->record = record;
    probe_->jobs_seen = static_cast<int>(orca.graph().jobs().size());
    probe_->running_seen = orca.IsRunning("app");
    if (context.name == "restart" && !orca.RestartPe(probe_->pe).ok()) {
      probe_->staged_ok = false;
    }
    if (context.name == "hold" && record != nullptr) {
      probe_->holding = true;
      while (!probe_->released) std::this_thread::yield();
      // The job was cancelled meanwhile; the pinned snapshot keeps its
      // record alive (ASan would flag a freed one).
      probe_->held_app_name = record->app_name;
      probe_->held_pes = record->pes.size();
    }
    ++probe_->probes;
  }

 private:
  GraphProbe* probe_;
};

/// A ThreadPool service with one registered app ("app") and the probing
/// logic loaded.
class SnapshotSharingTest : public ::testing::Test {
 protected:
  SnapshotSharingTest() : cluster_(2) {
    OrcaService::Config config;
    config.dispatch_threads = 2;
    service_ = std::make_unique<OrcaService>(&cluster_.sim(), &cluster_.sam(),
                                             &cluster_.srm(), config);
    service_->RegisterEventScope(UserEventScope("user"));
    AppBuilder builder("App");
    builder.AddOperator("src", "Beacon").Output("raw").Param("period", 1.0);
    builder.AddOperator("snk", "NullSink").Input("raw");
    AppConfig app_config;
    app_config.id = "app";
    app_config.application_name = "App";
    EXPECT_TRUE(
        service_->RegisterApplication(app_config, *builder.Build()).ok());
    EXPECT_TRUE(
        service_->Load(std::make_unique<GraphProbeLogic>(&probe_)).ok());
  }

  /// Submits "app" from the simulation thread and records its job/PE.
  void SubmitApp() {
    ASSERT_TRUE(service_->SubmitApplication("app").ok());
    cluster_.sim().RunFor(1.0);
    ASSERT_TRUE(service_->IsRunning("app"));
    probe_.job = service_->RunningJob("app").value();
    probe_.pe = service_->graph().FindJob(probe_.job)->pes.front().id;
  }

  /// Delivers one user event to a worker and waits for its handler.
  void Probe(const std::string& name) {
    int before = probe_.probes.load();
    service_->InjectUserEvent(name);
    while (probe_.probes.load() == before) std::this_thread::yield();
  }

  ClusterHarness cluster_;
  GraphProbe probe_;
  std::unique_ptr<OrcaService> service_;
};

/// A staged RestartPe changes no snapshot-visible state: the deliveries
/// before and after its apply read the very record the live graph holds.
TEST_F(SnapshotSharingTest, StagedRestartKeepsTheSharedJobRecord) {
  SubmitApp();
  const GraphView::JobRecord* live = service_->graph().FindJob(probe_.job);
  ASSERT_TRUE(cluster_.sam().KillPe(probe_.pe, "test").ok());
  ASSERT_FALSE(cluster_.sam().FindPe(probe_.pe)->running());

  Probe("restart");
  const GraphView::JobRecord* before_apply = probe_.record.load();
  // The batch reaches the mailbox when the handler's delivery commits.
  while (service_->staged_actuations_pending() == 0) {
    std::this_thread::yield();
  }
  EXPECT_EQ(service_->ApplyStagedActuations(), 1u);
  EXPECT_TRUE(probe_.staged_ok.load());
  EXPECT_TRUE(cluster_.sam().FindPe(probe_.pe)->running());

  Probe("after");
  EXPECT_EQ(before_apply, live);
  EXPECT_EQ(probe_.record.load(), live);
}

/// Submission and cancellation republish: the job set a worker reads
/// follows them, and a worker pinned to an older snapshot still reads a
/// job cancelled after it was published.
TEST_F(SnapshotSharingTest, JobSetFollowsSubmitAndCancel) {
  Probe("empty");
  EXPECT_EQ(probe_.jobs_seen.load(), 0);
  EXPECT_FALSE(probe_.running_seen.load());

  SubmitApp();
  Probe("submitted");
  EXPECT_EQ(probe_.jobs_seen.load(), 1);
  EXPECT_TRUE(probe_.running_seen.load());
  EXPECT_EQ(probe_.record.load(), service_->graph().FindJob(probe_.job));

  const size_t pes = service_->graph().FindJob(probe_.job)->pes.size();
  int before = probe_.probes.load();
  service_->InjectUserEvent("hold");
  while (!probe_.holding.load()) std::this_thread::yield();
  ASSERT_TRUE(service_->CancelApplication("app").ok());
  EXPECT_FALSE(service_->graph().HasJob(probe_.job));
  probe_.released = true;
  while (probe_.probes.load() == before) std::this_thread::yield();
  EXPECT_EQ(probe_.held_app_name, "App");
  EXPECT_EQ(probe_.held_pes.load(), pes);

  Probe("cancelled");
  EXPECT_EQ(probe_.jobs_seen.load(), 0);
  EXPECT_EQ(probe_.record.load(), nullptr);
  EXPECT_FALSE(probe_.running_seen.load());
}

}  // namespace
}  // namespace orcastream::orca
