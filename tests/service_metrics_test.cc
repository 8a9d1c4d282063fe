#include <gtest/gtest.h>

#include "orca/orca_service.h"
#include "orca/rules.h"
#include "tests/test_util.h"
#include "topology/app_builder.h"

namespace orcastream::orca {
namespace {

using orcastream::testing::ClusterHarness;
using topology::AppBuilder;
using topology::ApplicationModel;
using topology::Tuple;

ApplicationModel PipelineApp(const std::string& name) {
  AppBuilder builder(name);
  builder.AddOperator("src", "Beacon").Output("s").Param("period", 0.2);
  builder.AddOperator("flt", "Filter")
      .Input("s")
      .Output("f")
      .Param("field", "seq")
      .Param("op", ">=")
      .Param("value", "0");
  builder.AddOperator("snk", "NullSink").Input("f");
  auto model = builder.Build();
  EXPECT_TRUE(model.ok()) << model.status();
  return model.ValueOr(ApplicationModel("invalid"));
}

class PortAndPeMetricOrca : public Orchestrator {
 public:
  void HandleOrcaStart(OrcaContext& orca,
                       const OrcaStartContext&) override {
    // Port-level operator metrics (the paper's "operator port metrics"
    // event type).
    OperatorMetricScope ports("portMetrics");
    ports.SetPortScope(OperatorMetricScope::PortScope::kPortLevel);
    ports.AddOperatorNameFilter("flt");
    orca.RegisterEventScope(ports);
    // PE-level metrics.
    PeMetricScope pe_scope("peMetrics");
    pe_scope.AddMetricNameFilter(BuiltinMetric::kNumTupleBytesProcessed);
    orca.RegisterEventScope(pe_scope);
    orca.SubmitApplication("app");
  }
  void HandleOperatorMetricEvent(
      OrcaContext&, const OperatorMetricContext& context,
      const std::vector<std::string>& scopes) override {
    (void)scopes;
    port_events.push_back(context);
  }
  void HandlePeMetricEvent(OrcaContext&, const PeMetricContext& context,
                           const std::vector<std::string>& scopes) override {
    (void)scopes;
    pe_events.push_back(context);
  }
  std::vector<OperatorMetricContext> port_events;
  std::vector<PeMetricContext> pe_events;
};

TEST(ServiceMetricsTest, PortAndPeLevelEventsFlow) {
  ClusterHarness cluster(3);
  OrcaService service(&cluster.sim(), &cluster.sam(), &cluster.srm());
  AppConfig config;
  config.id = "app";
  config.application_name = "App";
  ASSERT_TRUE(service.RegisterApplication(config, PipelineApp("App")).ok());
  auto logic_holder = std::make_unique<PortAndPeMetricOrca>();
  PortAndPeMetricOrca* logic = logic_holder.get();
  ASSERT_TRUE(service.Load(std::move(logic_holder)).ok());
  cluster.sim().RunUntil(16);

  // Port events: flt has 1 input + 1 output port, each reporting its
  // tuple counter.
  ASSERT_GE(logic->port_events.size(), 2u);
  bool saw_input = false, saw_output = false;
  for (const auto& event : logic->port_events) {
    EXPECT_EQ(event.instance_name, "flt");
    EXPECT_GE(event.port, 0);
    EXPECT_GT(event.value, 0);
    if (event.output_port) saw_output = true;
    if (!event.output_port) saw_input = true;
  }
  EXPECT_TRUE(saw_input);
  EXPECT_TRUE(saw_output);

  // PE events: bytes processed per PE (the source PE legitimately
  // reports 0 — it only submits), same epoch as the port events.
  ASSERT_GE(logic->pe_events.size(), 1u);
  bool nonzero_bytes = false;
  for (const auto& event : logic->pe_events) {
    EXPECT_EQ(event.metric, BuiltinMetric::kNumTupleBytesProcessed);
    if (event.value > 0) nonzero_bytes = true;
  }
  EXPECT_TRUE(nonzero_bytes);
  EXPECT_EQ(logic->pe_events[0].epoch, logic->port_events[0].epoch);
}

TEST(ServiceMetricsTest, OperatorLevelScopeExcludesPortSamples) {
  ClusterHarness cluster(3);
  OrcaService service(&cluster.sim(), &cluster.sam(), &cluster.srm());
  AppConfig config;
  config.id = "app";
  config.application_name = "App";
  ASSERT_TRUE(service.RegisterApplication(config, PipelineApp("App")).ok());

  auto rules = std::make_unique<RuleOrchestrator>();
  std::vector<int32_t> seen_ports;
  rules->OnStart([](OrcaContext& orca) { orca.SubmitApplication("app"); });
  OperatorMetricScope scope("ignored");
  scope.AddOperatorNameFilter("flt");  // default: operator level only
  rules->WhenMetric(scope, nullptr,
                    [&seen_ports](OrcaContext&,
                                  const OperatorMetricContext& context) {
                      seen_ports.push_back(context.port);
                    });
  ASSERT_TRUE(service.Load(std::move(rules)).ok());
  cluster.sim().RunUntil(16);
  ASSERT_FALSE(seen_ports.empty());
  for (int32_t port : seen_ports) EXPECT_EQ(port, -1);
}

TEST(ServiceMetricsTest, RuleBasedAlgorithmSwitching) {
  // §1's third motivating example as a compact test: a metric rule
  // cancels variant A and submits variant B at runtime.
  ClusterHarness cluster(3);
  OrcaService service(&cluster.sim(), &cluster.sam(), &cluster.srm());
  for (const char* name : {"VariantA", "VariantB"}) {
    AppConfig config;
    config.id = name;
    config.application_name = name;
    ASSERT_TRUE(
        service.RegisterApplication(config, PipelineApp(name)).ok());
  }
  auto rules = std::make_unique<RuleOrchestrator>();
  rules->OnStart(
      [](OrcaContext& orca) { orca.SubmitApplication("VariantA"); });
  OperatorMetricScope scope("ignored");
  scope.AddApplicationFilter("VariantA");
  scope.AddOperatorNameFilter("src");
  scope.AddOperatorMetric(BuiltinMetric::kNumTuplesSubmitted);
  bool switched = false;
  rules->WhenMetric(
      scope,
      [](const OperatorMetricContext& context) {
        return context.value > 100;  // the "pattern"
      },
      [&switched](OrcaContext& orca, const OperatorMetricContext&) {
        if (switched) return;
        switched = true;
        ASSERT_TRUE(orca.CancelApplication("VariantA").ok());
        ASSERT_TRUE(orca.SubmitApplication("VariantB").ok());
      });
  ASSERT_TRUE(service.Load(std::move(rules)).ok());
  // src emits 5/s; >100 tuples after ~20 s; second pull round at t=30.
  cluster.sim().RunUntil(14.5);
  EXPECT_TRUE(service.IsRunning("VariantA"));
  EXPECT_FALSE(service.IsRunning("VariantB"));
  cluster.sim().RunUntil(60);
  EXPECT_TRUE(switched);
  EXPECT_FALSE(service.IsRunning("VariantA"));
  EXPECT_TRUE(service.IsRunning("VariantB"));
}

TEST(ServiceMetricsTest, EpochsAdvanceMonotonically) {
  ClusterHarness cluster(3);
  OrcaService service(&cluster.sim(), &cluster.sam(), &cluster.srm());
  AppConfig config;
  config.id = "app";
  config.application_name = "App";
  ASSERT_TRUE(service.RegisterApplication(config, PipelineApp("App")).ok());
  auto logic_holder = std::make_unique<PortAndPeMetricOrca>();
  PortAndPeMetricOrca* logic = logic_holder.get();
  ASSERT_TRUE(service.Load(std::move(logic_holder)).ok());
  cluster.sim().RunUntil(70);
  ASSERT_GE(logic->pe_events.size(), 4u);
  for (size_t i = 1; i < logic->pe_events.size(); ++i) {
    EXPECT_GE(logic->pe_events[i].epoch, logic->pe_events[i - 1].epoch);
  }
  EXPECT_GE(logic->pe_events.back().epoch, 4);
}

/// Records every metric delivery with its context, matched keys and
/// position in the delivery stream.
class MetricRecorderOrca : public Orchestrator {
 public:
  void HandleOrcaStart(OrcaContext& orca, const OrcaStartContext&) override {
    OperatorMetricScope ops("ops");
    ops.SetPortScope(OperatorMetricScope::PortScope::kBoth);
    orca.RegisterEventScope(ops);
    orca.RegisterEventScope(PeMetricScope("pes"));
    orca.SubmitApplication("app");
  }
  void HandleOperatorMetricEvent(
      OrcaContext&, const OperatorMetricContext& context,
      const std::vector<std::string>& scopes) override {
    order.push_back("op" + std::to_string(op_events.size()));
    op_events.push_back(context);
    EXPECT_EQ(scopes, std::vector<std::string>{"ops"});
  }
  void HandlePeMetricEvent(OrcaContext&, const PeMetricContext& context,
                           const std::vector<std::string>& scopes) override {
    order.push_back("pe" + std::to_string(pe_events.size()));
    pe_events.push_back(context);
    EXPECT_EQ(scopes, std::vector<std::string>{"pes"});
  }
  std::vector<std::string> order;
  std::vector<OperatorMetricContext> op_events;
  std::vector<PeMetricContext> pe_events;
};

/// A hand-built snapshot through IngestMetricsSnapshot: every context
/// field is copied from the record or resolved against the graph view,
/// unmanaged jobs are skipped, operators missing from the model get an
/// empty kind, and operator samples deliver before PE samples, each in
/// snapshot order, with journal summaries to match.
TEST(ServiceMetricsTest, IngestedSnapshotContextsCarryEveryField) {
  using runtime::MetricKind;
  ClusterHarness cluster(3);
  OrcaService::Config service_config;
  service_config.remote_event_plane = true;  // no pull rounds of its own
  OrcaService service(&cluster.sim(), &cluster.sam(), &cluster.srm(),
                      service_config);
  AppConfig config;
  config.id = "app";
  config.application_name = "App";
  ASSERT_TRUE(service.RegisterApplication(config, PipelineApp("App")).ok());
  auto logic_holder = std::make_unique<MetricRecorderOrca>();
  MetricRecorderOrca* logic = logic_holder.get();
  ASSERT_TRUE(service.Load(std::move(logic_holder)).ok());
  cluster.sim().RunUntil(1);
  auto job = service.RunningJob("app");
  ASSERT_TRUE(job.ok()) << job.status();
  auto flt_pe = service.graph().PeOfOperator(job.value(), "flt");
  ASSERT_TRUE(flt_pe.ok());
  auto src_pe = service.graph().PeOfOperator(job.value(), "src");
  ASSERT_TRUE(src_pe.ok());
  const common::JobId unmanaged(job.value().value() + 1000);
  const common::PeId pe = flt_pe.value();

  runtime::MetricsSnapshot snapshot;
  snapshot.collected_at = 0.75;
  snapshot.operator_metrics = {
      {unmanaged, pe, "flt", "queueSize", MetricKind::kBuiltin, 1, -1, false},
      {job.value(), pe, "flt", "queueSize", MetricKind::kBuiltin, 11, -1,
       false},
      {job.value(), pe, "ghost", "lag", MetricKind::kCustom, 13, -1, false},
      {job.value(), pe, "flt", "nTuplesProcessed", MetricKind::kBuiltin, 17,
       0, false},
      {job.value(), pe, "flt", "nTuplesSubmitted", MetricKind::kBuiltin, 19,
       0, true},
  };
  snapshot.pe_metrics = {
      {unmanaged, pe, "nTupleBytesProcessed", MetricKind::kBuiltin, 2},
      {job.value(), src_pe.value(), "nTupleBytesProcessed",
       MetricKind::kBuiltin, 23},
      {job.value(), pe, "heap", MetricKind::kCustom, 29},
  };
  ASSERT_EQ(service.metric_epoch(), 0);
  size_t journal_before = service.transactions().size();
  service.IngestMetricsSnapshot(snapshot);
  cluster.sim().RunUntil(2);

  EXPECT_EQ(logic->order, (std::vector<std::string>{"op0", "op1", "op2",
                                                    "op3", "pe0", "pe1"}));
  ASSERT_EQ(logic->op_events.size(), 4u);
  ASSERT_EQ(logic->pe_events.size(), 2u);
  struct OpExpect {
    std::string instance, kind, metric;
    MetricKind metric_kind;
    int64_t value;
    int32_t port;
    bool output_port;
  };
  const OpExpect op_expect[] = {
      {"flt", "Filter", "queueSize", MetricKind::kBuiltin, 11, -1, false},
      {"ghost", "", "lag", MetricKind::kCustom, 13, -1, false},
      {"flt", "Filter", "nTuplesProcessed", MetricKind::kBuiltin, 17, 0,
       false},
      {"flt", "Filter", "nTuplesSubmitted", MetricKind::kBuiltin, 19, 0,
       true},
  };
  for (size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    const OperatorMetricContext& got = logic->op_events[i];
    EXPECT_EQ(got.job, job.value());
    EXPECT_EQ(got.application, "App");
    EXPECT_EQ(got.pe, pe);
    EXPECT_EQ(got.instance_name, op_expect[i].instance);
    EXPECT_EQ(got.operator_kind, op_expect[i].kind);
    EXPECT_EQ(got.metric, op_expect[i].metric);
    EXPECT_EQ(got.metric_kind, op_expect[i].metric_kind);
    EXPECT_EQ(got.value, op_expect[i].value);
    EXPECT_EQ(got.port, op_expect[i].port);
    EXPECT_EQ(got.output_port, op_expect[i].output_port);
    EXPECT_EQ(got.epoch, 1);
    EXPECT_EQ(got.collected_at, 0.75);
  }
  const PeMetricContext& bytes = logic->pe_events[0];
  EXPECT_EQ(bytes.job, job.value());
  EXPECT_EQ(bytes.application, "App");
  EXPECT_EQ(bytes.pe, src_pe.value());
  EXPECT_EQ(bytes.metric, "nTupleBytesProcessed");
  EXPECT_EQ(bytes.metric_kind, MetricKind::kBuiltin);
  EXPECT_EQ(bytes.value, 23);
  EXPECT_EQ(bytes.epoch, 1);
  EXPECT_EQ(bytes.collected_at, 0.75);
  const PeMetricContext& heap = logic->pe_events[1];
  EXPECT_EQ(heap.job, job.value());
  EXPECT_EQ(heap.application, "App");
  EXPECT_EQ(heap.pe, pe);
  EXPECT_EQ(heap.metric, "heap");
  EXPECT_EQ(heap.metric_kind, MetricKind::kCustom);
  EXPECT_EQ(heap.value, 29);
  EXPECT_EQ(heap.epoch, 1);
  EXPECT_EQ(heap.collected_at, 0.75);

  std::vector<std::string> summaries;
  for (const TransactionLog::Record* record :
       service.transactions().records()) {
    if (record->id > static_cast<TransactionId>(journal_before)) {
      summaries.push_back(record->event_summary);
    }
  }
  const std::string src = std::to_string(src_pe.value().value());
  const std::string flt = std::to_string(pe.value());
  EXPECT_EQ(summaries,
            (std::vector<std::string>{
                "operatorMetric(flt.queueSize@1)",
                "operatorMetric(ghost.lag@1)",
                "operatorMetric(flt.nTuplesProcessed@1)",
                "operatorMetric(flt.nTuplesSubmitted@1)",
                "peMetric(pe" + src + ".nTupleBytesProcessed@1)",
                "peMetric(pe" + flt + ".heap@1)",
            }));
}

/// Satellite: the shard/queue observability surface. Shard loads track
/// where subscopes live and which shard absorbs the match volume; queue
/// stats expose per-application depth/delivered/backlog-age under async
/// dispatch (and stay empty on the serial path).
TEST(ServiceMetricsTest, ShardAndQueueObservability) {
  ClusterHarness cluster(3);
  OrcaService::Config service_config;
  service_config.scope_shards = 2;
  service_config.dispatch_executor =
      std::make_shared<DeterministicExecutor>(&cluster.sim(), /*seed=*/3);
  OrcaService service(&cluster.sim(), &cluster.sam(), &cluster.srm(),
                      service_config);
  AppConfig config;
  config.id = "app";
  config.application_name = "App";
  ASSERT_TRUE(service.RegisterApplication(config, PipelineApp("App")).ok());
  auto logic_holder = std::make_unique<PortAndPeMetricOrca>();
  PortAndPeMetricOrca* logic = logic_holder.get();
  ASSERT_TRUE(service.Load(std::move(logic_holder)).ok());
  cluster.sim().RunUntil(35);
  ASSERT_FALSE(logic->pe_events.empty());

  // Shard loads: one row per shard plus the residual row; subscope
  // occupancy sums to the registry size, and the pull rounds charged
  // match volume somewhere (the PE-metric scope above is app-filterless,
  // i.e. residual).
  auto loads = service.shard_loads();
  ASSERT_EQ(loads.size(), service.scopes().shard_count() + 1);
  size_t subscopes = 0;
  uint64_t matches = 0;
  for (const auto& load : loads) {
    subscopes += load.subscopes;
    matches += load.matches;
  }
  EXPECT_EQ(subscopes, service.scopes().size());
  EXPECT_GT(matches, 0u);
  EXPECT_EQ(service.reshard_count(), 0u);  // volume below the floor
  EXPECT_EQ(service.migrated_subscopes(), 0u);

  // Queue stats: the simulation is quiescent, so every queue drained;
  // per-queue delivered counts add up to the service total, and the
  // application queue for "App" saw the metric events.
  auto stats = service.queue_stats();
  ASSERT_FALSE(stats.empty());
  uint64_t delivered = 0;
  for (const auto& s : stats) {
    EXPECT_EQ(s.depth, 0u) << s.key;
    EXPECT_EQ(s.backlog_age, 0.0) << s.key;
    delivered += s.delivered;
  }
  EXPECT_EQ(delivered, service.events_delivered());
  EXPECT_EQ(service.app_queue_depth("App"), 0u);
  EXPECT_EQ(service.app_queue_backlog_age("App"), 0.0);
  bool app_queue_seen = false;
  for (const auto& s : stats) {
    if (s.key == "App" && s.delivered > 0) app_queue_seen = true;
  }
  EXPECT_TRUE(app_queue_seen);

  // Serial services expose the same accessors as empty/zero.
  OrcaService serial(&cluster.sim(), &cluster.sam(), &cluster.srm());
  EXPECT_TRUE(serial.queue_stats().empty());
  EXPECT_EQ(serial.app_queue_depth("App"), 0u);
  EXPECT_EQ(serial.app_queue_backlog_age("App"), 0.0);
  EXPECT_EQ(serial.shard_loads().size(),
            serial.scopes().shard_count() + 1);
}

}  // namespace
}  // namespace orcastream::orca
