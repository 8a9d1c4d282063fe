// fleet_metrics and scope_churn: closed-loop metric rounds on the serial
// dispatch path. Each round hands one pre-generated SRM snapshot to
// OrcaService::IngestMetricsSnapshot and drives the simulation until the
// round's deliveries have all been handled.

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "orca/orca_context.h"
#include "orca/transaction_log.h"
#include "runtime/metrics.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Distinct snapshots generated per run; rounds cycle through them.
/// Coprime with kRoundsPerReplace, so successive scope_churn generations
/// see different snapshot sequences and make different mutations.
constexpr int kSnapshotCycle = 7;
/// queueSize range and the watermarks the handlers compare against.
constexpr int64_t kQueueMax = 1000;
constexpr int64_t kHighWatermark = 900;
constexpr int64_t kLowWatermark = 400;
/// fleet_metrics: queueSize moves by at most this much per round, so
/// threshold crossings (and actuations) are rare.
constexpr int64_t kWalkStep = 25;
/// Pull periods the fleet logic switches between on a crossing.
constexpr double kTightPullPeriod = 5.0;
constexpr double kNormalPullPeriod = 15.0;
/// scope_churn: rounds between ReplaceLogic calls.
constexpr int kRoundsPerReplace = 4;

enum class Values {
  kWalk,     ///< bounded random walk: rare crossings (fleet_metrics)
  kUniform,  ///< fresh uniform draw per round: frequent crossings (churn)
};

/// The pre-generated inputs of one run.
struct Inputs {
  std::vector<runtime::MetricsSnapshot> snapshots;
  /// Deliveries the bench's base scope set predicts for each snapshot.
  std::vector<uint64_t> predicted;
  size_t samples_per_round = 0;
};

bool IsScopedMetric(const std::string& metric) {
  return metric == orca::BuiltinMetric::kQueueSize ||
         metric == orca::BuiltinMetric::kNumTuplesProcessed;
}

/// Fills `count` snapshots shaped like `shape` with seeded values and
/// predicts, from the bench's own scope definition, how many samples of
/// each the base scopes select: operator-level (port -1) queueSize or
/// nTuplesProcessed samples of kScopedKind operators of a managed app.
Inputs GenerateInputs(const runtime::MetricsSnapshot& shape,
                      const std::set<std::string>& scoped_operators,
                      int count, uint64_t seed, Values values) {
  Rng rng(seed);
  Inputs inputs;
  inputs.samples_per_round =
      shape.operator_metrics.size() + shape.pe_metrics.size();
  std::vector<int64_t> op_state(shape.operator_metrics.size());
  for (int64_t& value : op_state) {
    value = static_cast<int64_t>(rng.Below(kQueueMax));
  }
  std::vector<int64_t> pe_state(shape.pe_metrics.size(), 0);
  for (int k = 0; k < count; ++k) {
    runtime::MetricsSnapshot snapshot = shape;
    uint64_t predicted = 0;
    for (size_t i = 0; i < snapshot.operator_metrics.size(); ++i) {
      runtime::OperatorMetricRecord& record = snapshot.operator_metrics[i];
      int64_t& state = op_state[i];
      if (record.metric_name == orca::BuiltinMetric::kQueueSize) {
        if (values == Values::kWalk) {
          int64_t step = static_cast<int64_t>(rng.Below(2 * kWalkStep + 1)) -
                         kWalkStep;
          state = std::clamp<int64_t>(state + step, 0, kQueueMax);
        } else {
          state = static_cast<int64_t>(rng.Below(kQueueMax));
        }
      } else {
        state += static_cast<int64_t>(rng.Below(500));  // counters grow
      }
      record.value = state;
      if (record.port == -1 && IsScopedMetric(record.metric_name) &&
          scoped_operators.count(record.operator_name) > 0) {
        ++predicted;
      }
    }
    for (size_t i = 0; i < snapshot.pe_metrics.size(); ++i) {
      pe_state[i] += static_cast<int64_t>(rng.Below(4000));
      snapshot.pe_metrics[i].value = pe_state[i];
    }
    inputs.snapshots.push_back(std::move(snapshot));
    inputs.predicted.push_back(predicted);
  }
  return inputs;
}

/// State shared by the driver and the logic; both run on the simulation
/// thread (serial dispatch), so it needs no locking.
struct RoundState {
  Tracer* tracer = nullptr;
  const std::set<std::string>* scoped_operators = nullptr;
  const std::vector<std::string>* apps = nullptr;
  uint64_t round = 0;
  int64_t round_start_ns = 0;
  int64_t ingest_end_ns = 0;
  bool traced = false;
  bool started = false;

  GroupedSamples* reactions = nullptr;  // the window side's, per delivery
  std::vector<double> queue_wait_us;  // traced windows only
  uint64_t handler_calls = 0;         // every delivery, start included
  uint64_t op_deliveries = 0;
  uint64_t pe_deliveries = 0;
  uint64_t actuations = 0;
  uint64_t mutations = 0;
  uint64_t unexpected = 0;  // deliveries outside the bench's scope model
  std::string first_unexpected;

  /// scope_churn: the generation the bench expects to be live and its
  /// full subscope key set.
  uint64_t generation = 1;
  std::set<std::string> model;

  void Unexpected(const std::string& what) {
    if (unexpected++ == 0) first_unexpected = what;
  }
  /// Called on handler entry and exit of every metric delivery.
  void Enter() {
    if (traced) {
      queue_wait_us.push_back(static_cast<double>(NowNs() - ingest_end_ns) /
                              1e3);
    }
  }
  void Exit() {
    ++handler_calls;
    reactions->Add(static_cast<double>(NowNs() - round_start_ns) / 1e6);
  }
};

/// Checks a delivered operator-metric event against the bench's own
/// scope model: the sample must be one the base scope of `generation`
/// selects, and that scope's key must be the only key delivered.
void CheckOperatorDelivery(RoundState& state, uint64_t generation,
                           const orca::OperatorMetricContext& context,
                           const std::vector<std::string>& scopes) {
  bool selected = context.port == -1 && IsScopedMetric(context.metric) &&
                  context.operator_kind == kScopedKind &&
                  state.scoped_operators->count(context.instance_name) > 0;
  if (!selected || scopes.size() != 1 ||
      scopes[0] != MetricScopeKey(generation, context.application)) {
    state.Unexpected("operator metric " + context.application + "." +
                     context.instance_name + "." + context.metric +
                     " with key " + (scopes.empty() ? "-" : scopes[0]));
  }
}

/// fleet_metrics logic: base scopes on start; on a Filter's queueSize
/// crossing the high watermark it tightens the pull period, and relaxes
/// it when the queue drains below the low watermark.
class FleetLogic : public orca::Orchestrator {
 public:
  explicit FleetLogic(RoundState* state) : state_(state) {}

  void HandleOrcaStart(orca::OrcaContext& orca,
                       const orca::OrcaStartContext&) override {
    RegisterBaseScopes(orca, state_->generation, *state_->apps);
    state_->started = true;
    ++state_->handler_calls;
  }

  void HandleOperatorMetricEvent(
      orca::OrcaContext& orca, const orca::OperatorMetricContext& context,
      const std::vector<std::string>& scopes) override {
    state_->Enter();
    {
      Tracer::Span span(*state_->tracer, SpanName::kHandler, state_->round);
      CheckOperatorDelivery(*state_, state_->generation, context, scopes);
      if (context.metric == orca::BuiltinMetric::kQueueSize) {
        bool& high = high_[context.pe.value()];
        if (!high && context.value >= kHighWatermark) {
          high = true;
          orca.SetMetricPullPeriod(kTightPullPeriod);
          ++state_->actuations;
        } else if (high && context.value < kLowWatermark) {
          high = false;
          orca.SetMetricPullPeriod(kNormalPullPeriod);
          ++state_->actuations;
        }
      }
      ++state_->op_deliveries;
    }
    state_->Exit();
  }

  void HandlePeMetricEvent(orca::OrcaContext&, const orca::PeMetricContext&,
                           const std::vector<std::string>& scopes) override {
    state_->Enter();
    state_->Unexpected("PE metric with key " +
                       (scopes.empty() ? std::string("-") : scopes[0]));
    ++state_->pe_deliveries;
    state_->Exit();
  }

 private:
  RoundState* state_;
  std::unordered_map<int64_t, bool> high_;
};

/// scope_churn logic, one instance per generation: base scopes on start;
/// a Filter's queueSize above the high watermark registers a per-PE
/// PeMetricScope for that PE, below the low watermark drops it.
class ChurnLogic : public orca::Orchestrator {
 public:
  ChurnLogic(RoundState* state, uint64_t generation)
      : state_(state), generation_(generation) {}

  void HandleOrcaStart(orca::OrcaContext& orca,
                       const orca::OrcaStartContext&) override {
    RegisterBaseScopes(orca, generation_, *state_->apps);
    state_->started = true;
    ++state_->handler_calls;
  }

  void HandleOperatorMetricEvent(
      orca::OrcaContext& orca, const orca::OperatorMetricContext& context,
      const std::vector<std::string>& scopes) override {
    state_->Enter();
    {
      Tracer::Span span(*state_->tracer, SpanName::kHandler, state_->round);
      CheckOperatorDelivery(*state_, generation_, context, scopes);
      if (context.metric == orca::BuiltinMetric::kQueueSize) {
        std::string key = PeScopeKey(generation_, context.pe.value());
        bool registered = state_->model.count(key) > 0;
        if (!registered && context.value >= kHighWatermark) {
          orca::PeMetricScope scope(key);
          scope.AddPeFilter(context.pe);
          scope.AddMetricNameFilter(orca::BuiltinMetric::kNumTuplesProcessed);
          scope.AddApplicationFilter(context.application);
          {
            Tracer::Span mutation(*state_->tracer, SpanName::kMutation,
                                  state_->round);
            orca.RegisterEventScope(std::move(scope));
          }
          state_->model.insert(std::move(key));
          ++state_->mutations;
        } else if (registered && context.value < kLowWatermark) {
          size_t removed;
          {
            Tracer::Span mutation(*state_->tracer, SpanName::kMutation,
                                  state_->round);
            removed = orca.UnregisterEventScope(key);
          }
          if (removed != 1) {
            state_->Unexpected("unregister " + key + " removed " +
                               std::to_string(removed));
          }
          state_->model.erase(key);
          ++state_->mutations;
        }
      }
      ++state_->op_deliveries;
    }
    state_->Exit();
  }

  void HandlePeMetricEvent(orca::OrcaContext&,
                           const orca::PeMetricContext& context,
                           const std::vector<std::string>& scopes) override {
    state_->Enter();
    {
      Tracer::Span span(*state_->tracer, SpanName::kHandler, state_->round);
      std::string prefix = GenerationPrefix(generation_);
      bool ok = context.metric == orca::BuiltinMetric::kNumTuplesProcessed &&
                !scopes.empty();
      for (const std::string& key : scopes) {
        // A key of a retired generation must never reach the live logic.
        if (key.compare(0, prefix.size(), prefix) != 0) ok = false;
      }
      if (!ok) {
        state_->Unexpected("PE metric pe" +
                           std::to_string(context.pe.value()) + " with key " +
                           (scopes.empty() ? std::string("-") : scopes[0]));
      }
      ++state_->pe_deliveries;
    }
    state_->Exit();
  }

 private:
  RoundState* state_;
  uint64_t generation_;
};

/// Which of the two metric-round workloads runs.
struct RoundsConfig {
  FleetParams fleet;
  Values values;
  bool churn;
  /// peak_rss_mb is read right after this round, so it prices a fixed
  /// amount of work (the journal keeps every record) rather than how many
  /// rounds the run got through. The untraced run goes on until it is
  /// reached; on this workload's sizing that is well inside --seconds.
  uint64_t rss_round;
};

/// Registry size and keys against the bench's model (scope_churn).
void CheckRegistry(Fleet& fleet, const RoundState& state, Report* report) {
  const orca::ShardedScopeRegistry& scopes = fleet.service().scopes();
  if (scopes.size() != state.model.size()) {
    report->Mismatch("registry holds " + std::to_string(scopes.size()) +
                     " subscopes, model " +
                     std::to_string(state.model.size()));
    return;
  }
  for (const std::string& key : state.model) {
    if (!scopes.HasKey(key)) {
      report->Mismatch("registry lacks " + key);
      return;
    }
  }
}

std::set<std::string> BaseKeys(uint64_t generation,
                               const std::vector<std::string>& apps) {
  std::set<std::string> keys;
  for (const std::string& app : apps) {
    keys.insert(MetricScopeKey(generation, app));
    keys.insert(FailureScopeKey(generation, app));
  }
  return keys;
}

/// Replays one snapshot's context build (GraphView::FindJob /
/// OperatorKind, as the bus does) and its batch match, outside any
/// timed window. Returns {lookup ns/sample, match ns/sample}, medians
/// of `repeats` passes.
std::pair<double, double> ReplayLookupAndMatch(
    Fleet& fleet, const runtime::MetricsSnapshot& snapshot, int repeats) {
  const orca::GraphView& graph = fleet.service().graph();
  const orca::ShardedScopeRegistry& scopes = fleet.service().scopes();
  double samples = static_cast<double>(snapshot.operator_metrics.size() +
                                       snapshot.pe_metrics.size());
  std::vector<double> lookup_ns, match_ns;
  for (int r = 0; r < repeats; ++r) {
    std::vector<orca::OperatorMetricContext> op_contexts;
    std::vector<orca::PeMetricContext> pe_contexts;
    op_contexts.reserve(snapshot.operator_metrics.size());
    pe_contexts.reserve(snapshot.pe_metrics.size());
    int64_t t0 = NowNs();
    for (const runtime::OperatorMetricRecord& rec : snapshot.operator_metrics) {
      const orca::GraphView::JobRecord* job = graph.FindJob(rec.job);
      if (job == nullptr) continue;
      orca::OperatorMetricContext context;
      context.job = rec.job;
      context.application = job->app_name;
      context.pe = rec.pe;
      context.instance_name = rec.operator_name;
      auto kind = graph.OperatorKind(rec.job, rec.operator_name);
      context.operator_kind = kind.ok() ? kind.value() : "";
      context.metric = rec.metric_name;
      context.metric_kind = rec.kind;
      context.value = rec.value;
      context.port = rec.port;
      context.output_port = rec.output_port;
      op_contexts.push_back(std::move(context));
    }
    for (const runtime::PeMetricRecord& rec : snapshot.pe_metrics) {
      const orca::GraphView::JobRecord* job = graph.FindJob(rec.job);
      if (job == nullptr) continue;
      orca::PeMetricContext context;
      context.job = rec.job;
      context.application = job->app_name;
      context.pe = rec.pe;
      context.metric = rec.metric_name;
      context.metric_kind = rec.kind;
      context.value = rec.value;
      pe_contexts.push_back(std::move(context));
    }
    int64_t t1 = NowNs();
    auto op_matched = scopes.MatchOperatorMetricBatch(op_contexts, graph);
    auto pe_matched = scopes.MatchPeMetricBatch(pe_contexts);
    int64_t t2 = NowNs();
    if (op_matched.size() != op_contexts.size() ||
        pe_matched.size() != pe_contexts.size()) {
      return {0, 0};
    }
    lookup_ns.push_back(static_cast<double>(t1 - t0) / samples);
    match_ns.push_back(static_cast<double>(t2 - t1) / samples);
  }
  return {Median(lookup_ns), Median(match_ns)};
}

/// Window counters read from the service before and after a window.
struct ServiceCounters {
  orcastream::plan::PlanStats plan;
  uint64_t compactions = 0;
  uint64_t reshards = 0;
  uint64_t sim_events = 0;

  static ServiceCounters Read(Fleet& fleet) {
    ServiceCounters c;
    c.plan = fleet.service().plan_stats();
    c.compactions = fleet.service().scopes().compaction_count();
    c.reshards = fleet.service().reshard_count();
    c.sim_events = fleet.sim().executed_events();
    return c;
  }
};

Report RunMetricRounds(const Options& options, Tracer* tracer,
                       const RoundsConfig& config) {
  Report report;
  AddLayerDefaults(&report);
  RoundState state;
  state.tracer = tracer;
  const std::vector<std::string> apps = AppNames(config.fleet.apps);
  state.apps = &apps;

  std::unique_ptr<Fleet> fleet = SetUpFleet(
      config.fleet, tracer, SetupRepetitions(options),
      [&]() -> std::unique_ptr<orca::Orchestrator> {
        state.started = false;
        state.handler_calls = 0;
        state.generation = 1;
        if (config.churn) return std::make_unique<ChurnLogic>(&state, 1);
        return std::make_unique<FleetLogic>(&state);
      },
      [&] { return state.started; }, &report);
  if (fleet == nullptr) return report;
  state.scoped_operators = &fleet->scoped_operators();
  state.model = BaseKeys(state.generation, fleet->apps());
  if (config.churn) CheckRegistry(*fleet, state, &report);

  // Inputs: the runtime's own record shape, values from the seed.
  Inputs inputs = GenerateInputs(fleet->CollectTemplate(),
                                 fleet->scoped_operators(),
                                 kSnapshotCycle,
                                 options.seed, config.values);
  report.Param("snapshots", static_cast<double>(inputs.snapshots.size()));
  report.Param("samples_per_round",
               static_cast<double>(inputs.samples_per_round));
  report.Param("high_watermark", static_cast<double>(kHighWatermark));
  report.Param("low_watermark", static_cast<double>(kLowWatermark));
  report.Param("values", config.values == Values::kWalk ? "walk" : "uniform");
  report.Param("rss_round", static_cast<double>(config.rss_round));
  if (config.churn) {
    report.Param("rounds_per_replace", kRoundsPerReplace);
  }

  orca::OrcaService& service = fleet->service();
  orcastream::sim::Simulation& sim = fleet->sim();
  tracer->set_driver_thread(std::this_thread::get_id());

  uint64_t predicted = 0;
  uint64_t replacements = 0;
  size_t queue_depth_max = 0;
  // Untraced windows feed the end-to-end metrics, traced ones the layers.
  double wall_s[2] = {0, 0};
  uint64_t samples[2] = {0, 0};
  uint64_t deliveries[2] = {0, 0};
  GroupedSamples reactions[2];
  RateBins rates[2];
  ServiceCounters traced_delta;
  double rss_mb = 0;

  const std::vector<Window> plan = WindowPlan(options);
  for (const Window& window : plan) {
    // Only the untraced run reports peak_rss_mb; it has one window.
    const bool to_rss_round = !window.traced && &window == &plan.back();
    const int side = window.traced ? 1 : 0;
    state.traced = window.traced;
    state.reactions = &reactions[side];
    const size_t first_bin = rates[side].bins();
    int64_t previous_start = 0;
    size_t previous_bin = first_bin;
    size_t previous_samples = 0;
    tracer->set_enabled(window.traced);
    ServiceCounters before = ServiceCounters::Read(*fleet);
    uint64_t deliveries_before = state.op_deliveries + state.pe_deliveries;

    int64_t begin = NowNs();
    int64_t deadline = begin + static_cast<int64_t>(window.seconds * 1e9);
    while (NowNs() < deadline ||
           (to_rss_round && state.round < config.rss_round)) {
      const size_t index = state.round % inputs.snapshots.size();
      ++state.round;
      state.round_start_ns = NowNs();
      const size_t bin = SubWindowOf(state.round_start_ns, begin, first_bin);
      if (previous_start > 0) {
        rates[side].Add(previous_bin, static_cast<double>(previous_samples),
                        state.round_start_ns - previous_start);
      }
      previous_start = state.round_start_ns;
      previous_bin = bin;
      previous_samples = inputs.samples_per_round;
      {
        Tracer::Span span(*tracer, SpanName::kIngest, state.round);
        service.IngestMetricsSnapshot(inputs.snapshots[index]);
      }
      state.ingest_end_ns = NowNs();
      queue_depth_max = std::max(queue_depth_max, service.queue_depth());
      {
        Tracer::Span span(*tracer, SpanName::kDrive, state.round);
        sim.RunUntil(sim.Now());
      }
      {
        Tracer::Span span(*tracer, SpanName::kCheck, state.round);
        predicted += inputs.predicted[index];
        samples[side] += inputs.samples_per_round;
        if (service.queue_depth() != 0) {
          report.Mismatch("round " + std::to_string(state.round) +
                          " left events queued");
        }
      }
      if (config.churn && state.round % kRoundsPerReplace == 0) {
        {
          Tracer::Span check(*tracer, SpanName::kCheck, state.round);
          CheckRegistry(*fleet, state, &report);
        }
        uint64_t next = state.generation + 1;
        {
          Tracer::Span span(*tracer, SpanName::kReplace, state.round);
          auto status =
              service.ReplaceLogic(std::make_unique<ChurnLogic>(&state, next));
          if (!status.ok()) report.Mismatch("ReplaceLogic: " + status.ToString());
          sim.RunUntil(sim.Now());
        }
        Tracer::Span check(*tracer, SpanName::kCheck, state.round);
        state.generation = next;
        state.model = BaseKeys(next, fleet->apps());
        CheckRegistry(*fleet, state, &report);
        ++replacements;
      }
      if (state.round == config.rss_round) rss_mb = PeakRssMb();
    }
    int64_t end = NowNs();
    rates[side].Add(previous_bin, static_cast<double>(previous_samples),
                    end - previous_start);

    wall_s[side] += static_cast<double>(end - begin) / 1e9;
    deliveries[side] +=
        state.op_deliveries + state.pe_deliveries - deliveries_before;
    if (window.traced) {
      ServiceCounters after = ServiceCounters::Read(*fleet);
      traced_delta.plan.planned_lookups +=
          after.plan.planned_lookups - before.plan.planned_lookups;
      traced_delta.plan.fallback_lookups +=
          after.plan.fallback_lookups - before.plan.fallback_lookups;
      traced_delta.plan.replans += after.plan.replans - before.plan.replans;
      traced_delta.compactions += after.compactions - before.compactions;
      traced_delta.reshards += after.reshards - before.reshards;
      traced_delta.sim_events += after.sim_events - before.sim_events;
    }
  }
  tracer->set_enabled(false);

  // --- Correctness ---------------------------------------------------------
  const orca::TransactionLog& journal = service.transactions();
  uint64_t failed_entries = 0;
  for (const orca::TransactionLog::Record* record : journal.records()) {
    for (const std::string& actuation : record->actuations) {
      if (actuation.compare(0, 7, "failed:") == 0) ++failed_entries;
    }
  }
  uint64_t delivered = state.op_deliveries + state.pe_deliveries;
  uint64_t missing = 0;
  if (!config.churn) {
    // Every selected sample is one delivery; nothing else is delivered.
    if (state.op_deliveries != predicted) {
      report.Mismatch("delivered " + std::to_string(state.op_deliveries) +
                      " operator metrics, predicted " +
                      std::to_string(predicted));
      if (predicted > state.op_deliveries) {
        missing = predicted - state.op_deliveries;
      }
    }
  } else {
    CheckRegistry(*fleet, state, &report);
  }
  if (state.unexpected > 0) {
    report.Mismatch(std::to_string(state.unexpected) +
                    " unexpected deliveries, first: " +
                    state.first_unexpected);
  }
  uint64_t start_deliveries = 1 + replacements;
  if (static_cast<uint64_t>(journal.committed_count()) !=
          state.handler_calls ||
      journal.size() != state.handler_calls ||
      state.handler_calls != delivered + start_deliveries) {
    report.Mismatch("journal committed " +
                    std::to_string(journal.committed_count()) + " of " +
                    std::to_string(journal.size()) + " records, handlers ran " +
                    std::to_string(state.handler_calls));
  }
  if (failed_entries > 0) {
    report.Mismatch(std::to_string(failed_entries) + " failed: journal entries");
  }
  report.attempted = (config.churn ? delivered : predicted) + state.mutations +
                     replacements;
  report.failed = missing + failed_entries + state.unexpected;

  // --- End-to-end metrics (untraced windows) -------------------------------
  report.E2e("throughput_eps", rates[0].MedianRate(), "1/s");
  report.Detail("throughput_eps.whole_run",
                wall_s[0] > 0 ? static_cast<double>(samples[0]) / wall_s[0]
                              : 0,
                "1/s");
  report.Detail("throughput_eps.sub_windows",
                static_cast<double>(rates[0].bins()), "count");
  report.E2eLatency("reaction_p50_ms", reactions[0], 50, "ms");
  report.E2eLatency("reaction_p90_ms", reactions[0], 90, "ms");
  report.Layer("reaction_p99_ms", reactions[0].MedianOfGroups(99).value, "ms");
  report.E2e("peak_rss_mb", rss_mb, "MB");
  report.Detail("peak_rss_mb.end_of_run", PeakRssMb(), "MB");
  report.Detail("rounds", static_cast<double>(state.round), "count");
  report.Detail("deliveries", static_cast<double>(delivered), "count");
  report.Detail("actuations", static_cast<double>(state.actuations), "count");
  report.Detail("replacements", static_cast<double>(replacements), "count");
  report.Detail("mutations", static_cast<double>(state.mutations), "count");

  // --- Per-layer metrics (traced windows + off-timer replays) -------------
  if (options.trace) {
    auto per = [](double total, double count) {
      return count > 0 ? total / count : 0;
    };
    double traced_samples = static_cast<double>(samples[1]);
    double traced_deliveries = static_cast<double>(deliveries[1]);
    SpanTotals ingest = tracer->totals(SpanName::kIngest);
    SpanTotals drive = tracer->totals(SpanName::kDrive);
    SpanTotals handler = tracer->totals(SpanName::kHandler);
    report.Layer("orca.ingest.ns_per_sample",
                 per(static_cast<double>(ingest.total_ns), traced_samples),
                 "ns");
    auto replay = ReplayLookupAndMatch(*fleet, inputs.snapshots[0], 5);
    report.Layer("orca.graph.lookup_ns_per_sample", replay.first, "ns");
    report.Layer("orca.registry.match_ns_per_sample", replay.second, "ns");
    report.Layer("orca.registry.hit_ratio",
                 per(traced_deliveries, traced_samples), "ratio");
    const auto& plan = traced_delta.plan;
    report.Layer("plan.fallback_ratio",
                 per(static_cast<double>(plan.fallback_lookups),
                     static_cast<double>(plan.planned_lookups +
                                         plan.fallback_lookups)),
                 "ratio");
    report.Layer("orca.bus.dispatch_ns_per_delivery",
                 per(static_cast<double>(drive.self_ns), traced_deliveries),
                 "ns");
    report.Layer("orca.handler.ns_per_delivery",
                 per(static_cast<double>(handler.total_ns),
                     static_cast<double>(handler.count)),
                 "ns");
    report.Layer("orca.bus.queue_depth_max",
                 static_cast<double>(queue_depth_max), "count");
    Percentile wait50 = PercentileOfUnsorted(state.queue_wait_us, 50);
    Percentile wait99 = PercentileOfUnsorted(state.queue_wait_us, 99);
    report.Layer("orca.bus.queue_wait_us_p50", wait50.value, "us");
    report.Layer("orca.bus.queue_wait_us_p99", wait99.value, "us");
    Percentile mutation50 =
        PercentileOfUnsorted(tracer->durations_us(SpanName::kMutation), 50);
    report.Layer("orca.registry.mutation_us_p50", mutation50.value, "us");
    report.Layer("orca.registry.mutations",
                 static_cast<double>(tracer->totals(SpanName::kMutation).count),
                 "count");
    SpanTotals replace = tracer->totals(SpanName::kReplace);
    report.Layer("orca.service.replace_ms",
                 per(static_cast<double>(replace.total_ns) / 1e6,
                     static_cast<double>(replace.count)),
                 "ms");
    report.Layer("plan.replans", static_cast<double>(plan.replans), "count");
    report.Layer("orca.registry.compactions",
                 static_cast<double>(traced_delta.compactions), "count");
    report.Layer("orca.registry.reshards",
                 static_cast<double>(traced_delta.reshards), "count");
    report.Layer("sim.executed_events",
                 static_cast<double>(traced_delta.sim_events), "count");
    AddTraceAccounting(*tracer, wall_s[1], &report);

    // Tracing overhead: traced halves against untraced halves.
    double untraced_tput = rates[0].MedianRate();
    double traced_tput = rates[1].MedianRate();
    report.Layer("trace.overhead_throughput_frac",
                 untraced_tput > 0 ? 1 - traced_tput / untraced_tput : 0,
                 "ratio");
    double p50 = reactions[0].MedianOfGroups(50).value;
    double traced_p50 = reactions[1].MedianOfGroups(50).value;
    report.Layer("trace.overhead_reaction_p50_frac",
                 p50 > 0 ? traced_p50 / p50 - 1 : 0, "ratio");
  }
  report.Layer("orca.journal.records", static_cast<double>(journal.size()),
               "count");
  report.Layer("orca.journal.failed_entries",
               static_cast<double>(failed_entries), "count");
  report.Layer("failed_frac",
               report.attempted > 0 ? static_cast<double>(report.failed) /
                                          static_cast<double>(report.attempted)
                                    : 0,
               "ratio");
  return report;
}

}  // namespace

Report RunFleetMetrics(const Options& options, Tracer* tracer) {
  RoundsConfig config{FleetParams{}, Values::kWalk, false,
                      options.smoke ? 100u : 1500u};
  config.fleet.apps = options.smoke ? 24 : 128;
  return RunMetricRounds(options, tracer, config);
}

Report RunScopeChurn(const Options& options, Tracer* tracer) {
  RoundsConfig config{FleetParams{}, Values::kUniform, true,
                      options.smoke ? 100u : 2400u};
  config.fleet.apps = options.smoke ? 16 : 64;
  return RunMetricRounds(options, tracer, config);
}

}  // namespace perfbench
