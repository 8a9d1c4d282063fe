#include "workloads.h"

#include <string>
#include <utility>

namespace perfbench {

namespace {

/// Set-up repetitions of a full run; the median is reported.
constexpr int kSetupRepetitions = 21;
/// Minimum share of the driver's traced wall time the top-level spans
/// must cover; the rest is reported as unaccounted.
constexpr double kMinCoverage = 0.90;

struct LayerName {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in report order (BENCHMARK.json lists these).
constexpr LayerName kLayerMetrics[] = {
    {"reaction_p99_ms", "ms"},
    {"orca.ingest.ns_per_sample", "ns"},
    {"orca.graph.lookup_ns_per_sample", "ns"},
    {"orca.registry.match_ns_per_sample", "ns"},
    {"orca.registry.hit_ratio", "ratio"},
    {"plan.fallback_ratio", "ratio"},
    {"orca.bus.dispatch_ns_per_delivery", "ns"},
    {"orca.handler.ns_per_delivery", "ns"},
    {"orca.bus.queue_depth_max", "count"},
    {"orca.bus.queue_wait_us_p50", "us"},
    {"orca.bus.queue_wait_us_p99", "us"},
    {"orca.registry.mutation_us_p50", "us"},
    {"orca.registry.mutations", "count"},
    {"orca.service.replace_ms", "ms"},
    {"plan.replans", "count"},
    {"orca.registry.compactions", "count"},
    {"orca.registry.reshards", "count"},
    {"orca.apply.us_per_call_p50", "us"},
    {"orca.apply.calls", "count"},
    {"orca.apply.actuations_per_call", "count"},
    {"orca.apply.busy_frac", "ratio"},
    {"net.encode_ns_per_event", "ns"},
    {"net.decode_ns_per_event", "ns"},
    {"net.bytes_per_event", "bytes"},
    {"net.sessions", "count"},
    {"net.unacked_max", "count"},
    {"runtime.kill_us", "us"},
    {"runtime.detect_drive_us", "us"},
    {"orca.journal.records", "count"},
    {"orca.journal.failed_entries", "count"},
    {"setup.apps_s", "s"},
    {"setup.start_s", "s"},
    {"setup.submit_s", "s"},
    {"gen.late_p99_ms", "ms"},
    {"sim.executed_events", "count"},
    {"failed_frac", "ratio"},
    {"trace.coverage_frac", "ratio"},
    {"trace.unaccounted_ms", "ms"},
    {"trace.spans", "count"},
    {"trace.overhead_throughput_frac", "ratio"},
    {"trace.overhead_reaction_p50_frac", "ratio"},
};

}  // namespace

std::vector<Window> WindowPlan(const Options& options) {
  if (!options.trace) return {Window{options.seconds, false}};
  double quarter = options.seconds / 4;
  return {Window{quarter, false}, Window{quarter, true},
          Window{quarter, false}, Window{quarter, true}};
}

int SetupRepetitions(const Options& options) {
  return options.smoke ? 1 : kSetupRepetitions;
}

std::unique_ptr<Fleet> SetUpFleet(
    const FleetParams& params, Tracer* tracer, int repetitions,
    const std::function<std::unique_ptr<orca::Orchestrator>()>& make_logic,
    const std::function<bool()>& start_done, Report* report) {
  std::vector<double> total, apps, start, submit;
  std::unique_ptr<Fleet> fleet;
  for (int rep = 0; rep < repetitions; ++rep) {
    fleet.reset();  // tear the previous fleet down outside the timer
    fleet = std::make_unique<Fleet>(params, tracer);
    SetupTimes times;
    std::string error;
    if (!fleet->Setup(make_logic(), start_done, &times, &error)) {
      report->Mismatch("setup: " + error);
      return nullptr;
    }
    total.push_back(times.total());
    apps.push_back(times.apps_s);
    start.push_back(times.start_s);
    submit.push_back(times.submit_s);
  }
  report->E2e("setup_s", Median(total), "s");
  report->Layer("setup.apps_s", Median(apps), "s");
  report->Layer("setup.start_s", Median(start), "s");
  report->Layer("setup.submit_s", Median(submit), "s");
  report->Detail("setup.repetitions", repetitions, "count");
  report->Param("apps", params.apps);
  report->Param("hosts", params.hosts);
  report->Param("ops_per_app", kOpsPerApp);
  report->Param("pes", static_cast<double>(fleet->app_of_pe().size()));
  report->Param("dispatch_threads", static_cast<double>(params.dispatch_threads));
  report->Param("remote_event_plane", params.remote ? "loopback" : "off");
  return fleet;
}

void AddLayerDefaults(Report* report) {
  for (const LayerName& metric : kLayerMetrics) {
    report->Layer(metric.name, 0, metric.unit);
  }
}

void AddTraceAccounting(const Tracer& tracer, double traced_wall_s,
                        Report* report) {
  double covered_s = static_cast<double>(tracer.driver_top_level_ns()) / 1e9;
  double coverage = traced_wall_s > 0 ? covered_s / traced_wall_s : 0;
  report->Layer("trace.coverage_frac", coverage, "ratio");
  report->Layer("trace.unaccounted_ms", (traced_wall_s - covered_s) * 1e3,
                "ms");
  report->Layer("trace.spans", static_cast<double>(tracer.spans_recorded()),
                "count");
  report->Detail("trace.spans_kept", static_cast<double>(tracer.spans_kept()),
                 "count");
  if (coverage < kMinCoverage) {
    report->Mismatch("trace: top-level spans cover " +
                     std::to_string(coverage) + " of the traced wall time");
  }
}

}  // namespace perfbench
