#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <functional>
#include <memory>
#include <vector>

#include "fleet.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

/// Match-bound closed loop: serial dispatch, metric rounds over an idle
/// fleet with compound per-application scopes.
Report RunFleetMetrics(const Options& options, Tracer* tracer);
/// Registry writes beside reads: metric rounds whose handlers register
/// and drop per-PE scopes, with periodic ReplaceLogic.
Report RunScopeChurn(const Options& options, Tracer* tracer);
/// Actuation-bound open loop: PE kills at a fixed rate over the remote
/// event plane, async dispatch, staged RestartPe applied by the driver.
Report RunFailureStorm(const Options& options, Tracer* tracer);

/// One measurement window: how long, and whether tracing is on.
struct Window {
  double seconds = 0;
  bool traced = false;
};

/// The untraced run measures one window; the traced run alternates
/// untraced and traced quarter windows, so the tracing overhead is the
/// difference between the two halves measured on the same fleet.
std::vector<Window> WindowPlan(const Options& options);

/// Set-up repetitions per run (the median is reported).
int SetupRepetitions(const Options& options);

/// Builds `repetitions` fleets, each loading a fresh `make_logic()`, keeps
/// the last and reports the median set-up time and phases. `start_done`
/// tells whether the newest logic has handled its start event. Returns
/// nullptr (with a mismatch recorded) when a set-up fails.
std::unique_ptr<Fleet> SetUpFleet(
    const FleetParams& params, Tracer* tracer, int repetitions,
    const std::function<std::unique_ptr<orca::Orchestrator>()>& make_logic,
    const std::function<bool()>& start_done, Report* report);

/// Sets every per-layer metric to 0 with its unit, so each workload's
/// traced run reports the full set; a layer a workload bypasses stays 0.
void AddLayerDefaults(Report* report);

/// Adds the trace-accounting metrics of the traced windows: coverage of
/// the driver's wall time by top-level spans (a mismatch below 90%), the
/// unaccounted remainder, and the spans recorded/kept.
void AddTraceAccounting(const Tracer& tracer, double traced_wall_s,
                        Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
