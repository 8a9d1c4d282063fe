#ifndef ORCASTREAM_HARNESS_SCENARIO_H_
#define ORCASTREAM_HARNESS_SCENARIO_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "net/remote_bridge.h"
#include "orca/latency_tracker.h"
#include "orca/orchestrator.h"

namespace orcastream::harness {

class ScenarioEnv;

/// How a soak scenario's event dispatch is driven.
///
///   - kSerial: the serial FIFO bus — the oracle every other mode is
///     compared against.
///   - kDeterministic: seeded DeterministicExecutor; async scheduling
///     semantics, fully reproducible, handlers on the simulation thread.
///   - kThreadPool: wall-clock ThreadPoolExecutor workers with staged
///     actuation — the mode the sanitizer soak jobs exercise.
enum class DispatchMode { kSerial, kDeterministic, kThreadPool };

struct ScenarioOptions {
  DispatchMode mode = DispatchMode::kSerial;
  /// DeterministicExecutor schedule seed (kDeterministic only).
  uint64_t seed = 1;
  /// Weighted / batched dispatch knobs (async modes).
  bool weighted_dispatch = false;
  size_t max_batch_per_step = 1;
  /// Worker count (kThreadPool only).
  size_t dispatch_threads = 2;
  /// Virtual seconds to run the scenario for.
  double duration = 180.0;
  int hosts = 8;
  /// Whether the scenario schedules its fault script (fault times are
  /// scenario-defined and deterministic; the seed picks among targets).
  bool inject_failures = true;
  uint64_t fault_seed = 7;
  double metric_pull_period = 5.0;
  double dispatch_interval = 0.0;
  size_t scope_shards = 4;
  /// Remote event plane: detection events (PE failures, metric
  /// snapshots, user injections) reach the control plane through the
  /// src/net framed transport instead of direct calls. The transport
  /// defaults to the inline loopback pair, whose journals are
  /// byte-identical to the in-process path; `remote_make_pair` swaps in
  /// a fault-injecting or real-socket channel pair per (re)connection.
  bool remote_event_plane = false;
  double remote_pump_interval = 0.05;
  net::RemoteBridge::PairFactory remote_make_pair;
};

/// What one scenario run produced, for equivalence checks and SLO
/// accounting.
struct RunResult {
  /// Per-application §7 journal: `summary|actuation...|committed` per
  /// transaction, in delivery order — the byte-equivalence currency of
  /// the soak suite (async journals must equal the serial oracle's).
  std::map<std::string, std::vector<std::string>> journal;
  /// Detection→actuation reaction stats per event category.
  std::vector<orca::LatencyTracker::Stats> latency;
  uint64_t events_delivered = 0;
  /// Scenario invariant check (OK when the run behaved).
  common::Status verify;
};

/// One soak scenario: an application mix, the ORCA logic adapting it, a
/// deterministic mid-run event script (faults, logic replacement), and
/// the invariants a healthy run must satisfy. Scenarios are single-shot:
/// construct one per run.
class Scenario {
 public:
  virtual ~Scenario() = default;

  virtual std::string name() const = 0;

  /// Registers operator kinds and applications with the environment and
  /// returns the ORCA logic the driver loads.
  virtual std::unique_ptr<orca::Orchestrator> Setup(ScenarioEnv& env) = 0;

  /// Schedules the scenario's mid-run script (fault injections, logic
  /// replacement, workload phase changes) on the environment's
  /// simulation. `rng` is seeded from ScenarioOptions::fault_seed; all
  /// times must be virtual.
  virtual void ScheduleEvents(ScenarioEnv& env, common::Rng* rng) {
    (void)env;
    (void)rng;
  }

  /// Post-run invariant check (runs on the simulation thread after the
  /// drive loop has quiesced, before the environment is torn down).
  virtual common::Status Verify(const ScenarioEnv& env) const = 0;
};

}  // namespace orcastream::harness

#endif  // ORCASTREAM_HARNESS_SCENARIO_H_
