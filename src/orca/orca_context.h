#ifndef ORCASTREAM_ORCA_ORCA_CONTEXT_H_
#define ORCASTREAM_ORCA_ORCA_CONTEXT_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "orca/event_scope.h"
#include "orca/graph_view.h"
#include "orca/transaction_log.h"
#include "sim/simulation.h"

namespace orcastream::orca {

class EventBus;
class OrcaService;

/// Read-only view of the ORCA service state backing OrcaContext queries on
/// worker-thread deliveries. Republished on the simulation thread by every
/// mutation of state it exposes (job added or removed, an app's job or GC
/// state, the pull period), and pinned by each delivery at dispatch —
/// every read a handler performs during one delivery observes the same
/// consistent state, even while the simulation thread keeps mutating the
/// live structures.
struct OrcaSnapshot {
  // (The delivery's clock is pinned separately, from the service's
  // atomic publication clock: publishing an event or applying staged
  // actuations advances that clock without republishing the snapshot.)
  double metric_pull_period = 15.0;
  /// Shares the live graph's immutable job records (one pointer per job).
  GraphView graph;
  struct AppInfo {
    std::optional<common::JobId> job;
    bool gc_pending = false;
  };
  /// AppConfig id → running state of every registered application.
  std::map<std::string, AppInfo> apps;
};

/// Per-delivery capability object (§3/§4): the handle through which ORCA
/// logic invokes ORCA service routines. The EventBus constructs one for
/// every event delivery and passes it to the handler alongside the event
/// context; it is valid only for the duration of that handler call and
/// must not be stored.
///
/// The context exposes one API with two execution modes, chosen by where
/// the delivery runs:
///
///   - **Immediate** (serial dispatch and the sim-driven
///     DeterministicExecutor — handlers run on the simulation thread).
///     Every call applies to the service right away; semantics are
///     identical to calling the service directly, so the serial oracle
///     and the async-vs-serial equivalence suite are preserved.
///
///   - **Staged** (ThreadPoolExecutor — handlers run on worker threads,
///     concurrently with the simulation thread). Actuations are appended
///     to an ordered per-delivery batch, journaled into the delivery
///     transaction as they are staged, marshalled to the simulation
///     thread when the handler returns, and applied in call order by
///     `OrcaService::ApplyStagedActuations()`. Status-returning actuations
///     return OK to mean *staged*. Staged journal entries record
///     *intent* (every context call, at staging time — unlike immediate
///     mode, which journals exactly what the service itself journals);
///     a call that fails at apply time gets a `failed:<call>: <status>`
///     entry appended to the same transaction, so §7 replay logic can
///     tell intent from effect. Reads are served from the consistent
///     OrcaSnapshot pinned at dispatch.
///
/// This replaces the old protected `Orchestrator::orca()` raw service
/// pointer, which was unusable from worker-thread handlers (calling back
/// into the simulated service raced the simulation thread).
class OrcaContext {
 public:
  enum class Mode {
    kImmediate,
    kStaged,
  };

  OrcaContext(const OrcaContext&) = delete;
  OrcaContext& operator=(const OrcaContext&) = delete;

  Mode mode() const { return mode_; }
  /// True when actuations are batched for commit-time application on the
  /// simulation thread (worker-thread delivery) instead of applied inline.
  bool staged() const { return mode_ == Mode::kStaged; }

  // --- Event scope registration (§4.1) -----------------------------------

  void RegisterEventScope(OperatorMetricScope scope);
  void RegisterEventScope(PeMetricScope scope);
  void RegisterEventScope(PeFailureScope scope);
  void RegisterEventScope(JobEventScope scope);
  void RegisterEventScope(UserEventScope scope);

  /// Removes every subscope registered under `key`. Immediate mode
  /// returns the number of subscopes removed; staged mode stages the
  /// removal and returns 0 (the count is not known until commit).
  size_t UnregisterEventScope(const std::string& key);

  // --- Applications and dependencies (§4.4) ------------------------------

  common::Status SubmitApplication(const std::string& config_id);
  common::Status CancelApplication(const std::string& config_id);
  common::Status RegisterDependency(const std::string& app,
                                    const std::string& depends_on,
                                    double uptime_seconds = 0);
  /// Must run before the application is submitted (§4.3).
  common::Status SetExclusiveHostPools(const std::string& config_id);

  // --- Direct actuations --------------------------------------------------

  common::Status CancelJob(common::JobId job);
  common::Status RestartPe(common::PeId pe);
  common::Status StopPe(common::PeId pe);

  // --- Timers, user events, metric pull -----------------------------------

  /// The returned id is valid in both modes (ids are allocated eagerly;
  /// staged mode schedules the timer at commit).
  common::TimerId CreateTimer(double delay_seconds, const std::string& name,
                              bool recurring = false,
                              double period_seconds = 0);
  void CancelTimer(common::TimerId timer);

  void InjectUserEvent(const std::string& name,
                       std::map<std::string, std::string> attributes = {});

  /// §4.2: "developers can change it at any point of the execution".
  void SetMetricPullPeriod(double seconds);

  // --- Read-only queries ---------------------------------------------------

  /// Immediate mode: the live simulation clock. Staged mode: the clock as
  /// of the delivery's snapshot.
  sim::SimTime Now() const;
  /// Transaction of the event this context was created for.
  TransactionId current_transaction() const;
  /// The delivery-transaction journal (§7) — thread-safe, so replacement
  /// logic can inspect its predecessor's committed actuations from any
  /// dispatch mode.
  const TransactionLog& transactions() const;
  /// The stream-graph view (§4.2). Staged mode: the snapshot's copy.
  const GraphView& graph() const;
  bool IsRunning(const std::string& config_id) const;
  common::Result<common::JobId> RunningJob(const std::string& config_id) const;
  bool IsGcPending(const std::string& config_id) const;
  double metric_pull_period() const;

  /// Actuations staged so far in this delivery (0 in immediate mode).
  size_t staged_count() const { return staged_.size(); }

  /// Actuations applied inline so far (0 in staged mode). Together with
  /// staged_count this is what decides whether the delivery records a
  /// detection→actuation reaction sample.
  size_t immediate_actuation_count() const { return actuated_; }

  /// Latency-bucket category of the event this delivery is handling
  /// (see CategoryOf) and its detection timestamp, in sim time.
  const std::string& event_category() const { return category_; }
  sim::SimTime detected_at() const { return detected_at_; }

 private:
  friend class EventBus;
  friend class OrcaService;  // consumes StagedCall batches in its mailbox

  /// One staged actuation: the journal description and the closure that
  /// applies it against the service on the simulation thread.
  struct StagedCall {
    std::string description;
    std::function<common::Status(OrcaService&)> apply;
  };

  /// Only the EventBus creates contexts — one per delivery. `service` may
  /// be null (bare-bus unit tests); every actuation then reports
  /// FailedPrecondition and reads return empty defaults. `category` and
  /// `detected_at` describe the event being delivered, for the
  /// detection→actuation latency samples actuating deliveries record.
  OrcaContext(OrcaService* service, EventBus* bus, Mode mode,
              std::string category = {}, sim::SimTime detected_at = 0);

  /// Staged-mode plumbing: journal the call against the delivery
  /// transaction and append it to the batch.
  void Stage(std::string description,
             std::function<common::Status(OrcaService&)> apply);
  /// Hands the ordered batch to the service's commit mailbox (no-op when
  /// nothing was staged). Called by the bus after the handler returns,
  /// while the delivery transaction is still current.
  void CommitStaged();

  /// Shared immediate/staged routing for Status-returning actuations.
  common::Status Route(std::string description,
                       std::function<common::Status(OrcaService&)> apply);

  OrcaService* service_;
  EventBus* bus_;
  Mode mode_;
  /// Latency-bucket category + detection stamp of the delivered event.
  std::string category_;
  sim::SimTime detected_at_ = 0;
  /// Immediate mode: actuations applied inline by this delivery.
  size_t actuated_ = 0;
  /// Staged mode only: consistent read view pinned at dispatch.
  std::shared_ptr<const OrcaSnapshot> snapshot_;
  /// Staged mode only: the simulation clock pinned at dispatch (the most
  /// recent sim-thread publication/state change before this delivery).
  sim::SimTime staged_now_ = 0;
  std::vector<StagedCall> staged_;
};

}  // namespace orcastream::orca

#endif  // ORCASTREAM_ORCA_ORCA_CONTEXT_H_
