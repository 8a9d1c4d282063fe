#ifndef ORCASTREAM_ORCA_ORCA_SERVICE_H_
#define ORCASTREAM_ORCA_ORCA_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "orca/app_config.h"
#include "orca/dependency_graph.h"
#include "orca/event_bus.h"
#include "orca/event_scope.h"
#include "orca/events.h"
#include "orca/graph_view.h"
#include "orca/latency_tracker.h"
#include "orca/orca_context.h"
#include "orca/orchestrator.h"
#include "orca/scope_registry.h"
#include "orca/sharded_scope_registry.h"
#include "orca/transaction_log.h"
#include "runtime/event_sink.h"
#include "runtime/sam.h"
#include "runtime/srm.h"
#include "sim/simulation.h"
#include "topology/app_model.h"

namespace orcastream::orca {

/// The ORCA service (§3): the runtime daemon that hosts user-written ORCA
/// logic. It maintains the in-memory stream-graph representation of all
/// managed applications and provides the actuation APIs the logic uses to
/// adapt the application: job submission/cancellation with dependency
/// management and garbage collection (§4.4), PE restart, exclusive host
/// pools (§4.3), timers, and user events.
///
/// Change detection and delivery are layered (see ARCHITECTURE.md): the
/// service feeds detected changes through a ScopeRegistry (which subscope
/// keys does this event match? §4.1) into an EventBus (one-at-a-time
/// delivery with transaction journaling, §4.2/§7); the service itself is
/// lifecycle + actuation.
///
/// Metric events are pulled from SRM at a configurable period (default
/// 15 s, §4.2); PE failure events are pushed by SAM through the
/// runtime::EventSink interface as they are detected. The service only
/// delivers events for — and only allows actuation on — applications
/// started through it (§3).
class OrcaService : private runtime::EventSink {
 public:
  struct Config {
    std::string name = "orca";
    /// SRM metric pull period (§4.2 default: 15 seconds).
    double metric_pull_period = 15.0;
    /// Spacing between successive queued event deliveries (models the
    /// time consumed by user handlers; 0 = back-to-back).
    double dispatch_interval = 0.0;
    /// Number of per-application ScopeRegistry shards the service
    /// partitions its subscopes across (see ShardedScopeRegistry; clamped
    /// to at least 1). Match results are independent of the setting; it
    /// only sets how many applications share one shard's indexes (each
    /// lookup consults one shard plus the residual shard, on the calling
    /// thread).
    size_t scope_shards = 4;
    /// Async event dispatch: 0 (default) keeps the serial one-at-a-time
    /// delivery queue; N > 0 installs a ThreadPoolExecutor with N workers
    /// delivering per-application ordered queues concurrently (same-app
    /// events stay FIFO; `dispatch_interval` paces each queue on the
    /// wall clock). Handlers then run on worker threads and actuate
    /// through their per-delivery OrcaContext: calls are staged, then
    /// applied in order on the simulation thread by
    /// ApplyStagedActuations() (called from metric pull rounds and the
    /// lifecycle entry points; drivers may also call it directly).
    /// Direct OrcaService entry-point calls from a worker handler are
    /// rejected with FailedPrecondition. Simulation tests that want
    /// async *semantics* deterministically should pass a
    /// DeterministicExecutor via `dispatch_executor` instead.
    size_t dispatch_threads = 0;
    /// Overrides the executor regardless of dispatch_threads (tests: a
    /// seeded DeterministicExecutor makes every async schedule
    /// reproducible and keeps handlers on the simulation thread).
    std::shared_ptr<DispatchExecutor> dispatch_executor;
    /// Async dispatch: max consecutive same-application deliveries per
    /// executor step (see EventBus::Config::max_batch_per_step). 1 =
    /// one executor hop per event; raise it so a hot application's
    /// backlog drains in runs, amortizing scheduling overhead under
    /// skewed traffic.
    size_t max_batch_per_step = 1;
    /// Async dispatch: serve the heaviest (backlog × observed handler
    /// cost) runnable queue first instead of FIFO; executors bound
    /// starvation of cold queues (see ThreadPoolExecutor).
    bool weighted_dispatch = true;
    /// Remote event plane (src/net/): when set, Load registers this sink
    /// with SAM instead of the service itself, so PE failure
    /// notifications leave the runtime through the transport and come
    /// back in via IngestPeFailure. Not owned; must outlive the service.
    runtime::EventSink* failure_sink = nullptr;
    /// True when the event plane is remote: metric snapshots arrive from
    /// a runtime-side pump via IngestMetricsSnapshot, so the service's
    /// own SRM pull loop never starts (the pump owns the cadence).
    bool remote_event_plane = false;
  };

  OrcaService(sim::Simulation* sim, runtime::Sam* sam, runtime::Srm* srm,
              Config config);
  OrcaService(sim::Simulation* sim, runtime::Sam* sam, runtime::Srm* srm)
      : OrcaService(sim, sam, srm, Config{}) {}
  ~OrcaService();

  OrcaService(const OrcaService&) = delete;
  OrcaService& operator=(const OrcaService&) = delete;

  // --- Lifecycle ---------------------------------------------------------

  /// Loads the ORCA logic (the MyORCA.so analog): registers the
  /// orchestrator with SAM and enqueues the start event. The logic's
  /// HandleOrcaStart runs on the next simulation step.
  common::Status Load(std::unique_ptr<Orchestrator> logic);

  /// Stops event generation and unregisters from SAM. Managed jobs keep
  /// running.
  void Shutdown();

  /// Replaces the ORCA logic while the service keeps running — the
  /// recovery path of the §7 fault-tolerance extension. Registered
  /// scopes, managed jobs, and *queued events* survive: events whose
  /// delivery transaction never committed under the old logic are
  /// delivered to the replacement (reliable delivery), after a fresh
  /// start event. The transaction journal shows which actuations the old
  /// logic already performed, so replacement logic can avoid repeating
  /// them.
  common::Status ReplaceLogic(std::unique_ptr<Orchestrator> logic);

  bool loaded() const { return logic_ != nullptr; }
  const std::string& name() const { return config_.name; }

  /// The event-delivery transaction journal (§7 extension).
  const TransactionLog& transactions() const { return bus_.transactions(); }
  /// Transaction of the event currently being handled (0 outside
  /// handlers).
  TransactionId current_transaction() const {
    return bus_.current_transaction();
  }

  // --- Staged actuation (wall-clock async dispatch) ------------------------

  /// Applies every staged actuation batch committed by worker-thread
  /// handlers since the last call, in commit order (and, within a batch,
  /// in handler call order). Must run on the simulation thread — it is
  /// what marshals OrcaContext actuations out of the worker pool. Invoked
  /// automatically from every metric pull round, Shutdown, and
  /// ReplaceLogic; drivers of a wall-clock service should also call it
  /// from their run loop. Returns the number of actuations applied.
  /// Failures are logged and recorded, never applied partially out of
  /// order.
  size_t ApplyStagedActuations();

  /// Staged actuations waiting for ApplyStagedActuations (0 on the serial
  /// and DeterministicExecutor paths, which apply immediately).
  size_t staged_actuations_pending() const;

  /// Blocks until the worker pool has no delivery running or scheduled
  /// (no-op in serial/sim-executor modes, and from inside a handler).
  /// Wall-clock run loops interleave this with ApplyStagedActuations so
  /// handler-staged actuations land at the virtual time the handler ran,
  /// not wherever the simulation has raced ahead to.
  void DrainDeliveries();

  // --- Event scope registration (§4.1) ------------------------------------

  /// Scope registration is a managed lifecycle: scopes registered while a
  /// logic is loaded are tagged with that logic's *generation* and retired
  /// atomically when the logic is replaced (ReplaceLogic) or unloaded
  /// (Shutdown) — replacement logic registers its own scopes on its fresh
  /// start event (§7) and never receives matches for its predecessor's
  /// subscope keys. Scopes registered while no logic is loaded are
  /// unowned and survive logic turnover.
  void RegisterEventScope(OperatorMetricScope scope);
  void RegisterEventScope(PeMetricScope scope);
  void RegisterEventScope(PeFailureScope scope);
  void RegisterEventScope(JobEventScope scope);
  void RegisterEventScope(UserEventScope scope);

  /// Removes every subscope registered under `key` (the paper's dynamic
  /// counterpart to registerEventScope). Returns the number of subscopes
  /// removed.
  size_t UnregisterEventScope(const std::string& key);

  void ClearEventScopes();

  /// The sharded indexed registry holding every registered subscope.
  const ShardedScopeRegistry& scopes() const { return scopes_; }

  // --- Application registry and dependencies (§4.4) -----------------------

  /// Registers an application configuration together with its model (the
  /// descriptor's ADL reference, §3). Callable at any time — including
  /// long after Load — which realizes §7's "dynamically add an
  /// application to the orchestrator (e.g., applications developed after
  /// orchestrator deployment)".
  common::Status RegisterApplication(AppConfig config,
                                     topology::ApplicationModel model);

  /// Same, but parsing the application model from an ADL XML document
  /// (the form a deployed orchestrator receives new applications in).
  common::Status RegisterApplicationAdl(AppConfig config,
                                        const std::string& adl_xml);

  /// Registers "app depends on depends_on": the dependency is submitted
  /// automatically before `app`, and `app` waits `uptime_seconds` after
  /// the dependency's submission. Cycles are rejected.
  common::Status RegisterDependency(const std::string& app,
                                    const std::string& depends_on,
                                    double uptime_seconds = 0);

  /// Requests submission of an application. A submission task snapshots
  /// the dependency graph, prunes nodes unconnected to the request,
  /// submits dependency-free applications immediately, and walks the rest
  /// in min-sleep order as uptime requirements become satisfied (§4.4). A
  /// job submission event is delivered after every submission.
  common::Status SubmitApplication(const std::string& config_id);

  /// Requests cancellation. Fails if another running application depends
  /// on this one (starvation protection). Otherwise cancels it and
  /// garbage-collects feeders that are collectable, unused, and not
  /// explicitly submitted — each after its GC timeout, with resurrection
  /// if resubmitted in time (§4.4).
  common::Status CancelApplication(const std::string& config_id);

  common::Result<common::JobId> RunningJob(const std::string& config_id) const;
  bool IsRunning(const std::string& config_id) const;
  /// True if the app is running but enqueued for garbage collection.
  bool IsGcPending(const std::string& config_id) const;

  // --- Direct actuations ---------------------------------------------------

  /// Cancels a managed job. PermissionDenied if this service did not
  /// start it (§3).
  common::Status CancelJob(common::JobId job);
  /// Restarts a crashed/stopped PE of a managed job.
  common::Status RestartPe(common::PeId pe);
  /// Stops a running PE of a managed job.
  common::Status StopPe(common::PeId pe);

  /// Rewrites the stored application model to run only on exclusive host
  /// pools (§4.3). Must be called before the application is submitted.
  common::Status SetExclusiveHostPools(const std::string& config_id);

  /// Changes the SRM metric pull period (§4.2: "developers can change it
  /// at any point of the execution").
  void SetMetricPullPeriod(double seconds);
  double metric_pull_period() const { return pull_task_.period(); }
  /// Forces an immediate metric pull round.
  void PullMetricsNow();

  // --- Timers ---------------------------------------------------------------

  common::TimerId CreateTimer(double delay_seconds, const std::string& name,
                              bool recurring = false,
                              double period_seconds = 0);
  void CancelTimer(common::TimerId timer);

  // --- User events (§3's command tool) ---------------------------------------

  void InjectUserEvent(const std::string& name,
                       std::map<std::string, std::string> attributes = {});

  // --- Remote event plane (src/net/) -----------------------------------------

  /// Applies a PE failure notification that crossed the transport
  /// boundary (EventBusServer). Identical semantics to the EventSink push
  /// SAM performs in-process: scope matching, failure epochs, §7
  /// journaling all run here, on the simulation thread.
  void IngestPeFailure(const runtime::PeFailureNotice& notice);

  /// Applies a metric snapshot pushed by a remote runtime's metric pump.
  /// Runs the same publication round as the in-process pull path
  /// (staged-actuation drain, epoch bump, snapshot publish), so remote
  /// and in-process runs advance the same logical clocks in the same
  /// order.
  void IngestMetricsSnapshot(const runtime::MetricsSnapshot& snapshot);

  /// The managed jobs a metric round queries, in the service's own pull
  /// order (application config-id order). A remote runtime's pump uses
  /// this as its job set so snapshot contents match the in-process pull
  /// loop record for record.
  std::vector<common::JobId> ManagedJobsInPullOrder() const;

  /// Invoked (synchronously, on the simulation thread) whenever the
  /// logic changes the metric pull period. With a remote event plane the
  /// runtime-side pump owns the pull cadence, so the actuation must cross
  /// back to it — in a real deployment as a control message, here via
  /// this callback the bridge installs.
  void set_metric_period_listener(std::function<void(double)> listener) {
    metric_period_listener_ = std::move(listener);
  }

  // --- Inspection -------------------------------------------------------------

  const GraphView& graph() const { return graph_; }
  sim::SimTime Now() const { return sim_->Now(); }

  // --- Introspection for tests and benches -------------------------------------

  uint64_t events_delivered() const { return bus_.events_delivered(); }
  size_t queue_depth() const { return bus_.queue_depth(); }
  int64_t metric_epoch() const { return metric_epoch_; }

  // Always 0: shards no longer split or migrate. Kept only because the
  // adaptation-cycle benchmark (perfbench/) still reports it.
  uint64_t reshard_count() const { return 0; }

  // Predicate-planner observability: compile/replan and
  // planned-vs-fallback lookup counters summed across all shards (see
  // plan::PlanStats). The planner is always on in the service.
  plan::PlanStats plan_stats() const { return scopes_.plan_stats(); }

  // Reaction-latency observability (the paper's Figs 7–10 metric): one
  // detection→actuation sample per actuating delivery, bucketed by event
  // category. Immediate-mode deliveries record at handler completion;
  // staged batches at apply time (so the staged-apply deferral counts).
  // Both stamps are sim time in every dispatch mode.
  const LatencyTracker& latency() const { return latency_; }
  std::vector<LatencyTracker::Stats> latency_stats() const {
    return latency_.Snapshot();
  }
  /// Records one sample; called by the EventBus (immediate mode) and the
  /// staged-batch drain. Thread-safe, but in practice sim-thread-only.
  void RecordReactionSample(const std::string& category,
                            sim::SimTime detected_at,
                            sim::SimTime actuated_at) {
    latency_.Record(category, detected_at, actuated_at);
  }

  // Queue observability (async dispatch; empty/0 on the serial path).
  // events_delivered()/queue_depth() above stay the lock-free hot-path
  // counters; these take the bus lock and are for monitoring cadence.
  std::vector<EventBus::QueueStats> queue_stats() const {
    return bus_.QueueStatsSnapshot();
  }
  size_t app_queue_depth(const std::string& application) const {
    return bus_.AppQueueDepth(application);
  }
  double app_queue_backlog_age(const std::string& application) const {
    return bus_.AppQueueBacklogAge(application);
  }

 private:
  struct AppState {
    AppConfig config;
    topology::ApplicationModel model;
    std::optional<common::JobId> job;
    sim::SimTime submitted_at = 0;
    bool explicitly_submitted = false;
    bool gc_pending = false;
    sim::EventId gc_event = 0;
  };
  struct TimerState {
    common::TimerId id;
    std::string name;
    bool recurring = false;
    double period = 0;
    sim::EventId event = 0;
  };

  AppState* FindApp(const std::string& config_id);
  const AppState* FindApp(const std::string& config_id) const;
  /// The app state owning a managed job, or nullptr. O(1) via the
  /// job-to-config index maintained on submit/cancel.
  AppState* FindAppByJob(common::JobId job);

  /// Journals an actuation against the in-flight transaction.
  void JournalActuation(const std::string& description);

  /// Release-mode guard for Config::dispatch_threads misuse: public entry
  /// points must not be reached from a wall-clock worker-thread handler
  /// (they would race the simulation thread over the registry/graph/app
  /// state — the handler's OrcaContext is the safe path). Returns
  /// FailedPrecondition, and logs, when called from such a handler.
  /// Handlers on the serial and DeterministicExecutor paths run on the
  /// sim thread and pass.
  common::Status GuardWorkerEntry(const char* method) const;

  // --- Actuation core -------------------------------------------------------
  // The *Impl methods are the single implementation behind both the
  // guarded public entry points (direct service calls on the simulation
  // thread) and the per-delivery OrcaContext (immediate calls on the
  // serial/DeterministicExecutor paths; staged batches applied by
  // ApplyStagedActuations on the ThreadPoolExecutor path). They never
  // guard and always run on the simulation thread.
  friend class OrcaContext;

  void RegisterEventScopeImpl(OperatorMetricScope scope);
  void RegisterEventScopeImpl(PeMetricScope scope);
  void RegisterEventScopeImpl(PeFailureScope scope);
  void RegisterEventScopeImpl(JobEventScope scope);
  void RegisterEventScopeImpl(UserEventScope scope);
  size_t UnregisterEventScopeImpl(const std::string& key);
  common::Status RegisterDependencyImpl(const std::string& app,
                                        const std::string& depends_on,
                                        double uptime_seconds);
  common::Status SubmitApplicationImpl(const std::string& config_id);
  common::Status CancelApplicationImpl(const std::string& config_id);
  common::Status CancelJobImpl(common::JobId job);
  common::Status RestartPeImpl(common::PeId pe);
  common::Status StopPeImpl(common::PeId pe);
  common::Status SetExclusiveHostPoolsImpl(const std::string& config_id);
  void SetMetricPullPeriodImpl(double seconds);
  /// Schedules a timer under a pre-allocated id (see AllocateTimerId —
  /// eager allocation is what lets a staged CreateTimer return a valid
  /// handle from a worker thread).
  void ScheduleTimerImpl(common::TimerId id, double delay_seconds,
                         const std::string& name, bool recurring,
                         double period_seconds);
  void CancelTimerImpl(common::TimerId timer);
  void InjectUserEventImpl(const std::string& name,
                           std::map<std::string, std::string> attributes);
  common::TimerId AllocateTimerId() {
    return common::TimerId(next_timer_id_.fetch_add(1));
  }

  // --- Staged-dispatch support ---------------------------------------------

  /// True when handlers run on wall-clock worker threads (ThreadPool
  /// dispatch) and therefore read through OrcaSnapshots.
  bool WallClockDispatch() const { return bus_.WallClockAsync(); }
  /// The consistent read view a staged delivery pins at dispatch.
  std::shared_ptr<const OrcaSnapshot> SnapshotForDelivery() const;
  /// The simulation clock as of the most recent sim-thread publication
  /// or state change — what a staged delivery pins as its Now().
  sim::SimTime StagedClock() const {
    return staged_clock_.load(std::memory_order_relaxed);
  }
  /// Republishes the snapshot from live state; called on the simulation
  /// thread by every mutation of state the snapshot exposes (no-op
  /// outside wall-clock dispatch). Job records are shared, not copied.
  void RefreshSnapshot();
  /// Publication paths and staged applies mutate no snapshot-visible
  /// state themselves (the actuations that do republish), so they only
  /// advance the staged clock — a relaxed atomic store.
  void TouchStagedClock();
  /// Worker-side: appends one delivery's ordered actuation batch to the
  /// commit mailbox (drained by ApplyStagedActuations on the sim thread).
  /// `category`/`detected_at` describe the staging delivery's event, so
  /// the drain can record the detection→staged-apply reaction sample.
  void EnqueueStagedBatch(TransactionId txn,
                          std::vector<OrcaContext::StagedCall> calls,
                          const std::string& category,
                          sim::SimTime detected_at);

  void PullMetricsRound();
  /// Shared tail of PullMetricsRound and IngestMetricsSnapshot: epoch
  /// bump, staged-clock touch, snapshot publication.
  void PublishSnapshotRound(const runtime::MetricsSnapshot& snapshot);
  /// runtime::EventSink — SAM pushes PE failure notifications for managed
  /// jobs here (§4.2).
  void OnPeFailure(const runtime::PeFailureNotice& notice) override;
  void FireTimer(common::TimerId id);

  /// One step of a submission task; re-schedules itself while uptime
  /// requirements keep it waiting.
  void ContinueSubmission(std::vector<std::string> closure);
  common::Status SubmitNow(AppState* state);
  void DeliverJobEvent(const AppState& state, common::JobId job,
                       bool is_submission);

  /// Cancels a running app (explicit or GC) and sweeps its feeders.
  common::Status DoCancel(AppState* state);
  /// Enqueues `app` for garbage collection if eligible (§4.4's three
  /// conditions), honouring its GC timeout.
  void MaybeScheduleGc(const std::string& config_id);
  bool GcEligible(const AppState& state) const;

  sim::Simulation* sim_;
  runtime::Sam* sam_;
  runtime::Srm* srm_;
  Config config_;

  std::unique_ptr<Orchestrator> logic_;
  common::OrcaId orca_id_;
  GraphView graph_;

  ShardedScopeRegistry scopes_;
  /// Generation tag of the currently loaded logic's scope registrations
  /// (0 while no logic is loaded — see RegisterEventScope).
  ScopeRegistry::Generation logic_generation_ = 0;
  EventBus bus_;

  std::map<std::string, AppState> apps_;
  /// JobId value → config id for every running managed job; keeps
  /// FindAppByJob O(1) on the failure/metric hot paths.
  std::unordered_map<int64_t, std::string> job_index_;
  DependencyGraph deps_;

  sim::PeriodicTask pull_task_;
  /// Mirrors metric-pull-period actuations to a remote runtime's pump.
  std::function<void(double)> metric_period_listener_;
  int64_t metric_epoch_ = 0;

  int64_t failure_epoch_ = 0;
  std::string last_failure_reason_;
  sim::SimTime last_failure_detected_at_ = -1;

  /// Atomic so staged CreateTimer calls can allocate ids on worker
  /// threads (the timer itself is scheduled at commit on the sim thread).
  std::atomic<int64_t> next_timer_id_{1};
  std::map<common::TimerId, TimerState> timers_;

  /// Wall-clock dispatch only: the current consistent read view served to
  /// staged deliveries, swapped on the simulation thread at every
  /// snapshot-visible mutation; job records are shared with graph_.
  mutable common::Mutex snapshot_mu_;
  std::shared_ptr<const OrcaSnapshot> snapshot_ ORCA_GUARDED_BY(snapshot_mu_);
  /// The staged deliveries' clock (see StagedClock).
  std::atomic<double> staged_clock_{0};

  /// Commit mailbox for staged actuation batches: pushed by workers (in
  /// commit order), drained FIFO by ApplyStagedActuations on the sim
  /// thread.
  struct StagedBatch {
    TransactionId txn = 0;
    std::vector<OrcaContext::StagedCall> calls;
    /// Latency bucket + detection stamp of the staging delivery's event.
    std::string category;
    sim::SimTime detected_at = 0;
  };
  mutable common::Mutex staged_mu_;
  std::deque<StagedBatch> staged_batches_ ORCA_GUARDED_BY(staged_mu_);

  /// Detection→actuation reaction samples per event category.
  LatencyTracker latency_;

  /// The service's OrcaId from before the last Shutdown. A fresh Load
  /// re-registers under a new id and transfers ownership of still-running
  /// managed jobs from this one, so SAM keeps routing their PE failures
  /// (see Sam::TransferOrcaOwnership).
  common::OrcaId prev_orca_id_;
};

}  // namespace orcastream::orca

#endif  // ORCASTREAM_ORCA_ORCA_SERVICE_H_
