#ifndef ORCASTREAM_ORCA_EVENT_BUS_H_
#define ORCASTREAM_ORCA_EVENT_BUS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "orca/dispatch_executor.h"
#include "orca/events.h"
#include "orca/graph_view.h"
#include "orca/orchestrator.h"
#include "orca/transaction_log.h"
#include "runtime/metrics.h"
#include "sim/simulation.h"

namespace orcastream::orca {

class OrcaService;
class ShardedScopeRegistry;

/// Typed envelope for one event awaiting delivery. Both the SRM metric
/// pull path and the SAM failure push path feed these into the bus; the
/// bus owns dispatch order, pacing, and the delivery transaction journal.
struct Event {
  enum class Type {
    kOrcaStart,
    kOperatorMetric,
    kPeMetric,
    kPeFailure,
    kJobSubmission,
    kJobCancellation,
    kTimer,
    kUser,
  };

  Type type = Type::kOrcaStart;
  /// Human-readable summary journaled with the delivery transaction.
  std::string summary;
  /// Keys of the subscopes the event matched (§4.1: delivered alongside
  /// the context; empty for start and timer events, which have no scopes).
  std::vector<std::string> matched;
  std::variant<OrcaStartContext, OperatorMetricContext, PeMetricContext,
               PeFailureContext, JobEventContext, TimerContext,
               UserEventContext>
      context;
};

/// Latency-bucket name for an event type ("operatorMetric", "peFailure",
/// ...) — the category detection→actuation reaction samples accumulate
/// under (see LatencyTracker).
const char* CategoryOf(Event::Type type);

/// The detection timestamp the event's context carries, in sim time: an
/// SRM sample's collection time, SAM's failure-detection time, a
/// timer/job/user event's occurrence time. Start events answer their
/// (delivery-stamped) `at`.
sim::SimTime DetectionTimeOf(const Event& event);

/// The unified delivery queue of the ORCA service (§4.2) with two dispatch
/// modes behind one publication API:
///
/// **Serial (default, no executor).** Events are delivered one at a time,
/// in arrival order; events occurring while a handler runs are queued.
/// Successive deliveries are spaced by `dispatch_interval` (models handler
/// execution time) — measured from the previous delivery, whether or not
/// the queue drained in between, so a Publish right after the queue
/// empties still waits out the remainder of the interval.
///
/// **Async (Config::executor set).** Events are keyed into per-application
/// ordered queues: events for the same application — and all
/// wildcard/app-less events, which share the *residual* queue — stay FIFO
/// relative to each other, while distinct applications deliver
/// concurrently on the executor (a worker pool in production, the seeded
/// DeterministicExecutor in tests). `dispatch_interval` pacing is enforced
/// per queue (including across that queue's drains), the transaction
/// journal records every delivery exactly as in serial mode, and
/// ReplaceLogic redelivery keeps its semantics per queue: a start event
/// published with PublishFront gates every other queue until it is
/// delivered, so replacement logic still initializes before any surviving
/// queued event reaches it.
///
/// Every delivery runs inside a transaction (§7 extension): the journal
/// ties the event to every actuation its handler performs, and events
/// whose transaction never committed are redelivered to replacement
/// logic.
class EventBus {
 public:
  struct Config {
    /// Spacing between successive queued event deliveries (0 =
    /// back-to-back). Serial mode: global, in sim time. Async mode: per
    /// application queue, on the executor's clock (sim time under the
    /// DeterministicExecutor, wall time under the ThreadPoolExecutor).
    double dispatch_interval = 0.0;
    /// Async dispatch strategy; nullptr keeps the serial queue.
    std::shared_ptr<DispatchExecutor> executor;
    /// Async mode: max consecutive same-queue deliveries per executor
    /// step. >1 lets a backlogged application drain a run of events in
    /// one hop instead of paying a ready-queue round trip per event
    /// (the dominant cost under skew); per-queue FIFO order, pacing,
    /// per-delivery transactions, and staged-actuation semantics are
    /// unchanged — a nonzero dispatch_interval still caps the effective
    /// batch at 1, since pacing is owed between every two deliveries.
    size_t max_batch_per_step = 1;
    /// Async mode: attach the bus's backlog×cost queue weigher to the
    /// executor, so workers serve the heaviest runnable queue first
    /// (with the executor's own anti-starvation bound) instead of pure
    /// FIFO. Off = executors keep their unweighted order.
    bool weighted_dispatch = true;
  };

  EventBus(sim::Simulation* sim, Config config);
  ~EventBus();

  EventBus(const EventBus&) = delete;
  EventBus& operator=(const EventBus&) = delete;

  /// Binds the ORCA service whose capability surface the per-delivery
  /// OrcaContext exposes to handlers. A bare bus (unit tests) leaves it
  /// unbound: handlers still receive a context, but its actuations report
  /// FailedPrecondition. Called once by OrcaService's constructor.
  void BindService(OrcaService* service) { service_ = service; }

  /// Points the bus at the logic handling deliveries. Passing nullptr
  /// stops dispatch; queued events are retained for a future logic (the
  /// §7 reliable-delivery path) and resume dispatching when one is set.
  /// Async mode: deliveries already in flight on workers complete against
  /// the previous logic (see DisposeAfterDispatch / DrainDeliveries).
  void set_logic(Orchestrator* logic);
  Orchestrator* logic() const {
    common::MutexLock lock(mu_);
    return logic_;
  }

  /// Destroys a replaced/unloaded Orchestrator — immediately if none of
  /// its deliveries is in flight, otherwise once the last one unwinds:
  /// logic may call ReplaceLogic/Shutdown from inside its own handler
  /// (§7 self-recovery), and under async dispatch other workers may still
  /// be inside the retiring object's handlers — the object must not be
  /// freed under any executing handler frame.
  void DisposeAfterDispatch(std::unique_ptr<Orchestrator> logic);

  /// Blocks until no delivery is running or scheduled on the executor.
  /// No-op in serial mode, and when called from inside a handler (the
  /// self-replacement path — waiting for yourself would deadlock; the
  /// caller relies on DisposeAfterDispatch instead). The service calls
  /// this on ReplaceLogic/Shutdown after detaching the logic so the
  /// retiring orchestrator's in-flight deliveries unwind before it is
  /// touched.
  void DrainDeliveries();

  /// True when an async executor is installed.
  bool async() const { return executor_ != nullptr; }

  /// True on a thread currently inside one of this bus's deliveries.
  bool InHandler() const;

  /// True when deliveries run on wall-clock worker threads (the
  /// ThreadPoolExecutor), i.e. off the simulation thread. Handlers then
  /// get a *staged* OrcaContext, and the service refuses direct
  /// entry-point calls from inside such handlers.
  bool WallClockAsync() const {
    return executor_ != nullptr && !executor_->UsesSimTime();
  }

  /// True inside one of this bus's deliveries under a wall-clock
  /// executor — i.e. on a worker thread, off the simulation thread. The
  /// service guards its entry points against this: calling back into
  /// the simulated service from a pool worker races the sim thread (use
  /// the handler's OrcaContext instead).
  bool InWallClockHandler() const { return InHandler() && WallClockAsync(); }

  // --- Publication --------------------------------------------------------

  /// Appends an event to the delivery queue and (re)starts dispatch.
  /// Async mode: appended to the queue keyed by the event's application
  /// (residual queue for app-less events).
  void Publish(Event event);

  /// Inserts an event at the head of the queue — used for the replacement
  /// logic's fresh start event, which must precede surviving queued
  /// events (§7). Async mode: goes to the head of the residual queue and
  /// *gates* every other queue until delivered, preserving the
  /// start-before-survivors ordering across all application queues.
  void PublishFront(Event event);

  /// Routes one SRM snapshot through the registry in a single pass (§4.2):
  /// matches every sample through a borrowed view of the snapshot record
  /// and the graph view, then publishes an event with an owned context
  /// per sample that crossed a scope — operator samples first, then PE
  /// samples, each in snapshot order. Samples of unmanaged jobs are
  /// skipped. `epoch` is the logical clock of the pull round.
  void PublishMetricsSnapshot(const runtime::MetricsSnapshot& snapshot,
                              int64_t epoch,
                              const ShardedScopeRegistry& registry,
                              const GraphView& graph);

  /// Scrubs queued (undelivered) PE-failure events against the live scope
  /// set after a generation retirement: each queued kPeFailure event's
  /// matched keys are filtered through `live`, and events left with no
  /// live key are dropped entirely. Non-failure events are untouched —
  /// queued metric/user/job events survive logic turnover by design (§7
  /// reliable delivery); but a failure event whose every subscope belongs
  /// to the retired logic would deliver a stale failure into the
  /// replacement's fresh generation. Must run on the simulation thread
  /// with no deliveries in flight (the ReplaceLogic/Shutdown window,
  /// after set_logic(nullptr) + DrainDeliveries). Returns the number of
  /// events dropped.
  size_t PruneFailureEvents(
      const std::function<bool(const std::string& key)>& live);

  // --- Transactions (§7) --------------------------------------------------

  const TransactionLog& transactions() const { return txn_log_; }
  /// Transaction of the event being handled on the CALLING thread
  /// (0 outside handlers) — per-thread, since async deliveries for
  /// distinct applications run concurrently.
  TransactionId current_transaction() const;
  /// Journals an actuation against the calling thread's in-flight
  /// transaction.
  void JournalActuation(const std::string& description);
  /// Appends an entry to a specific (possibly already committed)
  /// transaction — the staged-actuation path records apply-time outcomes
  /// against the delivery that staged the call.
  void JournalActuationFor(TransactionId txn, const std::string& description);

  // --- Introspection ------------------------------------------------------

  // Both counters are lock-free atomics so monitoring threads can poll
  // them during ThreadPoolExecutor runs without taking the bus lock (and
  // without TSan findings).
  /// Completed deliveries: handler returned, staged batch committed to
  /// the service mailbox, transaction committed.
  uint64_t events_delivered() const {
    return events_delivered_.load(std::memory_order_acquire);
  }
  /// Total undelivered events across all queues.
  size_t queue_depth() const {
    return queue_size_.load(std::memory_order_relaxed);
  }

  /// Async mode: the queue key an event routes to — its application, or
  /// "" (the residual queue) for app-less/wildcard events. Exposed for
  /// tests and docs.
  static std::string QueueKeyOf(const Event& event);

  /// Point-in-time view of one per-application queue (async mode).
  /// Snapshot accessors take the bus lock (they are monitoring-path,
  /// not hot-path — the hot-path counters are the atomics above).
  struct QueueStats {
    std::string key;
    size_t depth = 0;
    uint64_t delivered = 0;
    /// Executor-clock age of the oldest undelivered event (0 if empty).
    double backlog_age = 0;
    /// EWMA of recent per-delivery handler cost, executor-clock seconds.
    double avg_step_cost = 0;
  };
  /// All queues, sorted by key. Empty in serial mode.
  std::vector<QueueStats> QueueStatsSnapshot() const;
  /// Depth / oldest-event age of one application's queue ("" = residual).
  /// 0 for unknown queues and in serial mode.
  size_t AppQueueDepth(const std::string& application) const;
  double AppQueueBacklogAge(const std::string& application) const;

 private:
  /// One per-application ordered delivery queue (async mode).
  struct AppQueue {
    struct Entry {
      Event event;
      /// PublishFront start events gate the other queues until delivered.
      bool gate = false;
      /// Publication time (executor clock); backlog-age observability.
      double enqueued_at = 0;
    };
    std::deque<Entry> events;
    /// True while the executor owes this queue a step (submitted,
    /// running, or in a pacing wait). The bus only Submits on the
    /// false→true transition, so one queue never has two concurrent
    /// steps.
    bool active = false;
    uint64_t delivered = 0;
    /// When this queue's last delivery ran (executor clock); per-queue
    /// pacing is enforced relative to it even across a queue drain.
    double last_delivery_at = 0;
    /// EWMA of per-delivery handler cost; feeds QueueWeightOf so the
    /// weigher ranks queues by expected drain work, not just depth.
    double avg_step_cost = 0;
  };

  // Serial path.
  void EnsureDispatching();
  void DispatchNext();

  // Async path.
  void PublishAsync(Event event, bool front);
  /// Executor callback: runs at most one delivery of queue `key`.
  QueueStepResult RunQueueStep(const std::string& key);
  /// Marks every runnable queue active and Submits it (after logic
  /// attach / gate reopen). Caller must NOT hold mu_.
  void SubmitRunnableQueues();
  /// True if `key`'s queue may deliver now (logic attached; not blocked
  /// behind a start-event gate).
  bool RunnableLocked(const std::string& key) const ORCA_REQUIRES(mu_);
  /// Executor weigher callback (Config::weighted_dispatch): backlog
  /// depth × observed delivery cost. Takes mu_; safe because the bus
  /// never calls into the executor while holding mu_ (executor-lock →
  /// bus-lock is the only order that occurs).
  double QueueWeightOf(const std::string& key) const;

  /// Invokes the logic handler matching the event's type on `logic`.
  void Deliver(Orchestrator* logic, const Event& event, double now);
  /// Delivery bookkeeping shared by both modes: transaction + journal
  /// and the deferred disposal sweep. In async mode the caller takes the
  /// in-flight reference (++inflight_[logic]) in the same critical
  /// section that captures the logic pointer — a concurrently retiring
  /// logic must see the delivery before it decides it can be destroyed;
  /// FinishDelivery releases it. Serial mode needs neither lock nor
  /// count (single-threaded; InHandler() is the in-flight signal).
  TransactionId BeginDelivery(const std::string& summary,
                              const std::string& queue_key, double now);
  void FinishDelivery(Orchestrator* logic, TransactionId txn, double now);

  sim::Simulation* sim_;
  Config config_;
  std::shared_ptr<DispatchExecutor> executor_;
  /// Capability target of per-delivery OrcaContexts (see BindService).
  OrcaService* service_ = nullptr;

  // Serial-mode state (single-threaded by construction: only touched when
  // !async(), always on the sim thread, so it takes no lock and carries
  // no GUARDED_BY).
  std::deque<Event> queue_;
  bool dispatching_ = false;
  /// When the last serial delivery ran; pacing is enforced relative to it
  /// even across a queue drain (meaningful only once events_delivered_
  /// > 0).
  sim::SimTime last_delivery_at_ = 0;

  // State below is guarded by mu_ (never held across a handler call).
  // logic_ and the retirement bookkeeping are locked in BOTH modes —
  // serial-mode contention is zero, and a single discipline is what the
  // thread safety analysis can check.
  mutable common::Mutex mu_;
  Orchestrator* logic_ ORCA_GUARDED_BY(mu_) = nullptr;
  std::unordered_map<std::string, AppQueue> queues_ ORCA_GUARDED_BY(mu_);
  /// Undelivered PublishFront start events; while > 0 only the residual
  /// queue delivers.
  int gate_depth_ ORCA_GUARDED_BY(mu_) = 0;

  // Shared state.
  std::atomic<uint64_t> events_delivered_{0};
  /// Undelivered events across all queues; maintained in both modes so
  /// queue_depth() never needs mu_.
  std::atomic<size_t> queue_size_{0};
  /// Deliveries currently inside a handler, per logic object. A retired
  /// logic is destroyed only when its count reaches zero. (Serial mode
  /// leaves this empty: at most one delivery exists and InHandler()
  /// detects it.)
  std::unordered_map<const Orchestrator*, uint64_t> inflight_
      ORCA_GUARDED_BY(mu_);
  /// Orchestrators retired mid-delivery; destroyed when their last
  /// delivery unwinds (see DisposeAfterDispatch). Destructors always run
  /// with mu_ dropped — retiring logic may own arbitrary state.
  std::vector<std::unique_ptr<Orchestrator>> retired_logics_
      ORCA_GUARDED_BY(mu_);

  TransactionLog txn_log_;
};

}  // namespace orcastream::orca

#endif  // ORCASTREAM_ORCA_EVENT_BUS_H_
