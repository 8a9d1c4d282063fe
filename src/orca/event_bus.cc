#include "orca/event_bus.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "orca/orca_context.h"
#include "orca/orca_service.h"
#include "orca/sharded_scope_registry.h"

namespace orcastream::orca {

using common::StrFormat;

namespace {

/// The delivery executing on this thread: which bus it belongs to and its
/// transaction. Per-thread because async deliveries for distinct
/// applications run concurrently, each inside its own transaction.
struct ThreadDelivery {
  const EventBus* bus = nullptr;
  TransactionId txn = 0;
};
thread_local ThreadDelivery tls_delivery;

/// Stands in for the kind of an operator the job's model does not hold.
const std::string& NoOperatorKind() {
  static const std::string kEmpty;
  return kEmpty;
}

/// Owned contexts for the samples that crossed a scope, built from the
/// snapshot record and the fields its view already resolved.
OperatorMetricContext MakeMetricContext(
    const runtime::OperatorMetricRecord& rec,
    const OperatorMetricSample& sample, int64_t epoch,
    sim::SimTime collected_at) {
  OperatorMetricContext context;
  context.job = rec.job;
  context.application = sample.application;
  context.pe = rec.pe;
  context.instance_name = rec.operator_name;
  context.operator_kind = sample.operator_kind;
  context.metric = rec.metric_name;
  context.metric_kind = rec.kind;
  context.value = rec.value;
  context.port = rec.port;
  context.output_port = rec.output_port;
  context.epoch = epoch;
  context.collected_at = collected_at;
  return context;
}

PeMetricContext MakeMetricContext(const runtime::PeMetricRecord& rec,
                                  const PeMetricSample& sample, int64_t epoch,
                                  sim::SimTime collected_at) {
  PeMetricContext context;
  context.job = rec.job;
  context.application = sample.application;
  context.pe = rec.pe;
  context.metric = rec.metric_name;
  context.metric_kind = rec.kind;
  context.value = rec.value;
  context.epoch = epoch;
  context.collected_at = collected_at;
  return context;
}

/// Each event is delivered once even when it matches several subscopes
/// (§4.1); the matched keys ride along.
Event MakeMetricEvent(OperatorMetricContext context,
                      std::vector<std::string> matched) {
  Event event;
  event.type = Event::Type::kOperatorMetric;
  event.summary = StrFormat("operatorMetric(%s.%s@%lld)",
                            context.instance_name.c_str(),
                            context.metric.c_str(),
                            static_cast<long long>(context.epoch));
  event.matched = std::move(matched);
  event.context = std::move(context);
  return event;
}

Event MakeMetricEvent(PeMetricContext context,
                      std::vector<std::string> matched) {
  Event event;
  event.type = Event::Type::kPeMetric;
  event.summary = StrFormat("peMetric(pe%lld.%s@%lld)",
                            static_cast<long long>(context.pe.value()),
                            context.metric.c_str(),
                            static_cast<long long>(context.epoch));
  event.matched = std::move(matched);
  event.context = std::move(context);
  return event;
}

/// Borrowed views of one record type's samples, skipping unmanaged jobs
/// (one FindJob — and for operator samples one FindOperator — per
/// record). `records[i]` is the snapshot record behind `views[i]`.
template <typename Record, typename Sample>
struct SampleBatch {
  std::vector<const Record*> records;
  std::vector<Sample> views;
};

SampleBatch<runtime::OperatorMetricRecord, OperatorMetricSample> ViewSamples(
    const std::vector<runtime::OperatorMetricRecord>& records,
    const GraphView& graph) {
  SampleBatch<runtime::OperatorMetricRecord, OperatorMetricSample> batch;
  batch.records.reserve(records.size());
  batch.views.reserve(records.size());
  for (const runtime::OperatorMetricRecord& rec : records) {
    const GraphView::JobRecord* job = graph.FindJob(rec.job);
    if (job == nullptr) continue;
    const topology::OperatorDef* op = job->model.FindOperator(rec.operator_name);
    batch.records.push_back(&rec);
    batch.views.push_back({rec.job, job->app_name, rec.operator_name,
                           op != nullptr ? op->kind : NoOperatorKind(),
                           rec.metric_name, rec.kind, rec.port});
  }
  return batch;
}

SampleBatch<runtime::PeMetricRecord, PeMetricSample> ViewSamples(
    const std::vector<runtime::PeMetricRecord>& records,
    const GraphView& graph) {
  SampleBatch<runtime::PeMetricRecord, PeMetricSample> batch;
  batch.records.reserve(records.size());
  batch.views.reserve(records.size());
  for (const runtime::PeMetricRecord& rec : records) {
    const GraphView::JobRecord* job = graph.FindJob(rec.job);
    if (job == nullptr) continue;
    batch.records.push_back(&rec);
    batch.views.push_back({rec.job, job->app_name, rec.pe, rec.metric_name});
  }
  return batch;
}

/// Appends one event per sample that crossed a scope, in snapshot order,
/// each with an owned context.
template <typename Record, typename Sample>
void AppendHits(const SampleBatch<Record, Sample>& batch,
                std::vector<std::vector<std::string>>& matched, int64_t epoch,
                sim::SimTime collected_at, std::vector<Event>* events) {
  for (size_t i = 0; i < batch.views.size(); ++i) {
    if (matched[i].empty()) continue;
    events->push_back(MakeMetricEvent(
        MakeMetricContext(*batch.records[i], batch.views[i], epoch,
                          collected_at),
        std::move(matched[i])));
  }
}

}  // namespace

const char* CategoryOf(Event::Type type) {
  switch (type) {
    case Event::Type::kOrcaStart:
      return "start";
    case Event::Type::kOperatorMetric:
      return "operatorMetric";
    case Event::Type::kPeMetric:
      return "peMetric";
    case Event::Type::kPeFailure:
      return "peFailure";
    case Event::Type::kJobSubmission:
      return "jobSubmission";
    case Event::Type::kJobCancellation:
      return "jobCancellation";
    case Event::Type::kTimer:
      return "timer";
    case Event::Type::kUser:
      return "user";
  }
  return "unknown";
}

sim::SimTime DetectionTimeOf(const Event& event) {
  switch (event.type) {
    case Event::Type::kOrcaStart:
      return std::get<OrcaStartContext>(event.context).at;
    case Event::Type::kOperatorMetric:
      return std::get<OperatorMetricContext>(event.context).collected_at;
    case Event::Type::kPeMetric:
      return std::get<PeMetricContext>(event.context).collected_at;
    case Event::Type::kPeFailure:
      return std::get<PeFailureContext>(event.context).detected_at;
    case Event::Type::kJobSubmission:
    case Event::Type::kJobCancellation:
      return std::get<JobEventContext>(event.context).at;
    case Event::Type::kTimer:
      return std::get<TimerContext>(event.context).at;
    case Event::Type::kUser:
      return std::get<UserEventContext>(event.context).at;
  }
  return 0;
}

EventBus::EventBus(sim::Simulation* sim, Config config)
    : sim_(sim), config_(std::move(config)), executor_(config_.executor) {
  if (executor_ != nullptr) {
    executor_->Attach(
        [this](const std::string& key) { return RunQueueStep(key); });
    if (config_.weighted_dispatch) {
      executor_->AttachWeigher(
          [this](const std::string& key) { return QueueWeightOf(key); });
    }
  }
}

EventBus::~EventBus() {
  // Workers must never touch a dead bus: stop the executor (runs nothing
  // further, joins pooled workers) before any member is destroyed.
  if (executor_ != nullptr) executor_->Stop();
}

std::string EventBus::QueueKeyOf(const Event& event) {
  switch (event.type) {
    case Event::Type::kOperatorMetric:
      return std::get<OperatorMetricContext>(event.context).application;
    case Event::Type::kPeMetric:
      return std::get<PeMetricContext>(event.context).application;
    case Event::Type::kPeFailure:
      return std::get<PeFailureContext>(event.context).application;
    case Event::Type::kJobSubmission:
    case Event::Type::kJobCancellation:
      return std::get<JobEventContext>(event.context).application;
    case Event::Type::kOrcaStart:
    case Event::Type::kTimer:
    case Event::Type::kUser:
      // No application: start events, timers, and user events share the
      // residual queue (they may match wildcard scopes of any
      // application, so they stay mutually FIFO).
      return std::string();
  }
  return std::string();
}

bool EventBus::InHandler() const {
  return tls_delivery.bus == this && tls_delivery.txn != 0;
}

TransactionId EventBus::current_transaction() const {
  return tls_delivery.bus == this ? tls_delivery.txn : 0;
}

void EventBus::set_logic(Orchestrator* logic) {
  {
    common::MutexLock lock(mu_);
    logic_ = logic;
  }
  if (!async()) {
    // Events retained while no logic was attached must not stall until
    // the next Publish.
    if (logic != nullptr && !queue_.empty()) EnsureDispatching();
    return;
  }
  if (logic != nullptr) SubmitRunnableQueues();
}

void EventBus::DisposeAfterDispatch(std::unique_ptr<Orchestrator> logic) {
  if (logic == nullptr) return;
  if (!async()) {
    // Serial mode is single-threaded: a delivery is in flight iff this
    // thread is inside a handler (the §7 self-replacement path) — no
    // per-logic counting needed on the default path. The retirement list
    // itself is lock-guarded in both modes (one checkable discipline).
    if (InHandler()) {
      common::MutexLock lock(mu_);
      retired_logics_.push_back(std::move(logic));
    }
    return;  // otherwise destroyed here, no handler frame can be inside
  }
  std::unique_ptr<Orchestrator> dispose_now;
  {
    common::MutexLock lock(mu_);
    // A nonzero in-flight count means some handler frame of this very
    // object is still on a stack (its own, on self-replacement, or a
    // concurrent worker's); park it until the last delivery unwinds.
    auto it = inflight_.find(logic.get());
    if (it != inflight_.end() && it->second > 0) {
      retired_logics_.push_back(std::move(logic));
    } else {
      dispose_now = std::move(logic);
    }
  }
  // Destroyed outside the lock (destructors are foreign code).
}

void EventBus::DrainDeliveries() {
  if (!async() || InHandler()) return;
  executor_->Drain();
}

void EventBus::Publish(Event event) {
  if (async()) {
    PublishAsync(std::move(event), /*front=*/false);
    return;
  }
  // Events are delivered one at a time; events occurring while a handler
  // runs are queued in arrival order (§4.2).
  queue_.push_back(std::move(event));
  queue_size_.fetch_add(1, std::memory_order_relaxed);
  EnsureDispatching();
}

void EventBus::PublishFront(Event event) {
  if (async()) {
    PublishAsync(std::move(event), /*front=*/true);
    return;
  }
  queue_.push_front(std::move(event));
  queue_size_.fetch_add(1, std::memory_order_relaxed);
  EnsureDispatching();
}

void EventBus::PublishAsync(Event event, bool front) {
  // Front-published start events go to the head of the residual queue and
  // gate the application queues until delivered: the replacement logic's
  // fresh start must precede every surviving queued event (§7), across
  // all queues.
  const std::string key = front ? std::string() : QueueKeyOf(event);
  // Context timestamps are sim-time fields. Under a wall-clock executor
  // the delivery thread cannot read the simulation clock, so the start
  // timestamp is stamped here, at publication on the sim thread (a
  // sim-clock executor stamps at delivery, like the serial path).
  if (event.type == Event::Type::kOrcaStart && !executor_->UsesSimTime()) {
    std::get<OrcaStartContext>(event.context).at = sim_->Now();
  }
  bool submit = false;
  {
    common::MutexLock lock(mu_);
    AppQueue& queue = queues_[key];
    AppQueue::Entry entry;
    entry.event = std::move(event);
    entry.gate = front;
    entry.enqueued_at = executor_->NowSeconds();
    if (front) {
      queue.events.push_front(std::move(entry));
      ++gate_depth_;
    } else {
      queue.events.push_back(std::move(entry));
    }
    queue_size_.fetch_add(1, std::memory_order_relaxed);
    if (!queue.active && RunnableLocked(key)) {
      queue.active = true;
      submit = true;
    }
  }
  if (submit) executor_->Submit(key);
}

bool EventBus::RunnableLocked(const std::string& key) const {
  if (logic_ == nullptr) return false;
  return gate_depth_ == 0 || key.empty();
}

void EventBus::SubmitRunnableQueues() {
  std::vector<std::string> submits;
  {
    common::MutexLock lock(mu_);
    for (auto& [key, queue] : queues_) {
      if (!queue.events.empty() && !queue.active && RunnableLocked(key)) {
        queue.active = true;
        submits.push_back(key);
      }
    }
  }
  for (const std::string& key : submits) executor_->Submit(key);
}

QueueStepResult EventBus::RunQueueStep(const std::string& key) {
  // One executor step drains up to max_batch_per_step consecutive events
  // of this queue (Config doc): same per-queue FIFO order, same
  // per-delivery transaction and pacing semantics as budget 1 — the
  // batch only amortizes the executor's ready-queue round trip across a
  // backlog run. Every loop iteration re-checks runnability and pacing
  // under the lock, so a mid-batch gate, logic detach, or owed pacing
  // interval behaves exactly as it would between two separate steps.
  const size_t budget = std::max<size_t>(1, config_.max_batch_per_step);
  QueueStepResult result;
  bool reopened = false;
  for (size_t step = 0; step < budget; ++step) {
    Orchestrator* logic = nullptr;
    Event event;
    bool gate = false;
    bool stop = false;
    {
      common::MutexLock lock(mu_);
      auto it = queues_.find(key);
      if (it == queues_.end()) break;
      AppQueue& queue = it->second;
      if (queue.events.empty() || !RunnableLocked(key)) {
        // Parked: the bus re-Submits when the queue becomes runnable
        // (Publish, set_logic, gate reopen). Deliveries earlier in this
        // batch keep result.kind == kDelivered with more == false.
        queue.active = false;
        result.more = false;
        stop = true;
      } else if (queue.delivered > 0 && config_.dispatch_interval > 0) {
        // Per-queue pacing, enforced relative to THIS queue's last
        // delivery even across its drains (the serial cross-drain rule,
        // applied independently per application queue) — including
        // between two deliveries of this very batch.
        double wait = queue.last_delivery_at + config_.dispatch_interval -
                      executor_->NowSeconds();
        if (wait > 1e-12) {
          result.kind = QueueStepResult::Kind::kWaiting;
          result.retry_delay = wait;
          result.more = false;
          stop = true;  // queue stays active: the executor owes a retry
        }
      }
      if (!stop) {
        logic = logic_;
        // The in-flight reference is taken in the SAME critical section
        // that captures the logic pointer: a concurrently self-replacing
        // handler on another worker must see this delivery when it
        // disposes the outgoing logic, or it could be destroyed before
        // Deliver runs.
        ++inflight_[logic];
        gate = queue.events.front().gate;
        event = std::move(queue.events.front().event);
        queue.events.pop_front();
        queue_size_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    if (stop) break;

    double now = executor_->NowSeconds();
    TransactionId txn = BeginDelivery(event.summary, QueueKeyOf(event), now);
    Deliver(logic, event, now);
    FinishDelivery(logic, txn, executor_->NowSeconds());

    result.kind = QueueStepResult::Kind::kDelivered;
    {
      common::MutexLock lock(mu_);
      AppQueue& queue = queues_[key];
      double end = executor_->NowSeconds();
      double cost = std::max(end - now, 0.0);
      queue.avg_step_cost = queue.delivered == 0
                                ? cost
                                : 0.75 * queue.avg_step_cost + 0.25 * cost;
      queue.last_delivery_at = end;
      ++queue.delivered;
      if (gate && --gate_depth_ == 0) reopened = true;
      if (!queue.events.empty() && RunnableLocked(key)) {
        result.more = true;  // stays active; the executor re-enqueues it
      } else {
        queue.active = false;
        result.more = false;
      }
    }
    // A delivered gate event just reopened the other queues: end the
    // batch so this (residual) queue goes back through the executor and
    // competes with the queues it was holding back.
    if (!result.more || gate) break;
  }
  // The start event is out: wake every application queue it was holding
  // back.
  if (reopened) SubmitRunnableQueues();
  return result;
}

size_t EventBus::PruneFailureEvents(
    const std::function<bool(const std::string& key)>& live) {
  // Runs in the ReplaceLogic/Shutdown window: sim thread, logic detached,
  // deliveries drained — so queues only shrink here, never race a worker.
  size_t dropped = 0;
  auto scrub = [&live](Event& event) {
    // Returns true when the event should be dropped (no live key left).
    auto& matched = event.matched;
    matched.erase(std::remove_if(matched.begin(), matched.end(),
                                 [&live](const std::string& key) {
                                   return !live(key);
                                 }),
                  matched.end());
    return matched.empty();
  };
  if (!async()) {
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (it->type == Event::Type::kPeFailure && scrub(*it)) {
        it = queue_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  } else {
    common::MutexLock lock(mu_);
    for (auto& [key, queue] : queues_) {
      for (auto it = queue.events.begin(); it != queue.events.end();) {
        if (it->event.type == Event::Type::kPeFailure && scrub(it->event)) {
          it = queue.events.erase(it);
          ++dropped;
        } else {
          ++it;
        }
      }
    }
  }
  if (dropped > 0) queue_size_.fetch_sub(dropped, std::memory_order_relaxed);
  return dropped;
}

// --- Queue observability ----------------------------------------------------

double EventBus::QueueWeightOf(const std::string& key) const {
  common::MutexLock lock(mu_);
  auto it = queues_.find(key);
  if (it == queues_.end()) return 0.0;
  // Depth × expected per-delivery cost ≈ outstanding work. The cost
  // floor keeps brand-new queues (no EWMA yet) comparable by depth.
  return static_cast<double>(it->second.events.size()) *
         std::max(it->second.avg_step_cost, 1e-6);
}

std::vector<EventBus::QueueStats> EventBus::QueueStatsSnapshot() const {
  std::vector<QueueStats> stats;
  if (!async()) return stats;
  double now = executor_->NowSeconds();
  {
    common::MutexLock lock(mu_);
    stats.reserve(queues_.size());
    for (const auto& [key, queue] : queues_) {
      QueueStats s;
      s.key = key;
      s.depth = queue.events.size();
      s.delivered = queue.delivered;
      if (!queue.events.empty()) {
        s.backlog_age = std::max(now - queue.events.front().enqueued_at, 0.0);
      }
      s.avg_step_cost = queue.avg_step_cost;
      stats.push_back(std::move(s));
    }
  }
  std::sort(stats.begin(), stats.end(),
            [](const QueueStats& a, const QueueStats& b) {
              return a.key < b.key;
            });
  return stats;
}

size_t EventBus::AppQueueDepth(const std::string& application) const {
  if (!async()) return 0;
  common::MutexLock lock(mu_);
  auto it = queues_.find(application);
  return it == queues_.end() ? 0 : it->second.events.size();
}

double EventBus::AppQueueBacklogAge(const std::string& application) const {
  if (!async()) return 0;
  double now = executor_->NowSeconds();
  common::MutexLock lock(mu_);
  auto it = queues_.find(application);
  if (it == queues_.end() || it->second.events.empty()) return 0;
  return std::max(now - it->second.events.front().enqueued_at, 0.0);
}

void EventBus::PublishMetricsSnapshot(const runtime::MetricsSnapshot& snapshot,
                                      int64_t epoch,
                                      const ShardedScopeRegistry& registry,
                                      const GraphView& graph) {
  // Match the whole round through borrowed views, then build owned
  // contexts for the hits only. Every event is built before the first
  // Publish: the views point into the snapshot and the graph view's job
  // records, which a delivery may outlive.
  auto op_samples = ViewSamples(snapshot.operator_metrics, graph);
  auto pe_samples = ViewSamples(snapshot.pe_metrics, graph);
  auto op_matched = registry.MatchOperatorMetricBatch(op_samples.views, graph);
  auto pe_matched = registry.MatchPeMetricBatch(pe_samples.views);
  std::vector<Event> events;
  AppendHits(op_samples, op_matched, epoch, snapshot.collected_at, &events);
  AppendHits(pe_samples, pe_matched, epoch, snapshot.collected_at, &events);
  for (Event& event : events) Publish(std::move(event));
}

void EventBus::JournalActuation(const std::string& description) {
  TransactionId txn = current_transaction();
  if (txn != 0) txn_log_.RecordActuation(txn, description);
}

void EventBus::JournalActuationFor(TransactionId txn,
                                   const std::string& description) {
  if (txn != 0) txn_log_.RecordActuation(txn, description);
}

// --- Delivery bookkeeping (both modes) --------------------------------------

TransactionId EventBus::BeginDelivery(const std::string& summary,
                                      const std::string& queue_key,
                                      double now) {
  // Each delivery runs inside a transaction (§7 extension): the journal
  // ties the event to every actuation its handler performs.
  TransactionId txn = txn_log_.Begin(summary, queue_key, now);
  tls_delivery = ThreadDelivery{this, txn};
  return txn;
}

void EventBus::FinishDelivery(Orchestrator* logic, TransactionId txn,
                              double now) {
  txn_log_.Commit(txn, now);
  tls_delivery = ThreadDelivery{};
  // Counted once the handler has returned, its staged batch is in the
  // service's mailbox and its transaction is committed: a reader that
  // sees the count also sees everything the delivery did.
  events_delivered_.fetch_add(1, std::memory_order_release);
  std::vector<std::unique_ptr<Orchestrator>> dispose;
  if (!async()) {
    // The handler frame has unwound; logic it retired from inside itself
    // (in-handler ReplaceLogic/Shutdown) can be destroyed now — outside
    // the lock, via `dispose` at scope exit (destructors are foreign
    // code).
    common::MutexLock lock(mu_);
    dispose.swap(retired_logics_);
    return;
  }
  {
    common::MutexLock lock(mu_);
    auto it = inflight_.find(logic);
    if (it != inflight_.end() && --it->second == 0) inflight_.erase(it);
    // Logic retired mid-delivery (in-handler ReplaceLogic/Shutdown, or a
    // main-thread replace while workers deliver) can be destroyed once
    // its last handler frame has unwound. Checked inline, not via a
    // lambda: the thread safety analysis treats a lambda as a separate
    // function and would flag its inflight_ reads as unguarded.
    for (auto& retired : retired_logics_) {
      auto entry = inflight_.find(retired.get());
      bool still_inflight = entry != inflight_.end() && entry->second > 0;
      if (!still_inflight) dispose.push_back(std::move(retired));
    }
    retired_logics_.erase(
        std::remove(retired_logics_.begin(), retired_logics_.end(), nullptr),
        retired_logics_.end());
  }
  // Destroyed outside the lock (destructors are foreign code).
}

// --- Serial dispatch --------------------------------------------------------

void EventBus::EnsureDispatching() {
  if (dispatching_) return;
  dispatching_ = true;
  // The dispatch interval is owed relative to the LAST delivery, not to
  // this Publish: when the queue drained moments ago, the next delivery
  // must still wait out the remainder of the interval instead of firing
  // at delay 0.
  double delay = 0;
  if (events_delivered() > 0) {
    delay = std::max(
        0.0, (last_delivery_at_ + config_.dispatch_interval) - sim_->Now());
  }
  sim_->ScheduleAfter(delay, [this] { DispatchNext(); });
}

void EventBus::DispatchNext() {
  Orchestrator* logic;
  {
    common::MutexLock lock(mu_);
    logic = logic_;
  }
  if (queue_.empty() || logic == nullptr) {
    dispatching_ = false;
    return;
  }
  Event event = std::move(queue_.front());
  queue_.pop_front();
  queue_size_.fetch_sub(1, std::memory_order_relaxed);
  TransactionId txn =
      BeginDelivery(event.summary, QueueKeyOf(event), sim_->Now());
  Deliver(logic, event, sim_->Now());
  FinishDelivery(logic, txn, sim_->Now());
  last_delivery_at_ = sim_->Now();
  if (queue_.empty()) {
    dispatching_ = false;
    return;
  }
  sim_->ScheduleAfter(config_.dispatch_interval, [this] { DispatchNext(); });
}

void EventBus::Deliver(Orchestrator* logic, const Event& event, double now) {
  // Detection→actuation instrumentation: the context carries the event's
  // detection stamp and category so an actuating delivery records one
  // reaction sample — at handler commit in immediate mode (below), at
  // staged-batch apply time in staged mode (ApplyStagedActuations). Start
  // events' detection is their delivery (reaction latency zero by
  // definition); everything else keeps its context detection stamp.
  const bool sim_clock = executor_ == nullptr || executor_->UsesSimTime();
  sim::SimTime detected_at = event.type == Event::Type::kOrcaStart && sim_clock
                                 ? now
                                 : DetectionTimeOf(event);
  // The per-delivery capability object (§3): immediate on the simulation
  // thread (serial / DeterministicExecutor — byte-identical semantics to
  // calling the service directly), staged on wall-clock worker threads
  // (actuations batch up and apply in call order on the sim thread at
  // commit; reads come from the snapshot pinned here, at dispatch).
  OrcaContext orca(service_, this,
                   WallClockAsync() ? OrcaContext::Mode::kStaged
                                    : OrcaContext::Mode::kImmediate,
                   CategoryOf(event.type), detected_at);
  switch (event.type) {
    case Event::Type::kOrcaStart: {
      // The start timestamp is when the logic actually starts running,
      // not when the start event was enqueued (they differ under
      // dispatch_interval pacing or a mid-queue ReplaceLogic). Under a
      // wall-clock executor `now` is not simulation time; the context
      // keeps the publication-time stamp from PublishAsync instead.
      OrcaStartContext context = std::get<OrcaStartContext>(event.context);
      if (executor_ == nullptr || executor_->UsesSimTime()) context.at = now;
      logic->HandleOrcaStart(orca, context);
      break;
    }
    case Event::Type::kOperatorMetric:
      logic->HandleOperatorMetricEvent(
          orca, std::get<OperatorMetricContext>(event.context),
          event.matched);
      break;
    case Event::Type::kPeMetric:
      logic->HandlePeMetricEvent(orca,
                                 std::get<PeMetricContext>(event.context),
                                 event.matched);
      break;
    case Event::Type::kPeFailure:
      logic->HandlePeFailureEvent(orca,
                                  std::get<PeFailureContext>(event.context),
                                  event.matched);
      break;
    case Event::Type::kJobSubmission:
      logic->HandleJobSubmissionEvent(
          orca, std::get<JobEventContext>(event.context), event.matched);
      break;
    case Event::Type::kJobCancellation:
      logic->HandleJobCancellationEvent(
          orca, std::get<JobEventContext>(event.context), event.matched);
      break;
    case Event::Type::kTimer:
      logic->HandleTimerEvent(orca, std::get<TimerContext>(event.context));
      break;
    case Event::Type::kUser:
      logic->HandleUserEvent(orca,
                             std::get<UserEventContext>(event.context),
                             event.matched);
      break;
  }
  // Hand the staged batch to the service's commit mailbox while the
  // delivery transaction is still current (no-op in immediate mode).
  orca.CommitStaged();
  // Immediate mode runs on the simulation thread, so `now` is sim time
  // and the actuations above already applied: record the reaction sample
  // here, at handler completion. (Staged mode records when the batch is
  // applied — see OrcaService::ApplyStagedActuations.)
  if (!WallClockAsync() && service_ != nullptr &&
      orca.immediate_actuation_count() > 0) {
    service_->RecordReactionSample(CategoryOf(event.type), detected_at, now);
  }
}

}  // namespace orcastream::orca
