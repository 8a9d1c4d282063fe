// failure_storm: an open loop of PE kills at one fixed wall-clock rate.
// SAM's failure push crosses the loopback remote event plane into
// OrcaService::IngestPeFailure, a ThreadPool worker's handler reads its
// snapshot and stages RestartPe, and the driver thread applies staged
// actuations until each killed PE runs again.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/wire.h"
#include "orca/orca_context.h"
#include "orca/transaction_log.h"
#include "runtime/pe.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Offered kill rate (kills per wall second); perfbench/README.md gives
/// the calibration.
constexpr double kKillRate = 2000.0;
constexpr double kSmokeKillRate = 100.0;
/// Virtual time one kill's drive advances: SRM detection delay (0.01 s)
/// plus SAM's notification latency (0.001 s), with margin.
constexpr double kDetectDriveSeconds = 0.0111;
/// Sleep step of the idle driver between checks for due kills and staged
/// batches.
constexpr int kIdleSleepUs = 20;
/// After the last window, outstanding kills get this long to complete
/// before they count as failed.
constexpr int64_t kDrainLimitNs = 3'000'000'000;
constexpr char kKillReason[] = "bench-kill";

/// A failure handled by the logic on a worker thread.
struct Handled {
  int64_t pe = 0;
  int64_t entry_ns = 0;
};

/// Shared between the driver and the worker-thread handlers.
struct StormState {
  Tracer* tracer = nullptr;
  const std::vector<std::string>* apps = nullptr;
  std::atomic<bool> started{false};
  std::atomic<uint64_t> handled_count{0};
  std::atomic<uint64_t> unexpected{0};

  std::mutex mu;
  std::vector<Handled> handled;  // guarded by mu
  std::string first_unexpected;  // guarded by mu
};

/// Base scopes on start; on a PE failure, confirm the PE belongs to the
/// job in the delivery's snapshot and restart it (staged).
class StormLogic : public orca::Orchestrator {
 public:
  explicit StormLogic(StormState* state) : state_(state) {}

  void HandleOrcaStart(orca::OrcaContext& orca,
                       const orca::OrcaStartContext&) override {
    RegisterBaseScopes(orca, 1, *state_->apps);
    state_->started = true;
  }

  void HandlePeFailureEvent(orca::OrcaContext& orca,
                            const orca::PeFailureContext& context,
                            const std::vector<std::string>& scopes) override {
    int64_t entry = NowNs();
    {
      Tracer::Span span(*state_->tracer, SpanName::kHandler,
                        static_cast<uint64_t>(context.pe.value()));
      const orca::GraphView::JobRecord* job = orca.graph().FindJob(context.job);
      bool owned = false;
      if (job != nullptr) {
        for (const runtime::PeRecord& pe : job->pes) {
          owned = owned || pe.id == context.pe;
        }
      }
      if (!owned || scopes.size() != 1 ||
          scopes[0] != FailureScopeKey(1, context.application)) {
        std::lock_guard<std::mutex> lock(state_->mu);
        if (state_->unexpected++ == 0) {
          state_->first_unexpected =
              "failure of pe" + std::to_string(context.pe.value()) + " key " +
              (scopes.empty() ? std::string("-") : scopes[0]);
        }
      }
      orca.RestartPe(context.pe);
    }
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->handled.push_back(Handled{context.pe.value(), entry});
    state_->handled_count.fetch_add(1, std::memory_order_release);
  }

 private:
  StormState* state_;
};

/// One scheduled kill and what became of it.
struct Kill {
  int64_t pe = 0;
  int64_t due_ns = 0;
  int64_t ingest_ns = 0;    // TimingSink stamp: ingest returned
  int64_t entry_ns = 0;     // handler entry
  int64_t done_ns = 0;      // end of the apply after which the PE ran
  int side = 0;             // window side of its due time (1 = traced)
  int handled = 0;          // handler invocations seen for it
  bool done = false;
};

/// The seeded kill order: shuffled passes over every PE.
std::vector<int64_t> KillOrder(const std::vector<int64_t>& pes, size_t length,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> order;
  order.reserve(length);
  std::vector<int64_t> pass = pes;
  while (order.size() < length) {
    for (size_t i = pass.size(); i > 1; --i) {
      std::swap(pass[i - 1], pass[rng.Below(i)]);
    }
    order.insert(order.end(), pass.begin(), pass.end());
  }
  order.resize(length);
  return order;
}

/// Replays notices through the wire codec, outside any timed window:
/// {encode ns/event, decode ns/event, bytes/event}.
struct CodecReplay {
  double encode_ns = 0;
  double decode_ns = 0;
  double bytes = 0;
  bool ok = true;
};
CodecReplay ReplayCodec(Fleet& fleet, const std::vector<Kill>& kills) {
  std::vector<runtime::PeFailureNotice> notices;
  for (size_t i = 0; i < kills.size() && notices.size() < 2000; ++i) {
    int64_t pe = kills[i].pe;
    const std::string& app = fleet.app_of_pe().at(pe);
    auto job = fleet.service().RunningJob(app);
    const runtime::JobInfo* info = fleet.sam().FindJob(job.value());
    for (const runtime::PeRecord& record : info->pes) {
      if (record.id.value() != pe) continue;
      notices.push_back(runtime::PeFailureNotice{
          info->id, info->app_name, record.id, record.host, kKillReason,
          static_cast<double>(i) * kDetectDriveSeconds, record.operators});
    }
  }
  CodecReplay out;
  if (notices.empty()) return out;
  std::vector<std::vector<uint8_t>> payloads;
  payloads.reserve(notices.size());
  int64_t t0 = NowNs();
  for (size_t i = 0; i < notices.size(); ++i) {
    payloads.push_back(orcastream::net::EncodePeFailureEvent(i + 1, notices[i]));
  }
  int64_t t1 = NowNs();
  size_t bytes = 0;
  for (size_t i = 0; i < payloads.size(); ++i) {
    orcastream::net::EventMsg message;
    auto status = orcastream::net::DecodeEvent(payloads[i], &message);
    out.ok = out.ok && status.ok() && message.failure.pe == notices[i].pe;
    bytes += payloads[i].size();
  }
  int64_t t2 = NowNs();
  double n = static_cast<double>(notices.size());
  out.encode_ns = static_cast<double>(t1 - t0) / n;
  out.decode_ns = static_cast<double>(t2 - t1) / n;
  out.bytes = static_cast<double>(bytes) / n;
  return out;
}

}  // namespace

Report RunFailureStorm(const Options& options, Tracer* tracer) {
  Report report;
  AddLayerDefaults(&report);
  StormState state;
  state.tracer = tracer;

  FleetParams params;
  params.apps = options.smoke ? 16 : 128;
  params.dispatch_threads = 2;
  params.remote = true;
  const double rate = options.smoke ? kSmokeKillRate : kKillRate;

  const std::vector<std::string> apps = AppNames(params.apps);
  state.apps = &apps;
  std::unique_ptr<Fleet> fleet = SetUpFleet(
      params, tracer, SetupRepetitions(options),
      [&]() -> std::unique_ptr<orca::Orchestrator> {
        state.started = false;
        return std::make_unique<StormLogic>(&state);
      },
      [&] { return state.started.load(); }, &report);
  if (fleet == nullptr) return report;
  report.Param("kill_rate_per_s", rate);
  report.Param("detect_drive_virtual_s", kDetectDriveSeconds);

  orca::OrcaService& service = fleet->service();
  orcastream::sim::Simulation& sim = fleet->sim();
  runtime::Sam& sam = fleet->sam();
  TimingSink& sink = *fleet->timing_sink();
  tracer->set_driver_thread(std::this_thread::get_id());

  // Inputs: the kill order, long enough for every due time plus skips.
  std::vector<int64_t> all_pes;
  for (const auto& [pe, app] : fleet->app_of_pe()) all_pes.push_back(pe);
  const size_t planned_kills =
      static_cast<size_t>(rate * options.seconds) + 1;
  std::vector<int64_t> order =
      KillOrder(all_pes, planned_kills * 2 + all_pes.size(), options.seed);
  report.Param("planned_kills", static_cast<double>(planned_kills));

  std::vector<Kill> kills;
  kills.reserve(planned_kills);
  std::map<int64_t, size_t> outstanding;  // pe -> kill index
  size_t cursor = 0;
  size_t handled_seen = 0;
  const int64_t interval_ns = static_cast<int64_t>(1e9 / rate);
  std::vector<double> late_ms;
  std::vector<double> apply_us;
  uint64_t apply_calls = 0, apply_actuations = 0;
  int64_t apply_ns = 0;
  size_t unacked_max = 0, queue_depth_max = 0;
  uint64_t sim_events_traced = 0;
  double wall_s[2] = {0, 0};
  uint64_t completed_in[2] = {0, 0};

  // Pulls newly handled failures from the workers and matches each to
  // its outstanding kill.
  auto collect_handled = [&] {
    std::vector<Handled> fresh;
    {
      std::lock_guard<std::mutex> lock(state.mu);
      fresh.assign(state.handled.begin() + handled_seen, state.handled.end());
    }
    handled_seen += fresh.size();
    for (const Handled& h : fresh) {
      auto it = outstanding.find(h.pe);
      if (it == outstanding.end() || kills[it->second].handled > 0) {
        report.Mismatch("pe" + std::to_string(h.pe) +
                        " failure handled without an outstanding kill");
        ++report.failed;
        continue;
      }
      Kill& kill = kills[it->second];
      kill.handled = 1;
      kill.entry_ns = h.entry_ns;
    }
  };
  // After an apply: every handled outstanding PE that runs again is done.
  auto complete = [&](int64_t applied_at, int side, bool in_window) {
    for (auto it = outstanding.begin(); it != outstanding.end();) {
      Kill& kill = kills[it->second];
      runtime::Pe* pe = sam.FindPe(orcastream::common::PeId(kill.pe));
      if (kill.handled > 0 && pe != nullptr && pe->running()) {
        kill.done = true;
        kill.done_ns = applied_at;
        if (in_window) ++completed_in[side];
        it = outstanding.erase(it);
      } else {
        ++it;
      }
    }
  };
  auto apply = [&](int side, bool traced, bool in_window) {
    size_t applied;
    int64_t begin = NowNs();
    {
      Tracer::Span span(*tracer, SpanName::kApply);
      applied = service.ApplyStagedActuations();
    }
    int64_t end = NowNs();
    Tracer::Span span(*tracer, SpanName::kCheck);
    if (applied > 0 && traced) {
      ++apply_calls;
      apply_actuations += applied;
      apply_ns += end - begin;
      apply_us.push_back(static_cast<double>(end - begin) / 1e3);
    }
    collect_handled();
    complete(end, side, in_window);
    return applied;
  };

  auto staged = [&] {
    return !outstanding.empty() && service.staged_actuations_pending() > 0;
  };

  int64_t next_due = NowNs();
  for (const Window& window : WindowPlan(options)) {
    const int side = window.traced ? 1 : 0;
    tracer->set_enabled(window.traced);
    uint64_t sim_before = sim.executed_events();
    int64_t begin = NowNs();
    int64_t deadline = begin + static_cast<int64_t>(window.seconds * 1e9);
    for (;;) {
      int64_t now = NowNs();
      if (now >= deadline) break;
      // A kill is due unless every PE already has a failure outstanding
      // (then it waits, and its lateness shows in gen.late_p99_ms).
      if (now >= next_due && kills.size() < planned_kills &&
          outstanding.size() < all_pes.size()) {
        // Next PE in seeded order that has no failure outstanding.
        while (outstanding.count(order[cursor % order.size()]) > 0) ++cursor;
        Kill kill;
        kill.pe = order[cursor++ % order.size()];
        kill.due_ns = next_due;
        kill.side = side;
        if (window.traced) {
          late_ms.push_back(static_cast<double>(now - next_due) / 1e6);
        }
        const uint64_t request = kills.size() + 1;
        {
          Tracer::Span span(*tracer, SpanName::kKill, request);
          auto status = sam.KillPe(orcastream::common::PeId(kill.pe),
                                   kKillReason);
          if (!status.ok()) report.Mismatch("KillPe: " + status.ToString());
        }
        {
          Tracer::Span span(*tracer, SpanName::kDetectDrive, request);
          sim.RunFor(kDetectDriveSeconds);
        }
        Tracer::Span span(*tracer, SpanName::kCheck, request);
        auto ingested = sink.ingested_at().find(kill.pe);
        kill.ingest_ns =
            ingested == sink.ingested_at().end() ? 0 : ingested->second;
        if (window.traced) {
          unacked_max = std::max(unacked_max, fleet->bridge()->sink().unacked());
          queue_depth_max = std::max(queue_depth_max, service.queue_depth());
        }
        outstanding[kill.pe] = kills.size();
        kills.push_back(kill);
        next_due += interval_ns;
        continue;
      }
      // Apply as soon as a handler's staged batch has been committed.
      if (staged()) {
        apply(side, window.traced, true);
        continue;
      }
      // Idle: sleep in short steps (a spinning driver would compete with
      // the workers for a core) until a kill is due or a batch is staged.
      Tracer::Span span(*tracer, SpanName::kIdle);
      const int64_t wake = std::min(next_due, deadline);
      while (NowNs() < wake && !staged()) {
        std::this_thread::sleep_for(std::chrono::microseconds(kIdleSleepUs));
      }
    }
    wall_s[side] += static_cast<double>(NowNs() - begin) / 1e9;
    if (window.traced) sim_events_traced += sim.executed_events() - sim_before;
  }
  tracer->set_enabled(false);

  // Drain: outstanding kills get a bounded grace period to complete.
  int64_t drain_deadline = NowNs() + kDrainLimitNs;
  while (!outstanding.empty() && NowNs() < drain_deadline) {
    service.DrainDeliveries();
    if (apply(0, false, false) == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  // --- Correctness ---------------------------------------------------------
  collect_handled();
  uint64_t not_done = 0;
  std::map<std::string, std::vector<int64_t>> kill_order_by_app;
  for (const Kill& kill : kills) {
    kill_order_by_app[fleet->app_of_pe().at(kill.pe)].push_back(kill.pe);
    runtime::Pe* pe = sam.FindPe(orcastream::common::PeId(kill.pe));
    if (!kill.done || kill.handled != 1 || pe == nullptr || !pe->running()) {
      ++not_done;
    }
  }
  if (not_done > 0) {
    report.Mismatch(std::to_string(not_done) + " of " +
                    std::to_string(kills.size()) +
                    " killed PEs not handled once and running at the end");
  }
  if (state.handled_count.load() != kills.size()) {
    report.Mismatch(std::to_string(state.handled_count.load()) +
                    " failures handled for " + std::to_string(kills.size()) +
                    " kills");
  }
  if (state.unexpected.load() > 0) {
    std::lock_guard<std::mutex> lock(state.mu);
    report.Mismatch(std::to_string(state.unexpected.load()) +
                    " unexpected deliveries, first: " +
                    state.first_unexpected);
  }
  // Each app's committed restartPe transactions follow its kill order.
  const orca::TransactionLog& journal = service.transactions();
  std::map<std::string, std::vector<int64_t>> restarts_by_app;
  uint64_t failed_entries = 0;
  const std::string restart = "restartPe(";
  for (const orca::TransactionLog::Record* record : journal.records()) {
    for (const std::string& actuation : record->actuations) {
      if (actuation.compare(0, 7, "failed:") == 0) ++failed_entries;
      if (record->state != orca::TransactionLog::State::kCommitted ||
          actuation.compare(0, restart.size(), restart) != 0) {
        continue;
      }
      int64_t pe = std::stoll(actuation.substr(restart.size()));
      auto owner = fleet->app_of_pe().find(pe);
      if (owner == fleet->app_of_pe().end() || owner->second != record->queue_key) {
        report.Mismatch("restartPe(" + std::to_string(pe) + ") on lane " +
                        record->queue_key);
        continue;
      }
      restarts_by_app[owner->second].push_back(pe);
    }
  }
  if (restarts_by_app != kill_order_by_app) {
    report.Mismatch("committed restartPe order differs from kill order");
  }
  if (failed_entries > 0) {
    report.Mismatch(std::to_string(failed_entries) + " failed: journal entries");
  }
  report.attempted = kills.size();
  report.failed += not_done + failed_entries + state.unexpected.load();

  // --- End-to-end metrics (untraced windows) -------------------------------
  GroupedSamples reactions[2];
  std::vector<double> queue_wait_us;
  for (const Kill& kill : kills) {
    double ms = kill.done
                    ? static_cast<double>(kill.done_ns - kill.due_ns) / 1e6
                    : kInfinite;
    reactions[kill.side].Add(ms);
    if (kill.side == 1 && kill.handled > 0 && kill.ingest_ns > 0) {
      queue_wait_us.push_back(
          std::max<double>(0, static_cast<double>(kill.entry_ns -
                                                  kill.ingest_ns) /
                                  1e3));
    }
  }
  report.E2e("throughput_eps",
             wall_s[0] > 0 ? static_cast<double>(completed_in[0]) / wall_s[0]
                           : 0,
             "1/s");
  report.E2eLatency("reaction_p50_ms", reactions[0], 50, "ms");
  report.E2eLatency("reaction_p90_ms", reactions[0], 90, "ms");
  report.Layer("reaction_p99_ms", reactions[0].MedianOfGroups(99).value, "ms");
  report.E2e("peak_rss_mb", PeakRssMb(), "MB");
  report.Detail("kills", static_cast<double>(kills.size()), "count");
  report.Detail("notices", static_cast<double>(sink.notices()), "count");

  // --- Per-layer metrics ------------------------------------------------------
  if (options.trace) {
    auto per = [](double total, double count) {
      return count > 0 ? total / count : 0;
    };
    SpanTotals handler = tracer->totals(SpanName::kHandler);
    SpanTotals kill_span = tracer->totals(SpanName::kKill);
    SpanTotals drive = tracer->totals(SpanName::kDetectDrive);
    report.Layer("orca.registry.hit_ratio",
                 per(static_cast<double>(state.handled_count.load()),
                     static_cast<double>(sink.notices())),
                 "ratio");
    report.Layer("orca.handler.ns_per_delivery",
                 per(static_cast<double>(handler.total_ns),
                     static_cast<double>(handler.count)),
                 "ns");
    report.Layer("orca.bus.queue_depth_max",
                 static_cast<double>(queue_depth_max), "count");
    Percentile wait50 = PercentileOfUnsorted(queue_wait_us, 50);
    Percentile wait99 = PercentileOfUnsorted(queue_wait_us, 99);
    report.Layer("orca.bus.queue_wait_us_p50", wait50.value, "us");
    report.Layer("orca.bus.queue_wait_us_p99", wait99.value, "us");
    report.Layer("orca.apply.us_per_call_p50",
                 PercentileOfUnsorted(apply_us, 50).value, "us");
    report.Layer("orca.apply.calls", static_cast<double>(apply_calls),
                 "count");
    report.Layer("orca.apply.actuations_per_call",
                 per(static_cast<double>(apply_actuations),
                     static_cast<double>(apply_calls)),
                 "count");
    report.Layer("orca.apply.busy_frac",
                 per(static_cast<double>(apply_ns) / 1e9, wall_s[1]), "ratio");
    CodecReplay codec = ReplayCodec(*fleet, kills);
    if (!codec.ok) report.Mismatch("wire codec replay did not round-trip");
    report.Layer("net.encode_ns_per_event", codec.encode_ns, "ns");
    report.Layer("net.decode_ns_per_event", codec.decode_ns, "ns");
    report.Layer("net.bytes_per_event", codec.bytes, "bytes");
    report.Layer("net.sessions",
                 static_cast<double>(
                     fleet->bridge()->sink().sessions_established()),
                 "count");
    report.Layer("net.unacked_max", static_cast<double>(unacked_max), "count");
    report.Layer("runtime.kill_us",
                 per(static_cast<double>(kill_span.total_ns) / 1e3,
                     static_cast<double>(kill_span.count)),
                 "us");
    report.Layer("runtime.detect_drive_us",
                 per(static_cast<double>(drive.total_ns) / 1e3,
                     static_cast<double>(drive.count)),
                 "us");
    report.Layer("gen.late_p99_ms", PercentileOfUnsorted(late_ms, 99).value,
                 "ms");
    report.Layer("sim.executed_events", static_cast<double>(sim_events_traced),
                 "count");
    AddTraceAccounting(*tracer, wall_s[1], &report);

    double untraced_tput = per(static_cast<double>(completed_in[0]), wall_s[0]);
    double traced_tput = per(static_cast<double>(completed_in[1]), wall_s[1]);
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

}  // namespace perfbench
