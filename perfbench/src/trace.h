#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds; every bench timing reads it.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The layer boundaries the benchmark times, from its own code, around
/// its calls into the program.
enum class SpanName : uint8_t {
  kIngest,       ///< OrcaService::IngestMetricsSnapshot
  kDrive,        ///< sim drive that dispatches a round's deliveries
  kHandler,      ///< the bench logic's handler body
  kMutation,     ///< OrcaContext Register/UnregisterEventScope in a handler
  kReplace,      ///< OrcaService::ReplaceLogic + the fresh start's drive
  kKill,         ///< Sam::KillPe
  kDetectDrive,  ///< sim drive: SRM detection -> SAM -> net -> ingest
  kTransport,    ///< RemoteEventSink::OnPeFailure (encode, frame, ingest)
  kApply,        ///< OrcaService::ApplyStagedActuations
  kIdle,         ///< open-loop generator waiting for the next due time
  kCheck,        ///< bench bookkeeping between calls (completion checks)
  kCount,
};

const char* SpanNameOf(SpanName name);

/// One finished span: name, start, end, the span that caused it (0 for
/// none) and the request (round, kill) it belongs to.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanName name = SpanName::kCount;
};

/// Per-name aggregate over every span recorded while tracing was on.
/// Self time is the span's duration minus the part its child spans cover.
struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

/// In-memory span recorder. Spans are recorded only while enabled; the
/// first `kept_limit` are kept for the trace file, every span feeds the
/// per-name totals. Parents are tracked per thread, so a handler span on
/// a worker thread has no parent and a mutation inside it has the
/// handler as parent. Thread-safe.
class Tracer {
 public:
  explicit Tracer(size_t kept_limit = 200000) : kept_limit_(kept_limit) {}

  /// Toggled by the driver thread between measurement windows. Release /
  /// acquire: a worker that sees tracing on also sees the driver thread id
  /// set before it.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }
  /// Top-level spans ended on this thread count toward wall coverage. Set
  /// before tracing is first enabled.
  void set_driver_thread(std::thread::id id) { driver_ = id; }

  /// RAII span; a no-op when tracing is off at construction.
  class Span {
   public:
    Span(Tracer& tracer, SpanName name, uint64_t request = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
  };

  SpanTotals totals(SpanName name) const;
  /// Durations (µs) of every span of `name` recorded while enabled.
  std::vector<double> durations_us(SpanName name) const;
  /// Sum of top-level span durations on the driver thread, bench
  /// bookkeeping (kCheck) left out.
  int64_t driver_top_level_ns() const;
  uint64_t spans_recorded() const;
  size_t spans_kept() const;

  /// Writes the kept spans as JSON lines. Returns false on I/O failure.
  bool WriteJsonl(const std::string& path) const;

 private:
  void Begin(SpanName name, uint64_t request);
  void End();

  const size_t kept_limit_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::thread::id driver_;

  mutable std::mutex mu_;
  std::vector<SpanRecord> kept_;
  std::array<SpanTotals, static_cast<size_t>(SpanName::kCount)> totals_{};
  std::array<std::vector<double>, static_cast<size_t>(SpanName::kCount)>
      durations_us_;
  int64_t driver_top_ns_ = 0;
  uint64_t recorded_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
