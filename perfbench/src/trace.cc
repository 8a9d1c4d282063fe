#include "trace.h"

#include <cstdio>

namespace perfbench {

namespace {

struct OpenSpan {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t child_ns = 0;
  SpanName name = SpanName::kCount;
};

/// Open spans of the calling thread, innermost last.
thread_local std::vector<OpenSpan> open_spans;

/// Names whose individual durations are kept for percentiles.
bool KeepsDurations(SpanName name) {
  return name == SpanName::kApply || name == SpanName::kMutation ||
         name == SpanName::kReplace;
}

}  // namespace

const char* SpanNameOf(SpanName name) {
  switch (name) {
    case SpanName::kIngest:
      return "orca.ingest";
    case SpanName::kDrive:
      return "sim.drive";
    case SpanName::kHandler:
      return "orca.handler";
    case SpanName::kMutation:
      return "orca.registry.mutation";
    case SpanName::kReplace:
      return "orca.service.replace";
    case SpanName::kKill:
      return "runtime.kill";
    case SpanName::kDetectDrive:
      return "runtime.detect_drive";
    case SpanName::kTransport:
      return "net.transport";
    case SpanName::kApply:
      return "orca.apply";
    case SpanName::kIdle:
      return "gen.idle";
    case SpanName::kCheck:
      return "bench.check";
    case SpanName::kCount:
      break;
  }
  return "?";
}

Tracer::Span::Span(Tracer& tracer, SpanName name, uint64_t request)
    : tracer_(tracer.enabled() ? &tracer : nullptr) {
  if (tracer_ != nullptr) tracer_->Begin(name, request);
}

Tracer::Span::~Span() {
  if (tracer_ != nullptr) tracer_->End();
}

void Tracer::Begin(SpanName name, uint64_t request) {
  OpenSpan span;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent = open_spans.empty() ? 0 : open_spans.back().id;
  span.request = request;
  span.name = name;
  span.start_ns = NowNs();
  open_spans.push_back(span);
}

void Tracer::End() {
  int64_t end = NowNs();
  OpenSpan span = open_spans.back();
  open_spans.pop_back();
  int64_t duration = end - span.start_ns;
  if (!open_spans.empty()) open_spans.back().child_ns += duration;
  // Bench bookkeeping is not a layer of the program: it stays out of
  // coverage and shows as unaccounted time.
  bool top_level_on_driver = span.parent == 0 &&
                             span.name != SpanName::kCheck &&
                             std::this_thread::get_id() == driver_;

  std::lock_guard<std::mutex> lock(mu_);
  SpanTotals& totals = totals_[static_cast<size_t>(span.name)];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration - span.child_ns;
  if (KeepsDurations(span.name)) {
    durations_us_[static_cast<size_t>(span.name)].push_back(
        static_cast<double>(duration) / 1e3);
  }
  if (top_level_on_driver) driver_top_ns_ += duration;
  ++recorded_;
  if (kept_.size() < kept_limit_) {
    kept_.push_back(SpanRecord{span.id, span.parent, span.request,
                               span.start_ns, end, span.name});
  }
}

SpanTotals Tracer::totals(SpanName name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_[static_cast<size_t>(name)];
}

std::vector<double> Tracer::durations_us(SpanName name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return durations_us_[static_cast<size_t>(name)];
}

int64_t Tracer::driver_top_level_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return driver_top_ns_;
}

uint64_t Tracer::spans_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

size_t Tracer::spans_kept() const {
  std::lock_guard<std::mutex> lock(mu_);
  return kept_.size();
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const SpanRecord& span : kept_) {
    std::fprintf(out,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request),
                 SpanNameOf(span.name), static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
