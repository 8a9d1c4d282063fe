#include "report.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace perfbench {

namespace {

/// JSON has no infinity; a reaction that never completed (or any other
/// non-finite value) prints as this sentinel, and the run is then already
/// marked incorrect with failed > 0.
constexpr double kInfiniteSentinel = 1e300;

std::string Number(double value) {
  if (!std::isfinite(value)) value = kInfiniteSentinel;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsObject(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(metrics[i].name) + ": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": " +
           Quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

void Report::Layer(std::string name, double value, std::string unit) {
  for (Metric& metric : layer) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = std::move(unit);
      return;
    }
  }
  layer.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Report::Param(std::string name, double value) {
  params.emplace_back(std::move(name), Number(value));
}

void Report::Param(std::string name, const std::string& value) {
  params.emplace_back(std::move(name), Quote(value));
}

void Report::E2eLatency(const std::string& name, const GroupedSamples& samples,
                        double requested, const std::string& unit) {
  Percentile grouped = samples.MedianOfGroups(requested);
  Percentile overall = samples.Overall(requested);
  E2e(name, grouped.value, unit);
  Detail(name + ".samples", static_cast<double>(samples.size()), "count");
  Detail(name + ".groups", static_cast<double>(samples.groups()), "count");
  Detail(name + ".percentile_used", grouped.used, "%");
  Detail(name + ".whole_run", overall.value, unit);
  if (!grouped.supported) {
    Mismatch(name + ": fewer than " + std::to_string(kTailSupport + 1) +
             " samples");
  }
}

double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

void PrintReport(const Report& report, const Options& options, bool traced) {
  std::string detail = "{\"detail\": {\"workload\": " +
                       Quote(options.workload) +
                       ", \"seed\": " + std::to_string(options.seed) +
                       ", \"seconds\": " + Number(options.seconds) +
                       ", \"trace\": " + (traced ? "1" : "0") +
                       ", \"smoke\": " + (options.smoke ? "true" : "false") +
                       ", \"params\": {";
  for (size_t i = 0; i < report.params.size(); ++i) {
    if (i > 0) detail += ", ";
    detail += Quote(report.params[i].first) + ": " + report.params[i].second;
  }
  detail += "}, \"counts\": " + MetricsObject(report.detail) +
            ", \"mismatches\": [";
  for (size_t i = 0; i < report.mismatches.size(); ++i) {
    if (i > 0) detail += ", ";
    detail += Quote(report.mismatches[i]);
  }
  detail += "]}}";
  std::printf("%s\n", detail.c_str());

  const std::vector<Metric>& metrics = traced ? report.layer : report.e2e;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              MetricsObject(metrics).c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
