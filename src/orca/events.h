#ifndef ORCASTREAM_ORCA_EVENTS_H_
#define ORCASTREAM_ORCA_EVENTS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/ids.h"
#include "runtime/metrics.h"
#include "sim/simulation.h"

namespace orcastream::orca {

/// Event contexts (§4.2): each event the ORCA service delivers carries a
/// context — "a slice of the application runtime information in which the
/// event occurs" — with the minimum information required to characterize
/// the event. The ORCA logic can use contexts to further query the ORCA
/// service's graph view and disambiguate the logical/physical mapping.

/// Delivered once when the orchestrator starts; the only event that is
/// always in scope (§4.1).
struct OrcaStartContext {
  sim::SimTime at = 0;
};

/// An operator (or operator-port) metric sample crossing the registered
/// scope. `epoch` increments on every SRM pull round and acts as a logical
/// clock: metrics sharing an epoch were measured in the same round (§4.2).
struct OperatorMetricContext {
  common::JobId job;
  std::string application;
  common::PeId pe;
  /// Fully-qualified operator instance name (the paper's instanceName).
  std::string instance_name;
  /// Operator type (kind).
  std::string operator_kind;
  std::string metric;
  runtime::MetricKind metric_kind = runtime::MetricKind::kBuiltin;
  int64_t value = 0;
  /// -1 for operator-level metrics, the port index for port metrics.
  int32_t port = -1;
  bool output_port = false;
  int64_t epoch = 0;
  sim::SimTime collected_at = 0;
};

/// A PE-level metric sample crossing the registered scope.
struct PeMetricContext {
  common::JobId job;
  std::string application;
  common::PeId pe;
  std::string metric;
  runtime::MetricKind metric_kind = runtime::MetricKind::kBuiltin;
  int64_t value = 0;
  int64_t epoch = 0;
  sim::SimTime collected_at = 0;
};

/// Borrowed views of a metric sample: only the fields subscope matching
/// reads, referring into storage someone else owns — an SRM snapshot
/// record and the graph view's JobRecord on the snapshot path, or a
/// context (SampleOf). A snapshot round matches every sample through a
/// view and builds an owned context only for the samples that hit a
/// subscope. A view must not outlive what it refers to.
struct OperatorMetricSample {
  common::JobId job;
  const std::string& application;
  const std::string& instance_name;
  const std::string& operator_kind;
  const std::string& metric;
  runtime::MetricKind metric_kind;
  int32_t port;
};

struct PeMetricSample {
  common::JobId job;
  const std::string& application;
  common::PeId pe;
  const std::string& metric;
};

inline OperatorMetricSample SampleOf(const OperatorMetricContext& context) {
  return {context.job,           context.application, context.instance_name,
          context.operator_kind, context.metric,      context.metric_kind,
          context.port};
}

inline PeMetricSample SampleOf(const PeMetricContext& context) {
  return {context.job, context.application, context.pe, context.metric};
}

// A view of a temporary would dangle at the end of the full expression.
OperatorMetricSample SampleOf(OperatorMetricContext&&) = delete;
PeMetricSample SampleOf(PeMetricContext&&) = delete;

/// A PE failure notification (§4.2): pushed by SAM with the PE id,
/// detection timestamp and crash reason. The epoch groups failure events
/// stemming from the same physical incident (e.g. one host failure
/// crashing several PEs).
struct PeFailureContext {
  common::JobId job;
  std::string application;
  common::PeId pe;
  common::HostId host;
  std::string reason;
  sim::SimTime detected_at = 0;
  int64_t epoch = 0;
  /// Operators hosted by the failed PE.
  std::vector<std::string> operators;
};

/// Job lifecycle events generated by the ORCA service itself (§4.1) after
/// every application submission / cancellation it performs.
struct JobEventContext {
  common::JobId job;
  std::string application;
  /// The AppConfig id the job was submitted under (§4.4).
  std::string config_id;
  sim::SimTime at = 0;
};

/// Expiration of a timer created through the ORCA service.
struct TimerContext {
  common::TimerId id;
  std::string name;
  sim::SimTime at = 0;
};

/// A user-generated event injected via the command tool (§3).
struct UserEventContext {
  std::string name;
  std::map<std::string, std::string> attributes;
  sim::SimTime at = 0;
};

}  // namespace orcastream::orca

#endif  // ORCASTREAM_ORCA_EVENTS_H_
