#include "orca/scope_matcher.h"

#include <algorithm>

namespace orcastream::orca {

namespace {

/// Empty filter = wildcard; otherwise disjunction over the entries.
bool Disjunct(const std::vector<std::string>& filter,
              const std::string& value) {
  if (filter.empty()) return true;
  return std::find(filter.begin(), filter.end(), value) != filter.end();
}

/// Disjunction where the event contributes a *set* of values (e.g. the
/// containment chain of composite instances): matches if any filter entry
/// matches any value.
bool DisjunctAny(const std::vector<std::string>& filter,
                 const std::vector<std::string>& values) {
  if (filter.empty()) return true;
  for (const auto& value : values) {
    if (std::find(filter.begin(), filter.end(), value) != filter.end()) {
      return true;
    }
  }
  return false;
}

}  // namespace

bool MatchOperatorMetric(const OperatorMetricScope& scope,
                         const OperatorMetricSample& sample,
                         const GraphView& graph) {
  // Port-level vs operator-level samples.
  bool is_port_sample = sample.port >= 0;
  switch (scope.port_scope()) {
    case OperatorMetricScope::PortScope::kOperatorLevel:
      if (is_port_sample) return false;
      break;
    case OperatorMetricScope::PortScope::kPortLevel:
      if (!is_port_sample) return false;
      break;
    case OperatorMetricScope::PortScope::kBoth:
      break;
  }

  if (!Disjunct(scope.applications(), sample.application)) return false;
  if (!Disjunct(scope.operator_names(), sample.instance_name)) return false;
  if (!Disjunct(scope.metric_names(), sample.metric)) return false;
  if (scope.has_kind_filter() && scope.metric_kind() != sample.metric_kind) {
    return false;
  }
  if (!Disjunct(scope.operator_types(), sample.operator_kind)) return false;

  if (!scope.composite_types().empty() ||
      !scope.composite_instances().empty()) {
    auto chain = graph.EnclosingComposites(sample.job, sample.instance_name);
    if (!chain.ok()) return false;
    if (!DisjunctAny(scope.composite_instances(), chain.value())) return false;
    if (!scope.composite_types().empty()) {
      std::vector<std::string> kinds;
      for (const auto& instance : chain.value()) {
        auto kind = graph.CompositeKind(sample.job, instance);
        if (kind.ok()) kinds.push_back(kind.value());
      }
      if (!DisjunctAny(scope.composite_types(), kinds)) return false;
    }
  }
  return true;
}

bool MatchOperatorMetric(const OperatorMetricScope& scope,
                         const OperatorMetricContext& context,
                         const GraphView& graph) {
  return MatchOperatorMetric(scope, SampleOf(context), graph);
}

bool MatchPeMetric(const PeMetricScope& scope, const PeMetricSample& sample) {
  if (!Disjunct(scope.applications(), sample.application)) return false;
  if (!Disjunct(scope.metric_names(), sample.metric)) return false;
  if (!scope.pes().empty() &&
      std::find(scope.pes().begin(), scope.pes().end(), sample.pe) ==
          scope.pes().end()) {
    return false;
  }
  return true;
}

bool MatchPeMetric(const PeMetricScope& scope,
                   const PeMetricContext& context) {
  return MatchPeMetric(scope, SampleOf(context));
}

bool MatchPeFailure(const PeFailureScope& scope,
                    const PeFailureContext& context, const GraphView& graph) {
  if (!Disjunct(scope.applications(), context.application)) return false;
  if (!Disjunct(scope.reasons(), context.reason)) return false;
  if (!scope.composite_types().empty()) {
    // The PE matches if any hosted operator is enclosed in a composite of
    // a filtered type.
    std::vector<std::string> kinds;
    for (const auto& op_name : context.operators) {
      auto chain = graph.EnclosingComposites(context.job, op_name);
      if (!chain.ok()) continue;
      for (const auto& instance : chain.value()) {
        auto kind = graph.CompositeKind(context.job, instance);
        if (kind.ok()) kinds.push_back(kind.value());
      }
    }
    if (!DisjunctAny(scope.composite_types(), kinds)) return false;
  }
  return true;
}

bool MatchJobEvent(const JobEventScope& scope, const JobEventContext& context,
                   bool is_submission) {
  switch (scope.kind()) {
    case JobEventScope::Kind::kSubmission:
      if (!is_submission) return false;
      break;
    case JobEventScope::Kind::kCancellation:
      if (is_submission) return false;
      break;
    case JobEventScope::Kind::kBoth:
      break;
  }
  return Disjunct(scope.applications(), context.application);
}

bool MatchUserEvent(const UserEventScope& scope,
                    const UserEventContext& context) {
  return Disjunct(scope.names(), context.name);
}

}  // namespace orcastream::orca
