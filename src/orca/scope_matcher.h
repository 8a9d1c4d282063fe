#ifndef ORCASTREAM_ORCA_SCOPE_MATCHER_H_
#define ORCASTREAM_ORCA_SCOPE_MATCHER_H_

#include "orca/event_scope.h"
#include "orca/events.h"
#include "orca/graph_view.h"

namespace orcastream::orca {

/// Subscope matching (§4.1): filters on the same attribute are disjunctive,
/// filters on different attributes are conjunctive, and composite-type /
/// composite-instance filters match through arbitrarily nested containment
/// (evaluated against the graph view — the paper shows the equivalent SQL
/// needing a recursive query; `baseline::SqlScopeEval` reproduces that
/// formulation and the property tests check both agree).

/// The metric matchers read a borrowed sample view; the context
/// overloads adapt through SampleOf.
bool MatchOperatorMetric(const OperatorMetricScope& scope,
                         const OperatorMetricSample& sample,
                         const GraphView& graph);
bool MatchOperatorMetric(const OperatorMetricScope& scope,
                         const OperatorMetricContext& context,
                         const GraphView& graph);

bool MatchPeMetric(const PeMetricScope& scope, const PeMetricSample& sample);
bool MatchPeMetric(const PeMetricScope& scope, const PeMetricContext& context);

bool MatchPeFailure(const PeFailureScope& scope,
                    const PeFailureContext& context, const GraphView& graph);

bool MatchJobEvent(const JobEventScope& scope, const JobEventContext& context,
                   bool is_submission);

bool MatchUserEvent(const UserEventScope& scope,
                    const UserEventContext& context);

}  // namespace orcastream::orca

#endif  // ORCASTREAM_ORCA_SCOPE_MATCHER_H_
