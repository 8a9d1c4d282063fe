#ifndef ORCASTREAM_ORCA_GRAPH_VIEW_H_
#define ORCASTREAM_ORCA_GRAPH_VIEW_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "runtime/sam.h"
#include "topology/app_model.h"

namespace orcastream::orca {

/// In-memory stream graph representation (§3, §4.2): the ORCA service
/// maintains, for every managed application, both the logical view
/// (operators, streams, composite containment — from the ADL) and the
/// physical deployment (operator → PE → host). The ORCA logic queries it
/// with event contexts to disambiguate the two views, e.g. "which other
/// operators are in the same operating system process as operator x?".
///
/// Job records are immutable once AddJob has built them and are held by
/// shared ownership, so copying a GraphView (what every published
/// OrcaSnapshot does) costs one pointer copy per job, and a copy keeps the
/// records it saw alive after RemoveJob on the original.
class GraphView {
 public:
  /// Snapshot of one managed job.
  struct JobRecord {
    common::JobId id;
    std::string app_name;
    topology::ApplicationModel model;
    std::vector<runtime::PeRecord> pes;
    std::map<std::string, common::PeId> op_to_pe;
  };

  /// Registers a job (called by the ORCA service on submission).
  void AddJob(const runtime::JobInfo& info);
  void RemoveJob(common::JobId job);
  bool HasJob(common::JobId job) const;
  const JobRecord* FindJob(common::JobId job) const;
  std::vector<const JobRecord*> jobs() const;

  // --- Inspection queries (§4.2) ----------------------------------------

  /// Which stream operators reside in PE `pe`?
  common::Result<std::vector<std::string>> OperatorsInPe(
      common::PeId pe) const;

  /// Which composite instances have at least one operator in PE `pe`?
  common::Result<std::vector<std::string>> CompositesInPe(
      common::PeId pe) const;

  /// The enclosing composite operator instance name for an operator
  /// (empty string for top-level operators).
  common::Result<std::string> EnclosingComposite(
      common::JobId job, const std::string& operator_name) const;

  /// Full containment chain, innermost first.
  common::Result<std::vector<std::string>> EnclosingComposites(
      common::JobId job, const std::string& operator_name) const;

  /// The PE id hosting an operator instance.
  common::Result<common::PeId> PeOfOperator(
      common::JobId job, const std::string& operator_name) const;

  /// The host a PE is placed on.
  common::Result<common::HostId> HostOfPe(common::PeId pe) const;

  /// The operator type (kind) of an instance.
  common::Result<std::string> OperatorKind(
      common::JobId job, const std::string& operator_name) const;

  /// The composite type of a composite instance.
  common::Result<std::string> CompositeKind(
      common::JobId job, const std::string& instance) const;

  /// Operators directly downstream / upstream of an operator (via stream
  /// subscriptions within the job).
  common::Result<std::vector<std::string>> DownstreamOperators(
      common::JobId job, const std::string& operator_name) const;
  common::Result<std::vector<std::string>> UpstreamOperators(
      common::JobId job, const std::string& operator_name) const;

 private:
  const JobRecord* FindJobOrNull(common::JobId job) const;

  std::map<common::JobId, std::shared_ptr<const JobRecord>> jobs_;
};

}  // namespace orcastream::orca

#endif  // ORCASTREAM_ORCA_GRAPH_VIEW_H_
