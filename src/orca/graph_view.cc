#include "orca/graph_view.h"

#include <algorithm>
#include <set>

#include "common/strings.h"

namespace orcastream::orca {

using common::JobId;
using common::PeId;
using common::Result;
using common::Status;
using common::StrFormat;

void GraphView::AddJob(const runtime::JobInfo& info) {
  auto record = std::make_shared<JobRecord>();
  record->id = info.id;
  record->app_name = info.app_name;
  record->model = info.model;
  record->pes = info.pes;
  record->op_to_pe = info.op_to_pe;
  jobs_[info.id] = std::move(record);
}

void GraphView::RemoveJob(JobId job) { jobs_.erase(job); }

bool GraphView::HasJob(JobId job) const { return jobs_.count(job) > 0; }

const GraphView::JobRecord* GraphView::FindJob(JobId job) const {
  return FindJobOrNull(job);
}

const GraphView::JobRecord* GraphView::FindJobOrNull(JobId job) const {
  auto it = jobs_.find(job);
  return it == jobs_.end() ? nullptr : it->second.get();
}

std::vector<const GraphView::JobRecord*> GraphView::jobs() const {
  std::vector<const JobRecord*> out;
  for (const auto& [id, record] : jobs_) out.push_back(record.get());
  return out;
}

Result<std::vector<std::string>> GraphView::OperatorsInPe(PeId pe) const {
  for (const auto& [id, record] : jobs_) {
    for (const auto& pe_record : record->pes) {
      if (pe_record.id == pe) return pe_record.operators;
    }
  }
  return Status::NotFound(StrFormat("PE %lld not in any managed job",
                                    static_cast<long long>(pe.value())));
}

Result<std::vector<std::string>> GraphView::CompositesInPe(PeId pe) const {
  for (const auto& [id, record] : jobs_) {
    for (const auto& pe_record : record->pes) {
      if (pe_record.id != pe) continue;
      std::set<std::string> composites;
      for (const auto& op_name : pe_record.operators) {
        for (const auto& comp :
             record->model.EnclosingComposites(op_name)) {
          composites.insert(comp);
        }
      }
      return std::vector<std::string>(composites.begin(), composites.end());
    }
  }
  return Status::NotFound(StrFormat("PE %lld not in any managed job",
                                    static_cast<long long>(pe.value())));
}

Result<std::string> GraphView::EnclosingComposite(
    JobId job, const std::string& operator_name) const {
  const JobRecord* record = FindJobOrNull(job);
  if (record == nullptr) {
    return Status::NotFound(StrFormat("job %lld not managed",
                                      static_cast<long long>(job.value())));
  }
  const topology::OperatorDef* op = record->model.FindOperator(operator_name);
  if (op == nullptr) {
    return Status::NotFound(
        StrFormat("operator '%s' not found", operator_name.c_str()));
  }
  return op->composite;
}

Result<std::vector<std::string>> GraphView::EnclosingComposites(
    JobId job, const std::string& operator_name) const {
  const JobRecord* record = FindJobOrNull(job);
  if (record == nullptr) {
    return Status::NotFound(StrFormat("job %lld not managed",
                                      static_cast<long long>(job.value())));
  }
  if (record->model.FindOperator(operator_name) == nullptr) {
    return Status::NotFound(
        StrFormat("operator '%s' not found", operator_name.c_str()));
  }
  return record->model.EnclosingComposites(operator_name);
}

Result<PeId> GraphView::PeOfOperator(JobId job,
                                     const std::string& operator_name) const {
  const JobRecord* record = FindJobOrNull(job);
  if (record == nullptr) {
    return Status::NotFound(StrFormat("job %lld not managed",
                                      static_cast<long long>(job.value())));
  }
  auto it = record->op_to_pe.find(operator_name);
  if (it == record->op_to_pe.end()) {
    return Status::NotFound(
        StrFormat("operator '%s' not found", operator_name.c_str()));
  }
  return it->second;
}

Result<common::HostId> GraphView::HostOfPe(PeId pe) const {
  for (const auto& [id, record] : jobs_) {
    for (const auto& pe_record : record->pes) {
      if (pe_record.id == pe) return pe_record.host;
    }
  }
  return Status::NotFound(StrFormat("PE %lld not in any managed job",
                                    static_cast<long long>(pe.value())));
}

Result<std::string> GraphView::OperatorKind(
    JobId job, const std::string& operator_name) const {
  const JobRecord* record = FindJobOrNull(job);
  if (record == nullptr) {
    return Status::NotFound(StrFormat("job %lld not managed",
                                      static_cast<long long>(job.value())));
  }
  const topology::OperatorDef* op = record->model.FindOperator(operator_name);
  if (op == nullptr) {
    return Status::NotFound(
        StrFormat("operator '%s' not found", operator_name.c_str()));
  }
  return op->kind;
}

Result<std::string> GraphView::CompositeKind(
    JobId job, const std::string& instance) const {
  const JobRecord* record = FindJobOrNull(job);
  if (record == nullptr) {
    return Status::NotFound(StrFormat("job %lld not managed",
                                      static_cast<long long>(job.value())));
  }
  const topology::CompositeInstanceDef* comp =
      record->model.FindComposite(instance);
  if (comp == nullptr) {
    return Status::NotFound(
        StrFormat("composite '%s' not found", instance.c_str()));
  }
  return comp->kind;
}

Result<std::vector<std::string>> GraphView::DownstreamOperators(
    JobId job, const std::string& operator_name) const {
  const JobRecord* record = FindJobOrNull(job);
  if (record == nullptr) {
    return Status::NotFound(StrFormat("job %lld not managed",
                                      static_cast<long long>(job.value())));
  }
  const topology::OperatorDef* op = record->model.FindOperator(operator_name);
  if (op == nullptr) {
    return Status::NotFound(
        StrFormat("operator '%s' not found", operator_name.c_str()));
  }
  std::set<std::string> produced;
  for (const auto& out : op->outputs) produced.insert(out.stream);
  std::vector<std::string> downstream;
  for (const auto& candidate : record->model.operators()) {
    bool consumes = false;
    for (const auto& input : candidate.inputs) {
      for (const auto& stream : input.streams) {
        if (produced.count(stream) > 0) consumes = true;
      }
    }
    if (consumes) downstream.push_back(candidate.name);
  }
  return downstream;
}

Result<std::vector<std::string>> GraphView::UpstreamOperators(
    JobId job, const std::string& operator_name) const {
  const JobRecord* record = FindJobOrNull(job);
  if (record == nullptr) {
    return Status::NotFound(StrFormat("job %lld not managed",
                                      static_cast<long long>(job.value())));
  }
  const topology::OperatorDef* op = record->model.FindOperator(operator_name);
  if (op == nullptr) {
    return Status::NotFound(
        StrFormat("operator '%s' not found", operator_name.c_str()));
  }
  std::set<std::string> consumed;
  for (const auto& input : op->inputs) {
    for (const auto& stream : input.streams) consumed.insert(stream);
  }
  std::vector<std::string> upstream;
  for (const auto& candidate : record->model.operators()) {
    bool produces = false;
    for (const auto& out : candidate.outputs) {
      if (consumed.count(out.stream) > 0) produces = true;
    }
    if (produces) upstream.push_back(candidate.name);
  }
  return upstream;
}

}  // namespace orcastream::orca
