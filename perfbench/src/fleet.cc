#include "fleet.h"

#include <cstdio>
#include <utility>

#include "ops/standard.h"
#include "orca/orca_context.h"
#include "runtime/pe.h"
#include "topology/app_builder.h"

namespace perfbench {

namespace topology = orcastream::topology;

namespace {

/// Beacons and HC metric pushes are parked far beyond any run, so the
/// data path stays quiet and every metric the service sees comes from
/// the bench's own snapshots.
constexpr double kQuietPeriod = 1e9;
/// SRM's PE-crash detection delay (virtual seconds).
constexpr double kDetectionDelay = 0.01;
/// Upper bound on wall time any single set-up wait may take.
constexpr int64_t kSetupWaitLimitNs = 30'000'000'000;

topology::ApplicationModel AppModel(const std::string& name) {
  topology::AppBuilder builder(name);
  auto filter = [&](const char* op, const char* in, const char* out) {
    return builder.AddOperator(op, kScopedKind)
        .Input(in)
        .Output(out)
        .Param("field", "seq")
        .Param("op", ">=")
        .Param("value", "0");
  };
  builder.AddOperator("src", "Beacon")
      .Output("s0")
      .Param("period", kQuietPeriod)
      .Colocate("head");
  filter("f0", "s0", "s1").Colocate("head");
  builder.AddOperator("d0", "Delay").Input("s1").Output("s2");
  filter("f1", "s2", "s3");
  builder.AddOperator("sm", "Sample").Input("s3").Output("s4");
  builder.AddOperator("dd", "DeDuplicate")
      .Input("s4")
      .Output("s5")
      .Param("field", "seq");
  builder.AddOperator("d1", "Delay").Input("s5").Output("s6").Colocate("tail");
  builder.AddOperator("snk", "NullSink").Input("s6").Colocate("tail");
  return *builder.Build();
}

runtime::Srm::Config SrmConfig() {
  runtime::Srm::Config config;
  config.hc_push_period = kQuietPeriod;
  config.failure_detection_delay = kDetectionDelay;
  return config;
}

}  // namespace

std::vector<std::string> AppNames(int count) {
  std::vector<std::string> names;
  for (int i = 0; i < count; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "app%04d", i);
    names.push_back(name);
  }
  return names;
}

std::string GenerationPrefix(uint64_t generation) {
  return "g" + std::to_string(generation) + ".";
}

std::string MetricScopeKey(uint64_t generation, const std::string& app) {
  return GenerationPrefix(generation) + "m." + app;
}

std::string FailureScopeKey(uint64_t generation, const std::string& app) {
  return GenerationPrefix(generation) + "f." + app;
}

std::string PeScopeKey(uint64_t generation, int64_t pe) {
  return GenerationPrefix(generation) + "pe." + std::to_string(pe);
}

void RegisterBaseScopes(orca::OrcaContext& orca, uint64_t generation,
                        const std::vector<std::string>& apps) {
  for (const std::string& app : apps) {
    orca::OperatorMetricScope metrics(MetricScopeKey(generation, app));
    metrics.AddOperatorMetric(orca::BuiltinMetric::kQueueSize);
    metrics.AddOperatorMetric(orca::BuiltinMetric::kNumTuplesProcessed);
    metrics.AddOperatorTypeFilter(kScopedKind);
    metrics.AddApplicationFilter(app);
    orca.RegisterEventScope(std::move(metrics));
    orca::PeFailureScope failures(FailureScopeKey(generation, app));
    failures.AddApplicationFilter(app);
    orca.RegisterEventScope(std::move(failures));
  }
}

void TimingSink::OnPeFailure(const runtime::PeFailureNotice& notice) {
  {
    Tracer::Span span(*tracer_, SpanName::kTransport,
                      static_cast<uint64_t>(notice.pe.value()));
    next_->OnPeFailure(notice);
  }
  ingested_at_[notice.pe.value()] = NowNs();
  ++notices_;
}

Fleet::Fleet(const FleetParams& params, Tracer* tracer)
    : params_(params), srm_(&sim_, SrmConfig()) {
  for (int h = 0; h < params_.hosts; ++h) {
    srm_.AddHost("host" + std::to_string(h));
  }
  orcastream::ops::RegisterStandardOperators(&factory_);
  sam_ = std::make_unique<runtime::Sam>(&sim_, &srm_, &factory_);

  orca::OrcaService::Config config;
  config.dispatch_threads = params_.dispatch_threads;
  if (params_.remote) {
    orcastream::net::RemoteBridge::Options options;
    options.metric_pull_period = kQuietPeriod;
    bridge_ = std::make_unique<orcastream::net::RemoteBridge>(&sim_, &srm_,
                                                              options);
    timing_sink_ = std::make_unique<TimingSink>(&bridge_->sink(), tracer);
    config.failure_sink = timing_sink_.get();
    config.remote_event_plane = true;
  }
  service_ = std::make_unique<orca::OrcaService>(&sim_, sam_.get(), &srm_,
                                                 config);
  if (bridge_ != nullptr) bridge_->BindService(service_.get());

  apps_ = AppNames(params_.apps);
  for (const std::string& app : apps_) models_.push_back(AppModel(app));
  const topology::ApplicationModel model = AppModel("model");
  for (const auto& op : model.operators()) {
    if (op.kind == kScopedKind) scoped_operators_.insert(op.name);
  }
}

Fleet::~Fleet() {
  // Unwind worker deliveries and the SAM registration before the bridge
  // and the sink SAM points at go away.
  service_.reset();
}

bool Fleet::Setup(std::unique_ptr<orca::Orchestrator> logic,
                  const std::function<bool()>& start_done, SetupTimes* times,
                  std::string* error) {
  orca::OrcaService& service = *service_;
  const bool async = params_.dispatch_threads > 0;

  int64_t t0 = NowNs();
  for (size_t i = 0; i < apps_.size(); ++i) {
    orca::AppConfig config;
    config.id = apps_[i];
    config.application_name = apps_[i];
    auto status = service.RegisterApplication(config, std::move(models_[i]));
    if (!status.ok()) {
      *error = "RegisterApplication: " + status.ToString();
      return false;
    }
  }
  models_.clear();

  int64_t t1 = NowNs();
  auto status = service.Load(std::move(logic));
  if (!status.ok()) {
    *error = "Load: " + status.ToString();
    return false;
  }
  // Remote: let the sink's pump connect and handshake with the server.
  if (bridge_ != nullptr) {
    sim_.RunFor(0.2);
  } else {
    sim_.RunUntil(sim_.Now());
  }
  for (;;) {
    if (async) {
      service.DrainDeliveries();
      service.ApplyStagedActuations();
    }
    if (start_done() && service.staged_actuations_pending() == 0) break;
    if (NowNs() - t1 > kSetupWaitLimitNs) {
      *error = "start event not handled";
      return false;
    }
  }
  if (bridge_ != nullptr && !bridge_->sink().established()) {
    *error = "remote event plane session not established";
    return false;
  }

  int64_t t2 = NowNs();
  for (const std::string& app : apps_) {
    status = service.SubmitApplication(app);
    if (!status.ok()) {
      *error = "SubmitApplication(" + app + "): " + status.ToString();
      return false;
    }
  }
  sim_.RunUntil(sim_.Now());
  if (async) {
    service.DrainDeliveries();
    service.ApplyStagedActuations();
  }
  for (const std::string& app : apps_) {
    if (!service.IsRunning(app)) {
      *error = app + " not running after submission";
      return false;
    }
  }
  int64_t t3 = NowNs();

  times->apps_s = static_cast<double>(t1 - t0) / 1e9;
  times->start_s = static_cast<double>(t2 - t1) / 1e9;
  times->submit_s = static_cast<double>(t3 - t2) / 1e9;

  for (const std::string& app : apps_) {
    auto job = service.RunningJob(app);
    const runtime::JobInfo* info = sam_->FindJob(job.value());
    for (const runtime::PeRecord& pe : info->pes) {
      app_of_pe_[pe.id.value()] = app;
    }
  }
  return true;
}

runtime::MetricsSnapshot Fleet::CollectTemplate() {
  runtime::MetricsSnapshot snapshot;
  for (orcastream::common::JobId job : service_->ManagedJobsInPullOrder()) {
    const runtime::JobInfo* info = sam_->FindJob(job);
    for (const runtime::PeRecord& record : info->pes) {
      runtime::Pe* pe = sam_->FindPe(record.id);
      if (pe != nullptr) pe->CollectMetrics(&snapshot);
    }
  }
  snapshot.collected_at = sim_.Now();
  return snapshot;
}

}  // namespace perfbench
