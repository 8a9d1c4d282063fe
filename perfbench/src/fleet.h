#ifndef PERFBENCH_FLEET_H_
#define PERFBENCH_FLEET_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "net/remote_bridge.h"
#include "orca/orca_service.h"
#include "orca/orchestrator.h"
#include "runtime/event_sink.h"
#include "runtime/operator_api.h"
#include "runtime/sam.h"
#include "runtime/srm.h"
#include "sim/simulation.h"
#include "topology/app_model.h"
#include "trace.h"

namespace perfbench {

namespace orca = orcastream::orca;
namespace runtime = orcastream::runtime;

/// Operators per application: Beacon -> Filter -> Delay -> Filter ->
/// Sample -> DeDuplicate -> Delay -> NullSink, fused into 6 PEs.
inline constexpr int kOpsPerApp = 8;
/// The operator kind the per-application metric scopes select.
inline constexpr char kScopedKind[] = "Filter";

/// Shape of one managed fleet.
struct FleetParams {
  int apps = 128;
  int hosts = 32;
  /// 0: serial EventBus (default OrcaService::Config). >0: ThreadPool.
  size_t dispatch_threads = 0;
  /// Route PE failures SAM -> RemoteEventSink -> loopback -> server.
  bool remote = false;
};

/// Wall time of each set-up phase of one fleet, in seconds.
struct SetupTimes {
  double apps_s = 0;    ///< RegisterApplication for every app
  double start_s = 0;   ///< Load + start handled (+ staged start applied)
  double submit_s = 0;  ///< SubmitApplication for every app, all running
  double total() const { return apps_s + start_s + submit_s; }
};

/// Names of a fleet's applications ("app0000", ...), in registration
/// order; known before the fleet exists, so start handlers can use them.
std::vector<std::string> AppNames(int count);

/// The subscope keys a logic generation registers on its start event.
/// Keys carry the generation so a retired logic's key is recognisable.
std::string MetricScopeKey(uint64_t generation, const std::string& app);
std::string FailureScopeKey(uint64_t generation, const std::string& app);
std::string PeScopeKey(uint64_t generation, int64_t pe);
/// "g<generation>." — the prefix of every key of that generation.
std::string GenerationPrefix(uint64_t generation);

/// Registers, from a start handler, the per-application base scopes:
/// (queueSize | nTuplesProcessed) AND kind Filter AND application, plus a
/// PE failure scope per application.
void RegisterBaseScopes(orca::OrcaContext& orca, uint64_t generation,
                        const std::vector<std::string>& apps);

/// SAM's failure sink in remote mode: forwards every notice to the
/// RemoteEventSink (encode, frame, loopback, server decode, ingest — all
/// inline on the loopback transport) and stamps when ingest returned.
class TimingSink : public runtime::EventSink {
 public:
  TimingSink(runtime::EventSink* next, Tracer* tracer)
      : next_(next), tracer_(tracer) {}
  void OnPeFailure(const runtime::PeFailureNotice& notice) override;

  /// Wall time (NowNs) at which each PE's latest notice finished ingest.
  const std::map<int64_t, int64_t>& ingested_at() const {
    return ingested_at_;
  }
  uint64_t notices() const { return notices_; }

 private:
  runtime::EventSink* next_;
  Tracer* tracer_;
  std::map<int64_t, int64_t> ingested_at_;
  uint64_t notices_ = 0;
};

/// One simulated cluster with its ORCA service: the fleet's applications
/// are registered, the logic loaded and every job submitted by Setup.
class Fleet {
 public:
  Fleet(const FleetParams& params, Tracer* tracer);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Registers the applications, loads `logic`, waits until its start is
  /// handled (and, async, its staged registrations applied), submits
  /// every application and waits until all run. `start_done` reports
  /// whether the start handler has run. Returns false with `error` set on
  /// any failure.
  bool Setup(std::unique_ptr<orca::Orchestrator> logic,
             const std::function<bool()>& start_done, SetupTimes* times,
             std::string* error);

  orcastream::sim::Simulation& sim() { return sim_; }
  runtime::Sam& sam() { return *sam_; }
  orca::OrcaService& service() { return *service_; }
  orcastream::net::RemoteBridge* bridge() { return bridge_.get(); }
  TimingSink* timing_sink() { return timing_sink_.get(); }

  /// Application names, in registration (== pull) order.
  const std::vector<std::string>& apps() const { return apps_; }
  /// Instance names of the operators the metric scopes select (kind
  /// kScopedKind), read from the bench's own application model.
  const std::set<std::string>& scoped_operators() const {
    return scoped_operators_;
  }
  /// The application owning each PE.
  const std::map<int64_t, std::string>& app_of_pe() const {
    return app_of_pe_;
  }

  /// The runtime's own metric records for every PE, in pull order: the
  /// exact record shape SRM serves (PeMetric + operator/port records).
  runtime::MetricsSnapshot CollectTemplate();

 private:
  FleetParams params_;
  orcastream::sim::Simulation sim_;
  runtime::Srm srm_;
  runtime::OperatorFactory factory_;
  std::unique_ptr<runtime::Sam> sam_;
  std::unique_ptr<orcastream::net::RemoteBridge> bridge_;
  std::unique_ptr<TimingSink> timing_sink_;
  std::unique_ptr<orca::OrcaService> service_;
  std::vector<std::string> apps_;
  std::vector<orcastream::topology::ApplicationModel> models_;
  std::set<std::string> scoped_operators_;
  std::map<int64_t, std::string> app_of_pe_;
};

}  // namespace perfbench

#endif  // PERFBENCH_FLEET_H_
