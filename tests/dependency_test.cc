#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "orca/dependency_graph.h"
#include "orca/orca_service.h"
#include "tests/test_util.h"

namespace orcastream::orca {
namespace {

using orcastream::testing::ClusterHarness;
using topology::AppBuilder;
using topology::ApplicationModel;

// --- DependencyGraph unit tests -------------------------------------------

TEST(DependencyGraphTest, AddAndQueryEdges) {
  DependencyGraph graph;
  graph.AddApp("a");
  graph.AddApp("b");
  graph.AddApp("c");
  ASSERT_TRUE(graph.AddDependency("c", "a", 10).ok());
  ASSERT_TRUE(graph.AddDependency("c", "b", 20).ok());
  ASSERT_EQ(graph.DependenciesOf("c").size(), 2u);
  EXPECT_EQ(graph.DependenciesOf("c")[0].depends_on, "a");
  EXPECT_EQ(graph.DependenciesOf("c")[1].uptime_seconds, 20);
  EXPECT_EQ(graph.DependentsOf("a"), (std::vector<std::string>{"c"}));
  EXPECT_TRUE(graph.DependentsOf("c").empty());
}

TEST(DependencyGraphTest, RejectsUnknownNodes) {
  DependencyGraph graph;
  graph.AddApp("a");
  EXPECT_TRUE(graph.AddDependency("a", "ghost", 0).IsNotFound());
  EXPECT_TRUE(graph.AddDependency("ghost", "a", 0).IsNotFound());
}

TEST(DependencyGraphTest, RejectsCycles) {
  DependencyGraph graph;
  graph.AddApp("a");
  graph.AddApp("b");
  graph.AddApp("c");
  ASSERT_TRUE(graph.AddDependency("b", "a", 0).ok());
  ASSERT_TRUE(graph.AddDependency("c", "b", 0).ok());
  EXPECT_TRUE(graph.AddDependency("a", "c", 0).IsInvalidArgument());
  EXPECT_TRUE(graph.AddDependency("a", "a", 0).IsInvalidArgument());
}

TEST(DependencyGraphTest, ClosurePrunesUnconnectedNodes) {
  // The Figure 7 shape: submitting `all` must not pull in `sn`.
  DependencyGraph graph;
  for (const char* id : {"fb", "tw", "fox", "msnbc", "sn", "all"}) {
    graph.AddApp(id);
  }
  ASSERT_TRUE(graph.AddDependency("sn", "fb", 20).ok());
  ASSERT_TRUE(graph.AddDependency("sn", "tw", 20).ok());
  ASSERT_TRUE(graph.AddDependency("all", "fb", 80).ok());
  ASSERT_TRUE(graph.AddDependency("all", "tw", 80).ok());
  ASSERT_TRUE(graph.AddDependency("all", "fox", 0).ok());
  ASSERT_TRUE(graph.AddDependency("all", "msnbc", 0).ok());
  std::vector<std::string> closure = graph.DependencyClosure("all");
  EXPECT_EQ(closure,
            (std::vector<std::string>{"fb", "tw", "fox", "msnbc", "all"}));
  EXPECT_EQ(graph.DependencyClosure("sn"),
            (std::vector<std::string>{"fb", "tw", "sn"}));
  EXPECT_EQ(graph.DependencyClosure("fb"),
            (std::vector<std::string>{"fb"}));
}

// --- Service-level dependency management (§4.4 / Figure 7) -------------------

ApplicationModel TinyApp(const std::string& name) {
  AppBuilder builder(name);
  builder.AddOperator("src", "Beacon").Output("raw").Param("period", 1.0);
  builder.AddOperator("snk", "NullSink").Input("raw");
  auto model = builder.Build();
  EXPECT_TRUE(model.ok()) << model.status();
  return model.ValueOr(ApplicationModel("invalid"));
}

/// Minimal logic that records job events.
class PassiveOrca : public Orchestrator {
 public:
  void HandleOrcaStart(OrcaContext& orca,
                       const OrcaStartContext&) override {
    JobEventScope scope("jobs");
    orca.RegisterEventScope(scope);
  }
  void HandleJobSubmissionEvent(OrcaContext&, const JobEventContext& context,
                                const std::vector<std::string>&) override {
    submissions.emplace_back(context.config_id, context.at);
  }
  void HandleJobCancellationEvent(OrcaContext&,
                                  const JobEventContext& context,
                                  const std::vector<std::string>&) override {
    cancellations.emplace_back(context.config_id, context.at);
  }
  std::vector<std::pair<std::string, double>> submissions;
  std::vector<std::pair<std::string, double>> cancellations;
};

/// Figure 7 fixture: fb/tw/fox/msnbc feeding sn and all. fox is not
/// garbage-collectable; everything else is, with distinct GC timeouts.
class Figure7Test : public ::testing::Test {
 protected:
  Figure7Test() : cluster_(6) {
    service_ = std::make_unique<OrcaService>(&cluster_.sim(), &cluster_.sam(),
                                             &cluster_.srm());
    auto logic = std::make_unique<PassiveOrca>();
    logic_ = logic.get();
    EXPECT_TRUE(service_->Load(std::move(logic)).ok());

    Register("fb", true, 30);
    Register("tw", true, 30);
    Register("fox", false, 0);
    Register("msnbc", true, 60);
    Register("sn", true, 30);
    Register("all", true, 30);
    EXPECT_TRUE(service_->RegisterDependency("sn", "fb", 20).ok());
    EXPECT_TRUE(service_->RegisterDependency("sn", "tw", 20).ok());
    EXPECT_TRUE(service_->RegisterDependency("all", "fb", 80).ok());
    EXPECT_TRUE(service_->RegisterDependency("all", "tw", 80).ok());
    EXPECT_TRUE(service_->RegisterDependency("all", "fox", 0).ok());
    EXPECT_TRUE(service_->RegisterDependency("all", "msnbc", 0).ok());
  }

  void Register(const std::string& id, bool collectable, double timeout) {
    AppConfig config;
    config.id = id;
    config.application_name = id + "App";
    config.garbage_collectable = collectable;
    config.gc_timeout_seconds = timeout;
    ASSERT_TRUE(
        service_->RegisterApplication(config, TinyApp(id + "App")).ok());
  }

  double SubmittedAt(const std::string& id) {
    for (const auto& [config_id, at] : logic_->submissions) {
      if (config_id == id) return at;
    }
    return -1;
  }

  ClusterHarness cluster_;
  std::unique_ptr<OrcaService> service_;
  PassiveOrca* logic_;
};

TEST_F(Figure7Test, SubmittingAllFollowsUptimeRequirements) {
  ASSERT_TRUE(service_->SubmitApplication("all").ok());
  cluster_.sim().RunUntil(100);
  // Dependency-free apps start immediately; `all` waits 80 s on fb/tw.
  EXPECT_NEAR(SubmittedAt("fb"), 0.0, 0.01);
  EXPECT_NEAR(SubmittedAt("tw"), 0.0, 0.01);
  EXPECT_NEAR(SubmittedAt("fox"), 0.0, 0.01);
  EXPECT_NEAR(SubmittedAt("msnbc"), 0.0, 0.01);
  EXPECT_NEAR(SubmittedAt("all"), 80.0, 0.01);
  // sn is not connected to the request and must not start (§4.4's
  // snapshot prune).
  EXPECT_EQ(SubmittedAt("sn"), -1);
  EXPECT_FALSE(service_->IsRunning("sn"));
  EXPECT_EQ(logic_->submissions.size(), 5u);
}

TEST_F(Figure7Test, SnBeatsAllWhenSubmittedTogether) {
  // "If sn was to be submitted in the same round as all, sn would be
  // submitted first because its required sleeping time (20) is lower than
  // all's (80)."
  ASSERT_TRUE(service_->SubmitApplication("all").ok());
  ASSERT_TRUE(service_->SubmitApplication("sn").ok());
  cluster_.sim().RunUntil(100);
  EXPECT_NEAR(SubmittedAt("sn"), 20.0, 0.01);
  EXPECT_NEAR(SubmittedAt("all"), 80.0, 0.01);
  EXPECT_LT(SubmittedAt("sn"), SubmittedAt("all"));
}

TEST_F(Figure7Test, AlreadyRunningDependenciesAreReused) {
  ASSERT_TRUE(service_->SubmitApplication("sn").ok());
  cluster_.sim().RunUntil(30);
  ASSERT_TRUE(service_->IsRunning("sn"));
  auto fb_job = service_->RunningJob("fb");
  ASSERT_TRUE(fb_job.ok());
  // Submitting all reuses the running fb/tw instances — no duplicate jobs.
  ASSERT_TRUE(service_->SubmitApplication("all").ok());
  cluster_.sim().RunUntil(150);
  EXPECT_TRUE(service_->IsRunning("all"));
  EXPECT_EQ(service_->RunningJob("fb").value(), fb_job.value());
  // fb was submitted at ~0 and all needs 80 s of fb uptime: all becomes
  // eligible at ~80 even though requested at t=30.
  EXPECT_NEAR(SubmittedAt("all"), 80.0, 0.01);
}

TEST_F(Figure7Test, CancellingAFeederIsRefused) {
  ASSERT_TRUE(service_->SubmitApplication("sn").ok());
  cluster_.sim().RunUntil(30);
  // fb feeds the running sn: cancellation must be refused so sn does not
  // starve.
  EXPECT_TRUE(service_->CancelApplication("fb").IsFailedPrecondition());
  EXPECT_TRUE(service_->IsRunning("fb"));
}

TEST_F(Figure7Test, GarbageCollectionAfterTimeoutRespectsFlags) {
  ASSERT_TRUE(service_->SubmitApplication("all").ok());
  cluster_.sim().RunUntil(90);
  ASSERT_TRUE(service_->IsRunning("all"));
  ASSERT_TRUE(service_->CancelApplication("all").ok());
  // Feeders become unused. fb/tw (timeout 30) and msnbc (timeout 60) are
  // collectable; fox is not.
  cluster_.sim().RunUntil(95);
  EXPECT_TRUE(service_->IsRunning("fb"));  // still within timeout
  EXPECT_TRUE(service_->IsGcPending("fb"));
  EXPECT_FALSE(service_->IsGcPending("fox"));
  cluster_.sim().RunUntil(125);  // > 90 + 30
  EXPECT_FALSE(service_->IsRunning("fb"));
  EXPECT_FALSE(service_->IsRunning("tw"));
  EXPECT_TRUE(service_->IsRunning("msnbc"));  // timeout 60 not reached
  cluster_.sim().RunUntil(155);  // > 90 + 60
  EXPECT_FALSE(service_->IsRunning("msnbc"));
  EXPECT_TRUE(service_->IsRunning("fox"));  // never collected
  // Cancellation events were delivered for each collected app.
  std::set<std::string> cancelled;
  for (const auto& [id, at] : logic_->cancellations) cancelled.insert(id);
  EXPECT_EQ(cancelled,
            (std::set<std::string>{"all", "fb", "tw", "msnbc"}));
}

TEST_F(Figure7Test, ResurrectionFromTheCancellationQueue) {
  ASSERT_TRUE(service_->SubmitApplication("all").ok());
  cluster_.sim().RunUntil(90);
  ASSERT_TRUE(service_->CancelApplication("all").ok());
  cluster_.sim().RunUntil(100);
  ASSERT_TRUE(service_->IsGcPending("fb"));
  auto fb_job = service_->RunningJob("fb");
  ASSERT_TRUE(fb_job.ok());
  // Submitting sn reuses fb/tw before their GC timeout expires: they are
  // removed from the cancellation queue without a restart.
  ASSERT_TRUE(service_->SubmitApplication("sn").ok());
  cluster_.sim().RunUntil(200);
  EXPECT_TRUE(service_->IsRunning("sn"));
  EXPECT_TRUE(service_->IsRunning("fb"));
  EXPECT_FALSE(service_->IsGcPending("fb"));
  EXPECT_EQ(service_->RunningJob("fb").value(), fb_job.value());
}

TEST_F(Figure7Test, ExplicitlySubmittedAppsAreNeverCollected) {
  // Submit fb explicitly, then run sn's lifecycle: fb must survive sn's
  // cancellation even though it is collectable.
  ASSERT_TRUE(service_->SubmitApplication("fb").ok());
  ASSERT_TRUE(service_->SubmitApplication("sn").ok());
  cluster_.sim().RunUntil(30);
  ASSERT_TRUE(service_->CancelApplication("sn").ok());
  cluster_.sim().RunUntil(120);
  EXPECT_TRUE(service_->IsRunning("fb"));   // explicit
  EXPECT_FALSE(service_->IsRunning("tw"));  // collected
}

TEST_F(Figure7Test, CancelUnknownOrStoppedApp) {
  EXPECT_TRUE(service_->CancelApplication("ghost").IsNotFound());
  EXPECT_TRUE(service_->CancelApplication("fb").IsFailedPrecondition());
}

TEST_F(Figure7Test, RegisterDependencyCycleRejected) {
  EXPECT_TRUE(
      service_->RegisterDependency("fb", "all", 0).IsInvalidArgument());
}

TEST_F(Figure7Test, DuplicateRegistrationRejected) {
  AppConfig config;
  config.id = "fb";
  config.application_name = "fbApp";
  EXPECT_TRUE(service_->RegisterApplication(config, TinyApp("fbApp"))
                  .IsAlreadyExists());
}

// --- GC state as worker handlers read it (ThreadPool dispatch) ---------------

/// Worker handlers read GC state from their delivery snapshot, so every
/// change to it must republish. The probe handler reports what a worker
/// sees for `feeder`; `probes` advances last.
struct GcProbe {
  std::atomic<bool> pending{false};
  std::atomic<int> probes{0};
};

class GcProbeLogic : public Orchestrator {
 public:
  explicit GcProbeLogic(GcProbe* probe) : probe_(probe) {}
  void HandleOrcaStart(OrcaContext&, const OrcaStartContext&) override {}
  void HandleUserEvent(OrcaContext& orca, const UserEventContext&,
                       const std::vector<std::string>&) override {
    probe_->pending = orca.IsGcPending("feeder");
    ++probe_->probes;
  }

 private:
  GcProbe* probe_;
};

/// `dependent` and `late` may use `feeder`; only `dependent` declares it
/// up front. Nothing else publishes, so the only snapshot republishes are
/// the ones the GC state changes themselves make.
class GcSnapshotTest : public ::testing::Test {
 protected:
  GcSnapshotTest() : cluster_(3) {
    OrcaService::Config config;
    config.dispatch_threads = 2;
    service_ = std::make_unique<OrcaService>(&cluster_.sim(), &cluster_.sam(),
                                             &cluster_.srm(), config);
    service_->RegisterEventScope(UserEventScope("user"));
    for (const char* id : {"feeder", "dependent", "late"}) {
      AppConfig app;
      app.id = id;
      app.application_name = std::string(id) + "App";
      app.garbage_collectable = true;
      app.gc_timeout_seconds = 10;
      EXPECT_TRUE(
          service_->RegisterApplication(app, TinyApp(app.application_name))
              .ok());
    }
    EXPECT_TRUE(service_->RegisterDependency("dependent", "feeder", 0).ok());
    EXPECT_TRUE(
        service_->Load(std::make_unique<GcProbeLogic>(&probe_)).ok());
    // Queue `feeder` for GC: run `dependent`, then cancel it.
    EXPECT_TRUE(service_->SubmitApplication("dependent").ok());
    EXPECT_TRUE(service_->SubmitApplication("late").ok());
    cluster_.sim().RunUntil(5);
    EXPECT_TRUE(service_->CancelApplication("dependent").ok());
    EXPECT_TRUE(service_->IsGcPending("feeder"));
  }

  /// What a worker handler delivered now reads for IsGcPending(feeder).
  bool WorkerSeesGcPending() {
    int before = probe_.probes.load();
    service_->InjectUserEvent("probe");
    while (probe_.probes.load() == before) std::this_thread::yield();
    return probe_.pending.load();
  }

  ClusterHarness cluster_;
  GcProbe probe_;
  std::unique_ptr<OrcaService> service_;
};

TEST_F(GcSnapshotTest, ResurrectionRepublishesBeforeTheSubmissionRuns) {
  EXPECT_TRUE(WorkerSeesGcPending());
  // Resubmitting the dependent resurrects its feeder at once; the
  // submission itself only runs when the simulation advances.
  ASSERT_TRUE(service_->SubmitApplication("dependent").ok());
  EXPECT_FALSE(service_->IsGcPending("feeder"));
  EXPECT_FALSE(WorkerSeesGcPending());
  cluster_.sim().RunUntil(30);
  EXPECT_TRUE(service_->IsRunning("dependent"));
  EXPECT_TRUE(service_->IsRunning("feeder"));
}

TEST_F(GcSnapshotTest, GcTimerFindingTheFeederReusedRepublishes) {
  EXPECT_TRUE(WorkerSeesGcPending());
  // A running app starts using the feeder without resubmitting anything,
  // so the GC timer finds it in use and only clears the pending flag.
  ASSERT_TRUE(service_->RegisterDependency("late", "feeder", 0).ok());
  cluster_.sim().RunUntil(30);
  EXPECT_TRUE(service_->IsRunning("feeder"));
  EXPECT_FALSE(service_->IsGcPending("feeder"));
  EXPECT_FALSE(WorkerSeesGcPending());
}

}  // namespace
}  // namespace orcastream::orca
