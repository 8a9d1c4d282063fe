#include <gtest/gtest.h>

#include <algorithm>

#include "orca/graph_view.h"
#include "tests/test_util.h"

namespace orcastream::orca {
namespace {

using common::JobId;
using common::PeId;
using orcastream::testing::ClusterHarness;
using topology::AppBuilder;
using topology::ApplicationModel;

/// A Figure 2/3-like application: two composite instances whose inner
/// operators are fused across composite boundaries via colocation tags.
ApplicationModel Figure3App() {
  AppBuilder builder("Figure2");
  builder.AddOperator("op1", "Beacon").Output("src1").Colocate("pe3");
  builder.AddOperator("op2", "Beacon").Output("src2").Colocate("pe3");
  auto body = [](AppBuilder& b, const std::string& in,
                 const std::string& tag_head, const std::string& tag_tail) {
    b.AddOperator("op3", "Split")
        .Input({in})
        .Output("s3a")
        .Output("s3b")
        .Colocate(tag_head);
    b.AddOperator("op4", "Filter").Input("s3a").Output("s4").Colocate(
        tag_tail);
    b.AddOperator("op5", "Filter").Input("s3b").Output("s5").Colocate(
        tag_tail);
    b.AddOperator("op6", "Merge").Input({"s4", "s5"}).Output("out").Colocate(
        tag_tail);
  };
  builder.BeginComposite("composite1", "c1a");
  body(builder, "src1", "pe1", "pe2");
  builder.EndComposite();
  builder.BeginComposite("composite1", "c1b");
  body(builder, "src2", "pe1", "pe2");
  builder.EndComposite();
  builder.AddOperator("snkA", "NullSink").Input("c1a.out").Colocate("pe3");
  builder.AddOperator("snkB", "NullSink").Input("c1b.out").Colocate("pe3");
  auto model = builder.Build();
  EXPECT_TRUE(model.ok()) << model.status();
  return model.ValueOr(ApplicationModel("invalid"));
}

class GraphViewTest : public ::testing::Test {
 protected:
  GraphViewTest() : cluster_(2) {
    auto job = cluster_.sam().SubmitJob(Figure3App());
    EXPECT_TRUE(job.ok()) << job.status();
    job_ = *job;
    view_.AddJob(*cluster_.sam().FindJob(job_));
  }
  ClusterHarness cluster_;
  JobId job_;
  GraphView view_;
};

TEST_F(GraphViewTest, OperatorsInPeCrossesComposites) {
  // Operators from both composite instances share the "pe2" partition —
  // the Figure 3 layout where the physical graph does not reflect the
  // logical grouping.
  auto pe = view_.PeOfOperator(job_, "c1a.op4");
  ASSERT_TRUE(pe.ok());
  auto ops = view_.OperatorsInPe(pe.value());
  ASSERT_TRUE(ops.ok());
  EXPECT_EQ(ops.value(),
            (std::vector<std::string>{"c1a.op4", "c1a.op5", "c1a.op6",
                                      "c1b.op4", "c1b.op5", "c1b.op6"}));
}

TEST_F(GraphViewTest, CompositesInPeListsBothInstances) {
  auto pe = view_.PeOfOperator(job_, "c1a.op4");
  ASSERT_TRUE(pe.ok());
  auto composites = view_.CompositesInPe(pe.value());
  ASSERT_TRUE(composites.ok());
  EXPECT_EQ(composites.value(), (std::vector<std::string>{"c1a", "c1b"}));
}

TEST_F(GraphViewTest, EnclosingCompositeQueries) {
  auto comp = view_.EnclosingComposite(job_, "c1a.op3");
  ASSERT_TRUE(comp.ok());
  EXPECT_EQ(comp.value(), "c1a");
  auto top = view_.EnclosingComposite(job_, "op1");
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top.value(), "");
  auto chain = view_.EnclosingComposites(job_, "c1b.op6");
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain.value(), (std::vector<std::string>{"c1b"}));
}

TEST_F(GraphViewTest, PhysicalQueries) {
  auto pe = view_.PeOfOperator(job_, "op1");
  ASSERT_TRUE(pe.ok());
  auto host = view_.HostOfPe(pe.value());
  ASSERT_TRUE(host.ok());
  EXPECT_TRUE(host.value().valid());
  EXPECT_TRUE(view_.HostOfPe(PeId(12345)).status().IsNotFound());
}

TEST_F(GraphViewTest, KindQueries) {
  EXPECT_EQ(view_.OperatorKind(job_, "c1a.op3").value(), "Split");
  EXPECT_EQ(view_.CompositeKind(job_, "c1b").value(), "composite1");
  EXPECT_TRUE(view_.OperatorKind(job_, "nope").status().IsNotFound());
  EXPECT_TRUE(view_.CompositeKind(job_, "nope").status().IsNotFound());
}

TEST_F(GraphViewTest, TopologyNavigation) {
  auto down = view_.DownstreamOperators(job_, "c1a.op3");
  ASSERT_TRUE(down.ok());
  EXPECT_EQ(down.value(), (std::vector<std::string>{"c1a.op4", "c1a.op5"}));
  auto up = view_.UpstreamOperators(job_, "c1a.op6");
  ASSERT_TRUE(up.ok());
  EXPECT_EQ(up.value(), (std::vector<std::string>{"c1a.op4", "c1a.op5"}));
  auto none = view_.DownstreamOperators(job_, "snkA");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none.value().empty());
}

TEST_F(GraphViewTest, UnknownJobIsError) {
  EXPECT_TRUE(view_.PeOfOperator(JobId(999), "x").status().IsNotFound());
  EXPECT_TRUE(
      view_.EnclosingComposites(JobId(999), "x").status().IsNotFound());
  EXPECT_FALSE(view_.HasJob(JobId(999)));
}

TEST_F(GraphViewTest, CopiesShareJobRecordsAndOutliveRemoval) {
  const GraphView::JobRecord* record = view_.FindJob(job_);
  ASSERT_NE(record, nullptr);
  const std::string app_name = record->app_name;
  const PeId pe = record->pes.front().id;
  GraphView copy = view_;
  // A copy shares the immutable record instead of copying it.
  EXPECT_EQ(copy.FindJob(job_), record);
  EXPECT_EQ(copy.jobs(), view_.jobs());
  // Removing the job from the original leaves the copy's record intact.
  view_.RemoveJob(job_);
  EXPECT_FALSE(view_.HasJob(job_));
  ASSERT_TRUE(copy.HasJob(job_));
  EXPECT_EQ(copy.FindJob(job_)->app_name, app_name);
  EXPECT_TRUE(copy.HostOfPe(pe).ok());
  EXPECT_TRUE(copy.PeOfOperator(job_, "op1").ok());
}

TEST_F(GraphViewTest, RemoveJobForgetsEverything) {
  view_.RemoveJob(job_);
  EXPECT_FALSE(view_.HasJob(job_));
  EXPECT_TRUE(view_.PeOfOperator(job_, "op1").status().IsNotFound());
  EXPECT_TRUE(view_.jobs().empty());
}

}  // namespace
}  // namespace orcastream::orca
