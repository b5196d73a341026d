// Tests of the benchmark's output checks: each passes the program's genuine
// output and rejects it after one small tampering.
#include "checks.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/policy.h"
#include "core/server_delay_model.h"
#include "qoe/sigmoid_model.h"
#include "testbed/broker_experiment.h"
#include "testbed/sharded_replay.h"
#include "testbed/workloads.h"
#include "trace/generator.h"

namespace e2ebench {
namespace {

const e2e::SigmoidQoeModel& Qoe() {
  static const e2e::SigmoidQoeModel model =
      e2e::SigmoidQoeModel::TraceTimeOnSite();
  return model;
}

const e2e::Trace& SmallTrace() {
  static const e2e::Trace trace = e2e::MakeStandardTrace(0.02, 7);
  return trace;
}

Problems Collect(const auto& check) {
  Problems problems;
  check(&problems);
  return problems;
}

// --- CheckTable ----------------------------------------------------------

e2e::DecisionTable SolvedTable() {
  const e2e::PriorityQueueModel g(4, 5.0, 1);
  std::vector<double> delays;
  for (int i = 0; i < 400; ++i) delays.push_back(500.0 + 19.0 * i);
  e2e::PolicyConfig config;
  config.target_buckets = 8;
  return e2e::ComputePolicy(Qoe(), g, delays, 120.0, config).table;
}

TEST(CheckTable, PassesASolvedTable) {
  const e2e::DecisionTable table = SolvedTable();
  EXPECT_TRUE(
      Collect([&](Problems* p) { CheckTable(table, 4, p); }).empty());
}

TEST(CheckTable, RejectsAFractionOffByOneMillionth) {
  e2e::DecisionTable table = SolvedTable();
  table.load_fractions[0] += 1e-6;
  EXPECT_FALSE(
      Collect([&](Problems* p) { CheckTable(table, 4, p); }).empty());
}

TEST(CheckTable, RejectsANegativeFraction) {
  e2e::DecisionTable table = SolvedTable();
  table.load_fractions = {1.5, -0.5, 0.0, 0.0};
  EXPECT_FALSE(
      Collect([&](Problems* p) { CheckTable(table, 4, p); }).empty());
}

TEST(CheckTable, RejectsAGapBetweenRows) {
  e2e::DecisionTable table = SolvedTable();
  ASSERT_GE(table.rows.size(), 2u);
  table.rows[1].lo = std::nextafter(table.rows[1].lo, 1e300);
  EXPECT_FALSE(
      Collect([&](Problems* p) { CheckTable(table, 4, p); }).empty());
}

TEST(CheckTable, RejectsUnsortedRows) {
  e2e::DecisionTable table = SolvedTable();
  ASSERT_GE(table.rows.size(), 2u);
  std::swap(table.rows[0], table.rows[1]);
  EXPECT_FALSE(
      Collect([&](Problems* p) { CheckTable(table, 4, p); }).empty());
}

TEST(CheckTable, RejectsAnInvalidDecision) {
  e2e::DecisionTable table = SolvedTable();
  table.rows.back().decision = 4;
  EXPECT_FALSE(
      Collect([&](Problems* p) { CheckTable(table, 4, p); }).empty());
}

// --- CheckReplay ---------------------------------------------------------

struct Replay {
  e2e::ShardedReplayResult result;
  ReplayReference reference;
};

Replay RunSmallReplay() {
  e2e::ShardedReplayConfig config;
  config.common.controller.external.window_ms = 120000.0;
  config.keep_outcomes = false;
  const e2e::PriorityQueueModel g(3, 5.0, 1);
  Replay r;
  r.result = e2e::ReplayTraceSharded(
      SmallTrace().records,
      [](e2e::PageType) -> const e2e::QoeModel& { return Qoe(); }, g, config);
  r.reference = {r.result.result.mean_qoe, r.result.result.completed,
                 r.result.stats.groups_merged};
  return r;
}

// The genuine replay, made once; each test tampers with its own copy.
Replay SmallReplay() {
  static const Replay replay = RunSmallReplay();
  return replay;
}

Problems CheckReplayOf(const Replay& r) {
  return Collect([&](Problems* p) {
    CheckReplay(r.result, r.reference, SmallTrace().records.size(), p);
  });
}

TEST(CheckReplay, PassesTheReplay) {
  EXPECT_TRUE(CheckReplayOf(SmallReplay()).empty());
}

TEST(CheckReplay, RejectsAMeanQoeOffByOneUlp) {
  Replay r = SmallReplay();
  r.result.result.mean_qoe = std::nextafter(r.result.result.mean_qoe, 2.0);
  EXPECT_FALSE(CheckReplayOf(r).empty());
}

TEST(CheckReplay, RejectsAMissingServedRequest) {
  Replay r = SmallReplay();
  --r.result.result.completed;
  EXPECT_FALSE(CheckReplayOf(r).empty());
}

TEST(CheckReplay, RejectsAMissingGroup) {
  Replay r = SmallReplay();
  --r.result.stats.groups_merged;
  EXPECT_FALSE(CheckReplayOf(r).empty());
}

TEST(CheckReplay, RejectsAnUnroutedRecord) {
  Replay r = SmallReplay();
  --r.result.stats.records;
  EXPECT_FALSE(CheckReplayOf(r).empty());
}

TEST(CheckReplay, RejectsAHistogramThatLostARequest) {
  Replay r = SmallReplay();
  for (auto& bin : r.result.qoe_histogram) {
    if (bin > 0) {
      --bin;
      break;
    }
  }
  EXPECT_FALSE(CheckReplayOf(r).empty());
}

// --- CheckTraceShape -----------------------------------------------------

TraceShape PublishedShape() {
  TraceShape shape;
  shape.page_loads = {682600, 314100, 600200};
  shape.too_fast = 0.25;
  shape.sensitive = 0.50;
  shape.too_slow = 0.25;
  return shape;
}

TEST(CheckTraceShape, PassesTheGeneratedDay) {
  const e2e::Trace day = e2e::MakeStandardTrace(1.0, 20190819);
  EXPECT_TRUE(Collect([&](Problems* p) {
                CheckTraceShape(MeasureTraceShape(day), p);
              }).empty());
}

TEST(CheckTraceShape, RejectsAVolumeTwoPercentShort) {
  TraceShape shape = PublishedShape();
  shape.page_loads[1] = 307800;
  EXPECT_FALSE(
      Collect([&](Problems* p) { CheckTraceShape(shape, p); }).empty());
}

TEST(CheckTraceShape, RejectsASkewedClassSplit) {
  TraceShape shape = PublishedShape();
  shape.too_fast = 0.28;
  shape.sensitive = 0.47;
  EXPECT_FALSE(
      Collect([&](Problems* p) { CheckTraceShape(shape, p); }).empty());
}

// --- CheckTestbed, CheckSameBytes, CheckBeatsDefault ----------------------

struct TestbedRun {
  std::vector<e2e::TraceRecord> slice;
  e2e::ExperimentResult result;
};

TestbedRun RunSmallBroker() {
  TestbedRun run;
  run.slice = e2e::HourSlice(SmallTrace(), e2e::PageType::kType1, 16, 17);
  e2e::BrokerExperimentConfig config;
  run.result = e2e::RunBrokerExperiment(run.slice, Qoe(), config);
  return run;
}

// The genuine run, made once; each test tampers with its own copy.
TestbedRun SmallBrokerRun() {
  static const TestbedRun run = RunSmallBroker();
  return run;
}

Problems CheckTestbedOf(const TestbedRun& run) {
  return Collect([&](Problems* p) {
    CheckTestbed(run.result, run.slice.size(), Qoe(), p);
  });
}

TEST(CheckTestbed, PassesTheRun) {
  const TestbedRun run = SmallBrokerRun();
  ASSERT_GT(run.result.completed, 0u);
  EXPECT_TRUE(CheckTestbedOf(run).empty());
}

TEST(CheckTestbed, RejectsOneChangedQoe) {
  TestbedRun run = SmallBrokerRun();
  run.result.outcomes[run.result.outcomes.size() / 2].qoe += 1e-9;
  EXPECT_FALSE(CheckTestbedOf(run).empty());
}

TEST(CheckTestbed, RejectsOneMissingArrival) {
  TestbedRun run = SmallBrokerRun();
  run.result.outcomes.pop_back();
  EXPECT_FALSE(CheckTestbedOf(run).empty());
}

TEST(CheckTestbed, RejectsAMissingArrivalEvenWhenCountsAgree) {
  TestbedRun run = SmallBrokerRun();
  run.result.outcomes.pop_back();
  run.result.Finalize();  // Status counts now agree with the outcomes.
  run.result.arrivals = run.result.outcomes.size();
  EXPECT_FALSE(CheckTestbedOf(run).empty());
}

TEST(CheckTestbed, RejectsAMeanQoeOffByOneUlp) {
  TestbedRun run = SmallBrokerRun();
  run.result.mean_qoe = std::nextafter(run.result.mean_qoe, 2.0);
  EXPECT_FALSE(CheckTestbedOf(run).empty());
}

TEST(CheckTestbed, RejectsARelabelledStatus) {
  TestbedRun run = SmallBrokerRun();
  run.result.outcomes.front().status = e2e::RequestStatus::kDropped;
  EXPECT_FALSE(CheckTestbedOf(run).empty());
}

TEST(CheckSameBytes, PassesTwoExecutionsAndRejectsOneChangedByte) {
  const std::string first = SmallBrokerRun().result.Serialize();
  const std::string repeat = RunSmallBroker().result.Serialize();
  EXPECT_TRUE(Collect([&](Problems* p) { CheckSameBytes(first, repeat, p); })
                  .empty());
  std::string tampered = repeat;
  tampered[tampered.size() / 2] ^= 1;
  EXPECT_FALSE(Collect([&](Problems* p) { CheckSameBytes(first, tampered, p); })
                   .empty());
}

TEST(CheckBeatsDefault, RejectsATie) {
  EXPECT_TRUE(Collect([](Problems* p) {
                CheckBeatsDefault(0.3920, 0.3519, p);
              }).empty());
  EXPECT_FALSE(Collect([](Problems* p) {
                 CheckBeatsDefault(0.3519, 0.3519, p);
               }).empty());
}

}  // namespace
}  // namespace e2ebench
