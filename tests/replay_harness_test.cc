// Properties every testbed runner shares through the replay harness:
// session abandonment (conservation, the quit cascade, the load discount),
// run-to-run byte identity of results and telemetry, and loud rejection of
// config blocks a runner cannot honour.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/plan.h"
#include "qoe/sigmoid_model.h"
#include "testbed/broker_experiment.h"
#include "testbed/db_experiment.h"
#include "testbed/multi_agent.h"
#include "testbed/multi_service.h"
#include "testbed/workloads.h"

namespace e2e {
namespace {

const SigmoidQoeModel& TraceQoe() {
  static const SigmoidQoeModel model = SigmoidQoeModel::TraceTimeOnSite();
  return model;
}

// 60 rps against testbeds sized to run near their knee, so queueing delay
// (and with it abandonment) depends on the controller's decisions.
std::vector<TraceRecord> Workload(std::size_t n, std::uint64_t seed) {
  SyntheticWorkloadParams params;
  params.num_requests = n;
  params.seed = seed;
  params.rps = 60.0;
  return MakeSyntheticWorkload(params);
}

// The synthetic workload gives every request its own session; folding them
// into `sessions` interleaved sessions lets a quit cut off later arrivals.
std::vector<TraceRecord> SessionWorkload(std::size_t n, std::size_t sessions) {
  auto records = Workload(n, 41);
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].session_id = 1 + i % sessions;
  }
  return records;
}

// Patience well inside the workload's ~3.8 s mean external delay: a large
// share of sessions quits, but not all of them.
AbandonmentConfig ShortPatience() {
  AbandonmentConfig abandonment;
  abandonment.enabled = true;
  abandonment.seed = 5;
  abandonment.patience_fast_ms = 4000.0;
  abandonment.patience_sensitive_ms = 3500.0;
  abandonment.patience_slow_ms = 8000.0;
  return abandonment;
}

enum class Runner { kDb, kBroker, kMultiAgent, kMultiService };

std::string RunnerName(const testing::TestParamInfo<Runner>& info) {
  switch (info.param) {
    case Runner::kDb:
      return "Db";
    case Runner::kBroker:
      return "Broker";
    case Runner::kMultiAgent:
      return "MultiAgent";
    case Runner::kMultiService:
      return "MultiService";
  }
  return "Unknown";
}

void SmallController(ControllerConfig& controller) {
  controller.external.window_ms = 5000.0;
  controller.external.min_samples = 20;
  controller.policy.target_buckets = 10;
}

// Runs `runner` with the E2E policy on a small testbed; `tweak` edits the
// shared config block before the run.
ExperimentResult RunTestbed(
    Runner runner, std::span<const TraceRecord> records,
    const std::function<void(ExperimentConfig&)>& tweak) {
  switch (runner) {
    case Runner::kDb: {
      DbExperimentConfig config;
      config.common.speedup = 1.0;
      config.dataset_keys = 2000;
      config.value_bytes = 16;
      config.range_count = 20;
      config.cluster.replica_groups = 3;
      config.cluster.concurrency_per_replica = 8;
      config.cluster.base_service_ms = 120.0;
      config.cluster.capacity = 8.0;
      config.profile_levels = 12;
      config.profile_max_rps = 60.0;
      config.profile_duration_ms = 15000.0;
      SmallController(config.common.controller);
      tweak(config.common);
      return RunDbExperiment(records, TraceQoe(), config);
    }
    case Runner::kBroker: {
      BrokerExperimentConfig config;
      config.common.speedup = 1.0;
      config.broker.priority_levels = 6;
      config.broker.consume_interval_ms = 18.0;
      SmallController(config.common.controller);
      tweak(config.common);
      return RunBrokerExperiment(records, TraceQoe(), config);
    }
    case Runner::kMultiAgent: {
      MultiAgentConfig config;
      config.num_agents = 2;
      config.broker.priority_levels = 6;
      config.broker.consume_interval_ms = 36.0;
      SmallController(config.common.controller);
      tweak(config.common);
      return RunMultiAgentExperiment(records, TraceQoe(), config);
    }
    case Runner::kMultiService: {
      MultiServiceConfig config;
      config.mode = CrossServiceMode::kDependencyAware;
      config.service_a.priority_levels = 6;
      config.service_a.consume_interval_ms = 18.0;
      config.service_b.priority_levels = 6;
      config.service_b.consume_interval_ms = 30.0;
      config.fanout_probability = 0.3;
      SmallController(config.common.controller);
      tweak(config.common);
      return RunMultiServiceExperiment(records, TraceQoe(), config);
    }
  }
  throw std::logic_error("unknown runner");
}

std::uint64_t CounterValue(const obs::TelemetrySnapshot& telemetry,
                           const std::string& name) {
  for (const auto& counter : telemetry.counters) {
    if (counter.name == name) return counter.value;
  }
  ADD_FAILURE() << "no counter " << name;
  return 0;
}

// ---- Abandonment on the testbeds ------------------------------------------

class TestbedAbandonment : public testing::TestWithParam<Runner> {};

TEST_P(TestbedAbandonment, ConservesArrivalsAndCutsOffQuitSessions) {
  const auto records = SessionWorkload(1200, 120);
  const auto with_abandonment = [](ExperimentConfig& common) {
    common.abandonment = ShortPatience();
    common.collect_telemetry = true;
  };
  const ExperimentResult result =
      RunTestbed(GetParam(), records, with_abandonment);

  EXPECT_EQ(result.arrivals, records.size());
  EXPECT_EQ(result.completed + result.failed_over + result.dropped +
                result.shed + result.abandoned,
            result.arrivals);
  EXPECT_GT(result.abandoned, 0u);
  EXPECT_LT(result.abandoned, result.arrivals);
  EXPECT_EQ(CounterValue(result.telemetry, "testbed.abandoned"),
            result.abandoned);

  // A session quits when its first abandoned outcome lands: at arrival for
  // a request turned away up front, at completion for one that ran out of
  // patience. No arrival after that instant may be served.
  std::map<RequestId, std::uint64_t> session_of;
  for (const auto& rec : records) session_of[rec.request_id] = rec.session_id;
  std::map<std::uint64_t, double> quit_ms;
  for (const auto& outcome : result.outcomes) {
    if (outcome.status != RequestStatus::kAbandoned) continue;
    const double at = outcome.arrival_ms + outcome.server_delay_ms;
    auto [it, inserted] = quit_ms.emplace(session_of.at(outcome.id), at);
    if (!inserted) it->second = std::min(it->second, at);
  }
  std::size_t served_after_quit = 0;
  for (const auto& outcome : result.outcomes) {
    if (!outcome.Served()) continue;
    const auto it = quit_ms.find(session_of.at(outcome.id));
    if (it != quit_ms.end() && outcome.arrival_ms > it->second) {
      ++served_after_quit;
    }
  }
  EXPECT_EQ(served_after_quit, 0u);

  const ExperimentResult again =
      RunTestbed(GetParam(), records, with_abandonment);
  EXPECT_EQ(result.Serialize(), again.Serialize());
}

// With one request per session nothing is turned away at arrival, so the
// controller observes the same arrivals with abandonment on or off. Any
// change in what the service decides therefore comes from the planner
// discounting the load of the sessions that quit.
TEST_P(TestbedAbandonment, PlannerDiscountsTheLoadOfQuitSessions) {
  const auto records = Workload(1500, 43);
  const ExperimentResult stock = RunTestbed(GetParam(), records, [](auto&) {});
  const ExperimentResult quitting =
      RunTestbed(GetParam(), records, [](ExperimentConfig& common) {
        common.abandonment = ShortPatience();
      });
  ASSERT_GT(quitting.abandoned, 0u);
  EXPECT_EQ(quitting.arrivals, stock.arrivals);
  EXPECT_EQ(quitting.controller_stats.observations,
            stock.controller_stats.observations);

  std::map<RequestId, const RequestOutcome*> stock_by_id;
  for (const auto& outcome : stock.outcomes) stock_by_id[outcome.id] = &outcome;
  std::size_t changed = 0;
  for (const auto& outcome : quitting.outcomes) {
    const RequestOutcome& before = *stock_by_id.at(outcome.id);
    if (outcome.decision != before.decision ||
        outcome.server_delay_ms != before.server_delay_ms) {
      ++changed;
    }
  }
  EXPECT_GT(changed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Runners, TestbedAbandonment,
                         testing::Values(Runner::kDb, Runner::kBroker,
                                         Runner::kMultiAgent,
                                         Runner::kMultiService),
                         RunnerName);

// ---- Determinism -----------------------------------------------------------

class RunnerDeterminism : public testing::TestWithParam<Runner> {};

TEST_P(RunnerDeterminism, TwoRunsExportIdenticalBytes) {
  const auto records = Workload(600, 17);
  const auto with_telemetry = [](ExperimentConfig& common) {
    common.collect_telemetry = true;
  };
  const ExperimentResult a = RunTestbed(GetParam(), records, with_telemetry);
  const ExperimentResult b = RunTestbed(GetParam(), records, with_telemetry);
  ASSERT_FALSE(a.telemetry.empty());
  EXPECT_EQ(a.Serialize(), b.Serialize());
  EXPECT_EQ(a.telemetry.SerializeText(), b.telemetry.SerializeText());
  EXPECT_EQ(a.telemetry.SerializeJson(), b.telemetry.SerializeJson());
}

INSTANTIATE_TEST_SUITE_P(Runners, RunnerDeterminism,
                         testing::Values(Runner::kDb, Runner::kBroker,
                                         Runner::kMultiAgent,
                                         Runner::kMultiService),
                         RunnerName);

// ---- Config blocks a runner cannot honour ----------------------------------

class UnsupportedConfig : public testing::TestWithParam<Runner> {};

TEST_P(UnsupportedConfig, FaultPlanIsRejected) {
  const auto records = Workload(50, 3);
  EXPECT_THROW(RunTestbed(GetParam(), records,
                          [](ExperimentConfig& common) {
                            common.fault_plan = fault::FaultPlan::Parse(
                                "crash ctrl t=1s for=1s");
                          }),
               std::invalid_argument);
}

TEST_P(UnsupportedConfig, ResilienceIsRejected) {
  const auto records = Workload(50, 3);
  EXPECT_THROW(RunTestbed(GetParam(), records,
                          [](ExperimentConfig& common) {
                            common.resilience =
                                resilience::ResilienceConfig::AllOn();
                          }),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Runners, UnsupportedConfig,
                         testing::Values(Runner::kMultiAgent,
                                         Runner::kMultiService),
                         RunnerName);

}  // namespace
}  // namespace e2e
