#include "testbed/multi_agent.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "testbed/broker_experiment.h"
#include "testbed/replay_harness.h"

namespace e2e {
namespace {

// Picks the agent for a record under the sharding scheme.
std::size_t AgentOf(const TraceRecord& rec, AgentSharding sharding,
                    std::size_t num_agents, std::size_t arrival_index,
                    std::span<const double> shard_edges) {
  switch (sharding) {
    case AgentSharding::kRoundRobin:
      return arrival_index % num_agents;
    case AgentSharding::kByExternalDelay: {
      // shard_edges are ascending quantile cuts (size num_agents - 1).
      std::size_t agent = 0;
      while (agent < shard_edges.size() &&
             rec.external_delay_ms >= shard_edges[agent]) {
        ++agent;
      }
      return agent;
    }
  }
  throw std::logic_error("AgentOf: unknown sharding");
}

}  // namespace

ExperimentResult RunMultiAgentExperiment(std::span<const TraceRecord> records,
                                         const QoeModel& qoe,
                                         const MultiAgentConfig& config) {
  ReplayHarness harness("RunMultiAgentExperiment", records, qoe,
                        config.common);
  if (config.num_agents < 1) {
    throw std::invalid_argument("RunMultiAgentExperiment: num_agents < 1");
  }
  EventLoop& loop = harness.loop();
  obs::Telemetry& telemetry = harness.telemetry();
  const auto num_agents = static_cast<std::size_t>(config.num_agents);

  // Quantile cuts for the pathological sharding.
  std::vector<double> externals;
  externals.reserve(records.size());
  for (const auto& r : records) externals.push_back(r.external_delay_ms);
  std::sort(externals.begin(), externals.end());
  std::vector<double> shard_edges;
  for (std::size_t a = 1; a < num_agents; ++a) {
    shard_edges.push_back(
        externals[a * externals.size() / num_agents]);
  }

  // One global controller; per-agent brokers with table schedulers.
  std::vector<std::shared_ptr<broker::TableScheduler>> schedulers;
  std::vector<std::unique_ptr<broker::MessageBroker>> agents;
  for (std::size_t a = 0; a < num_agents; ++a) {
    std::shared_ptr<broker::MessageScheduler> scheduler;
    if (config.use_e2e) {
      auto table = std::make_shared<broker::TableScheduler>(
          "agent-" + std::to_string(a));
      schedulers.push_back(table);
      scheduler = table;
    } else {
      scheduler = std::make_shared<broker::FifoScheduler>();
    }
    agents.push_back(std::make_unique<broker::MessageBroker>(
        loop, config.broker, std::move(scheduler)));
    if (telemetry.enabled()) {
      agents.back()->AttachMetrics(telemetry.metrics,
                                   "broker.agent" + std::to_string(a));
    }
  }
  ReplicatedControllerGroup* controller = nullptr;
  if (config.use_e2e) {
    // The global G sees the *aggregate* drain rate of all agents.
    auto aggregate = config.broker;
    aggregate.num_consumers *= config.num_agents;
    controller = &harness.AddControllers(
        {{"global", config.common.seed}}, config.common.controller,
        BuildBrokerServerModel(aggregate),
        [&schedulers](const DecisionTable& table) {
          // The same global table goes to every agent (§9).
          const auto entries = ToSchedulerEntries(table);
          for (auto& scheduler : schedulers) scheduler->SetTable(entries);
        });
  }

  ReplayAdapter adapter;
  adapter.dispatch = [&](std::size_t index, const TraceRecord& rec) {
    const std::size_t agent =
        AgentOf(rec, config.sharding, num_agents, index, shard_edges);
    if (controller != nullptr) {
      controller->ObserveArrival(rec.external_delay_ms, loop.Now());
    }
    broker::Message message;
    message.id = rec.request_id;
    message.external_delay_ms = rec.external_delay_ms;
    agents[agent]->Publish(
        message, [&harness, index, publish_ms = loop.Now()](
                     const broker::Delivery& delivery) {
          harness.Complete(index, publish_ms, delivery.QueueingDelayMs(),
                           delivery.priority);
        });
  };
  adapter.drain = [&](double horizon_ms) {
    loop.RunUntil(horizon_ms);
    for (auto& agent : agents) agent->StopConsumers();
    loop.Run();
  };
  adapter.finish = [&](ExperimentResult& result) {
    for (const auto& agent : agents) {
      result.service_busy_ms += static_cast<double>(agent->delivered_count()) *
                                config.broker.handling_cost_ms;
    }
  };
  return harness.Run(adapter, /*drain_margin_ms=*/60000.0);
}

}  // namespace e2e
