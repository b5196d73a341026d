#include "testbed/multi_service.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "testbed/broker_experiment.h"
#include "testbed/replay_harness.h"

namespace e2e {
namespace {

// One service's moving parts.
struct Service {
  std::shared_ptr<broker::TableScheduler> table;
  std::unique_ptr<broker::MessageBroker> broker;
  ReplicatedControllerGroup* controller = nullptr;
  // Realized mean queueing delay per priority level (EWMA), used to
  // predict the residual delay of a request routed through this service.
  std::vector<double> delay_by_priority;
  double overall_delay_ewma = 0.0;
  bool has_delay = false;

  void RecordDelivery(const broker::Delivery& delivery) {
    constexpr double kAlpha = 0.05;
    if (delay_by_priority.empty()) return;
    auto& slot = delay_by_priority[static_cast<std::size_t>(
        std::min<int>(delivery.priority,
                      static_cast<int>(delay_by_priority.size()) - 1))];
    slot = slot == 0.0 ? delivery.QueueingDelayMs()
                       : (1.0 - kAlpha) * slot +
                             kAlpha * delivery.QueueingDelayMs();
    overall_delay_ewma =
        !has_delay ? delivery.QueueingDelayMs()
                   : (1.0 - kAlpha) * overall_delay_ewma +
                         kAlpha * delivery.QueueingDelayMs();
    has_delay = true;
  }

  // Predicted residual delay for a request with this (raw) external delay:
  // look its priority up in the current table and use that level's realized
  // mean; before any table/history exists, fall back to the overall mean.
  // Non-const: AssignPriority is a mutating interface (schedulers may keep
  // state), though TableScheduler's lookup happens not to mutate.
  double PredictDelayMs(DelayMs raw_external) {
    if (table != nullptr && table->HasTable() &&
        !delay_by_priority.empty()) {
      broker::BrokerView view;
      view.queue_depths.assign(delay_by_priority.size(), 0);
      broker::Message probe;
      probe.external_delay_ms = raw_external;
      const int priority = table->AssignPriority(probe, view);
      const double known = delay_by_priority[static_cast<std::size_t>(
          std::min<int>(priority,
                        static_cast<int>(delay_by_priority.size()) - 1))];
      if (known > 0.0) return known;
    }
    return has_delay ? overall_delay_ewma : 0.0;
  }
};

// Join state for one request: completes when all expected legs confirmed.
struct Join {
  std::size_t index = 0;  // Schedule index of the request.
  double publish_ms = 0.0;
  int legs_expected = 1;
  int legs_done = 0;
  DelayMs slowest_leg_ms = 0.0;
};

}  // namespace

ExperimentResult RunMultiServiceExperiment(
    std::span<const TraceRecord> records, const QoeModel& qoe,
    const MultiServiceConfig& config) {
  ReplayHarness harness("RunMultiServiceExperiment", records, qoe,
                        config.common);
  EventLoop& loop = harness.loop();
  obs::Telemetry& telemetry = harness.telemetry();

  Service services[2];
  const broker::BrokerParams* params[2] = {&config.service_a,
                                           &config.service_b};
  for (int s = 0; s < 2; ++s) {
    const std::string name = s == 0 ? "service_a" : "service_b";
    services[s].delay_by_priority.assign(
        static_cast<std::size_t>(params[s]->priority_levels), 0.0);
    const bool service_uses_e2e =
        config.use_e2e && !(s == 1 && config.service_b_legacy_fifo);
    if (service_uses_e2e) {
      services[s].table = std::make_shared<broker::TableScheduler>(
          std::string("service-") + (s == 0 ? "a" : "b"));
      services[s].broker = std::make_unique<broker::MessageBroker>(
          loop, *params[s], services[s].table);
      services[s].controller = &harness.AddControllers(
          {{name, config.common.seed + static_cast<std::uint64_t>(s)}},
          config.common.controller, BuildBrokerServerModel(*params[s]),
          [table = services[s].table](const DecisionTable& t) {
            table->SetTable(ToSchedulerEntries(t));
          });
    } else {
      services[s].broker = std::make_unique<broker::MessageBroker>(
          loop, *params[s], std::make_shared<broker::FifoScheduler>());
    }
    if (telemetry.enabled()) {
      services[s].broker->AttachMetrics(telemetry.metrics, "broker." + name);
    }
  }

  // One fan-out draw per arrival, in schedule order.
  Rng fanout_rng(config.common.seed ^ 0x5AULL);
  std::vector<bool> needs_b;
  needs_b.reserve(harness.schedule().size());
  for (std::size_t i = 0; i < harness.schedule().size(); ++i) {
    needs_b.push_back(fanout_rng.Bernoulli(config.fanout_probability));
  }
  std::map<RequestId, Join> joins;

  auto complete_leg = [&](const broker::Delivery& delivery) {
    auto it = joins.find(delivery.message.id);
    if (it == joins.end()) return;
    Join& join = it->second;
    join.slowest_leg_ms =
        std::max(join.slowest_leg_ms, delivery.QueueingDelayMs());
    if (++join.legs_done < join.legs_expected) return;
    // Aggregation waits for the slower leg.
    harness.Complete(join.index, join.publish_ms, join.slowest_leg_ms,
                     /*decision=*/-1);
    joins.erase(it);
  };

  ReplayAdapter adapter;
  adapter.dispatch = [&](std::size_t index, const TraceRecord& rec) {
    Join join;
    join.index = index;
    join.publish_ms = loop.Now();
    join.legs_expected = needs_b[index] ? 2 : 1;
    joins.emplace(rec.request_id, join);

    for (int s = 0; s < join.legs_expected; ++s) {
      // In dependency-aware mode, the delay service A sees for a request
      // that also needs the slower service B includes B's expected
      // residual delay: if B will hold the request for seconds anyway,
      // A should not spend a fast slot on it (the paper's Fig. 11
      // argument lifted across services).
      DelayMs effective_external = rec.external_delay_ms;
      if (config.mode == CrossServiceMode::kDependencyAware && needs_b[index]) {
        effective_external +=
            services[1 - s].PredictDelayMs(rec.external_delay_ms);
      }
      if (services[s].controller != nullptr) {
        services[s].controller->ObserveArrival(effective_external,
                                               loop.Now());
      }
      broker::Message message;
      message.id = rec.request_id;
      message.external_delay_ms = effective_external;
      services[s].broker->Publish(
          message, [&, s](const broker::Delivery& delivery) {
            services[s].RecordDelivery(delivery);
            complete_leg(delivery);
          });
    }
  };
  adapter.drain = [&](double horizon_ms) {
    loop.RunUntil(horizon_ms);
    for (auto& service : services) service.broker->StopConsumers();
    loop.Run();
  };
  adapter.finish = [&](ExperimentResult& result) {
    // Two services have no single controller to report.
    result.controller_stats = ControllerStats{};
    for (const auto& service : services) {
      result.service_busy_ms +=
          static_cast<double>(service.broker->delivered_count()) *
          config.service_a.handling_cost_ms;
    }
  };
  return harness.Run(adapter, /*drain_margin_ms=*/60000.0);
}

}  // namespace e2e
