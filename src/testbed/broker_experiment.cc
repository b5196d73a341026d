#include "testbed/broker_experiment.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace_span.h"
#include "resilience/admission.h"
#include "resilience/circuit_breaker.h"
#include "resilience/cloning_model.h"
#include "resilience/retry_policy.h"
#include "stats/bucketizer.h"
#include "testbed/replay_harness.h"

namespace e2e {
namespace {

// Per-priority-queue circuit breaking as a scheduler decorator: a queue
// whose recent deliveries kept breaching the slow threshold is taken out of
// rotation, and messages assigned to it reroute to the nearest queue (in
// priority distance, higher priority preferred on ties) whose breaker
// admits. The experiment feeds delivery outcomes back via RecordDelivery.
class BreakerScheduler final : public broker::MessageScheduler {
 public:
  BreakerScheduler(std::shared_ptr<broker::MessageScheduler> inner,
                   const resilience::BreakerConfig& config, int levels,
                   EventLoop& loop)
      : inner_(std::move(inner)), config_(config), loop_(loop) {
    breakers_.reserve(static_cast<std::size_t>(levels));
    slowness_.reserve(static_cast<std::size_t>(levels));
    for (int i = 0; i < levels; ++i) {
      breakers_.emplace_back(config_);
      slowness_.emplace_back(config_);
    }
    spans_.resize(static_cast<std::size_t>(levels));
  }

  int AssignPriority(const broker::Message& message,
                     const broker::BrokerView& view) override {
    const int base = inner_->AssignPriority(message, view);
    const double now = loop_.Now();
    if (breakers_[static_cast<std::size_t>(base)].AllowRequest(now)) {
      return base;
    }
    const int levels = static_cast<int>(breakers_.size());
    for (int off = 1; off < levels; ++off) {
      for (const int cand : {base - off, base + off}) {
        if (cand < 0 || cand >= levels) continue;
        auto& breaker = breakers_[static_cast<std::size_t>(cand)];
        if (breaker.WouldAllow(now) && breaker.AllowRequest(now)) {
          ++reroutes_;
          if (metric_reroutes_ != nullptr) metric_reroutes_->Increment();
          return cand;
        }
      }
    }
    return base;  // Every queue's breaker is open: the assignment stands.
  }

  std::string Name() const override { return inner_->Name() + "+breakers"; }

  /// Feeds one delivery's queueing delay back into its queue's breaker.
  /// The slow threshold adapts per queue (SlownessTracker): a low-priority
  /// queue waits long by design, and a fixed threshold would open its
  /// breaker on healthy traffic.
  void RecordDelivery(int priority, double queueing_delay_ms, double now_ms) {
    auto& breaker = breakers_[static_cast<std::size_t>(priority)];
    if (slowness_[static_cast<std::size_t>(priority)].RecordAndClassify(
            queueing_delay_ms)) {
      breaker.RecordFailure(now_ms);
    } else {
      breaker.RecordSuccess(now_ms);
    }
  }

  /// resilience.breaker_transitions / .breaker_reroutes counters plus one
  /// resilience.broker.p<i>.open span per breaker-open episode.
  void AttachTelemetry(obs::MetricsRegistry& registry, obs::Tracer* tracer) {
    metric_transitions_ =
        &registry.AddCounter("resilience.breaker_transitions");
    metric_reroutes_ = &registry.AddCounter("resilience.breaker_reroutes");
    tracer_ = tracer;
  }

  std::uint64_t reroutes() const { return reroutes_; }

  resilience::BreakerStats TotalStats() const {
    resilience::BreakerStats total;
    for (const auto& breaker : breakers_) {
      total.opens += breaker.stats().opens;
      total.half_opens += breaker.stats().half_opens;
      total.closes += breaker.stats().closes;
      total.rejections += breaker.stats().rejections;
    }
    return total;
  }

  /// Installs the transition hooks (call once, after AttachTelemetry when
  /// telemetry is on).
  void InstallHooks() {
    for (std::size_t i = 0; i < breakers_.size(); ++i) {
      breakers_[i].SetTransitionHook(
          [this, i](resilience::CircuitBreaker::State from,
                    resilience::CircuitBreaker::State to, double) {
            if (metric_transitions_ != nullptr) {
              metric_transitions_->Increment();
            }
            if (tracer_ == nullptr) return;
            if (to == resilience::CircuitBreaker::State::kOpen) {
              spans_[i] = tracer_->StartSpan("resilience.broker.p" +
                                             std::to_string(i) + ".open");
            } else if (from == resilience::CircuitBreaker::State::kOpen) {
              spans_[i].End();
            }
          });
    }
  }

 private:
  std::shared_ptr<broker::MessageScheduler> inner_;
  resilience::BreakerConfig config_;
  EventLoop& loop_;
  std::vector<resilience::CircuitBreaker> breakers_;
  std::vector<resilience::SlownessTracker> slowness_;  // One per queue.
  std::uint64_t reroutes_ = 0;
  obs::Counter* metric_transitions_ = nullptr;
  obs::Counter* metric_reroutes_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  std::vector<obs::Span> spans_;  // One per queue while open.
};

}  // namespace

std::shared_ptr<const ServerDelayModel> BuildBrokerServerModel(
    const broker::BrokerParams& params) {
  return std::make_shared<PriorityQueueModel>(
      params.priority_levels, params.consume_interval_ms, params.num_consumers,
      params.handling_cost_ms);
}

std::vector<broker::TableScheduler::Entry> ToSchedulerEntries(
    const DecisionTable& table) {
  std::vector<broker::TableScheduler::Entry> entries;
  entries.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    entries.push_back(broker::TableScheduler::Entry{
        .lo = row.lo, .hi = row.hi, .priority = row.decision});
  }
  return entries;
}

ExperimentResult RunBrokerExperiment(std::span<const TraceRecord> records,
                                     const QoeModel& qoe,
                                     const BrokerExperimentConfig& config) {
  ReplayHarness harness("RunBrokerExperiment", records, qoe, config.common);
  EventLoop& loop = harness.loop();
  obs::Telemetry& telemetry = harness.telemetry();

  // --- Policy wiring: the message scheduler is the decision hook ---------
  std::shared_ptr<broker::MessageScheduler> scheduler;
  ReplicatedControllerGroup* controllers = nullptr;
  switch (config.policy) {
    case BrokerPolicy::kDefault:
      scheduler = std::make_shared<broker::FifoScheduler>();
      break;
    case BrokerPolicy::kDeadline:
      scheduler = std::make_shared<broker::DeadlineScheduler>(
          config.deadline_ms, config.deadline_max_slack_ms);
      break;
    case BrokerPolicy::kSlope:
    case BrokerPolicy::kE2e: {
      auto table_scheduler = std::make_shared<broker::TableScheduler>(
          config.policy == BrokerPolicy::kSlope ? "slope-table" : "e2e-table");
      ControllerConfig cc = config.common.controller;
      if (config.policy == BrokerPolicy::kSlope) {
        cc.policy.mapping = MappingAlgorithm::kSlopeBased;
      }
      controllers = &harness.AddControllers(
          {{"primary", config.common.seed ^ 0x61ULL},
           {"backup", config.common.seed ^ 0x62ULL}},
          cc, BuildBrokerServerModel(config.broker),
          [table_scheduler](const DecisionTable& table) {
            table_scheduler->SetTable(ToSchedulerEntries(table));
          },
          config.external_delay_error, config.rps_error);
      scheduler = std::move(table_scheduler);
      break;
    }
  }

  // --- Resilience layer --------------------------------------------------
  const resilience::ResilienceConfig& resil = config.common.resilience;
  std::shared_ptr<BreakerScheduler> breaker_scheduler;
  if (resil.breaker.enabled) {
    breaker_scheduler = std::make_shared<BreakerScheduler>(
        scheduler, resil.breaker, config.broker.priority_levels, loop);
    scheduler = breaker_scheduler;
  }

  broker::MessageBroker broker(loop, config.broker, scheduler);
  if (telemetry.enabled()) broker.AttachMetrics(telemetry.metrics);

  std::unique_ptr<resilience::AdmissionController> admission;
  if (resil.admission.enabled) {
    admission =
        std::make_unique<resilience::AdmissionController>(resil.admission, qoe);
  }
  std::optional<resilience::RetryPolicy> retry;
  if (resil.retry.enabled) retry.emplace(resil.retry, harness.rng().Fork(5));
  obs::Counter* metric_retries = nullptr;
  obs::Counter* metric_retries_exhausted = nullptr;
  if (telemetry.enabled()) {
    if (admission != nullptr) admission->AttachMetrics(telemetry.metrics);
    if (breaker_scheduler != nullptr) {
      breaker_scheduler->AttachTelemetry(telemetry.metrics, &telemetry.tracer);
    }
    if (retry.has_value()) {
      metric_retries = &telemetry.metrics.AddCounter("resilience.retries");
      metric_retries_exhausted =
          &telemetry.metrics.AddCounter("resilience.retries_exhausted");
    }
  }
  if (breaker_scheduler != nullptr) breaker_scheduler->InstallHooks();

  // --- Model-driven hedge-gate metering ----------------------------------
  // The broker tier has no hedge path (cloning a publish would double-
  // deliver), so HedgeMode::kModelDriven here derives and meters the
  // PS-model gates (resilience/cloning_model.h) from delivered queueing
  // delays without changing any routing decision: one mode flows end to
  // end through the shared ExperimentConfig, and operators read the
  // broker tier's predicted cloning gain from the same telemetry names the
  // db testbed exports. Metrics are registered only in model mode so
  // static/stock exports keep their historical byte stream. Utilization is
  // the consumers' busy fraction: delivered handling work over elapsed
  // virtual time across all consumers.
  const bool model_driven =
      resil.hedge.enabled &&
      resil.hedge.mode == resilience::HedgeMode::kModelDriven;
  std::optional<resilience::CloningModel> cloning_model;
  std::optional<Bucketizer> service_window;
  double model_work_ms = 0.0;
  double model_reset_ms = 0.0;
  double next_model_recompute_ms = 0.0;
  std::uint64_t model_recomputes = 0;
  resilience::CloningPrediction last_prediction;
  obs::Counter* metric_model_recomputes = nullptr;
  obs::Gauge* metric_model_fraction = nullptr;
  obs::Gauge* metric_model_target_load = nullptr;
  obs::Gauge* metric_model_gain = nullptr;
  if (model_driven) {
    const resilience::CloningModelConfig& model = resil.hedge.model;
    cloning_model.emplace(model);  // Validates the knobs.
    service_window.emplace(model.target_buckets, model.max_span_ms);
    next_model_recompute_ms = model.window_ms;
    if (telemetry.enabled()) {
      metric_model_recomputes =
          &telemetry.metrics.AddCounter("broker.resilience.model.recomputes");
      metric_model_fraction =
          &telemetry.metrics.AddGauge("broker.resilience.model.hedge_fraction");
      metric_model_target_load =
          &telemetry.metrics.AddGauge("broker.resilience.model.target_load");
      metric_model_gain = &telemetry.metrics.AddGauge(
          "broker.resilience.model.predicted_gain_ms");
    }
  }
  // Folds one delivery into the model window and re-derives the gates at
  // every elapsed model-window boundary with enough samples (thin windows
  // keep accumulating — the ReadExecutor::MaybeRecomputeBudgets contract).
  // Only called from (single-threaded) event-loop callbacks.
  auto record_model = [&](const broker::Delivery& delivery) {
    if (!model_driven) return;
    const resilience::CloningModelConfig& model = resil.hedge.model;
    const double now = loop.Now();
    while (now >= next_model_recompute_ms) {
      const double boundary = next_model_recompute_ms;
      next_model_recompute_ms += model.window_ms;
      if (service_window->sample_count() <
          static_cast<std::size_t>(model.min_samples)) {
        continue;
      }
      const double elapsed = boundary - model_reset_ms;
      const double utilization =
          model_work_ms /
          (elapsed * static_cast<double>(config.broker.num_consumers));
      last_prediction = cloning_model->Predict(*service_window, utilization);
      ++model_recomputes;
      if (metric_model_recomputes != nullptr) {
        metric_model_recomputes->Increment();
        metric_model_fraction->Set(last_prediction.max_hedge_fraction);
        metric_model_target_load->Set(last_prediction.max_target_load);
        metric_model_gain->Set(last_prediction.predicted_gain_ms);
      }
      service_window.emplace(model.target_buckets, model.max_span_ms);
      model_work_ms = 0.0;
      model_reset_ms = boundary;
    }
    service_window->Add(delivery.QueueingDelayMs());
    model_work_ms += config.broker.handling_cost_ms;
  };

  ReplayAdapter adapter;
  adapter.honours_resilience = true;
  adapter.fault_targets.emplace();
  adapter.fault_targets->controllers = controllers;
  adapter.fault_targets->broker = &broker;
  adapter.fault_targets->base_external_error = config.external_delay_error;
  if (controllers != nullptr) {
    adapter.fault_targets->apply_external_error = [controllers](double error) {
      controllers->SetExternalDelayError(error);
    };
  }
  // Dropped messages still produce an outcome (status kDropped) so every
  // arrival is accounted for. With retries on, the publish wrapper below
  // owns drop accounting instead (a drop may still be retried).
  if (!resil.retry.enabled) {
    broker.SetDropCallback(
        [&harness](const broker::Message& message, double publish_ms) {
          harness.Refuse(message.id, publish_ms, message.external_delay_ms,
                         RequestStatus::kDropped);
        });
  }

  // Publishes arrival `index`, retrying fault drops with jittered backoff
  // when the retry policy grants one; `forced_priority >= 0` pins an
  // admission downgrade across retries. With resilience off this reduces
  // exactly to the legacy publish-with-confirm (first_ms == the broker's
  // publish time).
  std::function<void(const broker::Message&, int, double, int, std::size_t)>
      publish = [&](const broker::Message& message, int failures,
                    double first_ms, int forced_priority, std::size_t index) {
        auto confirm = [&, first_ms, index](const broker::Delivery& delivery) {
          if (breaker_scheduler != nullptr) {
            breaker_scheduler->RecordDelivery(
                delivery.priority, delivery.QueueingDelayMs(), loop.Now());
          }
          record_model(delivery);
          // The retry wait counts against the request: server-side delay
          // runs from the first publish attempt, not the one that got
          // through.
          harness.Complete(index, first_ms, delivery.deliver_ms - first_ms,
                           delivery.priority);
        };
        const bool ok = forced_priority >= 0
                            ? broker.PublishWithPriority(
                                  message, forced_priority, std::move(confirm))
                            : broker.Publish(message, std::move(confirm));
        if (ok || !retry.has_value()) return;  // Drop callback covers it.
        const std::optional<double> backoff =
            retry->NextBackoffMs(failures + 1, loop.Now() - first_ms,
                                 qoe.Classify(message.external_delay_ms));
        if (backoff.has_value()) {
          if (metric_retries != nullptr) metric_retries->Increment();
          loop.ScheduleAfter(*backoff, [&publish, message, failures, first_ms,
                                        forced_priority, index]() {
            publish(message, failures + 1, first_ms, forced_priority, index);
          });
          return;
        }
        if (metric_retries_exhausted != nullptr) {
          metric_retries_exhausted->Increment();
        }
        // Out of attempts, deadline or budget: lost.
        harness.Refuse(message.id, first_ms, message.external_delay_ms,
                       RequestStatus::kDropped);
      };

  adapter.dispatch = [&](std::size_t index, const TraceRecord& rec) {
    if (controllers != nullptr) {
      controllers->ObserveArrival(rec.external_delay_ms, loop.Now());
    }
    broker::Message message;
    message.id = rec.request_id;
    message.external_delay_ms = rec.external_delay_ms;
    const double publish_ms = loop.Now();
    int forced_priority = -1;
    if (admission != nullptr) {
      int depth = 0;
      for (const int d : broker.View().queue_depths) depth += d;
      switch (admission->Decide(rec.external_delay_ms, depth)) {
        case resilience::AdmissionDecision::kShed:
          harness.Refuse(rec.request_id, publish_ms, rec.external_delay_ms,
                         RequestStatus::kShed);
          return;
        case resilience::AdmissionDecision::kDowngrade:
          forced_priority = config.broker.priority_levels - 1;
          break;
        case resilience::AdmissionDecision::kAdmit:
          break;
      }
    }
    publish(message, 0, publish_ms, forced_priority, index);
  };

  adapter.drain = [&](double horizon_ms) {
    // Run to the horizon, then stop consumers so the loop can drain.
    loop.RunUntil(horizon_ms);
    broker.StopConsumers();
    loop.Run();
    if (!resil.AnyEnabled()) return;
    // Open-ended overload can leave a backlog past the horizon; pull it
    // synchronously so every publish still confirms (the conservation
    // invariant). Alternate with Run(): a drained confirm can grant a
    // backoff retry that re-publishes past the stopped consumers.
    bool drained = true;
    while (drained) {
      drained = false;
      while (broker.TryPull().has_value()) drained = true;
      loop.Run();
    }
  };

  adapter.finish = [&](ExperimentResult& result) {
    // Broker busy time: one handling cost per delivered message.
    result.service_busy_ms = static_cast<double>(broker.delivered_count()) *
                             config.broker.handling_cost_ms;
    if (!resil.AnyEnabled()) return;
    if (admission != nullptr) {
      result.resilience.shed = admission->stats().shed;
      result.resilience.downgraded = admission->stats().downgraded;
    }
    if (retry.has_value()) {
      result.resilience.retries = retry->stats().granted;
      result.resilience.retries_exhausted = retry->stats().exhausted;
    }
    if (breaker_scheduler != nullptr) {
      const resilience::BreakerStats breakers = breaker_scheduler->TotalStats();
      result.resilience.breaker_opens = breakers.opens;
      result.resilience.breaker_half_opens = breakers.half_opens;
      result.resilience.breaker_closes = breakers.closes;
      result.resilience.breaker_rejections = breakers.rejections;
    }
    result.resilience.model_recomputes = model_recomputes;
  };
  return harness.Run(adapter, /*drain_margin_ms=*/60000.0);
}

}  // namespace e2e
