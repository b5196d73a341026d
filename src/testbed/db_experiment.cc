#include "testbed/db_experiment.h"

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/profiler.h"
#include "testbed/replay_harness.h"

namespace e2e {

std::shared_ptr<const ServerDelayModel> BuildDbServerModel(
    const DbExperimentConfig& config) {
  ProfilerConfig profiler;
  profiler.base_service_ms = config.cluster.base_service_ms;
  profiler.capacity = config.cluster.capacity;
  profiler.service_alpha = config.cluster.service_alpha;
  profiler.service_beta = config.cluster.service_beta;
  profiler.jitter_sigma = config.cluster.jitter_sigma;
  profiler.concurrency = config.cluster.concurrency_per_replica;
  profiler.max_rps = config.profile_max_rps;
  profiler.levels = config.profile_levels;
  profiler.duration_ms = config.profile_duration_ms;
  profiler.seed = config.common.seed ^ 0x90f1ULL;
  LoadProfile profile = ProfileServerOffline(profiler);
  return std::make_shared<ProfiledReplicaModel>(config.cluster.replica_groups,
                                                std::move(profile));
}

std::vector<db::TableSelector::Entry> ToSelectorEntries(
    const DecisionTable& table, double epsilon) {
  std::vector<db::TableSelector::Entry> entries;
  entries.reserve(table.rows.size());
  const std::size_t decisions = table.load_fractions.size();
  for (const auto& row : table.rows) {
    db::TableSelector::Entry entry;
    entry.lo = row.lo;
    entry.hi = row.hi;
    // Probabilistic rows (the paper's Sec 5 table stores per-replica
    // probabilities): mostly the matched replica, with an epsilon spread
    // that keeps every bucket sampling every replica. The spread both
    // smooths bursts and keeps the sacrificial replica's backlog bounded.
    entry.probabilities.assign(
        decisions, decisions > 1
                       ? epsilon / static_cast<double>(decisions - 1)
                       : 0.0);
    entry.probabilities[static_cast<std::size_t>(row.decision)] =
        1.0 - epsilon;
    entries.push_back(std::move(entry));
  }
  return entries;
}

ExperimentResult RunDbExperiment(std::span<const TraceRecord> records,
                                 const QoeModel& qoe,
                                 const DbExperimentConfig& config) {
  ReplayHarness harness("RunDbExperiment", records, qoe, config.common);
  EventLoop& loop = harness.loop();
  obs::Telemetry& telemetry = harness.telemetry();
  db::Cluster cluster(loop, config.cluster, harness.rng().Fork(1));
  cluster.LoadDataset(config.dataset_keys, config.value_bytes);
  if (telemetry.enabled()) cluster.AttachMetrics(telemetry.metrics);

  // Sec 9 deployment mode: estimate external delays mechanistically at the
  // frontend instead of reading the oracle values.
  std::unique_ptr<Frontend> frontend;
  if (config.external_source == ExternalSource::kMechanisticEstimator) {
    frontend = std::make_unique<Frontend>(config.frontend);
    frontend->TrainRenderModel(records);
  }

  // --- Policy wiring: the replica selector is the decision hook ----------
  std::shared_ptr<db::ReplicaSelector> selector;
  ReplicatedControllerGroup* controllers = nullptr;
  if (config.policy == DbPolicy::kSlope || config.policy == DbPolicy::kE2e) {
    ControllerConfig cc = config.common.controller;
    if (config.policy == DbPolicy::kSlope) {
      cc.policy.mapping = MappingAlgorithm::kSlopeBased;
    }
    auto table_selector = std::make_shared<db::TableSelector>(
        config.policy == DbPolicy::kSlope ? "slope-table" : "e2e-table",
        harness.rng().Fork(2));
    controllers = &harness.AddControllers(
        {{"primary", config.common.seed ^ 0x51ULL},
         {"backup", config.common.seed ^ 0x52ULL}},
        cc, BuildDbServerModel(config),
        [table_selector, epsilon = config.table_epsilon](
            const DecisionTable& table) {
          table_selector->SetTable(ToSelectorEntries(table, epsilon));
        },
        config.external_delay_error, config.rps_error);
    selector = std::move(table_selector);
  } else if (config.policy == DbPolicy::kLatencyAware) {
    selector = std::make_shared<db::LatencyAwareSelector>();
  } else {
    selector = std::make_shared<db::LoadBalancedSelector>();
  }
  db::ReadExecutor executor(cluster, selector);
  if (telemetry.enabled()) executor.AttachMetrics(telemetry.metrics);

  // --- Resilience layer --------------------------------------------------
  const resilience::ResilienceConfig& resil = config.common.resilience;
  if (resil.AnyEnabled()) {
    executor.EnableResilience(resil, harness.rng().Fork(4),
                              [&qoe](const db::DbRequest& request) {
                                return qoe.Classify(request.external_delay_ms);
                              });
    if (telemetry.enabled()) {
      executor.AttachResilienceMetrics(telemetry.metrics, &telemetry.tracer);
    }
  }
  const bool model_driven =
      resil.hedge.enabled && resil.hedge.mode == resilience::HedgeMode::kModelDriven;

  // Per-replica resilience snapshot gauges (docs/RESILIENCE.md): the
  // placement co-design's controller inputs, exported through src/obs so
  // the policy shift away from un-rescuable replicas is observable.
  // Registered only in model-driven mode — stock telemetry stays
  // byte-identical.
  struct ReplicaResilienceGauges {
    obs::Gauge* utilization = nullptr;
    obs::Gauge* predicted_gain = nullptr;
    obs::Gauge* rescuable = nullptr;
    obs::Gauge* penalty = nullptr;
  };
  std::vector<ReplicaResilienceGauges> replica_gauges;
  if (model_driven && telemetry.enabled()) {
    replica_gauges.resize(static_cast<std::size_t>(cluster.NumReplicas()));
    for (int r = 0; r < cluster.NumReplicas(); ++r) {
      const std::string prefix =
          "db.resilience.replica" + std::to_string(r) + ".";
      auto& g = replica_gauges[static_cast<std::size_t>(r)];
      g.utilization = &telemetry.metrics.AddGauge(prefix + "utilization");
      g.predicted_gain =
          &telemetry.metrics.AddGauge(prefix + "predicted_gain_ms");
      g.rescuable = &telemetry.metrics.AddGauge(prefix + "rescuable");
      g.penalty = &telemetry.metrics.AddGauge(prefix + "penalty_ms");
    }
  }
  Rng keys = harness.rng().Fork(3);

  ReplayAdapter adapter;
  adapter.honours_resilience = true;
  adapter.fault_targets.emplace();
  adapter.fault_targets->controllers = controllers;
  adapter.fault_targets->cluster = &cluster;
  adapter.fault_targets->base_external_error = config.external_delay_error;
  if (controllers != nullptr || frontend != nullptr) {
    adapter.fault_targets->apply_external_error =
        [controllers, front = frontend.get(),
         base = config.external_delay_error](double error) {
          if (controllers != nullptr) controllers->SetExternalDelayError(error);
          // In estimator mode the skew also biases the frontend's tags — the
          // deployment-facing estimate path drifts with the injected error.
          if (front != nullptr) front->SetEstimateBias(error - base);
        };
  }

  adapter.dispatch = [&](std::size_t index, const TraceRecord& rec) {
    const DelayMs tagged_external =
        frontend != nullptr ? frontend->EstimateExternal(rec)
                            : rec.external_delay_ms;
    if (controllers != nullptr) {
      controllers->ObserveArrival(tagged_external, loop.Now());
    }
    db::DbRequest request;
    request.id = rec.request_id;
    request.external_delay_ms = tagged_external;
    request.range_start = static_cast<db::Key>(keys.UniformInt(
        0, static_cast<std::int64_t>(config.dataset_keys) - 1));
    request.range_count = config.range_count;
    if (resil.hedge.enabled) {
      // Per-class hedge delay: sensitive requests hedge aggressively
      // (their QoE gains most from shaving the tail), the flat classes
      // conservatively.
      request.hedge_delay_ms =
          qoe.Classify(tagged_external) == SensitivityClass::kSensitive
              ? resil.hedge.sensitive_delay_ms
              : resil.hedge.insensitive_delay_ms;
    }
    executor.ExecuteRangeRead(
        request, [&harness, index](const db::ReadResult& read) {
          harness.Complete(index, read.timing.enqueue_ms,
                           read.timing.TotalDelayMs(), read.replica,
                           read.failed_over);
        });
  };

  if (model_driven) {
    adapter.before_tick = [&]() {
      // Roll the cloning-model window even across arrival lulls, then feed
      // the per-replica snapshot into the next policy solve: a replica the
      // model says cloning cannot rescue is penalized by its measured excess
      // delay, so weight drifts off it.
      executor.MaybeRecomputeBudgets(loop.Now());
      const auto snapshot = executor.SnapshotResilience(loop.Now());
      std::vector<double> penalties(snapshot.size(), 0.0);
      bool any_penalty = false;
      for (std::size_t i = 0; i < snapshot.size(); ++i) {
        const db::ReplicaResilienceSnapshot& snap = snapshot[i];
        if (!snap.rescuable && snap.excess_delay_ms > 0.0) {
          penalties[i] = snap.excess_delay_ms;
          any_penalty = true;
        }
        if (!replica_gauges.empty()) {
          const auto& g = replica_gauges[i];
          g.utilization->Set(snap.utilization);
          g.predicted_gain->Set(snap.predicted_gain_ms);
          g.rescuable->Set(snap.rescuable ? 1.0 : 0.0);
          g.penalty->Set(penalties[i]);
        }
      }
      controllers->SetDecisionPenalties(
          any_penalty ? std::move(penalties) : std::vector<double>{});
    };
  }

  adapter.drain = [&](double) { loop.Run(); };

  adapter.finish = [&](ExperimentResult& result) {
    // Service busy time: sum of service delays across replicas.
    for (int r = 0; r < cluster.NumReplicas(); ++r) {
      result.service_busy_ms +=
          cluster.replica(r).server().service_delay_stats().sum();
    }
    if (!resil.AnyEnabled()) return;
    const db::ReadResilienceStats& reads = executor.resilience_stats();
    result.resilience.retries = reads.retries;
    result.resilience.retries_exhausted = reads.retries_exhausted;
    result.resilience.hedges_issued = reads.hedges_issued;
    result.resilience.hedges_won = reads.hedges_won;
    result.resilience.hedges_cancelled = reads.hedges_cancelled;
    result.resilience.model_recomputes = reads.model_recomputes;
    const resilience::BreakerStats breakers = executor.TotalBreakerStats();
    result.resilience.breaker_opens = breakers.opens;
    result.resilience.breaker_half_opens = breakers.half_opens;
    result.resilience.breaker_closes = breakers.closes;
    result.resilience.breaker_rejections = breakers.rejections;
  };
  return harness.Run(adapter, /*drain_margin_ms=*/30000.0);
}

}  // namespace e2e
