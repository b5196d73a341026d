#include "testbed/replay_harness.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace e2e {

ReplayHarness::ReplayHarness(const char* runner,
                             std::span<const TraceRecord> records,
                             const QoeModel& qoe,
                             const ExperimentConfig& common)
    : runner_(runner),
      qoe_(qoe),
      common_(common),
      root_(common.seed),
      loop_clock_(loop_),
      profile_clock_(common.profile_real_clock
                         ? static_cast<const Clock*>(&RealClock::Instance())
                         : &loop_clock_),
      telemetry_(common.collect_telemetry, &loop_clock_),
      abandonment_(common.abandonment) {
  if (records.empty()) throw std::invalid_argument(runner_ + ": no records");
  if (telemetry_.enabled()) loop_.AttachMetrics(telemetry_.metrics);
  schedule_ = BuildReplaySchedule(records, common.speedup);
  result_.outcomes.reserve(schedule_.size());
  result_.arrivals = schedule_.size();
  if (abandonment_.enabled()) {
    metric_abandoned_ = &telemetry_.metrics.AddCounter("testbed.abandoned");
  }
}

ReplicatedControllerGroup& ReplayHarness::AddControllers(
    std::initializer_list<std::pair<std::string, std::uint64_t>> replicas,
    const ControllerConfig& config,
    std::shared_ptr<const ServerDelayModel> server_model,
    std::function<void(const DecisionTable&)> install,
    double external_delay_error, double rps_error) {
  if (replicas.size() < 1 || replicas.size() > 2) {
    throw std::invalid_argument(runner_ + ": a primary and at most a backup");
  }
  std::unique_ptr<Controller> controllers[2];
  std::size_t n = 0;
  for (const auto& [name, seed] : replicas) {
    auto& controller = controllers[n++];
    controller = std::make_unique<Controller>(
        name, config, std::shared_ptr<const QoeModel>(&qoe_, [](auto*) {}),
        server_model, seed, profile_clock_);
    controller->SetExternalDelayError(external_delay_error);
    controller->SetRpsError(rps_error);
    if (telemetry_.enabled()) {
      controller->AttachTelemetry(telemetry_.metrics, &telemetry_.tracer,
                                  "ctrl." + name);
    }
  }
  planes_.push_back({std::make_unique<ReplicatedControllerGroup>(
                         std::move(controllers[0]), std::move(controllers[1]),
                         FailoverParams{}),
                     std::move(install)});
  return *planes_.back().group;
}

void ReplayHarness::Quit(std::uint64_t session_id) {
  quit_sessions_.insert(session_id);
  ++arrivals_abandoned_;
  if (metric_abandoned_ != nullptr) metric_abandoned_->Increment();
}

void ReplayHarness::Complete(std::size_t index, double arrival_ms,
                             DelayMs server_delay_ms, int decision,
                             bool failed_over) {
  const TraceRecord& rec = schedule_[index].record;
  RequestOutcome outcome;
  outcome.id = rec.request_id;
  outcome.arrival_ms = arrival_ms;
  outcome.external_delay_ms = rec.external_delay_ms;
  outcome.server_delay_ms = server_delay_ms;
  outcome.decision = decision;
  const double total_delay = rec.external_delay_ms + server_delay_ms;
  if (abandonment_.enabled() &&
      (quit_sessions_.count(rec.session_id) > 0 ||
       abandonment_.Abandons(rec.session_id,
                             qoe_.Classify(rec.external_delay_ms),
                             total_delay))) {
    outcome.status = RequestStatus::kAbandoned;
    Quit(rec.session_id);
  } else {
    outcome.qoe = qoe_.Qoe(total_delay);
    outcome.status =
        failed_over ? RequestStatus::kFailedOver : RequestStatus::kCompleted;
  }
  result_.outcomes.push_back(outcome);
}

void ReplayHarness::Refuse(RequestId id, double arrival_ms,
                           DelayMs external_delay_ms, RequestStatus status) {
  RequestOutcome outcome;
  outcome.id = id;
  outcome.arrival_ms = arrival_ms;
  outcome.external_delay_ms = external_delay_ms;
  outcome.status = status;
  result_.outcomes.push_back(outcome);
}

void ReplayHarness::Arrive(const ReplayAdapter& adapter, std::size_t index) {
  const TraceRecord& rec = schedule_[index].record;
  ++arrivals_seen_;
  // A request from a session that already quit never reaches the
  // controllers or the service: the user is gone, so the load is too.
  if (abandonment_.enabled() && quit_sessions_.count(rec.session_id) > 0) {
    Refuse(rec.request_id, loop_.Now(), rec.external_delay_ms,
           RequestStatus::kAbandoned);
    Quit(rec.session_id);
    return;
  }
  adapter.dispatch(index, rec);
}

void ReplayHarness::Tick(const ReplayAdapter& adapter) {
  if (adapter.before_tick) adapter.before_tick();
  for (Plane& plane : planes_) {
    if (abandonment_.enabled() && arrivals_seen_ > 0) {
      // Plan only for the load still offered (docs/OBJECTIVES.md), capped
      // below 1 so a fully-quit window keeps the planner well-defined.
      const double quit_fraction = static_cast<double>(arrivals_abandoned_) /
                                   static_cast<double>(arrivals_seen_);
      plane.group->SetLoadDiscount(std::min(quit_fraction, 0.95));
    }
    if (plane.group->Tick(loop_.Now())) {
      const DecisionTable* table = plane.group->active().CurrentTable();
      if (table != nullptr) plane.install(*table);
    }
  }
}

ExperimentResult ReplayHarness::Run(const ReplayAdapter& adapter,
                                    double drain_margin_ms) {
  const std::string unsupported =
      " not supported here; use RunBrokerExperiment or RunDbExperiment";
  if (common_.resilience.AnyEnabled() && !adapter.honours_resilience) {
    throw std::invalid_argument(runner_ + ": resilience is" + unsupported);
  }
  // The loop breaks time ties by insertion order, which is part of the
  // byte contract: fault transitions, then arrivals, then ticks.
  std::unique_ptr<fault::FaultInjector> injector;
  if (!common_.fault_plan.empty()) {
    if (!adapter.fault_targets.has_value()) {
      throw std::invalid_argument(runner_ + ": fault plans are" + unsupported);
    }
    injector = std::make_unique<fault::FaultInjector>(
        loop_, common_.fault_plan, *adapter.fault_targets);
    if (telemetry_.enabled()) {
      injector->AttachTelemetry(telemetry_.metrics, &telemetry_.tracer);
    }
    injector->Arm();
  }
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    loop_.Schedule(schedule_[i].testbed_time_ms,
                   [this, &adapter, i]() { Arrive(adapter, i); });
  }
  const double horizon_ms = schedule_.back().testbed_time_ms + drain_margin_ms;
  if (!planes_.empty()) {
    for (double t = common_.tick_interval_ms; t <= horizon_ms;
         t += common_.tick_interval_ms) {
      loop_.Schedule(t, [this, &adapter]() { Tick(adapter); });
    }
  }
  adapter.drain(horizon_ms);

  if (!planes_.empty()) {
    result_.controller_stats = planes_.front().group->active().stats();
  }
  if (injector != nullptr) result_.injected_faults = injector->injected();
  adapter.finish(result_);
  if (telemetry_.enabled()) result_.telemetry = telemetry_.Snapshot();
  result_.Finalize();
  return std::move(result_);
}

}  // namespace e2e
