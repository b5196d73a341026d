// The replay loop every testbed runner shares (DESIGN.md §2, testbed/).
//
// A testbed run replays a trace slice open-loop: arrivals follow the trace
// schedule whatever the service does. Only the controller feedback is
// closed: controllers observe each arrival, re-plan at every tick and hand
// their tables to the service's decision hook. The harness owns what every
// service shares (event loop, clocks, telemetry, arrival scheduling,
// session abandonment and its load discount, controllers, the tick loop,
// the fault injector, result assembly); a runner is a ReplayAdapter that
// supplies only its service.
#pragma once

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/failover.h"
#include "fault/injector.h"
#include "obs/export.h"
#include "qoe/abandonment.h"
#include "sim/event_loop.h"
#include "testbed/experiment_config.h"
#include "testbed/metrics.h"
#include "trace/replay.h"

namespace e2e {

/// The service side of a replay: the hooks a runner supplies.
struct ReplayAdapter {
  /// Admits and dispatches arrival `index` (its session has not quit); it
  /// ends in ReplayHarness::Complete or ReplayHarness::Refuse.
  std::function<void(std::size_t index, const TraceRecord& rec)> dispatch;
  /// Optional: runs at each tick, before the controllers plan.
  std::function<void()> before_tick;
  /// Runs the loop past the last tick at `horizon_ms` until every request
  /// has its outcome.
  std::function<void(double horizon_ms)> drain;
  /// Adds the service's own fields (busy time, resilience counters) to the
  /// assembled result.
  std::function<void(ExperimentResult& result)> finish;
  /// What a fault plan may act on; without targets, plans are rejected.
  std::optional<fault::FaultTargets> fault_targets;
  /// Whether the service applies `common.resilience`; an enabled block is
  /// rejected otherwise.
  bool honours_resilience = false;
};

/// One testbed run: construct it, build the service on it, then Run() the
/// adapter once. `qoe` and `common` must outlive the harness.
class ReplayHarness {
 public:
  /// Throws std::invalid_argument, naming `runner`, when `records` is empty.
  ReplayHarness(const char* runner, std::span<const TraceRecord> records,
                const QoeModel& qoe, const ExperimentConfig& common);
  // Loop events hold `this`.
  ReplayHarness(const ReplayHarness&) = delete;
  ReplayHarness& operator=(const ReplayHarness&) = delete;

  EventLoop& loop() { return loop_; }
  obs::Telemetry& telemetry() { return telemetry_; }
  /// The run's root RNG (seeded with `common.seed`) to fork streams from.
  Rng& rng() { return root_; }
  const QoeModel& qoe() const { return qoe_; }
  const std::vector<ReplayArrival>& schedule() const { return schedule_; }

  /// Adds a controller group to the tick loop: a primary and an optional
  /// backup, each given as (name, seed). Its controllers profile against
  /// the configured clock, carry the estimation errors and report telemetry
  /// under "ctrl.<name>"; each fresh table goes to `install`. The first
  /// group's stats are the result's.
  ReplicatedControllerGroup& AddControllers(
      std::initializer_list<std::pair<std::string, std::uint64_t>> replicas,
      const ControllerConfig& config,
      std::shared_ptr<const ServerDelayModel> server_model,
      std::function<void(const DecisionTable&)> install,
      double external_delay_error = 0.0, double rps_error = 0.0);

  /// Records the service's answer to arrival `index`. The request is
  /// abandoned instead of served when its total delay crosses its session's
  /// patience or the session quit while it was in flight.
  void Complete(std::size_t index, double arrival_ms, DelayMs server_delay_ms,
                int decision, bool failed_over = false);

  /// Records a request that was never served (dropped, shed or abandoned).
  void Refuse(RequestId id, double arrival_ms, DelayMs external_delay_ms,
              RequestStatus status);

  /// Arms the fault plan, schedules every arrival and then a tick every
  /// `tick_interval_ms` up to `drain_margin_ms` past the last arrival, and
  /// drains. Call once.
  ExperimentResult Run(const ReplayAdapter& adapter, double drain_margin_ms);

 private:
  struct Plane {
    std::unique_ptr<ReplicatedControllerGroup> group;
    std::function<void(const DecisionTable&)> install;
  };

  void Arrive(const ReplayAdapter& adapter, std::size_t index);
  void Tick(const ReplayAdapter& adapter);
  void Quit(std::uint64_t session_id);

  std::string runner_;
  const QoeModel& qoe_;
  const ExperimentConfig& common_;
  Rng root_;
  EventLoop loop_;
  const EventLoopClock loop_clock_;
  // Stats profiling may opt into the real clock (Fig. 16/17); telemetry
  // always runs on the virtual one, so its exports stay byte-identical.
  const Clock* profile_clock_;
  obs::Telemetry telemetry_;
  std::vector<ReplayArrival> schedule_;
  std::vector<Plane> planes_;
  ExperimentResult result_;

  // Session abandonment keys off the true external delay (user behavior).
  // Its counter exists only when the model is live, so stock telemetry
  // stays byte-identical.
  const AbandonmentModel abandonment_;
  std::unordered_set<std::uint64_t> quit_sessions_;
  obs::Counter* metric_abandoned_ = nullptr;
  std::uint64_t arrivals_seen_ = 0;
  std::uint64_t arrivals_abandoned_ = 0;
};

}  // namespace e2e
