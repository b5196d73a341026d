// Output checks the benchmark applies on every run.
//
// Each check compares one program output against a property of the method
// or against a reference the benchmark computed on an independent path, and
// appends what it found wrong to `out`; an empty list means the output
// passed. The checks are plain functions of values so that checks_test.cc
// can feed them tampered outputs and show that each one rejects them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/policy.h"
#include "qoe/qoe_model.h"
#include "testbed/metrics.h"
#include "testbed/sharded_replay.h"
#include "trace/record.h"

namespace e2ebench {

using Problems = std::vector<std::string>;

/// A solved decision table over `decisions` choices: load fractions are
/// non-negative and sum to 1 (within 1e-9), rows are sorted by `lo` and
/// contiguous (each row's `hi` is the next row's `lo`), and every row's
/// decision is in [0, decisions).
void CheckTable(const e2e::DecisionTable& table, int decisions,
                Problems* out);

/// What the benchmark recomposes for a replay from the public per-stage
/// functions (StreamByWindow, Bucketizer, ComputePolicy, LookupRow, G, Qoe).
struct ReplayReference {
  double mean_qoe = 0.0;
  std::uint64_t served = 0;
  std::uint64_t groups = 0;
};

/// The replay's mean QoE, served count and group count equal the
/// recomposed ones; served + abandoned = routed = `generated` records; the
/// QoE histogram holds exactly the served requests.
void CheckReplay(const e2e::ShardedReplayResult& replay,
                 const ReplayReference& reference, std::size_t generated,
                 Problems* out);

/// The generated day's shape, counted by the benchmark.
struct TraceShape {
  std::array<std::size_t, e2e::kNumPageTypes> page_loads{};
  /// External-delay class shares (Fig. 4 region edges 2.0 s and 5.8 s).
  double too_fast = 0.0;
  double sensitive = 0.0;
  double too_slow = 0.0;
};

TraceShape MeasureTraceShape(const e2e::Trace& trace);

/// Page loads within 1% of the published Table 1 volume per page type
/// (682.6K / 314.1K / 600.2K) and class shares within 2 percentage points
/// of the Fig. 4 split (25% / 50% / 25%).
void CheckTraceShape(const TraceShape& shape, Problems* out);

/// A testbed run over a slice the benchmark counted as `slice_size`
/// records: the outcome statuses (recounted from the outcomes) match the
/// result's status fields and sum to the arrivals, which equal
/// `slice_size`; each served outcome's QoE is `qoe` applied to its external
/// plus measured server delay; `mean_qoe` is the mean of those QoE values.
void CheckTestbed(const e2e::ExperimentResult& result, std::size_t slice_size,
                  const e2e::QoeModel& qoe, Problems* out);

/// Two executions of the same run serialize to the same bytes.
void CheckSameBytes(const std::string& first, const std::string& repeat,
                    Problems* out);

/// E2E's mean QoE is above the default policy's on the same input.
void CheckBeatsDefault(double e2e_mean_qoe, double default_mean_qoe,
                       Problems* out);

}  // namespace e2ebench
