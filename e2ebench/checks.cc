#include "checks.h"

#include <cmath>
#include <numeric>
#include <sstream>

namespace e2ebench {
namespace {

// Published Table 1 page loads per page type.
constexpr std::array<double, e2e::kNumPageTypes> kTable1Loads = {
    682600.0, 314100.0, 600200.0};
constexpr double kVolumeTolerance = 0.01;
// Fig. 4 region edges and class split.
constexpr double kSensitiveLoMs = 2000.0;
constexpr double kSensitiveHiMs = 5800.0;
constexpr double kSplitTolerance = 0.02;

template <class... Parts>
void Add(Problems* out, const Parts&... parts) {
  std::ostringstream s;
  s.precision(17);
  (s << ... << parts);
  out->push_back(s.str());
}

}  // namespace

void CheckTable(const e2e::DecisionTable& table, int decisions,
                Problems* out) {
  if (table.load_fractions.size() != static_cast<std::size_t>(decisions)) {
    Add(out, "table: ", table.load_fractions.size(), " load fractions for ",
        decisions, " decisions");
  }
  double sum = 0.0;
  for (const double f : table.load_fractions) {
    if (!(f >= 0.0)) Add(out, "table: negative load fraction ", f);
    sum += f;
  }
  if (!(std::abs(sum - 1.0) <= 1e-9)) {
    Add(out, "table: load fractions sum to ", sum);
  }
  if (table.rows.empty()) Add(out, "table: no rows");
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    const e2e::DecisionTableRow& row = table.rows[i];
    if (row.decision < 0 || row.decision >= decisions) {
      Add(out, "table: row ", i, " has decision ", row.decision);
    }
    if (!(row.lo <= row.hi)) {
      Add(out, "table: row ", i, " has lo ", row.lo, " > hi ", row.hi);
    }
    if (i + 1 < table.rows.size() && row.hi != table.rows[i + 1].lo) {
      Add(out, "table: row ", i, " ends at ", row.hi, " but row ", i + 1,
          " starts at ", table.rows[i + 1].lo);
    }
  }
}

void CheckReplay(const e2e::ShardedReplayResult& replay,
                 const ReplayReference& reference, std::size_t generated,
                 Problems* out) {
  const e2e::ExperimentResult& r = replay.result;
  if (r.mean_qoe != reference.mean_qoe) {
    Add(out, "replay: mean QoE ", r.mean_qoe, " but recomposed ",
        reference.mean_qoe);
  }
  if (r.completed != reference.served) {
    Add(out, "replay: served ", r.completed, " but recomposed ",
        reference.served);
  }
  if (replay.stats.groups_merged != reference.groups) {
    Add(out, "replay: ", replay.stats.groups_merged,
        " groups but recomposed ", reference.groups);
  }
  const std::uint64_t outcomes = r.completed + r.failed_over + r.dropped +
                                 r.shed + r.abandoned;
  if (outcomes != replay.stats.records || replay.stats.records != generated ||
      r.arrivals != generated) {
    Add(out, "replay: outcomes ", outcomes, ", routed ", replay.stats.records,
        ", arrivals ", r.arrivals, ", generated ", generated);
  }
  const std::uint64_t in_histogram =
      std::accumulate(replay.qoe_histogram.begin(), replay.qoe_histogram.end(),
                      std::uint64_t{0});
  if (in_histogram != r.completed + r.failed_over) {
    Add(out, "replay: QoE histogram holds ", in_histogram, " of ",
        r.completed + r.failed_over, " served");
  }
}

TraceShape MeasureTraceShape(const e2e::Trace& trace) {
  TraceShape shape;
  std::size_t fast = 0;
  std::size_t slow = 0;
  for (const e2e::TraceRecord& r : trace.records) {
    ++shape.page_loads[static_cast<std::size_t>(e2e::Index(r.page_type))];
    if (r.external_delay_ms < kSensitiveLoMs) ++fast;
    if (r.external_delay_ms > kSensitiveHiMs) ++slow;
  }
  const auto n = static_cast<double>(trace.records.size());
  if (n > 0.0) {
    shape.too_fast = static_cast<double>(fast) / n;
    shape.too_slow = static_cast<double>(slow) / n;
    shape.sensitive = 1.0 - shape.too_fast - shape.too_slow;
  }
  return shape;
}

void CheckTraceShape(const TraceShape& shape, Problems* out) {
  for (std::size_t p = 0; p < kTable1Loads.size(); ++p) {
    const auto loads = static_cast<double>(shape.page_loads[p]);
    if (!(std::abs(loads - kTable1Loads[p]) <=
          kVolumeTolerance * kTable1Loads[p])) {
      Add(out, "trace: page type ", p + 1, " has ", shape.page_loads[p],
          " loads, Table 1 has ", kTable1Loads[p]);
    }
  }
  const std::array<double, 3> shares = {shape.too_fast, shape.sensitive,
                                        shape.too_slow};
  const std::array<double, 3> published = {0.25, 0.50, 0.25};
  for (std::size_t c = 0; c < shares.size(); ++c) {
    if (!(std::abs(shares[c] - published[c]) <= kSplitTolerance)) {
      Add(out, "trace: external-delay class ", c, " holds ", shares[c],
          " of requests, Fig. 4 has ", published[c]);
    }
  }
}

void CheckTestbed(const e2e::ExperimentResult& result, std::size_t slice_size,
                  const e2e::QoeModel& qoe, Problems* out) {
  std::array<std::uint64_t, 5> counted{};
  double sum_qoe = 0.0;
  std::uint64_t served = 0;
  for (const e2e::RequestOutcome& o : result.outcomes) {
    ++counted[static_cast<std::size_t>(o.status)];
    if (!o.Served()) continue;
    const double expected = qoe.Qoe(o.external_delay_ms + o.server_delay_ms);
    if (o.qoe != expected) {
      Add(out, "testbed: request ", o.id, " has QoE ", o.qoe, " but Q(",
          o.external_delay_ms, " + ", o.server_delay_ms, ") = ", expected);
    }
    sum_qoe += expected;
    ++served;
  }
  const std::array<std::uint64_t, 5> reported = {
      result.completed, result.failed_over, result.dropped, result.shed,
      result.abandoned};
  if (counted != reported) {
    Add(out, "testbed: status counts in the outcomes differ from the "
             "result's (completed ", counted[0], " vs ", reported[0], ")");
  }
  const std::uint64_t total =
      std::accumulate(counted.begin(), counted.end(), std::uint64_t{0});
  if (total != result.arrivals || result.arrivals != slice_size) {
    Add(out, "testbed: outcomes ", total, ", arrivals ", result.arrivals,
        ", slice ", slice_size);
  }
  const double mean = served == 0 ? 0.0 : sum_qoe / static_cast<double>(served);
  if (served == 0 || result.mean_qoe != mean) {
    Add(out, "testbed: mean QoE ", result.mean_qoe, " but outcomes give ",
        mean, " over ", served, " served");
  }
}

void CheckSameBytes(const std::string& first, const std::string& repeat,
                    Problems* out) {
  if (first != repeat) {
    Add(out, "repeat: Serialize() differs between two executions (",
        first.size(), " vs ", repeat.size(), " bytes)");
  }
}

void CheckBeatsDefault(double e2e_mean_qoe, double default_mean_qoe,
                       Problems* out) {
  if (!(e2e_mean_qoe > default_mean_qoe)) {
    Add(out, "quality: E2E mean QoE ", e2e_mean_qoe,
        " does not beat the default policy's ", default_mean_qoe);
  }
}

}  // namespace e2ebench
