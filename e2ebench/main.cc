// e2ebench: runs one workload of the repository's end-to-end benchmark.
//
//   e2ebench --workload <replay_day|db_testbed|broker_testbed> --seed N
//            --seconds S --trace <0|1> [--spans-dir DIR]
//
// Every workload generates the paper's full synthetic day from the seed,
// then repeats whole rounds for S seconds after a warm-up round. A round is
// one main call (the full-day replay, or one testbed run on the 16:00-17:00
// page-type-1 slice) and one pass of decision-table solves (ComputePolicy)
// over the workload's own windows and server-delay model G; run_s is the
// median main call and table_solve_ms_p50 the median solve. Every run
// checks the program's outputs (checks.h) and prints, as its last stdout
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// "attempted" counts the requests the rounds' main calls offered plus their
// table solves; "failed" counts the offered requests that were not served
// (dropped, shed or abandoned).
//
// --trace 0 reports the end-to-end metrics; --trace 1 reruns the same
// phases with spans around each layer call (spans.h), telemetry and the
// controller's real-clock profiling switched on, and reports the per-layer
// metrics instead; its spans are written to
// DIR/<workload>-seed<N>.json when it ends, if --spans-dir is given.
// Everything runs on one thread: 1 shard, parallel_workers = 1.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.h"
#include "core/policy.h"
#include "core/server_delay_model.h"
#include "db/storage.h"
#include "qoe/sigmoid_model.h"
#include "sim/event_loop.h"
#include "spans.h"
#include "stats/bucketizer.h"
#include "testbed/broker_experiment.h"
#include "testbed/db_experiment.h"
#include "testbed/sharded_replay.h"
#include "testbed/workloads.h"
#include "trace/generator.h"
#include "trace/windows.h"
#include "util/rng.h"

namespace e2ebench {
namespace {

using e2e::ExperimentResult;
using e2e::PolicyStats;
using e2e::QoeModel;
using e2e::ServerDelayModel;
using e2e::TraceRecord;

// Fewest timed rounds a run makes, whatever --seconds.
constexpr int kMinTimedRounds = 3;
// Seconds one host-speed reference sort takes on the host the figures in
// README.md come from (see Repeat).
constexpr double kReferenceNominalS = 0.025;

// The testbed slice every testbed figure replays: page type 1, 16:00-17:00.
constexpr int kSliceBeginHour = 16;
constexpr int kSliceEndHour = 17;
// Reference speed-ups at which each testbed runs at the paper's load.
constexpr double kDbSpeedup = 24.0;
constexpr double kBrokerSpeedup = 20.0;

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_dir;
};

// What one workload run reports. Only whole rounds count towards attempted
// and failed, so the failed share does not depend on how many rounds a run
// makes.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Problems problems;
  std::vector<Metric> metrics;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// Requests a main call offered that it did not serve: dropped, shed or
// abandoned. Completed and failed-over requests were served.
std::uint64_t Unserved(const ExperimentResult& r) {
  const std::uint64_t served = r.completed + r.failed_over;
  return r.arrivals > served ? r.arrivals - served : 0;
}

template <class F>
double TimeSeconds(F&& f) {
  const double start = ProcessSeconds();
  f();
  return ProcessSeconds() - start;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// Host-speed reference: work that no change to the program can move, so
// its time tracks only how fast the host runs us right now. Sorts 2^18
// seeded doubles eight times and returns the median seconds of one sort.
double ReferenceSeconds() {
  std::vector<double> values(std::size_t{1} << 18);
  std::vector<double> seconds;
  for (int i = 0; i < 8; ++i) {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (double& v : values) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      v = static_cast<double>(x >> 11);
    }
    seconds.push_back(
        TimeSeconds([&] { std::sort(values.begin(), values.end()); }));
  }
  return Median(std::move(seconds));
}

// Times of one round: its main call and each table solve of its pass.
struct RoundTimes {
  double run_s = 0.0;
  std::vector<double> solve_ms;
};

// What Repeat measured. Raw times are as the clock read them; scaled ones
// are multiplied by a host factor kReferenceNominalS / reference, the
// reference being the mean of the sorts timed just before and just after
// the main call (for run_s) or the solve pass (for solves).
struct Measured {
  int rounds = 0;  ///< Warm-up included.
  std::vector<double> run_s;
  std::vector<double> solve_ms;
  std::vector<double> scaled_run_s;
  std::vector<double> scaled_solve_ms;
  std::vector<double> host_factors;
};

// A round makes one main call, then calls `between`, then makes one pass
// of table solves.
using Round = std::function<RoundTimes(bool warm_up,
                                       const std::function<void()>& between)>;

// Runs `round` once as a warm-up, then in whole rounds until `seconds` have
// passed since the warm-up began and at least kMinTimedRounds were timed,
// so the main call and the solves are both sampled across the whole run.
//
// This host's speed drifts by tens of percent over seconds to minutes: the
// same run on the same seed took 0.95 s to 1.46 s from one process to the
// next, and its main calls and solves slowed together. The reference sorts
// timed around each part slow with them, so the scaled times divide most
// of that drift out; the raw medians and the host factor go to stderr.
Measured Repeat(double seconds, const Round& round) {
  const double start = ProcessSeconds();
  round(true, [] {});
  Measured m;
  m.rounds = 1;
  double before = ReferenceSeconds();
  double mid = 0.0;
  while (m.rounds - 1 < kMinTimedRounds ||
         ProcessSeconds() - start < seconds) {
    const RoundTimes t =
        round(false, [&mid] { mid = ReferenceSeconds(); });
    const double after = ReferenceSeconds();
    const double run_factor = kReferenceNominalS / (0.5 * (before + mid));
    const double solve_factor = kReferenceNominalS / (0.5 * (mid + after));
    before = after;
    ++m.rounds;
    m.host_factors.push_back(run_factor);
    m.host_factors.push_back(solve_factor);
    m.run_s.push_back(t.run_s);
    m.scaled_run_s.push_back(t.run_s * run_factor);
    for (const double ms : t.solve_ms) {
      m.solve_ms.push_back(ms);
      m.scaled_solve_ms.push_back(ms * solve_factor);
    }
  }
  std::cerr << "e2ebench: raw run_s median " << Median(m.run_s)
            << ", raw table_solve_ms median " << Median(m.solve_ms)
            << ", host factor median " << Median(m.host_factors) << "\n";
  return m;
}

e2e::Trace GenerateDay(std::uint64_t seed) {
  e2e::TraceGenParams params;
  params.seed = seed;
  params.scale = 1.0;  // The paper's whole day.
  return e2e::TraceGenerator(params).Generate();
}

// Page QoE models of the evaluation (§7.2): time-on-site curves for page
// types 1 and 2, the MTurk rating curve rescaled onto [0, 1] for type 3.
const QoeModel& PageQoe(e2e::PageType page) {
  static const e2e::SigmoidQoeModel type12 =
      e2e::SigmoidQoeModel::TraceTimeOnSite();
  static const e2e::NormalizedQoeModel type3 =
      e2e::NormalizedQoeModel::FromGradeScale(
          std::make_shared<const e2e::SigmoidQoeModel>(
              e2e::SigmoidQoeModel::MTurkMicrosoftPage()));
  return page == e2e::PageType::kType3 ? static_cast<const QoeModel&>(type3)
                                       : static_cast<const QoeModel&>(type12);
}

// --- Per-layer bookkeeping shared by the workloads ---------------------

// Sums of the PolicyStats of one round of solves.
struct SolveCounts {
  std::uint64_t calls = 0;
  std::uint64_t buckets = 0;
  std::uint64_t transport_solves = 0;
  std::uint64_t warm_resolves = 0;
  std::uint64_t hill_climb_steps = 0;
  std::uint64_t allocations_evaluated = 0;

  void Add(const PolicyStats& s) {
    ++calls;
    buckets += static_cast<std::uint64_t>(s.buckets);
    transport_solves += static_cast<std::uint64_t>(s.transport_solves);
    warm_resolves += static_cast<std::uint64_t>(s.warm_resolves);
    hill_climb_steps += static_cast<std::uint64_t>(s.hill_climb_steps);
    allocations_evaluated +=
        static_cast<std::uint64_t>(s.allocations_evaluated);
  }
};

// Layer figures a workload hands to PerLayerMetrics; layers a workload does
// not use stay 0.
struct Layers {
  double generate_s = 0.0;
  double rss_after_generate_mb = 0.0;
  double route_s = 0.0;
  double bucketize_s = 0.0;
  double policy_s = 0.0;
  SolveCounts counts;
  std::uint64_t recomputes = 0;
  double recompute_s = 0.0;
  double lookup_s = 0.0;
  double profile_s = 0.0;
  double score_s = 0.0;
  double replay_engine_s = 0.0;
  double testbed_self_s = 0.0;
  std::uint64_t sim_events = 0;
  std::uint64_t db_reads = 0;
  std::uint64_t broker_published = 0;
  std::uint64_t broker_delivered = 0;
};

// Per-event cost of a bare EventLoop: schedule 200k no-op events at seeded
// random times, then run them.
double EventNs(std::uint64_t seed) {
  constexpr int kEvents = 200000;
  e2e::EventLoop loop;
  e2e::Rng rng(seed);
  std::uint64_t fired = 0;
  const double seconds = TimeSeconds([&] {
    for (int i = 0; i < kEvents; ++i) {
      loop.Schedule(rng.Uniform(0.0, 1e6), [&fired] { ++fired; });
    }
    loop.Run();
  });
  if (fired != kEvents) {
    throw std::runtime_error("EventLoop dropped events in the probe");
  }
  return seconds * 1e9 / kEvents;
}

// Per-query cost of StorageEngine::RangeQuery on a store loaded like one
// db testbed replica (20k keys of 64 bytes, flushed and compacted), over
// 20k seeded 100-row range reads.
double RangeQueryUs(std::uint64_t seed) {
  constexpr std::size_t kKeys = 20000;
  constexpr int kQueries = 20000;
  constexpr std::size_t kRows = 100;
  e2e::db::StorageEngine storage;
  const std::string payload(64, 'v');
  for (std::size_t k = 0; k < kKeys; ++k) {
    storage.Put(static_cast<e2e::db::Key>(k), payload);
  }
  storage.Flush();
  storage.Compact();
  e2e::Rng rng(seed);
  std::size_t rows = 0;
  const double seconds = TimeSeconds([&] {
    for (int i = 0; i < kQueries; ++i) {
      const auto start = static_cast<e2e::db::Key>(
          rng.UniformInt(0, static_cast<std::int64_t>(kKeys) - 1));
      rows += storage.RangeQuery(start, kRows).size();
    }
  });
  if (rows == 0) throw std::runtime_error("RangeQuery probe read no rows");
  return seconds * 1e6 / kQueries;
}

std::vector<Metric> PerLayerMetrics(const Layers& l, std::uint64_t seed) {
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const SolveCounts& c = l.counts;
  const double warm_fraction =
      c.transport_solves == 0
          ? 0.0
          : count(c.warm_resolves) / count(c.transport_solves);
  return {
      {"trace.generate_s", "s", l.generate_s},
      {"trace.rss_after_generate_mb", "MB", l.rss_after_generate_mb},
      {"trace.route_s", "s", l.route_s},
      {"stats.bucketize_s", "s", l.bucketize_s},
      {"stats.buckets", "count", count(c.buckets)},
      {"core.policy_s", "s", l.policy_s},
      {"core.policy_calls", "count", count(c.calls)},
      {"core.transport_solves", "count", count(c.transport_solves)},
      {"core.warm_resolves", "count", count(c.warm_resolves)},
      {"core.warm_fraction", "ratio", warm_fraction},
      {"core.hill_climb_steps", "count", count(c.hill_climb_steps)},
      {"core.allocations_evaluated", "count", count(c.allocations_evaluated)},
      {"core.recomputes", "count", count(l.recomputes)},
      {"core.recompute_s", "s", l.recompute_s},
      {"core.lookup_s", "s", l.lookup_s},
      {"core.profile_s", "s", l.profile_s},
      {"testbed.score_s", "s", l.score_s},
      {"testbed.replay_engine_s", "s", l.replay_engine_s},
      {"testbed.self_s", "s", l.testbed_self_s},
      {"sim.events", "count", count(l.sim_events)},
      {"sim.event_ns", "ns", EventNs(seed)},
      {"db.reads", "count", count(l.db_reads)},
      {"db.range_query_us", "us", RangeQueryUs(seed)},
      {"broker.published", "count", count(l.broker_published)},
      {"broker.delivered", "count", count(l.broker_delivered)},
  };
}

std::vector<Metric> EndToEndMetrics(double setup_s, double run_s,
                                    double peak_rss_mb,
                                    const std::vector<double>& solve_ms,
                                    double mean_qoe) {
  return {
      {"setup_s", "s", setup_s},
      {"run_s", "s", run_s},
      {"peak_rss_mb", "MB", peak_rss_mb},
      {"table_solve_ms_p50", "ms", Median(solve_ms)},
      {"mean_qoe", "QoE", mean_qoe},
  };
}

// --- replay_day ----------------------------------------------------------

// G for the replay: three replicas sharing one 8-level profile (the same
// model bench/bench_scale plans against). A page group's load at 10 s
// windows stays inside the first level, so G is load-independent there
// and the hill climb's neighbour solves take the warm re-solve path.
e2e::ProfiledReplicaModel ReplayServerModel() {
  e2e::LoadProfile profile;
  profile.max_rps = 120.0;
  for (int level = 1; level <= 8; ++level) {
    profile.level_rps.push_back(120.0 * static_cast<double>(level) / 8.0);
    const double base = 40.0 + 12.0 * static_cast<double>(level);
    profile.delays.emplace_back(
        std::vector<double>{0.6 * base, base, 1.9 * base},
        std::vector<double>{0.25, 0.5, 0.25});
  }
  profile.max_stable_rps = 105.0;
  return e2e::ProfiledReplicaModel(3, profile);
}

e2e::ShardedReplayConfig ReplayConfig(std::uint64_t seed) {
  e2e::ShardedReplayConfig config;
  config.common.seed = seed;
  config.common.controller.external.window_ms = 10000.0;  // Paper windows.
  config.common.controller.shards = 1;
  config.common.controller.policy.parallel_workers = 1;
  config.keep_outcomes = false;
  return config;
}

// The replay recomposed from the public per-stage functions: route the
// day with StreamByWindow, bucketize each (window, page) group, solve its
// table with ComputePolicy, and score each record with LookupRow, G's mean
// delay under the table's split, and the page's QoE curve. Groups are
// visited in (window, page) order, the order the replay merges them in, so
// the mean QoE sums in the same order and must match bit for bit.
struct Recomposition {
  ReplayReference reference;
  std::vector<double> solve_ms;
  SolveCounts counts;
};

Recomposition Recompose(std::span<const TraceRecord> records,
                        const ServerDelayModel& g,
                        const e2e::ShardedReplayConfig& config, SpanLog& spans,
                        Problems* problems) {
  const e2e::ControllerConfig& ctrl = config.common.controller;
  const e2e::PolicyConfig& policy = ctrl.policy;
  const double window_ms = ctrl.external.window_ms;
  Recomposition out;
  double sum_qoe = 0.0;
  std::array<std::vector<const TraceRecord*>, e2e::kNumPageTypes> open;
  const auto close_window = [&](std::int64_t) {
    for (int page = 0; page < e2e::kNumPageTypes; ++page) {
      std::vector<const TraceRecord*>& group =
          open[static_cast<std::size_t>(page)];
      if (group.empty()) continue;
      const QoeModel& qoe = PageQoe(e2e::PageTypeFromIndex(page));
      e2e::Bucketizer externals(policy.target_buckets,
                                policy.max_bucket_span_ms);
      {
        const SpanLog::Scope span = spans.Open("stats.bucketize");
        for (const TraceRecord* r : group) externals.Add(r->external_delay_ms);
        static_cast<void>(externals.buckets());  // Builds the lazy view.
      }
      const double rps = static_cast<double>(group.size()) /
                         (window_ms / 1000.0) * ctrl.rps_planning_factor;
      e2e::PolicyResult solved;
      {
        const SpanLog::Scope span = spans.Open("core.policy");
        out.solve_ms.push_back(1000.0 * TimeSeconds([&] {
          solved = e2e::ComputePolicy(qoe, g, externals, rps, policy);
        }));
      }
      CheckTable(solved.table, g.NumDecisions(), problems);
      out.counts.Add(solved.stats);
      {
        const SpanLog::Scope span = spans.Open("testbed.score");
        std::vector<double> mean_delay(
            static_cast<std::size_t>(g.NumDecisions()), -1.0);
        for (const TraceRecord* r : group) {
          const e2e::DecisionTableRow& row =
              solved.table.LookupRow(r->external_delay_ms);
          double& delay = mean_delay[static_cast<std::size_t>(row.decision)];
          if (delay < 0.0) {
            delay = g.DelayDistribution(row.decision,
                                        solved.table.load_fractions, rps)
                        .Mean();
          }
          sum_qoe += qoe.Qoe(r->external_delay_ms + delay);
          ++out.reference.served;
        }
      }
      ++out.reference.groups;
      group.clear();
    }
  };
  {
    const SpanLog::Scope span = spans.Open("trace.route");
    e2e::StreamByWindow(
        records, window_ms,
        [&](const e2e::WindowKey& key, const TraceRecord& r) {
          open[static_cast<std::size_t>(e2e::Index(key.page_type))]
              .push_back(&r);
        },
        close_window);
  }
  if (out.reference.served > 0) {
    out.reference.mean_qoe =
        sum_qoe / static_cast<double>(out.reference.served);
  }
  return out;
}

Report ReplayDay(const Options& opt, SpanLog& spans) {
  Report report;
  Layers layers;
  e2e::Trace trace;
  std::unique_ptr<e2e::ProfiledReplicaModel> g;
  {
    const SpanLog::Scope setup = spans.Open("setup");
    layers.generate_s = TimeSeconds([&] {
      const SpanLog::Scope span = spans.Open("trace.generate");
      trace = GenerateDay(opt.seed);
    });
    layers.rss_after_generate_mb = PeakRssMb();
    layers.profile_s = TimeSeconds([&] {
      const SpanLog::Scope span = spans.Open("core.profile");
      g = std::make_unique<e2e::ProfiledReplicaModel>(ReplayServerModel());
    });
  }
  const double setup_s = ProcessSeconds();
  CheckTraceShape(MeasureTraceShape(trace), &report.problems);

  const e2e::ShardedReplayConfig config = ReplayConfig(opt.seed);
  const e2e::QoeModelSelector selector = PageQoe;
  e2e::ShardedReplayResult first;
  std::string first_bytes;
  const Measured m = Repeat(opt.seconds, [&](bool warm_up,
                                             const auto& between) {
    e2e::ShardedReplayResult replay;
    const double seconds = TimeSeconds([&] {
      const SpanLog::Scope span = spans.Open("replay");
      replay = e2e::ReplayTraceSharded(trace.records, selector, *g, config);
    });
    between();
    // Per-group stage spans come from the warm-up round only: one round's
    // worth is enough for the layer times and keeps the span log small.
    SpanLog quiet(false);
    const Recomposition recomposed = Recompose(
        trace.records, *g, config, warm_up ? spans : quiet, &report.problems);
    report.attempted += replay.result.arrivals + recomposed.counts.calls;
    report.failed += Unserved(replay.result);
    CheckReplay(replay, recomposed.reference, trace.records.size(),
                &report.problems);
    if (warm_up) {
      first_bytes = replay.result.Serialize();
      first = std::move(replay);
      layers.counts = recomposed.counts;
    } else {
      CheckSameBytes(first_bytes, replay.result.Serialize(),
                     &report.problems);
    }
    return RoundTimes{seconds, recomposed.solve_ms};
  });

  if (!opt.trace) {
    report.metrics =
        EndToEndMetrics(setup_s, Median(m.scaled_run_s), PeakRssMb(),
                        m.scaled_solve_ms, first.result.mean_qoe);
    return report;
  }
  layers.route_s = spans.SelfSeconds("trace.route");
  layers.bucketize_s = spans.TotalSeconds("stats.bucketize");
  layers.policy_s = spans.TotalSeconds("core.policy");
  layers.score_s = spans.TotalSeconds("testbed.score");
  layers.replay_engine_s = Median(m.run_s) - layers.route_s -
                           layers.bucketize_s - layers.policy_s -
                           layers.score_s;
  report.metrics = PerLayerMetrics(layers, opt.seed);
  return report;
}

// --- db_testbed and broker_testbed --------------------------------------

// What differs between the two testbeds.
struct Testbed {
  double speedup = 1.0;
  e2e::ControllerConfig controller;
  /// Builds G the way the testbed's controller does.
  std::function<std::shared_ptr<const ServerDelayModel>(std::uint64_t seed)>
      build_g;
  /// One testbed run with the E2E policy (or the default policy).
  std::function<ExperimentResult(std::span<const TraceRecord>,
                                 std::uint64_t seed, bool traced,
                                 bool default_policy)>
      run;
  /// Whether the E2E-beats-default check runs on the run's own slice;
  /// otherwise it runs on the figure slice.
  bool beats_default_on_own_slice = true;
};

// The seed of the repository's figure benches (bench/common.h kSeed).
constexpr std::uint64_t kFigureSeed = 20190819;

// Same cluster, profiling grid and controller knobs as the Fig. 14-18 db
// benches (bench/common.cc StandardDbConfig).
e2e::DbExperimentConfig DbConfig(std::uint64_t seed, bool traced,
                                 bool default_policy) {
  e2e::DbExperimentConfig config;
  config.policy =
      default_policy ? e2e::DbPolicy::kDefault : e2e::DbPolicy::kE2e;
  config.common.seed = seed;
  config.common.speedup = kDbSpeedup;
  config.common.collect_telemetry = traced;
  config.common.profile_real_clock = traced;
  config.dataset_keys = 20000;
  config.value_bytes = 64;
  config.range_count = 100;
  config.cluster.replica_groups = 3;
  config.cluster.concurrency_per_replica = 160;
  config.cluster.base_service_ms = 220.0;
  config.cluster.capacity = 160.0;
  config.cluster.service_alpha = 8.0;
  config.cluster.service_beta = 1.3;
  config.profile_levels = 16;
  config.profile_max_rps = 100.0;
  config.profile_duration_ms = 60000.0;
  config.common.controller.external.window_ms = 10000.0;
  config.common.controller.external.min_samples = 50;
  config.common.controller.policy.target_buckets = 24;
  config.common.controller.cache.rps_change_threshold = 0.15;
  return config;
}

// Same broker and controller knobs as the broker benches
// (bench/common.cc StandardBrokerConfig), except that the controller
// recomputes its table at every 10 s window, the decision-delay setting of
// Fig. 16/17: with the stock staleness test a slice triggers 2 to 7
// recomputes depending on the seed, and at ~60 ms each they set the run's
// time, so run_s spread by ~70% from seed to seed.
e2e::BrokerExperimentConfig BrokerConfig(std::uint64_t seed, bool traced,
                                         bool default_policy) {
  e2e::BrokerExperimentConfig config;
  config.policy =
      default_policy ? e2e::BrokerPolicy::kDefault : e2e::BrokerPolicy::kE2e;
  config.common.seed = seed;
  config.common.speedup = kBrokerSpeedup;
  config.common.collect_telemetry = traced;
  config.common.profile_real_clock = traced;
  config.broker.priority_levels = 8;
  config.broker.consume_interval_ms = 5.0;
  config.broker.num_consumers = 1;
  config.common.controller.external.window_ms = 10000.0;
  config.common.controller.external.min_samples = 50;
  config.common.controller.policy.target_buckets = 16;
  config.common.controller.cache.js_threshold = 0.0;
  return config;
}

// On the db testbed E2E loses to the default policy on about half of the
// seeds' 16:00 slices (CHANGES.md, FOUND), so its quality check runs on the
// figure benches' slice, where the Fig. 14 gain is published; the broker's
// gain holds on every seed tried, so it is checked on the run's own slice.
// RunDbExperiment profiles G offline again inside every run, so build_g is
// part of the db main call as well as of the set-up.
Testbed DbTestbed() {
  Testbed t;
  t.speedup = kDbSpeedup;
  t.controller = DbConfig(0, false, false).common.controller;
  t.build_g = [](std::uint64_t seed) {
    return e2e::BuildDbServerModel(DbConfig(seed, false, false));
  };
  t.run = [](std::span<const TraceRecord> slice, std::uint64_t seed,
             bool traced, bool default_policy) {
    return e2e::RunDbExperiment(slice, PageQoe(e2e::PageType::kType1),
                                DbConfig(seed, traced, default_policy));
  };
  t.beats_default_on_own_slice = false;
  return t;
}

Testbed BrokerTestbed() {
  Testbed t;
  t.speedup = kBrokerSpeedup;
  t.controller = BrokerConfig(0, false, false).common.controller;
  t.build_g = [](std::uint64_t seed) {
    return e2e::BuildBrokerServerModel(BrokerConfig(seed, false, false).broker);
  };
  t.run = [](std::span<const TraceRecord> slice, std::uint64_t seed,
             bool traced, bool default_policy) {
    return e2e::RunBrokerExperiment(slice, PageQoe(e2e::PageType::kType1),
                                    BrokerConfig(seed, traced, default_policy));
  };
  return t;
}

std::uint64_t Counter(const e2e::obs::TelemetrySnapshot& telemetry,
                      const std::string& name) {
  for (const auto& c : telemetry.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

// One round of table solves over the slice's controller windows: the
// testbed's 10 s windows are window_ms * speedup of trace time, and a
// window with fewer than min_samples arrivals is skipped, as the
// controller's external-delay model skips it.
void SolveWindows(std::span<const TraceRecord> slice, const Testbed& t,
                  const ServerDelayModel& g, SpanLog& spans,
                  std::vector<double>* solve_ms, SolveCounts* counts,
                  Problems* problems) {
  const e2e::ControllerConfig& ctrl = t.controller;
  const e2e::PolicyConfig& policy = ctrl.policy;
  std::vector<double> delays;
  const auto close_window = [&](std::int64_t) {
    if (delays.size() < ctrl.external.min_samples) {
      delays.clear();
      return;
    }
    std::unique_ptr<e2e::Bucketizer> externals;
    {
      const SpanLog::Scope span = spans.Open("stats.bucketize");
      externals = std::make_unique<e2e::Bucketizer>(
          delays, policy.target_buckets, policy.max_bucket_span_ms);
      static_cast<void>(externals->buckets());  // Builds the lazy view.
    }
    const double rps = static_cast<double>(delays.size()) /
                       (ctrl.external.window_ms / 1000.0) *
                       ctrl.rps_planning_factor;
    e2e::PolicyResult solved;
    {
      const SpanLog::Scope span = spans.Open("core.policy");
      solve_ms->push_back(1000.0 * TimeSeconds([&] {
        solved = e2e::ComputePolicy(PageQoe(e2e::PageType::kType1), g,
                                    *externals, rps, policy);
      }));
    }
    CheckTable(solved.table, g.NumDecisions(), problems);
    counts->Add(solved.stats);
    delays.clear();
  };
  const SpanLog::Scope span = spans.Open("trace.route");
  e2e::StreamByWindow(
      slice, ctrl.external.window_ms * t.speedup,
      [&](const e2e::WindowKey&, const TraceRecord& r) {
        delays.push_back(r.external_delay_ms);
      },
      close_window);
}

Report TestbedWorkload(const Options& opt, const Testbed& t, SpanLog& spans) {
  Report report;
  Layers layers;
  std::vector<TraceRecord> slice;
  std::size_t slice_size = 0;
  std::shared_ptr<const ServerDelayModel> g;
  {
    const SpanLog::Scope setup = spans.Open("setup");
    e2e::Trace trace;
    layers.generate_s = TimeSeconds([&] {
      const SpanLog::Scope span = spans.Open("trace.generate");
      trace = GenerateDay(opt.seed);
    });
    layers.rss_after_generate_mb = PeakRssMb();
    // Counted here, independently of HourSlice, for the arrivals check.
    const double begin_ms = kSliceBeginHour * 3600.0 * 1000.0;
    const double end_ms = kSliceEndHour * 3600.0 * 1000.0;
    for (const TraceRecord& r : trace.records) {
      if (r.page_type == e2e::PageType::kType1 && r.arrival_ms >= begin_ms &&
          r.arrival_ms < end_ms) {
        ++slice_size;
      }
    }
    {
      const SpanLog::Scope span = spans.Open("trace.slice");
      slice = e2e::HourSlice(trace, e2e::PageType::kType1, kSliceBeginHour,
                             kSliceEndHour);
    }
    {
      const SpanLog::Scope span = spans.Open("core.profile");
      g = t.build_g(opt.seed);
    }
  }
  const double setup_s = ProcessSeconds();

  const QoeModel& qoe = PageQoe(e2e::PageType::kType1);
  std::string first_bytes;
  double own_mean_qoe = 0.0;
  std::vector<double> recompute_s;
  std::vector<double> lookup_s;
  std::vector<double> profile_s;
  std::vector<double> self_s;
  // The warm-up runs untraced and gives the reference bytes; a traced run
  // profiles against the real clock, so its Serialize() is not expected to
  // repeat and is checked by one more untraced run at the end.
  const Measured m = Repeat(opt.seconds, [&](bool warm_up,
                                             const auto& between) {
    const bool traced = opt.trace && !warm_up;
    ExperimentResult result;
    const double seconds = TimeSeconds([&] {
      const SpanLog::Scope span = spans.Open("testbed.run");
      result = t.run(slice, opt.seed, traced, false);
    });
    {
      const SpanLog::Scope span =
          spans.Open(warm_up ? "testbed.score" : "check.outcomes");
      CheckTestbed(result, slice_size, qoe, &report.problems);
    }
    between();
    SolveCounts counts;
    std::vector<double> pass_ms;
    SolveWindows(slice, t, *g, spans, &pass_ms, &counts, &report.problems);
    report.attempted += result.arrivals + counts.calls;
    report.failed += Unserved(result);
    const RoundTimes times{seconds, std::move(pass_ms)};
    if (warm_up) {
      first_bytes = result.Serialize();
      own_mean_qoe = result.mean_qoe;
      layers.counts = counts;
      return times;
    }
    if (!traced) {
      CheckSameBytes(first_bytes, result.Serialize(), &report.problems);
      return times;
    }
    // The main call builds G the way build_g does (the db profiles it
    // offline), so one more build, timed apart, estimates that share.
    profile_s.push_back(TimeSeconds([&] {
      const SpanLog::Scope span = spans.Open("core.profile");
      static_cast<void>(t.build_g(opt.seed));
    }));
    const e2e::ControllerStats& c = result.controller_stats;
    recompute_s.push_back(c.total_recompute_wall_us / 1e6);
    lookup_s.push_back(c.total_lookup_wall_us / 1e6);
    self_s.push_back(seconds - recompute_s.back() - lookup_s.back() -
                     profile_s.back());
    layers.recomputes = c.recomputes;
    layers.sim_events = Counter(result.telemetry, "sim.loop.events");
    layers.db_reads = Counter(result.telemetry, "db.requests");
    layers.broker_published = Counter(result.telemetry, "broker.published");
    layers.broker_delivered = Counter(result.telemetry, "broker.delivered");
    return times;
  });

  // Peak RSS of the measured work: the quality runs below generate a
  // second day on top of it.
  const double peak_rss_mb = PeakRssMb();
  if (opt.trace) {
    CheckSameBytes(first_bytes,
                   t.run(slice, opt.seed, false, false).Serialize(),
                   &report.problems);
  }
  // Decision quality is reported on the figure slice, the input of the
  // published Fig. 14 numbers, where it repeats exactly whatever the run's
  // seed. On the runs' own slices E2E's mean QoE spreads by ~6.6% from seed
  // to seed on the db testbed, more than a quality loss worth catching.
  const std::vector<TraceRecord> figure_slice =
      e2e::HourSlice(GenerateDay(kFigureSeed), e2e::PageType::kType1,
                     kSliceBeginHour, kSliceEndHour);
  const double figure_mean_qoe =
      t.run(figure_slice, kFigureSeed, false, false).mean_qoe;
  if (t.beats_default_on_own_slice) {
    CheckBeatsDefault(own_mean_qoe,
                      t.run(slice, opt.seed, false, true).mean_qoe,
                      &report.problems);
  } else {
    CheckBeatsDefault(figure_mean_qoe,
                      t.run(figure_slice, kFigureSeed, false, true).mean_qoe,
                      &report.problems);
  }
  std::cerr << "e2ebench: mean QoE " << own_mean_qoe << " on the run's slice, "
            << figure_mean_qoe << " on the figure slice\n";

  if (!opt.trace) {
    report.metrics =
        EndToEndMetrics(setup_s, Median(m.scaled_run_s), peak_rss_mb,
                        m.scaled_solve_ms, figure_mean_qoe);
    return report;
  }
  const auto per_round = [&](double total) { return total / m.rounds; };
  layers.route_s = per_round(spans.SelfSeconds("trace.route"));
  layers.bucketize_s = per_round(spans.TotalSeconds("stats.bucketize"));
  layers.policy_s = per_round(spans.TotalSeconds("core.policy"));
  layers.score_s = spans.TotalSeconds("testbed.score");
  layers.recompute_s = Median(recompute_s);
  layers.lookup_s = Median(lookup_s);
  layers.profile_s = Median(profile_s);
  layers.testbed_self_s = Median(self_s);
  report.metrics = PerLayerMetrics(layers, opt.seed);
  return report;
}

// --- Command line and output ---------------------------------------------

[[noreturn]] void Usage(const std::string& problem) {
  std::cerr << "e2ebench: " << problem
            << "\nusage: e2ebench --workload <replay_day|db_testbed|"
               "broker_testbed> --seed N --seconds S --trace <0|1> "
               "[--spans-dir DIR]\n";
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
        have_seconds = opt.seconds > 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        opt.trace = value == "1";
        have_trace = true;
      } else if (flag == "--spans-dir") {
        opt.spans_dir = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  return opt;
}

void PrintResult(const Report& report) {
  std::string json = "{\"correct\": ";
  json += report.problems.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

int Main(int argc, char** argv) {
  const Options opt = Parse(argc, argv);
  SpanLog spans(opt.trace);
  Report report;
  {
    const SpanLog::Scope span = spans.Open(opt.workload);
    if (opt.workload == "replay_day") {
      report = ReplayDay(opt, spans);
    } else if (opt.workload == "db_testbed") {
      report = TestbedWorkload(opt, DbTestbed(), spans);
    } else if (opt.workload == "broker_testbed") {
      report = TestbedWorkload(opt, BrokerTestbed(), spans);
    } else {
      Usage("unknown workload " + opt.workload);
    }
  }
  if (opt.trace && !opt.spans_dir.empty()) {
    std::filesystem::create_directories(opt.spans_dir);
    const std::filesystem::path path =
        std::filesystem::path(opt.spans_dir) /
        (opt.workload + "-seed" + std::to_string(opt.seed) + ".json");
    std::ofstream out(path);
    spans.Write(out);
    out << "\n";
    if (!out) {
      std::cerr << "e2ebench: cannot write " << path << "\n";
      return 1;
    }
  }
  for (const std::string& problem : report.problems) {
    std::cerr << "CHECK FAILED: " << problem << "\n";
  }
  PrintResult(report);
  return report.problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  try {
    return e2ebench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 2;
  }
}
