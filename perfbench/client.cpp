// perfbench_client — the benchmark's single client process.  It starts
// the tree's mimdd, generates one workload's inputs from a seed, drives
// the daemon closed-loop (one request outstanding per connection),
// checks every result bit-for-bit against run_reference, and prints
// every metric by name with its unit.  The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench_client --workload cold_sweep|warm_serve|compute_bound
//                    --seed N --seconds S --trace 0|1
//                    --mimdd PATH --loops DIR --out DIR
//                    [--commit SHA] [--tree DIGEST]
//   perfbench_client --dump-corpus --workload W --seed N --loops DIR
//
// --trace 0 reports the end-to-end metrics; tracing is off.  --trace 1
// runs the workload twice in one process, first untraced and then with
// spans around every call into a layer, and reports the per-layer
// metrics plus the difference of the two p50s (the tracing overhead).
// Spans go to <out>/<workload>-seed<N>-spans.json and every result to
// <out>/<workload>-seed<N>-trace<T>.json, stamped with host and build.
// perfbench/run.py builds this program and mimdd and runs it.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/parallelizer.hpp"
#include "corpus.hpp"
#include "daemon.hpp"
#include "graph/unwind.hpp"
#include "ir/dependence.hpp"
#include "ir/ifconvert.hpp"
#include "ir/parser.hpp"
#include "metrics/metrics.hpp"
#include "opt/pipeline.hpp"
#include "partition/lowering.hpp"
#include "runtime/executor.hpp"
#include "runtime/jit_compiler.hpp"
#include "runtime/plan_client.hpp"
#include "runtime/wire.hpp"
#include "runtime/worker_pool.hpp"
#include "schedule/full_sched.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using mimd::Ddg;

// ---------------------------------------------------------------------------
// Fixed settings

/// Synthetic work per latency cycle in compute_bound: coarse enough that
/// threads beat the sequential loop on real cores.  Native kernels do not
/// implement synthetic work, so the JIT serves none of these runs.
constexpr int kComputeWork = 1000;
/// Set-ups per untraced run; setup_s is their median.  A cold set-up
/// takes tens of milliseconds, so it is repeated more often.
constexpr int kSetups = 3;
constexpr int kColdSetups = 21;
/// cold_sweep's daemon runs without the JIT: each of its plans runs once,
/// right after it is compiled, long before a background kernel compile
/// could finish, so the JIT could only add compilers competing with the
/// timed requests for the same cores.
const std::vector<std::string> kColdDaemonFlags = {"--jit=off"};
/// cold_sweep and compute_bound do a fixed amount of work, set by
/// --seconds alone and not by how fast the code runs, so every candidate
/// measures the same requests: one cold pass per kColdPassSeconds and one
/// compute round per kComputeRoundSeconds of --seconds (2 passes and 10
/// rounds at --seconds 15, some 15 to 22 s of work on a 4-core host).
constexpr double kColdPassSeconds = 7.5;
constexpr double kComputeRoundSeconds = 1.5;
/// tail_ms's percentile per workload: fixed, so a faster candidate never
/// reports a higher percentile than its parent.  cold_sweep's and
/// compute_bound's are the highest with at least 10 samples beyond them at
/// --seconds 15 (p90 of 2 x 81 cold requests, p75 of 10 x 8 compute runs).
/// warm_serve's some 60k requests would allow p99.9, but on a shared
/// 4-vCPU host its run-to-run spread was twice p99's (IQR/median 0.38
/// against 0.17 over six runs), so warm_serve reports p99.
constexpr double kColdTail = 90.0;
constexpr double kWarmTail = 99.0;
constexpr double kComputeTail = 75.0;
/// Connections (and driving threads) of warm_serve.  With their reader
/// threads the client uses 4 threads, the host's core count.
constexpr int kWarmConnections = 2;
/// Per-call reply deadline: a wedged daemon is a typed WireError.
constexpr int kClientTimeoutMs = 60000;

// ---------------------------------------------------------------------------
// Statistics

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The `percentile`th percentile of v and how many samples lie beyond it.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t beyond = 0;
};
Tail tail_of(const std::vector<double>& v, double percentile) {
  const auto beyond = static_cast<std::size_t>(std::floor(
      static_cast<double>(v.size()) * (100.0 - percentile) / 100.0));
  return {percentile, quantile(v, percentile / 100.0), beyond};
}

/// Number of fixed work units (cold passes, compute rounds) in `seconds`.
int units(double seconds, double unit_seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds / unit_seconds)));
}

// ---------------------------------------------------------------------------
// Failures

enum FailClass { kWire, kParitySplit, kRemote, kMismatch, kOther, kClasses };
constexpr const char* kFailNames[kClasses] = {
    "WireError", "ParitySplitError", "RemoteError", "mismatch", "other"};

/// One phase's outcome on one connection.
struct Tally {
  std::vector<double> latency_ms;
  /// Speedup groups: sequential run_reference time and run round trip.
  std::map<std::string, std::vector<double>> ref_ms, run_ms;
  std::array<std::uint64_t, kClasses> failures{};
  std::string last_error;  ///< message of the latest failure
  std::uint64_t attempted = 0;
  /// Wall time of the timed phase the samples come from.
  double wall_s = 0.0;

  [[nodiscard]] std::uint64_t failed() const {
    return std::accumulate(failures.begin(), failures.end(), std::uint64_t{0});
  }
  void merge(const Tally& o) {
    for (int c = 0; c < kClasses; ++c) failures[c] += o.failures[c];
    attempted += o.attempted;
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    for (const auto& [k, v] : o.ref_ms) {
      ref_ms[k].insert(ref_ms[k].end(), v.begin(), v.end());
    }
    for (const auto& [k, v] : o.run_ms) {
      run_ms[k].insert(run_ms[k].end(), v.begin(), v.end());
    }
    wall_s += o.wall_s;
  }
};

// ---------------------------------------------------------------------------
// Host interference
//
// On a shared virtual machine the hypervisor gives this guest's CPUs to
// other guests at times ("steal" in /proc/stat), which slows the run for
// reasons outside the program.  The stolen share of CPU time during the
// timed phase is printed as a note on the run; nothing is left out for
// it.  On bare metal it is always 0.

struct CpuClock {
  std::uint64_t steal = 0, total = 0;
};

CpuClock cpu_clock() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  CpuClock c;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(f >> v)) break;
    c.total += v;
    if (i == 7) c.steal = v;
  }
  return c;
}

double steal_share(const CpuClock& a, const CpuClock& b) {
  return b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                                 static_cast<double>(b.total - a.total)
                           : 0.0;
}

/// Geometric mean over groups of median(run_reference) / median(run RTT).
double speedup(const Tally& t) {
  double log_sum = 0.0;
  int groups = 0;
  for (const auto& [key, runs] : t.run_ms) {
    const auto ref = t.ref_ms.find(key);
    if (ref == t.ref_ms.end() || runs.empty() || ref->second.empty()) continue;
    log_sum += std::log(median(ref->second) / median(runs));
    ++groups;
  }
  return groups == 0 ? 0.0 : std::exp(log_sum / groups);
}

// ---------------------------------------------------------------------------
// Connections

/// One client connection.  Program ids are connection-scoped, so a
/// reconnect re-registers whatever the workload registered.
struct Conn {
  std::string endpoint;
  mimd::PlanClient client;
  std::function<void(Conn&)> on_connect;

  void connect() {
    client = mimd::PlanClient::connect(endpoint, kClientTimeoutMs);
    if (on_connect) on_connect(*this);
  }
};

/// Run one request; classify whatever it throws.  `body` returns false
/// on a bit mismatch.  Any transport error reconnects.
template <typename F>
void attempt(Tally& t, Conn& conn, F&& body) {
  ++t.attempted;
  FailClass cls = kOther;
  try {
    if (body()) return;
    cls = kMismatch;
    t.last_error = "result differs from run_reference";
  } catch (const mimd::wire::WireError& e) {
    cls = kWire;
    t.last_error = e.what();
  } catch (const mimd::ParitySplitError& e) {
    cls = kParitySplit;
    t.last_error = e.what();
  } catch (const mimd::RemoteError& e) {
    cls = kRemote;
    t.last_error = e.what();
  } catch (const std::exception& e) {
    cls = kOther;
    t.last_error = e.what();
  }
  ++t.failures[cls];
  if (cls == kWire || !conn.client.transport_error().empty()) conn.connect();
}

// ---------------------------------------------------------------------------
// Layer data of a traced run

/// Counts summed over the traced phase, and per-program schedule facts.
struct LayerCounts {
  std::map<std::string, double> sum;
  std::vector<double> steady_ii;
  std::vector<double> reply_bytes;  ///< one RunReply's encoded size each
  std::uint64_t schedules = 0, patterns = 0, hash_mismatches = 0;

  void add(const std::string& k, double v) { sum[k] += v; }
};

/// A loop parallelized for the daemon: the normalized graph, its
/// partitioned program, and what the schedule predicts.
struct Prepared {
  std::string name;
  mimd::PartitionedProgram program;
  Ddg graph;
  std::int64_t n = 0;
  mimd::CompileOptions copts;
  double sp = 0.0;         ///< predicted percentage parallelism
  double steady_ii = 0.0;  ///< cycles per original iteration
};

/// Parallelize `g` for P processors and n iterations.  Untraced: one
/// parallelize() call.  Traced: the public pieces parallelize is made of,
/// each in its own span, with the schedule's counts recorded.
Prepared prepare(const Ddg& g, int processors, std::int64_t n,
                 mimd::OptLevel level, Tracer& tr, std::uint64_t req,
                 LayerCounts* counts) {
  using namespace mimd;
  const ParallelizeOptions opts = parallelize_options(processors, n);
  Prepared p;
  p.copts.opt = level;
  if (!tr.enabled()) {
    ParallelizeResult r = parallelize(g, opts);
    p.program = std::move(r.program);
    p.graph = std::move(r.normalized.graph);
    p.n = r.normalized_iterations;
    p.sp = r.percentage_parallelism;
    p.steady_ii = r.cycles_per_iteration;
    return p;
  }
  Unrolled u;
  {
    auto s = tr.span("graph.normalize_distances", req);
    u = normalize_distances(g);
  }
  p.n = (n + u.factor - 1) / u.factor;
  FullSchedResult sched;
  {
    auto s = tr.span("schedule.full_sched", req);
    sched = full_sched(u.graph, opts.machine, p.n, opts.schedule);
  }
  {
    auto s = tr.span("partition.lower", req);
    p.program = lower(sched.schedule, u.graph);
  }
  p.graph = std::move(u.graph);
  p.steady_ii = sched.steady_ii / static_cast<double>(u.factor);
  p.sp = percentage_parallelism_asymptotic(g.body_latency(), p.steady_ii);
  counts->add("schedule.placements", static_cast<double>(sched.schedule.size()));
  counts->add("partition.ops", static_cast<double>(p.program.total_ops()));
  counts->steady_ii.push_back(p.steady_ii);
  ++counts->schedules;
  if (sched.pattern.has_value()) ++counts->patterns;
  return p;
}

/// The traced pieces must build exactly the program parallelize() builds.
void check_hash(const Prepared& p, const Ddg& source, int processors,
                std::int64_t n, Tracer& tr, std::uint64_t req,
                LayerCounts& counts) {
  using namespace mimd;
  auto s = tr.span("core.parallelize", req);
  const ParallelizeResult whole =
      parallelize(source, parallelize_options(processors, n));
  if (structural_hash(whole.program, whole.normalized.graph, p.copts) !=
      structural_hash(p.program, p.graph, p.copts)) {
    ++counts.hash_mismatches;
  }
}

/// Traced-run measurements outside any request's latency: the in-process
/// encode and compile of what was just submitted, its in-process
/// execution, and the check that the traced pieces built exactly the
/// program parallelize() builds.
void probe_layers(const Prepared& p, const Ddg& source, int processors,
                  std::int64_t n, const mimd::ExecutionResult& reply,
                  Tracer& tr, std::uint64_t req, LayerCounts& counts,
                  mimd::WorkerPool& pool) {
  using namespace mimd;
  auto root = tr.span("probe", req);
  {
    auto s = tr.span("wire.encode_submit_program", req);
    counts.add("wire.submit_bytes",
               static_cast<double>(
                   wire::encode_submit_program({p.program, p.graph, p.copts})
                       .size()));
  }
  {
    auto s = tr.span("wire.encode_run_reply", req);
    counts.reply_bytes.push_back(
        static_cast<double>(wire::encode_run_reply(reply).size()));
  }
  std::optional<ExecutorPlan> plan;
  {
    auto s = tr.span("partition.compile", req);
    plan.emplace(compile(p.program, p.graph, p.copts));
  }
  counts.add("partition.channels",
             static_cast<double>(plan->program().channels.size()));
  counts.add("partition.slots",
             static_cast<double>(plan->program().total_slots()));
  {
    RunOptions ro;
    ro.pool = &pool;
    auto s = tr.span("runtime.exec", req);
    (void)plan->run(p.n, ro);
  }
  check_hash(p, source, processors, n, tr, req, counts);
}

// ---------------------------------------------------------------------------
// Daemon-wide counters

/// Stats-frame deltas of one phase, named as per-layer metrics.
void add_stats_delta(LayerCounts& c, const mimd::wire::StatsReply& a,
                     const mimd::wire::StatsReply& b) {
  auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x);
  };
  c.add("plan_cache.hits", d(a.cache.hits, b.cache.hits));
  c.add("plan_cache.misses", d(a.cache.misses, b.cache.misses));
  c.add("pool.gangs", d(a.pool_gangs, b.pool_gangs));
  c.add("jit.compiles", d(a.jit_compiles, b.jit_compiles));
  c.add("jit.failures", d(a.jit_failures, b.jit_failures));
  c.add("jit.ineligible_runs", d(a.jit_ineligible_runs, b.jit_ineligible_runs));
  c.add("jit.native_runs", d(a.jit_native_runs, b.jit_native_runs));
  c.add("runtime.runs", d(a.runs_executed, b.runs_executed));
}

/// Wait until every registered plan's background JIT compile is over, so
/// no compiler runs during the timed phase.
void wait_jit_idle(Conn& conn, std::uint64_t programs) {
  const auto deadline = Clock::now() + std::chrono::seconds(120);
  while (Clock::now() < deadline) {
    const mimd::wire::StatsReply s = conn.client.stats();
    if (s.jit_enabled == 0) return;
    if (s.jit_in_flight == 0 && s.jit_compiles + s.jit_failures >= programs) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  throw std::runtime_error("JIT compiles did not finish within 120 s");
}

// ---------------------------------------------------------------------------
// Options and run environment

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool dump = false;
  std::string mimdd, loops = "examples/loops", out = ".", commit = "unknown",
                     tree = "unknown";
};

/// What a workload reports; printed and written by report().
struct Result {
  Tally untraced, traced;   ///< traced is empty in an untraced run
  double setup_s = 0.0;
  double peak_rss_mib = 0.0;
  LayerCounts layers;
  std::vector<std::unique_ptr<Tracer>> tracers;
  std::vector<std::string> notes;  ///< extra report lines (tables, probes)
  bool extra_failure = false;      ///< a check outside the requests failed
};

struct Env {
  const Args& args;
  std::string socket;
  std::string daemon_log;
  Clock::time_point epoch = Clock::now();
};

// ---------------------------------------------------------------------------
// cold_sweep

/// One cold request: front end and mid-end (for .loop sources), then per
/// strand parallelize, submit_program, one run, validation, and release.
/// The run's round trip and reference times go to speedup group `group`
/// (nowhere if it is empty).
bool cold_request(Conn& conn, const Structure& s, std::int64_t n,
                  const std::string& group, Tracer& tr,
                  std::uint64_t req, Tally& tally, LayerCounts& counts,
                  mimd::WorkerPool& pool) {
  using namespace mimd;
  const Clock::time_point t0 = Clock::now();
  std::vector<Ddg> graphs;
  OptLevel level = OptLevel::Off;
  struct Done {
    Prepared prep;
    Ddg source;
    ExecutionResult reply;
  };
  std::vector<Done> done;
  bool ok = true;
  {
    auto root = tr.span("request", req);
    if (!s.source.empty()) {
      ir::Loop loop;
      {
        auto sp = tr.span("ir.parse_loop", req);
        const ir::Loop raw = ir::parse_loop(s.source);
        loop = raw.has_control_flow() ? ir::if_convert(raw) : raw;
      }
      opt::PipelineResult pipe;
      {
        auto sp = tr.span("opt.optimize", req);
        pipe = opt::optimize(loop);
      }
      if (tr.enabled()) {
        counts.add("opt.strands", static_cast<double>(pipe.loops.size()));
      }
      for (const ir::Loop& strand : pipe.loops) {
        auto sp = tr.span("ir.analyze_dependences", req);
        graphs.push_back(ir::analyze_dependences(strand).graph);
      }
      level = OptLevel::O1;
    } else {
      graphs.push_back(s.graph);
    }
    for (const Ddg& g : graphs) {
      Prepared p = prepare(g, s.processors, n, level, tr, req, &counts);
      wire::SubmitProgramReply sub;
      {
        auto sp = tr.span("runtime.submit_program", req);
        sub = conn.client.submit_program(p.program, p.graph, p.copts);
      }
      ExecutionResult res;
      const Clock::time_point r0 = Clock::now();
      {
        auto sp = tr.span("runtime.run", req);
        res = conn.client.run(sub.program_id, p.n);
      }
      const Clock::time_point r1 = Clock::now();
      ExecutionResult ref;
      {
        auto sp = tr.span("runtime.run_reference", req);
        ref = run_reference(p.graph, p.n);
      }
      const Clock::time_point r2 = Clock::now();
      if (!group.empty()) {
        tally.run_ms[group].push_back(ms_between(r0, r1));
        tally.ref_ms[group].push_back(ms_between(r1, r2));
      }
      ok = ok && values_match(res, ref, p.n);
      {
        auto sp = tr.span("runtime.drop_program", req);
        conn.client.drop_program(sub.program_id);
      }
      if (tr.enabled()) done.push_back({std::move(p), g, std::move(res)});
    }
  }
  tally.latency_ms.push_back(ms_between(t0, Clock::now()));
  for (const Done& d : done) {
    probe_layers(d.prep, d.source, s.processors, n, d.reply, tr, req, counts,
                 pool);
  }
  return ok;
}

/// The one input today's daemon cannot serve: LL18 at n = 65536, whose
/// SubmitProgram frame exceeds the 64 MiB cap.  Run once, after the timed
/// phases and outside every count, so the workload's own operations never
/// fail; the outcome and whether the daemon survived it are reported.
void limit_probe(Conn& conn, Daemon& daemon, Result& out) {
  const std::vector<Structure> loops = paper_loops();
  const Structure& ll18 = loops[1];
  Tracer off(false, Clock::now());
  LayerCounts unused;
  mimd::WorkerPool pool;
  Tally probe;
  std::string message = "served";
  try {
    attempt(probe, conn, [&] {
      Tally inner;
      return cold_request(conn, ll18, 65536, "", off, 0, inner, unused, pool);
    });
    for (int c = 0; c < kClasses; ++c) {
      if (probe.failures[c] > 0) {
        message = std::string(kFailNames[c]) + " (" + probe.last_error + ")";
      }
    }
  } catch (const std::exception& e) {
    message = std::string("reconnect failed: ") + e.what();
  }
  bool alive = false;
  try {
    (void)conn.client.stats();
    alive = daemon.alive();
  } catch (const std::exception&) {
  }
  out.notes.push_back("limit_probe LL18 n=65536: " + message +
                      "; daemon alive after: " + (alive ? "yes" : "no"));
  if (!alive || probe.failures[kMismatch] > 0) out.extra_failure = true;
}

Result run_cold(const Env& env, std::unique_ptr<Daemon>& daemon,
                const ColdCorpus& corpus, Conn& conn) {
  Result out;
  mimd::WorkerPool pool;
  std::uint64_t req = 0;
  // Pass p runs each request at n = base + p, so every request is a
  // structure the daemon has not seen.
  auto run_pass = [&](int pass, Tracer& tr, Tally& t, LayerCounts& counts) {
    const Clock::time_point t0 = Clock::now();
    for (const SweepItem& it : corpus.pass) {
      const Structure& s = corpus.structures[it.structure];
      // Below n = 1024 a run's round trip is all wire and wake-ups and
      // its reference takes microseconds: too noisy a ratio to count.
      // The random draws' speedups range over tenfold, so counting them
      // would make speedup_vs_seq a measure of which draws the seed
      // picked; only the structures every seed runs count.
      const std::string group =
          it.base_n >= 1024 && !s.drawn
              ? s.name + "@" + std::to_string(it.base_n)
              : "";
      ++req;
      attempt(t, conn, [&] {
        return cold_request(conn, s, it.base_n + pass, group, tr, req, t,
                            counts, pool);
      });
    }
    t.wall_s += ms_between(t0, Clock::now()) / 1000.0;
  };
  Tracer off(false, env.epoch);
  LayerCounts unused;
  if (!env.args.trace) {
    const int passes = units(env.args.seconds, kColdPassSeconds);
    for (int pass = 0; pass < passes; ++pass) {
      run_pass(pass, off, out.untraced, unused);
    }
  } else {
    // Pass 0 untraced, pass 1 traced: the same requests one trip count
    // apart, so their p50s differ by the tracing overhead alone.
    run_pass(0, off, out.untraced, unused);
    auto traced = std::make_unique<Tracer>(true, env.epoch);
    const mimd::wire::StatsReply before = conn.client.stats();
    run_pass(1, *traced, out.traced, out.layers);
    add_stats_delta(out.layers, before, conn.client.stats());
    out.tracers.push_back(std::move(traced));
  }
  out.peak_rss_mib = daemon->peak_rss_mib();
  limit_probe(conn, *daemon, out);
  return out;
}

// ---------------------------------------------------------------------------
// warm_serve and compute_bound: programs registered during set-up

struct Served {
  Prepared prep;
  std::size_t loop = 0;
  int processors = 2;
  std::int64_t n = 0;
  /// warm_serve validates most runs against one reference taken before
  /// the timed phase, keeping the client's threads off the cores the
  /// daemon serves from; compute_bound leaves it empty.
  std::optional<mimd::ExecutionResult> reference;
};

/// Parallelize every served program once (traced in a traced run).
std::vector<Served> prepare_served(const std::vector<ServedProgram>& progs,
                                   Tracer& tr, LayerCounts& counts) {
  const std::vector<Structure> loops = paper_loops();
  std::vector<Served> out;
  std::uint64_t req = 0;
  for (const ServedProgram& sp : progs) {
    Prepared p = prepare(loops[sp.loop].graph, sp.processors, sp.n,
                         mimd::OptLevel::Off, tr, ++req, &counts);
    p.name = loops[sp.loop].name + "/P" + std::to_string(sp.processors) +
             "/n" + std::to_string(sp.n);
    if (tr.enabled()) {
      {
        auto s = tr.span("wire.encode_submit_program", req);
        counts.add("wire.submit_bytes",
                   static_cast<double>(mimd::wire::encode_submit_program(
                                           {p.program, p.graph, p.copts})
                                           .size()));
      }
      check_hash(p, loops[sp.loop].graph, sp.processors, sp.n, tr, req, counts);
    }
    out.push_back({std::move(p), sp.loop, sp.processors, sp.n, {}});
  }
  return out;
}

/// A connection with every served program registered on it.
struct ServedConn {
  Conn conn;
  std::vector<mimd::wire::SubmitProgramReply> regs;
};

std::unique_ptr<ServedConn> open_served(const std::string& endpoint,
                                        const std::vector<Served>& served) {
  auto sc = std::make_unique<ServedConn>();
  sc->conn.endpoint = endpoint;
  ServedConn* self = sc.get();
  sc->conn.on_connect = [self, &served](Conn& c) {
    self->regs.clear();
    for (const Served& s : served) {
      self->regs.push_back(
          c.client.submit_program(s.prep.program, s.prep.graph, s.prep.copts));
    }
  };
  sc->conn.connect();
  return sc;
}

/// In-process execution of the served programs, replaying `mix` (program
/// indices in the order the traced phase ran them): runtime.exec spans
/// whose median sits next to the runs' round-trip median.
void replay_exec(const std::vector<Served>& served,
                 const std::vector<std::size_t>& mix, int work, Tracer& tr,
                 LayerCounts& counts) {
  using namespace mimd;
  WorkerPool pool;
  std::vector<ExecutorPlan> plans;
  std::vector<std::shared_ptr<const JitKernel>> kernels;
  for (const Served& s : served) {
    auto sp = tr.span("partition.compile", 0);
    plans.push_back(compile(s.prep.program, s.prep.graph, s.prep.copts));
    counts.add("partition.channels",
               static_cast<double>(plans.back().program().channels.size()));
    counts.add("partition.slots",
               static_cast<double>(plans.back().program().total_slots()));
  }
  RunOptions ro;
  ro.pool = &pool;
  ro.kernel.work_per_cycle = work;
  // The daemon serves eligible runs natively; so does the replay.
  if (jit_run_eligible(ro) && jit_available()) {
    for (const ExecutorPlan& p : plans) kernels.push_back(jit_compile(p));
  }
  for (const std::size_t i : mix) {
    ExecutionResult res;
    {
      auto sp = tr.span("runtime.exec", 0);
      res = kernels.empty() ? plans[i].run(served[i].prep.n, ro)
                            : kernels[i]->run_pooled(served[i].prep.n, &pool);
    }
    auto sp = tr.span("wire.encode_run_reply", 0);
    counts.reply_bytes.push_back(
        static_cast<double>(wire::encode_run_reply(res).size()));
  }
}

/// One served run request: run over the wire, then validate against a
/// fresh run_reference, which is also the speedup's sequential sample,
/// or (unless `fresh`) against the reference taken at set-up.
bool served_run(ServedConn& sc, const Served& s, std::size_t index, int work,
                bool fresh, Tracer& tr, std::uint64_t req, Tally& t) {
  using namespace mimd;
  wire::RemoteRunOptions ro;
  ro.work_per_cycle = work;
  const Clock::time_point r0 = Clock::now();
  ExecutionResult res;
  {
    auto root = tr.span("request", req);
    auto sp = tr.span("runtime.run", req);
    res = sc.conn.client.run(sc.regs[index].program_id, s.prep.n, ro);
  }
  const Clock::time_point r1 = Clock::now();
  t.latency_ms.push_back(ms_between(r0, r1));
  t.run_ms[s.prep.name].push_back(ms_between(r0, r1));
  if (!fresh) return values_match(res, *s.reference, s.prep.n);
  ExecutionResult ref;
  {
    auto sp = tr.span("runtime.run_reference", req);
    KernelOptions k;
    k.work_per_cycle = work;
    ref = run_reference(s.prep.graph, s.prep.n, k);
  }
  t.ref_ms[s.prep.name].push_back(ms_between(r1, Clock::now()));
  return values_match(res, ref, s.prep.n);
}

/// One warm re-submit: a renamed copy of a registered structure (a plan
/// cache hit that still checks structural equality), then its release.
/// Valid iff the daemon describes it exactly as the original.
bool served_resubmit(ServedConn& sc, const Served& s, std::size_t index,
                     std::uint64_t tag, Tracer& tr, std::uint64_t req,
                     Tally& t) {
  const Ddg copy = renamed(s.prep.graph, tag);
  const Clock::time_point r0 = Clock::now();
  mimd::wire::SubmitProgramReply sub;
  {
    auto root = tr.span("request", req);
    {
      auto sp = tr.span("runtime.submit_program", req);
      sub = sc.conn.client.submit_program(s.prep.program, copy, s.prep.copts);
    }
    auto sp = tr.span("runtime.drop_program", req);
    sc.conn.client.drop_program(sub.program_id);
  }
  t.latency_ms.push_back(ms_between(r0, Clock::now()));
  const mimd::wire::SubmitProgramReply& orig = sc.regs[index];
  return sub.threads == orig.threads && sub.channels == orig.channels &&
         sub.slots == orig.slots && sub.iterations == orig.iterations;
}

struct ServedSetup {
  std::vector<Served> served;
  std::vector<std::unique_ptr<ServedConn>> conns;
};

ServedSetup setup_served(const Env& env, const std::vector<ServedProgram>& progs,
                         int connections, Tracer& tr, LayerCounts& counts) {
  ServedSetup s;
  s.served = prepare_served(progs, tr, counts);
  for (int c = 0; c < connections; ++c) {
    s.conns.push_back(open_served(env.socket, s.served));
  }
  wait_jit_idle(s.conns[0]->conn, s.served.size());
  return s;
}

/// One warm run in this many validates against (and times) a fresh
/// run_reference.
constexpr std::uint64_t kWarmFreshReference = 10;

Result run_warm(const Env& env, ServedSetup& setup) {
  Result out;
  for (Served& s : setup.served) {
    s.reference = mimd::run_reference(s.prep.graph, s.prep.n);
  }
  const std::vector<Served>& served = setup.served;
  std::vector<std::vector<std::size_t>> mix(kWarmConnections);
  // Each connection's thread drives requests until `seconds` have passed.
  auto phase = [&](bool traced, Tally& total, double seconds) {
    std::vector<Tally> tallies(kWarmConnections);
    std::vector<std::unique_ptr<Tracer>> tracers;
    for (int c = 0; c < kWarmConnections; ++c) {
      tracers.push_back(std::make_unique<Tracer>(traced, env.epoch));
    }
    std::atomic<bool> stop{false};
    // A thread's failure to reconnect ends the run; it is rethrown here.
    std::vector<std::exception_ptr> errors(kWarmConnections);
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point deadline =
        t0 + std::chrono::microseconds(static_cast<std::int64_t>(seconds * 1e6));
    auto drive = [&](int c) {
      Rng rng(connection_seed(env.args.seed, c));
      ServedConn& sc = *setup.conns[static_cast<std::size_t>(c)];
      Tally& t = tallies[static_cast<std::size_t>(c)];
      Tracer& tr = *tracers[static_cast<std::size_t>(c)];
      std::uint64_t req = static_cast<std::uint64_t>(c) << 48;
      std::uint64_t tag = 0;
      while (!stop.load(std::memory_order_relaxed) && Clock::now() < deadline) {
        const WarmOp op = next_warm_op(rng, served.size());
        ++req;
        if (traced && !op.resubmit) {
          mix[static_cast<std::size_t>(c)].push_back(op.program);
        }
        attempt(t, sc.conn, [&] {
          return op.resubmit
                     ? served_resubmit(sc, served[op.program], op.program,
                                       ++tag, tr, req, t)
                     : served_run(sc, served[op.program], op.program, 0,
                                  req % kWarmFreshReference == 0, tr, req,
                                  t);
        });
      }
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < kWarmConnections; ++c) {
      threads.emplace_back([&, c] {
        try {
          drive(c);
        } catch (...) {
          errors[static_cast<std::size_t>(c)] = std::current_exception();
          stop = true;
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    for (const Tally& t : tallies) total.merge(t);
    total.wall_s = ms_between(t0, Clock::now()) / 1000.0;
    return tracers;
  };
  if (!env.args.trace) {
    (void)phase(false, out.untraced, env.args.seconds);
    return out;
  }
  (void)phase(false, out.untraced, env.args.seconds / 2);
  Conn& stats_conn = setup.conns[0]->conn;
  const mimd::wire::StatsReply before = stats_conn.client.stats();
  for (auto& t : phase(true, out.traced, env.args.seconds / 2)) {
    out.tracers.push_back(std::move(t));
  }
  add_stats_delta(out.layers, before, stats_conn.client.stats());
  std::vector<std::size_t> all;
  for (const auto& m : mix) all.insert(all.end(), m.begin(), m.end());
  all.resize(std::min<std::size_t>(all.size(), 4000));
  out.tracers.push_back(std::make_unique<Tracer>(true, env.epoch));
  replay_exec(served, all, 0, *out.tracers.back(), out.layers);
  return out;
}

Result run_compute(const Env& env, ServedSetup& setup) {
  Result out;
  const std::vector<Served>& served = setup.served;
  ServedConn& sc = *setup.conns[0];
  std::vector<std::size_t> mix;
  Rng rng(connection_seed(env.args.seed, 0));
  std::uint64_t req = 0;
  auto phase = [&](Tracer& tr, Tally& t, double seconds) {
    const Clock::time_point t0 = Clock::now();
    const int rounds = units(seconds, kComputeRoundSeconds);
    for (int round = 0; round < rounds; ++round) {
      for (const std::size_t i : round_order(rng, served.size())) {
        ++req;
        if (tr.enabled()) mix.push_back(i);
        attempt(t, sc.conn, [&] {
          return served_run(sc, served[i], i, kComputeWork, true, tr, req, t);
        });
      }
    }
    t.wall_s = ms_between(t0, Clock::now()) / 1000.0;
  };
  Tracer off(false, env.epoch);
  if (!env.args.trace) {
    phase(off, out.untraced, env.args.seconds);
  } else {
    phase(off, out.untraced, env.args.seconds / 2);
    out.tracers.push_back(std::make_unique<Tracer>(true, env.epoch));
    const mimd::wire::StatsReply before = sc.conn.client.stats();
    phase(*out.tracers.back(), out.traced, env.args.seconds / 2);
    add_stats_delta(out.layers, before, sc.conn.client.stats());
    // Three in-process runs of every program are enough for a median.
    mix.resize(std::min<std::size_t>(mix.size(), 3 * served.size()));
    out.tracers.push_back(std::make_unique<Tracer>(true, env.epoch));
    replay_exec(served, mix, kComputeWork, *out.tracers.back(), out.layers);
  }
  // Predicted against measured, one row per (loop, P).
  const Tally& t = env.args.trace ? out.traced : out.untraced;
  std::ostringstream table;
  table << "predicted_vs_measured (loop, P, n, Sp%, implied speedup, "
           "measured speedup_vs_seq, steady_ii cycles/iter)";
  for (const Served& s : served) {
    const auto runs = t.run_ms.find(s.prep.name);
    const auto refs = t.ref_ms.find(s.prep.name);
    const double measured =
        runs == t.run_ms.end() || refs == t.ref_ms.end()
            ? 0.0
            : median(refs->second) / median(runs->second);
    table << "\n  " << std::left << std::setw(9) << paper_loops()[s.loop].name
          << " P=" << s.processors << " n=" << std::setw(6) << s.n
          << std::fixed << std::setprecision(1) << " Sp=" << std::setw(5)
          << s.prep.sp << " implied=" << std::setprecision(2)
          << mimd::speedup_from_sp(s.prep.sp) << "x measured=" << measured
          << "x steady_ii=" << s.prep.steady_ii;
  }
  out.notes.push_back(table.str());
  return out;
}

// ---------------------------------------------------------------------------
// Reporting

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream o;
  o << std::setprecision(17) << v;
  return o.str();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::vector<std::pair<std::string, std::string>> fingerprint(const Args& a) {
  const bool jit = mimd::jit_available();
  return {{"nproc", std::to_string(std::thread::hardware_concurrency())},
          {"cpu", cpu_model()},
          {"compiler", PERFBENCH_COMPILER},
          {"build_type", PERFBENCH_BUILD_TYPE},
          {"jit_available", jit ? "yes" : "no"},
          {"jit_reason", jit ? "" : mimd::jit_unavailable_reason()},
          {"commit", a.commit},
          {"tree", a.tree},
          {"seed", std::to_string(a.seed)}};
}

/// The traced run's per-layer metrics.
std::vector<const Tracer*> views(const Result& r) {
  std::vector<const Tracer*> v;
  for (const auto& t : r.tracers) v.push_back(t.get());
  return v;
}

std::vector<Metric> layer_metrics(const Result& r) {
  const auto spans = summarize(views(r));
  auto med = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : median(it->second.duration_ms);
  };
  auto sum = [&](const char* name) {
    const auto it = r.layers.sum.find(name);
    return it == r.layers.sum.end() ? 0.0 : it->second;
  };
  const double runs = sum("runtime.runs");
  const double schedules = static_cast<double>(r.layers.schedules);
  return {
      {"ir.parse_ms", med("ir.parse_loop"), "ms"},
      {"opt.optimize_ms", med("opt.optimize"), "ms"},
      {"opt.strands", sum("opt.strands"), "count"},
      {"ir.dependence_ms", med("ir.analyze_dependences"), "ms"},
      {"graph.unwind_ms", med("graph.normalize_distances"), "ms"},
      {"schedule.full_sched_ms", med("schedule.full_sched"), "ms"},
      {"schedule.placements", sum("schedule.placements"), "count"},
      {"schedule.pattern_found_share",
       schedules > 0 ? static_cast<double>(r.layers.patterns) / schedules : 0.0,
       "share"},
      {"schedule.steady_ii", median(r.layers.steady_ii), "cycles"},
      {"partition.lower_ms", med("partition.lower"), "ms"},
      {"partition.ops", sum("partition.ops"), "count"},
      {"partition.compile_ms", med("partition.compile"), "ms"},
      {"partition.channels", sum("partition.channels"), "count"},
      {"partition.slots", sum("partition.slots"), "count"},
      {"wire.encode_ms", med("wire.encode_submit_program"), "ms"},
      {"wire.submit_bytes", sum("wire.submit_bytes"), "bytes"},
      {"wire.reply_bytes", median(r.layers.reply_bytes), "bytes"},
      {"runtime.submit_rtt_ms", med("runtime.submit_program"), "ms"},
      {"runtime.run_rtt_ms", med("runtime.run"), "ms"},
      {"runtime.exec_ms", med("runtime.exec"), "ms"},
      {"runtime.dispatch_ms", med("runtime.run") - med("runtime.exec"), "ms"},
      {"runtime.seq_ref_ms", med("runtime.run_reference"), "ms"},
      {"plan_cache.misses", sum("plan_cache.misses"), "count"},
      {"plan_cache.hits", sum("plan_cache.hits"), "count"},
      {"pool.gangs", sum("pool.gangs"), "count"},
      {"jit.native_share", runs > 0 ? sum("jit.native_runs") / runs : 0.0,
       "share"},
      {"jit.ineligible_runs", sum("jit.ineligible_runs"), "count"},
      {"jit.compiles", sum("jit.compiles"), "count"},
      {"jit.failures", sum("jit.failures"), "count"},
      {"trace.overhead_ms",
       median(r.traced.latency_ms) - median(r.untraced.latency_ms), "ms"},
  };
}

int report(const Args& a, const Result& r, const std::string& out_dir) {
  Tally all = r.untraced;
  all.merge(r.traced);
  const Tally& e2e = r.untraced;
  const double tail_p = a.workload == "cold_sweep"   ? kColdTail
                        : a.workload == "warm_serve" ? kWarmTail
                                                     : kComputeTail;
  const Tail tail = tail_of(e2e.latency_ms, tail_p);
  const std::uint64_t mismatches = all.failures[kMismatch];
  const bool correct =
      mismatches == 0 && r.layers.hash_mismatches == 0 && !r.extra_failure;

  std::vector<Metric> metrics;
  if (!a.trace) {
    metrics = {
        {"setup_s", r.setup_s, "s"},
        {"p50_ms", median(e2e.latency_ms), "ms"},
        {"tail_ms", tail.value, "ms"},
        {"requests_per_s",
         e2e.wall_s > 0 ? static_cast<double>(e2e.latency_ms.size()) / e2e.wall_s
                        : 0.0,
         "1/s"},
        {"daemon_peak_rss_mib", r.peak_rss_mib, "MiB"},
        {"speedup_vs_seq", speedup(e2e), "x"},
    };
  } else {
    metrics = layer_metrics(r);
  }

  const auto fp = fingerprint(a);
  std::cout << "perfbench " << a.workload << " seed=" << a.seed
            << " trace=" << (a.trace ? 1 : 0) << "\nhost:";
  for (const auto& [k, v] : fp) std::cout << " " << k << "=" << json_str(v);
  std::cout << "\n";
  for (const Metric& m : metrics) {
    std::cout << std::left << std::setw(30) << m.name << " " << num(m.value)
              << " " << m.unit;
    if (m.name == "tail_ms") {
      std::cout << "  (p" << tail.percentile << ", " << e2e.latency_ms.size()
                << " samples, " << tail.beyond << " beyond)";
    }
    if (m.name == "p50_ms") {
      std::cout << "  (" << e2e.latency_ms.size() << " samples)";
    }
    if (m.name == "setup_s") std::cout << "  (median of set-ups)";
    std::cout << "\n";
  }
  std::ostringstream classes;
  for (int c = 0; c < kClasses; ++c) {
    classes << (c ? ", " : "") << kFailNames[c] << " " << all.failures[c];
  }
  std::cout << std::left << std::setw(30) << "failed_share" << " "
            << num(all.attempted ? static_cast<double>(all.failed()) /
                                       static_cast<double>(all.attempted)
                                 : 0.0)
            << " share  (" << all.failed() << "/" << all.attempted << ": "
            << classes.str() << ")\n";
  if (a.trace && r.layers.schedules > 0) {
    std::cout << "traced vs parallelize() structural_hash: "
              << (r.layers.hash_mismatches == 0 ? "equal" : "DIFFERENT")
              << " (" << r.layers.schedules << " programs)\n";
  }
  for (const std::string& n : r.notes) std::cout << n << "\n";

  std::ostringstream self;  // self time by layer, largest first
  if (a.trace) {
    const auto spans = summarize(views(r));
    std::vector<std::pair<double, std::string>> rows;
    for (const auto& [name, s] : spans) {
      rows.push_back({std::accumulate(s.self_ms.begin(), s.self_ms.end(), 0.0),
                      name});
    }
    std::sort(rows.rbegin(), rows.rend());
    std::cout << "self time by span (ms, traced phase and probes):\n";
    for (const auto& [ms, name] : rows) {
      std::cout << "  " << std::left << std::setw(30) << name << " "
                << std::fixed << std::setprecision(3) << ms << "\n";
      self << (self.tellp() > 0 ? ", " : "") << json_str(name) << ": " << num(ms);
    }
    std::cout.unsetf(std::ios::floatfield);
  }

  // The stamped result file.
  const std::string stem = out_dir + "/" + a.workload + "-seed" +
                           std::to_string(a.seed);
  {
    std::ofstream f(stem + "-trace" + (a.trace ? "1" : "0") + ".json",
                    std::ios::trunc);
    f << "{\"workload\": " << json_str(a.workload) << ", \"host\": {";
    for (std::size_t i = 0; i < fp.size(); ++i) {
      f << (i ? ", " : "") << json_str(fp[i].first) << ": "
        << json_str(fp[i].second);
    }
    f << "}, \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      f << (i ? ", " : "") << json_str(metrics[i].name) << ": {\"value\": "
        << num(metrics[i].value) << ", \"unit\": " << json_str(metrics[i].unit)
        << "}";
    }
    f << "}, \"tail_percentile\": " << num(tail.percentile)
      << ", \"samples\": " << e2e.latency_ms.size()
      << ", \"attempted\": " << all.attempted << ", \"failures\": {";
    for (int c = 0; c < kClasses; ++c) {
      f << (c ? ", " : "") << json_str(kFailNames[c]) << ": " << all.failures[c];
    }
    f << "}, \"notes\": [";
    for (std::size_t i = 0; i < r.notes.size(); ++i) {
      f << (i ? ", " : "") << json_str(r.notes[i]);
    }
    f << "], \"self_ms\": {" << self.str() << "}}\n";
  }
  if (a.trace) write_spans(stem + "-spans.json", views(r));

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << all.attempted
            << ", \"failed\": " << all.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << json_str(metrics[i].name)
              << ": {\"value\": " << num(metrics[i].value)
              << ", \"unit\": " << json_str(metrics[i].unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Main

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "perfbench_client: " << msg
            << "\nusage: perfbench_client --workload W --seed N --seconds S "
               "--trace 0|1 --mimdd PATH [--loops DIR] [--out DIR] "
               "[--commit SHA] [--tree DIGEST]\n"
               "       perfbench_client --dump-corpus --workload W --seed N "
               "[--loops DIR]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--dump-corpus") {
      a.dump = true;
      continue;
    }
    if (i + 1 >= argc) usage(k + " needs a value");
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--mimdd") a.mimdd = v;
    else if (k == "--loops") a.loops = v;
    else if (k == "--out") a.out = v;
    else if (k == "--commit") a.commit = v;
    else if (k == "--tree") a.tree = v;
    else usage("unknown option " + k);
  }
  if (a.workload != "cold_sweep" && a.workload != "warm_serve" &&
      a.workload != "compute_bound") {
    usage("unknown workload '" + a.workload + "'");
  }
  if (!a.dump && a.mimdd.empty()) usage("--mimdd is required");
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

int run(const Args& a) {
  std::filesystem::create_directories(a.out);
  Env env{a, a.out + "/mimdd-" + std::to_string(::getpid()) + ".sock",
          a.out + "/mimdd-" + a.workload + ".log"};
  const bool cold = a.workload == "cold_sweep";
  const std::vector<ServedProgram> progs =
      a.workload == "warm_serve" ? warm_programs() : compute_programs();

  // Set-up: daemon start, input generation, and for the served workloads
  // registration plus the wait for published JIT kernels.  Repeated in an
  // untraced run; the last one is kept.
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  ColdCorpus corpus;
  ServedSetup served;
  Conn cold_conn;
  auto setup_tracer = std::make_unique<Tracer>(a.trace, env.epoch);
  LayerCounts setup_counts;
  const int rounds = a.trace ? 1 : cold ? kColdSetups : kSetups;
  for (int i = 0; i < rounds; ++i) {
    served = {};
    cold_conn = {};
    daemon.reset();
    setup_counts = {};
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<Daemon>(a.mimdd, env.socket, env.daemon_log,
                                      cold ? kColdDaemonFlags
                                           : std::vector<std::string>{});
    if (cold) {
      corpus = make_cold_corpus(a.seed, a.loops);
      cold_conn.endpoint = env.socket;
      cold_conn.connect();
    } else {
      const mimd::wire::StatsReply before = [&] {
        Conn c{env.socket, {}, {}};
        c.connect();
        return c.client.stats();
      }();
      served = setup_served(env, progs,
                            a.workload == "warm_serve" ? kWarmConnections : 1,
                            *setup_tracer, setup_counts);
      add_stats_delta(setup_counts, before, served.conns[0]->conn.client.stats());
    }
    setups.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }

  const CpuClock c0 = cpu_clock();
  Result r = cold ? run_cold(env, daemon, corpus, cold_conn)
               : a.workload == "warm_serve" ? run_warm(env, served)
                                            : run_compute(env, served);
  {
    std::ostringstream note;
    note << "host steal: " << std::fixed << std::setprecision(2)
         << 100.0 * steal_share(c0, cpu_clock())
         << "% of CPU time during the timed phase";
    r.notes.push_back(note.str());
  }
  r.setup_s = median(setups);
  if (!cold) {
    r.peak_rss_mib = daemon->peak_rss_mib();
    // The served workloads' cold-path counts come from registering their
    // program set (deterministic); the timed phase adds the warm ones.
    for (const char* k : {"schedule.placements", "partition.ops",
                          "wire.submit_bytes", "plan_cache.misses"}) {
      r.layers.sum[k] = setup_counts.sum[k];
    }
    r.layers.steady_ii = setup_counts.steady_ii;
    r.layers.schedules = setup_counts.schedules;
    r.layers.patterns = setup_counts.patterns;
    r.layers.hash_mismatches += setup_counts.hash_mismatches;
    r.tracers.push_back(std::move(setup_tracer));
    if (!daemon->alive()) {
      r.notes.push_back("daemon died during the run");
      r.extra_failure = true;
    }
  }
  served.conns.clear();
  cold_conn = {};
  daemon->stop();
  return report(a, r, a.out);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    if (args.dump) {
      std::cout << perfbench::dump_corpus(args.workload, args.seed, args.loops);
      return 0;
    }
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_client: " << e.what() << "\n";
    return 1;
  }
}
