// Seeded inputs of the three workloads.  Everything here is a pure
// function of (seed, examples/loops contents): the same seed yields a
// byte-identical dump_corpus(), which perfbench/test_perfbench.py pins.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/parallelizer.hpp"
#include "graph/ddg.hpp"

namespace perfbench {

/// Deterministic 64-bit generator (splitmix64): identical on every
/// platform, unlike the std distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, bound), bound > 0.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

/// Communication estimate k of every schedule (the paper's loops carry
/// edge costs up to 2).
inline constexpr int kCommEstimate = 2;

/// How every workload parallelizes a loop: P processors, k = 2, n
/// iterations, non-Cyclic nodes folded into the Cyclic processors' idle
/// slots (so a program never uses more than P threads), no pseudo-code.
mimd::ParallelizeOptions parallelize_options(int processors, std::int64_t n);

/// One loop structure.  Either `source` (a .loop text that goes through
/// parse, if-conversion and the rewrite mid-end on every request) or
/// `graph` (a DDG handed straight to the parallelizer).
struct Structure {
  std::string name;
  std::string source;
  mimd::Ddg graph;
  int processors = 2;
  /// A seeded random draw: which draws a run holds depends on the seed.
  bool drawn = false;
};

/// One request of cold_sweep: structure index and base trip count.  Pass
/// p of the sweep runs the request at n = base_n + p, so every pass is a
/// plan-cache miss for every request (the trip count is part of the plan
/// key today).
struct SweepItem {
  std::size_t structure = 0;
  std::int64_t base_n = 0;
};

struct ColdCorpus {
  std::vector<Structure> structures;
  std::vector<SweepItem> pass;
};

/// cold_sweep: examples/loops/*.loop (read from `loops_dir`), the paper's
/// DDGs, and seeded random_connected_cyclic_loop draws, each at
/// n in {24, 256, 1024, 4096, 16384}, plus fig7 at n = 65536; a pass runs
/// them structure by structure.  Structures whose graphs repeat an earlier
/// structure's are dropped, so no request is a plan-cache hit.
ColdCorpus make_cold_corpus(std::uint64_t seed, const std::string& loops_dir);

/// The paper DDGs every workload uses: fig7, LL18, elliptic, LL20.
std::vector<Structure> paper_loops();

/// Copy of `g` with every node renamed: the same structure under other
/// names, which the plan cache must recognise as a hit.
mimd::Ddg renamed(const mimd::Ddg& g, std::uint64_t tag);

/// A registered program of warm_serve / compute_bound.
struct ServedProgram {
  std::size_t loop = 0;  ///< index into paper_loops()
  int processors = 2;
  std::int64_t n = 0;
};

/// warm_serve: every paper loop at n in {24, 256}, P = 2.
std::vector<ServedProgram> warm_programs();

/// compute_bound: every paper loop at P in {2, 4}.  n is 1024 times the
/// ratio of the largest paper-loop body latency to this loop's (rounded),
/// so every program carries about the same sequential work and no single
/// loop dominates the latency distribution.
std::vector<ServedProgram> compute_programs();

/// One warm_serve request: run a registered program, or re-submit a
/// renamed copy of it (about 1 in 10).
struct WarmOp {
  std::size_t program = 0;
  bool resubmit = false;
};
WarmOp next_warm_op(Rng& rng, std::size_t programs);

/// One compute_bound round: every program once, in a seeded order.
std::vector<std::size_t> round_order(Rng& rng, std::size_t programs);

/// Seed of connection `connection`'s request stream.
std::uint64_t connection_seed(std::uint64_t seed, int connection);

/// Canonical text of every input a workload would run for `seed`
/// (for warm_serve and compute_bound: the program set and the first
/// requests of each connection).
std::string dump_corpus(const std::string& workload, std::uint64_t seed,
                        const std::string& loops_dir);

}  // namespace perfbench
