#include "corpus.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/parallelizer.hpp"
#include "ir/dependence.hpp"
#include "ir/ifconvert.hpp"
#include "ir/parser.hpp"
#include "opt/pipeline.hpp"
#include "partition/compiled_program.hpp"
#include "workloads/livermore.hpp"
#include "workloads/paper_examples.hpp"
#include "workloads/random_loops.hpp"

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

/// Trip counts of the sweep.  Five classes put the median request inside
/// the middle class (n = 1024) instead of on the boundary between two.
constexpr std::int64_t kSweepN[] = {24, 256, 1024, 4096, 16384};

/// Shapes (nodes, edges) of the random draws, scheduled alternately for 2
/// and 4 processors.  The seed picks the wiring, never the size or the
/// processor count.
constexpr std::pair<std::size_t, std::size_t> kRandomShapes[] = {
    {4, 6}, {5, 7}, {6, 8}, {6, 9}, {7, 10}, {8, 12}, {9, 14}, {10, 16}};
/// Seeds 1..kRandomCandidates of random_connected_cyclic_loop hold every
/// shape above at least 17 times.
constexpr std::size_t kRandomCandidates = 1000;

std::string read_file(const std::filesystem::path& p) {
  std::ifstream f(p, std::ios::binary);
  if (!f) throw std::runtime_error("cannot read " + p.string());
  std::ostringstream s;
  s << f.rdbuf();
  return s.str();
}

/// Graph hashes of the strands the front end makes of `source`.
std::vector<std::uint64_t> source_key(const std::string& source) {
  using namespace mimd;
  const ir::Loop raw = ir::parse_loop(source);
  const ir::Loop loop = raw.has_control_flow() ? ir::if_convert(raw) : raw;
  std::vector<std::uint64_t> key;
  for (const ir::Loop& strand : opt::optimize(loop).loops) {
    key.push_back(structural_hash(ir::analyze_dependences(strand).graph));
  }
  return key;
}

void dump_graph(std::ostream& o, const mimd::Ddg& g) {
  o << "graph nodes=" << g.num_nodes() << " edges=" << g.num_edges() << "\n";
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    o << "node " << v << " " << g.node(static_cast<mimd::NodeId>(v)).name
      << " " << g.node(static_cast<mimd::NodeId>(v)).latency << "\n";
  }
  for (const mimd::Edge& e : g.edges()) {
    o << "edge " << e.src << " " << e.dst << " " << e.distance << " "
      << e.comm_cost << "\n";
  }
}

void dump_structure(std::ostream& o, std::size_t i, const Structure& s) {
  o << "structure " << i << " " << s.name << " P=" << s.processors << "\n";
  if (!s.source.empty()) {
    o << "source <<\n" << s.source << ">>\n";
  } else {
    dump_graph(o, s.graph);
  }
}

}  // namespace

mimd::ParallelizeOptions parallelize_options(int processors, std::int64_t n) {
  mimd::ParallelizeOptions opts;
  opts.machine = mimd::Machine{processors, kCommEstimate};
  opts.iterations = n;
  opts.emit_code = false;
  opts.schedule.flow_strategy = mimd::FlowStrategy::Fold;
  return opts;
}

std::vector<Structure> paper_loops() {
  using namespace mimd::workloads;
  return {{"fig7", "", fig7_loop(), 2},
          {"LL18", "", livermore18_loop(), 2},
          {"elliptic", "", elliptic_filter_loop(), 2},
          {"LL20", "", ll20_discrete_ordinates(), 2}};
}

ColdCorpus make_cold_corpus(std::uint64_t seed,
                            const std::string& loops_dir) {
  ColdCorpus c;
  std::set<std::vector<std::uint64_t>> seen;

  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(loops_dir)) {
    if (entry.path().extension() == ".loop") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) throw std::runtime_error("no .loop files in " + loops_dir);
  for (const auto& f : files) {
    Structure s{f.filename().string(), read_file(f), {}, 2};
    if (seen.insert(source_key(s.source)).second) {
      c.structures.push_back(std::move(s));
    }
  }
  for (Structure& s : paper_loops()) {
    if (seen.insert({mimd::structural_hash(s.graph)}).second) {
      c.structures.push_back(std::move(s));
    }
  }

  // Generate the same candidate pool for every seed, so set-up (a metric)
  // costs the same; the seed shuffles the pool, and each shape takes the
  // first candidate of that shape the corpus does not hold yet.
  std::vector<std::uint64_t> pool(kRandomCandidates);
  std::iota(pool.begin(), pool.end(), std::uint64_t{1});
  std::vector<mimd::Ddg> graphs;
  for (const std::uint64_t draw : pool) {
    graphs.push_back(mimd::workloads::random_connected_cyclic_loop(draw));
  }
  std::vector<std::size_t> order(pool.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  for (std::size_t i = 0; i < std::size(kRandomShapes); ++i) {
    const auto [nodes, edges] = kRandomShapes[i];
    bool found = false;
    for (const std::size_t k : order) {
      const mimd::Ddg& g = graphs[k];
      if (g.num_nodes() != nodes || g.num_edges() != edges) continue;
      if (!seen.insert({mimd::structural_hash(g)}).second) continue;
      c.structures.push_back({"random-" + std::to_string(pool[k]), "", g,
                              i % 2 == 0 ? 2 : 4, true});
      found = true;
      break;
    }
    if (!found) throw std::runtime_error("no random loop of a requested shape");
  }

  // Structure by structure, so every trip-count class is spread over the
  // whole pass: a class run in one stretch would time that stretch of the
  // host alone, and the median request would see a second or two of it.
  for (std::size_t s = 0; s < c.structures.size(); ++s) {
    for (const std::int64_t n : kSweepN) c.pass.push_back({s, n});
    if (c.structures[s].name == "fig7") c.pass.push_back({s, 65536});
  }
  return c;
}

mimd::Ddg renamed(const mimd::Ddg& g, std::uint64_t tag) {
  mimd::Ddg out;
  const std::string suffix = "_r" + std::to_string(tag);
  for (const mimd::Node& n : g.nodes()) out.add_node(n.name + suffix, n.latency);
  for (const mimd::Edge& e : g.edges()) {
    out.add_edge(e.src, e.dst, e.distance, e.comm_cost);
  }
  return out;
}

std::vector<ServedProgram> warm_programs() {
  std::vector<ServedProgram> out;
  for (const std::int64_t n : {24, 256}) {
    for (std::size_t l = 0; l < paper_loops().size(); ++l) {
      out.push_back({l, 2, n});
    }
  }
  return out;
}

std::vector<ServedProgram> compute_programs() {
  const std::vector<Structure> loops = paper_loops();
  std::int64_t widest = 1;
  for (const Structure& s : loops) {
    widest = std::max(widest, s.graph.body_latency());
  }
  std::vector<ServedProgram> out;
  for (const int p : {2, 4}) {
    for (std::size_t l = 0; l < loops.size(); ++l) {
      const std::int64_t bl = loops[l].graph.body_latency();
      const std::int64_t scale = std::max<std::int64_t>(1, (widest + bl / 2) / bl);
      out.push_back({l, p, 1024 * scale});
    }
  }
  return out;
}

std::vector<std::size_t> round_order(Rng& rng, std::size_t programs) {
  std::vector<std::size_t> order(programs);
  for (std::size_t i = 0; i < programs; ++i) order[i] = i;
  for (std::size_t i = programs; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

std::uint64_t connection_seed(std::uint64_t seed, int connection) {
  return seed * 31 + static_cast<std::uint64_t>(connection);
}

WarmOp next_warm_op(Rng& rng, std::size_t programs) {
  WarmOp op;
  op.resubmit = rng.below(10) == 0;
  op.program = rng.below(programs);
  return op;
}

std::string dump_corpus(const std::string& workload, std::uint64_t seed,
                        const std::string& loops_dir) {
  std::ostringstream o;
  o << "workload " << workload << " seed " << seed << "\n";
  if (workload == "cold_sweep") {
    const ColdCorpus c = make_cold_corpus(seed, loops_dir);
    for (std::size_t i = 0; i < c.structures.size(); ++i) {
      dump_structure(o, i, c.structures[i]);
    }
    for (const SweepItem& it : c.pass) {
      o << "request " << it.structure << " n=" << it.base_n << "\n";
    }
    return o.str();
  }
  const std::vector<Structure> loops = paper_loops();
  for (std::size_t i = 0; i < loops.size(); ++i) dump_structure(o, i, loops[i]);
  const bool warm = workload == "warm_serve";
  const std::vector<ServedProgram> progs =
      warm ? warm_programs() : compute_programs();
  for (const ServedProgram& p : progs) {
    o << "program loop=" << p.loop << " P=" << p.processors << " n=" << p.n
      << "\n";
  }
  // The first requests of each connection, as the client draws them.
  const int connections = warm ? 2 : 1;
  for (int c = 0; c < connections; ++c) {
    Rng rng(connection_seed(seed, c));
    for (int r = 0; r < 64; ++r) {
      if (warm) {
        const WarmOp op = next_warm_op(rng, progs.size());
        o << "conn " << c << " " << (op.resubmit ? "resubmit " : "run ")
          << op.program << "\n";
      } else {
        o << "conn " << c << " round";
        for (const std::size_t i : round_order(rng, progs.size())) o << " " << i;
        o << "\n";
      }
    }
  }
  return o.str();
}

}  // namespace perfbench
