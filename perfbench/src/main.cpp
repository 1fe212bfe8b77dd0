// perfbench — end-to-end and per-layer benchmark of the DSL, its JIT
// module cache, the GBTL kernels and the server (see ../README.md).
//
//   perfbench --workload small_graphs|large_graph --seed N --seconds S
//             --trace 0|1 [--workdir DIR]
//   perfbench --selftest
//
// Every run works inside --workdir (module cache, Matrix Market file,
// probe server socket, span dump) and prints one JSON result as its last line.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "generators/erdos_renyi.hpp"
#include "generators/rmat.hpp"
#include "io/matrix_market.hpp"
#include "jobs.hpp"
#include "probes.hpp"
#include "pygb/obs/obs.hpp"
#include "selftest.hpp"
#include "serve_probe.hpp"

namespace perfbench {

Tracer& tracer() {
  static Tracer t;
  return t;
}

namespace {

using gbtl::detail::Backend;

// small_graphs: the paper's |E| = |V|^1.5 Erdős–Rényi graphs on a fixed
// ladder of sizes (the seed draws edges, weights in [1, 9] and sources, so
// the work per job barely moves between seeds); dtypes alternate so that
// the int32 graphs miss the static kernel table. Seven graphs make 35 jobs
// a cycle: an odd count keeps the median and p90 inside one job's samples
// instead of on the edge between two.
constexpr gbtl::IndexType kSmallSizes[] = {128, 160, 192, 224, 256, 288, 320};
constexpr pygb::DType kSmallDtypes[] = {pygb::DType::kFP64,
                                        pygb::DType::kInt32};
constexpr unsigned kSmallPageRankIters = 20;

// large_graph: one symmetrised R-MAT graph (scale 14, edge factor 16) from
// a fixed R-MAT draw, so every seed does the same amount of work; the seed
// picks the BFS sources and the job order.
constexpr unsigned kLargeScale = 14;
constexpr std::size_t kLargeEdgeFactor = 16;
constexpr unsigned kLargePageRankIters = 10;

struct Job {
  Algo algo;
  std::size_t g;
};

struct Inputs {
  std::vector<GraphInput> graphs;
  std::vector<oracle::Graph> oracle_graphs;
  std::vector<std::string> files;  ///< Matrix Market files written by setup
};

struct InProcSpec {
  unsigned threads;
  Backend backend;
  unsigned k;  ///< PageRank iterations
  int setups;
  std::vector<Algo> algos;  ///< the jobs run on every graph, in cycle order
  std::function<Inputs(std::uint64_t seed)> setup;
};

Inputs small_setup(std::uint64_t seed) {
  Rng rng(seed);
  Inputs in;
  for (std::size_t i = 0; i < std::size(kSmallSizes); ++i) {
    const gbtl::IndexType n = kSmallSizes[i];
    const pygb::DType dt = kSmallDtypes[i % std::size(kSmallDtypes)];
    GraphInput g;
    g.src = static_cast<std::uint32_t>(rng.below(n));
    const std::uint64_t graph_seed = rng.next();
    pygb::gen::EdgeList el;
    {
      Span span("generators");
      el = pygb::gen::paper_graph(n, graph_seed, /*symmetric=*/true, 1.0, 9.0);
    }
    pygb::gen::EdgeList unit = el;
    for (auto& e : unit.edges) e.weight = 1.0;
    {
      Span span("container");
      g.a = pygb::Matrix::from_edge_list(el, dt);
      g.lower = pygb::split_triangles(pygb::Matrix::from_edge_list(unit, dt)).first;
    }
    in.oracle_graphs.push_back(oracle_graph(el, dt));
    in.graphs.push_back(std::move(g));
  }
  return in;
}

Inputs large_setup(std::uint64_t seed) {
  Inputs in;
  pygb::gen::RmatParams p;
  p.scale = kLargeScale;
  p.edge_factor = kLargeEdgeFactor;
  pygb::gen::EdgeList el;
  {
    Span span("generators");
    el = pygb::gen::rmat(p);
  }
  // Symmetrise (the algorithms assume an undirected graph): both arc
  // directions, sorted, duplicates dropped.
  pygb::io::Coo coo;
  {
    Span span("input.prepare");
    std::vector<std::pair<std::uint32_t, std::uint32_t>> arcs;
    arcs.reserve(el.edges.size() * 2);
    for (const auto& e : el.edges) {
      const auto u = static_cast<std::uint32_t>(e.src);
      const auto v = static_cast<std::uint32_t>(e.dst);
      arcs.push_back({u, v});
      arcs.push_back({v, u});
    }
    std::sort(arcs.begin(), arcs.end());
    arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
    coo.nrows = coo.ncols = el.num_vertices;
    for (auto [u, v] : arcs) {
      coo.rows.push_back(u);
      coo.cols.push_back(v);
      coo.vals.push_back(1.0);
    }
  }
  const std::string path = "large_graph.mtx";
  {
    Span span("io.write");
    pygb::io::write_matrix_market(path, coo);
  }
  // Matrix::from_file(path) is exactly these two calls; they are made
  // separately so the traced run can tell the reader from the container.
  pygb::io::Coo read;
  {
    Span span("io.read");
    read = pygb::io::read_matrix_market(path);
  }
  GraphInput g;
  {
    Span span("container");
    g.a = pygb::Matrix::from_coo(read);
    g.lower = pygb::split_triangles(g.a).first;
  }
  // BFS starts at the tail of a seeded arc, so it never starts isolated.
  Rng rng(seed);
  g.src = static_cast<std::uint32_t>(coo.rows[rng.below(coo.nnz())]);
  oracle::Graph og(static_cast<std::uint32_t>(coo.nrows));
  for (std::size_t k = 0; k < coo.nnz(); ++k) {
    og.add(static_cast<std::uint32_t>(coo.rows[k]), static_cast<std::uint32_t>(coo.cols[k]));
  }
  in.oracle_graphs.push_back(std::move(og));
  in.graphs.push_back(std::move(g));
  in.files.push_back(path);
  return in;
}

/// Per-cycle native times of `cycle` under one execution configuration.
double native_cycle_s(const Inputs& in, const std::vector<Job>& cycle,
                      unsigned k, bool& ok, std::vector<double>* per_job) {
  double total = 0;
  for (std::size_t j = 0; j < cycle.size(); ++j) {
    JobTime t;
    ok = run_native(cycle[j].algo, in.graphs[cycle[j].g], k, t) && ok;
    total += t.job_s;
    if (per_job != nullptr) (*per_job)[j] = t.job_s;
  }
  return total;
}

Report run_inproc(const Options& opt, const InProcSpec& spec) {
  Report rep;
  ExecConfig exec(spec.threads, spec.backend);
  auto& reg = pygb::jit::Registry::instance();

  // ---- set-up, several times; the last one's inputs are used ----------
  std::vector<double> setup_s;
  std::vector<std::size_t> setup_marks;
  Inputs in;
  const auto compiles_before_setup = reg.stats().compiles;
  for (int s = 0; s < spec.setups; ++s) {
    setup_marks.push_back(tracer().mark());
    tracer().set_enabled(opt.trace);
    const auto t0 = now_ns();
    in = spec.setup(opt.seed);
    setup_s.push_back(seconds_since(t0));
    tracer().set_enabled(false);
  }
  setup_marks.push_back(tracer().mark());
  if (reg.stats().compiles != compiles_before_setup) {
    std::fprintf(stderr, "perfbench: set-up compiled modules\n");
    rep.correct = false;
  }
  for (std::size_t i = 0; i < in.graphs.size(); ++i) {
    compute_expected(in.oracle_graphs[i], in.graphs[i].src, spec.k,
                     spec.algos, in.graphs[i].exp);
  }
  std::vector<Job> cycle;
  for (std::size_t g = 0; g < in.graphs.size(); ++g) {
    for (Algo a : spec.algos) cycle.push_back({a, g});
  }

  // ---- cold: one full cycle from an empty module cache ----------------
  fresh_module_cache("modules");
  const auto cold_stats0 = reg.stats();
  tracer().set_enabled(opt.trace);
  const auto cold0 = now_ns();
  for (const Job& job : cycle) {
    Span span("cold.job");
    JobTime t;
    rep.op(run_dsl(job.algo, in.graphs[job.g], spec.k, t));
  }
  const double cold_s = seconds_since(cold0);
  tracer().set_enabled(false);
  const auto cold_stats1 = reg.stats();

  // ---- warm: whole cycles in a seeded order ---------------------------
  // Untraced runs measure for --seconds and keep going until job_p90 has
  // ten samples beyond it. Traced runs alternate traced and untraced
  // cycles for half of --seconds, then run the layer probes.
  Rng order_rng(opt.seed * 0x9e3779b97f4a7c15ULL + 7);
  std::vector<std::vector<double>> plain(cycle.size()), traced(cycle.size());
  std::vector<double> all;
  double check_s = 0;  // untraced cycles' oracle checks
  std::uint64_t jobs = 0;
  const Counts counts0 = Counts::now();
  const double budget = opt.trace ? opt.seconds * 0.5 : opt.seconds;
  const std::size_t min_samples = opt.trace ? 0 : 100;
  const auto warm0 = now_ns();
  std::vector<std::size_t> idx(cycle.size());
  for (std::uint64_t c = 0;; ++c) {
    const double elapsed = seconds_since(warm0);
    // Traced runs need at least one traced and one untraced cycle.
    const bool enough = elapsed >= budget && all.size() >= min_samples &&
                        (!opt.trace || c >= 2);
    if (enough || elapsed >= 4 * budget) break;
    const bool trace_cycle = opt.trace && c % 2 == 1;
    tracer().set_enabled(trace_cycle);
    for (std::size_t j = 0; j < idx.size(); ++j) idx[j] = j;
    order_rng.shuffle(idx);
    for (std::size_t j : idx) {
      Span span("job", jobs);
      JobTime t;
      rep.op(run_dsl(cycle[j].algo, in.graphs[cycle[j].g], spec.k, t));
      (trace_cycle ? traced : plain)[j].push_back(t.job_s);
      if (!trace_cycle) {
        all.push_back(t.job_s);
        check_s += t.check_s;
      }
      ++jobs;
    }
    tracer().set_enabled(false);
  }
  const double warm_s = seconds_since(warm0);
  const Counts counts = Counts::now() - counts0;

  if (!opt.trace) {
    std::printf("median ms per job:");
    for (std::size_t j = 0; j < cycle.size(); ++j) {
      std::printf(" %s@%zu=%.3f", algo_name(cycle[j].algo), cycle[j].g,
                  1e3 * median(plain[j]));
    }
    std::printf("\n");
    std::printf("job samples: %zu (p90 has %zu beyond it)\n", all.size(),
                all.size() - static_cast<std::size_t>(std::ceil(0.9 * all.size())));
    rep.add("setup_s", median(setup_s), "s");
    rep.add("cold_result_s", cold_s, "s");
    rep.add("job_ms", 1e3 * median(all), "ms");
    rep.add("job_p90_ms", 1e3 * percentile(all, 0.9), "ms");
    // Untraced runs trace no cycle: every warm job is in `all`.
    rep.add("jobs_per_s", static_cast<double>(all.size()) / (warm_s - check_s), "1/s");
    rep.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return rep;
  }

  // ---- traced run: per-layer numbers ----------------------------------
  auto per_setup = [&](const char* name) {
    std::vector<double> v;
    for (int s = 0; s < spec.setups; ++s) {
      v.push_back(sum(tracer().self_s(name, setup_marks[s], setup_marks[s + 1])));
    }
    return median(v);
  };
  double warm_cycle_s = 0, traced_cycle_s = 0;
  for (std::size_t j = 0; j < cycle.size(); ++j) {
    warm_cycle_s += median(plain[j]);
    traced_cycle_s += median(traced[j]);
  }
  const double ops_per_job = counts.lookups / static_cast<double>(jobs);
  const double compiles =
      static_cast<double>(cold_stats1.compiles - cold_stats0.compiles);
  const double compile_s =
      cold_stats1.compile_seconds - cold_stats0.compile_seconds;

  // Native GBTL cycles: the workload's configuration, 1 and 2 pool
  // threads, and the other backend at the workload's pool size.
  const Backend other =
      spec.backend == Backend::kSimd ? Backend::kScalar : Backend::kSimd;
  std::vector<double> own, one_thread, two_threads, other_backend;
  std::vector<std::vector<double>> native_per_job(cycle.size());
  bool native_ok = true;
  const auto native0 = now_ns();
  for (int r = 0; r < 15 && (r < 3 || seconds_since(native0) < opt.seconds * 0.2); ++r) {
    std::vector<double> per(cycle.size());
    own.push_back(native_cycle_s(in, cycle, spec.k, native_ok, &per));
    for (std::size_t j = 0; j < cycle.size(); ++j) native_per_job[j].push_back(per[j]);
    {
      ExecConfig one(1, spec.backend);
      one_thread.push_back(native_cycle_s(in, cycle, spec.k, native_ok, nullptr));
    }
    {
      ExecConfig two(2, spec.backend);
      two_threads.push_back(native_cycle_s(in, cycle, spec.k, native_ok, nullptr));
    }
    {
      ExecConfig flip(spec.threads, other);
      other_backend.push_back(native_cycle_s(in, cycle, spec.k, native_ok, nullptr));
    }
  }
  if (!native_ok) {
    std::fprintf(stderr, "perfbench: a native GBTL job disagreed with the oracle\n");
    rep.correct = false;
  }
  std::vector<double> native_all;
  double native_cycle = 0;
  for (const auto& v : native_per_job) {
    native_all.insert(native_all.end(), v.begin(), v.end());
    native_cycle += median(v);
  }
  const double scalar_s = spec.backend == Backend::kScalar ? median(own) : median(other_backend);
  const double simd_s = spec.backend == Backend::kSimd ? median(own) : median(other_backend);

  // PageRank per-iteration cost: K and 2K iterations on the first graph.
  const GraphInput& probe = in.graphs.front();
  std::vector<double> pr_k, pr_2k;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = now_ns();
    pygb::algo::dsl_page_rank(probe.a, 0.85, 0.0, spec.k);
    pr_k.push_back(seconds_since(t0));
    const auto t1 = now_ns();
    pygb::algo::dsl_page_rank(probe.a, 0.85, 0.0, 2 * spec.k);
    pr_2k.push_back(seconds_since(t1));
  }

  std::vector<pygb::jit::OpRequest> static_reqs, memory_reqs;
  for (const auto& g : in.graphs) {
    static_reqs.push_back(bfs_request(g.a.dtype()));
    memory_reqs.push_back(cc_request(g.a.dtype()));
  }
  double io_read_s = per_setup("io.read");
  if (in.files.empty()) {
    std::vector<std::string> files;
    for (std::size_t i = 0; i < in.graphs.size(); ++i) {
      files.push_back("graph" + std::to_string(i) + ".mtx");
      pygb::io::write_matrix_market(files.back(), in.graphs[i].a.to_coo());
    }
    io_read_s = probe_io_read_s(files);
  }
  const KernelTimes kt = probe_kernels(probe.a, probe.lower, opt.seconds * 0.1);
  const ServeProbe sp = serve_trivial_probe(spec.threads);
  if (!sp.ok) rep.correct = false;

  rep.add("generators.build_s", per_setup("generators"), "s");
  rep.add("io.read_s", io_read_s, "s");
  rep.add("container.build_s", per_setup("container"), "s");
  rep.add("eval.ops_per_job", ops_per_job, "count");
  rep.add("eval.overhead_us_per_op",
          1e6 * (warm_cycle_s - native_cycle) / (ops_per_job * cycle.size()), "us");
  rep.add("eval.op_ns", probe_op_ns(), "ns");
  rep.add("jit.static_hit_ns", probe_registry_ns(static_reqs, "static"), "ns");
  rep.add("jit.memory_hit_ns", probe_registry_ns(memory_reqs, "jit-memory"), "ns");
  rep.add("jit.compiles", compiles, "count");
  rep.add("jit.compile_s_per_module", compiles > 0 ? compile_s / compiles : 0.0, "s");
  rep.add("jit.cold_overhead_s", cold_s - compile_s - warm_cycle_s, "s");
  rep.add("plan.pagerank_iter_ms", 1e3 * (median(pr_2k) - median(pr_k)) / spec.k, "ms");
  rep.add("plan.fused_statements_per_job", counts.fused / static_cast<double>(jobs), "count");
  rep.add("plan.eager_ops_per_job", counts.eager / static_cast<double>(jobs), "count");
  rep.add("gbtl.native_job_ms", 1e3 * median(native_all), "ms");
  rep.add("gbtl.mxv_ms", kt.mxv_ms, "ms");
  rep.add("gbtl.vxm_ms", kt.vxm_ms, "ms");
  rep.add("gbtl.mxm_ms", kt.mxm_ms, "ms");
  rep.add("gbtl.ewise_ms", kt.ewise_ms, "ms");
  rep.add("gbtl.reduce_ms", kt.reduce_ms, "ms");
  rep.add("pool.speedup", median(one_thread) / median(two_threads), "ratio");
  rep.add("gbtl.simd_speedup", scalar_s / simd_s, "ratio");
  add_serve_metrics(rep, sp);
  rep.add("governor.mem_peak_mb",
          mib(static_cast<double>(counter(pygb::obs::Counter::kMemPeakBytes))), "MiB");
  // Measured, not gated: traced ÷ untraced job medians in the same run.
  std::printf("trace overhead ratio: %.4f\n", traced_cycle_s / warm_cycle_s);
  return rep;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload small_graphs|large_graph "
               "--seed N --seconds S --trace 0|1 [--workdir DIR]\n"
               "       perfbench --selftest\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool selftest_only = false;
  std::string workdir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      opt.trace = value() == "1";
    } else if (a == "--workdir") {
      workdir = value();
    } else if (a == "--selftest") {
      selftest_only = true;
    } else {
      return usage();
    }
  }
  const int selftest_failures = oracle_selftest();
  if (selftest_only) {
    std::printf("oracle selftest: %s\n", selftest_failures == 0 ? "ok" : "FAILED");
    return selftest_failures == 0 ? 0 : 1;
  }
  if (opt.seconds <= 0) return usage();
  std::error_code ec;
  std::filesystem::create_directories(workdir, ec);
  if (ec || ::chdir(workdir.c_str()) != 0) {
    std::fprintf(stderr, "perfbench: cannot use workdir %s\n", workdir.c_str());
    return 2;
  }
  // The registry (and its static kernel table) is built before any timing.
  pygb::jit::Registry::instance().set_cache_dir(
      std::filesystem::absolute("modules").string());

  InProcSpec small{1, Backend::kScalar, kSmallPageRankIters, 15,
                   {Algo::kBfs, Algo::kSssp, Algo::kPageRank, Algo::kCc, Algo::kTc},
                   small_setup};
  // TC twice: five jobs a cycle put the median in the middle of PageRank
  // and the p90 inside TC, each well apart from its neighbours. One pool
  // thread: at two, runs of identical code drifted by 30% between two
  // sets of ten (see README); the traced run still compares 1 and 2.
  InProcSpec large{1, Backend::kSimd, kLargePageRankIters, 3,
                   {Algo::kBfs, Algo::kCc, Algo::kPageRank, Algo::kTc, Algo::kTc},
                   large_setup};
  Report rep;
  if (opt.workload == "small_graphs") {
    rep = run_inproc(opt, small);
  } else if (opt.workload == "large_graph") {
    rep = run_inproc(opt, large);
  } else {
    return usage();
  }
  if (selftest_failures != 0) rep.correct = false;
  if (opt.trace && !tracer().write("spans.jsonl")) {
    std::fprintf(stderr, "perfbench: could not write spans.jsonl\n");
  }
  print_report(rep);
  return 0;
}
