// perfbench/src/jobs.hpp — the five graph jobs, run through the DSL's
// public entry points or natively through GBTL, and checked against the
// oracle (oracle.hpp).
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/connected_components.hpp"
#include "algorithms/dsl_algorithms.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/triangle_count.hpp"
#include "common.hpp"
#include "generators/edge_list.hpp"
#include "oracle.hpp"
#include "pygb/pygb.hpp"

namespace perfbench {

enum class Algo { kBfs, kSssp, kPageRank, kCc, kTc };

inline const char* algo_name(Algo a) {
  switch (a) {
    case Algo::kBfs: return "bfs";
    case Algo::kSssp: return "sssp";
    case Algo::kPageRank: return "pagerank";
    case Algo::kCc: return "cc";
    case Algo::kTc: return "tc";
  }
  return "?";
}

/// Relative tolerance for floating-point results. PageRank runs in fp64
/// on both sides but sums in a different order; fp32 path lengths are
/// accumulated in fp32 by the library and in fp64 by the oracle.
inline constexpr double kFp64RelTol = 1e-9;
inline constexpr double kFp32RelTol = 1e-5;

struct Expected {
  std::uint32_t depth = 0;
  std::vector<std::int64_t> levels;
  std::vector<double> dist;
  std::vector<double> ranks;
  std::vector<std::int64_t> labels;
  std::uint64_t triangles = 0;
};

/// One input graph with everything its jobs need.
struct GraphInput {
  pygb::Matrix a;      ///< weighted adjacency at the input's dtype
  pygb::Matrix lower;  ///< unit-weight strictly lower triangle (TC input)
  std::uint32_t src = 0;
  Expected exp;
};

/// The value a weight takes once stored at `dt` (what the oracle sees).
inline double stored_weight(double w, pygb::DType dt) {
  switch (dt) {
    case pygb::DType::kFP64: return w;
    case pygb::DType::kFP32: return static_cast<double>(static_cast<float>(w));
    case pygb::DType::kInt32: return static_cast<double>(static_cast<std::int32_t>(w));
    case pygb::DType::kInt64: return static_cast<double>(static_cast<std::int64_t>(w));
    default: return w;
  }
}

inline oracle::Graph oracle_graph(const pygb::gen::EdgeList& el,
                                  pygb::DType dt) {
  oracle::Graph g(static_cast<std::uint32_t>(el.num_vertices));
  for (const auto& e : el.edges) {
    g.add(static_cast<std::uint32_t>(e.src), static_cast<std::uint32_t>(e.dst),
          stored_weight(e.weight, dt));
  }
  return g;
}

/// The arcs the TC input keeps: strictly lower (src > dst) ones.
inline oracle::Graph lower_arcs(const oracle::Graph& g) {
  oracle::Graph l(g.n);
  for (std::uint32_t u = 0; u < g.n; ++u) {
    for (const oracle::Arc& a : g.out[u]) {
      if (a.to < u) l.add(u, a.to, 1.0);
    }
  }
  return l;
}

/// Fill `exp` for the algorithms in `algos` from the oracle.
inline void compute_expected(const oracle::Graph& g, std::uint32_t src,
                             unsigned pagerank_iters,
                             const std::vector<Algo>& algos, Expected& exp) {
  for (Algo a : algos) {
    switch (a) {
      case Algo::kBfs: exp.depth = oracle::bfs_levels(g, src, exp.levels); break;
      case Algo::kSssp: exp.dist = oracle::sssp(g, src); break;
      case Algo::kPageRank: exp.ranks = oracle::pagerank(g, 0.85, pagerank_iters); break;
      case Algo::kCc: exp.labels = oracle::cc_labels(g); break;
      case Algo::kTc: exp.triangles = oracle::triangles(lower_arcs(g)); break;
    }
  }
}

inline bool close(double got, double want, double rel) {
  if (rel == 0.0) return got == want;
  return std::fabs(got - want) <= rel * std::max(1.0, std::fabs(want));
}

inline bool check_levels(const pygb::Vector& v, std::uint32_t depth,
                         std::uint32_t want_depth,
                         const std::vector<std::int64_t>& want) {
  if (depth != want_depth || v.size() != want.size()) return false;
  for (gbtl::IndexType i = 0; i < v.size(); ++i) {
    const bool has = v.has_element(i);
    if (want[i] == 0 ? has : (!has || v.get(i) != static_cast<double>(want[i]))) {
      return false;
    }
  }
  return true;
}

inline bool check_dist(const pygb::Vector& v, const std::vector<double>& want,
                       double rel) {
  if (v.size() != want.size()) return false;
  for (gbtl::IndexType i = 0; i < v.size(); ++i) {
    const bool has = v.has_element(i);
    if (std::isinf(want[i]) ? has : (!has || !close(v.get(i), want[i], rel))) {
      return false;
    }
  }
  return true;
}

inline bool check_ranks(const pygb::Vector& v, const std::vector<double>& want) {
  if (v.size() != want.size() || v.nvals() != want.size()) return false;
  for (gbtl::IndexType i = 0; i < v.size(); ++i) {
    if (!close(v.get(i), want[i], kFp64RelTol)) return false;
  }
  return true;
}

inline bool check_labels(const pygb::Vector& v,
                         const std::vector<std::int64_t>& want) {
  if (v.size() != want.size() || v.nvals() != want.size()) return false;
  for (gbtl::IndexType i = 0; i < v.size(); ++i) {
    if (v.get(i) != static_cast<double>(want[i])) return false;
  }
  return true;
}

inline double dist_tol(pygb::DType dt) {
  if (dt == pygb::DType::kFP64) return kFp64RelTol;
  if (dt == pygb::DType::kFP32) return kFp32RelTol;
  return 0.0;  // integer path lengths are exact
}

/// Times of one job: `job_s` runs from building the job's library inputs
/// to destroying its outputs, less the oracle check, which `check_s` holds.
struct JobTime {
  double job_s = 0;
  double check_s = 0;
};

/// The clock of one job: started on construction, the check timed apart.
class JobClock {
 public:
  template <typename Check>
  bool check(Check&& fn) {
    const auto t0 = now_ns();
    const bool ok = fn();
    check_s_ += seconds_since(t0);
    return ok;
  }
  JobTime stop() const { return {seconds_since(start_) - check_s_, check_s_}; }

 private:
  std::uint64_t start_ = now_ns();
  double check_s_ = 0;
};

/// Run one job through the DSL and check its output against the oracle.
inline bool run_dsl(Algo algo, const GraphInput& g, unsigned k, JobTime& t) {
  const gbtl::IndexType n = g.a.nrows();
  Span span("dsl");
  JobClock clock;
  // The outputs live inside the lambda, so they are destroyed before the
  // clock stops.
  const bool ok = [&]() -> bool {
    switch (algo) {
      case Algo::kBfs: {
        pygb::Vector frontier(n, pygb::DType::kBool);
        frontier.set(g.src, pygb::Scalar(true));
        pygb::Vector levels(n, pygb::DType::kInt64);
        const auto depth = pygb::algo::dsl_bfs(g.a, std::move(frontier), levels);
        return clock.check([&] {
          return check_levels(levels, static_cast<std::uint32_t>(depth),
                              g.exp.depth, g.exp.levels);
        });
      }
      case Algo::kSssp: {
        pygb::Vector path(n, g.a.dtype());
        path.set(g.src, 0.0);
        pygb::algo::dsl_sssp(g.a, path);
        return clock.check(
            [&] { return check_dist(path, g.exp.dist, dist_tol(g.a.dtype())); });
      }
      case Algo::kPageRank: {
        const pygb::Vector ranks = pygb::algo::dsl_page_rank(g.a, 0.85, 0.0, k);
        return clock.check([&] { return check_ranks(ranks, g.exp.ranks); });
      }
      case Algo::kCc: {
        pygb::Vector labels(n, pygb::DType::kInt64);
        pygb::algo::dsl_connected_components(g.a, labels);
        return clock.check([&] { return check_labels(labels, g.exp.labels); });
      }
      case Algo::kTc: {
        const std::int64_t tri = pygb::algo::dsl_triangle_count(g.lower);
        return clock.check([&] {
          return tri >= 0 && static_cast<std::uint64_t>(tri) == g.exp.triangles;
        });
      }
    }
    return false;
  }();
  t = clock.stop();
  return ok;
}

/// The same job written directly against GBTL's templates (the paper's
/// "native" series), on the same containers, timed and checked the same
/// way. The check adopts a copy of the output, so the output itself is
/// destroyed inside the timed window.
inline bool run_native(Algo algo, const GraphInput& g, unsigned k, JobTime& t) {
  const gbtl::IndexType n = g.a.nrows();
  Span span("gbtl.job");
  JobClock clock;
  const bool ok = pygb::visit_dtype(g.a.dtype(), [&](auto tag) -> bool {
    using T = typename decltype(tag)::type;
    if constexpr (std::is_same_v<T, bool>) {
      return false;
    } else {
      const gbtl::Matrix<T>& a = g.a.typed<T>();
      switch (algo) {
        case Algo::kBfs: {
          gbtl::Vector<bool> frontier(n);
          frontier.setElement(g.src, true);
          gbtl::Vector<std::int64_t> levels(n);
          const auto depth = pygb::algo::bfs(a, frontier, levels);
          return clock.check([&] {
            return check_levels(pygb::Vector::adopt(gbtl::Vector<std::int64_t>(levels)),
                                static_cast<std::uint32_t>(depth), g.exp.depth,
                                g.exp.levels);
          });
        }
        case Algo::kSssp: {
          gbtl::Vector<T> path(n);
          path.setElement(g.src, T{0});
          pygb::algo::sssp(a, path);
          return clock.check([&] {
            return check_dist(pygb::Vector::adopt(gbtl::Vector<T>(path)), g.exp.dist,
                              dist_tol(g.a.dtype()));
          });
        }
        case Algo::kPageRank: {
          gbtl::Vector<double> ranks(n);
          pygb::algo::page_rank(a, ranks, 0.85, 0.0, k);
          return clock.check([&] {
            return check_ranks(pygb::Vector::adopt(gbtl::Vector<double>(ranks)),
                               g.exp.ranks);
          });
        }
        case Algo::kCc: {
          gbtl::Vector<std::int64_t> labels(n);
          pygb::algo::connected_components(a, labels);
          return clock.check([&] {
            return check_labels(pygb::Vector::adopt(gbtl::Vector<std::int64_t>(labels)),
                                g.exp.labels);
          });
        }
        case Algo::kTc: {
          const auto tri =
              pygb::algo::triangle_count<std::int64_t>(g.lower.typed<T>());
          return clock.check([&] {
            return tri >= 0 && static_cast<std::uint64_t>(tri) == g.exp.triangles;
          });
        }
      }
      return false;
    }
  });
  t = clock.stop();
  return ok;
}

}  // namespace perfbench
