// perfbench/src/probes.hpp — per-layer probes for traced runs: single
// calls into one layer, timed in loops, with the result taken as the
// median over batches.
#pragma once

#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"
#include "generators/classic.hpp"
#include "gbtl/detail/backend.hpp"
#include "gbtl/detail/parallel.hpp"
#include "io/matrix_market.hpp"
#include "pygb/obs/obs.hpp"
#include "pygb/pygb.hpp"

namespace perfbench {

/// Pins the pool size and kernel backend, restoring both on exit.
class ExecConfig {
 public:
  ExecConfig(unsigned threads, gbtl::detail::Backend backend)
      : threads_(gbtl::detail::num_threads()),
        backend_(gbtl::detail::default_backend()) {
    gbtl::detail::set_num_threads(threads);
    gbtl::detail::set_default_backend(backend);
  }
  ~ExecConfig() {
    gbtl::detail::set_num_threads(threads_);
    gbtl::detail::set_default_backend(backend_);
  }
  ExecConfig(const ExecConfig&) = delete;
  ExecConfig& operator=(const ExecConfig&) = delete;

 private:
  unsigned threads_;
  gbtl::detail::Backend backend_;
};

/// Median per-call seconds of `fn`, called in batches of `batch` until
/// `batches` batches ran or `budget_s` passed (at least three batches).
template <typename F>
double per_call_s(F&& fn, int batch, int batches, double budget_s) {
  fn();  // warm
  std::vector<double> v;
  const auto start = now_ns();
  for (int b = 0; b < batches; ++b) {
    const auto t0 = now_ns();
    for (int i = 0; i < batch; ++i) fn();
    v.push_back(seconds_since(t0) / batch);
    if (b >= 2 && seconds_since(start) > budget_s) break;
  }
  return median(v);
}

/// eval.op_ns: one tiny DSL mxv (16-vertex ring) through the whole
/// dispatch path.
inline double probe_op_ns() {
  pygb::Matrix a =
      pygb::Matrix::from_edge_list(pygb::gen::cycle_graph(16, true));
  pygb::Vector x(16);
  for (gbtl::IndexType i = 0; i < 16; ++i) x.set(i, 1.0);
  pygb::Vector y(16);
  pygb::With ctx(pygb::ArithmeticSemiring());
  Span span("eval.op");
  return 1e9 * per_call_s([&] { y[pygb::None] = pygb::matmul(a, x); }, 200,
                          25, 0.5);
}

/// The BFS frontier-expansion request for a graph of dtype `dt` (served
/// by the static table) and the connected-components request (compiled).
inline pygb::jit::OpRequest bfs_request(pygb::DType dt) {
  pygb::jit::OpRequest r;
  r.func = pygb::jit::func::kMxV;
  r.c = pygb::DType::kBool;
  r.a = dt;
  r.b = pygb::DType::kBool;
  r.a_transposed = true;
  r.mask = pygb::jit::MaskKind::kVectorComp;
  r.semiring = pygb::LogicalSemiring();
  r.backend = gbtl::detail::default_backend();
  return r;
}

inline pygb::jit::OpRequest cc_request(pygb::DType dt) {
  pygb::jit::OpRequest r;
  r.func = pygb::jit::func::kMxV;
  r.c = pygb::DType::kInt64;
  r.a = dt;
  r.b = pygb::DType::kInt64;
  r.a_transposed = true;
  r.semiring = pygb::MinSelect2ndSemiring();
  r.accum = pygb::Accumulator("Min").op();
  r.backend = gbtl::detail::default_backend();
  return r;
}

/// Median nanoseconds of one Registry::get on `reqs`, which must all
/// resolve through `backend` ("static" or "jit-memory"); a request that
/// resolves elsewhere is reported on stderr and left out.
inline double probe_registry_ns(const std::vector<pygb::jit::OpRequest>& reqs,
                                const char* backend) {
  auto& reg = pygb::jit::Registry::instance();
  std::vector<double> v;
  for (const auto& req : reqs) {
    pygb::jit::ResolveInfo info;
    reg.get(req, &info);
    if (std::string(info.backend) != backend) {
      std::fprintf(stderr, "perfbench: %s resolved via %s, not %s\n",
                   info.key.c_str(), info.backend, backend);
      continue;
    }
    Span span("jit.get");
    v.push_back(1e9 * per_call_s([&] { reg.get(req); }, 1000, 15, 0.2));
  }
  return median(v);
}

/// Median seconds to read the Matrix Market files at `paths`, summed.
inline double probe_io_read_s(const std::vector<std::string>& paths) {
  std::vector<double> v;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = now_ns();
    for (const std::string& p : paths) {
      Span span("io.read");
      auto coo = pygb::io::read_matrix_market(p);
      if (coo.nnz() == 0) std::fprintf(stderr, "perfbench: %s empty\n", p.c_str());
    }
    v.push_back(seconds_since(t0));
  }
  return median(v);
}

/// Native GBTL single-operation times (ms) on one graph at the current
/// pool size and backend: the kernels the five algorithms are made of.
struct KernelTimes {
  double mxv_ms = 0, vxm_ms = 0, mxm_ms = 0, ewise_ms = 0, reduce_ms = 0;
};

inline KernelTimes probe_kernels(const pygb::Matrix& graph,
                                 const pygb::Matrix& lower, double budget_s) {
  KernelTimes kt;
  pygb::visit_dtype(graph.dtype(), [&](auto tag) {
    using T = typename decltype(tag)::type;
    if constexpr (!std::is_same_v<T, bool>) {
      const gbtl::Matrix<T>& a = graph.typed<T>();
      const gbtl::Matrix<T>& l = lower.typed<T>();
      const gbtl::IndexType n = a.nrows();
      gbtl::Vector<T> u(n), v(n), w(n);
      for (gbtl::IndexType i = 0; i < n; ++i) {
        u.setElement(i, static_cast<T>(1 + i % 3));
        v.setElement(i, static_cast<T>(2 + i % 5));
      }
      const double each = budget_s / 5;
      {
        Span span("gbtl.mxv");
        kt.mxv_ms = 1e3 * per_call_s(
                              [&] {
                                gbtl::mxv(w, gbtl::NoMask{},
                                          gbtl::NoAccumulate{},
                                          gbtl::ArithmeticSemiring<T>{},
                                          gbtl::transpose(a), u);
                              },
                              1, 200, each);
      }
      {
        Span span("gbtl.vxm");
        kt.vxm_ms = 1e3 * per_call_s(
                              [&] {
                                gbtl::vxm(w, gbtl::NoMask{},
                                          gbtl::NoAccumulate{},
                                          gbtl::ArithmeticSemiring<T>{}, u,
                                          a);
                              },
                              1, 200, each);
      }
      {
        Span span("gbtl.mxm");
        gbtl::Matrix<T> b(n, n);
        kt.mxm_ms = 1e3 * per_call_s(
                              [&] {
                                gbtl::mxm(b, l, gbtl::NoAccumulate{},
                                          gbtl::ArithmeticSemiring<T>{}, l,
                                          gbtl::transpose(l));
                              },
                              1, 200, each);
      }
      {
        Span span("gbtl.ewise");
        kt.ewise_ms = 1e3 * per_call_s(
                                [&] {
                                  gbtl::eWiseAdd(w, gbtl::NoMask{},
                                                 gbtl::NoAccumulate{},
                                                 gbtl::Minus<T>{}, u, v);
                                  gbtl::eWiseMult(w, gbtl::NoMask{},
                                                  gbtl::NoAccumulate{},
                                                  gbtl::Times<T>{}, w, w);
                                },
                                1, 200, each);
      }
      {
        Span span("gbtl.reduce");
        T s{};
        kt.reduce_ms = 1e3 * per_call_s(
                                 [&] {
                                   gbtl::reduce(s, gbtl::NoAccumulate{},
                                                gbtl::PlusMonoid<T>{}, a);
                                 },
                                 1, 200, each);
      }
    }
  });
  return kt;
}

inline double mib(double bytes) { return bytes / (1024.0 * 1024.0); }

/// Point the module cache at a fresh, empty directory of this run.
inline void fresh_module_cache(const std::string& name) {
  std::filesystem::remove_all(name);
  std::filesystem::create_directories(name);
  auto& reg = pygb::jit::Registry::instance();
  reg.set_cache_dir(std::filesystem::absolute(name).string());
  reg.clear_memory_cache();
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

inline std::uint64_t counter(pygb::obs::Counter c) {
  return pygb::obs::counter_value(c);
}

/// Registry and fusion counters, read before and after a phase.
struct Counts {
  double lookups, fused, eager;
  static Counts now() {
    return {static_cast<double>(counter(pygb::obs::Counter::kRegistryLookups)),
            static_cast<double>(counter(pygb::obs::Counter::kFusionFusedStatements)),
            static_cast<double>(counter(pygb::obs::Counter::kFusionEagerOps))};
  }
  Counts operator-(const Counts& o) const {
    return {lookups - o.lookups, fused - o.fused, eager - o.eager};
  }
};

}  // namespace perfbench
