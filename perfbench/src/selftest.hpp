// perfbench/src/selftest.hpp — the oracle checked on graphs whose answers
// are known in closed form: path, ring, star, K_n (triangles = C(n,3)),
// two components, and a one-way star whose PageRank exercises the stale
// entries the Second accumulator keeps. Runs at the start of every
// benchmark run and on its own with `perfbench --selftest`.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "oracle.hpp"

namespace perfbench {

namespace selftest_detail {

inline oracle::Graph undirected(std::uint32_t n,
                                const std::vector<std::pair<int, int>>& e) {
  oracle::Graph g(n);
  for (auto [u, v] : e) {
    g.add(static_cast<std::uint32_t>(u), static_cast<std::uint32_t>(v));
    g.add(static_cast<std::uint32_t>(v), static_cast<std::uint32_t>(u));
  }
  return g;
}

inline oracle::Graph path(std::uint32_t n) {
  std::vector<std::pair<int, int>> e;
  for (std::uint32_t i = 0; i + 1 < n; ++i) e.push_back({int(i), int(i + 1)});
  return undirected(n, e);
}

inline oracle::Graph ring(std::uint32_t n) {
  std::vector<std::pair<int, int>> e;
  for (std::uint32_t i = 0; i < n; ++i) e.push_back({int(i), int((i + 1) % n)});
  return undirected(n, e);
}

inline oracle::Graph star(std::uint32_t n) {
  std::vector<std::pair<int, int>> e;
  for (std::uint32_t i = 1; i < n; ++i) e.push_back({0, int(i)});
  return undirected(n, e);
}

inline oracle::Graph complete(std::uint32_t n) {
  std::vector<std::pair<int, int>> e;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) e.push_back({int(i), int(j)});
  }
  return undirected(n, e);
}

}  // namespace selftest_detail

/// Returns the number of failed checks; each failure is named on stderr.
inline int oracle_selftest() {
  using namespace selftest_detail;
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "oracle selftest FAILED: %s\n", what);
    }
  };
  std::vector<std::int64_t> lv;

  // Path P_7: levels 1..7 from one end, distances 0..6, one component.
  {
    const auto g = path(7);
    expect(oracle::bfs_levels(g, 0, lv) == 7, "path depth");
    bool ok = true;
    for (int i = 0; i < 7; ++i) ok = ok && lv[i] == i + 1;
    expect(ok, "path levels");
    const auto d = oracle::sssp(g, 0);
    ok = true;
    for (int i = 0; i < 7; ++i) ok = ok && d[i] == i;
    expect(ok, "path distances");
    expect(oracle::cc_labels(g) == std::vector<std::int64_t>(7, 0), "path cc");
    expect(oracle::triangles(g) == 0, "path triangles");
  }
  // Ring C_8: level of i is min(i, 8 - i) + 1; C_3 is one triangle.
  {
    const auto g = ring(8);
    expect(oracle::bfs_levels(g, 0, lv) == 5, "ring depth");
    bool ok = true;
    for (int i = 0; i < 8; ++i) ok = ok && lv[i] == std::min(i, 8 - i) + 1;
    expect(ok, "ring levels");
    expect(oracle::triangles(g) == 0, "ring triangles");
    expect(oracle::triangles(ring(3)) == 1, "C_3 triangles");
    // A regular graph keeps the uniform rank: 0.85/n + 0.15/n per vertex.
    const auto r = oracle::pagerank(g, 0.85, 30);
    ok = true;
    for (double x : r) ok = ok && std::fabs(x - 1.0 / 8) < 1e-15;
    expect(ok, "ring pagerank uniform");
  }
  // Star S_7 from a leaf: leaf 1, hub 2, other leaves 3; no triangles.
  {
    const auto g = star(7);
    expect(oracle::bfs_levels(g, 3, lv) == 3, "star depth");
    bool ok = lv[3] == 1 && lv[0] == 2;
    for (int i = 1; i < 7; ++i) ok = ok && (i == 3 || lv[i] == 3);
    expect(ok, "star levels");
    expect(oracle::triangles(g) == 0, "star triangles");
    const auto lab = oracle::cc_labels(g);
    ok = true;
    for (auto l : lab) ok = ok && l == 0;
    expect(ok, "star labels");
  }
  // K_n: C(n, 3) triangles, every vertex at level 2 from any source.
  for (std::uint32_t n : {4u, 6u, 9u}) {
    const auto g = complete(n);
    const std::uint64_t want =
        static_cast<std::uint64_t>(n) * (n - 1) * (n - 2) / 6;
    expect(oracle::triangles(g) == want, "K_n triangles");
    expect(oracle::bfs_levels(g, 1, lv) == 2, "K_n depth");
  }
  // Two components (a path 0-1-2 and a ring 3-4-5) plus an isolated 6:
  // labels are each component's smallest id; unreachable stays 0 / inf.
  {
    const auto g = undirected(7, {{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 3}});
    const auto lab = oracle::cc_labels(g);
    expect(lab == std::vector<std::int64_t>({0, 0, 0, 3, 3, 3, 6}), "cc labels");
    expect(oracle::bfs_levels(g, 0, lv) == 3 && lv[3] == 0 && lv[6] == 0,
           "bfs unreached");
    const auto d = oracle::sssp(g, 3);
    expect(std::isinf(d[0]) && d[4] == 1 && d[5] == 1, "sssp unreached");
    expect(oracle::triangles(g) == 1, "component triangle");
  }
  // Weighted: the two-hop route (2 + 3) beats the direct arc (10).
  {
    oracle::Graph g(3);
    g.add(0, 1, 2.0);
    g.add(1, 2, 3.0);
    g.add(0, 2, 10.0);
    expect(oracle::sssp(g, 0)[2] == 5.0, "dijkstra relaxation");
  }
  // One-way star (hub 0 -> leaves): the hub has no in-arcs, so after the
  // first iteration it drops out of page_rank; leaves keep their stale
  // entry under the Second accumulator and gain the teleport term each
  // iteration; the final fill gives the hub the bare teleport.
  {
    const std::uint32_t n = 5;
    const unsigned k = 4;
    oracle::Graph g(n);
    for (std::uint32_t i = 1; i < n; ++i) g.add(0, i);
    const auto r = oracle::pagerank(g, 0.85, k);
    const double tp = 0.15 / n;
    const double leaf = (1.0 / n) * (0.85 / (n - 1)) + k * tp;
    bool ok = std::fabs(r[0] - tp) < 1e-15;
    for (std::uint32_t i = 1; i < n; ++i) ok = ok && std::fabs(r[i] - leaf) < 1e-15;
    expect(ok, "one-way star pagerank");
  }
  return failures;
}

}  // namespace perfbench
