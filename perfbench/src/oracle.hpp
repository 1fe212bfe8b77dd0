// perfbench/src/oracle.hpp — the benchmark's independent reference
// implementations. Plain C++ over adjacency lists: nothing here includes
// or calls GBTL or pygb, so a fault in the library's kernels, dispatch or
// fusion cannot hide by being shared with the check.
//
//   bfs_levels      queue BFS; level = hop distance + 1 (source = 1), 0 when
//                   unreached — the DSL's `levels` convention (Fig. 2b)
//   sssp            Dijkstra with a binary heap; +inf when unreached
//   cc_labels       union-find; label = smallest vertex id in the component
//   triangles       sorted-adjacency intersection over the undirected
//                   simple graph
//   pagerank        a dense re-implementation of the Fig. 7 listing that
//                   tracks which vector entries exist (the Second
//                   accumulator keeps stale entries, the final fill ranks
//                   never-ranked vertices), run for exactly K iterations
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <numeric>
#include <queue>
#include <utility>
#include <vector>

namespace oracle {

struct Arc {
  std::uint32_t to;
  double w;
};

/// Directed weighted graph as out-adjacency lists.
struct Graph {
  std::uint32_t n = 0;
  std::vector<std::vector<Arc>> out;

  explicit Graph(std::uint32_t vertices = 0) : n(vertices), out(vertices) {}
  void add(std::uint32_t u, std::uint32_t v, double w = 1.0) {
    out[u].push_back({v, w});
  }
  std::size_t arcs() const {
    std::size_t m = 0;
    for (const auto& a : out) m += a.size();
    return m;
  }
};

/// BFS levels from `src` along out-arcs. Returns the deepest level (the
/// number of plies the DSL loop runs).
inline std::uint32_t bfs_levels(const Graph& g, std::uint32_t src,
                                std::vector<std::int64_t>& level) {
  level.assign(g.n, 0);
  std::deque<std::uint32_t> queue{src};
  level[src] = 1;
  std::int64_t deepest = 1;
  while (!queue.empty()) {
    const std::uint32_t u = queue.front();
    queue.pop_front();
    for (const Arc& a : g.out[u]) {
      if (level[a.to] == 0) {
        level[a.to] = level[u] + 1;
        deepest = std::max(deepest, level[a.to]);
        queue.push_back(a.to);
      }
    }
  }
  return static_cast<std::uint32_t>(deepest);
}

/// Dijkstra distances from `src` (non-negative weights).
inline std::vector<double> sssp(const Graph& g, std::uint32_t src) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(g.n, inf);
  using Item = std::pair<double, std::uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  dist[src] = 0.0;
  heap.push({0.0, src});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    for (const Arc& a : g.out[u]) {
      const double nd = d + a.w;
      if (nd < dist[a.to]) {
        dist[a.to] = nd;
        heap.push({nd, a.to});
      }
    }
  }
  return dist;
}

/// Component label of every vertex (arcs taken as undirected edges).
inline std::vector<std::int64_t> cc_labels(const Graph& g) {
  std::vector<std::uint32_t> parent(g.n);
  std::iota(parent.begin(), parent.end(), 0u);
  auto find = [&](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (std::uint32_t u = 0; u < g.n; ++u) {
    for (const Arc& a : g.out[u]) {
      const std::uint32_t ru = find(u);
      const std::uint32_t rv = find(a.to);
      // Union by smaller id: every root is its component's minimum.
      if (ru < rv) parent[rv] = ru;
      if (rv < ru) parent[ru] = rv;
    }
  }
  std::vector<std::int64_t> label(g.n);
  for (std::uint32_t v = 0; v < g.n; ++v) label[v] = find(v);
  return label;
}

/// Triangles of the undirected simple graph the arcs span (direction and
/// duplicates ignored, self loops dropped).
inline std::uint64_t triangles(const Graph& g) {
  // Orient every edge from the lower id to the higher id, sort, dedupe.
  std::vector<std::vector<std::uint32_t>> up(g.n);
  for (std::uint32_t u = 0; u < g.n; ++u) {
    for (const Arc& a : g.out[u]) {
      if (a.to == u) continue;
      up[std::min(u, a.to)].push_back(std::max(u, a.to));
    }
  }
  for (auto& row : up) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  std::uint64_t count = 0;
  for (std::uint32_t u = 0; u < g.n; ++u) {
    for (std::uint32_t v : up[u]) {
      // Common higher neighbours of u and v close a triangle u < v < w.
      const auto& a = up[u];
      const auto& b = up[v];
      std::size_t i = 0, j = 0;
      while (i < a.size() && j < b.size()) {
        if (a[i] < b[j]) {
          ++i;
        } else if (b[j] < a[i]) {
          ++j;
        } else {
          ++count;
          ++i;
          ++j;
        }
      }
    }
  }
  return count;
}

/// Fig. 7 PageRank for exactly `iters` iterations. Out-arc weights are
/// row-normalised and scaled by `damping` (arcs are assumed distinct).
/// Vectors carry presence flags, because the listing's sparse semantics
/// decide which entries survive each step.
inline std::vector<double> pagerank(const Graph& g, double damping,
                                    unsigned iters) {
  const std::uint32_t n = g.n;
  const double teleport = (1.0 - damping) / n;
  std::vector<double> row_sum(n, 0.0);
  for (std::uint32_t u = 0; u < n; ++u) {
    for (const Arc& a : g.out[u]) row_sum[u] += a.w;
  }

  std::vector<double> rank(n, 1.0 / n), fresh(n, 0.0), t(n, 0.0);
  std::vector<char> rank_has(n, 1), fresh_has(n, 0), t_has(n, 0);
  for (unsigned it = 0; it < iters; ++it) {
    // new_rank[None] += page_rank @ m, under Accumulator("Second").
    std::fill(t.begin(), t.end(), 0.0);
    std::fill(t_has.begin(), t_has.end(), 0);
    for (std::uint32_t u = 0; u < n; ++u) {
      if (!rank_has[u]) continue;
      for (const Arc& a : g.out[u]) {
        t[a.to] += rank[u] * ((a.w / row_sum[u]) * damping);
        t_has[a.to] = 1;
      }
    }
    for (std::uint32_t v = 0; v < n; ++v) {
      if (t_has[v]) {
        fresh[v] = t[v];
        fresh_has[v] = 1;
      }
    }
    // new_rank[None] = apply(new_rank) under UnaryOp("Plus", teleport).
    for (std::uint32_t v = 0; v < n; ++v) {
      if (fresh_has[v]) fresh[v] += teleport;
    }
    // The squared-error delta decides nothing with threshold 0.
    // page_rank[:] = new_rank replaces page_rank's structure.
    rank = fresh;
    rank_has = fresh_has;
  }
  // new_rank[:] = teleport; page_rank[~page_rank] = page_rank + new_rank.
  for (std::uint32_t v = 0; v < n; ++v) {
    if (!rank_has[v]) rank[v] = teleport;
  }
  return rank;
}

}  // namespace oracle
