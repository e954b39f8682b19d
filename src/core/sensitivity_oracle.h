// Constant-time single-failure distance sensitivity oracle.
//
// The style of oracle the paper's related work builds over FT structures
// ([5,2]: "oracles for distances avoiding a failed vertex or link"): after
// O(n·m) preprocessing — one masked BFS per BFS-tree edge — answer
//
//     dist(s, v, G ∖ {e})   for any vertex v and any edge e, in O(1),
//
// using the observation that only tree edges on π(s,v) can change the
// distance, plus an Euler-tour ancestor test to detect that case. Space is
// O(Σ_v depth(v)) = O(n·D) words.
//
// This is the related-work alternative to the structure-backed engines
// (FaultQueryEngine over the sparse structure, which serve any fault set by
// BFS inside H): preprocessing is heavier, but per-(v,e) point queries are
// O(1), the classic time/space trade-off of the sensitivity-oracle line.
// OracleService does not mount it; examples/sensitivity_queries.cpp checks
// the service's single-fault answers against it.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "spath/bfs.h"
#include "spath/tree_index.h"
#include "spath/weights.h"

namespace ftbfs {

class SingleFaultOracle {
 public:
  // Preprocesses g for source s: builds the W-unique BFS tree and the
  // replacement-distance table.
  SingleFaultOracle(const Graph& g, Vertex s, std::uint64_t weight_seed = 1);

  // dist(s, v, G) (kInfHops if unreachable). O(1).
  [[nodiscard]] std::uint32_t distance(Vertex v) const;

  // dist(s, v, G ∖ {e}) for any edge e of g. O(1).
  [[nodiscard]] std::uint32_t distance_avoiding(Vertex v, EdgeId e) const;

  [[nodiscard]] Vertex source() const { return source_; }
  [[nodiscard]] const TreeIndex& tree() const { return tree_index_; }

  // Total table entries (space diagnostics).
  [[nodiscard]] std::uint64_t table_entries() const { return table_.size(); }

 private:
  const Graph* g_;
  Vertex source_;
  SpResult sssp_;
  TreeIndex tree_index_;
  // For each vertex v (reached, != s): row of depth(v) entries,
  // row[i] = dist(s, v, G ∖ {i-th edge of π(s,v)}). Flattened.
  std::vector<std::uint32_t> table_;
  std::vector<std::uint64_t> row_offset_;  // size n+1
};

}  // namespace ftbfs
