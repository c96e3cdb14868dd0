// Small helpers shared by the paper's solver implementations.  Each has
// a semantics contract another implementation mirrors (the CONGEST and
// centralized Theorem 7 paths must bucket weights identically), so there
// is exactly one definition.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "util/check.hpp"

namespace pg::core {

/// Theorem 7's weight-scale class index: the i with
/// w_min·2^i <= w < w_min·2^{i+1}.  The loop condition is phrased
/// divide-side — exactly equivalent for integers — so `low` never
/// multiplies past the int64 range whatever w is.
inline int weight_class(graph::Weight w_min, graph::Weight w) {
  PG_CHECK(w >= w_min && w_min > 0, "weight outside class range");
  int i = 0;
  graph::Weight low = w_min;
  while (low <= w / 2) {
    low *= 2;
    ++i;
  }
  return i;
}

}  // namespace pg::core
