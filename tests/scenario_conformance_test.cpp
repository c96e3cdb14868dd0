// Oracle-backed conformance suite: one parameterized test sweeps every
// registered algorithm over small instances (n <= 24, several scenarios
// and seeds, r in {1,2,3} where the algorithm can express the power) and
// checks, against the exact solvers in src/solvers:
//   * feasibility of the output on the materialized G^r, and
//   * the algorithm's published approximation guarantee
//     (mvc/mvc-rand/gr-mvc/clique-mvc: 1 + 1/ceil(1/eps); mvc53: 5/3;
//     mwvc/gr-mwvc under the default unit weighting: 1 + 1/ceil(1/eps);
//     matching: 2; naive-*: exactly optimal; mds: a generous O(log Delta)
//     cap).  The weighted (non-unit) conformance suite is
//     scenario_weighted_test.cpp.
// New algorithms join the sweep automatically via the registry.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "scenario/algorithms.hpp"
#include "scenario/runner.hpp"

namespace pg::scenario {
namespace {

struct ConformanceCase {
  CellSpec cell;
  double ratio_bound = 0.0;  // 0 = no ratio assertion (feasibility only)
};

/// The registry's published bound, so the suite holds every algorithm to
/// the constant --certify enforces.  These cells run the weighted
/// algorithms with the default unit weighting (the weighted bounds against
/// exact weighted optima live in scenario_weighted_test.cpp).  Under unit
/// weights both reach (1+eps): mwvc's leader solves exactly at these
/// sizes, and gr-mwvc's class condition degenerates to gr-mvc's ball
/// condition with an exact remainder.  Feasibility-only algorithms (mds:
/// O(log Delta)) get a generous cap for n <= 24.
double ratio_bound_for(const Algorithm& alg, double epsilon) {
  const double published = published_ratio_bound(alg, epsilon);
  return published > 0.0 ? published : 12.0;
}

TEST(RatioBounds, PinnedForEveryVisibleAlgorithm) {
  // name -> bound at eps = 0.5 and at eps = 0.3 (rounded to 1/4).
  const std::vector<std::tuple<std::string, double, double>> expected = {
      {"clique-mvc", 1.5, 1.25}, {"gr-mvc", 1.5, 1.25},
      {"gr-mwvc", 1.5, 1.25},    {"matching", 2.0, 2.0},
      {"mds", 0.0, 0.0},         {"mvc", 1.5, 1.25},
      {"mvc-rand", 1.5, 1.25},   {"mvc53", 5.0 / 3.0, 5.0 / 3.0},
      {"mwvc", 1.5, 1.25},       {"naive-mds", 1.0, 1.0},
      {"naive-mvc", 1.0, 1.0}};
  std::vector<std::string> names;
  for (const auto& [name, at_half, at_03] : expected) {
    names.push_back(name);
    const Algorithm& alg = algorithm_or_throw(name);
    EXPECT_DOUBLE_EQ(published_ratio_bound(alg, 0.5), at_half) << name;
    EXPECT_DOUBLE_EQ(published_ratio_bound(alg, 0.3), at_03) << name;
  }
  EXPECT_EQ(names, algorithm_names()) << "a visible algorithm lacks a pin";
}

std::vector<ConformanceCase> make_cases() {
  const double epsilon = 0.5;
  std::vector<ConformanceCase> cases;
  for (const Algorithm& alg : all_algorithms()) {
    if (alg.hidden) continue;  // fault-injection adapters crash by design
    for (int r : {1, 2, 3}) {
      if (!supports_power(alg, r)) continue;
      for (const char* scenario : {"gnp-sparse", "ba", "geo-torus"})
        for (graph::VertexId n : {8, 14, 20})
          for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
            ConformanceCase c;
            c.cell.scenario = scenario;
            c.cell.algorithm = alg.name;
            c.cell.n = n;
            c.cell.r = r;
            c.cell.epsilon = alg.uses_epsilon ? epsilon : 0.0;
            c.cell.epsilon_used = alg.uses_epsilon;
            c.cell.seed = seed;
            c.ratio_bound = ratio_bound_for(alg, epsilon);
            cases.push_back(c);
          }
    }
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<ConformanceCase>& info) {
  const CellSpec& cell = info.param.cell;
  std::string name = cell.algorithm + "_" + cell.scenario + "_n" +
                     std::to_string(cell.n) + "_r" + std::to_string(cell.r) +
                     "_s" + std::to_string(cell.seed);
  for (char& c : name)
    if (c == '-') c = '_';
  return name;
}

class ScenarioConformance
    : public ::testing::TestWithParam<ConformanceCase> {};

TEST_P(ScenarioConformance, FeasibleAndWithinGuarantee) {
  const ConformanceCase& test_case = GetParam();
  // n <= 24 throughout, so the runner always reaches the exact oracle.
  const CellResult result = run_cell(test_case.cell, /*exact_max_n=*/24);

  ASSERT_EQ(result.status, CellStatus::kOk) << result.error;
  EXPECT_TRUE(result.feasible)
      << test_case.cell.algorithm << " produced an infeasible solution";
  ASSERT_EQ(result.baseline, BaselineKind::kExact)
      << "exact oracle unavailable at n <= 24";
  // The oracle is a valid solution too, so no algorithm can beat it.
  EXPECT_GE(result.solution_size, result.baseline_size);
  if (test_case.ratio_bound > 0.0) {
    EXPECT_LE(static_cast<double>(result.solution_size),
              test_case.ratio_bound *
                      static_cast<double>(result.baseline_size) +
                  1e-9)
        << "approximation guarantee violated (oracle "
        << result.baseline_size << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ScenarioConformance,
                         ::testing::ValuesIn(make_cases()), case_name);

}  // namespace
}  // namespace pg::scenario
