// Tests for the batch runner and its serializers: grid expansion rules,
// error capture, and the determinism contract — a fixed sweep's CSV/JSON
// bytes are identical across repeated runs and across worker counts, and
// a pinned golden CSV guards the schema and the centralized cells' values.
#include <gtest/gtest.h>

#include <locale>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/report.hpp"
#include "scenario/runner.hpp"

namespace pg::scenario {
namespace {

SweepSpec small_spec(int threads) {
  SweepSpec spec;
  spec.scenarios = {"path", "gnp-sparse", "ba", "regular-4", "planted"};
  spec.algorithms = {"mvc", "matching", "mds", "gr-mvc"};
  spec.sizes = {12, 18};
  spec.powers = {1, 2, 3};
  spec.epsilons = {0.5};
  spec.seeds = {1, 2};
  spec.threads = threads;
  spec.exact_baseline_max_n = 20;
  return spec;
}

// ------------------------------------------------------------ expansion ---

TEST(ExpandGrid, SkipsInexpressiblePowersAndCollapsesUnusedEpsilon) {
  SweepSpec spec;
  spec.scenarios = {"path"};
  spec.algorithms = {"mvc", "matching", "mvc53"};
  spec.sizes = {8};
  spec.powers = {1, 2, 3};
  spec.epsilons = {0.25, 0.5};
  spec.seeds = {1};
  const auto cells = expand_grid(spec);
  // mvc: r=2 only, two epsilons -> 2 cells.  matching: r in {1,2,3}, no
  // epsilon -> 3 cells.  mvc53: r=2, no epsilon -> 1 cell.
  EXPECT_EQ(cells.size(), 6u);
  std::size_t mvc = 0, matching = 0, mvc53 = 0;
  for (const CellSpec& cell : cells) {
    if (cell.algorithm == "mvc") {
      ++mvc;
      EXPECT_EQ(cell.r, 2);
      EXPECT_TRUE(cell.epsilon_used);
    } else if (cell.algorithm == "matching") {
      ++matching;
      EXPECT_FALSE(cell.epsilon_used);
    } else {
      ++mvc53;
    }
  }
  EXPECT_EQ(mvc, 2u);
  EXPECT_EQ(matching, 3u);
  EXPECT_EQ(mvc53, 1u);
}

TEST(ExpandGrid, RejectsInvalidSpecs) {
  SweepSpec spec = small_spec(1);
  spec.algorithms = {"not-an-algorithm"};
  EXPECT_THROW(expand_grid(spec), PreconditionViolation);

  spec = small_spec(1);
  spec.epsilons = {1.5};
  EXPECT_THROW(expand_grid(spec), PreconditionViolation);

  spec = small_spec(1);
  spec.powers = {0};
  EXPECT_THROW(expand_grid(spec), PreconditionViolation);

  spec = small_spec(1);
  spec.sizes.clear();
  EXPECT_THROW(expand_grid(spec), PreconditionViolation);

  spec = small_spec(1);
  spec.threads = 0;
  EXPECT_THROW(expand_grid(spec), PreconditionViolation);
}

// ------------------------------------------------------------ execution ---

TEST(RunSweep, GridIsLargeEnoughAndAllCellsSucceed) {
  // The acceptance-bar sweep: >= 60 cells across >= 5 scenario families.
  const SweepResult result = run_sweep(small_spec(1));
  EXPECT_GE(result.cells.size(), 60u);
  for (const CellResult& cell : result.cells) {
    EXPECT_EQ(cell.status, CellStatus::kOk)
        << cell.spec.scenario << "/" << cell.spec.algorithm << ": "
        << cell.error;
    EXPECT_TRUE(cell.feasible)
        << cell.spec.scenario << "/" << cell.spec.algorithm;
    EXPECT_NE(cell.baseline, BaselineKind::kNone);
    EXPECT_GE(cell.ratio, 1.0 - 1e-9);
  }
}

TEST(RunSweep, CapturesScenarioFailuresAsCellErrors) {
  SweepSpec spec;
  spec.scenarios = {"barbell"};  // requires n >= 4
  spec.algorithms = {"matching"};
  spec.sizes = {2};
  spec.powers = {1};
  spec.seeds = {1};
  const SweepResult result = run_sweep(spec);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].status, CellStatus::kFailed);
  EXPECT_NE(result.cells[0].error.find("barbell"), std::string::npos);
}

TEST(RunCell, MatchesSweepCellByteForByte) {
  // A cell run in isolation reports exactly what the same cell reports
  // inside a sweep (simulator reuse must not leak state between cells).
  const SweepResult sweep = run_sweep(small_spec(1));
  for (std::size_t i : {std::size_t{0}, sweep.cells.size() / 2,
                        sweep.cells.size() - 1}) {
    const CellResult& in_sweep = sweep.cells[i];
    const CellResult alone =
        run_cell(in_sweep.spec, small_spec(1).exact_baseline_max_n);
    EXPECT_EQ(alone.solution_size, in_sweep.solution_size) << i;
    EXPECT_EQ(alone.rounds, in_sweep.rounds) << i;
    EXPECT_EQ(alone.messages, in_sweep.messages) << i;
    EXPECT_EQ(alone.baseline_size, in_sweep.baseline_size) << i;
  }
}

// ---------------------------------------------------------- determinism ---

TEST(SweepDeterminism, ByteStableAcrossRunsAndThreadCounts) {
  const SweepResult once = run_sweep(small_spec(1));
  const SweepResult again = run_sweep(small_spec(1));
  const SweepResult threaded = run_sweep(small_spec(8));

  const std::string csv = csv_string(once);
  EXPECT_EQ(csv, csv_string(again)) << "CSV differs between identical runs";
  EXPECT_EQ(csv, csv_string(threaded)) << "CSV differs across thread counts";

  const std::string json = json_string(once);
  EXPECT_EQ(json, json_string(again));
  EXPECT_EQ(json, json_string(threaded));
}

TEST(SweepDeterminism, GoldenCsvForCentralizedCells) {
  // gr-mvc is centralized and deterministic, so its rows are pinned in
  // full — schema drift or scenario/topology drift breaks this test and
  // must be a conscious decision (regenerate via:
  //   powergraph_cli sweep --scenarios path,ba --algorithms gr-mvc
  //     --sizes 12 --powers 2 --epsilons 0.5 --seeds 7 --csv -).
  // Re-pinned for PR 3: the schema gained the leading cell_index column
  // (the shard/merge key); the path/ba values themselves are unchanged.
  // Re-pinned for PR 5: the weighted sweep dimension added the weighting,
  // solution_weight, and ratio_weight columns ("-"/size/ratio-mirrors for
  // weight-blind algorithms like gr-mvc); every pre-existing value is
  // unchanged.
  SweepSpec spec;
  spec.scenarios = {"path", "ba"};
  spec.algorithms = {"gr-mvc"};
  spec.sizes = {12};
  spec.powers = {2};
  spec.epsilons = {0.5};
  spec.seeds = {7};
  spec.exact_baseline_max_n = 20;
  const std::string expected =
      "cell_index,scenario,algorithm,n,r,epsilon,weighting,seed,status,"
      "base_edges,comm_power,comm_edges,target_edges,solution_size,"
      "solution_weight,feasible,exact,rounds,messages,total_bits,baseline,"
      "baseline_size,ratio,weight_baseline,baseline_weight,ratio_weight,"
      "error\n"
      "0,path,gr-mvc,12,2,0.5,-,7,ok,11,1,11,21,8,8,1,0,0,0,0,exact,8,"
      "1.0000,exact,8,1.0000,\n"
      "1,ba,gr-mvc,12,2,0.5,-,7,ok,21,1,21,53,11,11,1,0,0,0,0,exact,10,"
      "1.1000,exact,10,1.1000,\n";
  EXPECT_EQ(csv_string(run_sweep(spec)), expected);
}

// Hand-built rows covering every opt-in column shape: certified yes (ok),
// no (unverified) and "-" (failed, timeout), an empty regime, unused
// epsilon/weighting, absent baselines, and error text that needs CSV
// sanitizing and JSON escaping.  wall_ms is fixed so --timing is pinned.
std::vector<CellResult> golden_rows() {
  std::vector<CellResult> rows(4);
  CellResult& ok = rows[0];
  ok.cell_index = 0;
  ok.spec = {"ba", "mwvc", 24, 2, 0.25, true, 3, "zipf", true};
  ok.base_edges = 44;
  ok.comm_power = 1;
  ok.comm_edges = 44;
  ok.target_edges = 150;
  ok.solution_size = 13;
  ok.solution_weight = 57;
  ok.feasible = true;
  ok.rounds = 31;
  ok.messages = 1234;
  ok.total_bits = 56789;
  ok.baseline = BaselineKind::kExact;
  ok.baseline_size = 12;
  ok.ratio = 13.0 / 12.0;
  ok.weight_baseline = BaselineKind::kExact;
  ok.baseline_weight = 50;
  ok.ratio_weight = 57.0 / 50.0;
  ok.msgs_dropped = 5;
  ok.msgs_corrupted = 2;
  ok.nodes_crashed = 1;
  ok.rounds_survived = 29;
  ok.wall_ms = 12.25;
  ok.regime = "powerlaw";
  ok.regime_alpha = 2.4567;

  CellResult& unverified = rows[1];
  unverified.cell_index = 1;
  unverified.spec = {"ba", "gr-mvc", 24, 2, 0.5, true, 3, "unit", false};
  unverified.status = CellStatus::kUnverified;
  unverified.error = "certify: ratio 1.5 exceeds, bound";
  unverified.base_edges = 44;
  unverified.target_edges = 150;
  unverified.solution_size = 18;
  unverified.solution_weight = 18;
  unverified.feasible = true;
  unverified.exact = true;
  unverified.baseline = BaselineKind::kGreedy;
  unverified.baseline_size = 12;
  unverified.ratio = 1.5;
  unverified.wall_ms = 3.5;
  unverified.regime = "bounded";

  CellResult& failed = rows[2];
  failed.cell_index = 2;
  failed.spec = {"geo-torus", "matching", 30, 1, 0.25, false, 4, "unit",
                 false};
  failed.status = CellStatus::kFailed;
  failed.error = "boom, \"quoted\"\nnext\tline\\";

  CellResult& timeout = rows[3];
  timeout.cell_index = 3;
  timeout.spec = {"geo-torus", "mwvc", 30, 2, 0.125, true, 4,
                  "degree-proportional", true};
  timeout.status = CellStatus::kTimeout;
  timeout.error = "cell budget 50 ms expired";
  timeout.base_edges = 60;
  timeout.rounds = 7;
  timeout.wall_ms = 50.0625;
  timeout.regime = "other";
  timeout.regime_alpha = 1.0;
  return rows;
}

/// Shard 1/2 of a 6-cell grid, so the stamp, the JSON spec's opt-in
/// flags and the allow-partial placeholders (cells 4 and 5) are pinned.
SweepSpec golden_shard_spec() {
  SweepSpec spec;
  spec.scenarios = {"ba", "geo-torus"};
  spec.algorithms = {"mwvc", "gr-mvc", "matching"};
  spec.sizes = {24};
  spec.powers = {2};
  spec.epsilons = {0.25};
  spec.seeds = {3};
  spec.shard_index = 1;
  spec.shard_count = 2;
  return spec;
}

TEST(ReportGolden, CsvWithEveryOptInGroup) {
  std::ostringstream out;
  CsvWriter writer(out, /*include_timing=*/true, /*certify=*/true,
                   /*faults=*/true, /*classify=*/true);
  writer.begin(golden_shard_spec(), 6);
  for (const CellResult& row : golden_rows()) writer.row(row);
  const std::string stamp = "# shard 1/2 cells 6 spec 87ca255e7995879d\n";
  const std::string body =
      "cell_index,scenario,algorithm,n,r,epsilon,weighting,seed,status,"
      "base_edges,comm_power,comm_edges,target_edges,solution_size,"
      "solution_weight,feasible,exact,rounds,messages,total_bits,"
      "baseline,baseline_size,ratio,weight_baseline,baseline_weight,"
      "ratio_weight,regime,regime_alpha,certified,msgs_dropped,"
      "msgs_corrupted,nodes_crashed,rounds_survived,wall_ms,error\n"
      "0,ba,mwvc,24,2,0.25,zipf,3,ok,44,1,44,150,13,57,1,0,31,1234,56789,"
      "exact,12,1.0833,exact,50,1.1400,powerlaw,2.457,yes,5,2,1,29,"
      "12.250,\n"
      "1,ba,gr-mvc,24,2,0.5,-,3,unverified,44,1,0,150,18,18,1,1,0,0,0,"
      "greedy,12,1.5000,none,0,-,bounded,0.000,no,0,0,0,0,3.500,certify: "
      "ratio 1.5 exceeds; bound\n"
      "2,geo-torus,matching,30,1,-,-,4,failed,0,1,0,0,0,0,0,0,0,0,0,none,"
      "0,-,none,0,-,-,-,-,0,0,0,0,0.000,boom; \"quoted\";next\tline\\\n"
      "3,geo-torus,mwvc,30,2,0.125,degree-proportional,4,timeout,60,1,0,"
      "0,0,0,0,0,7,0,0,none,0,-,none,0,-,other,1.000,-,0,0,0,0,50.062,"
      "cell budget 50 ms expired\n";
  EXPECT_EQ(out.str(), stamp + body);
  // The merger reads the opt-in groups off the header and renders the
  // placeholders for the cells no shard covered in the same shape.
  const std::string placeholders =
      "4,-,-,0,0,-,-,0,missing,0,1,0,0,0,0,0,0,0,0,0,none,0,-,none,0,-,-,"
      "-,-,0,0,0,0,0.000,no shard report covered this cell\n"
      "5,-,-,0,0,-,-,0,missing,0,1,0,0,0,0,0,0,0,0,0,none,0,-,none,0,-,-,"
      "-,-,0,0,0,0,0.000,no shard report covered this cell\n";
  EXPECT_EQ(merge_csv({out.str()}, /*allow_partial=*/true),
            body + placeholders);
}

TEST(ReportGolden, JsonWithEveryOptInGroup) {
  std::ostringstream out;
  JsonWriter writer(out, /*include_timing=*/true, /*certify=*/true,
                    /*faults=*/true, /*classify=*/true);
  writer.begin(golden_shard_spec(), 6);
  for (const CellResult& row : golden_rows()) writer.row(row);
  writer.end(/*peak_rss_mb=*/12.5);
  const std::string dims =
      "\"scenarios\": [\"ba\",\"geo-torus\"], \"algorithms\": [\"mwvc\","
      "\"gr-mvc\",\"matching\"], \"sizes\": [24], \"powers\": [2], "
      "\"epsilons\": [0.25], \"weightings\": [\"unit\"], \"seeds\": [3], "
      "\"exact_baseline_max_n\": 26";
  const std::string stamp =
      ", \"shard_index\": 1, \"shard_count\": 2, \"total_cells\": 6, "
      "\"timing\": true, \"certify\": true, \"faults\": true, "
      "\"classify\": true, \"spec_fingerprint\": \"87ca255e7995879d\"";
  const std::string rows =
      "    {\"cell_index\": 0, \"scenario\": \"ba\", \"algorithm\": "
      "\"mwvc\", \"n\": 24, \"r\": 2, \"epsilon\": 0.25, \"weighting\": "
      "\"zipf\", \"seed\": 3, \"status\": \"ok\", \"base_edges\": 44, "
      "\"comm_power\": 1, \"comm_edges\": 44, \"target_edges\": 150, "
      "\"solution_size\": 13, \"solution_weight\": 57, \"feasible\": "
      "true, \"exact\": false, \"rounds\": 31, \"messages\": 1234, "
      "\"total_bits\": 56789, \"baseline\": \"exact\", "
      "\"baseline_size\": 12, \"ratio\": 1.0833, \"weight_baseline\": "
      "\"exact\", \"baseline_weight\": 50, \"ratio_weight\": 1.1400, "
      "\"regime\": \"powerlaw\", \"regime_alpha\": 2.457, \"certified\": "
      "true, \"msgs_dropped\": 5, \"msgs_corrupted\": 2, "
      "\"nodes_crashed\": 1, \"rounds_survived\": 29, \"wall_ms\": "
      "12.250},\n"
      "    {\"cell_index\": 1, \"scenario\": \"ba\", \"algorithm\": "
      "\"gr-mvc\", \"n\": 24, \"r\": 2, \"epsilon\": 0.5, \"weighting\": "
      "null, \"seed\": 3, \"status\": \"unverified\", \"base_edges\": 44,"
      " \"comm_power\": 1, \"comm_edges\": 0, \"target_edges\": 150, "
      "\"solution_size\": 18, \"solution_weight\": 18, \"feasible\": "
      "true, \"exact\": true, \"rounds\": 0, \"messages\": 0, "
      "\"total_bits\": 0, \"baseline\": \"greedy\", \"baseline_size\": "
      "12, \"ratio\": 1.5000, \"weight_baseline\": \"none\", "
      "\"baseline_weight\": 0, \"ratio_weight\": null, \"regime\": "
      "\"bounded\", \"regime_alpha\": 0.000, \"certified\": false, "
      "\"msgs_dropped\": 0, \"msgs_corrupted\": 0, \"nodes_crashed\": 0, "
      "\"rounds_survived\": 0, \"wall_ms\": 3.500, \"error\": \"certify: "
      "ratio 1.5 exceeds, bound\"},\n"
      "    {\"cell_index\": 2, \"scenario\": \"geo-torus\", "
      "\"algorithm\": \"matching\", \"n\": 30, \"r\": 1, \"epsilon\": "
      "null, \"weighting\": null, \"seed\": 4, \"status\": \"failed\", "
      "\"base_edges\": 0, \"comm_power\": 1, \"comm_edges\": 0, "
      "\"target_edges\": 0, \"solution_size\": 0, \"solution_weight\": 0,"
      " \"feasible\": false, \"exact\": false, \"rounds\": 0, "
      "\"messages\": 0, \"total_bits\": 0, \"baseline\": \"none\", "
      "\"baseline_size\": 0, \"ratio\": null, \"weight_baseline\": "
      "\"none\", \"baseline_weight\": 0, \"ratio_weight\": null, "
      "\"regime\": null, \"regime_alpha\": null, \"certified\": null, "
      "\"msgs_dropped\": 0, \"msgs_corrupted\": 0, \"nodes_crashed\": 0, "
      "\"rounds_survived\": 0, \"wall_ms\": 0.000, \"error\": \"boom, "
      "\\\"quoted\\\"\\nnext\\tline\\\\\"},\n"
      "    {\"cell_index\": 3, \"scenario\": \"geo-torus\", "
      "\"algorithm\": \"mwvc\", \"n\": 30, \"r\": 2, \"epsilon\": 0.125, "
      "\"weighting\": \"degree-proportional\", \"seed\": 4, \"status\": "
      "\"timeout\", \"base_edges\": 60, \"comm_power\": 1, "
      "\"comm_edges\": 0, \"target_edges\": 0, \"solution_size\": 0, "
      "\"solution_weight\": 0, \"feasible\": false, \"exact\": false, "
      "\"rounds\": 7, \"messages\": 0, \"total_bits\": 0, \"baseline\": "
      "\"none\", \"baseline_size\": 0, \"ratio\": null, "
      "\"weight_baseline\": \"none\", \"baseline_weight\": 0, "
      "\"ratio_weight\": null, \"regime\": \"other\", \"regime_alpha\": "
      "1.000, \"certified\": null, \"msgs_dropped\": 0, "
      "\"msgs_corrupted\": 0, \"nodes_crashed\": 0, \"rounds_survived\": "
      "0, \"wall_ms\": 50.062, \"error\": \"cell budget 50 ms expired\"}";
  EXPECT_EQ(out.str(), "{\n  \"spec\": {" + dims + stamp +
                           "},\n  \"cells\": [\n" + rows +
                           "\n  ],\n  \"meta\": {\"peak_rss_mb\": 12.5}\n}\n");
  const std::string placeholders =
      "    {\"cell_index\": 4, \"scenario\": \"-\", \"algorithm\": \"-\","
      " \"n\": 0, \"r\": 0, \"epsilon\": null, \"weighting\": null, "
      "\"seed\": 0, \"status\": \"missing\", \"base_edges\": 0, "
      "\"comm_power\": 1, \"comm_edges\": 0, \"target_edges\": 0, "
      "\"solution_size\": 0, \"solution_weight\": 0, \"feasible\": false,"
      " \"exact\": false, \"rounds\": 0, \"messages\": 0, "
      "\"total_bits\": 0, \"baseline\": \"none\", \"baseline_size\": 0, "
      "\"ratio\": null, \"weight_baseline\": \"none\", "
      "\"baseline_weight\": 0, \"ratio_weight\": null, \"regime\": null, "
      "\"regime_alpha\": null, \"certified\": null, \"msgs_dropped\": 0, "
      "\"msgs_corrupted\": 0, \"nodes_crashed\": 0, \"rounds_survived\": "
      "0, \"wall_ms\": 0.000, \"error\": \"no shard report covered this "
      "cell\"},\n"
      "    {\"cell_index\": 5, \"scenario\": \"-\", \"algorithm\": \"-\","
      " \"n\": 0, \"r\": 0, \"epsilon\": null, \"weighting\": null, "
      "\"seed\": 0, \"status\": \"missing\", \"base_edges\": 0, "
      "\"comm_power\": 1, \"comm_edges\": 0, \"target_edges\": 0, "
      "\"solution_size\": 0, \"solution_weight\": 0, \"feasible\": false,"
      " \"exact\": false, \"rounds\": 0, \"messages\": 0, "
      "\"total_bits\": 0, \"baseline\": \"none\", \"baseline_size\": 0, "
      "\"ratio\": null, \"weight_baseline\": \"none\", "
      "\"baseline_weight\": 0, \"ratio_weight\": null, \"regime\": null, "
      "\"regime_alpha\": null, \"certified\": null, \"msgs_dropped\": 0, "
      "\"msgs_corrupted\": 0, \"nodes_crashed\": 0, \"rounds_survived\": "
      "0, \"wall_ms\": 0.000, \"error\": \"no shard report covered this "
      "cell\"}";
  EXPECT_EQ(merge_json({out.str()}, /*allow_partial=*/true),
            "{\n  \"spec\": {" + dims + "},\n  \"cells\": [\n" + rows +
                ",\n" + placeholders + "\n  ]\n}\n");
}

// A numpunct that mimics comma-decimal locales (de_DE and friends)
// without depending on any locale being installed on the host: ',' as
// the decimal point, '.' as a thousands separator applied every 3 digits.
class CommaNumpunct : public std::numpunct<char> {
 protected:
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

TEST(ReportLocale, BytesAreIndependentOfImbuedAndGlobalLocale) {
  // Regression: the writers used to stream integers through the target
  // stream's locale, so a grouping locale turned 1199 into "1.199" —
  // corrupting the CSV shape and the shard-merge byte-equality
  // guarantee.  n is chosen >= 1000 so grouping would bite, and the spec
  // is a shard so the stamp line's integers and fingerprint are covered.
  SweepSpec spec;
  spec.scenarios = {"path"};
  spec.algorithms = {"matching"};
  spec.sizes = {1200};
  spec.powers = {1};
  spec.seeds = {1};
  spec.shard_index = 1;
  spec.shard_count = 2;
  spec.exact_baseline_max_n = 0;
  const SweepResult result = run_sweep(spec);
  const std::string clean_csv = csv_string(result);
  const std::string clean_json = json_string(result);
  const std::string clean_fingerprint = spec_fingerprint(spec);
  ASSERT_NE(clean_csv.find("1200"), std::string::npos);

  const std::locale comma(std::locale::classic(), new CommaNumpunct);
  const std::locale previous = std::locale::global(comma);
  std::string poisoned_csv, poisoned_json, poisoned_fingerprint;
  try {
    // Both attack surfaces at once: an explicitly imbued target stream,
    // and the global locale every internally constructed stream inherits.
    std::ostringstream csv_out, json_out;
    csv_out.imbue(comma);
    json_out.imbue(comma);
    write_csv(csv_out, result);
    write_json(json_out, result);
    poisoned_csv = csv_out.str();
    poisoned_json = json_out.str();
    poisoned_fingerprint = spec_fingerprint(spec);
  } catch (...) {
    std::locale::global(previous);
    throw;
  }
  std::locale::global(previous);

  EXPECT_EQ(poisoned_csv, clean_csv);
  EXPECT_EQ(poisoned_json, clean_json);
  EXPECT_EQ(poisoned_fingerprint, clean_fingerprint);
}

// ------------------------------------------------------------- sharding ---

TEST(ShardPartition, CompleteDisjointAndGroupPreserving) {
  SweepSpec spec = small_spec(1);
  const auto cells = expand_grid(spec);
  for (int k : {1, 2, 3, 5, 8, 100}) {
    std::vector<int> owner(cells.size(), -1);
    for (int i = 1; i <= k; ++i) {
      spec.shard_index = i;
      spec.shard_count = k;
      for (std::size_t cell : shard_cell_indices(spec)) {
        ASSERT_LT(cell, cells.size());
        EXPECT_EQ(owner[cell], -1)
            << "cell " << cell << " in shards " << owner[cell] << " and " << i;
        owner[cell] = i;
      }
    }
    for (std::size_t c = 0; c < cells.size(); ++c)
      EXPECT_NE(owner[c], -1) << "cell " << c << " unassigned for k=" << k;
    // Cells of one topology group never split across shards (the group
    // builds its graph once; splitting it would duplicate that work).
    for (std::size_t c = 1; c < cells.size(); ++c) {
      const CellSpec& a = cells[c - 1];
      const CellSpec& b = cells[c];
      if (a.scenario == b.scenario && a.n == b.n && a.seed == b.seed)
        EXPECT_EQ(owner[c - 1], owner[c]) << "group split at cell " << c;
    }
  }
}

TEST(ShardPartition, RejectsBadShardSpecs) {
  SweepSpec spec = small_spec(1);
  spec.shard_index = 0;
  spec.shard_count = 2;
  EXPECT_THROW(validate_spec(spec), PreconditionViolation);
  spec.shard_index = 3;
  EXPECT_THROW(validate_spec(spec), PreconditionViolation);
  spec.shard_index = 1;
  spec.shard_count = 0;
  EXPECT_THROW(validate_spec(spec), PreconditionViolation);
}

TEST(ShardMerge, TwoShardReportsMergeByteIdenticallyToSingleProcess) {
  const SweepSpec whole = small_spec(2);
  const std::string csv_whole = csv_string(run_sweep(whole));
  const std::string json_whole = json_string(run_sweep(whole));

  std::vector<std::string> csv_shards, json_shards;
  for (int i = 1; i <= 2; ++i) {
    SweepSpec shard = whole;
    shard.shard_index = i;
    shard.shard_count = 2;
    const SweepResult result = run_sweep(shard);
    EXPECT_LT(result.cells.size(), result.total_cells);
    csv_shards.push_back(csv_string(result));
    json_shards.push_back(json_string(result));
  }
  // Merge is order-insensitive in its inputs.
  EXPECT_EQ(merge_csv(csv_shards), csv_whole);
  EXPECT_EQ(merge_csv({csv_shards[1], csv_shards[0]}), csv_whole);
  EXPECT_EQ(merge_json(json_shards), json_whole);
  EXPECT_EQ(merge_json({json_shards[1], json_shards[0]}), json_whole);
}

TEST(ShardMerge, RejectsIncompleteOrMismatchedShardSets) {
  SweepSpec shard = small_spec(1);
  shard.shard_count = 2;
  shard.shard_index = 1;
  const std::string one = csv_string(run_sweep(shard));
  shard.shard_index = 2;
  const std::string two = csv_string(run_sweep(shard));

  EXPECT_THROW(merge_csv({}), PreconditionViolation);
  EXPECT_THROW(merge_csv({one}), PreconditionViolation);        // missing 2/2
  EXPECT_THROW(merge_csv({one, one}), PreconditionViolation);   // duplicate
  // A different sweep's shard must be refused by the fingerprint.
  SweepSpec other = small_spec(1);
  other.sizes = {12};
  other.shard_count = 2;
  other.shard_index = 2;
  EXPECT_THROW(merge_csv({one, csv_string(run_sweep(other))}),
               PreconditionViolation);
  // Single-process reports carry no shard stamp and must be refused.
  EXPECT_THROW(merge_csv({csv_string(run_sweep(small_spec(1)))}),
               PreconditionViolation);

  shard.shard_index = 1;
  const std::string json_one = json_string(run_sweep(shard));
  EXPECT_THROW(merge_json({json_one}), PreconditionViolation);
  EXPECT_THROW(merge_json({json_string(run_sweep(small_spec(1)))}),
               PreconditionViolation);
  // Shards written with different --timing settings have differently
  // shaped rows and must refuse to merge.
  shard.shard_index = 2;
  const std::string json_two_timed = json_string(run_sweep(shard), true);
  EXPECT_THROW(merge_json({json_one, json_two_timed}), PreconditionViolation);
}

// ------------------------------------------------------------ streaming ---

TEST(SweepStreaming, RowsArriveInGridOrderWithoutSolutionBitsets) {
  const SweepSpec spec = small_spec(4);
  std::vector<std::uint64_t> order;
  const SweepSummary summary =
      run_sweep_stream(spec, [&](const CellResult& row) {
        order.push_back(row.cell_index);
        // Sweep mode drops the n-bit solution sets; only sizes survive.
        EXPECT_EQ(row.solution.universe_size(), 0);
        EXPECT_GT(row.solution_size, 0u);
      });
  EXPECT_EQ(summary.cells, order.size());
  EXPECT_EQ(summary.total_cells, order.size());  // 1/1 shard = whole grid
  EXPECT_EQ(summary.failed, 0u);
  EXPECT_EQ(summary.timeout, 0u);
  EXPECT_EQ(summary.infeasible, 0u);
  for (std::size_t i = 0; i < order.size(); ++i)
    EXPECT_EQ(order[i], i) << "rows must stream in grid order";
}

}  // namespace
}  // namespace pg::scenario
