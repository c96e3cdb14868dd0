// Deterministic fault injection for the sweep runner.
//
// A FaultPlan maps grid coordinates to scripted failures so every
// recovery path in the resilient executor — failed-row capture, the
// per-cell watchdog, fork isolation, retry-with-backoff, journal resume —
// is property-testable without flaky timing tricks:
//
//   throw@12      cell 12 (global index) throws before its algorithm runs
//   stall@12      cell 12 spins in a cooperative infinite loop (a watchdog
//                 budget turns it into status=timeout; without one it
//                 hangs, which is exactly what the watchdog tests need)
//   abort@12      cell 12 calls std::abort() — only survivable under
//                 --isolate, where it costs one topology group
//   build@g3      topology group 3 (shard-global group index) fails to
//                 build, exercising the generator-failure containment path
//
// Network-level (adversarial CONGEST) directives configure a
// congest::FaultModel installed on every cell's simulator instead of
// scripting the runner itself:
//
//   drop=0.01     each delivered message is dropped i.i.d. with rate R
//   corrupt=0.001 each delivered message has one payload bit flipped
//   crash=1e-6    per-(node,round) crash-stop hazard rate
//   crash@7:12    node 7 crash-stops at the start of round 12 (schedule
//                 entry; repeatable)
//   net-seed=42   base seed for the per-cell fault streams (default 0)
//
// The per-cell model derives its seed from (net-seed, global cell index),
// so fault decisions are identical across thread counts, --spawn shard
// partitions, and --resume.
//
// Every runner directive takes an optional attempt bound `:k` (e.g. "abort@5:1"):
// the fault fires only on the first k attempts of a forked child — an
// --isolate group or a --spawn shard alike — so retry tests can crash a
// child once and succeed on the retry.  The parent hands attempt a's
// child `for_attempt(a)`, the plan with exhausted directives dropped.
// The plan is consulted by the runner itself (not the adapters), keyed by
// the *global* cell index, so plans stay stable across shard partitions
// and thread counts.
//
// Plans reach a production binary through the PG_FAULT_PLAN environment
// variable (the CI fault-injection smoke job uses this); library callers
// pass a FaultPlan through ExecOptions instead.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "congest/fault.hpp"

namespace pg::scenario {

enum class FaultAction { kNone, kThrow, kStall, kAbort, kBuildFail };

class FaultPlan {
 public:
  /// Parses the directive grammar above; throws PreconditionViolation on
  /// malformed input.  An empty string is the empty plan.
  static FaultPlan parse(std::string_view text);

  /// The process-wide plan from $PG_FAULT_PLAN, parsed once; nullptr when
  /// the variable is unset or empty.  A malformed plan throws on first
  /// use (loudly, instead of silently not injecting).
  static const FaultPlan* from_env();

  bool empty() const {
    return cells_.empty() && groups_.empty() && !has_net_faults();
  }

  /// The scripted action for a cell on a given retry attempt (0-based).
  FaultAction cell_action(std::uint64_t cell_index, int attempt) const;

  /// True iff the topology build of this group is scripted to fail.
  bool build_fails(std::uint64_t group_index, int attempt) const;

  /// The plan as a child on retry attempt `attempt` sees it on its own
  /// attempt 0: directives whose `:k` bound is used up are dropped.
  FaultPlan for_attempt(int attempt) const;

  /// True iff the plan configures network-level faults (drop/corrupt/crash).
  bool has_net_faults() const { return net_.enabled(); }

  /// The network fault model for one cell: the plan's rates and schedule
  /// with the seed mixed from (net-seed, global cell index), so decisions
  /// are invariant across threads, shard partitions, and resume.
  congest::FaultModel net_model(std::uint64_t cell_index) const;

  /// Canonical rendering of the network-fault configuration (empty when
  /// none) — stamped into journal headers so --resume refuses to mix runs
  /// with different adversaries.
  std::string net_canonical() const;

 private:
  struct Directive {
    FaultAction action = FaultAction::kNone;
    // Fires only while attempt < max_attempts (default: always).
    int max_attempts = std::numeric_limits<int>::max();
  };
  std::map<std::uint64_t, Directive> cells_;
  std::map<std::uint64_t, Directive> groups_;
  congest::FaultModel net_;
};

/// Executes a scripted cell fault (throw/stall/abort).  kStall polls the
/// thread's cancellation token so a watchdog can reclaim the cell.
void trigger_fault(FaultAction action, std::uint64_t cell_index);

}  // namespace pg::scenario
