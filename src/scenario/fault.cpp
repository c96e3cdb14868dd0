#include "scenario/fault.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "util/cancel.hpp"
#include "util/check.hpp"

namespace pg::scenario {

namespace {

std::uint64_t parse_index(std::string_view text, std::string_view directive) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  PG_REQUIRE(ec == std::errc{} && ptr == text.data() + text.size() &&
                 !text.empty(),
             "fault plan: bad index in directive '" + std::string(directive) +
                 "'");
  return value;
}

double parse_rate(std::string_view text, std::string_view directive) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  PG_REQUIRE(ec == std::errc{} && ptr == text.data() + text.size() &&
                 !text.empty(),
             "fault plan: bad rate in directive '" + std::string(directive) +
                 "'");
  PG_REQUIRE(value >= 0.0 && value <= 1.0,
             "fault plan: rate outside [0, 1] in directive '" +
                 std::string(directive) + "'");
  return value;
}

}  // namespace

FaultPlan FaultPlan::parse(std::string_view text) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    std::string_view item = text.substr(
        pos, comma == std::string_view::npos ? text.size() - pos
                                             : comma - pos);
    pos = comma == std::string_view::npos ? text.size() + 1 : comma + 1;
    if (item.empty()) continue;

    // KEY=VALUE settings configure the network fault model.
    const std::size_t at = item.find('@');
    const std::size_t eq = item.find('=');
    if (eq != std::string_view::npos && at == std::string_view::npos) {
      const std::string_view key = item.substr(0, eq);
      const std::string_view value = item.substr(eq + 1);
      if (key == "net-seed") {
        plan.net_.seed = parse_index(value, item);
      } else if (key == "drop") {
        plan.net_.drop_rate = parse_rate(value, item);
      } else if (key == "corrupt") {
        plan.net_.corrupt_rate = parse_rate(value, item);
      } else if (key == "crash") {
        plan.net_.crash_rate = parse_rate(value, item);
      } else {
        PG_REQUIRE(false, "fault plan: unknown setting '" + std::string(key) +
                              "' (valid: drop, corrupt, crash, net-seed)");
      }
      continue;
    }

    PG_REQUIRE(at != std::string_view::npos,
               "fault plan: directive '" + std::string(item) +
                   "' lacks '@' (expected ACTION@INDEX[:ATTEMPTS])");
    const std::string_view action_name = item.substr(0, at);
    std::string_view target = item.substr(at + 1);

    // crash@NODE:ROUND is a crash-stop schedule entry (the colon is a
    // round, not an attempt bound), so it is handled before the generic
    // runner-directive path.
    if (action_name == "crash") {
      const std::size_t colon = target.find(':');
      PG_REQUIRE(colon != std::string_view::npos,
                 "fault plan: crash directives need a round, e.g. "
                 "'crash@7:12' (got '" +
                     std::string(item) + "')");
      const std::uint64_t node = parse_index(target.substr(0, colon), item);
      PG_REQUIRE(node <= 0x7fffffffull,
                 "fault plan: node id out of range in '" + std::string(item) +
                     "'");
      congest::CrashEvent ev;
      ev.node = static_cast<graph::VertexId>(node);
      ev.round = static_cast<std::int64_t>(
          parse_index(target.substr(colon + 1), item));
      plan.net_.crash_schedule.push_back(ev);
      continue;
    }

    Directive d;
    const std::size_t colon = target.find(':');
    if (colon != std::string_view::npos) {
      const std::uint64_t k =
          parse_index(target.substr(colon + 1), item);
      PG_REQUIRE(k >= 1 && k <= 1'000'000,
                 "fault plan: attempt bound out of range in '" +
                     std::string(item) + "'");
      d.max_attempts = static_cast<int>(k);
      target = target.substr(0, colon);
    }

    if (action_name == "build") {
      PG_REQUIRE(!target.empty() && target[0] == 'g',
                 "fault plan: build directives target groups, e.g. "
                 "'build@g3' (got '" +
                     std::string(item) + "')");
      d.action = FaultAction::kBuildFail;
      plan.groups_[parse_index(target.substr(1), item)] = d;
      continue;
    }

    if (action_name == "throw") d.action = FaultAction::kThrow;
    else if (action_name == "stall") d.action = FaultAction::kStall;
    else if (action_name == "abort") d.action = FaultAction::kAbort;
    else
      PG_REQUIRE(false, "fault plan: unknown action '" +
                            std::string(action_name) +
                            "' (valid: throw, stall, abort, build)");
    plan.cells_[parse_index(target, item)] = d;
  }
  return plan;
}

const FaultPlan* FaultPlan::from_env() {
  static const FaultPlan* plan = []() -> const FaultPlan* {
    const char* text = std::getenv("PG_FAULT_PLAN");
    if (text == nullptr || text[0] == '\0') return nullptr;
    static FaultPlan parsed = FaultPlan::parse(text);
    return parsed.empty() ? nullptr : &parsed;
  }();
  return plan;
}

FaultAction FaultPlan::cell_action(std::uint64_t cell_index,
                                   int attempt) const {
  const auto it = cells_.find(cell_index);
  if (it == cells_.end() || attempt >= it->second.max_attempts)
    return FaultAction::kNone;
  return it->second.action;
}

bool FaultPlan::build_fails(std::uint64_t group_index, int attempt) const {
  const auto it = groups_.find(group_index);
  return it != groups_.end() && attempt < it->second.max_attempts;
}

FaultPlan FaultPlan::for_attempt(int attempt) const {
  FaultPlan plan = *this;
  const auto used_up = [attempt](const auto& entry) {
    return attempt >= entry.second.max_attempts;
  };
  std::erase_if(plan.cells_, used_up);
  std::erase_if(plan.groups_, used_up);
  return plan;
}

congest::FaultModel FaultPlan::net_model(std::uint64_t cell_index) const {
  congest::FaultModel model = net_;
  model.seed = congest::fault_mix(
      net_.seed ^ congest::fault_mix(cell_index ^ 0x9e3779b97f4a7c15ull));
  return model;
}

std::string FaultPlan::net_canonical() const {
  if (!net_.enabled()) return {};
  std::string out;
  char buf[64];
  const auto rate = [&](const char* key, double r) {
    if (r <= 0) return;
    std::snprintf(buf, sizeof buf, "%s=%.17g,", key, r);
    out += buf;
  };
  rate("drop", net_.drop_rate);
  rate("corrupt", net_.corrupt_rate);
  rate("crash", net_.crash_rate);
  auto schedule = net_.crash_schedule;
  std::sort(schedule.begin(), schedule.end(),
            [](const congest::CrashEvent& a, const congest::CrashEvent& b) {
              return a.round != b.round ? a.round < b.round : a.node < b.node;
            });
  for (const congest::CrashEvent& ev : schedule)
    out += "crash@" + std::to_string(ev.node) + ":" +
           std::to_string(ev.round) + ",";
  out += "net-seed=" + std::to_string(net_.seed);
  return out;
}

void trigger_fault(FaultAction action, std::uint64_t cell_index) {
  switch (action) {
    case FaultAction::kNone:
    case FaultAction::kBuildFail:
      return;
    case FaultAction::kThrow:
      throw std::runtime_error("injected fault: throw@" +
                               std::to_string(cell_index));
    case FaultAction::kStall:
      // A cooperative infinite loop: the cell never finishes on its own,
      // but a watchdog token turns it into a clean timeout.  The sleep
      // keeps a stalled worker from burning a core while the monitor
      // decides.
      for (;;) {
        cancel::poll();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    case FaultAction::kAbort:
      std::abort();
  }
}

}  // namespace pg::scenario
