// Per-layer figures both workloads read the same way from the program's
// public API: fabric table sizes, and the core controller's install
// replay (Algorithm 1 times and AggPerf counters, online and after
// recompact()).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/engine.hpp"

namespace perfbench {

// Rules in the fabric (aggregation, core, gateway) switch tables.
struct FabricRules {
  std::size_t total = 0;
  std::size_t max = 0;  // the fullest switch
};
[[nodiscard]] FabricRules fabric_rules(
    const softcell::AggregationEngine& engine);

// Medians of per-install times over the first and the last eighth.
[[nodiscard]] std::pair<double, double> eighths(const std::vector<double>& us);

// Keys installed one by one on a core controller, in arrival order.
struct CoreReplay {
  std::vector<double> install_us;
  softcell::AggPerf before, after;
  FabricRules online, compact;  // before and after recompact()
  std::size_t tags_in_use = 0;  // online
};
// Adds core.install_us_*, agg.*, core.rules_per_path, core.tags_in_use
// and core.recompact_*.
void report_core_replay(const CoreReplay& replay, Result& result);

}  // namespace perfbench
