#include "layers.hpp"

#include <algorithm>

namespace perfbench {

FabricRules fabric_rules(const softcell::AggregationEngine& engine) {
  FabricRules out;
  for (const std::size_t n : engine.table_stats().fabric_sizes) {
    out.total += n;
    out.max = std::max(out.max, n);
  }
  return out;
}

std::pair<double, double> eighths(const std::vector<double>& us) {
  const std::size_t n = std::max<std::size_t>(us.size() / 8, 1);
  if (us.size() < n) return {0, 0};
  const auto cut = static_cast<std::ptrdiff_t>(n);
  return {median({us.begin(), us.begin() + cut}),
          median({us.end() - cut, us.end()})};
}

void report_core_replay(const CoreReplay& r, Result& res) {
  const auto delta = [&](std::uint64_t softcell::AggPerf::*field) {
    return static_cast<double>(r.after.*field - r.before.*field);
  };
  const double installs = std::max(delta(&softcell::AggPerf::installs), 1.0);
  const double hits = delta(&softcell::AggPerf::memo_hits);
  const double lookups = hits + delta(&softcell::AggPerf::memo_misses);
  const auto [first, last] = eighths(r.install_us);
  const double keys =
      std::max(static_cast<double>(r.install_us.size()), 1.0);
  res.metric("core.install_us_first", first, "us");
  res.metric("core.install_us_last", last, "us");
  res.metric("agg.score_resolves_per_install",
             delta(&softcell::AggPerf::score_resolves) / installs, "count");
  res.metric("agg.hop_evals_per_install",
             delta(&softcell::AggPerf::hop_evals) / installs, "count");
  res.metric("agg.memo_hit_ratio", lookups > 0 ? hits / lookups : 0, "ratio");
  res.metric("core.rules_per_path",
             static_cast<double>(r.online.total) / keys, "rules");
  res.metric("core.tags_in_use", static_cast<double>(r.tags_in_use), "count");
  res.metric("core.recompact_rules", static_cast<double>(r.compact.total),
             "rules");
  res.metric("core.recompact_max_switch_rules",
             static_cast<double>(r.compact.max), "rules");
}

}  // namespace perfbench
