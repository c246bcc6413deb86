#include "fig7_common.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <sstream>

#include "core/path.hpp"
#include "topo/routing.hpp"
#include "util/rng.hpp"

namespace softcell::bench {

namespace {

// One clause's instance-resolution recipe.
struct ClauseSpec {
  std::vector<std::uint32_t> types;      // distinct middlebox types, ordered
  std::vector<bool> use_core;            // kMixed: core vs pod per position
  std::vector<std::uint32_t> core_pick;  // which of the 2 core instances
  std::vector<NodeId> shared_instance;   // kSharedPerClause: fixed instance
};

ClauseSpec make_clause(const CellularTopology& topo, InstanceMode mode,
                       std::uint32_t length, Rng& rng) {
  ClauseSpec spec;
  const std::uint32_t ntypes = topo.num_middlebox_types();
  // Sample `length` distinct types (partial Fisher-Yates).
  std::vector<std::uint32_t> all(ntypes);
  for (std::uint32_t i = 0; i < ntypes; ++i) all[i] = i;
  for (std::uint32_t i = 0; i < length && i < ntypes; ++i) {
    const auto j = i + rng.next_below(ntypes - i);
    std::swap(all[i], all[j]);
    spec.types.push_back(all[i]);
  }
  for (std::size_t i = 0; i < spec.types.size(); ++i) {
    spec.use_core.push_back(mode == InstanceMode::kMixed
                                ? rng.next_bernoulli(0.5)
                                : false);
    spec.core_pick.push_back(
        static_cast<std::uint32_t>(rng.next_below(2)));
    const auto& insts = topo.instances_of_type(spec.types[i]);
    spec.shared_instance.push_back(
        topo.middleboxes()[insts[rng.next_below(insts.size())]].node);
  }
  return spec;
}

std::vector<NodeId> resolve_instances(const CellularTopology& topo,
                                      const ClauseSpec& spec,
                                      InstanceMode mode, std::uint32_t bs,
                                      Rng& path_rng) {
  std::vector<NodeId> out;
  out.reserve(spec.types.size());
  const std::uint32_t pod = topo.pod_of_bs(bs);
  for (std::size_t i = 0; i < spec.types.size(); ++i) {
    const std::uint32_t type = spec.types[i];
    switch (mode) {
      case InstanceMode::kSharedPerClause:
        out.push_back(spec.shared_instance[i]);
        break;
      case InstanceMode::kMixed:
        out.push_back(spec.use_core[i]
                          ? topo.core_instance(type, spec.core_pick[i]).node
                          : topo.pod_instance(type, pod).node);
        break;
      case InstanceMode::kPodLocal:
        out.push_back(topo.pod_instance(type, pod).node);
        break;
      case InstanceMode::kRandomPerPath: {
        const auto& insts = topo.instances_of_type(type);
        out.push_back(
            topo.middleboxes()[insts[path_rng.next_below(insts.size())]].node);
        break;
      }
    }
  }
  return out;
}

}  // namespace

Fig7Result run_fig7(const Fig7Params& params) {
  const auto start = std::chrono::steady_clock::now();
  CellularTopology topo({.k = params.k,
                         .seed = params.seed,
                         .core_stripe = params.stripe});
  RoutingOracle routes(topo.graph());
  EngineOptions eopts = params.engine;
  eopts.switch_capacity = params.capacity;
  AggregationEngine engine(topo.graph(), eopts);
  Rng rng(params.seed * 1315423911ull + 3);

  Fig7Result result;
  const std::uint32_t nbs = topo.num_base_stations();
  result.base_stations = nbs;

  // Clauses and their per-path draws come from the generator in clause-
  // major order whatever the arrival order, so both orders install the
  // same paths.  Only kRandomPerPath draws per path; its instance lists
  // are kept per (clause, bs).
  std::vector<ClauseSpec> specs;
  std::vector<std::vector<std::vector<NodeId>>> per_path;
  for (std::uint32_t c = 0; c < params.clauses; ++c) {
    specs.push_back(make_clause(topo, params.mode, params.length, rng));
    Rng path_rng = rng.split();
    if (params.mode != InstanceMode::kRandomPerPath) continue;
    auto& lists = per_path.emplace_back(nbs);
    for (std::uint32_t bs = 0; bs < nbs; ++bs)
      lists[bs] = resolve_instances(topo, specs[c], params.mode, bs, path_rng);
  }

  // Key q = clause * nbs + bs; the shuffled order is a seeded permutation.
  const std::uint64_t keys = std::uint64_t{params.clauses} * nbs;
  std::vector<std::uint32_t> shuffled;
  if (params.order == ArrivalOrder::kShuffled) {
    shuffled.resize(keys);
    std::iota(shuffled.begin(), shuffled.end(), 0u);
    Rng order_rng(params.seed * 0x9E3779B97F4A7C15ull + 11);
    for (std::size_t i = shuffled.size(); i > 1; --i)
      std::swap(shuffled[i - 1], shuffled[order_rng.next_below(i)]);
  }

  std::vector<std::optional<PolicyTag>> hints(params.clauses);
  std::vector<std::uint32_t> installed(params.clauses, 0);
  Rng unused_rng;
  for (std::uint64_t i = 0; i < keys; ++i) {
    const std::uint64_t q = shuffled.empty() ? i : shuffled[i];
    const auto c = static_cast<std::uint32_t>(q / nbs);
    const auto bs = static_cast<std::uint32_t>(q % nbs);
    const auto instances =
        per_path.empty()
            ? resolve_instances(topo, specs[c], params.mode, bs, unused_rng)
            : per_path[c][bs];
    const auto path = expand_policy_path(topo.graph(), routes,
                                         Direction::kDownlink,
                                         topo.access_switch(bs), instances,
                                         topo.gateway(), topo.internet());
    try {
      const auto r = engine.install(
          path, bs, topo.bs_prefix(bs), hints[c], /*pin=*/false,
          std::nullopt,
          params.clause_homes ? std::optional<std::uint64_t>(c)
                              : std::nullopt);
      hints[c] = r.tag;
      result.loop_splits += r.extra_tags;
      ++result.paths_installed;
      ++installed[c];
    } catch (const AggregationEngine::PathRejected&) {
      result.rejected = true;
      if (!params.stop_on_reject) throw;
      break;
    }
  }
  // Complete clauses: every base station's path installed.
  for (const std::uint32_t n : installed)
    if (n == nbs) ++result.clauses_admitted;

  const auto stats = engine.table_stats();
  for (auto v : stats.fabric_sizes) result.fabric_sizes.add_count(v);
  for (auto v : stats.access_sizes) result.access_sizes.add_count(v);
  result.type1 = stats.type1;
  result.type2 = stats.type2;
  result.type3 = stats.type3;
  result.tags_used = engine.tags_in_use();
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

std::string fig7_header() {
  std::ostringstream os;
  os << "label                      |   max | median |    p90 |  tags | "
        "type1/type2 | paths    | sec";
  return os.str();
}

std::string fig7_row(const std::string& label, const Fig7Result& r) {
  std::ostringstream os;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%-26s | %5.0f | %6.0f | %6.0f | %5zu | %5zu/%-5zu | %-8llu | "
                "%.1f",
                label.c_str(), r.fabric_sizes.max(), r.fabric_sizes.median(),
                r.fabric_sizes.percentile(90), r.tags_used, r.type1, r.type2,
                static_cast<unsigned long long>(r.paths_installed), r.seconds);
  os << buf;
  return os.str();
}

bool full_scale() {
  const char* v = std::getenv("SOFTCELL_FULL");
  return v != nullptr && v[0] == '1';
}

}  // namespace softcell::bench
