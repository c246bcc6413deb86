// Algorithm-1 fast path -- indexed candidates + memoized scoring vs. the
// pre-fast-path reference scan, on the same binary and the same workload.
//
// Methodology: a Fig.7-style downlink workload (n clauses, a fixed slice of
// base stations, shared-per-clause instances) is installed twice through
// two freshly built engines that differ only in EngineOptions::fastpath.
// Installs run WITHOUT a clause hint: each one performs the full candTag
// search of Algorithm 1 Step 1 (MRU seeds plus the per-switch tag scan),
// which is the code path this fast path indexes and memoizes.  The hinted
// shortcut, where the controller pins the previous base station's tag, is
// measured separately by bench_fig7.
// Both runs must produce identical per-install tags, identical network-wide
// rule counts and identical tag usage -- the bench aborts otherwise (the
// randomized differential test in tests/test_engine_fastpath.cpp pins the
// same property per install).  Reported per mode: installs/s, rules scanned
// per install (full resolve/aggregate probes), and the fast-path counters
// (candidate scans, memo hits/misses, presence/bound skips, scratch
// reuses).  Results land in BENCH_agg.json (or argv[1]).
//
// SOFTCELL_SMOKE=1 shrinks the sweep to seconds (ctest -L perf);
// SOFTCELL_FULL=1 runs the paper-scale clause counts only.
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/path.hpp"
#include "fig7_common.hpp"
#include "telemetry/export.hpp"
#include "topo/routing.hpp"
#include "util/rng.hpp"

using namespace softcell;
using softcell::bench::full_scale;

namespace {

struct ModeResult {
  double seconds = 0;
  std::uint64_t installs = 0;
  std::uint64_t tag_checksum = 0;  // order-sensitive hash of chosen tags
  std::size_t total_rules = 0;
  std::size_t tags_in_use = 0;
  AggPerf perf;

  [[nodiscard]] double installs_per_s() const {
    return seconds > 0 ? static_cast<double>(installs) / seconds : 0.0;
  }
  [[nodiscard]] double scanned_per_install() const {
    return installs > 0 ? static_cast<double>(perf.score_resolves) /
                              static_cast<double>(installs)
                        : 0.0;
  }
};

// Installs the same pseudo-random workload (seeded identically per call)
// through a fresh engine and reports the hot-path counters.
ModeResult run_mode(const CellularTopology& topo, const RoutingOracle& routes,
                    std::uint32_t clauses, std::uint32_t bs_count,
                    bool fastpath) {
  EngineOptions eopts;
  eopts.max_candidates = 32;
  eopts.track_paths = false;
  eopts.fastpath = fastpath;
  AggregationEngine engine(topo.graph(), eopts);

  Rng rng(clauses * 1315423911ull + 17);
  ModeResult out;
  std::chrono::steady_clock::duration installing{};
  std::vector<NodeId> instances;
  constexpr std::uint32_t kBatch = 64;  // expand/install in batches
  std::vector<ExpandedPath> paths;
  std::vector<std::uint32_t> stations;
  for (std::uint32_t c0 = 0; c0 < clauses; c0 += kBatch) {
    const std::uint32_t batch = std::min(kBatch, clauses - c0);
    // Each clause lands on one base station with its own middlebox chain
    // (UE-specific service chaining): no candidate tag covers the install
    // for free, so every install runs the full candTag scoring loop over
    // the per-switch candidate index -- the hot path under test.  (With
    // clause-wide shared chains Step 1 collapses to a single zero-cost MRU
    // probe; bench_fig7 covers that hinted regime.)
    paths.clear();
    stations.clear();
    for (std::uint32_t i = 0; i < batch; ++i) {
      stations.push_back(rng.next_below(bs_count));
      instances.clear();
      const std::uint32_t ntypes = topo.num_middlebox_types();
      for (std::uint32_t t = 0; t < 5 && t < ntypes; ++t) {
        const auto& insts = topo.instances_of_type(t);
        instances.push_back(
            topo.middleboxes()[insts[rng.next_below(insts.size())]].node);
      }
      // Path expansion is identical in both modes and not part of the
      // engine hot path -- expand up front, time only install().
      paths.push_back(expand_policy_path(topo.graph(), routes,
                                         Direction::kDownlink,
                                         topo.access_switch(stations.back()),
                                         instances, topo.gateway(),
                                         topo.internet()));
    }
    const auto start = std::chrono::steady_clock::now();
    for (std::uint32_t i = 0; i < batch; ++i) {
      const auto r = engine.install(paths[i], stations[i],
                                    topo.bs_prefix(stations[i]), std::nullopt);
      out.tag_checksum = out.tag_checksum * 0x100000001B3ull ^ r.tag.value();
      ++out.installs;
    }
    installing += std::chrono::steady_clock::now() - start;
  }
  out.seconds = std::chrono::duration<double>(installing).count();
  out.total_rules = engine.total_rules();
  out.tags_in_use = engine.tags_in_use();
  out.perf = engine.perf();
  return out;
}

void print_mode(const char* label, const ModeResult& r) {
  std::printf("    %-9s | %9.0f inst/s | %7.2f scans/inst | %.2fs\n", label,
              r.installs_per_s(), r.scanned_per_install(), r.seconds);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_agg.json";
  const char* smoke_env = std::getenv("SOFTCELL_SMOKE");
  const bool smoke = smoke_env != nullptr && smoke_env[0] == '1';

  std::vector<std::uint32_t> clause_counts{1000, 4000, 8000};
  std::uint32_t bs_count = 32;
  if (smoke) {
    clause_counts = {50};
    bs_count = 8;
  } else if (full_scale()) {
    clause_counts = {8000};
  }

  std::printf("=== Algorithm-1 fast path -- indexed + memoized Step-1 "
              "scoring ===\n");
  std::printf("(downlink Fig.7-style workload, %u base stations per clause;"
              " reference = EngineOptions::fastpath off)\n\n",
              bs_count);

  CellularTopology topo({.k = 4, .seed = 1});
  RoutingOracle routes(topo.graph());
  if (bs_count > topo.num_base_stations()) bs_count = topo.num_base_stations();

  struct Row {
    std::uint32_t clauses;
    ModeResult ref;
    ModeResult fast;
  };
  std::vector<Row> rows;
  bool mismatch = false;
  // Best-of-N per mode: each repetition rebuilds the engine and installs
  // the identical workload (counters and checksums are repetition-
  // invariant), so taking the fastest wall clock strips scheduler noise
  // without changing what is measured.
  const int reps = smoke ? 1 : 3;
  const auto best_of = [&](std::uint32_t n, bool fastpath) {
    ModeResult best = run_mode(topo, routes, n, bs_count, fastpath);
    for (int r = 1; r < reps; ++r) {
      const ModeResult again = run_mode(topo, routes, n, bs_count, fastpath);
      if (again.seconds < best.seconds) best = again;
    }
    return best;
  };
  for (const std::uint32_t n : clause_counts) {
    std::printf("  n = %u clauses (one install each, best of %d):\n", n, reps);
    Row row;
    row.clauses = n;
    row.ref = best_of(n, /*fastpath=*/false);
    print_mode("reference", row.ref);
    row.fast = best_of(n, /*fastpath=*/true);
    print_mode("fastpath", row.fast);
    const double speedup = row.ref.seconds > 0 && row.fast.seconds > 0
                               ? row.ref.seconds / row.fast.seconds
                               : 0.0;
    std::printf("    speedup: %.2fx; memo hit rate %.1f%%; bound skips %llu;"
                " presence skips %llu; filter settles %llu\n",
                speedup,
                100.0 * static_cast<double>(row.fast.perf.memo_hits) /
                    static_cast<double>(row.fast.perf.memo_hits +
                                        row.fast.perf.memo_misses + 1),
                static_cast<unsigned long long>(row.fast.perf.bound_skips),
                static_cast<unsigned long long>(row.fast.perf.presence_skips),
                static_cast<unsigned long long>(row.fast.perf.filter_settles));
    if (row.ref.tag_checksum != row.fast.tag_checksum ||
        row.ref.total_rules != row.fast.total_rules ||
        row.ref.tags_in_use != row.fast.tags_in_use) {
      std::fprintf(stderr,
                   "FATAL: fastpath diverged from the reference scan at"
                   " n=%u (tags %016llx/%016llx, rules %zu/%zu, tags-in-use"
                   " %zu/%zu)\n",
                   n,
                   static_cast<unsigned long long>(row.ref.tag_checksum),
                   static_cast<unsigned long long>(row.fast.tag_checksum),
                   row.ref.total_rules, row.fast.total_rules,
                   row.ref.tags_in_use, row.fast.tags_in_use);
      mismatch = true;
    } else {
      std::printf("    identical tag choices and rule counts (rules=%zu,"
                  " tags=%zu)\n",
                  row.fast.total_rules, row.fast.tags_in_use);
    }
    rows.push_back(row);
    std::printf("\n");
  }
  if (mismatch) return 1;

  telemetry::BenchReport report("agg_fastpath");
  report.meta_u64("hardware_threads", std::thread::hardware_concurrency());
  report.meta_u64("base_stations", bs_count);
  report.meta_bool("smoke", smoke);
  const auto mode_json = [](telemetry::JsonWriter& w, std::string_view name,
                            const ModeResult& m) {
    w.key(name)
        .begin_object()
        .num("seconds", m.seconds, 4)
        .u64("installs", m.installs)
        .num("installs_per_s", m.installs_per_s(), 0)
        .num("rules_scanned_per_install", m.scanned_per_install(), 3)
        .u64("total_rules", m.total_rules)
        .u64("tags_in_use", m.tags_in_use)
        .key("perf")
        .begin_object()
        .u64("candidate_scans", m.perf.candidate_scans)
        .u64("candidates_scored", m.perf.candidates_scored)
        .u64("hop_evals", m.perf.hop_evals)
        .u64("presence_skips", m.perf.presence_skips)
        .u64("filter_settles", m.perf.filter_settles)
        .u64("bound_skips", m.perf.bound_skips)
        .u64("memo_hits", m.perf.memo_hits)
        .u64("memo_misses", m.perf.memo_misses)
        .u64("score_resolves", m.perf.score_resolves)
        .u64("scratch_reuses", m.perf.scratch_reuses)
        .end_object()
        .end_object();
  };
  for (const Row& r : rows) {
    auto row = report.row();
    row.begin_object().u64("clauses", r.clauses).u64("installs",
                                                     r.fast.installs);
    mode_json(row, "reference", r.ref);
    mode_json(row, "fastpath", r.fast);
    row.num("speedup_installs_per_s",
            r.fast.installs_per_s() / r.ref.installs_per_s(), 3)
        .boolean("identical_results", true)
        .end_object();
    report.add_row(std::move(row));
  }
  if (report.write(out_path)) {
    std::printf("  wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
