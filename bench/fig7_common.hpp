// Shared driver for the large-scale simulations of paper section 6.3
// (Fig. 7a/b/c and the aggregation ablations).
//
// Methodology, following the paper: build the k-parameterized cellular
// topology; generate `clauses` service-policy clauses, each traversing
// `length` middlebox instances; instantiate one policy path per
// (clause, base station) -- i.e. clauses * 10k^3/4 paths -- install all of
// them through the aggregation engine (downlink direction, as in Fig. 3:
// "rules for traffic arriving from the Internet"); and report the
// distribution of per-switch table sizes over the fabric (aggregation,
// core and gateway switches).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "topo/cellular.hpp"
#include "util/stats.hpp"

namespace softcell::bench {

// How a clause's middlebox types are resolved to instances.
enum class InstanceMode {
  // One uniformly random instance per (clause, type), shared by all base
  // stations -- the reading of "a policy path traverses m randomly chosen
  // middlebox instances" that matches the paper's reported magnitudes
  // (slope < 2 rules per clause at the busiest switch).  Default.
  kSharedPerClause,
  // Per clause, each type is either served by one core-layer instance
  // shared by all base stations (50%) or by the instance in each base
  // station's own pod (50%).  A locality-aware alternative; ablated in
  // bench_ablation_agg.
  kMixed,
  // Always the pod-local instance.
  kPodLocal,
  // Uniformly random instance per (clause, base station) -- the most
  // adversarial reading; ablated.
  kRandomPerPath,
};

// The order the (clause, base station) paths reach the engine in.
enum class ArrivalOrder {
  // All base stations of clause 0, then of clause 1, ... -- the offline
  // order, and the paper's.  Default.
  kClauseMajor,
  // A seeded shuffle of all keys: flow misses interleave clauses and base
  // stations, as they reach a live controller.
  kShuffled,
};

struct Fig7Params {
  std::uint32_t k = 8;
  std::uint32_t clauses = 1000;
  std::uint32_t length = 5;  // middleboxes per clause
  std::uint64_t seed = 7;
  InstanceMode mode = InstanceMode::kSharedPerClause;
  CoreStripe stripe = CoreStripe::kBlocked;
  ArrivalOrder order = ArrivalOrder::kClauseMajor;
  // Pass the clause index as each install's affinity key (clause-home
  // tags, DESIGN.md section 7), as the controller does.  false ablates it:
  // Step 1 then takes the cheapest tag of any clause.
  bool clause_homes = true;
  EngineOptions engine{.max_candidates = 32, .track_paths = false};
  // Enforce a per-switch TCAM capacity and stop at the first rejected path
  // (the headline-capacity experiment).
  std::size_t capacity = 0;
  bool stop_on_reject = false;
};

struct Fig7Result {
  std::uint32_t base_stations = 0;
  std::uint64_t paths_installed = 0;
  SampleSet fabric_sizes;   // per agg/core/gateway switch rule counts
  SampleSet access_sizes;   // per access switch (ring delivery tails)
  std::size_t type1 = 0, type2 = 0, type3 = 0;
  std::size_t tags_used = 0;
  std::uint32_t loop_splits = 0;  // paths that needed extra tag segments
  std::uint32_t clauses_admitted = 0;  // complete clauses before rejection
  bool rejected = false;
  double seconds = 0;
};

[[nodiscard]] Fig7Result run_fig7(const Fig7Params& params);

// Formats one result row: label, max, median, p90 fabric sizes plus tag and
// timing columns.
[[nodiscard]] std::string fig7_row(const std::string& label,
                                   const Fig7Result& r);
[[nodiscard]] std::string fig7_header();

// True when the environment asks for the full paper-scale sweeps
// (SOFTCELL_FULL=1); default runs are scaled down to keep `bench/*`
// runnable in minutes.
[[nodiscard]] bool full_scale();

}  // namespace softcell::bench
