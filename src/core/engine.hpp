// The SoftCell multi-dimensional aggregation engine -- Algorithm 1 of the
// paper, extended with the loop handling of section 3.2 and the optional
// location-only (Type 3) tier of section 7.
//
// Responsibilities:
//   * choose a policy tag for each new policy path: reuse the candidate tag
//     that minimizes the number of new switch rules, or allocate a fresh one
//     (Step 1 of Algorithm 1);
//   * install the path's rules, aggregating tag-only defaults and
//     contiguous location prefixes (Step 2);
//   * disambiguate loops: different in-links by in-port matching, same-link
//     re-entry by splitting the path into tag segments joined by tag-swap
//     rules;
//   * keep (tag, origin prefix) unique per origin base station (footnote 2:
//     paths from the same access switch must not share a tag, or the core
//     could not tell them apart);
//   * support online removal via per-path reliance records and entry
//     reference counts.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <optional>
#include <unordered_map>
#include <vector>

#include <functional>

#include "core/path.hpp"
#include "dataplane/switch_table.hpp"
#include "packet/prefix.hpp"
#include "topo/graph.hpp"
#include "util/flat_map.hpp"
#include "util/small_vector.hpp"

namespace softcell {

// One table mutation, as the engine performs it.  Streaming these to an
// observer is how the southbound protocol layer (src/ofp/) mirrors the
// controller's intent into flow-mod messages; re-references are emitted too
// so a remote replica maintains identical reference counts.
struct RuleOp {
  enum class Kind : std::uint8_t {
    kAddDefault,
    kAddPrefix,
    kAddLocation,
    kReleaseDefault,
    kReleasePrefix,
    kReleaseLocation,
  };
  Kind kind = Kind::kAddDefault;
  NodeId sw{};
  Direction dir = Direction::kDownlink;
  InPortSpec in;
  PolicyTag tag{};
  Prefix pre;          // meaningful for prefix/location ops
  RuleAction action;   // meaningful for add ops

  friend bool operator==(const RuleOp&, const RuleOp&) = default;
};
using RuleOpSink = std::function<void(const RuleOp&)>;

struct EngineOptions {
  // Candidate tags examined per install (0 = unlimited, the paper-faithful
  // full candTag scan; the default bounds work for large-scale sweeps --
  // the candidate ordering heuristics make the bound nearly lossless, see
  // bench_ablation_agg).
  std::size_t max_candidates = 32;
  // Recently-used tags kept as extra candidates.
  std::size_t mru_candidates = 16;
  // Disable Step 1 entirely: every path gets a fresh tag (ablation of the
  // policy-dimension aggregation).
  bool reuse_tags = true;
  // Shared delivery tier (multi-table mode, paper section 7): the hops
  // after a path's last middlebox are served by prefix rules under the
  // reserved delivery tag, shared by all policy paths; the last
  // from-middlebox rule rewrites the transit tag and resubmits.  Disabling
  // it keeps all forwarding per-policy-tag (ablated in bench_ablation_agg).
  bool shared_delivery = true;
  // Record per-path reliances so paths can be removed.  Disable for
  // install-only, memory-tight sweeps (Fig. 7 at k=20).
  bool track_paths = true;
  // Upper bound on allocatable tags (0 = the full 16-bit space).  The
  // deployed bound comes from the port-embedding split (PortCodec::
  // max_tags, Fig. 4); exceeding it means the policy scale outgrew the
  // port bits reserved for tags.
  std::uint32_t max_tags = 0;
  // Per-switch TCAM capacity applied to fabric switches (agg/core/gateway);
  // 0 = unbounded.  When an install would overflow a table, the whole path
  // is rolled back and PathRejected is thrown (section 7: "the policy path
  // request will be denied").
  std::size_t switch_capacity = 0;
  // Indexed/memoized Step-1 scoring (see DESIGN.md "Aggregation fast
  // path").  Disabling it selects the pre-fast-path reference scan -- the
  // exact per-candidate resolve walk this PR replaced -- kept runtime-
  // selectable so the differential tests and bench_agg_fastpath can pin
  // behavioural equivalence and measure the speedup on the same binary.
  bool fastpath = true;
};

// Hot-path counters of the aggregation engine, monotonic over its life.
// Exposed per shard through the runtime metrics aggregation.
struct AggPerf {
  std::uint64_t installs = 0;
  std::uint64_t candidate_scans = 0;   // inverted-index entries examined
  std::uint64_t candidates_scored = 0; // tags that reached Step-1 scoring
  std::uint64_t hop_evals = 0;         // per-(candidate, hop) scoring steps
  std::uint64_t presence_skips = 0;    // hops settled by the presence probe
  std::uint64_t filter_settles = 0;    // deferred-kind hops settled by the
                                       // digest's prefix Bloom filter
  std::uint64_t bound_skips = 0;       // candidates cut by the absence bound
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t score_resolves = 0;    // full resolve/aggregate probes run
  std::uint64_t scratch_reuses = 0;    // installs served from reused buffers
};

class AggregationEngine {
 public:
  // Transit tag reserved for the shared delivery tier.
  static constexpr PolicyTag kDeliveryTag{0};

  // A policy path could not be installed within the switches' TCAM
  // capacities; all of its partial state was rolled back.
  struct PathRejected : std::runtime_error {
    explicit PathRejected(NodeId at)
        : std::runtime_error("policy path rejected: switch table full"),
          sw(at) {}
    NodeId sw;
  };

  // A path needed a fresh tag past EngineOptions::max_tags (the Fig. 4
  // port budget).  Each throw counts once in the telemetry registry as
  // agg.tag_budget_rejects.
  struct TagBudgetExhausted : std::runtime_error {
    TagBudgetExhausted()
        : std::runtime_error(
              "AggregationEngine: tag space exhausted (grow the PortCodec "
              "tag bits or reduce policy scale)") {}
  };

  AggregationEngine(const Graph& graph, EngineOptions options = {});

  struct InstallResult {
    PathId path{};               // handle for remove(); invalid if !track_paths
    PolicyTag tag{};             // primary tag (segment 0)
    std::int32_t new_rules = 0;  // net rule delta network-wide (merges can
                                 // make an install *shrink* tables)
    std::uint32_t extra_tags = 0;  // loop-split segments beyond the first
    bool reused_tag = false;
  };

  // Installs one policy path originating at base station `bs_index` with
  // location prefix `origin`.  `hint` is tried first as a candidate (the
  // controller passes the tag it chose for the same clause before).  With
  // `pin` set, `hint` is used unconditionally and no tag search runs -- the
  // controller pins the downlink direction to the tag the uplink install
  // chose, so the access switch embeds a single tag per connection.
  // `exclude_also`: an additional (bs, direction) namespace whose tags the
  // candidate search must avoid -- the controller excludes the downlink
  // namespace while choosing the uplink tag it will later pin downlink.
  // `affinity`: the install's home key (the controller passes the clause).
  // A tag is homed to the key of the install that takes it from free to
  // live, until its last reference goes; while the tag budget still holds
  // a fresh tag for every segment of the path, Step 1 skips candidates
  // homed to another key (DESIGN.md section 7, "Clause-home tags").
  InstallResult install(const ExpandedPath& path, std::uint32_t bs_index,
                        Prefix origin,
                        std::optional<PolicyTag> hint = std::nullopt,
                        bool pin = false,
                        std::optional<std::uint64_t> exclude_also = std::nullopt,
                        std::optional<std::uint64_t> affinity = std::nullopt);

  // Removes a previously installed path (requires track_paths).
  void remove(PathId id);

  // Mobility shortcut (section 5.1): installs high-priority (tag, /32)
  // redirect rules along `hops` so downlink packets of one in-flight flow
  // (tag `tag`, destination = the UE's old LocIP `ue32`) leave the old
  // policy path after its last middlebox and head straight to the UE's new
  // base station.  The first hop is matched on its middlebox in-port so
  // packets that have not finished their middlebox traversal are never
  // hijacked.  Returns a removal handle (requires track_paths).  The
  // underlying policy path must outlive the shortcut.
  PathId install_ue_shortcut(Direction dir, PolicyTag tag, Prefix ue32,
                             const std::vector<PathHop>& hops);

  // --- verification ----------------------------------------------------
  struct WalkStep {
    NodeId node{};
    PolicyTag tag{};  // tag carried when *leaving* this node
  };
  struct WalkResult {
    bool ok = false;
    std::vector<WalkStep> steps;
    std::string error;
  };
  // Forwards a probe "packet" (tag, addr in `origin`) from the first fabric
  // hop and checks it traverses exactly the expected hops.
  [[nodiscard]] WalkResult walk(const ExpandedPath& path, PolicyTag tag,
                                Prefix origin) const;

  // --- introspection -----------------------------------------------------
  [[nodiscard]] const SwitchTable& table(NodeId sw) const;
  [[nodiscard]] std::size_t tags_allocated() const { return next_tag_; }
  [[nodiscard]] std::size_t tags_in_use() const { return tag_refs_.size(); }
  [[nodiscard]] std::size_t total_rules() const;

  struct TableStats {
    std::vector<std::size_t> fabric_sizes;  // per agg/core/gateway switch
    std::vector<std::size_t> access_sizes;  // per access switch (ring tails)
    std::size_t type1 = 0, type2 = 0, type3 = 0;
  };
  [[nodiscard]] TableStats table_stats() const;

  [[nodiscard]] const EngineOptions& options() const { return options_; }
  [[nodiscard]] const Graph& graph() const { return *graph_; }

  // Fast-path counters (candidate scans, memo hits/misses, scratch reuse).
  [[nodiscard]] const AggPerf& perf() const { return perf_; }
  // Number of tags currently parked on the free list (tests).
  [[nodiscard]] std::size_t free_tag_count() const { return free_tags_.size(); }
  // Home key of a live tag; nullopt for a free tag or one taken live by an
  // install without an affinity key (tests).
  [[nodiscard]] std::optional<std::uint64_t> tag_home(PolicyTag t) const {
    if (t.value() >= tag_home_.size() || tag_home_[t.value()] == kNoHome)
      return std::nullopt;
    return tag_home_[t.value()];
  }
  // Total (bs, direction)-namespace tag references (tests: leak detection).
  [[nodiscard]] std::size_t bs_tag_refs() const {
    std::size_t n = 0;
    for (const auto& [bsd, tags] : bs_tags_) n += tags.size();
    return n;
  }

  // Streams every table mutation (including re-references/releases) to
  // `sink` -- the feed the southbound flow-mod layer encodes.
  void set_op_sink(RuleOpSink sink) { sink_ = std::move(sink); }

 private:
  // Structural pre-pass: assigns a tag segment to every fabric hop and
  // decides which hops need in-port-specific rules or tag swaps.
  struct HopPlan {
    std::uint32_t segment = 0;
    bool force_inport = false;  // install in in-port-specific class
    bool swap_next = false;     // rewrite the transit tag to the next segment
  };
  struct PathPlan {
    std::vector<HopPlan> hops;
    std::uint32_t segments = 1;
  };
  // Fills `plan` in place, reusing this engine's planning scratch buffers.
  void plan_structure(std::span<const PathHop> hops, PathPlan& plan);

  struct Reliance {
    enum class Kind : std::uint8_t { kDefault, kPrefix, kLocation };
    Kind kind = Kind::kDefault;
    NodeId sw{};
    InPortSpec in;
    PolicyTag tag{};
    Prefix pre;
    Direction dir = Direction::kDownlink;
  };
  struct PathRecord {
    std::uint64_t bs_dir = 0;
    std::vector<PolicyTag> tags;  // segment tags (refcounted globally)
    std::vector<Reliance> reliances;
  };

 public:
  // (tag, origin prefix) pairs must be unique per direction -- uplink and
  // downlink rules live in separate match spaces, and the controller
  // deliberately shares one tag across the two directions of a path.
  // Public so callers can name a namespace for install()'s exclude_also.
  static std::uint64_t bs_key(std::uint32_t bs, Direction dir) {
    return (static_cast<std::uint64_t>(bs) << 1) |
           static_cast<std::uint64_t>(dir);
  }

 private:
  // Exclusive upper bound on tag values (EngineOptions::max_tags, or the
  // full 16-bit space); tag 0 is the delivery tag, so bound - 1 are usable.
  [[nodiscard]] std::uint32_t tag_bound() const {
    return options_.max_tags != 0
               ? options_.max_tags
               : static_cast<std::uint32_t>(PolicyTag::kInvalid);
  }
  PolicyTag alloc_tag();
  // References `t` for `bs_dir`; the reference that takes `t` live homes it
  // to `home` (kNoHome: unhomed).
  void ref_tag(PolicyTag t, std::uint64_t bs_dir, std::uint64_t home);
  void unref_tag(PolicyTag t, std::uint64_t bs_dir);
  void touch_mru(PolicyTag t);
  [[nodiscard]] bool tag_used_by_bs(std::uint64_t bs_dir, PolicyTag t) const;

  SwitchTable& mutable_table(NodeId sw);
  void release_reliances(const PathRecord& rec);

  // Installs or re-references one rule (resolve -> re-ref / default /
  // prefix override) and logs the reliance.  Returns the net rule-count
  // delta at that switch.  `class_only` resolves strictly within the given
  // in-port class (required for in-port-specific hops).
  std::int32_t commit_rule(NodeId sw, InPortSpec in, PolicyTag tag,
                           const RuleAction& desired, Prefix origin,
                           Direction dir, bool class_only, PathRecord* rec);

  // Memoized Step-1 scoring: one entry per (switch, in-port class, tag,
  // origin, direction) holding the resolve outcome and the aggregate-probe
  // summary, both action-independent.  Valid while the tag's structural
  // epoch at that switch is unchanged (SwitchTable::tag_epoch); stale
  // entries are refreshed in place.  Step-2 commits consult the same memo,
  // so scoring the winning candidate warms the commit pass.  See DESIGN.md
  // "Aggregation fast path".
  struct MemoKey {
    std::uint64_t a = 0;  // (switch << 32) | in-port
    std::uint64_t b = 0;  // (origin addr << 32) | (tag << 16) | (len << 8) | dir
    friend bool operator==(const MemoKey&, const MemoKey&) = default;
  };
  struct MemoKeyHash {
    size_t operator()(const MemoKey& k) const noexcept {
      // Full-avalanche (splitmix64) finalizer: the direct-mapped memo keys
      // slots off the LOW bits, and multiplication alone never carries the
      // switch id (bits 32+ of `a`) downward -- a weaker mix collided every
      // switch with the same (tag, origin) onto one slot.
      std::uint64_t v = k.a * 0x9E3779B97F4A7C15ull;
      v ^= k.b;
      v = (v ^ (v >> 30)) * 0xBF58476D1CE4E5B9ull;
      v = (v ^ (v >> 27)) * 0x94D049BB133111EBull;
      return static_cast<size_t>(v ^ (v >> 31));
    }
  };
  struct MemoValue {
    std::uint64_t epoch = kMemoInvalid;
    bool has_res = false;
    bool res_is_default = false;
    // The aggregate summary is filled lazily (memo_agg_cost): scoring only
    // needs it on action-mismatch hops, commits never do -- mirroring the
    // reference scan, which only calls can_aggregate on that same branch.
    bool agg_valid = false;
    RuleAction res_action;
    InPortSpec res_cls;  // class the resolved entry lives in
    bool agg_parent_free = false;
    std::optional<RuleAction> agg_sibling;
  };
  static constexpr std::uint64_t kMemoInvalid = ~std::uint64_t{0};
  // The memo is a direct-mapped transposition table, not a map: slot =
  // hash(key) mod size, collisions simply overwrite (it is an accelerator,
  // never a source of truth, so dropped entries only cost a re-resolve).
  // One predictable cache-line probe per lookup -- an earlier FlatMap-based
  // memo spent more time probing than the resolves it saved.  Sized to
  // stay cache-resident: the high-value reuse window is short (scoring
  // warming the same install's commit, bursts against the same switches).
  struct MemoEntry {
    MemoKey key;
    MemoValue val;
  };
  static constexpr std::size_t kMemoSlots = std::size_t{1} << 15;

  // One scorable (non-swap) first-segment hop, hoisted once per install so
  // the per-candidate scoring loop re-derives nothing: the class's digest
  // column (pass 1 reads one dense entry per candidate), plus the switch,
  // class and desired action the deferred memo probe needs.  The column
  // pointer is stable for the whole of Step 1 -- rule mutations only
  // happen in Step 2.
  struct ScoreHop {
    const SwitchTable* tbl = nullptr;
    const SwitchTable::DigestColumn* col = nullptr;
    NodeId sw{};
    InPortSpec in;
    RuleAction desired;
  };

  // Per-install scratch reused across installs (allocation-free steady
  // state; fresh allocations happen only while high-water marks grow).
  struct InstallScratch {
    std::vector<PathHop> planned;
    PathPlan plan;
    std::vector<std::uint8_t> split_at;   // plan_structure: segment starts
    std::vector<std::uint8_t> forced_at;  // plan_structure: in-port pinning
    FlatMap<std::uint64_t, std::size_t> by_inlink;
    FlatMap<std::uint64_t, std::size_t> by_wildcard;
    std::vector<PolicyTag> cands;
    std::vector<ScoreHop> score_hops;       // fastpath: hoisted hop state
    std::vector<std::uint8_t> hop_present;  // fastpath: presence-pass marks
    PathRecord rec;
    bool warm = false;  // a prior install already sized the buffers
  };

  // Validated memo lookup for (switch, class, tag, origin) -- the resolve
  // outcome plus the aggregate summary.  `epoch` is the caller-probed
  // tag_epoch(dir, tag) at the switch; entries stamped with an older epoch
  // miss, and epoch 0 (tag absent) short-circuits to a shared "absent"
  // value without touching the table.  The wildcard/fall-through mode is
  // implied by `in` (specific classes never fall through -- the same
  // invariant the scoring and commit call sites maintain).
  [[nodiscard]] MemoValue& memo_fetch(NodeId sw, Direction dir, InPortSpec in,
                                      PolicyTag tag, Prefix origin,
                                      std::uint64_t epoch);
  // Origin-specific cost of one deferred hop -- a class the dense digest
  // could not settle (kUniform wanting its own action, or kMixed).  Goes
  // through the origin-keyed memo; returns the same cost the reference
  // hop scan computes.
  [[nodiscard]] std::uint32_t fast_hop_cost(const SwitchTable& tbl, NodeId sw,
                                            Direction dir, InPortSpec in,
                                            PolicyTag tag, Prefix origin,
                                            const RuleAction& desired);
  // Hop cost of a resolve-hit whose action diverges from `desired`: 0 when
  // the override would merge with its sibling, 1 otherwise.  Fills the
  // entry's aggregate summary on first use at this epoch.
  [[nodiscard]] std::uint32_t memo_agg_cost(MemoValue& m, NodeId sw,
                                            Direction dir, InPortSpec in,
                                            PolicyTag tag, Prefix origin,
                                            const RuleAction& desired);

  const Graph* graph_;
  EngineOptions options_;
  std::vector<SwitchTable> tables_;  // indexed by NodeId

  std::uint32_t next_tag_ = 0;
  std::vector<PolicyTag> free_tags_;
  FlatMap<PolicyTag, std::uint32_t> tag_refs_;
  // Home key per tag value (kNoHome while free or unhomed); see install().
  static constexpr std::uint64_t kNoHome = ~std::uint64_t{0};
  std::vector<std::uint64_t> tag_home_;
  FlatMap<std::uint64_t, FlatSet<PolicyTag>> bs_tags_;
  std::deque<PolicyTag> mru_;
  // Loop-split segments reuse tags across paths: all paths sharing primary
  // tag T reuse the same tag for their s-th segment (their segment rules
  // then aggregate exactly like primary-segment rules).
  FlatMap<std::uint64_t, PolicyTag> seg_hints_;

  std::vector<MemoEntry> memo_;  // direct-mapped, sized kMemoSlots on first use
  InstallScratch scratch_;
  // Candidate dedup marks, indexed by tag value; a tag is marked for the
  // current install iff mark_[tag] == mark_gen_.
  std::vector<std::uint32_t> mark_;
  std::uint32_t mark_gen_ = 0;
  AggPerf perf_;

  std::uint64_t next_path_ = 1;
  std::unordered_map<PathId, PathRecord> records_;
  RuleOpSink sink_;

  void emit(RuleOp::Kind kind, NodeId sw, Direction dir, InPortSpec in,
            PolicyTag tag, Prefix pre, const RuleAction& action) const {
    if (sink_)
      sink_(RuleOp{kind, sw, dir, in, tag, pre, action});
  }
};

}  // namespace softcell
