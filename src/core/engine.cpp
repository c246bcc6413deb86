// sc-lint: metrics-owner(AggPerf) -- the engine's hot-path counters are
// incremented here and nowhere else; everyone else reads them through
// perf() / the telemetry registry (rule `metrics-direct`).
#include "core/engine.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace softcell {

namespace {

// Key for the structural conflict map: (switch, in-link/class, segment).
std::uint64_t plan_key(NodeId sw, NodeId cls_in, std::uint32_t seg) {
  std::uint64_t v = (static_cast<std::uint64_t>(sw.value()) << 32) ^
                    (static_cast<std::uint64_t>(cls_in.value()) * 0x9E3779B9u) ^
                    seg;
  v = (v ^ (v >> 30)) * 0xBF58476D1CE4E5B9ull;
  return v ^ (v >> 31);
}

}  // namespace

AggregationEngine::AggregationEngine(const Graph& graph, EngineOptions options)
    : graph_(&graph), options_(options), tables_(graph.node_count()) {
  // Process-wide escape hatch: SOFTCELL_FASTPATH=0 forces every engine onto
  // the reference scan, so the whole suite can be rerun against the legacy
  // path (ctest -L nofastpath) without a rebuild.
  if (const char* env = std::getenv("SOFTCELL_FASTPATH");
      env && env[0] == '0' && env[1] == '\0')
    options_.fastpath = false;
  // Tag 0 is reserved for the shared delivery tier and never recycled.
  next_tag_ = kDeliveryTag.value() + 1;
  tag_refs_[kDeliveryTag] = 1;
  if (options_.switch_capacity != 0) {
    for (std::size_t i = 0; i < tables_.size(); ++i)
      if (graph.is_fabric_switch(NodeId(static_cast<std::uint32_t>(i))))
        tables_[i].set_capacity(options_.switch_capacity);
  }
}

SwitchTable& AggregationEngine::mutable_table(NodeId sw) {
  return tables_.at(sw.value());
}

const SwitchTable& AggregationEngine::table(NodeId sw) const {
  return tables_.at(sw.value());
}

// --- structural planning -----------------------------------------------------

void AggregationEngine::plan_structure(std::span<const PathHop> hops,
                                       PathPlan& plan) {
  plan.hops.assign(hops.size(), HopPlan{});
  plan.segments = 1;
  if (hops.empty()) return;

  // Two hops of the same path can interfere in three ways:
  //   * same (switch, in-link, segment): the lookup key is identical, so the
  //     outs (and tag-swap actions) must match -- otherwise the path is a
  //     same-link loop and must be split into tag segments (section 3.2);
  //   * same (switch, segment), different in-links, both in the wildcard
  //     class with different outs: their (tag, prefix) rules would collide,
  //     so both are forced into in-port-specific classes;
  //   * hops in specific classes never clash with wildcard hops on other
  //     in-links: lookups probe the specific class of their own in-link
  //     first and fall through to the wildcard class on miss.
  auto& split = scratch_.split_at;    // [i] set => hop i starts a new segment
  auto& forced = scratch_.forced_at;  // [i] set => in-port-specific class
  split.assign(hops.size() + 1, 0);
  forced.assign(hops.size(), 0);
  auto& by_inlink = scratch_.by_inlink;
  auto& by_wildcard = scratch_.by_wildcard;
  for (int pass = 0; pass < 1024; ++pass) {
    by_inlink.clear();
    by_wildcard.clear();
    bool redo = false;
    std::uint32_t seg = 0;
    const auto swap_of = [&](std::size_t x) -> std::optional<std::size_t> {
      if (split[x + 1]) return x + 1;  // identifies the swap target
      return std::nullopt;
    };
    for (std::size_t i = 0; i < hops.size() && !redo; ++i) {
      if (split[i]) ++seg;
      plan.hops[i].segment = seg;
      plan.hops[i].force_inport = forced[i] != 0;
      plan.hops[i].swap_next = split[i + 1] != 0;
      const bool specific = hops[i].from_middlebox || forced[i] != 0;

      const auto inkey = plan_key(hops[i].sw, hops[i].in_from, seg);
      if (const auto [it, fresh] = by_inlink.try_emplace(inkey, i); !fresh) {
        const std::size_t j = it->second;
        const bool same_rule =
            hops[j].out_to == hops[i].out_to && swap_of(j) == swap_of(i);
        if (!same_rule) {
          // Same-link re-entry: split the path here; the previous hop gets
          // a tag-swap action.
          if (i == 0)
            throw std::logic_error("plan_structure: conflict at first hop");
          split[i] = 1;
          redo = true;
          continue;
        }
      }
      if (!specific) {
        const auto wkey = plan_key(hops[i].sw, NodeId{}, seg);
        if (const auto [it, fresh] = by_wildcard.try_emplace(wkey, i); !fresh) {
          const std::size_t j = it->second;
          const bool same_rule =
              hops[j].out_to == hops[i].out_to && swap_of(j) == swap_of(i);
          if (!same_rule) {
            if (hops[j].in_from == hops[i].in_from)
              throw std::logic_error("plan_structure: unreachable clash");
            // Different in-links: disambiguate by in-port matching.
            forced[i] = 1;
            forced[j] = 1;
            redo = true;
            continue;
          }
        }
      }
    }
    if (!redo) {
      plan.segments = seg + 1;
      return;
    }
  }
  throw std::logic_error("plan_structure: did not converge");
}

// --- tag bookkeeping -----------------------------------------------------------

PolicyTag AggregationEngine::alloc_tag() {
  // A freed tag can be resurrected before it is popped here: it lingers in
  // the MRU list, gets picked as a candidate and re-referenced.  Skip any
  // such live tags instead of handing them out twice.
  while (!free_tags_.empty()) {
    const PolicyTag t = free_tags_.back();
    free_tags_.pop_back();
    if (!tag_refs_.contains(t)) return t;
  }
  if (next_tag_ >= tag_bound()) {
    static telemetry::Counter& rejects =
        telemetry::Registry::global().counter("agg.tag_budget_rejects");
    rejects.add(1);
    throw TagBudgetExhausted();
  }
  return PolicyTag(static_cast<PolicyTag::rep_type>(next_tag_++));
}

void AggregationEngine::ref_tag(PolicyTag t, std::uint64_t bs_dir,
                                std::uint64_t home) {
  if (++tag_refs_[t] == 1) {
    if (tag_home_.size() <= t.value()) tag_home_.resize(t.value() + 1, kNoHome);
    tag_home_[t.value()] = home;
  }
  if (!bs_tags_[bs_dir].insert(t).second)
    throw std::logic_error("ref_tag: tag already used by this base station");
}

void AggregationEngine::unref_tag(PolicyTag t, std::uint64_t bs_dir) {
  if (auto it = bs_tags_.find(bs_dir); it != bs_tags_.end()) {
    it->second.erase(t);
    if (it->second.empty()) bs_tags_.erase(it);
  }
  auto it = tag_refs_.find(t);
  if (it == tag_refs_.end()) throw std::logic_error("unref_tag: unknown tag");
  if (--it->second == 0) {
    tag_refs_.erase(it);
    tag_home_[t.value()] = kNoHome;
    free_tags_.push_back(t);
  }
}

bool AggregationEngine::tag_used_by_bs(std::uint64_t bs, PolicyTag t) const {
  const auto it = bs_tags_.find(bs);
  return it != bs_tags_.end() && it->second.contains(t);
}

void AggregationEngine::touch_mru(PolicyTag t) {
  if (!mru_.empty() && mru_.front() == t) return;
  mru_.push_front(t);
  if (mru_.size() > 64) mru_.pop_back();
}

// --- committing a single rule -----------------------------------------------

std::int32_t AggregationEngine::commit_rule(NodeId sw, InPortSpec in,
                                            PolicyTag tag,
                                            const RuleAction& desired,
                                            Prefix origin, Direction dir,
                                            bool class_only, PathRecord* rec) {
  SwitchTable& tbl = mutable_table(sw);
  const auto before = static_cast<std::int32_t>(tbl.rule_count());

  // getNextHop(): through the memo on the fast path -- Step-1 scoring of
  // the winning tag resolved these exact (switch, class, tag, origin)
  // tuples moments ago, and per-tag epochs keep the summaries valid across
  // this very install's earlier commits (which only touch this install's
  // tag -- and bump its epoch when they change anything).  Every call site
  // maintains class_only == !in.wildcard(), so both modes probe with the
  // same fall-through.
  bool has_res;
  RuleAction res_action;
  InPortSpec res_cls;
  bool res_is_default = false;
  if (options_.fastpath) {
    using Kind = SwitchTable::Digest::Kind;
    const SwitchTable::Digest d =
        SwitchTable::digest_at(tbl.digest_column(dir, in), tag);
    if (d.kind == Kind::kAbsent) {
      has_res = false;
    } else if (d.kind == Kind::kDefaultOnly) {
      // resolve() on a default-only class returns the default, in this
      // very class, for every origin.
      has_res = true;
      res_action = d.act;
      res_cls = in;
      res_is_default = true;
    } else {
      // Covered / uniform / mixed: which entry resolves (and whether it is
      // the default) is origin-specific -- go through the memo.
      const MemoValue& m =
          memo_fetch(sw, dir, in, tag, origin, tbl.tag_epoch(dir, tag));
      has_res = m.has_res;
      res_action = m.res_action;
      res_cls = m.res_cls;
      res_is_default = m.res_is_default;
    }
  } else {
    const auto res =
        tbl.resolve(dir, in, tag, origin, /*fall_through=*/!class_only);
    has_res = res.has_value();
    if (res) {
      res_action = res->action;
      res_cls = res->cls;
      res_is_default = res->is_default;
    }
  }
  if (has_res && res_action == desired) {
    // Re-reference the entry that already treats us correctly.
    if (res_is_default) {
      tbl.add_default(dir, res_cls, tag, desired);
      emit(RuleOp::Kind::kAddDefault, sw, dir, res_cls, tag, {}, desired);
      if (rec)
        rec->reliances.push_back(Reliance{Reliance::Kind::kDefault, sw,
                                          res_cls, tag, Prefix{}, dir});
    } else {
      tbl.add_prefix_rule(dir, res_cls, tag, origin, desired);
      emit(RuleOp::Kind::kAddPrefix, sw, dir, res_cls, tag, origin, desired);
      if (rec)
        rec->reliances.push_back(Reliance{Reliance::Kind::kPrefix, sw,
                                          res_cls, tag, origin, dir});
    }
  } else if (!has_res && in.wildcard()) {
    // First rule for this tag here: a tag-only default -- the cheapest,
    // most aggregated form (Step 2 of Algorithm 1 installs the most general
    // rule that is still correct).  Defaults live only in the wildcard
    // in-port class: a default in a specific class would shadow wildcard
    // entries that paths entering through the same link already rely on.
    tbl.add_default(dir, in, tag, desired);
    emit(RuleOp::Kind::kAddDefault, sw, dir, in, tag, {}, desired);
    if (rec)
      rec->reliances.push_back(
          Reliance{Reliance::Kind::kDefault, sw, in, tag, Prefix{}, dir});
  } else {
    // Divergence from existing rules: a (tag, prefix) override, merged with
    // contiguous siblings by the table (canAggregate/aggregateRule).
    tbl.add_prefix_rule(dir, in, tag, origin, desired);
    emit(RuleOp::Kind::kAddPrefix, sw, dir, in, tag, origin, desired);
    if (rec)
      rec->reliances.push_back(
          Reliance{Reliance::Kind::kPrefix, sw, in, tag, origin, dir});
  }
  return static_cast<std::int32_t>(tbl.rule_count()) - before;
}

// --- memoized resolve summaries ---------------------------------------------
// sc-lint: hotpath(memo-score) -- the per-hop scoring tier of Algorithm 1's
// Step 1; runs once per (candidate, hop) per install.  No locks, no sleeps,
// no node-based containers inside (the memo is a flat open-addressed array).

AggregationEngine::MemoValue& AggregationEngine::memo_fetch(
    NodeId sw, Direction dir, InPortSpec in, PolicyTag tag, Prefix origin,
    std::uint64_t epoch) {
  // A tag with no entries at this switch resolves to nothing and can never
  // aggregate -- one shared value, no table traffic.  Sound because equal
  // tag_epoch values (zero included) imply identical class contents.  The
  // value is never written through: has_res is false, so memo_agg_cost
  // (the only mutator) is unreachable for it.
  static MemoValue absent{};
  if (epoch == 0) return absent;
  MemoKey key;
  key.a = (static_cast<std::uint64_t>(sw.value()) << 32) |
          static_cast<std::uint64_t>(in.specific.value());
  key.b = (static_cast<std::uint64_t>(origin.addr()) << 32) |
          (static_cast<std::uint64_t>(tag.value()) << 16) |
          (static_cast<std::uint64_t>(origin.len()) << 8) |
          static_cast<std::uint64_t>(dir);
  if (memo_.empty()) memo_.resize(kMemoSlots);
  MemoEntry& e = memo_[MemoKeyHash{}(key) & (kMemoSlots - 1)];
  MemoValue& m = e.val;
  // A fresh slot never matches (its epoch is kMemoInvalid); a colliding
  // key never matches the key check and is overwritten below.
  if (e.key == key && m.epoch == epoch) {
    ++perf_.memo_hits;
    return m;
  }
  // Fill (a stale, colliding, or fresh slot): one resolve; every later use
  // of this (switch, class, tag, origin) -- scoring other candidates'
  // installs or this install's own Step-2 commit -- is a plain lookup
  // until the tag's rules at this switch structurally change.
  ++perf_.memo_misses;
  ++perf_.score_resolves;
  const auto res = table(sw).resolve(dir, in, tag, origin,
                                     /*fall_through=*/in.wildcard());
  e.key = key;
  m.epoch = epoch;
  m.has_res = res.has_value();
  m.agg_valid = false;
  if (res) {
    m.res_action = res->action;
    m.res_cls = res->cls;
    m.res_is_default = res->is_default;
  }
  return m;
}

std::uint32_t AggregationEngine::memo_agg_cost(MemoValue& m, NodeId sw,
                                               Direction dir, InPortSpec in,
                                               PolicyTag tag, Prefix origin,
                                               const RuleAction& desired) {
  if (!m.agg_valid) {
    // Same epoch => same class contents => the probe result is stable, so
    // caching it alongside the resolve summary is sound.
    const auto probe = table(sw).aggregate_probe(dir, in, tag, origin);
    m.agg_parent_free = probe.parent_free;
    m.agg_sibling = probe.sibling;
    m.agg_valid = true;
  }
  return (m.agg_parent_free && m.agg_sibling && *m.agg_sibling == desired) ? 0
                                                                           : 1;
}

std::uint32_t AggregationEngine::fast_hop_cost(const SwitchTable& tbl,
                                               NodeId sw, Direction dir,
                                               InPortSpec in, PolicyTag tag,
                                               Prefix origin,
                                               const RuleAction& desired) {
  // Only deferred hops land here: the digest classified the class as
  // origin-specific (kUniform wanting its own action, or kMixed).  The
  // memoized tier resolves once per (switch, class, tag, origin) and
  // caches the aggregate probe alongside.
  MemoValue& m = memo_fetch(sw, dir, in, tag, origin, tbl.tag_epoch(dir, tag));
  if (m.has_res && m.res_action == desired) return 0;
  if (!m.has_res) return 1;
  return memo_agg_cost(m, sw, dir, in, tag, origin, desired);
}
// sc-lint: endhotpath(memo-score)

// --- install ---------------------------------------------------------------------

AggregationEngine::InstallResult AggregationEngine::install(
    const ExpandedPath& path, std::uint32_t bs_index, Prefix origin,
    std::optional<PolicyTag> hint, bool pin,
    std::optional<std::uint64_t> exclude_also,
    std::optional<std::uint64_t> affinity) {
  const Direction dir = path.dir;
  const std::uint64_t bsd = bs_key(bs_index, dir);
  const std::uint64_t home = affinity.value_or(kNoHome);
  if (pin && !hint)
    throw std::invalid_argument("install: pin requires a hint tag");
  SC_TRACE_SPAN_ARG("engine.install", bs_index);
  ++perf_.installs;
  if (scratch_.warm)
    ++perf_.scratch_reuses;
  else
    scratch_.warm = true;

  // --- split the path at the delivery boundary ---
  // Everything after the last middlebox is pure delivery: with the shared
  // delivery tier (multi-table mode, section 7), those hops are served by
  // prefix rules under the reserved delivery tag, shared by *all* policy
  // paths.  The hop at the boundary becomes a hand-off rule that rewrites
  // the transit tag and resubmits.
  const std::size_t n = path.fabric.size();
  const bool use_delivery = options_.shared_delivery && n > 0;
  std::size_t boundary = n;
  if (use_delivery) {
    boundary = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (path.fabric[i].from_middlebox) boundary = i;
  }

  auto& planned = scratch_.planned;
  planned.assign(
      path.fabric.begin(),
      path.fabric.begin() +
          static_cast<std::ptrdiff_t>(use_delivery ? boundary + 1 : n));
  if (use_delivery) {
    // The hand-off rule shares with nothing that forwards somewhere: give
    // it a sentinel out so the planner treats clashes at its (switch,
    // in-link) correctly.
    planned[boundary].out_to = NodeId{};
  }
  plan_structure(planned, scratch_.plan);
  const PathPlan& plan = scratch_.plan;

  static const RuleAction kHandOff{NodeId{}, kDeliveryTag, /*resubmit=*/true};

  const auto desired_of = [&](std::size_t i) -> RuleAction {
    return (use_delivery && i == boundary)
               ? kHandOff
               : RuleAction{planned[i].out_to, std::nullopt};
  };

  // --- Step 1 of Algorithm 1: pick the tag minimizing new rules. ---
  // Reference scoring (the pre-fast-path scan): a full resolve per
  // (candidate, hop).  Kept behind options_.fastpath=false so the
  // differential tests and bench_agg_fastpath can compare against it.
  const auto hop_cost = [&](std::size_t i, PolicyTag tag0) -> std::uint32_t {
    const PathHop& hop = planned[i];
    const HopPlan& hp = plan.hops[i];
    if (hp.swap_next) return 1;  // carries a path-specific set-tag action
    ++perf_.hop_evals;
    ++perf_.score_resolves;
    const SwitchTable& tbl = table(hop.sw);
    const bool specific = hop.from_middlebox || hp.force_inport;
    const InPortSpec in =
        specific ? InPortSpec::from(hop.in_from) : InPortSpec::any();
    const RuleAction desired = desired_of(i);
    const auto res = tbl.resolve(dir, in, tag0, origin, !specific);
    if (res && res->action == desired) return 0;
    if (!res) return 1;  // fresh tag-only default
    return tbl.can_aggregate(dir, in, tag0, origin, desired) ? 0 : 1;
  };

  std::size_t seg0_hops = 0;
  for (std::size_t i = 0; i < plan.hops.size() && plan.hops[i].segment == 0;
       ++i)
    ++seg0_hops;

  const auto legacy_cost_of = [&](PolicyTag tag0, std::uint32_t best) {
    std::uint32_t cost = 0;
    for (std::size_t i = 0; i < seg0_hops; ++i) {
      cost += hop_cost(i, tag0);
      if (cost >= best) return cost;
    }
    return cost;
  };

  // Fastpath hoisting: swap hops cost 1 for every candidate, and each
  // scorable hop's class spec and desired action are candidate-independent
  // -- derive them once per install, not once per (candidate, hop).
  std::uint32_t swap_base = 0;
  auto& score_hops = scratch_.score_hops;
  score_hops.clear();
  if (options_.fastpath) {
    for (std::size_t i = 0; i < seg0_hops; ++i) {
      const HopPlan& hp = plan.hops[i];
      if (hp.swap_next) {
        ++swap_base;  // carries a path-specific set-tag action
        continue;
      }
      const PathHop& hop = planned[i];
      const bool specific = hop.from_middlebox || hp.force_inport;
      const InPortSpec in =
          specific ? InPortSpec::from(hop.in_from) : InPortSpec::any();
      const SwitchTable& tbl = table(hop.sw);
      score_hops.push_back(
          ScoreHop{&tbl, tbl.digest_column(dir, in), hop.sw, in, desired_of(i)});
    }
  }
  // Origin-side Bloom query bits, hoisted once per install: the scoring
  // origin is fixed, so a class's maybe-match test is one AND of its
  // filter against the OR of the origin's truncation bits at the lengths
  // the class actually holds.  sib_bit == 0 encodes "origin has no
  // sibling" -- aggregation is then impossible outright.
  std::uint64_t origin_len_bit[33] = {};
  std::uint64_t origin_len_allowed = 0;
  std::uint64_t sib_bit = 0;
  if (options_.fastpath) {
    const int olen = origin.len();
    origin_len_allowed = (std::uint64_t{1} << (olen + 1)) - 1;
    for (int len = 0; len <= olen; ++len)
      origin_len_bit[len] = SwitchTable::pfilter_bit(
          Prefix(origin.addr(), static_cast<std::uint8_t>(len)));
    if (const auto sib = origin.sibling())
      sib_bit = SwitchTable::pfilter_bit(*sib);
  }

  // Indexed scoring, bound first.  Pass 1 runs entirely on L1/L2-resident
  // index structures: one dense digest entry per hop settles everything
  // whose cost is origin-independent.  Absent class -> fresh tag-only
  // default (cost 1).  Default-only or covered class -> every origin
  // resolves to the class's single action: match is free, mismatch costs
  // one override (a default-only class has no sibling to merge with, and
  // the covered default subsumes any would-be merge).  Uniform (prefixes
  // only, one action): a mismatch always costs 1 -- no sibling carrying
  // the desired action can exist -- while a match is origin-specific
  // (resolve may miss every prefix) and defers.  Only deferred hops
  // (uniform-match and mixed classes) reach pass 2's memoized probes, and
  // most losing candidates never get there: the pass-1 bound alone puts
  // them at or over the limit.  Decision-equivalent to legacy_cost_of:
  // the cost is an order-independent sum, every early return is >= the
  // limit, and winning candidates are always fully scored (the same
  // contract the legacy early-exit provides).
  const auto fast_cost_of = [&](PolicyTag tag0,
                                std::uint32_t limit) -> std::uint32_t {
    using Kind = SwitchTable::Digest::Kind;
    // Bloom maybe-match: could any prefix entry of this class contain the
    // origin?  A clear result is exact (no false negatives), so resolve
    // provably falls through to the class default (or to nothing).
    const auto maybe_match = [&](const SwitchTable::Digest& d) -> bool {
      std::uint64_t m = d.len_mask & origin_len_allowed;
      std::uint64_t q = 0;
      while (m != 0) {
        q |= origin_len_bit[std::countr_zero(m)];
        m &= m - 1;
      }
      return (d.pfilter & q) != 0;
    };
    std::uint32_t cost = swap_base;
    auto& defer = scratch_.hop_present;
    defer.assign(score_hops.size(), 0);
    bool any_defer = false;
    for (std::size_t i = 0; i < score_hops.size(); ++i) {
      const ScoreHop& h = score_hops[i];
      const SwitchTable::Digest d = SwitchTable::digest_at(h.col, tag0);
      bool settled = true;
      switch (d.kind) {
        case Kind::kAbsent:
          ++perf_.presence_skips;
          ++cost;
          break;
        case Kind::kDefaultOnly:
        case Kind::kCovered:
          if (!(d.act == h.desired)) ++cost;
          break;
        case Kind::kUniform:
          // Mismatch always costs 1 (no sibling with the desired action
          // can exist); a match is free only if some prefix contains the
          // origin -- provably none does when the filter misses.
          if (!(d.act == h.desired)) {
            ++cost;
          } else if (!maybe_match(d)) {
            ++perf_.filter_settles;
            ++cost;
          } else {
            settled = false;
          }
          break;
        case Kind::kMixedDef:
          if (maybe_match(d)) {
            settled = false;  // which entry resolves is origin-specific
          } else if (d.act == h.desired) {
            ++perf_.filter_settles;
            // Resolves to the default, which already matches: free.
          } else if (sib_bit == 0 || (d.pfilter & sib_bit) == 0) {
            ++perf_.filter_settles;
            ++cost;  // mismatched default, provably no sibling to merge
          } else {
            settled = false;  // sibling maybe present: exact agg probe
          }
          break;
        case Kind::kMixedBare:
          // No default: a filter miss means resolve finds nothing at all.
          if (maybe_match(d)) {
            settled = false;
          } else {
            ++perf_.filter_settles;
            ++cost;
          }
          break;
      }
      if (!settled) {
        defer[i] = 1;
        any_defer = true;
      }
    }
    if (cost >= limit) {
      ++perf_.bound_skips;
      return cost;
    }
    if (!any_defer) return cost;
    for (std::size_t i = 0; i < score_hops.size(); ++i) {
      if (defer[i] == 0) continue;
      const ScoreHop& h = score_hops[i];
      ++perf_.hop_evals;
      cost += fast_hop_cost(*h.tbl, h.sw, dir, h.in, tag0, origin, h.desired);
      if (cost >= limit) {
        ++perf_.bound_skips;
        return cost;
      }
    }
    return cost;
  };

  const auto cost_of = [&](PolicyTag tag0, std::uint32_t limit) {
    ++perf_.candidates_scored;
    return options_.fastpath ? fast_cost_of(tag0, limit)
                             : legacy_cost_of(tag0, limit);
  };

  auto best_cost = static_cast<std::uint32_t>(seg0_hops);  // brand-new tag
  PolicyTag best_tag{};
  const std::size_t cap = options_.max_candidates;
  // Clause-home tags: while the budget still holds a fresh tag for every
  // segment of this path (counted from live tags -- free_tags_ can hold
  // tags taken live again), a keyed install skips tags homed to another
  // key.  Past that point Step 1 is the plain greedy scan.
  const bool keep_home =
      home != kNoHome && tag_refs_.size() + plan.segments <= tag_bound();
  const auto homed_elsewhere = [&](PolicyTag t) {
    if (!keep_home || t.value() >= tag_home_.size()) return false;
    const std::uint64_t h = tag_home_[t.value()];
    return h != kNoHome && h != home;
  };
  if (pin) {
    if (tag_used_by_bs(bsd, *hint))
      throw std::logic_error("install: pinned tag already used here");
    best_tag = *hint;
    // Full scoring warms the memo for this install's Step-2 commit.
    best_cost = cost_of(*hint, std::numeric_limits<std::uint32_t>::max());
  } else if (options_.reuse_tags && options_.fastpath) {
    // sc-lint: hotpath(candidate-scan) -- Step 1's lazy candidate
    // enumeration; bounded by the scan budget, must stay allocation-light
    // and lock-free (the shard controller's writer lock is already held).
    // Lazy candTag search: candidates are produced in the reference order
    // (clause hint, then recently used tags, then tags present on the
    // path's switches) but scored as they appear, and enumeration stops at
    // the first zero-cost candidate -- the eager scan's selection loop
    // would pick it and break there too, so the chosen tag is identical
    // while hint-settled installs skip the index scan entirely.
    if (mark_.empty()) mark_.assign(std::size_t{1} << 16, 0);
    if (++mark_gen_ == 0) {
      std::fill(mark_.begin(), mark_.end(), 0);
      mark_gen_ = 1;
    }
    std::size_t accepted = 0;
    // Step 1 never touches bs_tags_ (ref_tag runs only in Step 2), so the
    // per-bs filter sets can be resolved once for the whole scan instead of
    // once per candidate.
    const auto find_bs_set = [&](std::uint64_t key) -> const FlatSet<PolicyTag>* {
      const auto it = bs_tags_.find(key);
      return it != bs_tags_.end() ? &it->second : nullptr;
    };
    const FlatSet<PolicyTag>* bsd_set = find_bs_set(bsd);
    const FlatSet<PolicyTag>* excl_set =
        exclude_also ? find_bs_set(*exclude_also) : nullptr;
    // False = stop enumerating (candidate cap reached or a zero-cost tag
    // won); the filter chain mirrors the eager consider() exactly.
    const auto try_candidate = [&](PolicyTag t) -> bool {
      if (cap != 0 && accepted >= cap) return false;
      if (!t.valid() || t == kDeliveryTag) return true;
      std::uint32_t& mark = mark_[t.value()];
      if (mark == mark_gen_) return true;
      mark = mark_gen_;
      if ((bsd_set != nullptr && bsd_set->contains(t)) ||
          (excl_set != nullptr && excl_set->contains(t)) ||
          homed_elsewhere(t))
        return true;
      ++accepted;
      const std::uint32_t c =
          cost_of(t, best_cost + (best_tag.valid() ? 0 : 1));
      // Prefer reuse on ties with the fresh-tag baseline (conserves tags);
      // among candidates, strictly better wins (hint/MRU first on ties).
      if (c < best_cost || (!best_tag.valid() && c == best_cost)) {
        best_cost = c;
        best_tag = t;
        if (c == 0) return false;
      }
      return true;
    };
    bool more = !hint || try_candidate(*hint);
    if (more) {
      std::size_t mru_taken = 0;
      for (PolicyTag t : mru_) {
        if (mru_taken++ >= options_.mru_candidates) break;
        if (!(more = try_candidate(t))) break;
      }
    }
    if (more) {
      std::size_t scanned = 0;
      const std::size_t scan_budget = cap == 0 ? SIZE_MAX : cap * 8;
      for (const PathHop& hop : planned) {
        for (const auto& [t, use] : table(hop.sw).tag_usage(dir)) {
          ++perf_.candidate_scans;
          if (++scanned > scan_budget || !try_candidate(t)) {
            more = false;
            break;
          }
        }
        if (!more) break;
      }
    }
    // sc-lint: endhotpath(candidate-scan)
  } else if (options_.reuse_tags) {
    // Reference mode: eager candidate gathering (the pre-fast-path code),
    // then the selection loop over the gathered list.
    auto& cands = scratch_.cands;
    cands.clear();
    std::unordered_set<PolicyTag> dedup;
    const auto consider = [&](PolicyTag t) -> bool {
      if (cap != 0 && cands.size() >= cap) return false;
      if (!t.valid() || t == kDeliveryTag || dedup.contains(t) ||
          tag_used_by_bs(bsd, t) ||
          (exclude_also && tag_used_by_bs(*exclude_also, t)) ||
          homed_elsewhere(t))
        return true;
      dedup.insert(t);
      cands.push_back(t);
      return true;
    };
    if (hint) consider(*hint);
    std::size_t mru_taken = 0;
    for (PolicyTag t : mru_) {
      if (mru_taken++ >= options_.mru_candidates) break;
      if (!consider(t)) break;
    }
    // Scan tags present on the path's switches, with a hard budget on
    // entries examined: without it the scan degenerates to O(total tags)
    // per install once the candidate pool is larger than the cap.
    std::size_t scanned = 0;
    const std::size_t scan_budget = cap == 0 ? SIZE_MAX : cap * 8;
    bool full = false;
    for (const PathHop& hop : planned) {
      for (const auto& [t, use] : table(hop.sw).tag_usage(dir)) {
        ++perf_.candidate_scans;
        if (++scanned > scan_budget || !consider(t)) {
          full = true;
          break;
        }
      }
      if (full) break;
    }
    for (PolicyTag t : cands) {
      const std::uint32_t c =
          cost_of(t, best_cost + (best_tag.valid() ? 0 : 1));
      // Prefer reuse on ties with the fresh-tag baseline (conserves tags);
      // among candidates, strictly better wins (hint/MRU first on ties).
      if (c < best_cost || (!best_tag.valid() && c == best_cost)) {
        best_cost = c;
        best_tag = t;
        if (c == 0) break;
      }
    }
  }

  // --- Step 2: install. ---
  InstallResult result;
  result.reused_tag = best_tag.valid();
  SmallVector<PolicyTag, 8> seg_tags;
  seg_tags.resize(plan.segments, PolicyTag{});
  // Each tag is referenced as soon as it is chosen: the winning candidate
  // may be a free tag (from the MRU list) that alloc_tag() would otherwise
  // hand out again for a later segment.  A fresh tag is never live, so it
  // cannot collide with the excluded partner namespace.  If the budget
  // runs dry before the last segment has a tag, the path takes none.
  const auto seg_key = [&](std::uint32_t s) {
    return (static_cast<std::uint64_t>(seg_tags[0].value()) << 8) | s;
  };
  try {
    for (std::uint32_t s = 0; s < plan.segments; ++s) {
      // Prefer the tag other paths with the same primary tag used for this
      // segment -- their segment rules then share and aggregate too.
      PolicyTag cand = best_tag;
      if (s > 0) {
        const auto it = seg_hints_.find(seg_key(s));
        cand = it != seg_hints_.end() ? it->second : PolicyTag{};
        if (cand.valid() && tag_used_by_bs(bsd, cand)) cand = PolicyTag{};
      }
      seg_tags[s] = cand.valid() ? cand : alloc_tag();
      ref_tag(seg_tags[s], bsd, home);
    }
  } catch (const TagBudgetExhausted&) {
    for (PolicyTag t : seg_tags)
      if (t.valid()) unref_tag(t, bsd);
    throw;
  }
  for (std::uint32_t s = 1; s < plan.segments; ++s)
    seg_hints_[seg_key(s)] = seg_tags[s];

  // The reliance log doubles as the rollback log, so it is always built;
  // it is only *retained* when track_paths is set (in which case its
  // buffers are donated to the record and the scratch re-grows).
  PathRecord& rec = scratch_.rec;
  rec.bs_dir = bsd;
  rec.tags.assign(seg_tags.begin(), seg_tags.end());
  rec.reliances.clear();
  PathRecord* recp = &rec;

  std::int32_t delta = 0;
  NodeId committing{};  // switch being programmed (for PathRejected::sw)
  try {
    for (std::size_t i = 0; i < planned.size(); ++i) {
      const PathHop& hop = planned[i];
      committing = hop.sw;
      const HopPlan& hp = plan.hops[i];
      const bool specific = hop.from_middlebox || hp.force_inport;
      const InPortSpec in =
          specific ? InPortSpec::from(hop.in_from) : InPortSpec::any();
      RuleAction desired;
      if (use_delivery && i == boundary) {
        desired = kHandOff;
      } else {
        desired.out_to = hop.out_to;
        if (hp.swap_next) desired.set_tag = seg_tags[hp.segment + 1];
      }
      delta += commit_rule(hop.sw, in, seg_tags[hp.segment], desired, origin,
                           dir, specific, recp);
    }

    // Delivery hops under the shared tag: location-keyed prefix rules on
    // the downlink, a destination-independent default chain toward the
    // gateway on the uplink.  These rules are shared by every policy path.
    if (use_delivery) {
      for (std::size_t i = boundary; i < n; ++i) {
        const PathHop& hop = path.fabric[i];
        committing = hop.sw;
        const RuleAction act{hop.out_to, std::nullopt};
        const Prefix match = dir == Direction::kDownlink ? origin : Prefix{};
        delta += commit_rule(hop.sw, InPortSpec::any(), kDeliveryTag, act,
                             match, dir, /*class_only=*/false, recp);
      }
    }

    // Delivery tail through ring access switches: location-only rules.
    for (const PathHop& hop : path.access_tail) {
      committing = hop.sw;
      SwitchTable& tbl = mutable_table(hop.sw);
      const auto before = static_cast<std::int32_t>(tbl.rule_count());
      tbl.add_location_rule(dir, origin, RuleAction{hop.out_to, std::nullopt});
      emit(RuleOp::Kind::kAddLocation, hop.sw, dir, InPortSpec::any(),
           PolicyTag{}, origin, RuleAction{hop.out_to, std::nullopt});
      delta += static_cast<std::int32_t>(tbl.rule_count()) - before;
      recp->reliances.push_back(Reliance{Reliance::Kind::kLocation, hop.sw,
                                         InPortSpec::any(), PolicyTag{},
                                         origin, dir});
    }
  } catch (const SwitchTable::TableFull&) {
    // Roll the whole path back (section 7: the request is denied, never
    // half-installed).
    release_reliances(rec);
    for (PolicyTag t : seg_tags) unref_tag(t, bsd);
    throw PathRejected(committing);
  }

  touch_mru(seg_tags[0]);

  result.tag = seg_tags[0];
  result.new_rules = delta;
  result.extra_tags = plan.segments - 1;
  if (options_.track_paths) {
    result.path = PathId(next_path_++);
    records_.emplace(result.path, std::move(rec));
  }
  return result;
}

PathId AggregationEngine::install_ue_shortcut(
    Direction dir, PolicyTag tag, Prefix ue32,
    const std::vector<PathHop>& hops) {
  if (!options_.track_paths)
    throw std::logic_error("install_ue_shortcut: requires track_paths");
  if (ue32.len() != 32)
    throw std::invalid_argument("install_ue_shortcut: need a /32 LocIP");
  PathRecord rec;
  for (const PathHop& hop : hops) {
    SwitchTable& tbl = mutable_table(hop.sw);
    const InPortSpec in = hop.from_middlebox ? InPortSpec::from(hop.in_from)
                                             : InPortSpec::any();
    tbl.add_prefix_rule(dir, in, tag, ue32,
                        RuleAction{hop.out_to, std::nullopt});
    emit(RuleOp::Kind::kAddPrefix, hop.sw, dir, in, tag, ue32,
         RuleAction{hop.out_to, std::nullopt});
    rec.reliances.push_back(
        Reliance{Reliance::Kind::kPrefix, hop.sw, in, tag, ue32, dir});
  }
  const PathId id(next_path_++);
  records_.emplace(id, std::move(rec));
  return id;
}

void AggregationEngine::release_reliances(const PathRecord& rec) {
  for (const Reliance& r : rec.reliances) {
    SwitchTable& tbl = mutable_table(r.sw);
    switch (r.kind) {
      case Reliance::Kind::kDefault:
        tbl.release_default(r.dir, r.in, r.tag);
        emit(RuleOp::Kind::kReleaseDefault, r.sw, r.dir, r.in, r.tag, {}, {});
        break;
      case Reliance::Kind::kPrefix:
        tbl.release_prefix_rule(r.dir, r.in, r.tag, r.pre);
        emit(RuleOp::Kind::kReleasePrefix, r.sw, r.dir, r.in, r.tag, r.pre,
             {});
        break;
      case Reliance::Kind::kLocation:
        tbl.release_location_rule(r.dir, r.pre);
        emit(RuleOp::Kind::kReleaseLocation, r.sw, r.dir, r.in, PolicyTag{},
             r.pre, {});
        break;
    }
  }
}

void AggregationEngine::remove(PathId id) {
  const auto it = records_.find(id);
  if (it == records_.end())
    throw std::invalid_argument("AggregationEngine::remove: unknown path");
  const PathRecord& rec = it->second;
  release_reliances(rec);
  for (PolicyTag t : rec.tags) unref_tag(t, rec.bs_dir);
  records_.erase(it);
}

// --- verification ----------------------------------------------------------------

AggregationEngine::WalkResult AggregationEngine::walk(const ExpandedPath& path,
                                                      PolicyTag tag,
                                                      Prefix origin) const {
  WalkResult out;
  PolicyTag cur = tag;
  const Ipv4Addr addr = origin.addr();

  std::vector<const PathHop*> hops;
  hops.reserve(path.fabric.size() + path.access_tail.size());
  for (const auto& h : path.fabric) hops.push_back(&h);
  for (const auto& h : path.access_tail) hops.push_back(&h);

  for (const PathHop* h : hops) {
    auto hit = table(h->sw).lookup(path.dir, h->in_from, cur, addr);
    // Resubmits (multi-table goto) re-match at the same switch with the
    // rewritten transit tag.
    for (int depth = 0; hit && hit->action.resubmit; ++depth) {
      if (depth > 4) {
        out.error = "resubmit loop";
        return out;
      }
      if (hit->action.set_tag) cur = *hit->action.set_tag;
      hit = table(h->sw).lookup(path.dir, h->in_from, cur, addr);
    }
    if (!hit) {
      std::ostringstream os;
      os << "no rule at node " << h->sw.value() << " for tag " << cur.value();
      out.error = os.str();
      return out;
    }
    if (hit->action.out_to != h->out_to) {
      std::ostringstream os;
      os << "misrouted at node " << h->sw.value() << ": got "
         << hit->action.out_to.value() << " want " << h->out_to.value();
      out.error = os.str();
      return out;
    }
    if (hit->action.set_tag) cur = *hit->action.set_tag;
    out.steps.push_back(WalkStep{h->sw, cur});
  }
  out.ok = true;
  return out;
}

// --- stats -------------------------------------------------------------------------

std::size_t AggregationEngine::total_rules() const {
  std::size_t n = 0;
  for (const auto& t : tables_) n += t.rule_count();
  return n;
}

AggregationEngine::TableStats AggregationEngine::table_stats() const {
  TableStats s;
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    const NodeId id(static_cast<std::uint32_t>(i));
    const auto kind = graph_->kind(id);
    if (kind == NodeKind::kAggSwitch || kind == NodeKind::kCoreSwitch ||
        kind == NodeKind::kGatewaySwitch) {
      s.fabric_sizes.push_back(tables_[i].rule_count());
      s.type1 += tables_[i].type1_count();
      s.type2 += tables_[i].type2_count();
      s.type3 += tables_[i].type3_count();
    } else if (kind == NodeKind::kAccessSwitch) {
      s.access_sizes.push_back(tables_[i].rule_count());
      s.type1 += tables_[i].type1_count();
      s.type2 += tables_[i].type2_count();
      s.type3 += tables_[i].type3_count();
    }
  }
  return s;
}

}  // namespace softcell
