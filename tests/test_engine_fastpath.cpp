// Pins the Algorithm-1 fast path (EngineOptions::fastpath) to the
// pre-fast-path reference scan: identical tag choices, tag homes and rule
// state over randomized keyed workloads, exact tag recycling across
// uninstalls (a freed tag loses its home), and the
// incrementally maintained indexes (inverted tag-usage index, presence
// bitset, per-class digest) agreeing with recounts from the authoritative
// class map.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <vector>

#include "topo/cellular.hpp"
#include "topo/routing.hpp"
#include "util/rng.hpp"

namespace softcell {
namespace {

class EngineFastpathTest : public ::testing::Test {
 protected:
  EngineFastpathTest() : topo_({.k = 4, .seed = 7}), routes_(topo_.graph()) {}

  // One pseudo-random clause: a base station plus a UE-specific middlebox
  // chain, expanded in `dir`.  Mirrors bench_agg_fastpath's workload shape
  // (no hint, so every install runs the full candTag search).
  struct Clause {
    std::uint32_t bs = 0;
    ExpandedPath path;
  };
  Clause random_clause(Rng& rng, Direction dir, std::uint32_t bs_count) {
    Clause c;
    c.bs = rng.next_below(bs_count);
    std::vector<NodeId> instances;
    const std::uint32_t ntypes = topo_.num_middlebox_types();
    for (std::uint32_t t = 0; t < 3 && t < ntypes; ++t) {
      const auto& insts = topo_.instances_of_type(t);
      instances.push_back(
          topo_.middleboxes()[insts[rng.next_below(insts.size())]].node);
    }
    c.path = expand_policy_path(topo_.graph(), routes_, dir,
                                topo_.access_switch(c.bs), instances,
                                topo_.gateway(), topo_.internet());
    return c;
  }

  AggregationEngine make_engine(bool fastpath, bool track_paths = false,
                                std::uint32_t max_tags = 0) {
    EngineOptions opts;
    opts.fastpath = fastpath;
    opts.track_paths = track_paths;
    opts.max_candidates = 16;
    opts.max_tags = max_tags;
    return AggregationEngine(topo_.graph(), opts);
  }

  // An affinity key drawn next to each clause: one of five homes, or (one
  // draw in six) none, so keyed and unkeyed installs interleave.
  static std::optional<std::uint64_t> random_key(Rng& rng) {
    const std::uint64_t k = rng.next_below(6);
    if (k == 5) return std::nullopt;
    return k;
  }

  // Both engines hold the same home for every tag value ever allocated.
  static void expect_same_homes(const AggregationEngine& a,
                                const AggregationEngine& b) {
    ASSERT_EQ(a.tags_allocated(), b.tags_allocated());
    for (std::uint32_t t = 0; t < a.tags_allocated(); ++t) {
      const PolicyTag tag(static_cast<std::uint16_t>(t));
      ASSERT_EQ(a.tag_home(tag), b.tag_home(tag)) << "tag " << t;
    }
  }

  // Full per-switch, per-direction comparison of the two engines' rule
  // state: counts and the tag-usage index must be identical.
  void expect_same_tables(const AggregationEngine& a,
                          const AggregationEngine& b) {
    ASSERT_EQ(a.total_rules(), b.total_rules());
    ASSERT_EQ(a.tags_in_use(), b.tags_in_use());
    for (std::uint32_t n = 0; n < topo_.graph().node_count(); ++n) {
      const NodeId sw(n);
      const SwitchTable& ta = a.table(sw);
      const SwitchTable& tb = b.table(sw);
      ASSERT_EQ(ta.rule_count(), tb.rule_count()) << "switch " << n;
      for (const Direction dir : {Direction::kUplink, Direction::kDownlink}) {
        // Iterate-only comparison via the visitor form: collect and sort
        // instead of materializing two maps per (switch, direction).
        auto collect = [dir](const SwitchTable& t) {
          std::vector<std::pair<PolicyTag, std::uint32_t>> v;
          t.for_each_recounted_tag(
              dir, [&v](PolicyTag tag, std::uint32_t cnt) {
                v.emplace_back(tag, cnt);
              });
          std::sort(v.begin(), v.end(),
                    [](const auto& x, const auto& y) {
                      return x.first.value() < y.first.value();
                    });
          // Merge per-class contributions of the same tag.
          std::vector<std::pair<PolicyTag, std::uint32_t>> merged;
          for (const auto& [tag, cnt] : v) {
            if (!merged.empty() && merged.back().first == tag)
              merged.back().second += cnt;
            else
              merged.emplace_back(tag, cnt);
          }
          return merged;
        };
        ASSERT_EQ(collect(ta), collect(tb)) << "switch " << n;
      }
    }
  }

  CellularTopology topo_;
  RoutingOracle routes_;
};

// Tentpole pin: the indexed/memoized scoring path must pick the same tag
// and produce the same rule delta as the reference scan on every install
// of a randomized workload -- with affinity keys, both while the tag
// budget keeps clause homes and (max_tags 24) after it runs out and Step 1
// falls back to the greedy scan, where the busiest base stations also
// exhaust the budget outright.
TEST_F(EngineFastpathTest, RandomizedDifferentialMatchesReferenceScan) {
  for (const std::uint32_t max_tags : {0u, 24u}) {
    auto fast = make_engine(/*fastpath=*/true, /*track_paths=*/false, max_tags);
    auto ref = make_engine(/*fastpath=*/false, /*track_paths=*/false, max_tags);
    Rng rng_f(2024), rng_r(2024);
    constexpr std::uint32_t kClauses = 400;
    constexpr std::uint32_t kBs = 16;
    std::uint32_t exhausted = 0;
    for (std::uint32_t i = 0; i < kClauses; ++i) {
      const Direction dir =
          (i % 4 == 0) ? Direction::kUplink : Direction::kDownlink;
      const Clause cf = random_clause(rng_f, dir, kBs);
      const Clause cr = random_clause(rng_r, dir, kBs);
      const auto key = random_key(rng_f);
      ASSERT_EQ(key, random_key(rng_r));
      ASSERT_EQ(cf.bs, cr.bs);
      const auto install = [&](AggregationEngine& eng, const Clause& c)
          -> std::optional<AggregationEngine::InstallResult> {
        try {
          return eng.install(c.path, c.bs, topo_.bs_prefix(c.bs),
                             std::nullopt, false, std::nullopt, key);
        } catch (const AggregationEngine::TagBudgetExhausted&) {
          return std::nullopt;
        }
      };
      const auto rf = install(fast, cf);
      const auto rr = install(ref, cr);
      ASSERT_EQ(rf.has_value(), rr.has_value()) << "install " << i;
      if (!rf) {
        ++exhausted;
        continue;
      }
      ASSERT_EQ(rf->tag, rr->tag) << "install " << i;
      ASSERT_EQ(rf->new_rules, rr->new_rules) << "install " << i;
      ASSERT_EQ(rf->reused_tag, rr->reused_tag) << "install " << i;
    }
    expect_same_tables(fast, ref);
    expect_same_homes(fast, ref);
    if (max_tags == 0) {
      EXPECT_EQ(exhausted, 0u);
    } else {
      EXPECT_GT(exhausted, 0u);
      EXPECT_EQ(fast.tags_in_use(), max_tags);
    }
  }
}

// Same differential under uninstall churn: removals invalidate the memo
// and shrink the digest/index state, and subsequent installs must still
// agree with the reference scan.
TEST_F(EngineFastpathTest, DifferentialSurvivesUninstallChurn) {
  auto fast = make_engine(/*fastpath=*/true, /*track_paths=*/true);
  auto ref = make_engine(/*fastpath=*/false, /*track_paths=*/true);
  Rng rng_f(4711), rng_r(4711);
  constexpr std::uint32_t kBs = 12;
  std::vector<PathId> ids_f, ids_r;
  const auto install_both = [&](const char* phase, std::uint32_t i) {
    const Clause cf = random_clause(rng_f, Direction::kDownlink, kBs);
    const Clause cr = random_clause(rng_r, Direction::kDownlink, kBs);
    const auto key = random_key(rng_f);
    ASSERT_EQ(key, random_key(rng_r));
    const auto rf = fast.install(cf.path, cf.bs, topo_.bs_prefix(cf.bs),
                                 std::nullopt, false, std::nullopt, key);
    const auto rr = ref.install(cr.path, cr.bs, topo_.bs_prefix(cr.bs),
                                std::nullopt, false, std::nullopt, key);
    ASSERT_EQ(rf.tag, rr.tag) << phase << " install " << i;
    ASSERT_EQ(rf.new_rules, rr.new_rules) << phase << " install " << i;
    ids_f.push_back(rf.path);
    ids_r.push_back(rr.path);
  };
  for (std::uint32_t i = 0; i < 200; ++i) install_both("pre-churn", i);
  for (std::size_t i = 0; i < ids_f.size(); i += 3) {
    fast.remove(ids_f[i]);
    ref.remove(ids_r[i]);
  }
  expect_same_tables(fast, ref);
  expect_same_homes(fast, ref);
  // Freed tags come back live under the homes of their new first users.
  for (std::uint32_t i = 0; i < 120; ++i) install_both("post-churn", i);
  expect_same_tables(fast, ref);
  expect_same_homes(fast, ref);
  for (std::size_t i = 0; i < ids_f.size(); ++i) {
    if (i < 200 && i % 3 == 0) continue;  // removed above
    fast.remove(ids_f[i]);
    ref.remove(ids_r[i]);
  }
  // The last reference gone, no tag keeps a home.
  for (std::uint32_t t = 0; t < fast.tags_allocated(); ++t)
    ASSERT_FALSE(fast.tag_home(PolicyTag(static_cast<std::uint16_t>(t))))
        << "tag " << t;
  expect_same_homes(fast, ref);
}

// Directed tag recycling: install -> uninstall returns every per-tag
// structure to its pre-install state, and a reinstall draws from the free
// list instead of allocating fresh tag values.
TEST_F(EngineFastpathTest, TagRecyclingRestoresEngineState) {
  auto eng = make_engine(/*fastpath=*/true, /*track_paths=*/true);
  Rng rng(99);
  constexpr std::uint32_t kBs = 8;
  const std::size_t tags_before = eng.tags_in_use();  // delivery tag only
  ASSERT_EQ(eng.bs_tag_refs(), 0u);
  ASSERT_EQ(eng.free_tag_count(), 0u);
  const std::size_t rules_before = eng.total_rules();

  std::vector<PathId> ids;
  std::vector<Clause> clauses;
  for (std::uint32_t i = 0; i < 24; ++i)
    clauses.push_back(random_clause(rng, Direction::kDownlink, kBs));
  // Round one homes every tag to key i % 3 of its first user.
  std::unordered_map<std::uint16_t, std::uint64_t> first_key;
  for (std::uint32_t i = 0; i < clauses.size(); ++i) {
    const Clause& c = clauses[i];
    const auto r = eng.install(c.path, c.bs, topo_.bs_prefix(c.bs),
                               std::nullopt, false, std::nullopt, i % 3);
    first_key.try_emplace(r.tag.value(), i % 3);
    ids.push_back(r.path);
  }
  for (const auto& [tag, key] : first_key)
    EXPECT_EQ(eng.tag_home(PolicyTag(tag)), key) << "tag " << tag;
  const std::size_t allocated_after_install = eng.tags_allocated();
  const std::size_t in_use_after_install = eng.tags_in_use();
  ASSERT_GT(in_use_after_install, tags_before);

  for (const PathId id : ids) eng.remove(id);
  EXPECT_EQ(eng.tags_in_use(), tags_before);  // tag_refs_ fully drained
  EXPECT_EQ(eng.bs_tag_refs(), 0u);           // bs_tags_ fully drained
  EXPECT_EQ(eng.total_rules(), rules_before);
  EXPECT_EQ(eng.free_tag_count(), allocated_after_install - tags_before);
  for (std::uint32_t t = 0; t < eng.tags_allocated(); ++t)
    EXPECT_FALSE(eng.tag_home(PolicyTag(static_cast<std::uint16_t>(t))))
        << "freed tag " << t << " kept its home";

  // Reinstall the same workload under other keys: every tag comes off the
  // free list (no fresh allocations) and takes the home of its new first
  // user, though the candidate search may settle on fewer tags than round
  // one -- the MRU seed list now remembers round one.
  ids.clear();
  first_key.clear();
  for (std::uint32_t i = 0; i < clauses.size(); ++i) {
    const Clause& c = clauses[i];
    const auto r = eng.install(c.path, c.bs, topo_.bs_prefix(c.bs),
                               std::nullopt, false, std::nullopt, 3 + i % 3);
    first_key.try_emplace(r.tag.value(), 3 + i % 3);
    ids.push_back(r.path);
  }
  for (const auto& [tag, key] : first_key)
    EXPECT_EQ(eng.tag_home(PolicyTag(tag)), key) << "tag " << tag;
  EXPECT_EQ(eng.tags_allocated(), allocated_after_install);
  EXPECT_LE(eng.tags_in_use(), in_use_after_install);
  for (const PathId id : ids) eng.remove(id);
  EXPECT_EQ(eng.tags_in_use(), tags_before);
  EXPECT_EQ(eng.bs_tag_refs(), 0u);
  EXPECT_EQ(eng.total_rules(), rules_before);
}

// Property: after arbitrary install/uninstall churn the incrementally
// maintained per-(switch, direction) inverted index -- and the presence
// bitset and structural epochs layered on it -- agree with a recount from
// the authoritative class map.
TEST_F(EngineFastpathTest, InvertedIndexMatchesRecountAfterChurn) {
  auto eng = make_engine(/*fastpath=*/true, /*track_paths=*/true);
  Rng rng(1234);
  constexpr std::uint32_t kBs = 10;
  std::vector<PathId> live;
  for (std::uint32_t round = 0; round < 300; ++round) {
    const bool remove_one = !live.empty() && rng.next_below(3) == 0;
    if (remove_one) {
      const std::size_t pick = rng.next_below(live.size());
      eng.remove(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    } else {
      const Direction dir = rng.next_below(2) == 0 ? Direction::kUplink
                                                   : Direction::kDownlink;
      const Clause c = random_clause(rng, dir, kBs);
      live.push_back(
          eng.install(c.path, c.bs, topo_.bs_prefix(c.bs), std::nullopt).path);
    }
  }
  for (std::uint32_t n = 0; n < topo_.graph().node_count(); ++n) {
    const SwitchTable& tbl = eng.table(NodeId(n));
    for (const Direction dir : {Direction::kUplink, Direction::kDownlink}) {
      const auto recount = tbl.debug_recount_tag_usage(dir);
      // Index == recount, exactly (same keys, same counts).
      std::size_t indexed = 0;
      for (const auto& [tag, use] : tbl.tag_usage(dir)) {
        ++indexed;
        const auto it = recount.find(tag);
        ASSERT_NE(it, recount.end())
            << "switch " << n << ": stale index entry for tag " << tag.value();
        ASSERT_EQ(use.count, it->second)
            << "switch " << n << " tag " << tag.value();
        ASSERT_GT(use.epoch, 0u);
      }
      ASSERT_EQ(indexed, recount.size()) << "switch " << n;
      // Presence bitset and epoch agree with the index for every tag value
      // ever allocated.
      for (std::uint32_t t = 0; t < eng.tags_allocated(); ++t) {
        const PolicyTag tag(static_cast<std::uint16_t>(t));
        const bool present = recount.contains(tag);
        ASSERT_EQ(tbl.carries_tag(dir, tag), present)
            << "switch " << n << " tag " << t;
        ASSERT_EQ(tbl.tag_epoch(dir, tag) != 0, present)
            << "switch " << n << " tag " << t;
      }
    }
  }
}

// Property: the dense per-class digest agrees with the origin-free class
// summary, and its origin-specific claims hold against real resolves.
TEST_F(EngineFastpathTest, DigestAgreesWithClassStateAfterChurn) {
  auto eng = make_engine(/*fastpath=*/true, /*track_paths=*/true);
  Rng rng(5678);
  constexpr std::uint32_t kBs = 10;
  std::vector<PathId> live;
  for (std::uint32_t round = 0; round < 250; ++round) {
    if (!live.empty() && rng.next_below(4) == 0) {
      const std::size_t pick = rng.next_below(live.size());
      eng.remove(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    } else {
      const Clause c = random_clause(rng, Direction::kDownlink, kBs);
      live.push_back(
          eng.install(c.path, c.bs, topo_.bs_prefix(c.bs), std::nullopt).path);
    }
  }
  using Digest = SwitchTable::Digest;
  for (std::uint32_t n = 0; n < topo_.graph().node_count(); ++n) {
    const SwitchTable& tbl = eng.table(NodeId(n));
    for (const Direction dir : {Direction::kUplink, Direction::kDownlink}) {
      const auto* col = tbl.digest_column(dir, InPortSpec::any());
      for (std::uint32_t t = 0; t < eng.tags_allocated(); ++t) {
        const PolicyTag tag(static_cast<std::uint16_t>(t));
        const Digest d = SwitchTable::digest_at(col, tag);
        const auto s = tbl.class_summary(dir, InPortSpec::any(), tag);
        switch (s.kind) {
          case SwitchTable::ClassSummary::Kind::kAbsent:
            ASSERT_EQ(d.kind, Digest::Kind::kAbsent);
            break;
          case SwitchTable::ClassSummary::Kind::kDefaultOnly:
            ASSERT_EQ(d.kind, Digest::Kind::kDefaultOnly);
            ASSERT_EQ(d.act, s.def);
            // pfilter is rebuilt exactly on every refresh; len_mask is a
            // conservative superset (bits are never cleared on removal).
            ASSERT_EQ(d.pfilter, 0u);
            break;
          case SwitchTable::ClassSummary::Kind::kMixed:
            ASSERT_NE(d.kind, Digest::Kind::kAbsent);
            ASSERT_NE(d.kind, Digest::Kind::kDefaultOnly);
            ASSERT_NE(d.pfilter, 0u);  // at least one prefix entry
            ASSERT_NE(d.len_mask, 0u);
            break;
        }
        // Origin-specific spot checks: for single-action kinds every
        // origin must resolve to the digest's action; a Bloom-filter miss
        // must mean resolve falls through past the prefix tier.
        for (std::uint32_t b = 0; b < kBs; ++b) {
          const Prefix origin = topo_.bs_prefix(b);
          const auto r = tbl.resolve(dir, InPortSpec::any(), tag, origin,
                                     /*fall_through=*/true);
          if (d.kind == Digest::Kind::kDefaultOnly ||
              d.kind == Digest::Kind::kCovered) {
            ASSERT_TRUE(r.has_value());
            ASSERT_EQ(r->action, d.act);
          } else if (d.kind == Digest::Kind::kUniform && r.has_value()) {
            ASSERT_EQ(r->action, d.act);
          }
          std::uint64_t q = 0;
          for (std::uint32_t len = 0; len <= origin.len(); ++len) {
            if ((d.len_mask >> len) & 1)
              q |= SwitchTable::pfilter_bit(
                  Prefix(origin.addr(), static_cast<std::uint8_t>(len)));
          }
          if ((d.pfilter & q) == 0 && r.has_value()) {
            // No prefix entry can contain the origin: the resolve must
            // have come from a default.
            ASSERT_TRUE(r->is_default)
                << "switch " << n << " tag " << t << " bs " << b;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace softcell
