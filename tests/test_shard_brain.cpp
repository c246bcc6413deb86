// Shard-brain proof corpus (DESIGN.md section 16): the partitioned brain
// (per-shard UE state + one shared core behind the flat-combining commit
// stage) must be OBSERVABLY identical to the legacy per-shard-clone
// controller.  Three layers of evidence:
//
//   1. Unit contracts on the commit stage and view lifecycle:
//      read-your-writes (a returned tag is in every snapshot loaded
//      after), warm-hit short-circuit, staleness healing after
//      out-of-band core mutations, canonical-fingerprint stability.
//   2. A scripted differential: the same attach / flow / handoff /
//      failover sequence replayed on a shard-brain network and a legacy
//      network must land on bit-identical control fingerprints.
//   3. The randomized chaos corpus: every seed's full event digest
//      (per-packet observables, order-sensitive FNV-1a) must match
//      between the two modes, across the same bands the slab
//      differential uses (default, runtime workers, shortcuts off).
#include "runtime/shard_brain.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "chaos/harness.hpp"
#include "runtime/sharded_controller.hpp"
#include "sim/network.hpp"

namespace softcell {
namespace {

constexpr Ipv4Addr kServer = 0x08080808u;

class ShardBrainTest : public ::testing::Test {
 protected:
  ShardBrainTest()
      : topo_({.k = 4, .seed = 3}),
        brain_(topo_, make_table1_policy(), {.shards = 4}) {}

  UeId provision(std::uint32_t provider = 0,
                 BillingPlan plan = BillingPlan::kSilver) {
    const UeId ue(next_++);
    SubscriberProfile p;
    p.ue = ue;
    p.provider = provider;
    p.plan = plan;
    brain_.provision_subscriber(ue, p);
    return ue;
  }

  ClauseId clause_for(AppType app) {
    SubscriberProfile p;
    p.provider = 0;
    p.plan = BillingPlan::kSilver;
    const auto policy = brain_.policy_snapshot();  // outlives *c
    const auto* c = policy->match(p, app);
    EXPECT_NE(c, nullptr);
    return c->id;
  }

  CellularTopology topo_;
  ShardBrain brain_;
  std::uint32_t next_ = 1;
};

TEST_F(ShardBrainTest, CommitPublishesViewBeforeReturning) {
  const UeId ue = provision();
  const auto clause = clause_for(AppType::kWeb);
  const auto tag = brain_.request_policy_path(ue, 5, clause);
  // Read-your-writes: the slot loaded after the commit returned must
  // already carry the tag -- no "install done, view lagging" window.
  const auto seen = brain_.committer().slots().get(clause, 5);
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(*seen, tag);
  EXPECT_GT(brain_.committer().publishes(), 0u);
}

TEST_F(ShardBrainTest, WarmHitSkipsCommitStage) {
  const UeId ue = provision();
  const auto clause = clause_for(AppType::kWeb);
  const auto t1 = brain_.request_policy_path(ue, 2, clause);
  const auto publishes = brain_.committer().publishes();
  const auto version = brain_.committer().slots().version();
  const auto installs = brain_.core().path_installs();
  // Second request resolves from the published slot: same tag, no new
  // publish, no re-tag, no core install.
  const auto t2 = brain_.request_policy_path(ue, 2, clause);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(brain_.committer().publishes(), publishes);
  EXPECT_EQ(brain_.committer().slots().version(), version);
  EXPECT_EQ(brain_.core().path_installs(), installs);
}

TEST_F(ShardBrainTest, BatchTagsMatchSingleRequests) {
  const UeId ue = provision();
  const auto web = clause_for(AppType::kWeb);
  const auto voip = clause_for(AppType::kVoip);
  const std::vector<Controller::PathRequest> reqs = {
      {.bs = 1, .clause = web},
      {.bs = 3, .clause = voip},
      {.bs = 1, .clause = web},  // duplicate inside one batch
  };
  const auto tags = brain_.request_policy_paths(ue, reqs);
  ASSERT_EQ(tags.size(), 3u);
  EXPECT_EQ(tags[0], tags[2]);
  EXPECT_EQ(tags[0], brain_.request_policy_path(ue, 1, web));
  EXPECT_EQ(tags[1], brain_.request_policy_path(ue, 3, voip));
}

TEST_F(ShardBrainTest, ShardRoutingMatchesLegacyClones) {
  // Same splitmix64 partition as the legacy sharded controller, so the
  // differential corpus exercises identical per-shard request streams.
  ShardedController legacy(topo_, make_table1_policy(), {.shards = 4});
  ASSERT_EQ(brain_.shard_count(), legacy.shard_count());
  for (std::uint64_t u = 1; u <= 512; ++u)
    EXPECT_EQ(brain_.shard_of(UeId(u)), legacy.shard_of(UeId(u))) << u;
}

TEST_F(ShardBrainTest, FingerprintFoldInMatchesSingleBrain) {
  // Replay one request history against the brain and against a plain
  // single controller: the fold-in fingerprint must come out bit-equal.
  Controller single(topo_, make_table1_policy());
  const auto web = clause_for(AppType::kWeb);
  const auto video = clause_for(AppType::kVideo);
  for (std::uint32_t i = 1; i <= 24; ++i) {
    const UeId ue(1000 + i);
    SubscriberProfile p;
    p.ue = ue;
    p.provider = 0;
    p.plan = BillingPlan::kSilver;
    brain_.provision_subscriber(ue, p);
    single.provision_subscriber(ue, p);
    brain_.attach_ue(ue, i % 12, LocalUeId(i));
    single.attach_ue(ue, i % 12, LocalUeId(i));
    brain_.request_policy_path(ue, i % 12, web);
    single.request_policy_path(i % 12, web);
    if (i % 3 == 0) {
      brain_.request_policy_path(ue, i % 12, video);
      single.request_policy_path(i % 12, video);
    }
    if (i % 5 == 0) {
      brain_.detach_ue(ue);
      single.detach_ue(ue);
    }
  }
  EXPECT_EQ(brain_.state_fingerprint(), single.state_fingerprint());
}

TEST_F(ShardBrainTest, CanonicalFingerprintIsOrderIndependent) {
  // Two brains install the same (bs, clause) key set in opposite orders:
  // raw tag assignments differ, but recompact renumbers tags in canonical
  // clause-major order, so the canonical fingerprints must agree.  This is
  // the property that lets concurrent benches compare runs.
  const auto web = clause_for(AppType::kWeb);
  const auto voip = clause_for(AppType::kVoip);
  ShardBrain other(topo_, make_table1_policy(), {.shards = 4});
  const UeId ue = provision();
  SubscriberProfile p;
  p.ue = ue;
  p.provider = 0;
  p.plan = BillingPlan::kSilver;
  other.provision_subscriber(ue, p);
  for (std::uint32_t bs = 0; bs < 8; ++bs) {
    brain_.request_policy_path(ue, bs, web);
    brain_.request_policy_path(ue, bs, voip);
  }
  for (std::uint32_t bs = 8; bs-- > 0;) {
    other.request_policy_path(ue, bs, voip);
    other.request_policy_path(ue, bs, web);
  }
  EXPECT_EQ(brain_.canonical_fingerprint(), other.canonical_fingerprint());
}

TEST_F(ShardBrainTest, StaleViewHealsAfterDirectCoreMutation) {
  const UeId ue = provision();
  const auto clause = clause_for(AppType::kWeb);
  const auto old_tag = brain_.request_policy_path(ue, 4, clause);
  // Quiescent maintenance path: migrate straight on the core, bypassing
  // the commit stage.  The published slot still holds the old tag...
  const auto mig = brain_.core().migrate_path(4, clause);
  ASSERT_EQ(mig.old_tag, old_tag);
  const auto stale = brain_.committer().slots().get(clause, 4);
  ASSERT_TRUE(stale.has_value());
  EXPECT_EQ(*stale, old_tag);
  const auto version = brain_.committer().slots().version();
  // ...until the staleness mark forces the next reader to resync, as one
  // bulk re-tag.
  brain_.mark_view_stale();
  EXPECT_EQ(brain_.request_policy_path(ue, 4, clause), mig.new_tag);
  const auto healed = brain_.committer().slots().get(clause, 4);
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(*healed, mig.new_tag);
  EXPECT_EQ(brain_.committer().slots().version(), version + 2);
}

TEST_F(ShardBrainTest, FailoverRebuildRepartitionsByShard) {
  std::vector<std::pair<UeId, std::uint32_t>> placed;
  for (std::uint32_t i = 1; i <= 16; ++i) {
    const UeId ue = provision();
    brain_.attach_ue(ue, i % 12, LocalUeId(i));
    placed.emplace_back(ue, i % 12);
  }
  const auto before = brain_.state_fingerprint();
  brain_.fail_primary_replica();
  brain_.rebuild_locations([&](const auto& emit) {
    for (const auto& [ue, bs] : placed)
      emit(ue, UeLocation{.bs = bs, .local = LocalUeId(ue.value())});
  });
  for (const auto& [ue, bs] : placed) {
    const auto loc = brain_.ue_location(ue);
    ASSERT_TRUE(loc) << "lost UE " << ue.value();
    EXPECT_EQ(loc->bs, bs);
  }
  // Location ops never bump store versions, so the fingerprint survives
  // the failover round-trip -- same invariant the legacy store holds.
  EXPECT_EQ(brain_.state_fingerprint(), before);
}

// --- scripted network differential -----------------------------------------
// One deterministic end-to-end script (attach, flows, handoff, failover)
// replayed under both brain modes: the control fingerprints must be
// bit-identical at every checkpoint.

std::vector<std::uint64_t> run_script(unsigned topo_seed) {
  SoftCellNetwork net(SoftCellConfig{.topo = {.k = 4, .seed = topo_seed}},
                      make_table1_policy());
  std::vector<std::uint64_t> checkpoints;
  std::vector<UeId> ues;
  std::vector<SoftCellNetwork::FlowHandle> flows;
  for (std::uint32_t i = 0; i < 10; ++i) {
    SubscriberProfile p;
    p.plan = i % 2 ? BillingPlan::kGold : BillingPlan::kSilver;
    const UeId ue = net.add_subscriber(p);
    net.attach(ue, i % 12);
    ues.push_back(ue);
    flows.push_back(net.open_flow(ue, kServer + i, 80));
    EXPECT_TRUE(net.send_uplink(flows.back(), TcpFlag::kSyn).delivered);
  }
  checkpoints.push_back(net.control_fingerprint());

  for (std::uint32_t i = 0; i < 10; i += 2) {
    const auto ticket = net.handoff(ues[i], (i + 5) % 12);
    // Pre-handoff downlink rides the BS-BS tunnel; it must be delivered
    // before completion tears the tunnel down (the flow then ends).
    EXPECT_TRUE(net.send_downlink(flows[i]).delivered);
    EXPECT_TRUE(net.send_uplink(flows[i], TcpFlag::kFin).delivered);
    net.complete_handoff(ticket);
  }
  checkpoints.push_back(net.control_fingerprint());

  net.fail_controller_primary_and_recover();
  for (std::uint32_t i = 0; i < 10; ++i) {
    const auto f = net.open_flow(ues[i], kServer + 100 + i, 1935);
    EXPECT_TRUE(net.send_uplink(f, TcpFlag::kSyn).delivered);
  }
  net.detach(ues[3]);
  net.detach(ues[7]);
  checkpoints.push_back(net.control_fingerprint());
  return checkpoints;
}

TEST(ShardBrainDifferential, ScriptedFingerprintsMatchLegacy) {
  for (const unsigned seed : {7u, 19u, 31u}) {
    std::vector<std::uint64_t> brain, legacy;
    {
      ScopedBrainMode mode(true);
      brain = run_script(seed);
    }
    {
      ScopedBrainMode mode(false);
      legacy = run_script(seed);
    }
    ASSERT_EQ(brain, legacy) << "topo seed " << seed;
  }
}

// --- randomized chaos differential ------------------------------------------
// Same corpus shape as the slab differential: 25 seeds spread over three
// bands (default, runtime workers, shortcuts off), each run twice -- brain
// on, brain off -- and the full order-sensitive event digests must match.

chaos::ChaosOptions corpus_options(std::uint64_t seed) {
  chaos::ChaosOptions opt;
  if (seed > 170 && seed <= 190) opt.runtime_workers = 2;
  if (seed > 190) opt.install_shortcuts = false;
  return opt;
}

TEST(ShardBrainDifferential, ChaosDigestsMatchLegacy) {
  // SOFTCELL_CHAOS_SEEDS shrinks the corpus for expensive reruns (tier1.sh
  // uses it under ASan/TSan); unset means a 25-seed spread.
  std::size_t n = 25;
  if (const char* env = std::getenv("SOFTCELL_CHAOS_SEEDS")) {
    const auto parsed = std::strtoull(env, nullptr, 10);
    if (parsed > 0) n = static_cast<std::size_t>(parsed);
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t seed = 1 + (i * 199) / (n > 1 ? n - 1 : 1);
    const auto sc = chaos::Scenario::generate(seed);
    std::uint64_t brain_digest = 0, legacy_digest = 0;
    {
      ScopedBrainMode mode(true);
      const auto r = chaos::run_scenario(sc, corpus_options(seed));
      ASSERT_TRUE(r.ok) << "shard brain, seed " << seed;
      brain_digest = r.digest;
    }
    {
      ScopedBrainMode mode(false);
      const auto r = chaos::run_scenario(sc, corpus_options(seed));
      ASSERT_TRUE(r.ok) << "legacy brain, seed " << seed;
      legacy_digest = r.digest;
    }
    ASSERT_EQ(brain_digest, legacy_digest) << "seed " << seed;
  }
}

}  // namespace
}  // namespace softcell
