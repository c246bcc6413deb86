// Shard-brain proof corpus (DESIGN.md section 16): the partitioned brain
// (per-shard UE state + one shared core behind the flat-combining commit
// stage) must be OBSERVABLY identical to one plain Controller serving the
// same requests.  Three layers of evidence:
//
//   1. Unit contracts on the commit stage and view lifecycle:
//      read-your-writes (a returned tag is in every snapshot loaded
//      after), warm-hit short-circuit, staleness healing after
//      out-of-band core mutations, canonical-fingerprint stability.
//   2. A seeded random differential: provisions, attaches, detaches,
//      location updates, path and m2m requests and one failover, applied
//      to a brain and to a single Controller, must keep their state
//      fingerprints and answers equal after every step.
//   3. Golden checkpoints: one deterministic end-to-end script (attach,
//      flows, handoff, failover) must land on recorded control
//      fingerprints.
//   4. A chaos differential: a spread of the randomized chaos corpus must
//      replay to the event digests the legacy per-shard-clone brain
//      recorded (tests/chaos_corpus.hpp).
#include "runtime/shard_brain.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "chaos_corpus.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

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

TEST_F(ShardBrainTest, ShardRoutingIsSplitmix64) {
  // shard(ue) = splitmix64(ue) % N, written out here so a change to the
  // partition shows up as a test diff.
  const auto splitmix64 = [](std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  ASSERT_EQ(brain_.shard_count(), 4u);
  std::set<std::size_t> used;
  for (std::uint64_t u = 1; u <= 512; ++u) {
    const std::size_t shard = brain_.shard_of(UeId(u));
    EXPECT_EQ(shard, splitmix64(u) % 4) << u;
    used.insert(shard);
  }
  EXPECT_EQ(used.size(), 4u);
}

// Field-wise view of a classifier set, for equality checks.
std::vector<std::tuple<AppType, std::uint32_t, bool, int>> view(
    const std::vector<PacketClassifier>& set) {
  std::vector<std::tuple<AppType, std::uint32_t, bool, int>> out;
  for (const PacketClassifier& c : set)
    out.emplace_back(c.app, c.clause.value(), c.allow,
                     c.tag ? static_cast<int>(c.tag->value()) : -1);
  return out;
}

TEST_F(ShardBrainTest, FingerprintFoldInMatchesSingleBrain) {
  // A seeded random request history applied to a brain and to one plain
  // Controller: the fold-in fingerprint must come out bit-equal after every
  // step, and every answer must agree.  Midway both fail their primary
  // replica and rebuild locations from the same location list.
  const std::uint32_t num_bs = topo_.num_base_stations();
  const auto policy = brain_.policy_snapshot();
  std::vector<ClauseId> clauses;
  for (const auto& c : policy->clauses()) clauses.push_back(c.id);
  constexpr std::uint32_t kUes = 40;
  constexpr int kSteps = 240;

  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    for (const std::size_t shards : {1u, 4u, 8u}) {
      ShardBrain brain(topo_, make_table1_policy(), {.shards = shards});
      Controller single(topo_, make_table1_policy());
      Rng rng = Rng::stream(seed, shards);
      std::set<std::uint32_t> provisioned;
      std::map<std::uint32_t, UeLocation> attached;  // the agents' view
      const int fail_at = kSteps / 2 + static_cast<int>(rng.next_below(40));
      const auto any_ue = [&] {
        return static_cast<std::uint32_t>(1 + rng.next_below(kUes));
      };
      const auto any_bs = [&] {
        return static_cast<std::uint32_t>(rng.next_below(num_bs));
      };
      const auto any_clause = [&] {
        return clauses[rng.next_below(clauses.size())];
      };
      const auto pick = [&](const auto& keys) {
        auto it = keys.begin();
        std::advance(it,
                     static_cast<std::ptrdiff_t>(rng.next_below(keys.size())));
        return UeId(*it);
      };
      std::vector<std::uint32_t> attached_ids;
      for (int step = 0; step < kSteps; ++step) {
        std::string op;
        attached_ids.clear();
        for (const auto& [ue, loc] : attached) attached_ids.push_back(ue);
        if (step == fail_at) {
          op = "failover";
          brain.fail_primary_replica();
          single.fail_primary_replica();
          const auto query = [&](const auto& emit) {
            for (const auto& [ue, loc] : attached) emit(UeId(ue), loc);
          };
          brain.rebuild_locations(query);
          single.rebuild_locations(query);
        } else {
          switch (rng.next_below(8)) {
            case 0: {  // (re-)provision any UE
              op = "provision";
              const UeId ue(any_ue());
              SubscriberProfile p;
              p.ue = ue;
              p.provider = static_cast<std::uint32_t>(rng.next_below(2));
              p.plan = static_cast<BillingPlan>(rng.next_below(3));
              p.device = static_cast<DeviceClass>(rng.next_below(5));
              brain.provision_subscriber(ue, p);
              single.provision_subscriber(ue, p);
              provisioned.insert(ue.value());
              break;
            }
            case 1: {  // attach a provisioned, detached UE
              op = "attach";
              std::vector<std::uint32_t> idle;
              for (const auto ue : provisioned)
                if (!attached.contains(ue)) idle.push_back(ue);
              if (idle.empty()) break;
              const UeId ue = pick(idle);
              const UeLocation loc{any_bs(), LocalUeId(ue.value())};
              brain.attach_ue(ue, loc.bs, loc.local);
              single.attach_ue(ue, loc.bs, loc.local);
              attached[ue.value()] = loc;
              break;
            }
            case 2: {  // detach
              op = "detach";
              if (attached_ids.empty()) break;
              const UeId ue = pick(attached_ids);
              brain.detach_ue(ue);
              single.detach_ue(ue);
              attached.erase(ue.value());
              break;
            }
            case 3: {  // handoff: update_location
              op = "update_location";
              if (attached_ids.empty()) break;
              const UeId ue = pick(attached_ids);
              const UeLocation loc{any_bs(), LocalUeId(ue.value() + 100)};
              brain.update_location(ue, loc.bs, loc.local);
              single.update_location(ue, loc.bs, loc.local);
              attached[ue.value()] = loc;
              ASSERT_EQ(brain.ue_location(ue)->bs, loc.bs);
              break;
            }
            case 4: {  // one policy path
              op = "policy_path";
              const UeId ue(any_ue());
              const std::uint32_t bs = any_bs();
              const ClauseId clause = any_clause();
              ASSERT_EQ(brain.request_policy_path(ue, bs, clause),
                        single.request_policy_path(bs, clause));
              break;
            }
            case 5: {  // a batch of policy paths, duplicates allowed
              op = "policy_paths";
              std::vector<Controller::PathRequest> reqs;
              for (int i = 0; i < 3; ++i)
                reqs.push_back({.bs = any_bs(), .clause = any_clause()});
              ASSERT_EQ(brain.request_policy_paths(UeId(any_ue()), reqs),
                        single.request_policy_paths(reqs));
              break;
            }
            case 6: {  // m2m half-path
              op = "m2m_path";
              const std::uint32_t src = any_bs();
              const std::uint32_t dst = any_bs();
              if (src == dst) break;
              const ClauseId clause = any_clause();
              const UeId ue(any_ue());
              ASSERT_EQ(brain.request_m2m_path(ue, src, dst, clause),
                        single.request_m2m_path(src, dst, clause));
              break;
            }
            default: {  // classifier fetch
              op = "fetch_classifiers";
              if (provisioned.empty()) break;
              const UeId ue = pick(provisioned);
              const std::uint32_t bs = any_bs();
              ASSERT_EQ(view(brain.fetch_classifiers(ue, bs)),
                        view(single.fetch_classifiers(ue, bs)));
              break;
            }
          }
        }
        ASSERT_EQ(brain.state_fingerprint(), single.state_fingerprint())
            << "seed " << seed << ", " << shards << " shards, step " << step
            << " (" << op << ")";
      }
      for (const auto& [ue, loc] : attached)
        EXPECT_EQ(brain.ue_location(UeId(ue))->bs, loc.bs) << ue;
    }
  }
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

// --- scripted network goldens -----------------------------------------------
// One deterministic end-to-end script (attach, flows, handoff, failover):
// the control fingerprints at its three checkpoints must equal their golden
// values.

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

TEST(ShardBrainGolden, ScriptedCheckpointsMatchGoldens) {
  const std::map<unsigned, std::vector<std::uint64_t>> golden = {
      {7u, {0x70b074da03906a43, 0x70b074da03906a43, 0x89ea965c82af308b}},
      {19u, {0x0532a467fe886643, 0x0532a467fe886643, 0x2122e31b18763465}},
      {31u, {0x95b1beabb8431bc5, 0x95b1beabb8431bc5, 0x5a69a3c08ef9fcc8}},
  };
  for (const auto& [seed, checkpoints] : golden)
    EXPECT_EQ(run_script(seed), checkpoints) << "topo seed " << seed;
}

// --- randomized chaos differential ------------------------------------------
// A spread of seeds over the corpus bands (default, runtime workers,
// shortcuts off); the brain's full order-sensitive event digests must equal
// the ones the legacy brain recorded in the golden table.

TEST(ShardBrainDifferential, ChaosDigestsMatchLegacy) {
  chaos::expect_spread_matches_golden_digests();
}

}  // namespace
}  // namespace softcell
