// softcell::cluster -- the replicated controller fleet (DESIGN.md section
// 14): rendezvous partition ownership, logical-clock leader leases,
// cross-controller handoff, crash rebuild from agent truth, and the chaos
// harness's sixth invariant (exactly one owner per UE) including the
// kLeaseNotRevoked sabotage that must be provably caught.
#include "cluster/fleet.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <thread>
#include <vector>

#include "chaos/harness.hpp"
#include "sim/network.hpp"
#include "telemetry/registry.hpp"

namespace softcell::cluster {
namespace {

constexpr Ipv4Addr kServer = 0x08080808u;

// The owner the fleet must pick when every replica is eligible: the
// rendezvous argmax, recomputed here from the public hash helpers so the
// tests do not depend on fleet internals.
std::size_t expected_owner(std::uint32_t partition, std::size_t replicas) {
  std::size_t best = 0;
  for (std::size_t r = 1; r < replicas; ++r)
    if (hrw_weight(partition, r) > hrw_weight(partition, best)) best = r;
  return best;
}

TEST(Hashing, PartitionOfBsIsDeterministicAndBounded) {
  for (std::uint32_t bs = 0; bs < 64; ++bs) {
    const auto p = partition_of_bs(bs, 16);
    EXPECT_LT(p, 16u);
    EXPECT_EQ(p, partition_of_bs(bs, 16));
  }
  // The hash actually spreads: 64 base stations must not collapse onto a
  // couple of partitions.
  std::vector<bool> hit(16, false);
  for (std::uint32_t bs = 0; bs < 64; ++bs) hit[partition_of_bs(bs, 16)] = true;
  std::size_t used = 0;
  for (const bool h : hit) used += h;
  EXPECT_GE(used, 12u);
}

TEST(Hashing, RendezvousMovesOnlyTheLostMembersPartitions) {
  // Minimal movement: dropping replica 1 must not move any partition that
  // replica 1 did not own.
  for (std::uint32_t p = 0; p < 64; ++p) {
    const std::size_t with3 = expected_owner(p, 3);
    std::size_t without1 = 0;
    for (const std::size_t r : {std::size_t{0}, std::size_t{2}})
      if (hrw_weight(p, r) > hrw_weight(p, without1)) without1 = r;
    if (with3 != 1) {
      EXPECT_EQ(without1, with3) << "partition " << p;
    }
  }
  // And the weights themselves spread ownership across all three members.
  std::vector<std::size_t> owned(3, 0);
  for (std::uint32_t p = 0; p < 64; ++p) ++owned[expected_owner(p, 3)];
  for (std::size_t r = 0; r < 3; ++r)
    EXPECT_GT(owned[r], 8u) << "replica " << r << " owns almost nothing";
}

TEST(Fleet, RejectsDegenerateOptions) {
  CellularTopology topo({.k = 4, .seed = 1});
  EXPECT_THROW(
      ControllerFleet(topo, make_table1_policy(), FleetOptions{.replicas = 0}),
      std::invalid_argument);
  EXPECT_THROW(ControllerFleet(topo, make_table1_policy(),
                               FleetOptions{.partitions = 0}),
               std::invalid_argument);
  EXPECT_THROW(ControllerFleet(topo, make_table1_policy(),
                               FleetOptions{.lease_ticks = 0}),
               std::invalid_argument);
}

// Direct-fleet fixture: the "agents" are a plain truth map the location
// query replays, so rebuild semantics are observable without the sim.
class FleetTest : public ::testing::Test {
 protected:
  FleetTest()
      : topo_({.k = 4, .seed = 1}),
        fleet_(topo_, make_table1_policy(), {.replicas = 3}) {
    fleet_.set_location_query([this](
        const std::function<void(UeId, UeLocation)>& sink) {
      for (const auto& [ue, loc] : truth_) sink(ue, loc);
    });
  }

  UeId add_ue(std::uint32_t value, std::uint32_t bs) {
    const UeId ue(value);
    SubscriberProfile p;
    p.ue = ue;
    p.plan = BillingPlan::kSilver;
    fleet_.provision_subscriber(ue, p);
    fleet_.attach_ue(ue, bs, LocalUeId(static_cast<std::uint16_t>(value)));
    truth_[ue] = UeLocation{bs, LocalUeId(static_cast<std::uint16_t>(value))};
    ues_.push_back(ue);
    return ue;
  }

  void move_ue(UeId ue, std::uint32_t bs) {
    const LocalUeId local(static_cast<std::uint16_t>(ue.value()));
    fleet_.update_location(ue, bs, local);
    truth_[ue] = UeLocation{bs, local};
  }

  // A base station whose partition's preferred owner differs from `from`'s.
  std::uint32_t bs_owned_elsewhere(std::uint32_t from) {
    const std::size_t avoid = expected_owner(
        partition_of_bs(from, fleet_.partition_count()), 3);
    for (std::uint32_t bs = 0; bs < topo_.num_base_stations(); ++bs) {
      const auto p = partition_of_bs(bs, fleet_.partition_count());
      if (p != partition_of_bs(from, fleet_.partition_count()) &&
          expected_owner(p, 3) != avoid)
        return bs;
    }
    throw std::logic_error("no differently-owned base station found");
  }

  void expect_clean_audit() {
    const auto bad = fleet_.audit_exactly_one_owner(ues_);
    EXPECT_TRUE(bad.empty()) << bad.front();
    const auto diverged = fleet_.audit_engines_converged();
    EXPECT_FALSE(diverged.has_value()) << *diverged;
  }

  CellularTopology topo_;
  ControllerFleet fleet_;
  std::unordered_map<UeId, UeLocation> truth_;
  std::vector<UeId> ues_;
};

TEST_F(FleetTest, AttachAcquiresLeaseAndServesLocation) {
  const UeId ue = add_ue(1, 5);
  const auto owner = fleet_.owner_of_bs(5);
  ASSERT_TRUE(owner.has_value());
  EXPECT_EQ(*owner, expected_owner(partition_of_bs(5, 16), 3));
  EXPECT_GE(fleet_.lease_epoch(partition_of_bs(5, 16)), 1u);
  const auto loc = fleet_.ue_location(ue);
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->bs, 5u);
  // Serving the lookup renewed the lease instead of re-acquiring it.
  EXPECT_GT(fleet_.stats().lease_renewals, 0u);
  expect_clean_audit();
}

TEST_F(FleetTest, CrossPartitionHandoffMovesOwnership) {
  const std::uint32_t from = 0;
  const std::uint32_t to = bs_owned_elsewhere(from);
  const UeId ue = add_ue(1, from);
  const auto before = fleet_.owner_of_bs(from);
  ASSERT_TRUE(before.has_value());

  move_ue(ue, to);

  EXPECT_GE(fleet_.stats().cross_handoffs, 1u);
  const auto after = fleet_.owner_of_bs(to);
  ASSERT_TRUE(after.has_value());
  EXPECT_NE(*after, *before);
  // The old owner forgot the UE; the new one serves it.
  EXPECT_FALSE(fleet_.replica(*before).store().location(ue).has_value());
  ASSERT_TRUE(fleet_.replica(*after).store().location(ue).has_value());
  expect_clean_audit();
}

TEST_F(FleetTest, CleanCrashTakesOverAndRebuildsFromAgents) {
  for (std::uint32_t bs = 0; bs < 12; bs += 2) add_ue(bs + 1, bs);
  const auto victim = fleet_.owner_of_bs(0);
  ASSERT_TRUE(victim.has_value());
  const auto takeovers_before = fleet_.stats().takeovers;

  fleet_.kill(*victim);  // clean crash: leases revoked immediately

  // The next operation on a partition the victim owned runs the takeover
  // protocol -- no lease wait (revoked), rebuild from the agent query.
  for (const UeId ue : ues_) {
    const auto loc = fleet_.ue_location(ue);
    ASSERT_TRUE(loc.has_value()) << "lost UE " << ue.value();
    EXPECT_EQ(loc->bs, truth_.at(ue).bs);
  }
  EXPECT_GT(fleet_.stats().takeovers, takeovers_before);
  EXPECT_GT(fleet_.stats().rebuilt_locations, 0u);
  EXPECT_EQ(fleet_.stats().lease_waits, 0u);

  fleet_.settle();
  expect_clean_audit();

  // The restarted member owns nothing until a takeover hands it a partition.
  fleet_.restart(*victim);
  EXPECT_EQ(fleet_.replica(*victim).store().attached_ues(), 0u);
  fleet_.settle();
  expect_clean_audit();
}

TEST_F(FleetTest, ZombieCrashLeavesTwoHoldersForTheAudit) {
  const UeId ue = add_ue(1, 3);
  const auto victim = fleet_.owner_of_bs(3);
  ASSERT_TRUE(victim.has_value());

  // Sabotage path: the kill does NOT revoke the leases, so the dead member
  // keeps its stale location store.
  fleet_.kill(*victim, /*revoke_leases=*/false);

  // A successor can only take over by waiting the lease out (logical-clock
  // jump), and the rebuild re-adds the UE next to the zombie's stale copy.
  const auto loc = fleet_.ue_location(ue);
  ASSERT_TRUE(loc.has_value());
  EXPECT_GT(fleet_.stats().lease_waits, 0u);

  const auto bad = fleet_.audit_exactly_one_owner(ues_);
  ASSERT_FALSE(bad.empty()) << "zombie store went unnoticed";
  EXPECT_NE(bad.front().find("2 replicas"), std::string::npos) << bad.front();

  // Restarting the zombie wipes the stale store; the audit goes green.
  fleet_.restart(*victim);
  fleet_.settle();
  expect_clean_audit();
}

TEST_F(FleetTest, StoreLagFreezesSlowStateUntilFlushed) {
  add_ue(1, 0);
  fleet_.set_store_lag(2, true);
  ASSERT_TRUE(fleet_.is_lagged(2));

  // Slow-state writes while replica 2 lags: provisioning and path installs
  // skip it, so its store version falls behind.
  add_ue(2, 4);
  SubscriberProfile p;
  p.plan = BillingPlan::kSilver;
  const auto* clause = fleet_.replica(0).policy().match(p, AppType::kWeb);
  ASSERT_NE(clause, nullptr);
  fleet_.request_policy_path(0, clause->id);
  EXPECT_LT(fleet_.replica(2).store().version(),
            fleet_.replica(0).store().version());

  const auto replayed_before = fleet_.stats().replayed_ops;
  fleet_.set_store_lag(2, false);
  EXPECT_GT(fleet_.stats().replayed_ops, replayed_before);
  EXPECT_EQ(fleet_.replica(2).store().version(),
            fleet_.replica(0).store().version());
  expect_clean_audit();
}

TEST_F(FleetTest, ForceExpireBumpsEpochOnNextOperation) {
  const UeId ue = add_ue(1, 7);
  const auto p = partition_of_bs(7, fleet_.partition_count());
  const auto epoch = fleet_.lease_epoch(p);
  fleet_.force_expire(p);
  // Reads on the partition must re-acquire: epoch bump, same preferred
  // owner, fast state rebuilt -- and still exactly one holder.
  ASSERT_TRUE(fleet_.ue_location(ue).has_value());
  EXPECT_EQ(fleet_.lease_epoch(p), epoch + 1);
  EXPECT_EQ(fleet_.owner_of_bs(7), expected_owner(p, 3));
  expect_clean_audit();
  EXPECT_THROW(fleet_.force_expire(fleet_.partition_count()),
               std::out_of_range);
}

TEST_F(FleetTest, RebuildFromAgentTruthForgetsTheOldPartitionsCopy) {
  // The agent already serves UE 1 at bs 1 when a takeover of bs 1's
  // partition rebuilds from agent truth; the fleet still files the UE
  // under bs 0, whose partition another replica owns.  That replica must
  // forget the UE then, or the handoff reported afterwards sees no
  // partition change and leaves two holders.
  const std::uint32_t p0 = partition_of_bs(0, fleet_.partition_count());
  const std::uint32_t p1 = partition_of_bs(1, fleet_.partition_count());
  ASSERT_NE(p0, p1);
  ASSERT_NE(expected_owner(p0, 3), expected_owner(p1, 3));

  const UeId ue = add_ue(1, 0);
  truth_[ue] = UeLocation{1, LocalUeId(1)};
  fleet_.force_expire(p1);
  (void)fleet_.fetch_classifiers(ue, 1);  // takeover: rebuild of p1
  move_ue(ue, 1);
  fleet_.settle();

  EXPECT_FALSE(fleet_.replica(expected_owner(p0, 3))
                   .store()
                   .location(ue)
                   .has_value());
  const auto loc = fleet_.ue_location(ue);
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->bs, 1u);
  expect_clean_audit();
}

TEST_F(FleetTest, IsolationMissesWritesAndHealReplaysThem) {
  add_ue(1, 0);
  fleet_.isolate(1);
  ASSERT_TRUE(fleet_.is_isolated(1));
  add_ue(2, 4);  // provision replicated to members 0 and 2 only
  EXPECT_LT(fleet_.replica(1).store().version(),
            fleet_.replica(0).store().version());

  const auto replayed_before = fleet_.stats().replayed_ops;
  fleet_.heal(1);
  EXPECT_GT(fleet_.stats().replayed_ops, replayed_before);
  fleet_.settle();
  expect_clean_audit();
}

TEST_F(FleetTest, SettleReassignsPartitionsOfDeadOwners) {
  add_ue(1, 2);
  const auto victim = fleet_.owner_of_bs(2);
  ASSERT_TRUE(victim.has_value());
  fleet_.kill(*victim);
  // No intermediate operation: settle alone must reassign and rebuild.
  fleet_.settle();
  const auto owner = fleet_.owner_of_bs(2);
  ASSERT_TRUE(owner.has_value());
  EXPECT_NE(*owner, *victim);
  EXPECT_TRUE(fleet_.is_alive(*owner));
  expect_clean_audit();
}

TEST_F(FleetTest, NoUsableReplicaFailsLoudly) {
  add_ue(1, 0);
  fleet_.kill(0);
  fleet_.kill(1);
  fleet_.kill(2);
  SubscriberProfile p;
  p.ue = UeId(9);
  EXPECT_THROW(fleet_.provision_subscriber(UeId(9), p), std::logic_error);
  EXPECT_THROW((void)fleet_.forwarding_replica(), std::logic_error);
  fleet_.restart(0);
  fleet_.settle();
  EXPECT_EQ(fleet_.usable_count(), 1u);
}

TEST_F(FleetTest, FailPrimaryDrillKeepsEveryLocation) {
  for (std::uint32_t bs = 0; bs < 12; bs += 3) add_ue(bs + 1, bs);
  fleet_.fail_primary_and_recover();
  for (const UeId ue : ues_) {
    const auto loc = fleet_.ue_location(ue);
    ASSERT_TRUE(loc.has_value()) << "lost UE " << ue.value();
    EXPECT_EQ(loc->bs, truth_.at(ue).bs);
  }
  // Every member actually lost a store replica in the drill.
  for (std::size_t r = 0; r < fleet_.replica_count(); ++r)
    EXPECT_EQ(fleet_.replica(r).store().replica_count(), 2u);
  expect_clean_audit();
}

TEST_F(FleetTest, TelemetryPublishesFleetAndPerReplicaSeries) {
  add_ue(1, 0);
  const auto snapshot = telemetry::Registry::global().collect();
  bool takeovers = false, replica0 = false, alive = false;
  for (const auto& s : snapshot.samples()) {
    if (s.name == "cluster.takeovers") takeovers = true;
    if (s.name == "cluster.replica0.path_installs") replica0 = true;
    if (s.name == "cluster.alive_replicas") {
      alive = true;
      EXPECT_EQ(s.value, 3);
    }
  }
  EXPECT_TRUE(takeovers);
  EXPECT_TRUE(replica0);
  EXPECT_TRUE(alive);
}

// --- the fleet behind SoftCellConfig -----------------------------------------

class ClusterNetTest : public ::testing::Test {
 protected:
  ClusterNetTest()
      : net_(SoftCellConfig{.topo = {.k = 4, .seed = 31},
                            .cluster_controllers = 3},
             make_table1_policy()) {}

  UeId silver_ue(std::uint32_t bs) {
    SubscriberProfile p;
    p.plan = BillingPlan::kSilver;
    const UeId ue = net_.add_subscriber(p);
    net_.attach(ue, bs);
    ues_.push_back(ue);
    return ue;
  }

  void expect_clean_audit() {
    const auto bad = net_.fleet()->audit_exactly_one_owner(ues_);
    EXPECT_TRUE(bad.empty()) << bad.front();
    const auto diverged = net_.fleet()->audit_engines_converged();
    EXPECT_FALSE(diverged.has_value()) << *diverged;
  }

  SoftCellNetwork net_;
  std::vector<UeId> ues_;
};

TEST_F(ClusterNetTest, EndToEndTrafficRunsThroughTheFleet) {
  ASSERT_NE(net_.fleet(), nullptr);
  EXPECT_EQ(net_.fleet()->replica_count(), 3u);
  for (std::uint32_t bs = 0; bs < 8; bs += 2) {
    const UeId ue = silver_ue(bs);
    const auto flow = net_.open_flow(ue, kServer, 80);
    const auto up = net_.send_uplink(flow, TcpFlag::kSyn);
    ASSERT_TRUE(up.delivered) << up.drop_reason;
    ASSERT_TRUE(net_.send_downlink(flow).delivered);
  }
  expect_clean_audit();
}

TEST_F(ClusterNetTest, HandoffAcrossOwnershipBoundaryIsServed) {
  // Find a handoff that crosses partition ownership: serving bs and target
  // bs whose partitions belong to different replicas.
  const std::uint32_t partitions = net_.fleet()->partition_count();
  std::optional<std::uint32_t> from, to;
  for (std::uint32_t a = 0; a < net_.topology().num_base_stations() && !from;
       ++a) {
    for (std::uint32_t b = 0; b < net_.topology().num_base_stations(); ++b) {
      const auto pa = partition_of_bs(a, partitions);
      const auto pb = partition_of_bs(b, partitions);
      if (pa != pb && expected_owner(pa, 3) != expected_owner(pb, 3)) {
        from = a;
        to = b;
        break;
      }
    }
  }
  ASSERT_TRUE(from && to);

  const UeId ue = silver_ue(*from);
  const auto flow = net_.open_flow(ue, kServer, 80);
  ASSERT_TRUE(net_.send_uplink(flow, TcpFlag::kSyn).delivered);

  const auto ticket = net_.handoff(ue, *to);
  EXPECT_GE(net_.fleet()->stats().cross_handoffs, 1u);
  EXPECT_EQ(net_.serving_bs(ue), *to);
  // In-flight traffic survives the move (downlink via the BS-BS tunnel;
  // shortcuts are forced off in fleet mode).
  const auto up = net_.send_uplink(flow);
  ASSERT_TRUE(up.delivered) << up.drop_reason;
  const auto down = net_.send_downlink(flow);
  ASSERT_TRUE(down.delivered) << down.drop_reason;
  EXPECT_TRUE(down.tunneled);
  EXPECT_TRUE(ticket.shortcuts.empty());

  net_.complete_handoff(ticket);
  const auto f2 = net_.open_flow(ue, kServer, 1935);
  ASSERT_TRUE(net_.send_uplink(f2, TcpFlag::kSyn).delivered);
  expect_clean_audit();
}

TEST_F(ClusterNetTest, LeaderCrashRebuildsLocationsFromAgents) {
  for (std::uint32_t bs = 0; bs < 12; bs += 2) silver_ue(bs);
  const auto victim = net_.fleet()->owner_of_bs(0);
  ASSERT_TRUE(victim.has_value());

  net_.fleet()->kill(*victim);
  net_.fleet()->settle();

  for (std::size_t i = 0; i < ues_.size(); ++i) {
    const auto bs = net_.serving_bs(ues_[i]);
    ASSERT_TRUE(bs.has_value()) << "lost UE " << ues_[i].value();
    EXPECT_EQ(*bs, static_cast<std::uint32_t>(i * 2));
  }
  EXPECT_GT(net_.fleet()->stats().rebuilt_locations, 0u);
  // New control-plane work is served by the survivors.
  const UeId late = silver_ue(7);
  const auto flow = net_.open_flow(late, kServer, 80);
  const auto up = net_.send_uplink(flow, TcpFlag::kSyn);
  ASSERT_TRUE(up.delivered) << up.drop_reason;
  expect_clean_audit();

  net_.fleet()->restart(*victim);
  net_.fleet()->settle();
  expect_clean_audit();
}

TEST_F(ClusterNetTest, FleetModeFailoverDrillKeepsTraffic) {
  const UeId ue = silver_ue(3);
  const auto flow = net_.open_flow(ue, kServer, 80);
  ASSERT_TRUE(net_.send_uplink(flow, TcpFlag::kSyn).delivered);

  net_.fail_controller_primary_and_recover();

  ASSERT_TRUE(net_.send_uplink(flow).delivered);
  ASSERT_TRUE(net_.send_downlink(flow).delivered);
  const auto f2 = net_.open_flow(ue, kServer, 1935);
  ASSERT_TRUE(net_.send_uplink(f2, TcpFlag::kSyn).delivered);
  expect_clean_audit();
}

TEST(ClusterConfig, FleetAndRuntimeAreMutuallyExclusive) {
  EXPECT_THROW(SoftCellNetwork(SoftCellConfig{.runtime_workers = 2,
                                              .cluster_controllers = 3},
                               make_table1_policy()),
               std::invalid_argument);
}

// --- concurrency (rerun under -DSOFTCELL_SANITIZE=thread) --------------------

TEST(ClusterConcurrency, MixedOpsAndFaultsKeepTheFleetConsistent) {
  CellularTopology topo({.k = 4, .seed = 1});
  ControllerFleet fleet(topo, make_table1_policy(), {.replicas = 3});
  const std::uint32_t num_bs = topo.num_base_stations();

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kUesPerThread = 8;
  constexpr std::size_t kIters = 120;
  constexpr std::size_t kUes = kThreads * kUesPerThread;

  // Agent truth, written BEFORE the fleet call so a concurrent rebuild can
  // only ever read state at least as fresh as the fleet's own -- the query
  // touches nothing but this array (no lock-order interaction with mu_).
  std::vector<std::atomic<std::uint32_t>> truth(kUes + 1);
  fleet.set_location_query(
      [&truth](const std::function<void(UeId, UeLocation)>& sink) {
        for (std::uint32_t v = 1; v < truth.size(); ++v)
          sink(UeId(v), UeLocation{truth[v].load(),
                                   LocalUeId(static_cast<std::uint16_t>(v))});
      });

  std::vector<UeId> ues;
  for (std::uint32_t v = 1; v <= kUes; ++v) {
    const UeId ue(v);
    SubscriberProfile p;
    p.ue = ue;
    p.plan = BillingPlan::kSilver;
    fleet.provision_subscriber(ue, p);
    const std::uint32_t bs = v % num_bs;
    truth[v].store(bs);
    fleet.attach_ue(ue, bs, LocalUeId(static_cast<std::uint16_t>(v)));
    ues.push_back(ue);
  }

  std::vector<std::thread> threads;
  // Updaters: each owns a disjoint UE range and bounces it between base
  // stations; single writer per UE keeps the truth array authoritative.
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kIters; ++i) {
        for (std::size_t k = 0; k < kUesPerThread; ++k) {
          const std::uint32_t v =
              static_cast<std::uint32_t>(t * kUesPerThread + k + 1);
          const std::uint32_t bs =
              static_cast<std::uint32_t>((v * 7 + i) % num_bs);
          truth[v].store(bs);
          fleet.update_location(UeId(v), bs,
                                LocalUeId(static_cast<std::uint16_t>(v)));
          if (i % 8 == 0) (void)fleet.ue_location(UeId(v));
          if (i % 16 == 0) (void)fleet.fetch_classifiers(UeId(v), bs);
        }
      }
    });
  }
  // Fault thread: only ever touches replica 2, so replicas 0 and 1 stay
  // usable and slow-state writes never starve.
  threads.emplace_back([&] {
    for (std::size_t i = 0; i < kIters; ++i) {
      fleet.force_expire(static_cast<std::uint32_t>((i * 5) % 16));
      if (i % 10 == 3) fleet.set_store_lag(2, true);
      if (i % 10 == 7) fleet.set_store_lag(2, false);
      if (i == kIters / 3) fleet.kill(2);
      if (i == kIters / 2) fleet.restart(2);
      if (i % 20 == 11) fleet.isolate(2);
      if (i % 20 == 15) fleet.heal(2);
      std::this_thread::yield();
    }
  });
  for (auto& th : threads) th.join();

  fleet.settle();
  for (const UeId ue : ues) {
    const auto loc = fleet.ue_location(ue);
    ASSERT_TRUE(loc.has_value()) << "lost UE " << ue.value();
    EXPECT_EQ(loc->bs, truth[ue.value()].load());
  }
  const auto bad = fleet.audit_exactly_one_owner(ues);
  EXPECT_TRUE(bad.empty()) << bad.front();
  const auto diverged = fleet.audit_engines_converged();
  EXPECT_FALSE(diverged.has_value()) << *diverged;
}

}  // namespace
}  // namespace softcell::cluster

// --- chaos: cluster corpus + the sixth invariant -----------------------------

namespace softcell::chaos {
namespace {

ChaosOptions cluster_corpus_options() {
  ChaosOptions opt;
  opt.cluster_controllers = 3;
  return opt;
}

std::size_t cluster_corpus_size() {
  // Same hatch as the base corpus: SOFTCELL_CHAOS_SEEDS shrinks expensive
  // reruns (tier1.sh under ASan/TSan); unset means the full 200.
  if (const char* env = std::getenv("SOFTCELL_CHAOS_SEEDS")) {
    const auto n = std::strtoull(env, nullptr, 10);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 200;
}

TEST(ClusterCorpus, InvariantsHoldWithExactlyOneOwnerArmed) {
  const std::size_t n = cluster_corpus_size();
  const auto opt = cluster_corpus_options();
  std::size_t flows = 0, handoffs = 0, quiesces = 0;
  for (std::uint64_t seed = 1; seed <= n; ++seed) {
    const auto sc = Scenario::generate(seed, 36, /*cluster_steps=*/true);
    const auto r = run_scenario(sc, opt);
    ASSERT_TRUE(r.ok) << "seed " << seed << ": invariant "
                      << r.violation->invariant << " at step "
                      << r.violation->step << ": " << r.violation->detail
                      << "\n  " << replay_command(sc, opt);
    EXPECT_EQ(r.steps_executed, sc.steps.size());
    flows += r.flows_opened;
    handoffs += r.handoffs;
    quiesces += r.quiesces;
  }
  EXPECT_GT(flows, n);
  EXPECT_GT(handoffs, n / 2);
  EXPECT_GT(quiesces, n);
}

TEST(ClusterCorpus, SameSeedProducesIdenticalEventDigest) {
  const auto opt = cluster_corpus_options();
  for (const std::uint64_t seed : {2ull, 23ull, 77ull, 131ull, 188ull}) {
    const auto sc = Scenario::generate(seed, 36, /*cluster_steps=*/true);
    const auto r1 = run_scenario(sc, opt);
    const auto r2 = run_scenario(sc, opt);
    ASSERT_TRUE(r1.ok) << seed;
    EXPECT_EQ(r1.digest, r2.digest) << "nondeterministic digest, seed " << seed;
  }
}

TEST(ClusterCorpus, ClusterStepsActuallyFire) {
  // The cluster walk must draw the new step kinds, or the corpus above is
  // not testing what it claims to.
  std::size_t cluster_steps = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto sc = Scenario::generate(seed, 36, /*cluster_steps=*/true);
    for (const auto& step : sc.steps)
      if (step.kind == Step::Kind::kCtrlKill ||
          step.kind == Step::Kind::kSplitBrain ||
          step.kind == Step::Kind::kStaleLease ||
          step.kind == Step::Kind::kStoreLag)
        ++cluster_steps;
    // And without the flag the walk is byte-identical to the legacy one.
    EXPECT_EQ(Scenario::generate(seed), Scenario::generate(seed, 36, false));
  }
  EXPECT_GT(cluster_steps, 20u);
}

TEST(ClusterSabotage, UnrevokedLeaseIsCaughtByInvariantSixAndShrunk) {
  // Acceptance check from the issue: killing a controller WITHOUT revoking
  // its leases must be caught -- the zombie's stale store gives a UE two
  // holders, which only the exactly-one-owner audit can see.
  auto opt = cluster_corpus_options();
  opt.sabotage = ChaosOptions::Sabotage::kLeaseNotRevoked;
  std::optional<Scenario> failing;
  for (std::uint64_t seed = 1; seed <= 40 && !failing; ++seed) {
    auto sc = Scenario::generate(seed, 36, /*cluster_steps=*/true);
    if (!run_scenario(sc, opt).ok) failing = std::move(sc);
  }
  ASSERT_TRUE(failing.has_value())
      << "kLeaseNotRevoked went undetected across 40 seeds";

  const auto full = run_scenario(*failing, opt);
  ASSERT_FALSE(full.ok);
  EXPECT_EQ(full.violation->invariant, 6) << full.violation->detail;

  std::size_t runs = 0;
  const auto small = shrink(*failing, opt, &runs);
  const auto r = run_scenario(small, opt);
  ASSERT_FALSE(r.ok) << "shrunk scenario no longer reproduces";
  EXPECT_EQ(r.violation->invariant, 6) << r.violation->detail;
  EXPECT_LT(small.steps.size(), failing->steps.size());
  std::cout << "  [shrunk to " << small.steps.size() << " steps after " << runs
            << " runs] " << replay_command(small, opt) << "\n";
}

TEST(ClusterReplay, OptionsRoundTripWithClusterCount) {
  ChaosOptions opt;
  opt.cluster_controllers = 3;
  opt.sabotage = ChaosOptions::Sabotage::kLeaseNotRevoked;
  const auto back = decode_options(encode_options(opt));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->cluster_controllers, 3u);
  EXPECT_EQ(back->sabotage, opt.sabotage);
  // Pre-cluster repro lines (no trailing c<n>) still decode.
  const auto legacy = decode_options("t1w0s1b0");
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->cluster_controllers, 0u);
}

}  // namespace
}  // namespace softcell::chaos
