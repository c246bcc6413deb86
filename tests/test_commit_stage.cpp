// Commit-stage concurrency stress (run under -DSOFTCELL_SANITIZE=thread by
// tier1.sh): threads race cross-shard installs through the flat-combining
// CoreCommitter while readers spin on the published tag slots.  Asserts
// the ordering rules DESIGN.md section 16 promises:
//
//   * total order  -- the commit observer sees strictly increasing
//     sequence numbers, one per applied op, no op lost or duplicated;
//   * read-your-writes -- a slot loaded right after a commit returns
//     always holds the committed tag;
//   * exactly-once install -- racing duplicates of the same (bs, clause)
//     resolve to one tag and one core install;
//   * no mixed versions -- a classifier fetch racing bulk re-tags
//     (migrate, recompact) sees all of its tags from one version.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "ctrl/core_committer.hpp"
#include "ctrl/tag_slots.hpp"
#include "runtime/shard_brain.hpp"
#include "util/annotations.hpp"

namespace softcell {
namespace {

std::vector<ClauseId> distinct_clauses(const ServicePolicy& policy) {
  std::vector<ClauseId> out;
  for (const auto& clause : policy.clauses()) out.push_back(clause.id);
  return out;
}

TEST(CommitStageStress, RacingInstallsKeepTotalOrderAndNoLostOps) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 60;
  constexpr std::uint32_t kBsCount = 12;

  CellularTopology topo({.k = 4, .seed = 3});
  auto policy = std::make_shared<const ServicePolicy>(make_table1_policy());
  const auto clauses = distinct_clauses(*policy);
  ASSERT_GE(clauses.size(), 2u);
  CoreCommitter committer(topo, policy, {});

  // Observer log: the combiner invokes it once per applied op.  Combiner
  // handoff is serialized by the stage's own mutex, so a plain vector
  // under a test mutex is enough for the log itself.
  struct Observed {
    std::size_t shard;
    std::uint64_t seq;
  };
  sc::Mutex log_mu;
  std::vector<Observed> log;
  committer.set_commit_observer([&](std::size_t shard, std::uint64_t seq) {
    sc::LockGuard lock(log_mu);
    log.push_back({shard, seq});
  });

  std::atomic<std::size_t> submitted{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        const std::uint32_t bs = static_cast<std::uint32_t>((r + t) % kBsCount);
        const ClauseId clause = clauses[(r / kBsCount + t) % clauses.size()];
        const PolicyTag tag = committer.commit_path(t, bs, clause);
        submitted.fetch_add(1, std::memory_order_relaxed);
        // Read-your-writes: every slot load after the commit returned
        // carries the tag (the slot is stored BEFORE completion).
        const auto seen = committer.slots().get(clause, bs);
        ASSERT_TRUE(seen.has_value()) << "bs " << bs;
        ASSERT_EQ(*seen, tag) << "bs " << bs;
      }
    });
  }
  // Racing readers: the publish count never goes backwards, no bulk
  // re-tag runs (installs only), and a key once seen keeps its tag.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::uint64_t last_publishes = 0;
    std::map<std::pair<std::uint32_t, std::uint64_t>, PolicyTag> seen;
    std::uint32_t bs = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t publishes = committer.publishes();
      ASSERT_GE(publishes, last_publishes);
      last_publishes = publishes;
      ASSERT_EQ(committer.slots().version(), 0u);
      bs = (bs + 1) % kBsCount;
      for (const ClauseId clause : clauses) {
        const auto tag = committer.slots().get(clause, bs);
        const auto key = std::pair{bs, std::uint64_t{clause.value()}};
        const auto it = seen.find(key);
        if (it != seen.end()) {
          ASSERT_TRUE(tag.has_value());
          ASSERT_EQ(*tag, it->second);
        } else if (tag) {
          seen.emplace(key, *tag);
        }
      }
    }
  });
  for (auto& th : threads) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  // Total order, no lost ops: one observation per submitted op, sequence
  // numbers strictly increasing in observation order.
  ASSERT_EQ(log.size(), submitted.load());
  std::vector<std::size_t> per_shard(kThreads, 0);
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (i > 0) {
      ASSERT_LT(log[i - 1].seq, log[i].seq);
    }
    ASSERT_LT(log[i].shard, kThreads);
    ++per_shard[log[i].shard];
  }
  // Each submitter blocks per op, so its ops arrive (and with total order,
  // apply) in program order: per-shard FIFO.  Count check closes the loop.
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(per_shard[t], kRounds);

  // Exactly-once: distinct (bs, clause) keys == core installs, and the
  // final slots resolve every key.  One publish per combiner batch.
  std::map<std::pair<std::uint32_t, std::uint64_t>, PolicyTag> keys;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t r = 0; r < kRounds; ++r) {
      const std::uint32_t bs = static_cast<std::uint32_t>((r + t) % kBsCount);
      const ClauseId clause = clauses[(r / kBsCount + t) % clauses.size()];
      const auto tag = committer.slots().get(clause, bs);
      ASSERT_TRUE(tag.has_value());
      keys.emplace(std::pair{bs, clause.value()}, *tag);
    }
  }
  EXPECT_EQ(committer.core().path_installs(), keys.size());
  EXPECT_GT(committer.publishes(), 0u);
  EXPECT_LE(committer.publishes(), submitted.load());
}

TEST(CommitStageStress, BrainReadersRaceCommitsWithoutTearing) {
  // Full-brain variant: shard-store readers (fetch_classifiers through the
  // tag slots) race path commits on every shard.  TSan is the real oracle
  // here; the assertions just pin the visible contract.
  CellularTopology topo({.k = 4, .seed = 7});
  ShardBrain brain(topo, make_table1_policy(), {.shards = 4});
  const auto clauses = distinct_clauses(*brain.policy_snapshot());

  // Single-threaded setup: provision + attach a population spread over
  // every shard, before the racing phase begins.
  std::vector<UeId> ues;
  for (std::uint32_t i = 1; i <= 64; ++i) {
    const UeId ue(i);
    SubscriberProfile p;
    p.ue = ue;
    p.provider = 0;
    p.plan = BillingPlan::kSilver;
    brain.provision_subscriber(ue, p);
    brain.attach_ue(ue, i % 12, LocalUeId(i));
    ues.push_back(ue);
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < 3; ++t) {
    writers.emplace_back([&, t] {
      for (std::size_t r = 0; r < 40; ++r) {
        const UeId ue = ues[(r * 7 + t * 13) % ues.size()];
        const auto tag = brain.request_policy_path(
            ue, static_cast<std::uint32_t>(r % 12),
            clauses[(r + t) % clauses.size()]);
        ASSERT_TRUE(tag.valid());
      }
    });
  }
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      std::size_t i = t;
      while (!stop.load(std::memory_order_acquire)) {
        const UeId ue = ues[i++ % ues.size()];
        const auto cls =
            brain.fetch_classifiers(ue, static_cast<std::uint32_t>(i % 12));
        // Compilation reads one slot version: tags either absent or
        // valid, never torn.
        ASSERT_EQ(cls.size(), 5u);
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  // Every committed key is in the final slots, and nothing else is.
  std::size_t published = 0;
  for (const ClauseId clause : clauses)
    for (std::uint32_t bs = 0; bs < topo.num_base_stations(); ++bs)
      published += brain.committer().slots().get(clause, bs) ? 1 : 0;
  ASSERT_GT(published, 0u);
  EXPECT_EQ(brain.core().path_installs(), published);
}

SubscriberProfile silver_profile(UeId ue) {
  SubscriberProfile p;
  p.ue = ue;
  p.provider = 0;
  p.plan = BillingPlan::kSilver;
  return p;
}

// The tags of one classifier set, in app order (absent = kInvalid).
std::vector<std::uint16_t> tags_of(const std::vector<PacketClassifier>& set) {
  std::vector<std::uint16_t> out;
  for (const PacketClassifier& c : set)
    out.push_back(c.tag ? c.tag->value() : PolicyTag::kInvalid);
  return out;
}

TEST(CommitStageStress, FetchesRacingBulkRetagsNeverMixVersions) {
  // One re-tagger cycles migrate (one key at a time, each under its own
  // version bump) and recompact (every key at once) on the keys a silver
  // UE's classifiers resolve at kBs, recording the classifier tags after
  // every op.  Readers racing it may see any recorded state, never a mix:
  // a recompact reverts every migrated key in one re-tag, so a fetch that
  // saw some keys reverted and others not would match no recorded state.
  // Installers commit other keys meanwhile and read each one back.
  constexpr std::uint32_t kBs = 3;
  constexpr int kCycles = 50;
  CellularTopology topo({.k = 4, .seed = 11});
  ShardBrain brain(topo, make_table1_policy(), {.shards = 4});
  const auto clauses = distinct_clauses(*brain.policy_snapshot());
  const std::uint32_t num_bs = topo.num_base_stations();
  const UeId ue(1);
  brain.provision_subscriber(ue, silver_profile(ue));
  brain.attach_ue(ue, kBs, LocalUeId(1));

  // The allowed clauses of the UE's classifiers, installed at kBs.
  std::vector<ClauseId> keys;
  for (const PacketClassifier& c : brain.fetch_classifiers(ue, kBs)) {
    if (!c.allow) continue;
    if (std::find(keys.begin(), keys.end(), c.clause) == keys.end())
      keys.push_back(c.clause);
    (void)brain.request_policy_path(ue, kBs, c.clause);
  }
  ASSERT_GE(keys.size(), 2u);
  // Every other key of the fabric, for the installers and for a resync
  // large enough to overlap the readers.
  std::vector<std::pair<std::uint32_t, ClauseId>> others;
  for (std::uint32_t bs = 0; bs < num_bs; ++bs)
    for (const ClauseId clause : clauses)
      if (bs != kBs) others.emplace_back(bs, clause);

  sc::Mutex states_mu;
  std::set<std::vector<std::uint16_t>> recorded;
  const auto record = [&] {
    const auto state = tags_of(brain.fetch_classifiers(ue, kBs));
    sc::LockGuard lock(states_mu);
    recorded.insert(state);
  };
  record();

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  std::vector<std::set<std::vector<std::uint16_t>>> observed(2);
  for (std::size_t r = 0; r < observed.size(); ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_acquire))
        observed[r].insert(tags_of(brain.fetch_classifiers(ue, kBs)));
    });
  }
  std::atomic<std::size_t> next_other{0};
  std::vector<std::thread> installers;
  for (std::size_t t = 0; t < 2; ++t) {
    installers.emplace_back([&, t] {
      for (std::size_t i; (i = next_other.fetch_add(1)) < others.size();) {
        const auto [bs, clause] = others[i];
        // Read-your-writes, unless a re-tag ran since the commit began
        // (it may have renumbered the new path already).
        const std::uint64_t before = brain.committer().slots().version();
        const PolicyTag tag = brain.committer().commit_path(t + 1, bs, clause);
        const auto seen = brain.committer().slots().get(clause, bs);
        ASSERT_TRUE(seen.has_value());
        if (brain.committer().slots().version() == before) {
          ASSERT_EQ(*seen, tag);
        }
      }
    });
  }

  for (int cycle = 0; cycle < kCycles; ++cycle) {
    // Migrate in reverse app order, so every partial revert by a mixed
    // read differs from every recorded state.
    for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
      // Read-your-writes for the re-tagger too (EXPECT: the workers must
      // still be joined below).
      const auto mig = brain.committer().commit_migrate(0, kBs, *it);
      EXPECT_EQ(brain.committer().slots().get(*it, kBs), mig.new_tag);
      record();
      brain.committer().commit_drain_old(0, kBs, *it, mig.old_tag);
    }
    (void)brain.committer().commit_recompact(0);
    record();
  }
  for (auto& th : installers) th.join();
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(brain.committer().slots().version(),
            2u * static_cast<std::uint64_t>(kCycles) * (keys.size() + 1));
  for (const auto& seen : observed) {
    EXPECT_FALSE(seen.empty());
    for (const auto& state : seen)
      EXPECT_TRUE(recorded.contains(state)) << "a fetch mixed tag versions";
  }
}

TEST(TagSlots, OutOfRangeKeysReadAsAbsent) {
  TagSlots slots(/*clauses=*/3, /*num_bs=*/4);
  slots.set(ClauseId(2), 3, PolicyTag(7));
  EXPECT_EQ(slots.get(ClauseId(2), 3), PolicyTag(7));
  EXPECT_FALSE(slots.get(ClauseId(2), 2).has_value());  // never installed
  EXPECT_FALSE(slots.get(ClauseId(2), 4).has_value());  // bs past the array
  EXPECT_FALSE(slots.get(ClauseId(3), 0).has_value());  // clause past it
  EXPECT_FALSE(slots.get(ClauseId(), 0).has_value());   // invalid clause
  EXPECT_FALSE(slots.get(ClauseId(0xFFFFFFFEu), 0xFFFFFFFFu).has_value());
  // A bs past the array has no slot to publish into.
  slots.set(ClauseId(0), 4, PolicyTag(1));
  EXPECT_FALSE(slots.get(ClauseId(0), 4).has_value());
  EXPECT_EQ(slots.version(), 0u);
}

TEST(TagSlots, GrowsForAppendedClausesAndKeepsPublishedTags) {
  TagSlots slots(/*clauses=*/1, /*num_bs=*/2);
  slots.set(ClauseId(0), 1, PolicyTag(4));
  slots.set(ClauseId(5), 0, PolicyTag(9));  // past the array: it grows
  EXPECT_EQ(slots.get(ClauseId(0), 1), PolicyTag(4));
  EXPECT_EQ(slots.get(ClauseId(5), 0), PolicyTag(9));
  EXPECT_FALSE(slots.get(ClauseId(3), 0).has_value());
  EXPECT_FALSE(slots.get(ClauseId(6), 0).has_value());
  // assign() replaces every slot as one re-tag: one bump of two.
  const std::vector<TagSlots::Path> paths = {{ClauseId(5), 1, PolicyTag(2)}};
  slots.assign(paths);
  EXPECT_EQ(slots.version(), 2u);
  EXPECT_FALSE(slots.get(ClauseId(0), 1).has_value());
  EXPECT_FALSE(slots.get(ClauseId(5), 0).has_value());
  EXPECT_EQ(slots.get(ClauseId(5), 1), PolicyTag(2));
}

TEST(TagSlots, WireKeysOutsideTheArrayReadAsAbsent) {
  // A (clause, bs) from the wire beyond the policy or the topology reads
  // as absent, as an unknown key does: no tag, no throw, no slot growth.
  CellularTopology topo({.k = 4, .seed = 3});
  ShardBrain brain(topo, make_table1_policy(), {.shards = 2});
  const std::uint32_t num_bs = topo.num_base_stations();
  const ClauseId past(static_cast<std::uint32_t>(
      brain.policy_snapshot()->size()));
  EXPECT_FALSE(brain.committer().slots().get(past, 0).has_value());
  EXPECT_FALSE(brain.committer().slots().get(ClauseId(0), num_bs).has_value());
  const UeId ue(9);
  brain.provision_subscriber(ue, silver_profile(ue));
  for (const PacketClassifier& c : brain.fetch_classifiers(ue, num_bs + 7))
    EXPECT_FALSE(c.tag.has_value());
  // The commit stage rejects the unknown clause; nothing is published.
  EXPECT_ANY_THROW((void)brain.request_policy_path(ue, 0, past));
  EXPECT_FALSE(brain.committer().slots().get(past, 0).has_value());
}

TEST(TagSlots, ClausesAppendedByUpdatePolicyGetSlots) {
  // update_policy may append clauses after the slots were sized: their
  // installs must still publish and resolve through fetch_classifiers.
  CellularTopology topo({.k = 4, .seed = 3});
  ServicePolicy policy = make_table1_policy();
  ShardBrain brain(topo, policy, {.shards = 2});
  const ClauseId added = policy.add_clause(
      90, Predicate::provider_is(7),
      ServiceAction{true, {mb::kFirewall}, QosClass::kBestEffort});
  brain.update_policy(policy);
  const UeId ue(5);
  SubscriberProfile p = silver_profile(ue);
  p.provider = 7;
  brain.provision_subscriber(ue, p);
  const PolicyTag tag = brain.request_policy_path(ue, 2, added);
  EXPECT_EQ(brain.committer().slots().get(added, 2), tag);
  for (const PacketClassifier& c : brain.fetch_classifiers(ue, 2)) {
    EXPECT_EQ(c.clause, added);
    EXPECT_EQ(c.tag, tag);
  }
}

}  // namespace
}  // namespace softcell
