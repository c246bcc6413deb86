#include "ctrl/store.hpp"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "mem/slab.hpp"
#include "util/rng.hpp"

namespace softcell {
namespace {

SubscriberProfile profile(std::uint32_t provider) {
  SubscriberProfile p;
  p.provider = provider;
  return p;
}

TEST(ControlStore, ProfileRoundTrip) {
  ControlStore s(3);
  s.put_profile(UeId(1), profile(7));
  ASSERT_TRUE(s.profile(UeId(1)));
  EXPECT_EQ(s.profile(UeId(1))->provider, 7u);
  EXPECT_FALSE(s.profile(UeId(2)));
}

TEST(ControlStore, PathRoundTrip) {
  ControlStore s(2);
  s.put_path(ClauseId(3), 12, PolicyTag(9));
  ASSERT_TRUE(s.path(ClauseId(3), 12));
  EXPECT_EQ(*s.path(ClauseId(3), 12), PolicyTag(9));
  EXPECT_FALSE(s.path(ClauseId(3), 13));
  s.erase_path(ClauseId(3), 12);
  EXPECT_FALSE(s.path(ClauseId(3), 12));
}

TEST(ControlStore, ReplicasStayConsistent) {
  ControlStore s(3);
  for (int i = 0; i < 10; ++i) {
    s.put_profile(UeId(i), profile(i));
    s.put_path(ClauseId(i), i, PolicyTag(static_cast<std::uint16_t>(i)));
  }
  EXPECT_TRUE(s.replicas_consistent());
}

TEST(ControlStore, SlowStateSurvivesPrimaryFailure) {
  ControlStore s(3);
  s.put_profile(UeId(1), profile(5));
  s.put_path(ClauseId(2), 4, PolicyTag(8));
  s.set_location(UeId(1), UeLocation{4, LocalUeId(2)});
  s.fail_primary();
  EXPECT_EQ(s.replica_count(), 2u);
  // Slow state survived...
  ASSERT_TRUE(s.profile(UeId(1)));
  EXPECT_EQ(s.profile(UeId(1))->provider, 5u);
  EXPECT_EQ(*s.path(ClauseId(2), 4), PolicyTag(8));
  // ...but locations are gone until rebuilt.
  EXPECT_FALSE(s.location(UeId(1)));
}

TEST(ControlStore, LocationRebuildFromAgents) {
  ControlStore s(2);
  s.put_profile(UeId(1), profile(0));
  s.set_location(UeId(1), UeLocation{4, LocalUeId(2)});
  s.fail_primary();
  s.rebuild_locations([](const std::function<void(UeId, UeLocation)>& sink) {
    sink(UeId(1), UeLocation{4, LocalUeId(2)});
    sink(UeId(9), UeLocation{7, LocalUeId(0)});
  });
  ASSERT_TRUE(s.location(UeId(1)));
  EXPECT_EQ(s.location(UeId(1))->bs, 4u);
  EXPECT_EQ(s.attached_ues(), 2u);
}

TEST(ControlStore, SingleReplicaCannotFailOver) {
  ControlStore s(1);
  EXPECT_THROW(s.fail_primary(), std::logic_error);
  EXPECT_THROW(ControlStore(0), std::invalid_argument);
}

TEST(ControlStore, LocationsClearAndUpdate) {
  ControlStore s(2);
  s.set_location(UeId(1), UeLocation{1, LocalUeId(0)});
  s.set_location(UeId(1), UeLocation{2, LocalUeId(5)});
  ASSERT_TRUE(s.location(UeId(1)));
  EXPECT_EQ(s.location(UeId(1))->bs, 2u);
  s.clear_location(UeId(1));
  EXPECT_FALSE(s.location(UeId(1)));
}

TEST(ControlStore, VersionAdvancesOnWrites) {
  ControlStore s(2);
  const auto v0 = s.version();
  s.put_profile(UeId(1), profile(1));
  EXPECT_GT(s.version(), v0);
}

// --- seeded model test ---------------------------------------------------
//
// Random writes, failovers and rebuilds against a std::map model of what the
// store promises; every observable is compared after every step.  UEs above
// kProvisioned are never provisioned, so they only ever hold a location.
constexpr std::uint32_t kUes = 48;
constexpr std::uint32_t kProvisioned = 32;
constexpr std::uint32_t kClauses = 4;
constexpr std::uint32_t kBs = 6;

struct StoreModel {
  std::map<UeId, SubscriberProfile> profiles;
  std::map<std::pair<std::uint32_t, std::uint32_t>, PolicyTag> paths;
  std::map<UeId, UeLocation> locations;
  std::uint64_t version = 0;
  std::size_t replicas = 0;
};

SubscriberProfile random_profile(Rng& rng, UeId ue) {
  SubscriberProfile p;
  p.ue = ue;
  p.provider = static_cast<std::uint32_t>(rng.next_below(4));
  p.plan = static_cast<BillingPlan>(rng.next_below(3));
  p.roaming = rng.next_bernoulli(0.5);
  p.over_usage_cap = rng.next_bernoulli(0.5);
  return p;
}

// One of the ids 1..n.
UeId random_ue(Rng& rng, std::uint32_t n) {
  return UeId(1 + static_cast<std::uint32_t>(rng.next_below(n)));
}

UeLocation random_location(Rng& rng) {
  return UeLocation{static_cast<std::uint32_t>(rng.next_below(kBs)),
                    LocalUeId(static_cast<std::uint16_t>(rng.next_below(64)))};
}

void expect_matches(const ControlStore& s, const StoreModel& m, int step) {
  SCOPED_TRACE(::testing::Message() << "step " << step);
  ASSERT_EQ(s.replica_count(), m.replicas);
  ASSERT_EQ(s.version(), m.version);
  ASSERT_TRUE(s.replicas_consistent());
  ASSERT_EQ(s.attached_ues(), m.locations.size());
  for (std::uint32_t u = 1; u <= kUes; ++u) {
    const UeId ue(u);
    const auto it = m.profiles.find(ue);
    const std::optional<SubscriberProfile> got = s.profile(ue);
    ASSERT_EQ(got.has_value(), it != m.profiles.end()) << "ue " << u;
    ASSERT_EQ(s.has_profile(ue), got.has_value()) << "ue " << u;
    if (got) {
      ASSERT_EQ(got->ue, it->second.ue);
      ASSERT_EQ(got->provider, it->second.provider);
      ASSERT_EQ(got->plan, it->second.plan);
      ASSERT_EQ(got->roaming, it->second.roaming);
      ASSERT_EQ(got->over_usage_cap, it->second.over_usage_cap);
    }
    const auto loc = m.locations.find(ue);
    ASSERT_EQ(s.location(ue), loc == m.locations.end()
                                  ? std::nullopt
                                  : std::optional<UeLocation>(loc->second))
        << "ue " << u;
  }
  for (std::uint32_t c = 0; c < kClauses; ++c)
    for (std::uint32_t bs = 0; bs < kBs; ++bs) {
      const auto it = m.paths.find({c, bs});
      ASSERT_EQ(s.path(ClauseId(c), bs),
                it == m.paths.end() ? std::nullopt
                                    : std::optional<PolicyTag>(it->second))
          << "clause " << c << " bs " << bs;
    }
  std::map<UeId, UeLocation> walked;
  s.for_each_location([&](UeId ue, const UeLocation& loc) {
    EXPECT_TRUE(walked.emplace(ue, loc).second) << "ue visited twice";
  });
  ASSERT_EQ(walked, m.locations);
}

class StoreModelTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StoreModelTest, RandomHistoryMatchesMapModel) {
  const std::size_t replicas = GetParam();
  Rng rng(0x57023 + replicas);
  ControlStore s(replicas);
  StoreModel m;
  m.replicas = replicas;
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t op = rng.next_below(100);
    if (op < 22) {  // put_profile: fresh, overwrite, or over a location
      const UeId ue = random_ue(rng, kProvisioned);
      const SubscriberProfile p = random_profile(rng, ue);
      s.put_profile(ue, p);
      m.profiles[ue] = p;
      ++m.version;
    } else if (op < 44) {  // set_location, provisioned or not
      const UeId ue = random_ue(rng, kUes);
      const UeLocation loc = random_location(rng);
      s.set_location(ue, loc);
      m.locations[ue] = loc;
    } else if (op < 58) {
      const UeId ue = random_ue(rng, kUes);
      s.clear_location(ue);
      m.locations.erase(ue);
    } else if (op < 78) {  // put_path: fresh, overwrite, or a re-put
      const auto c = static_cast<std::uint32_t>(rng.next_below(kClauses));
      const auto bs = static_cast<std::uint32_t>(rng.next_below(kBs));
      const PolicyTag tag(static_cast<std::uint16_t>(rng.next_below(1000)));
      s.put_path(ClauseId(c), bs, tag);
      m.paths[{c, bs}] = tag;
      ++m.version;
    } else if (op < 94) {  // erase_path, present or not
      const auto c = static_cast<std::uint32_t>(rng.next_below(kClauses));
      const auto bs = static_cast<std::uint32_t>(rng.next_below(kBs));
      s.erase_path(ClauseId(c), bs);
      m.paths.erase({c, bs});
      ++m.version;
    } else if (op < 97) {
      if (m.replicas < 2 || !rng.next_bernoulli(0.1)) continue;
      s.fail_primary();
      --m.replicas;
      m.locations.clear();
    } else {  // rebuild from agents: some UEs the store never provisioned
      std::vector<std::pair<UeId, UeLocation>> truth;
      const std::uint64_t n = rng.next_below(12);
      for (std::uint64_t i = 0; i < n; ++i) {
        const UeId ue = random_ue(rng, kUes);
        truth.emplace_back(ue, random_location(rng));
      }
      s.rebuild_locations(
          [&](const std::function<void(UeId, UeLocation)>& sink) {
            for (const auto& [ue, loc] : truth) sink(ue, loc);
          });
      m.locations.clear();
      for (const auto& [ue, loc] : truth) m.locations[ue] = loc;
    }
    expect_matches(s, m, step);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The history reached a failover whenever there was a replica to promote.
  if (replicas > 1) {
    EXPECT_LT(s.replica_count(), replicas);
  }
}

INSTANTIATE_TEST_SUITE_P(Replicas, StoreModelTest,
                         ::testing::Values(1, 2, 3, 6));

TEST(ControlStore, IndexIsChargedOnce) {
  // The replicas beyond the primary cost exactly their value slabs: a
  // mirror slab fed the same emplace/erase sequence prices one of them.
  constexpr std::size_t kReplicas = 3;
  ControlStore s(kReplicas);
  mem::Slab<SubscriberProfile> profiles;
  mem::Slab<PolicyTag> paths;
  std::vector<mem::Handle> path_handles;
  for (std::uint32_t u = 1; u <= 700; ++u) {
    s.put_profile(UeId(u), profile(u));
    profiles.emplace(profile(u));
    if (u % 2 == 0) s.set_location(UeId(u), UeLocation{u % 7, LocalUeId(1)});
  }
  for (std::uint32_t bs = 0; bs < 300; ++bs) {
    s.put_path(ClauseId(1), bs, PolicyTag(5));
    path_handles.push_back(paths.emplace(PolicyTag(5)));
  }
  for (std::uint32_t bs = 0; bs < 300; bs += 3) {
    s.erase_path(ClauseId(1), bs);
    paths.erase(path_handles[bs]);
  }
  const auto replica_bytes = [&] {
    return profiles.bytes_resident() + paths.bytes_resident();
  };
  EXPECT_EQ(s.bytes_resident() - s.primary_bytes_resident(),
            (kReplicas - 1) * replica_bytes());
  s.fail_primary();
  EXPECT_EQ(s.bytes_resident() - s.primary_bytes_resident(),
            (kReplicas - 2) * replica_bytes());
}

}  // namespace
}  // namespace softcell
