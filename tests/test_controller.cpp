#include "ctrl/controller.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "util/rng.hpp"
#include "workload/wire_workload.hpp"

namespace softcell {
namespace {

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest()
      : topo_({.k = 4, .seed = 3}), ctrl_(topo_, make_table1_policy()) {}

  UeId provision(std::uint32_t provider, BillingPlan plan = BillingPlan::kSilver) {
    const UeId ue(next_++);
    SubscriberProfile p;
    p.ue = ue;
    p.provider = provider;
    p.plan = plan;
    ctrl_.provision_subscriber(ue, p);
    return ue;
  }

  ClauseId clause_for(std::uint32_t provider, AppType app) {
    SubscriberProfile p;
    p.provider = provider;
    p.plan = BillingPlan::kSilver;
    const auto* c = ctrl_.policy().match(p, app);
    EXPECT_NE(c, nullptr);
    return c->id;
  }

  CellularTopology topo_;
  Controller ctrl_;
  std::uint32_t next_ = 1;
};

TEST_F(ControllerTest, AttachRequiresProvisioning) {
  EXPECT_THROW(ctrl_.attach_ue(UeId(99), 0, LocalUeId(0)),
               std::invalid_argument);
  const UeId ue = provision(0);
  ctrl_.attach_ue(ue, 3, LocalUeId(7));
  const auto loc = ctrl_.ue_location(ue);
  ASSERT_TRUE(loc);
  EXPECT_EQ(loc->bs, 3u);
  EXPECT_EQ(loc->local, LocalUeId(7));
  ctrl_.detach_ue(ue);
  EXPECT_FALSE(ctrl_.ue_location(ue));
}

TEST_F(ControllerTest, ClassifiersCoverAllAppTypes) {
  const UeId ue = provision(0);
  const auto cls = ctrl_.fetch_classifiers(ue, 0);
  EXPECT_EQ(cls.size(), 5u);
  for (const auto& c : cls) EXPECT_TRUE(c.allow);  // home subscriber
  // No path installed yet: every classifier says "ask the controller".
  for (const auto& c : cls) EXPECT_FALSE(c.tag.has_value());
}

TEST_F(ControllerTest, ForeignProviderClassifiersDeny) {
  const UeId ue = provision(7);
  const auto cls = ctrl_.fetch_classifiers(ue, 0);
  for (const auto& c : cls) EXPECT_FALSE(c.allow);
}

TEST_F(ControllerTest, RequestPolicyPathIsIdempotent) {
  const auto clause = clause_for(0, AppType::kWeb);
  const auto t1 = ctrl_.request_policy_path(5, clause);
  const auto installs = ctrl_.path_installs();
  const auto t2 = ctrl_.request_policy_path(5, clause);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(ctrl_.path_installs(), installs);  // no re-install
}

TEST_F(ControllerTest, ClassifiersCarryTagOnceInstalled) {
  const UeId ue = provision(0);
  const auto clause = clause_for(0, AppType::kWeb);
  const auto tag = ctrl_.request_policy_path(2, clause);
  const auto cls = ctrl_.fetch_classifiers(ue, 2);
  bool found = false;
  for (const auto& c : cls) {
    if (c.clause == clause) {
      EXPECT_EQ(c.tag, tag);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // A different base station is still uninstalled.
  for (const auto& c : ctrl_.fetch_classifiers(ue, 3))
    if (c.clause == clause) EXPECT_FALSE(c.tag.has_value());
}

TEST_F(ControllerTest, SameClauseSharesTagsAcrossBaseStations) {
  const auto clause = clause_for(0, AppType::kWeb);
  const auto t0 = ctrl_.request_policy_path(0, clause);
  std::size_t same = 0;
  for (std::uint32_t bs = 1; bs < 30; ++bs)
    if (ctrl_.request_policy_path(bs, clause) == t0) ++same;
  EXPECT_GE(same, 25u);  // aggressive tag reuse via the clause hint
}

TEST_F(ControllerTest, SelectInstancesRespectsPlacement) {
  const auto clause = clause_for(0, AppType::kVideo);  // firewall+transcoder
  const auto inst = ctrl_.select_instances(100, clause);
  ASSERT_EQ(inst.size(), 2u);
  // GatewayHeavy: firewall at a core-layer instance...
  bool fw_is_core = false;
  for (std::uint32_t w = 0; w < 2; ++w) {
    if (topo_.core_instance(mb::kFirewall, w).node == inst[0]) fw_is_core = true;
  }
  EXPECT_TRUE(fw_is_core);
  // ...transcoder pod-local.
  EXPECT_EQ(inst[1], topo_.pod_instance(mb::kTranscoder, topo_.pod_of_bs(100)).node);
}

TEST_F(ControllerTest, PodLocalPlacement) {
  ControllerOptions opts;
  opts.placement = InstancePlacement::kPodLocal;
  Controller ctrl(topo_, make_table1_policy(), opts);
  const auto clause = clause_for(0, AppType::kVideo);
  const auto inst = ctrl.select_instances(42, clause);
  const auto pod = topo_.pod_of_bs(42);
  EXPECT_EQ(inst[0], topo_.pod_instance(mb::kFirewall, pod).node);
  EXPECT_EQ(inst[1], topo_.pod_instance(mb::kTranscoder, pod).node);
}

TEST_F(ControllerTest, InstalledPathsWalkEndToEnd) {
  const auto clause = clause_for(0, AppType::kVideo);
  const auto tag = ctrl_.request_policy_path(7, clause);
  const auto instances = ctrl_.select_instances(7, clause);
  for (Direction dir : {Direction::kUplink, Direction::kDownlink}) {
    const auto path = expand_policy_path(
        topo_.graph(), ctrl_.routes(), dir, topo_.access_switch(7), instances,
        topo_.gateway(), topo_.internet());
    const auto w = ctrl_.engine().walk(path, tag, topo_.bs_prefix(7));
    EXPECT_TRUE(w.ok) << to_string(dir) << ": " << w.error;
  }
}

TEST_F(ControllerTest, MigrationKeepsBothVersionsUntilDrain) {
  const auto clause = clause_for(0, AppType::kWeb);
  const auto t_old = ctrl_.request_policy_path(4, clause);
  const auto rules_one_version = ctrl_.engine().total_rules();

  const auto mig = ctrl_.migrate_path(4, clause);
  EXPECT_EQ(mig.old_tag, t_old);
  EXPECT_NE(mig.new_tag, t_old);
  // Both versions are installed now.
  EXPECT_GT(ctrl_.engine().total_rules(), rules_one_version);

  // Old flows still walk under the old tag, new flows under the new tag.
  const auto instances = ctrl_.select_instances(4, clause);
  const auto down = expand_policy_path(
      topo_.graph(), ctrl_.routes(), Direction::kDownlink,
      topo_.access_switch(4), instances, topo_.gateway(), topo_.internet());
  EXPECT_TRUE(ctrl_.engine().walk(down, mig.old_tag, topo_.bs_prefix(4)).ok);
  EXPECT_TRUE(ctrl_.engine().walk(down, mig.new_tag, topo_.bs_prefix(4)).ok);

  ctrl_.drain_old_path(4, clause, mig.old_tag);
  EXPECT_TRUE(ctrl_.engine().walk(down, mig.new_tag, topo_.bs_prefix(4)).ok);
  EXPECT_THROW(ctrl_.drain_old_path(4, clause, mig.old_tag),
               std::invalid_argument);
}

TEST_F(ControllerTest, MigrationNotifiesClassifierListener) {
  const auto clause = clause_for(0, AppType::kWeb);
  (void)ctrl_.request_policy_path(4, clause);
  std::optional<PolicyTag> pushed;
  ctrl_.set_classifier_listener(
      [&](std::uint32_t bs, ClauseId c, PolicyTag t) {
        EXPECT_EQ(bs, 4u);
        EXPECT_EQ(c, clause);
        pushed = t;
      });
  const auto mig = ctrl_.migrate_path(4, clause);
  ASSERT_TRUE(pushed);
  EXPECT_EQ(*pushed, mig.new_tag);
}

TEST_F(ControllerTest, MigrateUnknownPathThrows) {
  EXPECT_THROW(ctrl_.migrate_path(0, clause_for(0, AppType::kWeb)),
               std::invalid_argument);
}

TEST_F(ControllerTest, FailoverPreservesSlowState) {
  const UeId ue = provision(0);
  ctrl_.attach_ue(ue, 1, LocalUeId(0));
  const auto clause = clause_for(0, AppType::kWeb);
  const auto tag = ctrl_.request_policy_path(1, clause);

  ctrl_.fail_primary_replica();
  // Paths and profiles survive; classifiers still resolve the tag.
  const auto cls = ctrl_.fetch_classifiers(ue, 1);
  bool found = false;
  for (const auto& c : cls)
    if (c.clause == clause && c.tag == tag) found = true;
  EXPECT_TRUE(found);
  // Locations are rebuilt from agents.
  EXPECT_FALSE(ctrl_.ue_location(ue));
  ctrl_.rebuild_locations([&](const std::function<void(UeId, UeLocation)>& s) {
    s(ue, UeLocation{1, LocalUeId(0)});
  });
  ASSERT_TRUE(ctrl_.ue_location(ue));
  EXPECT_EQ(ctrl_.ue_location(ue)->bs, 1u);
}

TEST(ControllerTagBudget, DeniedInstallsLeaveNoLoadBehind) {
  // Forty one-firewall clauses at one base station need forty distinct
  // tags there; past a 16-tag budget (tag 0 is the delivery tag) the
  // requests are denied whole: no install, and no middlebox load counted.
  CellularTopology topo({.k = 4, .seed = 1});
  ServicePolicy policy;
  std::vector<ClauseId> clauses;
  for (std::uint32_t c = 0; c < 40; ++c)
    clauses.push_back(policy.add_clause(
        10 + c, Predicate::provider_is(100 + c),
        ServiceAction{true, {mb::kFirewall}, QosClass::kBestEffort}));
  ControllerOptions options;
  options.engine.max_tags = 16;
  Controller ctrl(topo, policy, options);
  std::uint64_t installed = 0, denied = 0;
  for (const ClauseId clause : clauses) {
    try {
      (void)ctrl.request_policy_path(0, clause);
      ++installed;
    } catch (const AggregationEngine::TagBudgetExhausted&) {
      ++denied;
    }
  }
  EXPECT_EQ(installed, 15u);
  EXPECT_EQ(denied, 25u);
  EXPECT_EQ(ctrl.path_installs(), installed);
  std::uint64_t load = 0;
  for (const auto& inst : topo.middleboxes())
    load += ctrl.instance_load(inst.node);
  EXPECT_EQ(load, installed);  // one firewall per installed path
}

// Every (bs, clause) key of `clauses` at `num_bs` base stations, as
// bs * clauses + clause, in a seeded Fisher-Yates shuffle: the order flow
// misses reach the controller in.
std::vector<std::uint32_t> shuffled_keys(std::uint32_t num_bs,
                                         std::uint32_t clauses,
                                         std::uint64_t seed) {
  std::vector<std::uint32_t> order(num_bs * clauses);
  std::iota(order.begin(), order.end(), 0u);
  Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.next_below(i)]);
  return order;
}

std::size_t fabric_rules(const Controller& ctrl) {
  const auto sizes = ctrl.engine().table_stats().fabric_sizes;
  return std::accumulate(sizes.begin(), sizes.end(), std::size_t{0});
}

// Clause-home tags (DESIGN.md section 7): with keys arriving interleaved
// across clauses and base stations, online Algorithm 1 stays within 1.2x
// of the clause-major recompact() rebuild, and the reference scan picks
// the same tag for every key.  Greedy Step 1 left about 4.5x the floor.
TEST(ControllerArrivalOrder, ShuffledKeysStayNearTheRecompactFloor) {
  const CellularTopology topo({.k = 4, .seed = 1});
  std::vector<ClauseId> clauses;
  const ServicePolicy policy = make_wire_policy(topo, 16, &clauses);
  const auto n = static_cast<std::uint32_t>(clauses.size());
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto order = shuffled_keys(topo.num_base_stations(), n, seed);
    std::vector<PolicyTag> tags[2];
    for (const bool fastpath : {true, false}) {
      ControllerOptions options = with_port_tag_budget({});
      options.engine.fastpath = fastpath;
      Controller ctrl(topo, policy, options);
      for (const std::uint32_t q : order)
        tags[fastpath].push_back(
            ctrl.request_policy_path(q / n, clauses[q % n]));
      const std::size_t online = fabric_rules(ctrl);
      ctrl.recompact();
      const std::size_t floor = fabric_rules(ctrl);
      EXPECT_LE(online * 5, floor * 6)
          << "seed " << seed << " fastpath " << fastpath << ": " << online
          << " rules online, " << floor << " after recompact";
    }
    EXPECT_EQ(tags[0], tags[1]) << "seed " << seed;
  }
}

// Past the tag budget Step 1 falls back to the greedy scan: with more
// clauses than tags, but fewer clauses at any one base station than tags,
// every request is admitted, as greedy Step 1 alone admits them.  Clause
// homes spend the whole budget first; greedy alone packs these keys onto
// four tags.
TEST(ControllerTagBudget, SparseClausesPastTheBudgetAreAllAdmitted) {
  const CellularTopology topo({.k = 4, .seed = 1});
  ServicePolicy policy;
  std::vector<ClauseId> clauses;
  for (std::uint32_t c = 0; c < 20; ++c)
    clauses.push_back(policy.add_clause(
        10 + c, Predicate::provider_is(100 + c),
        ServiceAction{true, {mb::kFirewall}, QosClass::kBestEffort}));
  // Four clauses per base station, at bs * 3 + j: each clause shows up at
  // a fifth of the base stations.
  const std::uint32_t per_bs = 4;
  const auto order = shuffled_keys(topo.num_base_stations(), per_bs, 5);
  for (const bool fastpath : {true, false}) {
    ControllerOptions options;
    options.engine.max_tags = 8;  // 7 policy tags besides the delivery tag
    options.engine.fastpath = fastpath;
    Controller ctrl(topo, policy, options);
    for (const std::uint32_t q : order) {
      const std::uint32_t bs = q / per_bs;
      const ClauseId clause = clauses[(bs * 3 + q % per_bs) % clauses.size()];
      PolicyTag tag;
      ASSERT_NO_THROW(tag = ctrl.request_policy_path(bs, clause))
          << "bs " << bs << " clause " << clause.value();
      EXPECT_LT(tag.value(), 8u);
    }
    EXPECT_EQ(ctrl.path_installs(), order.size());
    EXPECT_EQ(ctrl.engine().tags_in_use(), 8u);
  }
}

}  // namespace
}  // namespace softcell
