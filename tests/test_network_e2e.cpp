// End-to-end packet tests over the full SoftCell system: policy routing,
// state embedding in headers (Fig. 4), the dumb gateway property, NAT.
#include "sim/network.hpp"

#include <gtest/gtest.h>

namespace softcell {
namespace {

constexpr Ipv4Addr kServer = 0x08080808u;

class E2eTest : public ::testing::Test {
 protected:
  E2eTest() : net_(SoftCellConfig{.topo = {.k = 4, .seed = 17}},
                   make_table1_policy()) {}

  UeId silver_ue(std::uint32_t bs) {
    SubscriberProfile p;
    p.plan = BillingPlan::kSilver;
    const UeId ue = net_.add_subscriber(p);
    net_.attach(ue, bs);
    return ue;
  }

  SoftCellNetwork net_;
};

TEST_F(E2eTest, UplinkWebFlowDeliveredThroughFirewall) {
  const UeId ue = silver_ue(0);
  const auto flow = net_.open_flow(ue, kServer, 80);
  const auto d = net_.send_uplink(flow, TcpFlag::kSyn);
  ASSERT_TRUE(d.delivered) << d.drop_reason;
  ASSERT_EQ(d.middlebox_sequence.size(), 1u);
  EXPECT_EQ(net_.middlebox(d.middlebox_sequence[0]).kind(), "firewall");
}

TEST_F(E2eTest, StateEmbeddedInSourceHeader) {
  // Fig. 4: the packet leaves the network with LocIP as source address and
  // the policy tag in the high bits of the source port.
  const UeId ue = silver_ue(3);
  const auto flow = net_.open_flow(ue, kServer, 80);
  const auto d = net_.send_uplink(flow, TcpFlag::kSyn);
  ASSERT_TRUE(d.delivered) << d.drop_reason;
  const auto fields = net_.plan().decode(d.final_packet.key.src_ip);
  ASSERT_TRUE(fields);
  EXPECT_EQ(fields->bs_index, 3u);
  const auto tag = net_.codec().tag_of(d.final_packet.key.src_port);
  // The tag corresponds to the installed web-clause path at bs 3.
  SubscriberProfile p;
  p.plan = BillingPlan::kSilver;
  const auto* clause = net_.controller().policy().match(p, AppType::kWeb);
  ASSERT_NE(clause, nullptr);
  EXPECT_EQ(net_.controller().store().path(clause->id, 3), tag);
}

TEST_F(E2eTest, PermanentIpIsTheBasePlusTheIssuedId) {
  constexpr Ipv4Addr kPermanentBase = 0x64400000u;  // 100.64.0.0/10
  const UeId ue = silver_ue(0);
  EXPECT_EQ(net_.open_flow(ue, kServer, 80).key.src_ip,
            kPermanentBase + ue.value());
  // Only ids add_subscriber() handed out have an address.
  const UeId unissued(ue.value() + 1);
  for (const UeId bad : {UeId(0), unissued}) {
    EXPECT_THROW(net_.open_flow(bad, kServer, 80), std::out_of_range);
    EXPECT_THROW(net_.attach(bad, 1), std::out_of_range);
  }
}

TEST_F(E2eTest, DownlinkReturnsThroughSameMiddleboxesReversed) {
  const UeId ue = silver_ue(5);
  const auto flow = net_.open_flow(ue, kServer, 1935);  // video: fw+transcoder
  const auto up = net_.send_uplink(flow, TcpFlag::kSyn);
  ASSERT_TRUE(up.delivered) << up.drop_reason;
  ASSERT_EQ(up.middlebox_sequence.size(), 2u);

  const auto down = net_.send_downlink(flow);
  ASSERT_TRUE(down.delivered) << down.drop_reason;
  ASSERT_EQ(down.middlebox_sequence.size(), 2u);
  EXPECT_EQ(down.middlebox_sequence[0], up.middlebox_sequence[1]);
  EXPECT_EQ(down.middlebox_sequence[1], up.middlebox_sequence[0]);
  // Delivered to the UE's permanent address and original port.
  EXPECT_EQ(down.final_packet.key.dst_ip, flow.key.src_ip);
  EXPECT_EQ(down.final_packet.key.dst_port, flow.key.src_port);
}

TEST_F(E2eTest, MiddleboxSequenceMatchesPolicySelection) {
  const UeId ue = silver_ue(9);
  const auto flow = net_.open_flow(ue, kServer, 1935);
  const auto up = net_.send_uplink(flow, TcpFlag::kSyn);
  ASSERT_TRUE(up.delivered) << up.drop_reason;
  SubscriberProfile p;
  p.plan = BillingPlan::kSilver;
  const auto* clause = net_.controller().policy().match(p, AppType::kVideo);
  const auto expected = net_.expected_middleboxes(9, clause->id);
  EXPECT_EQ(up.middlebox_sequence, expected);
}

TEST_F(E2eTest, TranscoderShrinksVideoPayload) {
  const UeId ue = silver_ue(2);
  const auto flow = net_.open_flow(ue, kServer, 1935);
  (void)net_.send_uplink(flow, TcpFlag::kSyn);
  const auto down = net_.send_downlink(flow, TcpFlag::kNone, 1000);
  ASSERT_TRUE(down.delivered) << down.drop_reason;
  EXPECT_LT(down.final_packet.payload_bytes, 1000u);
}

TEST_F(E2eTest, ForeignProviderDenied) {
  SubscriberProfile p;
  p.provider = 9;
  const UeId ue = net_.add_subscriber(p);
  net_.attach(ue, 0);
  const auto flow = net_.open_flow(ue, kServer, 80);
  const auto d = net_.send_uplink(flow, TcpFlag::kSyn);
  EXPECT_FALSE(d.delivered);
  EXPECT_EQ(d.drop_reason, "denied by service policy");
}

TEST_F(E2eTest, RoamingPartnerAllowedThroughFirewall) {
  SubscriberProfile p;
  p.provider = 1;
  const UeId ue = net_.add_subscriber(p);
  net_.attach(ue, 0);
  const auto flow = net_.open_flow(ue, kServer, 80);
  const auto d = net_.send_uplink(flow, TcpFlag::kSyn);
  ASSERT_TRUE(d.delivered) << d.drop_reason;
  ASSERT_EQ(d.middlebox_sequence.size(), 1u);
}

TEST_F(E2eTest, UnattachedUeCannotSend) {
  SubscriberProfile p;
  const UeId ue = net_.add_subscriber(p);
  const auto flow = net_.open_flow(ue, kServer, 80);
  EXPECT_FALSE(net_.send_uplink(flow, TcpFlag::kSyn).delivered);
}

TEST_F(E2eTest, DownlinkBeforeUplinkImpossible) {
  const UeId ue = silver_ue(0);
  const auto flow = net_.open_flow(ue, kServer, 80);
  EXPECT_FALSE(net_.send_downlink(flow).delivered);
}

TEST_F(E2eTest, GatewayHoldsNoPerFlowState) {
  // The "dumb gateway" claim: fabric state at the gateway grows with
  // policies and locations, never with flows.
  const UeId ue = silver_ue(1);
  auto warm = net_.open_flow(ue, kServer, 80);
  (void)net_.send_uplink(warm, TcpFlag::kSyn);
  const auto gw_rules =
      net_.controller().engine().table(net_.topology().gateway()).rule_count();
  const auto access_rules = net_.access(1).flows().size();
  for (int i = 0; i < 50; ++i) {
    auto f = net_.open_flow(ue, kServer + 1 + static_cast<Ipv4Addr>(i), 80);
    ASSERT_TRUE(net_.send_uplink(f, TcpFlag::kSyn).delivered);
    ASSERT_TRUE(net_.send_downlink(f).delivered);
  }
  EXPECT_EQ(
      net_.controller().engine().table(net_.topology().gateway()).rule_count(),
      gw_rules);
  EXPECT_GT(net_.access(1).flows().size(), access_rules);  // edge holds state
}

TEST_F(E2eTest, ManyUesAcrossBaseStationsAllDelivered) {
  for (std::uint32_t bs = 0; bs < 40; bs += 3) {
    const UeId ue = silver_ue(bs);
    for (std::uint16_t port : {std::uint16_t{80}, std::uint16_t{1935},
                               std::uint16_t{5060}}) {
      const auto flow = net_.open_flow(ue, kServer, port);
      const auto up = net_.send_uplink(flow, TcpFlag::kSyn);
      ASSERT_TRUE(up.delivered) << "bs " << bs << " port " << port << ": "
                                << up.drop_reason;
      const auto down = net_.send_downlink(flow);
      ASSERT_TRUE(down.delivered) << "bs " << bs << " port " << port << ": "
                                  << down.drop_reason;
    }
  }
}

TEST_F(E2eTest, RepeatPacketsReuseMicroflowRules) {
  const UeId ue = silver_ue(0);
  const auto flow = net_.open_flow(ue, kServer, 80);
  (void)net_.send_uplink(flow, TcpFlag::kSyn);
  const auto misses = net_.agent(0).cache_misses();
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(net_.send_uplink(flow).delivered);
  EXPECT_EQ(net_.agent(0).cache_misses(), misses);  // no agent involvement
}

class NatE2eTest : public ::testing::Test {
 protected:
  NatE2eTest()
      : net_(SoftCellConfig{.topo = {.k = 4, .seed = 17}, .enable_nat = true},
             make_table1_policy()) {}
  SoftCellNetwork net_;
};

TEST_F(NatE2eTest, ServerSeesOnlyNatPool) {
  SubscriberProfile p;
  p.plan = BillingPlan::kSilver;
  const UeId ue = net_.add_subscriber(p);
  net_.attach(ue, 4);
  const auto flow = net_.open_flow(ue, kServer, 80);
  const auto up = net_.send_uplink(flow, TcpFlag::kSyn);
  ASSERT_TRUE(up.delivered) << up.drop_reason;
  // No LocIP leaks: the source is in the NAT pool, not the carrier prefix.
  EXPECT_FALSE(net_.plan().carrier().contains(up.final_packet.key.src_ip));
  EXPECT_TRUE(Prefix(0xC6336400u, 24).contains(up.final_packet.key.src_ip));
  // Return traffic is translated back and delivered.
  const auto down = net_.send_downlink(flow);
  ASSERT_TRUE(down.delivered) << down.drop_reason;
  EXPECT_EQ(down.final_packet.key.dst_ip, flow.key.src_ip);
  EXPECT_EQ(net_.gateway_flow_state(), 1u);
}

TEST_F(NatE2eTest, FinReleasesNatState) {
  SubscriberProfile p;
  const UeId ue = net_.add_subscriber(p);
  net_.attach(ue, 0);
  const auto flow = net_.open_flow(ue, kServer, 80);
  ASSERT_TRUE(net_.send_uplink(flow, TcpFlag::kSyn).delivered);
  EXPECT_EQ(net_.gateway_flow_state(), 1u);
  ASSERT_TRUE(net_.send_uplink(flow, TcpFlag::kFin).delivered);
  EXPECT_EQ(net_.gateway_flow_state(), 0u);
}

}  // namespace
}  // namespace softcell

namespace softcell {
namespace {

// A clause that traverses the same middlebox type twice forces a loop at
// its host switch; the engine splits the path into tag segments joined by
// transit-tag swaps.  The *embedded* tag (Fig. 4) must survive: the server
// echoes it back and both directions keep working.
TEST(LoopyPolicy, EmbeddedTagSurvivesTagSwaps) {
  ServicePolicy policy;
  policy.add_clause(
      10, Predicate::any(),
      ServiceAction{true,
                    {mb::kFirewall, mb::kEchoCanceller, mb::kFirewall},
                    QosClass::kBestEffort});
  SoftCellConfig config;
  config.topo = {.k = 4, .seed = 71};
  SoftCellNetwork net(config, std::move(policy));

  const UeId ue = net.add_subscriber(SubscriberProfile{});
  net.attach(ue, 9);
  const auto flow = net.open_flow(ue, 0x08080808u, 80);
  const auto up = net.send_uplink(flow, TcpFlag::kSyn);
  ASSERT_TRUE(up.delivered) << up.drop_reason;
  ASSERT_EQ(up.middlebox_sequence.size(), 3u);
  EXPECT_EQ(up.middlebox_sequence[0], up.middlebox_sequence[2]);

  // The egress source port still carries the path's primary tag.
  SubscriberProfile p;
  const auto* clause = net.controller().policy().match(p, AppType::kWeb);
  const auto stored = net.controller().store().path(clause->id, 9);
  ASSERT_TRUE(stored);
  EXPECT_EQ(net.codec().tag_of(up.final_packet.key.src_port), *stored);

  // Return traffic resolves through the same (reversed) loopy path.
  const auto down = net.send_downlink(flow);
  ASSERT_TRUE(down.delivered) << down.drop_reason;
  ASSERT_EQ(down.middlebox_sequence.size(), 3u);
  EXPECT_EQ(down.final_packet.key.dst_ip, flow.key.src_ip);
}

// The shared delivery tier (section 7 multi-table design): delivery-region
// rules live under the reserved tag and are shared by all clauses, so the
// number of delivery rules does not grow with the number of clauses.
TEST(DeliveryTier, SharedAcrossClauses) {
  CellularTopology topo({.k = 4, .seed = 81});
  RoutingOracle routes(topo.graph());
  AggregationEngine eng(topo.graph(), {});

  const auto delivery_rules = [&] {
    std::size_t n = 0;
    for (std::uint32_t i = 0; i < topo.graph().node_count(); ++i) {
      const NodeId id(i);
      if (!topo.graph().is_fabric_switch(id)) continue;
      const auto& usage = eng.table(id).tag_usage(Direction::kDownlink);
      if (const auto it = usage.find(AggregationEngine::kDeliveryTag);
          it != usage.end())
        n += it->second.count;
    }
    return n;
  };

  std::size_t after_first = 0;
  for (std::uint32_t c = 0; c < 6; ++c) {
    const NodeId inst = topo.core_instance(c % 4, c / 4).node;
    std::optional<PolicyTag> hint;
    for (std::uint32_t bs = 0; bs < topo.num_base_stations(); bs += 2) {
      const auto path = expand_policy_path(
          topo.graph(), routes, Direction::kDownlink, topo.access_switch(bs),
          std::vector<NodeId>{inst}, topo.gateway(), topo.internet());
      const auto r = eng.install(path, bs, topo.bs_prefix(bs), hint);
      hint = r.tag;
    }
    if (c == 0) after_first = delivery_rules();
  }
  // Later clauses re-reference the shared tree; only the entry segments
  // from each clause's own last-middlebox host are new.  Growth must stay
  // far below one-full-tree-per-clause (6 clauses here).
  EXPECT_LT(delivery_rules(), 6 * after_first / 2);
}

}  // namespace
}  // namespace softcell

namespace softcell {
namespace {

// QoS handling (Table 1 clause 5): low-latency clauses are served by
// pod-local middlebox instances and priority queuing, so fleet-tracking
// telemetry sees visibly lower one-way latency than default traffic from
// the same base station.
TEST(QosLatency, FleetTrackingBeatsBestEffort) {
  SoftCellConfig config;
  config.topo = {.k = 4, .seed = 17};
  SoftCellNetwork net(config, make_table1_policy());

  SubscriberProfile tracker;
  tracker.device = DeviceClass::kM2mFleetTracker;
  const UeId van = net.add_subscriber(tracker);
  const UeId phone = net.add_subscriber(SubscriberProfile{});
  net.attach(van, 20);
  net.attach(phone, 20);

  const auto telemetry = net.open_flow(van, 0x08080808u, 8883);
  const auto web = net.open_flow(phone, 0x08080808u, 80);
  const auto t = net.send_uplink(telemetry, TcpFlag::kSyn);
  const auto w = net.send_uplink(web, TcpFlag::kSyn);
  ASSERT_TRUE(t.delivered) << t.drop_reason;
  ASSERT_TRUE(w.delivered) << w.drop_reason;
  EXPECT_GT(t.latency_ms, 0.0);
  EXPECT_LT(t.latency_ms, w.latency_ms);
  // The low-latency firewall is the pod-local instance, not the
  // gateway-side one the default placement would pick.
  ASSERT_EQ(t.middlebox_sequence.size(), 1u);
  EXPECT_EQ(t.middlebox_sequence[0],
            net.topology().pod_instance(mb::kFirewall,
                                        net.topology().pod_of_bs(20)).node);
  EXPECT_NE(t.middlebox_sequence[0], w.middlebox_sequence[0]);
}

TEST(QosLatency, DownlinkCarriesTheFlowsQosClass) {
  SoftCellConfig config;
  config.topo = {.k = 4, .seed = 17};
  SoftCellNetwork net(config, make_table1_policy());
  SubscriberProfile tracker;
  tracker.device = DeviceClass::kM2mFleetTracker;
  const UeId van = net.add_subscriber(tracker);
  const UeId phone = net.add_subscriber(SubscriberProfile{});
  net.attach(van, 4);
  net.attach(phone, 4);
  const auto telemetry = net.open_flow(van, 0x08080808u, 8883);
  const auto web = net.open_flow(phone, 0x08080809u, 80);
  (void)net.send_uplink(telemetry, TcpFlag::kSyn);
  (void)net.send_uplink(web, TcpFlag::kSyn);
  const auto t = net.send_downlink(telemetry);
  const auto w = net.send_downlink(web);
  ASSERT_TRUE(t.delivered && w.delivered);
  EXPECT_LT(t.latency_ms, w.latency_ms);
}

}  // namespace
}  // namespace softcell
