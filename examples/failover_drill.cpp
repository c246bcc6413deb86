// Control-plane failure drill (paper section 5.2).
//
// Exercises every failure mode the paper discusses while traffic flows:
//   1. the primary controller replica dies -> a replica is promoted, slow
//      state (policy, subscribers, installed paths) survives by
//      replication, UE locations are rebuilt by querying local agents;
//   2. a local agent crashes and restarts -> its state is refetched from
//      the controller (it was read-only to the agent) and flow slots are
//      recovered from the access switch's surviving microflow rules;
//   3. a policy path is migrated with per-packet consistency (version
//      tags): old flows finish on the old rules, new flows use the new
//      ones, then the old version is drained.
#include <cstdio>

#include "sim/network.hpp"

using namespace softcell;

int main() {
  SoftCellConfig config;
  config.topo = {.k = 4, .seed = 13};
  SoftCellNetwork net(config, make_table1_policy());

  SubscriberProfile profile;
  profile.plan = BillingPlan::kSilver;
  std::vector<std::pair<UeId, SoftCellNetwork::FlowHandle>> sessions;
  for (std::uint32_t bs = 0; bs < 12; bs += 2) {
    const UeId ue = net.add_subscriber(profile);
    net.attach(ue, bs);
    auto flow = net.open_flow(ue, 0x08080800u + bs, 80);
    (void)net.send_uplink(flow, TcpFlag::kSyn);
    sessions.emplace_back(ue, flow);
  }
  std::printf("%zu subscribers attached with live flows; store replicas: %zu"
              " (consistent: %s)\n",
              sessions.size(), net.controller().store().replica_count(),
              net.controller().store().replicas_consistent() ? "yes" : "no");

  std::printf("\n--- drill 1: primary controller replica fails ---\n");
  net.fail_controller_primary_and_recover();
  // UE locations live on the brain's shard stores, not the core's.
  const ShardBrain& brain = *net.brain();
  std::size_t rebuilt = 0;
  for (std::size_t s = 0; s < brain.shard_count(); ++s)
    rebuilt += brain.shard(s).attached_ues();
  std::printf("replica promoted (replicas left: %zu); locations rebuilt from"
              " %zu agents: %zu UEs\n",
              net.controller().store().replica_count(),
              static_cast<std::size_t>(net.topology().num_base_stations()),
              rebuilt);
  std::size_t ok = 0;
  for (auto& [ue, flow] : sessions)
    ok += net.send_uplink(flow).delivered && net.send_downlink(flow).delivered;
  std::printf("live flows after failover: %zu/%zu\n", ok, sessions.size());

  std::printf("\n--- drill 2: local agent at base station 0 restarts ---\n");
  const auto before = net.access(0).flows().size();
  net.restart_agent(0);
  std::printf("access switch kept %zu/%zu microflow rules; agent state"
              " refetched\n",
              net.access(0).flows().size(), before);
  std::printf("old flow still works: %s; new flow classifies: %s\n",
              net.send_uplink(sessions[0].second).delivered ? "yes" : "no",
              net.send_uplink(net.open_flow(sessions[0].first, 0x08080899u,
                                            443),
                              TcpFlag::kSyn)
                      .delivered
                  ? "yes"
                  : "no");

  std::printf("\n--- drill 3: consistent path migration at base station 0 "
              "---\n");
  SubscriberProfile probe;
  probe.plan = BillingPlan::kSilver;
  const auto* clause = net.controller().policy().match(probe, AppType::kWeb);
  const auto mig = net.controller().migrate_path(0, clause->id);
  std::printf("web path at bs 0: tag %u -> tag %u (both versions live)\n",
              mig.old_tag.value(), mig.new_tag.value());
  const auto old_up = net.send_uplink(sessions[0].second);
  const auto fresh = net.open_flow(sessions[0].first, 0x08080877u, 80);
  const auto new_up = net.send_uplink(fresh, TcpFlag::kSyn);
  std::printf("old flow still tagged %u; new flow tagged %u\n",
              net.codec().tag_of(old_up.final_packet.key.src_port).value(),
              net.codec().tag_of(new_up.final_packet.key.src_port).value());
  net.controller().drain_old_path(0, clause->id, mig.old_tag);
  std::printf("old version drained; new flow: uplink %s, downlink %s\n",
              net.send_uplink(fresh).delivered ? "ok" : "FAIL",
              net.send_downlink(fresh).delivered ? "ok" : "FAIL");
  return 0;
}
