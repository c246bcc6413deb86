// ue_day: the million-UE diurnal day in the single-threaded simulator.
//
// One simulated day on a k=8 fabric with 1,536 base stations: 1,000,000
// UEs attach along the diurnal curve and each arms a re-arming idle timer;
// 1/64 of them open a microflow whose first uplink packet must be
// delivered through its clause's middleboxes; 1/16 detach one idle period
// after arrival and re-attach elsewhere a period later; 1/32 ride one of
// four handoff storms.  The seed orders the UEs that attach within each
// minute and picks the flows' remote endpoints; which UE lives where, and
// under which clause, is fixed, so every seed builds the same rule set.
//
// The benchmark derives every count from its own schedule before the day
// runs and checks that exactly that many callbacks ran.  Set-up (network
// plus schedule) is built five times and its median reported.  The day
// then runs five times, each on a fresh network, and the timed figures
// are the medians over the five days.  Control callbacks are always
// timed (they give max_rate_rps and the attach medians of the quiet and
// the busy half of the day); the traced run adds timers around every
// callback kind (per-layer figures of the last day) and replays the day's
// path installs on a fresh brain and on a core controller.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"
#include "packet/locip.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "telemetry/registry.hpp"
#include "workload/lte_trace.hpp"

namespace perfbench {

namespace {

using namespace softcell;

constexpr int kDays = 5;  // days per run

struct DayParams {
  std::uint32_t k = 8;
  std::uint32_t cluster_size = 12;  // 8 pods x 16 clusters x 12 = 1536 BS
  std::uint32_t num_ues = 1'000'000;
  double duration_s = 86'400.0;
  double idle_period_s = 21'600.0;
  std::uint32_t flow_stride = 64;
  std::uint32_t churn_stride = 16;
  std::uint32_t storm_stride = 32;
};

DayParams params_for(const Options& o) {
  DayParams p;
  if (o.smoke) {
    p.k = 4;
    p.cluster_size = 10;
    p.num_ues = 20'000;
    p.duration_s = 3'600.0;
    p.idle_period_s = 600.0;
  }
  return p;
}

// Attach times follow the diurnal curve: minute bins weighted by the
// curve, each UE a slot in its bin; the seed shuffles the slots of a bin
// among its UEs.
std::vector<double> diurnal_attach_times(const DayParams& p,
                                         std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  LteTraceGenerator gen({.seed = 42});
  constexpr std::size_t kBins = 1440;
  const double bin_w = p.duration_s / kBins;
  std::vector<double> weight(kBins);
  double total = 0;
  for (std::size_t b = 0; b < kBins; ++b) {
    weight[b] = gen.diurnal((static_cast<double>(b) + 0.5) * bin_w *
                                (86'400.0 / p.duration_s),
                            /*amplitude=*/0.75);
    total += weight[b];
  }
  std::vector<double> times;
  times.reserve(p.num_ues);
  double carry = 0;
  for (std::size_t b = 0; b < kBins && times.size() < p.num_ues; ++b) {
    carry += weight[b] / total * static_cast<double>(p.num_ues);
    const auto n = static_cast<std::size_t>(carry);
    carry -= static_cast<double>(n);
    const std::size_t first = times.size();
    for (std::size_t i = 0; i < n && times.size() < p.num_ues; ++i)
      times.push_back(bin_w * (static_cast<double>(b) +
                               (static_cast<double>(i) + 0.5) /
                                   static_cast<double>(n)));
    std::shuffle(times.begin() + static_cast<std::ptrdiff_t>(first),
                 times.end(), rng);
  }
  while (times.size() < p.num_ues) times.push_back(p.duration_s * 0.999);
  return times;
}

// What the schedule says must happen.
struct Counts {
  std::uint64_t attaches = 0, flows = 0, detaches = 0, reattaches = 0,
                handoffs = 0, timer_fires = 0;
  [[nodiscard]] std::uint64_t events() const {
    return attaches + detaches + reattaches + handoffs + timer_fires;
  }
};

class Day {
 public:
  Day(const DayParams& p, const std::vector<double>& times,
      std::uint64_t seed, bool trace)
      : p_(p),
        times_(times),
        seed_(seed),
        trace_(trace),
        net_(make_config(p), make_table1_policy()),
        num_bs_(net_.topology().num_base_stations()) {
    schedule();
  }

  // Runs the day; returns the wall seconds.
  double run() {
    const std::int64_t t0 = now_ns();
    steps_ = q_.run();
    return static_cast<double>(now_ns() - t0) / 1e9;
  }

  SoftCellNetwork& net() { return net_; }
  [[nodiscard]] std::uint32_t num_bs() const { return num_bs_; }

  Counts ran;
  std::uint64_t steps_ = 0;
  std::uint64_t flows_delivered = 0, flows_bad_path = 0;
  // Control-callback time (always timed) and traced per-kind times.
  double control_ns = 0;
  std::uint64_t control_callbacks = 0;
  std::vector<double> attach_quiet_us, attach_busy_us;
  double attach_cb_ns = 0, flow_ns = 0, detach_ns = 0, reattach_ns = 0,
         handoff_ns = 0, timer_ns = 0;
  std::vector<std::pair<std::uint32_t, ClauseId>> keys;  // first-use order

 private:
  static SoftCellConfig make_config(const DayParams& p) {
    SoftCellConfig config;
    config.topo = {.k = p.k, .cluster_size = p.cluster_size, .seed = 91};
    return config;
  }

  struct IdleLoop {
    Day* day;
    void operator()() const {
      const std::int64_t t0 = day->trace_ ? now_ns() : 0;
      ++day->ran.timer_fires;
      if (day->q_.now() + day->p_.idle_period_s < day->p_.duration_s)
        day->q_.timer_after(day->p_.idle_period_s, *this);
      if (t0 != 0) day->timer_ns += static_cast<double>(now_ns() - t0);
    }
  };

  void schedule() {
    // The quiet and the busy half of the day: simulated hours whose
    // attach count is below / at or above the median hour's.
    std::vector<std::uint64_t> per_hour(24, 0);
    for (const double t : times_) ++per_hour[hour_of(t)];
    std::vector<std::uint64_t> sorted = per_hour;
    std::nth_element(sorted.begin(), sorted.begin() + 12, sorted.end());
    for (std::size_t h = 0; h < 24; ++h) busy_hour_[h] = per_hour[h] >= sorted[12];
    seen_.assign(static_cast<std::size_t>(num_bs_) * 64, false);
    for (std::uint32_t i = 0; i < p_.num_ues; ++i) {
      const double t = times_[i];
      q_.at(t, [this, i, t] { attach(i, t); });
    }
  }

  void attach(std::uint32_t i, double t) {
    const std::int64_t c0 = now_ns();
    // i + i / num_bs rotates each sweep over the base stations by one, so
    // the flow slice (every 64th UE) covers all of them, not 1/64.
    const std::uint32_t bs = (i + i / num_bs_) % num_bs_;
    SubscriberProfile prof;
    prof.plan = static_cast<BillingPlan>(i % 3);
    prof.device = static_cast<DeviceClass>(i % 5);
    const UeId ue = net_.add_subscriber(prof);
    const std::int64_t a0 = now_ns();
    net_.attach(ue, bs);
    const std::int64_t a1 = now_ns();
    (busy_hour_[hour_of(t)] ? attach_busy_us : attach_quiet_us)
        .push_back(static_cast<double>(a1 - a0) / 1e3);
    ++ran.attaches;
    q_.timer_after(p_.idle_period_s, IdleLoop{this});
    if (i % p_.flow_stride == 0) flow(ue, bs, i);
    if (i % p_.churn_stride == 1 && t + 2 * p_.idle_period_s < p_.duration_s) {
      q_.at(t + p_.idle_period_s, [this, ue] {
        const std::int64_t d0 = now_ns();
        net_.detach(ue);
        ++ran.detaches;
        const double d = static_cast<double>(now_ns() - d0);
        detach_ns += d;
        control(d);
      });
      q_.at(t + 2 * p_.idle_period_s, [this, ue, bs] {
        const std::int64_t r0 = now_ns();
        net_.attach(ue, (bs + 7) % num_bs_);
        ++ran.reattaches;
        const double d = static_cast<double>(now_ns() - r0);
        reattach_ns += d;
        control(d);
      });
    }
    if (i % p_.storm_stride == 3) {
      const double wave =
          p_.duration_s * (0.55 + 0.1 * static_cast<double>(i % 4));
      if (wave > t + p_.idle_period_s) {
        q_.at(wave, [this, ue, bs] {
          const std::int64_t h0 = now_ns();
          const auto ticket = net_.handoff(ue, (bs + 1) % num_bs_);
          net_.complete_handoff(ticket);
          ++ran.handoffs;
          const double d = static_cast<double>(now_ns() - h0);
          handoff_ns += d;
          control(d);
        });
      }
    }
    const double d = static_cast<double>(now_ns() - c0);
    attach_cb_ns += d;
    control(d);
  }

  void flow(UeId ue, std::uint32_t bs, std::uint32_t i) {
    static constexpr std::uint16_t kPorts[4] = {80, 443, 1935, 5060};
    const std::int64_t f0 = now_ns();
    // A remote endpoint drawn from (seed, i) in 8.0.0.0/12.
    const auto remote = static_cast<Ipv4Addr>(
        0x08000001u + (std::hash<std::uint64_t>{}(seed_ * 1'000'003 + i) &
                       0xFFFFF));
    const auto handle =
        net_.open_flow(ue, remote, kPorts[(i / p_.flow_stride) % 4]);
    const auto d = net_.send_uplink(handle, TcpFlag::kSyn);
    ++ran.flows;
    flow_ns += static_cast<double>(now_ns() - f0);
    if (!d.delivered) return;
    ++flows_delivered;
    // The first uplink packet went through exactly the instances the
    // controller selected, and they have the clause's middlebox types.
    const auto clause = net_.flow_clause(handle.key);
    if (!clause) {
      ++flows_bad_path;
      return;
    }
    const std::vector<NodeId> want = net_.expected_middleboxes(bs, *clause);
    const auto& types =
        net_.controller().policy().clause(*clause).action.middleboxes;
    bool ok = d.middlebox_sequence == want && want.size() == types.size();
    for (std::size_t j = 0; ok && j < want.size(); ++j)
      ok = net_.topology().graph().node(want[j]).aux == types[j];
    flows_bad_path += ok ? 0 : 1;
    const std::size_t slot = static_cast<std::size_t>(bs) * 64 +
                             (clause->value() & 63);
    if (!seen_[slot]) {
      seen_[slot] = true;
      keys.emplace_back(bs, *clause);
    }
  }

  [[nodiscard]] std::size_t hour_of(double t) const {
    return std::min<std::size_t>(23,
                                 static_cast<std::size_t>(t / p_.duration_s * 24));
  }

  void control(double ns) {
    control_ns += ns;
    ++control_callbacks;
  }

  const DayParams& p_;
  const std::vector<double>& times_;
  std::uint64_t seed_;
  bool trace_;
  SoftCellNetwork net_;
  std::uint32_t num_bs_;
  EventQueue q_;
  std::vector<bool> seen_;
  bool busy_hour_[24] = {};
};

Counts derive(const DayParams& p, const std::vector<double>& times) {
  Counts c;
  const auto quantized = [](double t) {
    return static_cast<double>(std::llround(t * 1000.0)) / 1000.0;
  };
  for (std::uint32_t i = 0; i < p.num_ues; ++i) {
    const double t = times[i];
    ++c.attaches;
    if (i % p.flow_stride == 0) ++c.flows;
    if (i % p.churn_stride == 1 && t + 2 * p.idle_period_s < p.duration_s) {
      ++c.detaches;
      ++c.reattaches;
    }
    if (i % p.storm_stride == 3 &&
        p.duration_s * (0.55 + 0.1 * static_cast<double>(i % 4)) >
            t + p.idle_period_s)
      ++c.handoffs;
    // The idle timer fires on 1 ms ticks and re-arms while the next
    // deadline is before the end of the day.
    double x = t;
    for (;;) {
      x = quantized(x + p.idle_period_s);
      ++c.timer_fires;
      if (!(x + p.idle_period_s < p.duration_s)) break;
    }
  }
  return c;
}

}  // namespace

void run_day(const Options& o, Result& res) {
  const DayParams p = params_for(o);
  const std::vector<double> times = diurnal_attach_times(p, o.seed);
  const Counts want = derive(p, times);

  // Set-up: network plus schedule, five times; the last one runs first.
  std::vector<double> setup_s;
  std::unique_ptr<Day> day;
  for (int i = 0; i < 5; ++i) {
    day.reset();
    const std::int64_t t0 = now_ns();
    day = std::make_unique<Day>(p, times, o.seed, o.trace);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  const auto counter = [](const char* name) {
    return telemetry::Registry::global().counter(name).value();
  };
  const auto shortfall = [](std::uint64_t got, std::uint64_t expect) {
    return got < expect ? expect - got : 0;
  };
  const auto check_count = [&](const char* what, std::uint64_t got,
                               std::uint64_t expect) {
    res.check(got == expect, std::string(what) + ": ran " +
                                 std::to_string(got) + ", schedule says " +
                                 std::to_string(expect));
  };
  // The day runs kDays times, each on a fresh network, and the timed
  // figures are the medians over the days: one day's figures followed the
  // host's speed during its few seconds.
  std::vector<double> rates, quiet_p50, busy_p50, events_per_s;
  std::uint64_t views = 0, ops = 0, batches = 0;
  double wall = 0;
  Counts ran;
  for (int d = 0; d < kDays; ++d) {
    if (d > 0) {
      day.reset();
      day = std::make_unique<Day>(p, times, o.seed, o.trace);
    }
    const std::uint64_t views0 = counter("commit.view_publishes");
    const std::uint64_t ops0 = counter("commit.ops");
    const std::uint64_t batches0 = counter("commit.batches");
    wall = day->run();
    views = counter("commit.view_publishes") - views0;
    ops = counter("commit.ops") - ops0;
    batches = counter("commit.batches") - batches0;
    ran = day->ran;
    if (o.corrupt == "event_count") ++ran.handoffs;
    // The operations the schedule attempts.  One that did not run, and a
    // flow whose first packet was not delivered through its clause's
    // chain, failed.
    res.attempted += want.events() + want.flows;
    res.failed += shortfall(ran.attaches, want.attaches) +
                  shortfall(ran.detaches, want.detaches) +
                  shortfall(ran.reattaches, want.reattaches) +
                  shortfall(ran.handoffs, want.handoffs) +
                  shortfall(ran.timer_fires, want.timer_fires) +
                  shortfall(day->flows_delivered, want.flows) +
                  day->flows_bad_path;
    check_count("attaches", ran.attaches, want.attaches);
    check_count("flows", ran.flows, want.flows);
    check_count("detaches", ran.detaches, want.detaches);
    check_count("re-attaches", ran.reattaches, want.reattaches);
    check_count("handoffs", ran.handoffs, want.handoffs);
    check_count("timer fires", ran.timer_fires, want.timer_fires);
    check_count("flows delivered", day->flows_delivered, want.flows);
    res.check(day->flows_bad_path == 0,
              std::to_string(day->flows_bad_path) +
                  " flows missed their clause's middlebox chain");
    rates.push_back(static_cast<double>(day->control_callbacks) /
                    (day->control_ns / 1e9));
    quiet_p50.push_back(median(day->attach_quiet_us));
    busy_p50.push_back(median(day->attach_busy_us));
    events_per_s.push_back(static_cast<double>(ran.events()) / wall);
    say("day %d: %.2f s wall, %.0f events/s, attach p50 %.2f / %.2f us", d + 1,
        wall, events_per_s.back(), quiet_p50.back(), busy_p50.back());
  }
  SoftCellNetwork& net = day->net();

  ShardBrain* brain = net.brain();
  std::uint64_t resident = 0, shard_bytes = 0;
  for (std::size_t s = 0; brain && s < brain->shard_count(); ++s) {
    resident += brain->shard(s).attached_ues();
    shard_bytes += brain->shard(s).store_primary_bytes_resident();
  }
  check_count("resident UEs at day end", resident, p.num_ues);
  const auto fp = net.controller().memory_footprint();
  const double ues = p.num_ues;
  const double ctrl_per_ue =
      static_cast<double>(fp.store_primary + fp.path_maps + shard_bytes) /
      ues;
  res.check(ctrl_per_ue <= 128.0, "controller bytes per UE " +
                                      std::to_string(ctrl_per_ue) +
                                      " above the 128 B target");
  std::uint64_t agent_bytes = 0;
  for (std::uint32_t bs = 0; bs < day->num_bs(); ++bs)
    agent_bytes += net.agent(bs).bytes_resident();
  const FabricRules online = fabric_rules(net.controller().engine());
  const ProcSample self = read_proc(::getpid());
  const double events = static_cast<double>(ran.events());

  res.metric("setup_s", median(setup_s), "s");
  res.metric("max_rate_rps", median(rates), "1/s");
  res.metric("p50_us_low", median(quiet_p50), "us");
  res.metric("p50_us_high", median(busy_p50), "us");
  res.metric("events_per_s", median(events_per_s), "1/s");
  res.metric("peak_rss_mb", self.peak_rss_mb, "MiB");
  res.metric("core_rules", static_cast<double>(online.total), "rules");
  res.metric("max_switch_rules", static_cast<double>(online.max), "rules");
  res.metric("ctrl_bytes_per_ue", ctrl_per_ue, "B");
  res.metric("mem.agent_bytes_per_ue", static_cast<double>(agent_bytes) / ues,
             "B");
  res.metric("mem.ctrl_store_bytes_per_ue",
             static_cast<double>(fp.store_primary) / ues, "B");
  res.metric("mem.shard_store_bytes_per_ue",
             static_cast<double>(shard_bytes) / ues, "B");
  res.metric("mem.ctrl_path_bytes", static_cast<double>(fp.path_maps), "B");
  say("day: %u UEs, %llu callbacks (%llu queue steps), median %.0f events/s "
      "over %d days; setup %.3f s (median of 5)",
      p.num_ues, static_cast<unsigned long long>(ran.events()),
      static_cast<unsigned long long>(day->steps_), median(events_per_s), kDays,
      median(setup_s));
  say("day: %llu flows, %llu detach/re-attach, %llu handoffs, %llu timer "
      "fires; ctrl %.1f B/UE, agents %.1f B/UE, %zu fabric rules",
      static_cast<unsigned long long>(ran.flows),
      static_cast<unsigned long long>(ran.detaches),
      static_cast<unsigned long long>(ran.handoffs),
      static_cast<unsigned long long>(ran.timer_fires), ctrl_per_ue,
      static_cast<double>(agent_bytes) / ues, online.total);
  say("reference: attach in the quiet half of the last day %s; busy half %s",
      tail_figure(day->attach_quiet_us, "us").c_str(),
      tail_figure(day->attach_busy_us, "us").c_str());

  if (!o.trace) return;
  SpanLog spans(true);
  const auto per = [](double ns, std::uint64_t n) {
    return n == 0 ? 0.0 : ns / static_cast<double>(n);
  };
  const double callback_ns = day->attach_cb_ns + day->detach_ns +
                             day->reattach_ns + day->handoff_ns +
                             day->timer_ns;
  res.metric("sim.attach_us",
             per(day->attach_cb_ns - day->flow_ns, ran.attaches) / 1e3, "us");
  res.metric("sim.flow_us", per(day->flow_ns, ran.flows) / 1e3, "us");
  res.metric("sim.detach_us", per(day->detach_ns, ran.detaches) / 1e3, "us");
  res.metric("sim.reattach_us", per(day->reattach_ns, ran.reattaches) / 1e3,
             "us");
  res.metric("sim.handoff_us", per(day->handoff_ns, ran.handoffs) / 1e3,
             "us");
  res.metric("sim.timer_fire_ns", per(day->timer_ns, ran.timer_fires), "ns");
  res.metric("sim.queue_ns_per_event", (wall * 1e9 - callback_ns) / events,
             "ns");
  res.metric("trace.p50_us_low", median(quiet_p50), "us");
  res.metric("trace.p50_us_high", median(busy_p50), "us");
  // The commit stage as the day drove it (telemetry Registry deltas).
  res.metric("commit.view_publishes", static_cast<double>(views), "count");
  res.metric("commit.batch_depth_mean",
             batches == 0 ? 0.0
                          : static_cast<double>(ops) /
                                static_cast<double>(batches),
             "count");
  // Layers the day does not exercise: no wire, no serverd, no runtime.
  for (const char* name : {"ofp.encode_ns", "ofp.decode_ns"})
    res.metric(name, 0, "ns");
  for (const char* name :
       {"net.share_us_low", "net.share_us_high", "serverd.cpu_us_per_req",
        "gen.lag_us_max", "runtime.p50_us_low", "runtime.p50_us_high",
        "runtime.queue_us_low"})
    res.metric(name, 0, "us");
  for (const char* name : {"serverd.ctx_switches_per_req",
                           "gen.replies_per_recv", "runtime.coalesced"})
    res.metric(name, 0, "count");

  // The day's reads and installs, replayed directly: classifier fetches
  // and warm path requests on the day's own brain, then the day's path
  // keys (first-use order) through a fresh brain's commit stage and on a
  // second brain's core controller.
  {
    std::vector<double> fetch, warm;
    std::mt19937_64 rng(o.seed + 7);
    for (int i = 0; i < 100'000 && brain; ++i) {
      const UeId ue(static_cast<std::uint32_t>(rng() % p.num_ues + 1));
      const auto loc = brain->ue_location(ue);
      if (!loc) continue;
      const std::int64_t a = now_ns();
      (void)brain->fetch_classifiers(ue, loc->bs);
      fetch.push_back(static_cast<double>(now_ns() - a));
    }
    for (const auto& [bs, clause] : day->keys) {
      const std::int64_t a = now_ns();
      (void)brain->request_policy_path(bs, clause);
      warm.push_back(static_cast<double>(now_ns() - a));
    }
    res.metric("ctrl.fetch_ns", median(fetch), "ns");
    res.metric("ctrl.warm_path_ns", median(warm), "ns");
  }
  const CellularTopology& topo = net.topology();
  ShardBrainOptions opts;
  opts.controller = ControllerOptions{};
  opts.controller.engine.max_tags = PortCodec(10).max_tags();
  std::vector<double> commit_us;
  {
    ShardBrain fresh(topo, make_table1_policy(), opts);
    const std::uint32_t root = spans.open("replay.brain");
    for (const auto& [bs, clause] : day->keys) {
      const std::int64_t a = now_ns();
      (void)fresh.request_policy_path(bs, clause);
      const std::int64_t b = now_ns();
      commit_us.push_back(static_cast<double>(b - a) / 1e3);
      spans.add("brain.request_policy_path", a, b, root, bs);
    }
    spans.close(root);
  }
  const auto [c_first, c_last] = eighths(commit_us);
  res.metric("commit.install_us_first", c_first, "us");
  res.metric("commit.install_us_last", c_last, "us");
  {
    ShardBrain second(topo, make_table1_policy(), opts);
    Controller& core = second.core();
    CoreReplay replay;
    replay.before = core.agg_perf();
    const std::uint32_t root = spans.open("replay.core");
    for (const auto& [bs, clause] : day->keys) {
      const std::int64_t a = now_ns();
      (void)core.request_policy_path(bs, clause);
      const std::int64_t b = now_ns();
      replay.install_us.push_back(static_cast<double>(b - a) / 1e3);
      spans.add("core.request_policy_path", a, b, root, bs);
    }
    spans.close(root);
    replay.after = core.agg_perf();
    replay.online = fabric_rules(core.engine());
    replay.tags_in_use = core.engine().tags_in_use();
    (void)core.recompact();
    replay.compact = fabric_rules(core.engine());
    report_core_replay(replay, res);
    say("replay: %zu path keys of the day, %zu fabric rules online, %zu "
        "after recompact",
        day->keys.size(), replay.online.total, replay.compact.total);
  }
  const std::string path = o.out_dir + "/" + o.workload + ".trace.json";
  res.check(spans.write(path), "cannot write " + path);
  say("trace: %zu spans written to %s", spans.size(), path.c_str());
}

}  // namespace perfbench
