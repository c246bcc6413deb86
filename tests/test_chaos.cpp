// Chaos harness: the fixed-seed corpus (every invariant holds under fault
// injection, and every seed's event digest matches its golden value),
// determinism (same seed -> identical event digest), sabotage detection +
// shrinking (a deliberately-introduced bug is caught and reduced to a
// handful of steps), and the SOFTCELL_CHAOS_REPLAY repro hook.
#include "chaos/harness.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "chaos_corpus.hpp"
#include "telemetry/trace.hpp"

namespace softcell::chaos {
namespace {

TEST(Corpus, InvariantsHoldAcrossFixedSeeds) {
  const std::size_t n = corpus_size(200);
  std::uint64_t faults = 0;
  std::size_t flows = 0, handoffs = 0, quiesces = 0;
  for (std::uint64_t seed = 1; seed <= n; ++seed) {
    const auto sc = Scenario::generate(seed);
    const auto r = run_scenario(sc, corpus_options(seed));
    ASSERT_TRUE(r.ok) << "seed " << seed << ": invariant "
                      << r.violation->invariant << " at step "
                      << r.violation->step << ": " << r.violation->detail
                      << "\n  " << replay_command(sc, corpus_options(seed));
    EXPECT_EQ(r.steps_executed, sc.steps.size());
    expect_golden_digest(seed, r.digest);
    faults += r.faults.injected();
    flows += r.flows_opened;
    handoffs += r.handoffs;
    quiesces += r.quiesces;
  }
  // The corpus must actually exercise the machinery it claims to test.
  EXPECT_GT(flows, n);
  EXPECT_GT(handoffs, n / 2);
  EXPECT_GT(quiesces, n);
  EXPECT_GT(faults, n);  // wire faults injected and survived
}

TEST(Corpus, SameSeedProducesIdenticalEventDigest) {
  for (const std::uint64_t seed :
       {3ull, 17ull, 58ull, 91ull, 140ull, 176ull, 195ull}) {
    const auto sc = Scenario::generate(seed);
    const auto r1 = run_scenario(sc, corpus_options(seed));
    const auto r2 = run_scenario(sc, corpus_options(seed));
    ASSERT_TRUE(r1.ok) << seed;
    EXPECT_EQ(r1.digest, r2.digest) << "nondeterministic digest, seed " << seed;
    EXPECT_EQ(r1.steps_executed, r2.steps_executed);
    EXPECT_EQ(r1.flows_opened, r2.flows_opened);
  }
}

TEST(Corpus, FaultWindowsInjectAndTheChannelRecovers) {
  // A hand-built scenario that slams the wire with every fault kind while
  // flows churn: the mirror must still converge (invariant 2 inside the
  // quiesce steps) and the fault layer must report real activity.
  Scenario sc;
  sc.seed = 99;
  using K = Step::Kind;
  sc.steps = {{K::kAttach, 0, 0},      {K::kAttach, 1, 1},
              {K::kFaultWindow, 5, 0}, {K::kOpenFlow, 0, 0},
              {K::kOpenFlow, 1, 1},    {K::kOpenFlow, 2, 2},
              {K::kQuiesce, 0, 0},     {K::kHandoff, 0, 3},
              {K::kOpenFlow, 3, 3},    {K::kQuiesce, 0, 0}};
  const auto r = run_scenario(sc);
  ASSERT_TRUE(r.ok) << r.violation->detail;
  EXPECT_GT(r.faults.injected(), 0u);
  EXPECT_GT(r.faults.retransmits, 0u);
  EXPECT_GT(r.faults.rounds, 0u);
}

TEST(Scenario, GenerationIsDeterministicAndSeedSensitive) {
  const auto a1 = Scenario::generate(7);
  const auto a2 = Scenario::generate(7);
  const auto b = Scenario::generate(8);
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1.steps, b.steps);
  EXPECT_GE(a1.steps.size(), 36u);
}

TEST(Scenario, EncodeDecodeRoundTrips) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const auto sc = Scenario::generate(seed);
    const auto back = Scenario::decode(sc.encode());
    ASSERT_TRUE(back.has_value()) << seed;
    EXPECT_EQ(*back, sc) << seed;
  }
}

TEST(Scenario, DecodeRejectsMalformedText) {
  EXPECT_FALSE(Scenario::decode(""));
  EXPECT_FALSE(Scenario::decode("zz"));
  EXPECT_FALSE(Scenario::decode("10"));            // no colon
  EXPECT_FALSE(Scenario::decode("10:9.0"));        // missing operand
  EXPECT_FALSE(Scenario::decode("10:99.0.0"));     // kind out of range
  EXPECT_FALSE(Scenario::decode("g_:0.0.0"));      // bad seed
  EXPECT_TRUE(Scenario::decode("1f:"));            // empty step list is fine
  EXPECT_TRUE(Scenario::decode("1f:0.1.2,11.0.0"));
}

TEST(Shrink, EarlyHandoffCompleteIsCaughtAndShrunk) {
  ChaosOptions opt;
  opt.sabotage = ChaosOptions::Sabotage::kEarlyComplete;
  std::optional<Scenario> failing;
  for (std::uint64_t seed = 1; seed <= 30 && !failing; ++seed) {
    auto sc = Scenario::generate(seed);
    if (!run_scenario(sc, opt).ok) failing = std::move(sc);
  }
  ASSERT_TRUE(failing.has_value())
      << "sabotage went undetected across 30 seeds";

  std::size_t runs = 0;
  const auto small = shrink(*failing, opt, &runs);
  const auto r = run_scenario(small, opt);
  ASSERT_FALSE(r.ok) << "shrunk scenario no longer reproduces";
  EXPECT_EQ(r.violation->invariant, 1);  // blackholed flow
  EXPECT_LE(small.steps.size(), 10u)
      << "shrinker plateaued: " << small.encode();
  EXPECT_LT(small.steps.size(), failing->steps.size());
  EXPECT_GT(runs, small.steps.size());
  std::cout << "  [shrunk to " << small.steps.size() << " steps after " << runs
            << " runs] " << replay_command(small, opt) << "\n";
}

TEST(Shrink, SkippedTunnelInstallIsCaughtAndShrunk) {
  // The acceptance scenario from the issue: "skip" the tunnel install on
  // handoff (the sabotage severs the tunnels right after the ticket is
  // issued) with shortcuts disabled so the tunnel is the only downlink path.
  ChaosOptions opt;
  opt.sabotage = ChaosOptions::Sabotage::kDropTunnel;
  opt.install_shortcuts = false;
  std::optional<Scenario> failing;
  for (std::uint64_t seed = 1; seed <= 30 && !failing; ++seed) {
    auto sc = Scenario::generate(seed);
    if (!run_scenario(sc, opt).ok) failing = std::move(sc);
  }
  ASSERT_TRUE(failing.has_value());

  std::size_t runs = 0;
  const auto small = shrink(*failing, opt, &runs);
  const auto r = run_scenario(small, opt);
  ASSERT_FALSE(r.ok);
  // Caught either as a blackholed flow (1) or as fastpath-vs-reference
  // divergence (5), depending on which check the sweep reaches first.
  EXPECT_TRUE(r.violation->invariant == 1 || r.violation->invariant == 5)
      << r.violation->detail;
  EXPECT_LE(small.steps.size(), 10u)
      << "shrinker plateaued: " << small.encode();
  // The report ships the flight-recorder trace of the failure (empty only
  // when tracing is compiled out).
  if (telemetry::kSpansEnabled) {
    EXPECT_FALSE(r.trace_json.empty());
  }
  std::cout << "  [shrunk to " << small.steps.size() << " steps after " << runs
            << " runs] " << replay_command(small, opt) << "\n";
}

// Acceptance check from the telemetry issue: an invariant failure under the
// kDropTunnel sabotage must come with a Chrome-loadable trace_event JSON of
// the spans leading up to it, both in RunReport::trace_json and -- when
// SOFTCELL_TRACE_OUT is set -- on disk next to the replay line.
TEST(FlightRecorder, ViolationDumpsChromeTraceJson) {
  ChaosOptions opt;
  opt.sabotage = ChaosOptions::Sabotage::kDropTunnel;
  opt.install_shortcuts = false;
  std::optional<Scenario> failing;
  for (std::uint64_t seed = 1; seed <= 30 && !failing; ++seed) {
    auto sc = Scenario::generate(seed);
    if (!run_scenario(sc, opt).ok) failing = std::move(sc);
  }
  ASSERT_TRUE(failing.has_value());

  const std::string path = testing::TempDir() + "softcell_chaos_trace.json";
  ::setenv("SOFTCELL_TRACE_OUT", path.c_str(), 1);
  const auto r = run_scenario(*failing, opt);
  ::unsetenv("SOFTCELL_TRACE_OUT");
  ASSERT_FALSE(r.ok);

  if (!telemetry::kSpansEnabled) {
    EXPECT_TRUE(r.trace_json.empty());
    return;
  }
  // The embedded document is structurally valid Chrome trace JSON and
  // contains the per-step chaos markers.
  EXPECT_NE(r.trace_json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(r.trace_json.find("\"chaos.step\""), std::string::npos);
  EXPECT_NE(r.trace_json.find("\"dropped_records\""), std::string::npos);
  int depth = 0;
  bool in_string = false, escaped = false;
  for (const char ch : r.trace_json) {
    if (escaped) {
      escaped = false;
    } else if (ch == '\\') {
      escaped = in_string;
    } else if (ch == '"') {
      in_string = !in_string;
    } else if (!in_string && (ch == '{' || ch == '[')) {
      ++depth;
    } else if (!in_string && (ch == '}' || ch == ']')) {
      ASSERT_GT(depth, 0);
      --depth;
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);

  // And the same document landed at $SOFTCELL_TRACE_OUT.
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), r.trace_json + "\n");
  std::remove(path.c_str());
}

TEST(Shrink, CleanScenarioShrinksAwayNothing) {
  // shrink() demands a failing input; on a passing scenario the first
  // candidate probe also passes, so the loop terminates with the input
  // unchanged -- guard against the shrinker "inventing" failures.
  const auto sc = Scenario::generate(11);
  ASSERT_TRUE(run_scenario(sc).ok);
  std::size_t runs = 0;
  const auto same = shrink(sc, {}, &runs);
  EXPECT_EQ(same, sc);
}

TEST(Replay, OptionsRoundTrip) {
  ChaosOptions opt;
  opt.twin_reference = false;
  opt.runtime_workers = 2;
  opt.install_shortcuts = false;
  opt.sabotage = ChaosOptions::Sabotage::kDropTunnel;
  const auto back = decode_options(encode_options(opt));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->twin_reference, opt.twin_reference);
  EXPECT_EQ(back->runtime_workers, opt.runtime_workers);
  EXPECT_EQ(back->install_shortcuts, opt.install_shortcuts);
  EXPECT_EQ(back->sabotage, opt.sabotage);
  EXPECT_FALSE(decode_options("nonsense"));
}

// The repro hook the shrinker's replay command points at: re-runs an encoded
// scenario (optionally with encoded options) and fails loudly if it still
// violates an invariant, so a pasted command reproduces the original report.
TEST(Replay, FromEnvironment) {
  const char* text = std::getenv("SOFTCELL_CHAOS_REPLAY");
  if (!text)
    GTEST_SKIP() << "set SOFTCELL_CHAOS_REPLAY='<scenario>' (and optionally "
                    "SOFTCELL_CHAOS_OPTS) to replay";
  const auto sc = Scenario::decode(text);
  ASSERT_TRUE(sc.has_value()) << "undecodable SOFTCELL_CHAOS_REPLAY";
  ChaosOptions opt;
  if (const char* o = std::getenv("SOFTCELL_CHAOS_OPTS")) {
    const auto decoded = decode_options(o);
    ASSERT_TRUE(decoded.has_value()) << "undecodable SOFTCELL_CHAOS_OPTS";
    opt = *decoded;
  }
  const auto r = run_scenario(*sc, opt);
  EXPECT_TRUE(r.ok) << "invariant " << r.violation->invariant << " at step "
                    << r.violation->step << ": " << r.violation->detail;
  std::cout << "  [replayed " << sc->steps.size() << " steps, digest "
            << std::hex << r.digest << std::dec << "]\n";
}

}  // namespace
}  // namespace softcell::chaos
