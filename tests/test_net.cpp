// softcell::net -- the TCP/epoll serving front end, exercised over real
// loopback sockets.
//
// Directed coverage for the stream-layer hazards a wire protocol must
// survive: partial reads (frames cut at arbitrary byte boundaries by the
// kernel), short writes (kernel send buffer full mid-reply), connections
// closed mid-frame, and slow clients that stop reading while replies
// accumulate (bounded outbound buffer, drop and count, connection
// survives).  Plus the acceptance properties: a read burst is answered on
// the loop thread with one flush, and a wire run of the deterministic
// cbench workload lands on the exact controller fingerprint the in-process
// reference run produces.
#include "net/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/dispatch.hpp"
#include "net/event_loop.hpp"
#include "telemetry/registry.hpp"
#include "workload/wire_workload.hpp"

namespace softcell {
namespace {

using namespace std::chrono_literals;

template <typename Pred>
bool poll_until(Pred pred, std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

// Replies from the request alone: xid/kind echoed, digest derived from
// the request so the client can verify payload integrity end to end.
class EchoDispatcher final : public net::Dispatcher {
 public:
  ofp::PacketInReply dispatch(const ofp::PacketInMsg& msg) override {
    ofp::PacketInReply reply;
    reply.xid = msg.xid;
    reply.kind = msg.kind;
    reply.digest =
        (static_cast<std::uint64_t>(msg.ue.value()) << 32) | msg.bs;
    return reply;
  }
  [[nodiscard]] std::uint64_t fingerprint() override { return 0xF00D; }
};

// A client receive buffer pinned before the handshake: with the server's
// pinned 8 KiB SO_SNDBUF, the kernel holds at most the two buffers
// (doubled by the kernel: 16 KiB + 8 KiB) of replies the client has not
// read.
constexpr std::size_t kPinnedRcvbuf = 4096;

// Loop + server + loop thread, torn down in order.
class ServerHarness {
 public:
  explicit ServerHarness(net::Dispatcher& dispatcher,
                         net::ControllerServer::Options options =
                             net::ControllerServer::Options())
      : server_(loop_, dispatcher, options) {
    std::string err;
    ok_ = loop_.ok() && server_.start(&err);
    if (ok_) thread_ = std::thread([this] { loop_.run(); });
  }
  ~ServerHarness() {
    if (!ok_) return;
    server_.request_stop();
    thread_.join();
  }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  [[nodiscard]] net::NetStats& stats() { return server_.stats(); }
  [[nodiscard]] net::ControllerServer& server() { return server_; }

 private:
  net::EventLoop loop_;
  net::ControllerServer server_;
  std::thread thread_;
  bool ok_ = false;
};

ofp::PacketInMsg fetch_msg(std::uint32_t xid, std::uint32_t ue,
                           std::uint32_t bs) {
  ofp::PacketInMsg msg;
  msg.xid = xid;
  msg.kind = ofp::PacketInMsg::Kind::kFetchClassifiers;
  msg.ue = UeId(ue);
  msg.bs = bs;
  return msg;
}

TEST(NetEventLoop, PostRunsTasksOnLoopThread) {
  net::EventLoop loop;
  ASSERT_TRUE(loop.ok());
  std::thread t([&] { loop.run(); });
  std::atomic<bool> ran{false};
  std::atomic<bool> on_loop_thread{false};
  loop.post([&] {
    on_loop_thread.store(loop.in_loop_thread());
    ran.store(true);
  });
  EXPECT_TRUE(poll_until([&] { return ran.load(); }));
  EXPECT_TRUE(on_loop_thread.load());
  loop.stop();
  t.join();
}

// The kernel may deliver a frame in any number of fragments; the server
// must reassemble no matter where the cuts land -- including one byte at
// a time.
TEST(NetServer, PartialReadsReassemble) {
  EchoDispatcher dispatcher;
  ServerHarness h(dispatcher);
  ASSERT_TRUE(h.ok());

  net::WireConn conn;
  std::string err;
  ASSERT_TRUE(conn.connect(h.port(), &err)) << err;

  // One frame, trickled a byte at a time.
  const auto frame = ofp::encode_packet_in(fetch_msg(7, 1234, 5));
  for (const std::uint8_t byte : frame)
    ASSERT_TRUE(conn.send_bytes(std::span(&byte, 1)));
  auto reply_frame = conn.recv_frame(5000ms);
  ASSERT_TRUE(reply_frame);
  auto reply = ofp::decode_packet_in_reply(*reply_frame);
  ASSERT_TRUE(reply);
  EXPECT_EQ(reply->xid, 7u);
  EXPECT_EQ(reply->digest, (std::uint64_t{1234} << 32) | 5u);

  // Three frames batched into one buffer, cut mid-frame: replies come
  // back complete and in order.
  std::vector<std::uint8_t> batch;
  for (std::uint32_t i = 0; i < 3; ++i)
    ofp::encode_packet_in_into(batch, fetch_msg(100 + i, 10 + i, i));
  const std::size_t cut = ofp::kPacketInSize + 3;  // mid second frame
  ASSERT_TRUE(conn.send_bytes(std::span(batch).first(cut)));
  ASSERT_TRUE(conn.send_bytes(std::span(batch).subspan(cut)));
  for (std::uint32_t i = 0; i < 3; ++i) {
    auto f = conn.recv_frame(5000ms);
    ASSERT_TRUE(f);
    auto r = ofp::decode_packet_in_reply(*f);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->xid, 100 + i);
    EXPECT_EQ(r->digest, (std::uint64_t{10 + i} << 32) | i);
  }
  EXPECT_EQ(h.stats().decode_errors.load(), 0u);
}

// Queue far more reply bytes than the kernel socket buffers hold while
// the client is not reading: flush hits EAGAIN (short write), the loop
// arms kWritable, and every reply still arrives once the client reads.
TEST(NetServer, ShortWritesRecoverWithoutLoss) {
  EchoDispatcher dispatcher;
  net::ControllerServer::Options options;
  // Pin kernel-side buffering far below the reply volume so flush_conn
  // must hit EAGAIN (the kernel's sndbuf autotuning would otherwise
  // absorb hundreds of KiB on loopback).
  options.sndbuf_bytes = 8192;
  ServerHarness h(dispatcher, options);
  ASSERT_TRUE(h.ok());

  net::WireConn conn;
  std::string err;
  ASSERT_TRUE(conn.connect(h.port(), &err, kPinnedRcvbuf)) << err;

  constexpr std::uint32_t kRequests = 4000;  // 96 KiB of replies
  std::vector<std::uint8_t> batch;
  batch.reserve(kRequests * ofp::kPacketInSize);
  for (std::uint32_t i = 0; i < kRequests; ++i)
    ofp::encode_packet_in_into(batch, fetch_msg(i, i, i % 16));
  ASSERT_TRUE(conn.send_bytes(batch));

  // Wait until the server has decided every reply (encoded, none dropped:
  // the backlog stays far below the 1 MiB default cap) before reading.
  ASSERT_TRUE(poll_until(
      [&] { return h.stats().replies_out.load() == kRequests; }));
  EXPECT_EQ(h.stats().backpressure_drops.load(), 0u);

  for (std::uint32_t i = 0; i < kRequests; ++i) {
    auto f = conn.recv_frame(5000ms);
    ASSERT_TRUE(f) << "reply " << i;
    auto r = ofp::decode_packet_in_reply(*f);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->xid, i);  // in order, none lost or duplicated
  }
  EXPECT_GE(h.stats().short_writes.load(), 1u);
  EXPECT_EQ(h.stats().packet_ins.load(), kRequests);
}

// A peer that closes mid-frame just ends the stream: the whole frame
// before the cut is served, and the half frame left behind is not a decode
// error.
TEST(NetServer, FrameCutOffByPeerCloseIsNotADecodeError) {
  EchoDispatcher dispatcher;
  ServerHarness h(dispatcher);
  ASSERT_TRUE(h.ok());

  net::WireConn conn;
  std::string err;
  ASSERT_TRUE(conn.connect(h.port(), &err)) << err;
  std::vector<std::uint8_t> bytes = ofp::encode_packet_in(fetch_msg(1, 42, 0));
  const auto partial = ofp::encode_packet_in(fetch_msg(2, 43, 0));
  bytes.insert(bytes.end(), partial.begin(), partial.begin() + 10);
  ASSERT_TRUE(conn.send_bytes(bytes));
  conn.close();

  ASSERT_TRUE(poll_until([&] { return h.stats().closes.load() == 1; }));
  EXPECT_EQ(h.stats().packet_ins.load(), 1u);
  EXPECT_EQ(h.stats().replies_out.load(), 1u);
  EXPECT_EQ(h.stats().decode_errors.load(), 0u);
  EXPECT_EQ(h.stats().conns_open.load(), 0);
}

// Broken framing (a length-prefixed stream cannot resync) drops the
// connection; an intact frame of a type the serving plane does not speak
// is counted and skipped with the connection kept.
TEST(NetServer, BadFramesHandledPerSeverity) {
  EchoDispatcher dispatcher;
  ServerHarness h(dispatcher);
  ASSERT_TRUE(h.ok());

  {
    net::WireConn conn;
    std::string err;
    ASSERT_TRUE(conn.connect(h.port(), &err)) << err;
    std::vector<std::uint8_t> garbage(ofp::kHeaderSize, 0);
    garbage[0] = ofp::MsgHeader::kVersion + 1;  // wrong version
    ASSERT_TRUE(conn.send_bytes(garbage));
    EXPECT_FALSE(conn.recv_frame(2000ms));  // server closed on us
    ASSERT_TRUE(poll_until([&] { return h.stats().closes.load() == 1; }));
    EXPECT_EQ(h.stats().decode_errors.load(), 1u);
  }
  {
    net::WireConn conn;
    std::string err;
    ASSERT_TRUE(conn.connect(h.port(), &err)) << err;
    const auto stray = ofp::encode_control(ofp::MsgType::kBarrierRequest, 9);
    ASSERT_TRUE(conn.send_bytes(stray));
    ASSERT_TRUE(
        poll_until([&] { return h.stats().decode_errors.load() == 2; }));
    EXPECT_TRUE(conn.echo(10));  // connection survived the stray frame
    EXPECT_EQ(h.stats().closes.load(), 1u);
  }
}

// A slow client: its outbound buffer is pinned at the cap by an unread
// echo backlog, so packet-in replies are dropped and counted while the
// connection stays open and drains at the client's pace.
TEST(NetServer, SlowClientBackpressureDropsAndSurvives) {
  EchoDispatcher dispatcher;
  net::ControllerServer::Options options;
  options.max_outbound_bytes = 64;
  options.sndbuf_bytes = 8192;  // pin kernel buffering; see short-write test
  ServerHarness h(dispatcher, options);
  ASSERT_TRUE(h.ok());

  net::WireConn conn;
  std::string err;
  ASSERT_TRUE(conn.connect(h.port(), &err, kPinnedRcvbuf)) << err;

  // Fill the kernel buffers and the server-side outbound buffer with echo
  // replies (echo bypasses the cap: it is the probe).  64,000 B of replies
  // against at most 24 KiB of pinned kernel capacity keeps unsent far
  // above the 64 B cap until the client reads.
  constexpr std::uint32_t kEchoes = 8000;
  std::vector<std::uint8_t> echoes;
  echoes.reserve(kEchoes * ofp::kHeaderSize);
  for (std::uint32_t i = 0; i < kEchoes; ++i) {
    const auto e = ofp::encode_control(ofp::MsgType::kEchoRequest, i);
    echoes.insert(echoes.end(), e.begin(), e.end());
  }
  ASSERT_TRUE(conn.send_bytes(echoes));
  const auto counters = [&] {
    const net::NetStats& st = h.stats();
    return "packet_ins=" + std::to_string(st.packet_ins.load()) +
           " backpressure_drops=" +
           std::to_string(st.backpressure_drops.load()) +
           " replies_out=" + std::to_string(st.replies_out.load()) +
           " frames_in=" + std::to_string(st.frames_in.load()) +
           " bytes_out=" + std::to_string(st.bytes_out.load());
  };
  // Every echo is answered and the kernel has refused part of the replies
  // before the first packet-in is sent.
  ASSERT_TRUE(poll_until([&] {
    return h.stats().frames_in.load() == kEchoes &&
           h.stats().short_writes.load() >= 1;
  })) << counters();
  ASSERT_LE(h.stats().bytes_out.load() + options.max_outbound_bytes,
            kEchoes * ofp::kHeaderSize)
      << "the kernel took the echo backlog: " << counters();

  // Every packet-in reply now lands on a buffer at the cap: all dropped.
  constexpr std::uint32_t kDropped = 50;
  std::vector<std::uint8_t> batch;
  for (std::uint32_t i = 0; i < kDropped; ++i)
    ofp::encode_packet_in_into(batch, fetch_msg(i, i, 0));
  ASSERT_TRUE(conn.send_bytes(batch));
  ASSERT_TRUE(poll_until([&] {
    return h.stats().backpressure_drops.load() == kDropped;
  })) << counters();
  EXPECT_EQ(h.stats().replies_out.load(), 0u) << counters();

  // The connection is intact: drain the echo backlog, then round-trip.
  std::uint32_t echo_replies = 0;
  while (echo_replies < kEchoes) {
    auto f = conn.recv_frame(5000ms);
    ASSERT_TRUE(f) << "after " << echo_replies << " echo replies";
    const auto head = ofp::peek_header(*f);
    ASSERT_TRUE(head);
    ASSERT_EQ(head->type, static_cast<std::uint8_t>(ofp::MsgType::kEchoReply));
    ++echo_replies;
  }
  EXPECT_TRUE(conn.echo(999999));
  EXPECT_EQ(h.stats().closes.load(), 0u);
}

// Control probes bypass the drop-and-count cap but not the hard one: a
// client that floods echo requests while never reading is closed and
// counted once its outbound buffer passes control_outbound_limit,
// instead of growing it without bound.
TEST(NetServer, EchoFloodPastHardCapCloses) {
  EchoDispatcher dispatcher;
  net::ControllerServer::Options options;
  options.max_outbound_bytes = 2048;
  options.control_outbound_limit = 4096;
  options.sndbuf_bytes = 8192;  // pin kernel buffering; see short-write test
  ServerHarness h(dispatcher, options);
  ASSERT_TRUE(h.ok());

  net::WireConn conn;
  std::string err;
  ASSERT_TRUE(conn.connect(h.port(), &err, kPinnedRcvbuf)) << err;

  // ~256 KiB of echo replies against ~16 KiB of pinned kernel capacity
  // and a 4 KiB hard cap: the server must close, not buffer the rest.
  constexpr std::uint32_t kEchoes = 16000;
  std::vector<std::uint8_t> echoes;
  echoes.reserve(kEchoes * ofp::kHeaderSize);
  for (std::uint32_t i = 0; i < kEchoes; ++i) {
    const auto e = ofp::encode_control(ofp::MsgType::kEchoRequest, i);
    echoes.insert(echoes.end(), e.begin(), e.end());
  }
  conn.send_bytes(echoes);  // may fail mid-send once the server closes
  ASSERT_TRUE(
      poll_until([&] { return h.stats().overflow_closes.load() >= 1; }));
  ASSERT_TRUE(poll_until([&] { return h.stats().closes.load() == 1; }));
  EXPECT_EQ(h.stats().conns_open.load(), 0);

  // The server itself is intact: a fresh connection round-trips.
  net::WireConn probe;
  ASSERT_TRUE(probe.connect(h.port(), &err)) << err;
  EXPECT_TRUE(probe.echo(1));
}

// Hard resets racing in-flight echo replies: when a flush inside the
// frame loop hits ECONNRESET, the connection must be closed exactly once
// and never touched again (the use-after-free regression; ASan guards
// the Conn lifetime on every iteration).
TEST(NetServer, AbortiveResetDuringEchoBurstSurvives) {
  EchoDispatcher dispatcher;
  net::ControllerServer::Options options;
  options.sndbuf_bytes = 8192;
  ServerHarness h(dispatcher, options);
  ASSERT_TRUE(h.ok());

  constexpr int kRounds = 50;
  for (int round = 0; round < kRounds; ++round) {
    net::WireConn conn;
    std::string err;
    ASSERT_TRUE(conn.connect(h.port(), &err)) << err;
    const linger lg{1, 0};  // close() sends RST, not FIN
    ASSERT_EQ(::setsockopt(conn.fd(), SOL_SOCKET, SO_LINGER, &lg,
                           sizeof(lg)),
              0);
    std::vector<std::uint8_t> burst;
    for (std::uint32_t i = 0; i < 64; ++i) {
      const auto e = ofp::encode_control(ofp::MsgType::kEchoRequest, i);
      burst.insert(burst.end(), e.begin(), e.end());
    }
    ASSERT_TRUE(conn.send_bytes(burst));
    conn.close();  // RST races the server's per-frame reply flushes
  }
  ASSERT_TRUE(poll_until([&] {
    return h.stats().closes.load() == kRounds &&
           h.stats().conns_open.load() == 0;
  }));
  net::WireConn probe;
  std::string err;
  ASSERT_TRUE(probe.connect(h.port(), &err)) << err;
  EXPECT_TRUE(probe.echo(1));
}

// The acceptance property: the same deterministic workload over loopback
// TCP and in-process lands on the same canonical controller fingerprint,
// and after the run the server drains gracefully and stops accepting.
TEST(NetServer, WireRunMatchesInProcessFingerprintThenDrains) {
  WireWorkloadConfig config;
  config.connections = 2;
  config.requests_per_conn = 200;
  config.shards = 4;
  const CellularTopology topo = config.make_topology();
  const std::uint64_t reference = run_wire_workload_inprocess(topo, config);

  std::vector<ClauseId> clauses;
  const auto brain = make_wire_brain(
      topo, make_wire_policy(topo, config.num_clauses, &clauses),
      config.shards);
  provision_wire_ues(*brain, config, topo.num_base_stations());
  net::BrainDispatcher dispatcher(*brain);
  ServerHarness h(dispatcher);
  ASSERT_TRUE(h.ok());

  const WireLoadResult result = run_wire_load(
      h.port(), topo.num_base_stations(), clauses, config);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.received,
            static_cast<std::uint64_t>(config.connections) *
                config.requests_per_conn);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.server.fingerprint, reference);
  EXPECT_EQ(result.server.drops, 0u);

  // Graceful drain: everything flushes, and new connections are no longer
  // accepted (the listener is out of the loop; echo gets no answer).
  // Every packet-in was answered or counted as dropped.
  EXPECT_TRUE(h.server().drain(5000ms));
  EXPECT_EQ(h.stats().packet_ins.load(),
            h.stats().replies_out.load() +
                h.stats().backpressure_drops.load());
  const std::uint64_t accepts = h.stats().accepts.load();
  net::WireConn late;
  std::string err;
  if (late.connect(h.port(), &err)) {  // backlog may still take the SYN
    EXPECT_FALSE(late.echo(1, 300ms));
  }
  EXPECT_EQ(h.stats().accepts.load(), accepts);
}

// softcell-serverd's brain allocates tags within the Fig. 4 port budget
// (PortCodec(10): 1,024 tags, tag 0 reserved for delivery).  1,100 wire
// clauses at one base station need one tag each there, so the requests
// past the budget are answered not-ok -- never with a tag the access
// switch cannot embed -- and each is counted in agg.tag_budget_rejects.
TEST(NetServer, PathRequestsPastThePortTagBudgetAreRejected) {
  WireWorkloadConfig config;  // softcell-serverd --k 4 --clauses 1100
  config.num_clauses = 1100;
  config.shards = 4;
  const CellularTopology topo = config.make_topology();
  std::vector<ClauseId> clauses;
  const auto brain = make_wire_brain(
      topo, make_wire_policy(topo, config.num_clauses, &clauses),
      config.shards);
  provision_wire_ues(*brain, config, topo.num_base_stations());
  net::BrainDispatcher dispatcher(*brain);
  ServerHarness h(dispatcher);
  ASSERT_TRUE(h.ok());
  net::WireConn conn;
  std::string err;
  ASSERT_TRUE(conn.connect(h.port(), &err)) << err;

  telemetry::Counter& rejects =
      telemetry::Registry::global().counter("agg.tag_budget_rejects");
  const std::uint64_t rejects_before = rejects.value();
  const std::uint32_t budget = PortCodec(10).max_tags();
  std::uint32_t ok = 0, not_ok = 0, max_tag = 0;
  for (std::uint32_t c = 0; c < config.num_clauses; ++c) {
    ofp::PacketInMsg msg;
    msg.xid = c;
    msg.kind = ofp::PacketInMsg::Kind::kPolicyPath;
    msg.ue = UeId(c % config.total_ues() + 1);
    msg.bs = 0;
    msg.clause = clauses[c];
    ASSERT_TRUE(conn.send_bytes(ofp::encode_packet_in(msg)));
    const auto frame = conn.recv_frame(5000ms);
    ASSERT_TRUE(frame);
    const auto reply = ofp::decode_packet_in_reply(*frame);
    ASSERT_TRUE(reply);
    ASSERT_EQ(reply->xid, c);
    if (!reply->ok) {
      ++not_ok;
      continue;
    }
    ++ok;
    EXPECT_LT(reply->tag.value(), budget) << "clause " << c;
    max_tag = std::max<std::uint32_t>(max_tag, reply->tag.value());
  }
  EXPECT_EQ(ok, budget - 1);  // 1,023 ok: tag 0 is delivery's
  EXPECT_EQ(not_ok, config.num_clauses - (budget - 1));  // 77
  EXPECT_EQ(max_tag, budget - 1);  // the budget is used up, not undercut
  EXPECT_EQ(rejects.value() - rejects_before, not_ok);
}

// Run to completion: 16 path requests written with one send are one read
// burst, answered on the loop thread and flushed once -- 16 replies in xid
// order, each with the brain's tag for its key, and one reply batch.
TEST(NetServer, OneReadBurstIsAnsweredWithOneFlush) {
  WireWorkloadConfig config;
  config.shards = 4;
  const CellularTopology topo = config.make_topology();
  std::vector<ClauseId> clauses;
  const auto brain = make_wire_brain(
      topo, make_wire_policy(topo, config.num_clauses, &clauses),
      config.shards);
  provision_wire_ues(*brain, config, topo.num_base_stations());
  net::BrainDispatcher dispatcher(*brain);
  ServerHarness h(dispatcher);
  ASSERT_TRUE(h.ok());
  net::WireConn conn;
  std::string err;
  ASSERT_TRUE(conn.connect(h.port(), &err)) << err;

  // UE q + 1 sits at base station 0 with provider clause q: 16 keys.
  constexpr std::uint32_t kRequests = 16;
  std::vector<ofp::PacketInMsg> msgs;
  std::vector<std::uint8_t> burst;
  for (std::uint32_t q = 0; q < kRequests; ++q) {
    ofp::PacketInMsg msg;
    msg.xid = q;
    msg.kind = ofp::PacketInMsg::Kind::kPolicyPath;
    msg.ue = UeId(q + 1);
    msg.bs = 0;
    msg.clause = clauses[q % clauses.size()];
    ofp::encode_packet_in_into(burst, msg);
    msgs.push_back(msg);
  }
  const std::uint64_t batches_before = h.stats().reply_batches.load();
  ASSERT_TRUE(conn.send_bytes(burst));

  for (const ofp::PacketInMsg& msg : msgs) {
    const auto frame = conn.recv_frame(5000ms);
    ASSERT_TRUE(frame) << "reply " << msg.xid;
    const auto reply = ofp::decode_packet_in_reply(*frame);
    ASSERT_TRUE(reply);
    EXPECT_EQ(reply->xid, msg.xid);
    EXPECT_TRUE(reply->ok);
    // A warm request for the same key returns the tag the burst installed.
    EXPECT_EQ(reply->tag,
              brain->request_policy_path(msg.ue, msg.bs, msg.clause))
        << "xid " << msg.xid;
  }
  EXPECT_EQ(h.stats().reply_batches.load() - batches_before, 1u);
  EXPECT_EQ(h.stats().replies_out.load(), kRequests);
}

// The serving stats surface in the global telemetry registry next to the
// rest of the control plane (collector-hook pattern, like ofp.* faults).
TEST(NetServer, StatsSurfaceInTelemetryRegistry) {
  EchoDispatcher dispatcher;
  ServerHarness h(dispatcher);
  ASSERT_TRUE(h.ok());

  net::WireConn conn;
  std::string err;
  ASSERT_TRUE(conn.connect(h.port(), &err)) << err;
  ASSERT_TRUE(conn.echo(1));

  const telemetry::Snapshot snapshot = telemetry::Registry::global().collect();
  const auto* accepts = snapshot.find("net.accepts");
  ASSERT_NE(accepts, nullptr);
  EXPECT_GE(accepts->count, 1u);
  EXPECT_NE(snapshot.find("net.bytes_in"), nullptr);
  EXPECT_NE(snapshot.find("net.conns_open"), nullptr);
}

}  // namespace
}  // namespace softcell
