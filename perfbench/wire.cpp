// rollout_wire: a policy rollout over loopback TCP into a fresh
// softcell-serverd process, from one generator thread that multiplexes a
// few connections.  On a k=8 fabric the generator requests a path for
// every (bs, clause) key once, in a seeded shuffle as flow misses arrive,
// so every request is an install.
//
// A run reports five rounds, each on a fresh serverd: set-up installs the
// first keys one at a time on one connection, then three timed phases
// run in a fixed order -- open loop at a fixed low rate, open loop at a
// fixed high rate, closed loop with a fixed window per connection until
// every key is installed.  An untimed verification pass then repeats the
// path request and fetches the classifiers (the section 6.2 Cbench
// request) for every key.  Every reply is checked as it arrives; after
// the verification the benchmark fetches serverd's canonical fingerprint,
// stops it with SIGTERM, and replays the key stream in-process to check
// the fingerprint and the paths and to count the fabric rules.  A round
// during which the host's hypervisor stole more than a fixed share of the
// CPUs is repeated (up to a cap), because its figures measure the host.
// The traced run adds timers around the generator's socket calls and
// replays the streams in-process through the runtime, the shard brain, a
// core controller and the codec.
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"
#include "core/path.hpp"
#include "net/client.hpp"
#include "net/dispatch.hpp"
#include "ofp/codec.hpp"
#include "runtime/runtime.hpp"
#include "runtime/shard_brain.hpp"
#include "telemetry/registry.hpp"
#include "topo/cellular.hpp"
#include "workload/wire_workload.hpp"

namespace perfbench {

namespace {

using namespace softcell;

// Every (bs, clause) key has exactly one UE: key q = bs * kClauses + c is
// UE q + 1, attached at bs with provider 100 + c, so its one matching
// clause is c.  serverd provisions exactly this base when started with
// --connections <num_bs> --ues-per-conn kClauses.
constexpr std::uint32_t kClauses = 16;
constexpr std::uint32_t kTagLimit = 1024;  // Fig. 4: PortCodec(10)
constexpr std::uint32_t kNoTag = 0xFFFF;
constexpr std::size_t kShards = 8;
constexpr unsigned kWorkers = 2;
constexpr std::uint32_t kConns = 4;
constexpr std::uint32_t kWindow = 16;
constexpr std::size_t kClassifiersPerFetch = 5;  // one per AppType

// The thread budget: the generator thread owns the first CPU this
// process may run on and busy-polls it; serverd gets every other CPU.
// Without the split, a sleeping generator and four busy threads on four
// CPUs make wake-up placement, not the server, set the figures.
struct CpuSplit {
  cpu_set_t all{}, generator{}, server{};
  bool split = false;

  CpuSplit() {
    CPU_ZERO(&all);
    CPU_ZERO(&generator);
    CPU_ZERO(&server);
    if (::sched_getaffinity(0, sizeof all, &all) != 0) return;
    int first = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (!CPU_ISSET(c, &all)) continue;
      if (first < 0) {
        first = c;
        CPU_SET(c, &generator);
      } else {
        CPU_SET(c, &server);
      }
    }
    split = CPU_COUNT(&server) > 0;
  }
  void pin_generator() const {
    if (split) ::sched_setaffinity(0, sizeof generator, &generator);
  }
  void unpin() const { ::sched_setaffinity(0, sizeof all, &all); }
};

// Pins every thread of process `pid` to one CPU of `cpus`, round-robin in
// creation (thread id) order, so that every round places serverd's
// threads alike.  Left to the scheduler, their placement differed from
// one server process to the next, and so did the open-loop medians.
void pin_threads(pid_t pid, const cpu_set_t& cpus) {
  std::vector<int> cpu;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &cpus)) cpu.push_back(c);
  std::vector<pid_t> tids;
  if (DIR* d = ::opendir(("/proc/" + std::to_string(pid) + "/task").c_str())) {
    while (const dirent* e = ::readdir(d))
      if (e->d_name[0] != '.') tids.push_back(std::atoi(e->d_name));
    ::closedir(d);
  }
  std::sort(tids.begin(), tids.end());
  for (std::size_t i = 0; i < tids.size() && !cpu.empty(); ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu[i % cpu.size()], &one);
    ::sched_setaffinity(tids[i], sizeof one, &one);
  }
}

// Keeps the server's CPUs from going idle while it is measured: one
// SCHED_IDLE thread per CPU that spins and yields to any other runnable
// thread at once.  On a virtual machine an idle CPU halts, and waking a
// halted CPU waits for the hypervisor to schedule it again -- time the
// guest books as steal, and that varies with the load of the rest of the
// host.  Every request of the workload hands work between serverd's
// threads on different CPUs, so without the spinners the figures follow
// the host's load more than the server's.
class IdleSpinners {
 public:
  explicit IdleSpinners(const cpu_set_t& cpus) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (!CPU_ISSET(c, &cpus)) continue;
      threads_.emplace_back([this, c] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        ::sched_setaffinity(0, sizeof one, &one);
        const sched_param param{};
        ::sched_setscheduler(0, SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) __builtin_ia32_pause();
      });
    }
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;
  ~IdleSpinners() {
    stop_.store(true);
    for (auto& t : threads_) t.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// The workload's fixed inputs (the README lists them).  The open-loop
// rates are absolute numbers, never fractions of a measured maximum; the
// smoke variant shrinks the fabric.
struct WireSpec {
  std::uint32_t k = 8;
  double rate_low = 250;  // open-loop rates, requests per second
  double rate_high = 750;
  std::uint32_t setup_keys = 1'024;  // installed one at a time by set-up
  int rounds = 5;         // rounds whose figures a run reports
  int max_rounds = 7;     // rounds a run may start, repeats included
  double max_steal = 0.03;  // a round with more steal is repeated
};

WireSpec spec_for(const Options& o) {
  WireSpec s;
  if (o.smoke) {
    s.k = 4;
    s.setup_keys = 128;
  }
  return s;
}

// The share of the host's CPU time that its hypervisor stole: the steal
// column of /proc/stat over the summed user..steal columns.
struct CpuTicks {
  std::uint64_t steal = 0, total = 0;
};
CpuTicks read_cpu_ticks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  for (int i = 0; i < 8; ++i) {  // user nice system idle iowait irq softirq steal
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}
double steal_share(const CpuTicks& a, const CpuTicks& b) {
  const std::uint64_t total = b.total - a.total;
  return total == 0 ? 0.0
                    : static_cast<double>(b.steal - a.steal) /
                          static_cast<double>(total);
}

// One request as sent, and its timeline (ns on the steady clock).
struct Rec {
  std::int64_t due = 0;   // open loop: scheduled send time; else send time
  std::int64_t sent = 0;
  std::int64_t done = 0;
  std::uint32_t key = 0;
  std::uint8_t kind = 0;  // 0 fetch, 1 path
  std::uint8_t phase = 0;
  std::uint8_t conn = 0;
};

enum Phase : std::uint8_t { kSetup, kLow, kHigh, kMax, kVerify, kPhases };
const char* const kPhaseNames[] = {"setup", "open_low", "open_high",
                                   "closed_max", "verify"};
constexpr bool timed(std::uint8_t phase) {
  return phase >= kLow && phase <= kMax;
}

// --- the process under test ------------------------------------------------

class ServerProc {
 public:
  ServerProc() = default;
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;
  ~ServerProc() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }

  bool start(const std::string& exe, const std::vector<std::string>& args,
             const CpuSplit& cpus, std::string* err) {
    int fds[2];
    if (::pipe(fds) != 0) {
      *err = "pipe failed";
      return false;
    }
    std::vector<std::string> argv_s{exe};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (auto& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      *err = "fork failed";
      ::close(fds[0]);
      ::close(fds[1]);
      return false;
    }
    if (pid == 0) {
      // The server must not outlive the benchmark, whatever kills it.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (cpus.split) ::sched_setaffinity(0, sizeof cpus.server, &cpus.server);
      ::dup2(fds[1], 1);
      ::dup2(fds[1], 2);
      ::close(fds[0]);
      ::close(fds[1]);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    pid_ = pid;
    return true;
  }

  [[nodiscard]] pid_t pid() const { return pid_; }

  // Waits for serverd to write its bound port (it does so after
  // provisioning and listen).
  bool wait_port(const std::string& port_file, std::uint16_t* port,
                 std::string* err) {
    const std::int64_t deadline = now_ns() + 60'000'000'000LL;
    while (now_ns() < deadline) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        *err = "softcell-serverd exited during start-up: " + output();
        return false;
      }
      std::ifstream in(port_file);
      unsigned p = 0;
      if (in >> p && p > 0) {
        *port = static_cast<std::uint16_t>(p);
        return true;
      }
      ::usleep(2'000);
    }
    *err = "softcell-serverd did not report its port";
    return false;
  }

  // SIGTERM, then waits for the drain; false if it had to be killed.
  bool stop(int* status) {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    const std::int64_t deadline = now_ns() + 30'000'000'000LL;
    while (now_ns() < deadline) {
      if (::waitpid(pid_, status, WNOHANG) == pid_) {
        pid_ = -1;
        return true;
      }
      ::usleep(2'000);
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, status, 0);
    pid_ = -1;
    return false;
  }

  // Everything serverd printed (read after it exited).
  std::string output() {
    std::string out;
    if (out_fd_ < 0) return out;
    ::fcntl(out_fd_, F_SETFL, O_NONBLOCK);
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(out_fd_, buf, sizeof buf);
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

// --- the load generator ------------------------------------------------------

// One thread, a few non-blocking connections under one epoll set.
class Generator {
 public:
  explicit Generator(SpanLog& spans) : spans_(spans) {}
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;
  ~Generator() {
    for (auto& c : conns_) ::close(c.fd);
    if (ep_ >= 0) ::close(ep_);
  }

  bool connect(std::uint16_t port, std::uint32_t n, std::string* err) {
    ep_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (ep_ < 0) {
      *err = "epoll_create1 failed";
      return false;
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                              sizeof addr) != 0) {
        if (fd >= 0) ::close(fd);
        *err = std::string("connect: ") + std::strerror(errno);
        return false;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      ::fcntl(fd, F_SETFL, O_NONBLOCK);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = i;
      ::epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev);
      conns_.push_back(Conn{fd, {}, 0, false, {}});
    }
    return true;
  }

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(conns_.size());
  }

  void queue(std::uint32_t c, const ofp::PacketInMsg& msg) {
    ofp::encode_packet_in_into(conns_[c].out, msg);
    conns_[c].last_xid = msg.xid;
  }

  // Writes whatever the kernel takes; the rest goes out on EPOLLOUT.
  bool flush(std::string* err) {
    for (std::uint32_t i = 0; i < conns_.size(); ++i) {
      if (!write_some(i, err)) return false;
    }
    return true;
  }

  // Waits up to timeout_ns for socket events and hands every complete
  // reply frame to on_reply(reply, now_ns).  False on a broken stream.
  template <typename OnReply>
  bool poll(std::int64_t timeout_ns, OnReply&& on_reply, std::string* err) {
    epoll_event events[8];
    timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                static_cast<long>(timeout_ns % 1'000'000'000)};
    const int n = ::epoll_pwait2(ep_, events, 8, &ts, nullptr);
    if (n < 0) {
      if (errno == EINTR) return true;
      *err = "epoll_pwait2 failed";
      return false;
    }
    for (int e = 0; e < n; ++e) {
      const std::uint32_t i = events[e].data.u32;
      if (events[e].events & EPOLLOUT) {
        if (!write_some(i, err)) return false;
      }
      if (events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        if (!read_some(i, on_reply, err)) return false;
      }
    }
    return true;
  }

  std::uint64_t recv_calls = 0;  // reads that returned bytes
  std::uint64_t replies = 0;

 private:
  struct Conn {
    int fd;
    std::vector<std::uint8_t> out;
    std::size_t out_pos;
    bool want_out;
    ofp::FrameAssembler in;
    std::uint32_t last_xid = 0;  // newest request queued (span request id)
  };

  bool write_some(std::uint32_t i, std::string* err) {
    Conn& c = conns_[i];
    if (c.out_pos == c.out.size() && !c.want_out) return true;  // idle
    const std::int64_t t0 = spans_.enabled() ? now_ns() : 0;
    while (c.out_pos < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                               c.out.size() - c.out_pos, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        *err = std::string("send: ") + std::strerror(errno);
        return false;
      }
      c.out_pos += static_cast<std::size_t>(n);
    }
    if (t0 != 0)
      spans_.add("gen.send", t0, now_ns(), SpanLog::kNoParent, c.last_xid);
    if (c.out_pos == c.out.size()) {
      c.out.clear();
      c.out_pos = 0;
    }
    const bool want = c.out_pos < c.out.size();
    if (want != c.want_out) {
      epoll_event ev{};
      ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
      ev.data.u32 = i;
      ::epoll_ctl(ep_, EPOLL_CTL_MOD, c.fd, &ev);
      c.want_out = want;
    }
    return true;
  }

  template <typename OnReply>
  bool read_some(std::uint32_t i, OnReply& on_reply, std::string* err) {
    Conn& c = conns_[i];
    for (;;) {
      const std::int64_t t0 = spans_.enabled() ? now_ns() : 0;
      auto buf = c.in.writable(65536);
      const ssize_t n = ::recv(c.fd, buf.data(), buf.size(), 0);
      if (n == 0) {
        *err = "serverd closed a connection";
        return false;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        if (errno == EINTR) continue;
        *err = std::string("recv: ") + std::strerror(errno);
        return false;
      }
      c.in.commit(static_cast<std::size_t>(n));
      ++recv_calls;
      const std::int64_t now = now_ns();
      std::uint64_t first_xid = 0;
      std::span<const std::uint8_t> frame;
      for (;;) {
        const auto st = c.in.next(frame);
        if (st == ofp::FrameAssembler::Status::kNeedMore) break;
        const auto reply = st == ofp::FrameAssembler::Status::kFrame
                               ? ofp::decode_packet_in_reply(frame)
                               : std::nullopt;
        if (!reply) {
          *err = "undecodable reply frame";
          return false;
        }
        if (first_xid == 0) first_xid = reply->xid;
        ++replies;
        on_reply(*reply, now);
      }
      if (t0 != 0)
        spans_.add("gen.recv", t0, now, SpanLog::kNoParent, first_xid);
      if (static_cast<std::size_t>(n) < buf.size()) return true;
    }
  }

  SpanLog& spans_;
  int ep_ = -1;
  std::vector<Conn> conns_;
};

// --- the workload's own view of the controller --------------------------------

struct World {
  WireSpec spec;
  CellularTopology topo;
  std::vector<ClauseId> clauses;  // filled while `policy` is built
  ServicePolicy policy;
  std::uint32_t num_bs = 0;
  std::uint32_t num_keys = 0;

  explicit World(const WireSpec& s)
      : spec(s),
        topo(CellularTopoParams{.k = s.k}),
        clauses(),
        policy(make_wire_policy(topo, kClauses, &clauses)),
        num_bs(topo.num_base_stations()),
        num_keys(num_bs * kClauses) {}

  [[nodiscard]] ofp::PacketInMsg msg(std::uint64_t xid, const Rec& r) const {
    ofp::PacketInMsg m;
    m.xid = static_cast<std::uint32_t>(xid);
    m.ue = UeId(r.key + 1);
    m.bs = r.key / kClauses;
    if (r.kind == 1) {
      m.kind = ofp::PacketInMsg::Kind::kPolicyPath;
      m.clause = clauses[r.key % kClauses];
    }
    return m;
  }

  // The digest a fetch for key's UE must carry, from the policy this
  // benchmark generated (one clause per provider, matching every app)
  // and the tag set-up received for the key.
  [[nodiscard]] std::uint64_t expected_digest(std::uint32_t key,
                                              std::uint32_t tag) const {
    std::vector<PacketClassifier> set;
    for (const AppType app : {AppType::kWeb, AppType::kVideo, AppType::kVoip,
                              AppType::kM2mTelemetry, AppType::kOther}) {
      PacketClassifier c;
      c.app = app;
      c.clause = clauses[key % kClauses];
      c.allow = true;
      if (tag != kNoTag) c.tag = PolicyTag(static_cast<std::uint16_t>(tag));
      set.push_back(c);
    }
    return net::classifier_digest(set);
  }

  // The subscriber base serverd provisions, on an in-process brain.
  void provision(ShardBrain& brain) const {
    for (std::uint32_t q = 0; q < num_keys; ++q) {
      SubscriberProfile p;
      p.ue = UeId(q + 1);
      p.provider = 100 + q % kClauses;
      brain.provision_subscriber(p.ue, p);
      brain.attach_ue(p.ue, q / kClauses,
                      LocalUeId(static_cast<std::uint16_t>(q & 0xFFFF)));
    }
  }

  [[nodiscard]] std::vector<std::string> serverd_args(
      const std::string& port_file) const {
    return {"--port",        "0",
            "--port-file",   port_file,
            "--k",           std::to_string(spec.k),
            "--shards",      std::to_string(kShards),
            "--workers",     std::to_string(kWorkers),
            "--clauses",     std::to_string(kClauses),
            "--connections", std::to_string(num_bs),
            "--ues-per-conn", std::to_string(kClauses)};
  }
};

// The seeded rollout: a path request for every key once, in a seeded
// shuffle, as flow misses arrive.
class Stream {
 public:
  Stream(std::uint32_t num_keys, std::uint64_t seed) : order_(num_keys) {
    std::iota(order_.begin(), order_.end(), 0u);
    std::mt19937_64 rng(seed);
    std::shuffle(order_.begin(), order_.end(), rng);
  }

  Rec next() {
    Rec r;
    r.kind = 1;
    r.key = order_[next_++];
    return r;
  }
  [[nodiscard]] std::size_t remaining() const {
    return order_.size() - next_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& order() const {
    return order_;
  }

 private:
  std::vector<std::uint32_t> order_;
  std::size_t next_ = 0;
};

// --- one run -------------------------------------------------------------------

// serverd's brain: the default ControllerOptions, kShards shards.
ShardBrainOptions brain_options() {
  ShardBrainOptions o;
  o.shards = kShards;
  return o;
}

std::uint64_t registry_counter(const char* name) {
  return telemetry::Registry::global().counter(name).value();
}

// The figures of one round.
struct Round {
  double setup_s = 0;
  double steal = 0;  // share of the host's CPU time stolen during it
  std::vector<double> low, high, slices;
  std::uint64_t timed = 0, replies = 0, recv_calls = 0;
  std::uint64_t closed = 0;  // closed-loop replies
  double closed_s = 0;       // closed-loop duration
  double timed_s = 0, cpu_s = 0, ctx = 0, rss_mb = 0, probe_ms = 0;
};

class WireRun {
 public:
  WireRun(const Options& o, Result& result)
      : o_(o), res_(result), world_(spec_for(o)), spans_(o.trace) {}

  void run();

 private:
  // One set-up: fresh serverd, connections, set-up installs.
  bool setup(std::string* err);
  bool stop_server();
  // Set-up, timed phases, verification, stats probe and stop; false
  // (with the error recorded) if the round could not finish.
  bool run_round(Round& round, std::vector<std::uint64_t>& server_fps);
  // Keeps `window` requests outstanding on each of the first `conns`
  // connections until make(0), ..., make(n - 1) went out, then collects
  // the replies.
  bool closed_loop(Phase phase, std::uint32_t conns, std::uint32_t window,
                   std::size_t n, const std::function<Rec(std::size_t)>& make,
                   std::string* err);
  bool open_loop(Phase phase, double rate, std::uint64_t n,
                 std::string* err);
  bool collect_outstanding(std::int64_t timeout_ns, std::string* err);
  void on_reply(const ofp::PacketInReply& reply, std::int64_t now);
  void send(Phase phase, const Rec& r, std::uint32_t conn, std::int64_t due);
  void replay_and_check(const std::vector<std::uint64_t>& server_fps);
  void traced_replays();
  [[nodiscard]] std::vector<double> latencies_us(Phase phase) const;
  [[nodiscard]] std::vector<double> slice_rates(std::int64_t t0,
                                              std::int64_t t1) const;
  void add_wire_spans();

  const Options& o_;
  Result& res_;
  World world_;
  CpuSplit cpus_;
  SpanLog spans_;
  std::unique_ptr<Stream> stream_;
  std::unique_ptr<ServerProc> server_;
  std::unique_ptr<Generator> gen_;
  std::vector<Rec> recs_;
  std::uint32_t conn_outstanding_[kConns] = {};
  std::uint64_t outstanding_ = 0;
  std::vector<std::uint16_t> key_tag_;  // first tag replied per key
  // Per round, the tags serverd replied to set-up, in send order.
  std::vector<std::vector<std::uint16_t>> setup_tags_;
  std::vector<ofp::PacketInReply> reply_sample_;
  std::uint64_t corrupted_ = 0;
  std::int64_t lag_max_ns_ = 0;
  std::int64_t phase_start_[kPhases] = {};
  std::int64_t phase_end_[kPhases] = {};
  std::uint16_t port_ = 0;
  double replies_per_recv_ = 0;
  // Traced-run figures of the wire itself.
  struct {
    double cpu_us_per_req = 0, ctx_per_req = 0, p50_low = 0, p50_high = 0;
  } wire_;
};

void WireRun::send(Phase phase, const Rec& r, std::uint32_t conn,
                   std::int64_t due) {
  const std::uint64_t xid = recs_.size();
  Rec rec = r;
  rec.phase = phase;
  rec.conn = static_cast<std::uint8_t>(conn);
  rec.sent = now_ns();
  rec.due = due == 0 ? rec.sent : due;
  if (phase == kLow || phase == kHigh)
    lag_max_ns_ = std::max(lag_max_ns_, rec.sent - rec.due);
  recs_.push_back(rec);
  gen_->queue(conn, world_.msg(xid, rec));
  ++conn_outstanding_[conn];
  ++outstanding_;
  ++res_.attempted;
}

void WireRun::on_reply(const ofp::PacketInReply& reply_in, std::int64_t now) {
  ofp::PacketInReply reply = reply_in;
  if (reply.xid >= recs_.size()) {
    res_.error("reply for an xid never sent");
    return;
  }
  Rec& r = recs_[reply.xid];
  if (r.done != 0) {
    res_.error("two replies for xid " + std::to_string(reply.xid));
    return;
  }
  // Negative tests corrupt the observed output once, after set-up.
  if (!o_.corrupt.empty() && r.phase != kSetup && corrupted_ == 0) {
    if (o_.corrupt == "missing_reply") {
      ++corrupted_;
      return;  // as if the reply never arrived
    }
    if (o_.corrupt == "wrong_digest" && r.kind == 0) {
      reply.digest ^= 1;
      ++corrupted_;
    }
    if (o_.corrupt == "two_tags" && r.kind == 1 &&
        key_tag_[r.key] != kNoTag) {
      reply.tag = PolicyTag(
          static_cast<std::uint16_t>((key_tag_[r.key] + 1) % kTagLimit));
      ++corrupted_;
    }
  }
  r.done = now;
  --conn_outstanding_[r.conn];
  --outstanding_;
  if (reply_sample_.size() < 100'000) reply_sample_.push_back(reply);
  if (!reply.ok) {
    ++res_.failed;
    res_.error("packet-in " + std::to_string(reply.xid) +
               " got a reply that is not ok");
    return;
  }
  const bool is_path = reply.kind == ofp::PacketInMsg::Kind::kPolicyPath;
  if (is_path != (r.kind == 1)) {
    res_.error("reply kind does not match the request kind");
    return;
  }
  if (!is_path) {
    // Fetches go out only in the verification pass, after every key's
    // path reply, so the key's tag is known.
    if (reply.classifier_count != kClassifiersPerFetch ||
        key_tag_[r.key] == kNoTag ||
        reply.digest != world_.expected_digest(r.key, key_tag_[r.key]))
      res_.error("fetch reply for key " + std::to_string(r.key) +
                 " has the wrong classifier count or digest");
    return;
  }
  const std::uint32_t tag = reply.tag.valid() ? reply.tag.value() : kNoTag;
  if (tag >= kTagLimit) {
    res_.error("tag " + std::to_string(tag) +
               " does not fit the 10-bit port embedding");
  } else if (key_tag_[r.key] == kNoTag) {
    key_tag_[r.key] = static_cast<std::uint16_t>(tag);
  } else if (key_tag_[r.key] != tag) {
    res_.error("two tags for key " + std::to_string(r.key) + ": " +
               std::to_string(key_tag_[r.key]) + " and " +
               std::to_string(tag));
  }
}

bool WireRun::collect_outstanding(std::int64_t timeout_ns, std::string* err) {
  const std::int64_t deadline = now_ns() + timeout_ns;
  const auto on = [this](const ofp::PacketInReply& r, std::int64_t now) {
    on_reply(r, now);
  };
  while (outstanding_ > 0 && now_ns() < deadline) {
    if (!gen_->poll(10'000'000, on, err)) return false;
  }
  if (outstanding_ > 0) {
    res_.failed += outstanding_;
    res_.error(std::to_string(outstanding_) + " packet-ins got no reply");
    outstanding_ = 0;
    std::fill(std::begin(conn_outstanding_), std::end(conn_outstanding_), 0u);
  }
  return true;
}

bool WireRun::closed_loop(Phase phase, std::uint32_t conns,
                          std::uint32_t window, std::size_t n,
                          const std::function<Rec(std::size_t)>& make,
                          std::string* err) {
  std::size_t j = 0;
  const auto refill = [&] {
    for (std::uint32_t c = 0; c < conns; ++c) {
      while (conn_outstanding_[c] < window && j < n) send(phase, make(j++), c, 0);
    }
  };
  const auto on = [this](const ofp::PacketInReply& r, std::int64_t now) {
    on_reply(r, now);
  };
  phase_start_[phase] = now_ns();
  refill();
  if (!gen_->flush(err)) return false;
  while (j < n) {
    if (!gen_->poll(0, on, err)) return false;
    refill();
    if (!gen_->flush(err)) return false;
  }
  // The phase ends with its last reply.
  const bool ok = collect_outstanding(10'000'000'000LL, err);
  phase_end_[phase] = now_ns();
  return ok;
}

bool WireRun::open_loop(Phase phase, double rate, std::uint64_t n,
                        std::string* err) {
  // Poisson arrivals at the fixed mean rate: seeded exponential gaps, so
  // the schedule cannot phase-lock with any periodic behaviour of the
  // server.
  std::mt19937_64 rng(o_.seed * 1'000'003 + phase);
  std::exponential_distribution<double> gap(rate / 1e9);
  std::vector<std::int64_t> due(n);
  double t = static_cast<double>(now_ns() + 1'000'000);
  for (std::uint64_t j = 0; j < n; ++j) {
    t += gap(rng);
    due[j] = static_cast<std::int64_t>(t);
  }
  const auto on = [this](const ofp::PacketInReply& r, std::int64_t now) {
    on_reply(r, now);
  };
  phase_start_[phase] = due.empty() ? now_ns() : due.front();
  std::uint64_t j = 0;
  while (j < n) {
    const std::int64_t now = now_ns();
    bool queued = false;
    while (j < n && due[j] <= now) {
      send(phase, stream_->next(), static_cast<std::uint32_t>(j % gen_->size()),
           due[j]);
      ++j;
      queued = true;
    }
    if (queued && !gen_->flush(err)) return false;
    if (j >= n) break;
    if (!gen_->poll(0, on, err)) return false;  // busy-poll to the next due
  }
  phase_end_[phase] = due.empty() ? now_ns() : due.back();
  return collect_outstanding(10'000'000'000LL, err);
}

std::vector<double> WireRun::latencies_us(Phase phase) const {
  std::vector<double> out;
  for (const Rec& r : recs_) {
    if (r.phase == phase && r.done != 0)
      out.push_back(static_cast<double>(r.done - r.due) / 1e3);
  }
  return out;
}

// Completions per second in ten equal slices of [t0, t1).  The run
// reports the median slice, so one stall does not move the figure.
std::vector<double> WireRun::slice_rates(std::int64_t t0,
                                         std::int64_t t1) const {
  constexpr int kSlices = 10;
  std::vector<double> count(kSlices, 0);
  const double width = static_cast<double>(t1 - t0) / kSlices;
  for (const Rec& r : recs_) {
    if (r.phase != kMax || r.done < t0 || r.done >= t1) continue;
    count[static_cast<std::size_t>(static_cast<double>(r.done - t0) / width)] +=
        1;
  }
  for (double& c : count) c /= width / 1e9;
  return count;
}

bool WireRun::setup(std::string* err) {
  stream_ = std::make_unique<Stream>(world_.num_keys, o_.seed);
  recs_.clear();
  key_tag_.assign(world_.num_keys, kNoTag);
  reply_sample_.clear();
  outstanding_ = 0;
  std::fill(std::begin(conn_outstanding_), std::end(conn_outstanding_), 0u);

  const std::string port_file = o_.out_dir + "/serverd.port";
  std::remove(port_file.c_str());
  gen_.reset();
  server_ = std::make_unique<ServerProc>();
  gen_ = std::make_unique<Generator>(spans_);
  std::uint16_t port = 0;
  if (!server_->start(o_.serverd, world_.serverd_args(port_file), cpus_, err) ||
      !server_->wait_port(port_file, &port, err) ||
      !gen_->connect(port, kConns, err))
    return false;
  port_ = port;
  // Set-up installs the first keys of the rollout one at a time on one
  // connection, so serverd installs them in send order and hands out the
  // tags the in-process replay, installing in the same order, must.
  const std::uint32_t n = world_.spec.setup_keys;
  const auto next = [this](std::size_t) { return stream_->next(); };
  // serverd starts its event-loop thread after it reports its port; the
  // first reply shows that every thread is up, so they are pinned then.
  if (!closed_loop(kSetup, 1, 1, 1, next, err)) return false;
  if (cpus_.split) pin_threads(server_->pid(), cpus_.server);
  if (!closed_loop(kSetup, 1, 1, n - 1, next, err)) return false;
  std::vector<std::uint16_t> tags;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint16_t tag = key_tag_[stream_->order()[i]];
    if (tag == kNoTag) {
      *err = "set-up left a key without a tag";
      return false;
    }
    tags.push_back(tag);
  }
  if (o_.corrupt == "served_tag") tags[0] ^= 1;
  setup_tags_.push_back(std::move(tags));
  return true;
}

bool WireRun::stop_server() {
  gen_.reset();
  int status = 0;
  const bool exited = server_->stop(&status);
  const std::string out = server_->output();
  server_.reset();
  const bool ok = exited && WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
                  out.find("drained (") != std::string::npos;
  res_.check(ok, "softcell-serverd did not drain and exit 0 on SIGTERM: " +
                     out);
  return ok;
}

bool WireRun::run_round(Round& round, std::vector<std::uint64_t>& server_fps) {
  const WireSpec& spec = world_.spec;
  std::string err;
  const IdleSpinners spinners(cpus_.server);
  const CpuTicks c0 = read_cpu_ticks();
  const std::int64_t t0 = now_ns();
  if (!setup(&err)) {
    res_.error("set-up: " + err);
    return false;
  }
  round.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  const ProcSample before = read_proc(server_->pid());
  const double share = o_.seconds / spec.rounds;
  const auto n_low = static_cast<std::uint64_t>(spec.rate_low * 0.3 * share);
  const auto n_high = static_cast<std::uint64_t>(spec.rate_high * 0.3 * share);
  // The timed closed loop sends until every key is installed, so every
  // round ends on the same key set.
  if (!open_loop(kLow, spec.rate_low, n_low, &err) ||
      !open_loop(kHigh, spec.rate_high, n_high, &err) ||
      !closed_loop(kMax, kConns, kWindow, stream_->remaining(),
                   [this](std::size_t) { return stream_->next(); }, &err)) {
    res_.error("timed phases: " + err);
    return false;
  }
  const ProcSample after = read_proc(server_->pid());
  round.steal = steal_share(c0, read_cpu_ticks());
  // Untimed verification: every key's path again (a repeat must carry
  // the first reply's tag) and its classifiers (the digest must match
  // the policy and that tag).
  const auto verify = [](std::size_t j) {
    Rec r;
    r.kind = static_cast<std::uint8_t>(j % 2);
    r.key = static_cast<std::uint32_t>(j / 2);
    return r;
  };
  if (!closed_loop(kVerify, kConns, kWindow, 2 * std::size_t{world_.num_keys},
                   verify, &err)) {
    res_.error("verification: " + err);
    return false;
  }
  // The stats probe recompacts the server, so it comes after the timed
  // phases and the memory reading.
  net::WireConn probe;
  std::optional<ofp::ServerStatsMsg> stats;
  const std::int64_t p0 = now_ns();
  if (probe.connect(port_, &err))
    stats = probe.server_stats(0xFFFFFFFFu, std::chrono::seconds(60));
  round.probe_ms = static_cast<double>(now_ns() - p0) / 1e6;
  if (!stats) {
    res_.error("server stats request failed");
    return false;
  }
  server_fps.push_back(stats->fingerprint ^
                       (o_.corrupt == "fingerprint" ? 1 : 0));
  round.replies = gen_->replies;
  round.recv_calls = gen_->recv_calls;
  if (!stop_server()) return false;

  for (const Rec& r : recs_) {
    round.timed += timed(r.phase) ? 1 : 0;
    round.closed += r.phase == kMax ? 1 : 0;
  }
  round.closed_s =
      static_cast<double>(phase_end_[kMax] - phase_start_[kMax]) / 1e9;
  round.timed_s =
      static_cast<double>(phase_end_[kMax] - phase_start_[kLow]) / 1e9;
  round.cpu_s = after.cpu_s - before.cpu_s;
  round.ctx = static_cast<double>(after.ctx_switches - before.ctx_switches);
  round.rss_mb = after.peak_rss_mb;
  round.low = latencies_us(kLow);
  round.high = latencies_us(kHigh);
  round.slices = slice_rates(phase_start_[kMax], phase_end_[kMax]);
  return true;
}

void WireRun::run() {
  const WireSpec& spec = world_.spec;
  cpus_.pin_generator();
  // Each round is the same rollout on a fresh serverd: its set-ups give
  // the median setup_s, and the timed samples of the reported rounds are
  // pooled, so one server process (thread placement, memory layout) or
  // one stretch of host noise weighs on a fifth of them, not all.  The
  // host's hypervisor steals CPU in waves; a round during which it stole
  // more than max_steal measures the host, so it is repeated, up to
  // max_rounds rounds in all.
  std::vector<Round> rounds;
  std::vector<std::uint64_t> server_fps;
  int quiet = 0;
  while (quiet < spec.rounds && static_cast<int>(rounds.size()) < spec.max_rounds) {
    Round round;
    if (!run_round(round, server_fps)) return;
    quiet += round.steal <= spec.max_steal ? 1 : 0;
    say("round %zu: %.1f%% of the host's CPU time stolen; set-up %.3f s, "
        "p50 %.1f / %.1f us, closed loop %.0f req/s",
        rounds.size() + 1, round.steal * 100, round.setup_s,
        median(round.low), median(round.high),
        static_cast<double>(round.closed) / round.closed_s);
    rounds.push_back(std::move(round));
  }
  // The first `rounds` quiet rounds; if the host stayed noisy, the
  // `rounds` rounds with the least steal.
  std::vector<std::size_t> pick(rounds.size());
  std::iota(pick.begin(), pick.end(), std::size_t{0});
  std::stable_sort(pick.begin(), pick.end(), [&](std::size_t a, std::size_t b) {
    const auto noise = [&](std::size_t i) {
      return rounds[i].steal <= spec.max_steal ? 0.0 : rounds[i].steal;
    };
    return noise(a) < noise(b);
  });
  pick.resize(static_cast<std::size_t>(spec.rounds));

  std::vector<double> setup_s, low, high, slices;
  std::uint64_t timed_n = 0, replies = 0, recv_calls = 0, closed = 0;
  double timed_s = 0, closed_s = 0, cpu_s = 0, ctx = 0, rss_mb = 0,
         probe_ms = 0;
  for (const std::size_t i : pick) {
    const Round& r = rounds[i];
    setup_s.push_back(r.setup_s);
    low.insert(low.end(), r.low.begin(), r.low.end());
    high.insert(high.end(), r.high.begin(), r.high.end());
    slices.insert(slices.end(), r.slices.begin(), r.slices.end());
    timed_n += r.timed;
    closed += r.closed;
    closed_s += r.closed_s;
    replies += r.replies;
    recv_calls += r.recv_calls;
    timed_s += r.timed_s;
    cpu_s += r.cpu_s;
    ctx += r.ctx;
    rss_mb = std::max(rss_mb, r.rss_mb);
    probe_ms = std::max(probe_ms, r.probe_ms);
  }

  // The closed loop's rate falls as the tables grow (every install costs
  // more), so the rate over the whole loop, summed over the rounds, is
  // the figure; the median time slice is a reference.
  const double rate = static_cast<double>(closed) / closed_s;
  const double t = static_cast<double>(std::max<std::uint64_t>(timed_n, 1));
  res_.metric("setup_s", median(setup_s), "s");
  res_.metric("max_rate_rps", rate, "1/s");
  res_.metric("p50_us_low", median(low), "us");
  res_.metric("p50_us_high", median(high), "us");
  res_.metric("events_per_s", static_cast<double>(timed_n) / timed_s, "1/s");
  res_.metric("peak_rss_mb", rss_mb, "MiB");
  say("wire: setup %.3f s (median of %d), closed loop %.0f req/s, "
      "open loop p50 %.1f us @ %.0f/s, %.1f us @ %.0f/s",
      median(setup_s), spec.rounds, rate, median(low), spec.rate_low,
      median(high), spec.rate_high);
  say("reference: %zu rounds run, %zu of them repeated for more than %.0f%% "
      "steal",
      rounds.size(), rounds.size() - static_cast<std::size_t>(quiet),
      spec.max_steal * 100);
  say("reference: open_low %s; open_high %s; serverd cpu %.2f us/req; "
      "median closed-loop slice %.0f req/s",
      tail_figure(low, "us").c_str(), tail_figure(high, "us").c_str(),
      cpu_s * 1e6 / t, median(slices));
  say("reference: %u keys installed, %llu timed packet-ins in %.2f s "
      "over %d server processes",
      world_.num_keys, static_cast<unsigned long long>(timed_n), timed_s,
      spec.rounds);
  say("reference: the stats probe (which recompacts serverd) took %.1f ms",
      probe_ms);

  cpus_.unpin();  // the in-process replays use every CPU
  replay_and_check(server_fps);

  if (o_.trace) {
    wire_.cpu_us_per_req = cpu_s * 1e6 / t;
    wire_.ctx_per_req = ctx / t;
    wire_.p50_low = median(low);
    wire_.p50_high = median(high);
    replies_per_recv_ = static_cast<double>(replies) /
                        static_cast<double>(std::max<std::uint64_t>(recv_calls, 1));
    add_wire_spans();
    traced_replays();
    const std::string path = o_.out_dir + "/" + o_.workload + ".trace.json";
    res_.check(spans_.write(path), "cannot write " + path);
    say("trace: %zu spans written to %s", spans_.size(), path.c_str());
  }
}

void WireRun::add_wire_spans() {
  for (int p = kLow; p < kPhases; ++p) {
    const std::uint32_t parent = spans_.add(
        kPhaseNames[p], phase_start_[p], phase_end_[p], SpanLog::kNoParent,
        0, /*per_request=*/false);
    for (std::size_t i = 0; i < recs_.size(); ++i) {
      if (recs_[i].phase == p && recs_[i].done != 0)
        spans_.add("wire.packet_in", recs_[i].due, recs_[i].done, parent, i);
    }
  }
}

// The in-process replay every run makes: the keys the workload sent, in
// send order, installed one by one on a shard brain's core controller
// (online Algorithm 1 for the workload's own arrival order), then
// checked, counted and canonically fingerprinted.
void WireRun::replay_and_check(const std::vector<std::uint64_t>& server_fps) {
  const CellularTopology& topo = world_.topo;
  ShardBrain brain(topo, world_.policy, brain_options());
  world_.provision(brain);
  Controller& core = brain.core();
  CoreReplay replay;
  replay.before = core.agg_perf();
  const std::uint32_t root = spans_.open("replay.core");
  const std::vector<std::uint32_t>& order = stream_->order();
  std::vector<std::uint16_t> tag(world_.num_keys, kNoTag);
  for (const std::uint32_t q : order) {
    const std::int64_t a = now_ns();
    tag[q] = core.request_policy_path(q / kClauses,
                                      world_.clauses[q % kClauses])
                 .value();
    const std::int64_t b = now_ns();
    replay.install_us.push_back(static_cast<double>(b - a) / 1e3);
    spans_.add("core.request_policy_path", a, b, root, q);
  }
  spans_.close(root);
  replay.after = core.agg_perf();
  brain.committer().publish_view();
  replay.online = fabric_rules(core.engine());
  replay.tags_in_use = core.engine().tags_in_use();
  const FabricRules& online = replay.online;

  // serverd installed the set-up keys in send order, as the replay did,
  // so it must have replied the replay's tags; their walks use the tag
  // serverd replied.  Later keys reached serverd over several pipelined
  // connections, in an order the generator cannot observe, so their
  // walks use the replay's own tag.
  std::vector<std::uint16_t> walk_tag = tag;
  std::size_t tag_mismatches = 0;
  for (const auto& served : setup_tags_) {
    for (std::size_t i = 0; i < served.size(); ++i) {
      tag_mismatches += served[i] == tag[order[i]] ? 0 : 1;
      walk_tag[order[i]] = served[i];
    }
  }
  res_.check(tag_mismatches == 0,
             std::to_string(tag_mismatches) +
                 " set-up replies carry another tag than the in-process "
                 "replay gave the same key in the same order");

  // Every installed key: the probe walk follows the path in both
  // directions, and the selected instances have the clause's middlebox
  // types in order.  The summed fabric hops bound the rule count from
  // above (no aggregation at all).
  std::size_t hop_bound = 0, bad_walks = 0, bad_types = 0;
  for (const std::uint32_t q : order) {
    const std::uint32_t bs = q / kClauses;
    const ClauseId cid = world_.clauses[q % kClauses];
    const std::vector<NodeId> inst = core.select_instances(bs, cid);
    const auto& want = world_.policy.clause(cid).action.middleboxes;
    bool types_ok = inst.size() == want.size();
    for (std::size_t i = 0; types_ok && i < inst.size(); ++i)
      types_ok = topo.graph().node(inst[i]).aux == want[i];
    bad_types += types_ok ? 0 : 1;
    for (const Direction dir : {Direction::kUplink, Direction::kDownlink}) {
      const ExpandedPath path = expand_policy_path(
          topo.graph(), core.routes(), dir, topo.access_switch(bs), inst,
          topo.gateway(), topo.internet());
      hop_bound += path.fabric.size();
      if (!core.engine()
               .walk(path, PolicyTag(walk_tag[q]), topo.bs_prefix(bs))
               .ok)
        ++bad_walks;
    }
  }
  res_.check(bad_walks == 0, std::to_string(bad_walks) +
                                 " probe walks left their policy path");
  res_.check(bad_types == 0,
             std::to_string(bad_types) +
                 " paths selected instances of the wrong middlebox types");
  res_.check(online.total <= hop_bound,
             "fabric rules " + std::to_string(online.total) +
                 " exceed the no-aggregation bound " +
                 std::to_string(hop_bound));

  const Controller::MemoryFootprint mem = core.memory_footprint();
  std::uint64_t shard_bytes = 0;
  for (std::size_t i = 0; i < brain.shard_count(); ++i)
    shard_bytes += brain.shard(i).store_primary_bytes_resident();
  const double ues = world_.num_keys;

  const std::uint64_t replay_fp = brain.canonical_fingerprint();
  for (const std::uint64_t fp : server_fps)
    res_.check(fp == replay_fp, "serverd fingerprint " + std::to_string(fp) +
                                    " != in-process replay " +
                                    std::to_string(replay_fp));
  replay.compact = fabric_rules(core.engine());

  res_.metric("core_rules", static_cast<double>(online.total), "rules");
  res_.metric("max_switch_rules", static_cast<double>(online.max), "rules");
  res_.metric("ctrl_bytes_per_ue",
              static_cast<double>(mem.store_primary + mem.path_maps +
                                  shard_bytes) /
                  ues,
              "B");
  report_core_replay(replay, res_);
  res_.metric("mem.ctrl_store_bytes_per_ue",
              static_cast<double>(mem.store_primary) / ues, "B");
  res_.metric("mem.shard_store_bytes_per_ue",
              static_cast<double>(shard_bytes) / ues, "B");
  res_.metric("mem.ctrl_path_bytes", static_cast<double>(mem.path_maps), "B");
  say("replay: %zu keys, %zu fabric rules online (max %zu in one switch), "
      "%zu after recompact (max %zu), %zu tags, no-aggregation bound %zu",
      order.size(), online.total, online.max, replay.compact.total,
      replay.compact.max, replay.tags_in_use, hop_bound);
}

// The traced run's in-process replays of the same streams: through the
// runtime at the same rates, directly on a shard brain, and through the
// codec.  The replay on a core controller is replay_and_check's.
void WireRun::traced_replays() {
  const std::size_t n = recs_.size();
  const auto request_of = [&](std::size_t i) {
    const Rec& r = recs_[i];
    Request req;
    req.ue = UeId(r.key + 1);
    req.bs = r.key / kClauses;
    if (r.kind == 1) {
      req.kind = RequestKind::kPolicyPath;
      req.clause = world_.clauses[r.key % kClauses];
    }
    return req;
  };

  // (a) ControlPlaneRuntime::post at the wire's own schedule.
  double rt_p50[2] = {0, 0};
  double coalesced = 0, publishes = 0, depth = 0;
  {
    ShardBrain brain(world_.topo, world_.policy,
                     brain_options());
    world_.provision(brain);
    const std::uint64_t views0 = registry_counter("commit.view_publishes");
    const std::uint64_t ops0 = registry_counter("commit.ops");
    const std::uint64_t batches0 = registry_counter("commit.batches");
    // The wire rounds' CPU split: the runtime's workers (which inherit
    // their creator's CPUs) on serverd's CPUs, kept from halting by the
    // spinners, and the posting thread alone on the generator's.
    if (cpus_.split)
      ::sched_setaffinity(0, sizeof cpus_.server, &cpus_.server);
    ControlPlaneRuntime rt(brain,
                           {.workers = kWorkers, .queue_capacity = 8192});
    cpus_.pin_generator();
    const IdleSpinners spinners(cpus_.server);
    std::vector<std::int64_t> done(n, 0), due(n, 0);
    const auto post = [&](std::size_t i) {
      Request req = request_of(i);
      req.done = [&done, i](Response&&) { done[i] = now_ns(); };
      due[i] = std::max(due[i], now_ns());
      if (!rt.post(std::move(req))) res_.error("runtime refused a post");
    };
    for (std::size_t i = 0; i < n; ++i)
      if (recs_[i].phase == kSetup) post(i);
    rt.drain();
    for (const Phase p : {kLow, kHigh}) {
      const std::uint32_t root =
          spans_.open(p == kLow ? "runtime.open_low" : "runtime.open_high");
      const std::int64_t t0 = now_ns() + 1'000'000;
      std::vector<double> lat;
      std::vector<std::size_t> idx;
      for (std::size_t i = 0; i < n; ++i) {
        if (recs_[i].phase != p) continue;
        due[i] = t0 + (recs_[i].due - phase_start_[p]);
        while (now_ns() < due[i]) {
        }  // busy-waits, as the generator does
        post(i);
        idx.push_back(i);
      }
      rt.drain();
      spans_.close(root);
      for (const std::size_t i : idx) {
        lat.push_back(static_cast<double>(done[i] - due[i]) / 1e3);
        spans_.add("runtime.post", due[i], done[i], root, i);
      }
      rt_p50[p == kLow ? 0 : 1] = median(lat);
    }
    coalesced = static_cast<double>(rt.metrics().coalesced_misses);
    publishes =
        static_cast<double>(registry_counter("commit.view_publishes") - views0);
    const double batches =
        static_cast<double>(registry_counter("commit.batches") - batches0);
    depth = batches > 0
                ? static_cast<double>(registry_counter("commit.ops") - ops0) /
                      batches
                : 0;
  }
  cpus_.unpin();

  // (b) Direct single-thread calls on a shard brain: the keys through
  // request_policy_path (commit stage), then the verification pass's
  // reads.
  std::vector<double> brain_install_us(world_.num_keys, 0);
  std::vector<double> commit_us;
  {
    ShardBrain brain(world_.topo, world_.policy,
                     brain_options());
    world_.provision(brain);
    const std::uint32_t root = spans_.open("replay.brain");
    for (const std::uint32_t q : stream_->order()) {
      const std::int64_t a = now_ns();
      (void)brain.request_policy_path(UeId(q + 1), q / kClauses,
                                      world_.clauses[q % kClauses]);
      const std::int64_t b = now_ns();
      commit_us.push_back(static_cast<double>(b - a) / 1e3);
      brain_install_us[q] = commit_us.back();
      spans_.add("brain.request_policy_path", a, b, root, q);
    }
    spans_.close(root);
    std::vector<double> fetch, warm;
    for (const Rec& r : recs_) {
      if (r.phase != kVerify) continue;
      const std::int64_t a = now_ns();
      if (r.kind == 0) {
        (void)brain.fetch_classifiers(UeId(r.key + 1), r.key / kClauses);
      } else {
        (void)brain.request_policy_path(UeId(r.key + 1), r.key / kClauses,
                                        world_.clauses[r.key % kClauses]);
      }
      (r.kind == 0 ? fetch : warm).push_back(static_cast<double>(now_ns() - a));
    }
    res_.metric("ctrl.fetch_ns", median(fetch), "ns");
    res_.metric("ctrl.warm_path_ns", median(warm), "ns");
  }
  // The low phase's service time: each request is an install, timed
  // directly on the brain.
  std::vector<double> service_us;
  for (const Rec& r : recs_)
    if (r.phase == kLow) service_us.push_back(brain_install_us[r.key]);

  // (d) The ofp codec over the workload's own request and reply frames.
  double enc_ns = 0, dec_ns = 0;
  {
    std::vector<ofp::PacketInMsg> msgs;
    for (std::size_t i = 0; i < n && msgs.size() < 100'000; ++i)
      msgs.push_back(world_.msg(i, recs_[i]));
    const double frames =
        static_cast<double>(msgs.size() + reply_sample_.size());
    std::vector<std::uint8_t> buf;
    buf.reserve(static_cast<std::size_t>(frames) * ofp::kPacketInSize);
    std::vector<double> enc, dec;
    std::uint64_t mismatches = 0;
    for (int pass = 0; pass < 5; ++pass) {
      buf.clear();
      std::int64_t a = now_ns();
      for (const auto& m : msgs) ofp::encode_packet_in_into(buf, m);
      for (const auto& r : reply_sample_) ofp::encode_packet_in_reply_into(buf, r);
      enc.push_back(static_cast<double>(now_ns() - a) / frames);
      a = now_ns();
      std::size_t at = 0;
      for (const auto& m : msgs) {
        const auto d = ofp::decode_packet_in({buf.data() + at, ofp::kPacketInSize});
        mismatches += d && *d == m ? 0 : 1;
        at += ofp::kPacketInSize;
      }
      for (const auto& r : reply_sample_) {
        const auto d = ofp::decode_packet_in_reply(
            {buf.data() + at, ofp::kPacketInReplySize});
        mismatches += d && d->xid == r.xid && d->digest == r.digest ? 0 : 1;
        at += ofp::kPacketInReplySize;
      }
      dec.push_back(static_cast<double>(now_ns() - a) / frames);
    }
    res_.check(mismatches == 0, "codec round trip changed a frame");
    enc_ns = median(enc);
    dec_ns = median(dec);
  }

  const auto [c_first, c_last] = eighths(commit_us);
  res_.metric("ofp.encode_ns", enc_ns, "ns");
  res_.metric("ofp.decode_ns", dec_ns, "ns");
  res_.metric("net.share_us_low", wire_.p50_low - rt_p50[0], "us");
  res_.metric("net.share_us_high", wire_.p50_high - rt_p50[1], "us");
  res_.metric("serverd.cpu_us_per_req", wire_.cpu_us_per_req, "us");
  res_.metric("serverd.ctx_switches_per_req", wire_.ctx_per_req, "count");
  res_.metric("gen.replies_per_recv", replies_per_recv_, "count");
  res_.metric("gen.lag_us_max", static_cast<double>(lag_max_ns_) / 1e3, "us");
  res_.metric("runtime.p50_us_low", rt_p50[0], "us");
  res_.metric("runtime.p50_us_high", rt_p50[1], "us");
  res_.metric("runtime.queue_us_low", rt_p50[0] - median(service_us), "us");
  res_.metric("runtime.coalesced", coalesced, "count");
  res_.metric("commit.install_us_first", c_first, "us");
  res_.metric("commit.install_us_last", c_last, "us");
  res_.metric("commit.view_publishes", publishes, "count");
  res_.metric("commit.batch_depth_mean", depth, "count");
  res_.metric("trace.p50_us_low", wire_.p50_low, "us");
  res_.metric("trace.p50_us_high", wire_.p50_high, "us");
  // Layers this workload does not exercise: no simulator, no agents.
  for (const char* name : {"sim.attach_us", "sim.flow_us", "sim.detach_us",
                           "sim.reattach_us", "sim.handoff_us"})
    res_.metric(name, 0, "us");
  res_.metric("sim.timer_fire_ns", 0, "ns");
  res_.metric("sim.queue_ns_per_event", 0, "ns");
  res_.metric("mem.agent_bytes_per_ue", 0, "B");
}

}  // namespace

void run_wire(const Options& options, Result& result) {
  WireRun run(options, result);
  run.run();
}

}  // namespace perfbench
