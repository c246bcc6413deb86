// Shared pieces of the end-to-end benchmark: clocks, exact order
// statistics, the result record printed as the last stdout line, the
// in-memory span log of the traced run, and /proc readers for a child
// process.  Everything here is benchmark code; the program under test is
// only ever called through its public headers.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Exact order statistics over per-sample values (nearest rank on a copy).
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

// The highest percentile that still has at least ten samples beyond it,
// rendered as "p99 = 812.3 us (n=41234)" -- a reference figure, not a
// metric.
[[nodiscard]] std::string tail_figure(const std::vector<double>& v,
                                      const char* unit);

// One run's outcome.  Metrics keep insertion order; errors make the run
// incorrect.  `corrupt` names the negative-test fault to inject into the
// observed outputs before the checks run (empty in normal runs).
struct Result {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void metric(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  }
  void error(const std::string& what);
  // `ok` false records `what` as a failed check.
  void check(bool ok, const std::string& what) {
    if (!ok) error(what);
  }
  [[nodiscard]] std::string json() const;
};

// Human-readable line on stdout (everything but the final JSON line).
void say(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Spans of the traced run: name, start, end, parent span and request id,
// kept in memory and written out as a Chrome trace when the run ends.
// Disabled logs record nothing.  Per-request spans are capped per span
// name so a long run cannot exhaust memory; phase spans are always kept.
class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = ~0u;

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }

  // Starts a phase-level span (always kept); close() sets its end.
  std::uint32_t open(const char* name, std::uint32_t parent = kNoParent) {
    return add(name, now_ns(), 0, parent, 0, /*per_request=*/false);
  }
  void close(std::uint32_t id) {
    if (id < spans_.size()) spans_[id].end_ns = now_ns();
  }
  // Records a finished span and returns its id (kNoParent when dropped).
  std::uint32_t add(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint32_t parent,
                    std::uint64_t request, bool per_request = true);
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t parent;
    std::uint64_t request;
  };
  static constexpr std::size_t kMaxSpansPerName = 100'000;

  bool enabled_;
  std::map<const char*, std::size_t> per_name_;  // names are literals
  std::vector<Span> spans_;
};

// Command-line options of one run (see perfbench.cpp).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;       // small inputs: the benchmark's own tests
  std::string corrupt;      // negative test: fault to inject, or empty
  std::string serverd;      // path of the softcell-serverd binary
  std::string out_dir;      // port file, span file
};

// The workloads.  Each fills `result` and returns normally; failed checks
// are recorded in result.errors.
void run_wire(const Options& options, Result& result);
void run_day(const Options& options, Result& result);

// Counters of a live process, read from /proc.
struct ProcSample {
  double cpu_s = 0;              // user + system, all threads
  std::uint64_t ctx_switches = 0;  // voluntary + involuntary, all threads
  double peak_rss_mb = 0;        // VmHWM
};
[[nodiscard]] ProcSample read_proc(pid_t pid);

}  // namespace perfbench
