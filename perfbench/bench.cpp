#include "bench.hpp"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size() - 1),
                       std::floor(q * static_cast<double>(v.size()))));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

std::string tail_figure(const std::vector<double>& v, const char* unit) {
  char buf[128];
  const std::size_t n = v.size();
  for (const double p : {0.9999, 0.999, 0.99, 0.9}) {
    if (static_cast<double>(n) * (1.0 - p) >= 10.0) {
      std::snprintf(buf, sizeof buf, "p%g = %.1f %s (n=%zu)", p * 100,
                    quantile(v, p), unit, n);
      return buf;
    }
  }
  std::snprintf(buf, sizeof buf, "no tail (n=%zu)", n);
  return buf;
}

void Result::error(const std::string& what) {
  errors.push_back(what);
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

std::string Result::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (errors.empty() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(value, sizeof value, "%.17g", v);
    out << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
        << value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}, \"errors\": " << errors.size() << "}";
  return out.str();
}

void say(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

std::uint32_t SpanLog::add(const char* name, std::int64_t start_ns,
                           std::int64_t end_ns, std::uint32_t parent,
                           std::uint64_t request, bool per_request) {
  if (!enabled_) return kNoParent;
  if (per_request && per_name_[name]++ >= kMaxSpansPerName) return kNoParent;
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                 "\"parent\": %lld, \"request\": %llu}}",
                 i ? ",\n" : "", s.name,
                 static_cast<double>(s.start_ns - base) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

namespace {

std::uint64_t status_field(const std::string& path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0)
      return std::strtoull(line.c_str() + len, nullptr, 10);
  }
  return 0;
}

}  // namespace

ProcSample read_proc(pid_t pid) {
  ProcSample out;
  const std::string dir = "/proc/" + std::to_string(pid);
  {
    // utime and stime are fields 14 and 15; the command name (field 2)
    // may hold spaces, so count from the closing parenthesis.
    std::ifstream in(dir + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const auto close = stat.rfind(')');
    if (close != std::string::npos) {
      std::istringstream fields(stat.substr(close + 2));
      std::string field;
      unsigned long long utime = 0, stime = 0;
      for (int i = 3; fields >> field; ++i) {
        if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
        if (i == 15) {
          stime = std::strtoull(field.c_str(), nullptr, 10);
          break;
        }
      }
      out.cpu_s = static_cast<double>(utime + stime) /
                  static_cast<double>(sysconf(_SC_CLK_TCK));
    }
  }
  out.peak_rss_mb =
      static_cast<double>(status_field(dir + "/status", "VmHWM:")) / 1024.0;
  if (DIR* tasks = opendir((dir + "/task").c_str())) {
    while (const dirent* e = readdir(tasks)) {
      if (e->d_name[0] == '.') continue;
      const std::string st = dir + "/task/" + e->d_name + "/status";
      out.ctx_switches += status_field(st, "voluntary_ctxt_switches:") +
                          status_field(st, "nonvoluntary_ctxt_switches:");
    }
    closedir(tasks);
  }
  return out;
}

}  // namespace perfbench
