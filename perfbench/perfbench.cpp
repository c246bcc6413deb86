// perfbench -- one run of one workload of the end-to-end benchmark.
//
//   perfbench --workload <rollout_wire|ue_day> --seed N
//             --seconds S --trace 0|1 --serverd PATH --out-dir DIR
//             [--smoke] [--corrupt <fault>]
//
// Prints human-readable lines, then one JSON line with the run's
// correctness, attempted and failed operation counts and every metric it
// measured.  run.py (next to this file) builds this binary and turns that
// line into the benchmark's result.  --corrupt injects one fault into the
// observed outputs so the benchmark's own tests can show each check
// rejecting it: wrong_digest, two_tags, missing_reply, fingerprint,
// served_tag, event_count.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : "";
    if (a == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", a.c_str());
      return 2;
    }
    ++i;
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") o.seconds = std::strtod(v, nullptr);
    else if (a == "--trace") o.trace = std::strcmp(v, "0") != 0;
    else if (a == "--serverd") o.serverd = v;
    else if (a == "--out-dir") o.out_dir = v;
    else if (a == "--corrupt") o.corrupt = v;
    else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", a.c_str());
      return 2;
    }
  }
  if (o.seconds <= 0 || o.out_dir.empty()) {
    std::fprintf(stderr, "perfbench: need --seconds > 0 and --out-dir\n");
    return 2;
  }
  perfbench::Result result;
  if (o.workload == "rollout_wire") {
    perfbench::run_wire(o, result);
  } else if (o.workload == "ue_day") {
    perfbench::run_day(o, result);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  std::printf("%s\n", result.json().c_str());
  return result.errors.empty() ? 0 : 1;
}
