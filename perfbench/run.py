#!/usr/bin/env python3
"""One run of the SoftCell end-to-end benchmark.

    python3 perfbench/run.py --workload <rollout_wire|ue_day>
                             --seed N --seconds S --trace 0|1
                             [--smoke] [--corrupt FAULT]

Run from the root of a checkout.  Builds softcell-serverd and the
benchmark driver from source (perfbench/CMakeLists.txt, into
$CARGO_TARGET_DIR or .bench_build), runs one workload, and prints as its
last stdout line one JSON object with the keys correct, attempted, failed
and metrics.  With --trace 0 the metrics are BENCHMARK.json's end_to_end
list, with --trace 1 its per_layer list; each workload reports 0 itself
for a layer it does not exercise, and a listed metric the driver did not
print makes the run incorrect.  Exits 0 only when every check passed.

--smoke shrinks every input (the benchmark's own tests use it); --corrupt
injects one fault into the observed outputs so a test can show that a
check rejects it.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("rollout_wire", "ue_day")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds; returns the build directory."""
    if not os.path.exists(os.path.join(HERE, os.pardir, "src",
                                       "CMakeLists.txt")):
        sys.stderr.write("perfbench: no SoftCell sources next to %s\n" % HERE)
        return None
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    make = ["cmake", "--build", build_dir, "--target", "perfbench_all",
            "-j", str(os.cpu_count() or 1)]
    # The compiler's scratch files stay inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
    with open(log_path, "a") as log:
        configured = os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
        for _ in range(2):
            if not configured:
                if subprocess.run(configure, stdout=log, stderr=log,
                                  env=env).returncode:
                    break
                configured = True
            if subprocess.run(make, stdout=log, stderr=log,
                              env=env).returncode == 0:
                return build_dir
            configured = False  # a stale cache: configure afresh once
    sys.stderr.write("perfbench: build failed, see %s\n" % log_path)
    with open(log_path) as log:
        sys.stderr.write("".join(log.readlines()[-20:]))
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if build(build_dir) is None:
        return 1
    out_dir = os.path.abspath(".bench_out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serverd", os.path.join(build_dir, "apps", "softcell-serverd"),
           "--out-dir", out_dir]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        sys.stderr.write("perfbench: the driver printed no result "
                         "(exit %d)\n" % proc.returncode)
        return 1
    for line in lines[:-1]:
        print(line)

    measured = raw["metrics"]
    correct = raw["correct"] and proc.returncode == 0
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            sys.stderr.write("perfbench: metric %s missing or in the wrong "
                             "unit\n" % m["name"])
            correct = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    last_path = os.path.join(out_dir, args.workload + ".last.json")
    if args.trace:
        # The cost of tracing: this run's latencies next to the last
        # untraced run's on the same workload.
        try:
            with open(last_path) as f:
                untraced = json.load(f)
        except (OSError, ValueError):
            untraced = {}
        for name in ("p50_us_low", "p50_us_high"):
            traced = measured.get("trace." + name, {}).get("value")
            before = untraced.get(name, {}).get("value")
            print("tracing cost: %s traced %s us, untraced %s us" % (
                name, "%.1f" % traced if traced is not None else "n/a",
                "%.1f" % before if before is not None else "n/a"))
    elif correct:
        with open(last_path, "w") as f:
            json.dump(metrics, f)

    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
