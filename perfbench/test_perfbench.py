#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py      (from the root of a checkout)

A smoke run of every workload (small inputs, all checks, both modes), and
negative runs that inject one fault into the observed outputs and must be
rejected: a wrong classifier digest, two tags for one key, a missing
reply, a mismatched fingerprint, a served set-up tag that is not the
replay's, and a wrong event count.  The last test runs the benchmark in a
directory that holds only BENCHMARK.json and perfbench/, where it must
fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")

# Per-layer metrics of layers a workload does not exercise (README.md);
# they must read 0, and every other per-layer metric must not.
NOT_EXERCISED = {
    "rollout_wire": ("sim.", "mem.agent_bytes_per_ue",
                     # every key is requested once, before it is
                     # installed, so no request waits on another's miss
                     "runtime.coalesced"),
    "ue_day": ("ofp.", "net.", "serverd.", "gen.", "runtime."),
}


def run(workload, trace=0, corrupt="", cwd=ROOT, seed=3):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    return proc, result


class Smoke(unittest.TestCase):
    def test_every_workload_passes_its_checks(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for w in spec["workloads"]:
            for trace, listed in ((0, spec["end_to_end"]),
                                  (1, spec["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    proc, result = run(w["name"], trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]),
                                     {m["name"] for m in listed})
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)
                    else:
                        for name, m in result["metrics"].items():
                            if name.startswith(NOT_EXERCISED[w["name"]]):
                                self.assertEqual(m["value"], 0, name)
                            else:
                                self.assertNotEqual(m["value"], 0, name)
                        span_file = os.path.join(
                            ROOT, ".bench_out", w["name"] + ".trace.json")
                        with open(span_file) as f:
                            self.assertTrue(json.load(f)["traceEvents"])


class ChecksRejectCorruptedOutput(unittest.TestCase):
    CASES = [
        ("rollout_wire", "wrong_digest"),
        ("rollout_wire", "two_tags"),
        ("rollout_wire", "missing_reply"),
        ("rollout_wire", "fingerprint"),
        ("rollout_wire", "served_tag"),
        ("ue_day", "event_count"),
    ]

    def test_each_fault_is_rejected(self):
        for workload, fault in self.CASES:
            with self.subTest(workload=workload, fault=fault):
                proc, result = run(workload, corrupt=fault)
                self.assertNotEqual(proc.returncode, 0)
                self.assertIsNotNone(result)
                self.assertFalse(result["correct"])
                self.assertIn("CHECK FAILED", proc.stderr)


class WithoutTheProgram(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", "ue_day", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
