#!/usr/bin/env python3
"""Tests for tools/softcell_lint.py (softcell-verify Part B).

Two halves, mirroring the linter's contract:
  * every rule FIRES on its known-bad fixture in tools/lint_fixtures/
    (so a regression that silently disables a rule is caught), and
  * the linter stays SILENT on src/ (so the tree keeps the invariants and
    the tier-1 `static` stage keeps passing).

Pure stdlib (unittest + subprocess); registered with ctest as
`lint.fixtures_and_src`.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LINT = REPO / "tools" / "softcell_lint.py"
FIXTURES = REPO / "tools" / "lint_fixtures"


def run_lint(*args):
    return subprocess.run(
        [sys.executable, str(LINT), *args],
        capture_output=True, text=True, cwd=REPO)


class FixtureCorpus(unittest.TestCase):
    """Each rule must fire on its fixture, at the expected locations."""

    @classmethod
    def setUpClass(cls):
        with tempfile.TemporaryDirectory() as tmp:
            report = Path(tmp) / "report.json"
            cls.proc = run_lint(str(FIXTURES), "--report", str(report),
                                "--suppressions", "/dev/null")
            cls.report = json.loads(report.read_text())
        cls.findings = cls.report["findings"]
        cls.by_rule = {}
        for f in cls.findings:
            cls.by_rule.setdefault(f["rule"], []).append(f)

    def test_exit_code_signals_findings(self):
        self.assertEqual(self.proc.returncode, 1, self.proc.stderr)

    def test_report_is_machine_readable(self):
        self.assertEqual(self.report["version"], 2)
        self.assertEqual(self.report["files_scanned"], 11)
        self.assertEqual(self.report["stale_suppressions"], [])
        for f in self.findings:
            for key in ("rule", "path", "line", "message", "snippet"):
                self.assertIn(key, f)

    def assert_fires(self, rule, path_part, count):
        hits = [f for f in self.by_rule.get(rule, [])
                if path_part in f["path"]]
        self.assertEqual(
            len(hits), count,
            f"{rule} on {path_part}: expected {count} findings, got "
            f"{json.dumps(hits, indent=2)}")

    def test_epoch_bump_fires(self):
        # Two naked mutations; the note_tag-paired and tier controls stay
        # silent.
        self.assert_fires("epoch-bump", "dataplane_bad_epoch_bump", 2)

    def test_naked_mutex_fires(self):
        # std::mutex, std::condition_variable, std::lock_guard; the
        # comment/string controls stay silent.
        self.assert_fires("naked-mutex", "bad_naked_mutex", 3)

    def test_hotpath_blocking_fires(self):
        # Lock + sleep + unordered_map inside the region, plus the
        # never-closed region; the outside-the-region control stays silent.
        self.assert_fires("hotpath-blocking", "bad_hotpath", 4)

    def test_naked_rand_fires(self):
        # random_device, mt19937, srand, rand; 'operand' stays silent.
        self.assert_fires("naked-rand", "bad_naked_rand", 4)

    def test_iostream_write_fires(self):
        # cout, cerr, printf; the ostringstream control stays silent.
        self.assert_fires("iostream-write", "bad_iostream", 3)

    def test_metrics_direct_fires(self):
        # ++, +=, postfix --, whole-struct reset; reads, comparisons and
        # the comment/string controls stay silent.
        self.assert_fires("metrics-direct", "bad_metrics_direct", 4)

    def test_controller_construct_fires(self):
        # Stack () and {}, new, make_unique, make_shared; the reference,
        # pointer, affixed-type and string controls stay silent.
        self.assert_fires("controller-construct", "bad_controller_construct",
                          5)

    def test_cross_shard_direct_fires(self):
        # Member and accessor receivers, install / install_ue_shortcut /
        # remove; the remove_listener, lookup, comment and string controls
        # stay silent.
        self.assert_fires("cross-shard-direct", "bad_cross_shard_direct", 4)

    def test_node_map_hotpath_fires(self):
        # unordered_map/map keyed by UeId, FlowKey, LocalUeId and
        # PublicEndpoint, despite the fixture's old exemption marker (the
        # rule has none); the slab-container, off-key, comment and string
        # controls stay silent.
        self.assert_fires("node-map-hotpath", "agent_bad_node_map_hotpath",
                          4)

    def test_raw_socket_fires(self):
        # Two socket system headers plus the five global-scope syscalls;
        # the qualified-name, member-call, comment and string controls stay
        # silent.
        self.assert_fires("raw-socket", "bad_raw_socket", 7)

    def test_stale_owner_markers_fire(self):
        # A file-wide owner marker that exempts no diagnostics is itself a
        # finding, one per marker line (metrics-owner, commit-owner), at the
        # marker's location.
        stale = [f for f in self.findings
                 if "stale_owner_marker" in f["path"]]
        self.assertEqual(
            sorted(f["rule"] for f in stale),
            ["cross-shard-direct", "metrics-direct"],
            json.dumps(stale, indent=2))
        for f in stale:
            self.assertIn("stale sc-lint marker", f["message"])

    def test_live_owner_marker_stays_silent(self):
        # src/core/engine.cpp carries metrics-owner AND mutates AggPerf:
        # the marker is load-bearing, so neither the exempted findings nor
        # a stale-marker diagnostic may surface.
        proc = run_lint(str(REPO / "src" / "core" / "engine.cpp"),
                        "--suppressions", "/dev/null")
        self.assertEqual(proc.returncode, 0,
                         f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}")

    def test_no_cross_contamination(self):
        # No rule fires on another rule's fixture (each bad file isolates
        # one failure class).
        fixture_of = {
            "epoch-bump": "epoch_bump",
            "naked-mutex": "naked_mutex",
            "hotpath-blocking": "hotpath",
            "naked-rand": "naked_rand",
            "iostream-write": "iostream",
            "metrics-direct": "metrics_direct",
            "controller-construct": "controller_construct",
            "cross-shard-direct": "cross_shard_direct",
            "node-map-hotpath": "node_map_hotpath",
            "raw-socket": "raw_socket",
        }
        for f in self.findings:
            if "stale sc-lint marker" in f["message"]:
                # Stale-marker diagnostics reuse the exempted rule's name
                # and live in the dedicated stale-marker fixture.
                self.assertIn("stale_owner_marker", Path(f["path"]).stem)
                continue
            self.assertIn(
                fixture_of[f["rule"]],
                Path(f["path"]).stem,
                f"unexpected {f['rule']} finding in {f['path']}")


class SourceTreeClean(unittest.TestCase):
    """src/ must lint clean -- the same invocation tier1.sh runs."""

    def test_src_is_clean(self):
        proc = run_lint(str(REPO / "src"))
        self.assertEqual(proc.returncode, 0,
                         f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}")

    def test_suppression_file_is_well_formed(self):
        # Malformed or justification-free entries must hard-fail (exit 2),
        # so the committed file is validated by loading it.
        sup = REPO / "tools" / "lint_suppressions.txt"
        self.assertTrue(sup.exists(), "suppression file missing")
        proc = run_lint(str(REPO / "src"), "--suppressions", str(sup))
        self.assertIn(proc.returncode, (0, 1), proc.stderr)

    def test_malformed_suppression_rejected(self):
        with tempfile.TemporaryDirectory() as tmp:
            bad = Path(tmp) / "sup.txt"
            bad.write_text("naked-mutex src/foo.cpp:10\n")  # no justification
            proc = run_lint(str(REPO / "src"), "--suppressions", str(bad))
            self.assertEqual(proc.returncode, 2, proc.stderr)

    def test_suppression_actually_suppresses(self):
        fixture = FIXTURES / "bad_iostream.cpp"
        with tempfile.TemporaryDirectory() as tmp:
            # Reproduce the three findings, suppress them all, expect clean.
            report = Path(tmp) / "r.json"
            run_lint(str(fixture), "--report", str(report),
                     "--suppressions", "/dev/null")
            findings = json.loads(report.read_text())["findings"]
            self.assertEqual(len(findings), 3)
            sup = Path(tmp) / "sup.txt"
            sup.write_text("".join(
                f"{f['rule']} {f['path']}:{f['line']} fixture exercised by "
                "test_lint.py\n" for f in findings))
            proc = run_lint(str(fixture), "--suppressions", str(sup))
            self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_stale_suppression_fails(self):
        # An entry whose target file was scanned but which matches no
        # diagnostic is a hard failure, not a note.
        fixture = FIXTURES / "bad_iostream.cpp"
        with tempfile.TemporaryDirectory() as tmp:
            report = Path(tmp) / "r.json"
            run_lint(str(fixture), "--report", str(report),
                     "--suppressions", "/dev/null")
            findings = json.loads(report.read_text())["findings"]
            sup = Path(tmp) / "sup.txt"
            sup.write_text("".join(
                f"{f['rule']} {f['path']}:{f['line']} fixture exercised by "
                "test_lint.py\n" for f in findings) +
                f"iostream-write {findings[0]['path']}:9999 gone\n")
            proc = run_lint(str(fixture), "--report", str(report),
                            "--suppressions", str(sup))
            self.assertEqual(proc.returncode, 1, proc.stdout)
            self.assertIn("stale-suppression:", proc.stdout)
            stale = json.loads(report.read_text())["stale_suppressions"]
            self.assertEqual(stale, [{"rule": "iostream-write",
                                      "path": findings[0]["path"],
                                      "line": 9999}])

    def test_out_of_scope_suppression_tolerated(self):
        # Entries pointing at files NOT scanned in this invocation are left
        # alone -- single-file runs must not false-fail on the rest of the
        # committed table.
        fixture = FIXTURES / "bad_iostream.cpp"
        with tempfile.TemporaryDirectory() as tmp:
            report = Path(tmp) / "r.json"
            run_lint(str(fixture), "--report", str(report),
                     "--suppressions", "/dev/null")
            findings = json.loads(report.read_text())["findings"]
            sup = Path(tmp) / "sup.txt"
            sup.write_text("".join(
                f"{f['rule']} {f['path']}:{f['line']} fixture exercised by "
                "test_lint.py\n" for f in findings) +
                "naked-mutex src/not/scanned.cpp:10 other file\n")
            proc = run_lint(str(fixture), "--suppressions", str(sup))
            self.assertEqual(proc.returncode, 0,
                             f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}")


if __name__ == "__main__":
    unittest.main(verbosity=2)
