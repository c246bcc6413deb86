#!/usr/bin/env python3
"""Tests for tools/softcell_analyze.py (the PR 9 AST analyzer).

Three halves, mirroring test_lint.py's contract:
  * every checker FIRES on its known-bad fixture in
    tools/analyze_fixtures/ at the `// BAD`-marked lines, and stays
    SILENT on the paired clean fixture (fixture corpus);
  * the suppression machinery works and stale entries hard-fail
    (inline markers and the suppressions file);
  * the AST-dump cache is keyed on content (verified with a stub clang
    that logs its invocations), and a clang without JSON support makes
    the analyzer exit 3 (the tier1 SKIP convention), never 0.

The fixtures' AST dumps are produced by tools/analyze_fixtures/
make_asts.py, which anchors every location to the real fixture source
lines -- no clang needed.  When a clang++ WITH JSON AST support is on
PATH, an extra cross-check regenerates the dumps live and asserts the
same verdicts.

Pure stdlib (unittest + subprocess); registered with ctest as
`analyze.fixtures_and_unit`.
"""

import importlib.util
import json
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ANALYZE = REPO / "tools" / "softcell_analyze.py"
FIXTURES = REPO / "tools" / "analyze_fixtures"
MAKE_ASTS = FIXTURES / "make_asts.py"

FIXTURE_NAMES = [
    "bad_rvalue_snapshot", "clean_rvalue_snapshot",
    "bad_handle_mutation", "clean_handle_mutation",
    "bad_lock_cycle", "clean_lock_cycle",
]

CHECKER_OF = {
    "rvalue_snapshot": "rvalue-snapshot-deref",
    "handle_mutation": "handle-across-mutation",
    "lock_cycle": "lock-order-cycle",
}


def load_module():
    spec = importlib.util.spec_from_file_location("softcell_analyze", ANALYZE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def run_analyze(*args):
    return subprocess.run(
        [sys.executable, str(ANALYZE), *args],
        capture_output=True, text=True, cwd=REPO)


def make_dumps(out_dir, src_dir=None):
    cmd = [sys.executable, str(MAKE_ASTS), str(out_dir)]
    if src_dir is not None:
        cmd.append(str(src_dir))
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError(f"make_asts failed:\n{proc.stderr}")


def bad_lines(source: Path):
    """1-based lines carrying a `// BAD` marker."""
    return [i for i, text in enumerate(source.read_text().splitlines(), 1)
            if "// BAD" in text]


def fixture_args(dump_dir, name, src_dir=None):
    src = (Path(src_dir) if src_dir else FIXTURES) / f"{name}.cpp"
    return ["--ast", f"{src}={Path(dump_dir) / name}.ast.json",
            "--lock-order", os.devnull, "--suppressions", os.devnull]


class FixtureCorpus(unittest.TestCase):
    """Each checker fires on its bad fixture and passes its clean one."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.dumps = Path(cls.tmp.name)
        make_dumps(cls.dumps)
        cls.reports = {}
        cls.procs = {}
        for name in FIXTURE_NAMES:
            report = cls.dumps / f"{name}.report.json"
            cls.procs[name] = run_analyze(
                *fixture_args(cls.dumps, name), "--report", str(report))
            cls.reports[name] = json.loads(report.read_text())

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def assert_verdict(self, name, expect_findings):
        proc = self.reports and self.procs[name]
        findings = self.reports[name]["findings"]
        if expect_findings:
            self.assertEqual(proc.returncode, 1,
                             f"{name}: {proc.stdout}\n{proc.stderr}")
            self.assertTrue(findings, name)
        else:
            self.assertEqual(proc.returncode, 0,
                             f"{name}: {proc.stdout}\n{proc.stderr}")
            self.assertEqual(findings, [], name)
        return findings

    def test_bad_rvalue_snapshot_fires_on_marked_lines(self):
        findings = self.assert_verdict("bad_rvalue_snapshot", True)
        marked = bad_lines(FIXTURES / "bad_rvalue_snapshot.cpp")
        self.assertEqual(sorted(f["line"] for f in findings), marked)
        for f in findings:
            self.assertEqual(f["checker"], "rvalue-snapshot-deref")

    def test_bad_rvalue_fixture_is_the_literal_pr8_shape(self):
        # The §12.4 use-after-free read a pointer out of a temporary
        # snapshot inside the if-init; the fixture keeps that exact shape
        # on the snapshot src/ still publishes (policy_snapshot()), and the
        # finding must point at it.
        src = FIXTURES / "bad_rvalue_snapshot.cpp"
        text = src.read_text()
        self.assertIn("brain.policy_snapshot()->match(provider, app)", text)
        shape_line = next(
            i for i, t in enumerate(text.splitlines(), 1)
            if "brain.policy_snapshot()->match(provider, app)" in t)
        findings = self.reports["bad_rvalue_snapshot"]["findings"]
        self.assertIn(shape_line, [f["line"] for f in findings])

    def test_clean_rvalue_snapshot_passes(self):
        self.assert_verdict("clean_rvalue_snapshot", False)

    def test_bad_handle_mutation_fires_on_marked_lines(self):
        findings = self.assert_verdict("bad_handle_mutation", True)
        marked = bad_lines(FIXTURES / "bad_handle_mutation.cpp")
        self.assertEqual(sorted(f["line"] for f in findings), marked)
        for f in findings:
            self.assertEqual(f["checker"], "handle-across-mutation")

    def test_clean_handle_mutation_passes(self):
        self.assert_verdict("clean_handle_mutation", False)

    def test_bad_lock_cycle_fires(self):
        findings = self.assert_verdict("bad_lock_cycle", True)
        self.assertEqual(findings[0]["checker"], "lock-order-cycle")
        self.assertIn("Leader::mu_", findings[0]["message"])
        self.assertIn("Follower::mu_", findings[0]["message"])

    def test_clean_lock_cycle_passes(self):
        # Pins the mid-scope unlock modelling: without it the committer
        # choreography would read as a Committer::mu_ <-> Core::mu_ cycle.
        self.assert_verdict("clean_lock_cycle", False)
        report = self.reports["clean_lock_cycle"]
        self.assertIn("Core::mu_ -> Committer::mu_", report["lock_edges"])
        self.assertNotIn("Committer::mu_ -> Core::mu_", report["lock_edges"])

    def test_whitelist_covers_declared_cycle(self):
        # Declaring every observed edge of the bad fixture's cycle makes
        # it covered (the escape hatch for sanctioned orderings).
        order = self.dumps / "order.txt"
        order.write_text("Leader::mu_ -> Follower::mu_\n"
                         "Follower::mu_ -> Leader::mu_\n")
        src = FIXTURES / "bad_lock_cycle.cpp"
        proc = run_analyze(
            "--ast", f"{src}={self.dumps / 'bad_lock_cycle'}.ast.json",
            "--lock-order", str(order), "--suppressions", os.devnull)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_report_is_machine_readable(self):
        report = self.reports["bad_rvalue_snapshot"]
        self.assertEqual(report["version"], "softcell-analyze-1")
        self.assertEqual(report["files_scanned"], 1)
        for f in report["findings"]:
            for key in ("checker", "path", "line", "message"):
                self.assertIn(key, f)


class Suppressions(unittest.TestCase):
    """File + inline suppressions, and the stale-entry hard-fail audit."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.dumps = Path(cls.tmp.name)
        make_dumps(cls.dumps)
        report = cls.dumps / "r.json"
        run_analyze(*fixture_args(cls.dumps, "bad_rvalue_snapshot"),
                    "--report", str(report))
        cls.findings = json.loads(report.read_text())["findings"]

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_file_suppression_suppresses(self):
        sup = self.dumps / "sup.txt"
        sup.write_text("".join(
            f"{f['checker']} {f['path']}:{f['line']} fixture exercised by "
            "test_analyze.py\n" for f in self.findings))
        src = FIXTURES / "bad_rvalue_snapshot.cpp"
        proc = run_analyze(
            "--ast", f"{src}={self.dumps / 'bad_rvalue_snapshot'}.ast.json",
            "--lock-order", os.devnull, "--suppressions", str(sup))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_stale_file_suppression_fails(self):
        sup = self.dumps / "stale.txt"
        sup.write_text("".join(
            f"{f['checker']} {f['path']}:{f['line']} fixture exercised by "
            "test_analyze.py\n" for f in self.findings))
        with sup.open("a") as fh:
            fh.write("handle-across-mutation src/ctrl/store.cpp:1 "
                     "long gone\n")
        src = FIXTURES / "bad_rvalue_snapshot.cpp"
        proc = run_analyze(
            "--ast", f"{src}={self.dumps / 'bad_rvalue_snapshot'}.ast.json",
            "--lock-order", os.devnull, "--suppressions", str(sup))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("stale", proc.stdout)

    def test_malformed_suppression_rejected(self):
        sup = self.dumps / "bad.txt"
        sup.write_text("rvalue-snapshot-deref src/foo.cpp:10\n")
        proc = run_analyze(*fixture_args(self.dumps, "bad_rvalue_snapshot")[:2],
                           "--lock-order", os.devnull,
                           "--suppressions", str(sup))
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)

    def test_unknown_checker_rejected(self):
        sup = self.dumps / "unk.txt"
        sup.write_text("no-such-checker src/foo.cpp:10 because\n")
        proc = run_analyze(*fixture_args(self.dumps, "bad_rvalue_snapshot")[:2],
                           "--lock-order", os.devnull,
                           "--suppressions", str(sup))
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)

    def _copy_fixtures(self, dst):
        for name in FIXTURE_NAMES:
            shutil.copy(FIXTURES / f"{name}.cpp", dst / f"{name}.cpp")

    def test_inline_suppression_suppresses(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmpd = Path(tmp)
            self._copy_fixtures(tmpd)
            src = tmpd / "bad_rvalue_snapshot.cpp"
            lines = src.read_text().splitlines()
            for i in bad_lines(src):
                lines[i - 1] += ("  // sc-analyze: "
                                 "suppress(rvalue-snapshot-deref) "
                                 "exercised by test_analyze.py")
            src.write_text("\n".join(lines) + "\n")
            make_dumps(tmpd, src_dir=tmpd)
            proc = run_analyze(
                *fixture_args(tmpd, "bad_rvalue_snapshot", src_dir=tmpd))
            self.assertEqual(proc.returncode, 0,
                             proc.stdout + proc.stderr)

    def test_inline_marker_on_line_above_suppresses(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmpd = Path(tmp)
            self._copy_fixtures(tmpd)
            src = tmpd / "bad_handle_mutation.cpp"
            lines = src.read_text().splitlines()
            # Markers must go ABOVE the finding lines; insert bottom-up so
            # earlier insertions don't shift later anchors, then rebuild
            # the dumps from the modified source (anchors re-resolve).
            for i in sorted(bad_lines(src), reverse=True):
                indent = len(lines[i - 1]) - len(lines[i - 1].lstrip())
                lines.insert(i - 1, " " * indent +
                             "// sc-analyze: suppress(handle-across-mutation)"
                             " exercised by test_analyze.py")
            src.write_text("\n".join(lines) + "\n")
            make_dumps(tmpd, src_dir=tmpd)
            proc = run_analyze(
                *fixture_args(tmpd, "bad_handle_mutation", src_dir=tmpd))
            self.assertEqual(proc.returncode, 0,
                             proc.stdout + proc.stderr)

    def test_stale_inline_marker_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmpd = Path(tmp)
            self._copy_fixtures(tmpd)
            src = tmpd / "clean_rvalue_snapshot.cpp"
            lines = src.read_text().splitlines()
            # A marker on a line with no diagnostic is stale.
            lines[0] += ("  // sc-analyze: suppress(rvalue-snapshot-deref) "
                         "nothing here")
            src.write_text("\n".join(lines) + "\n")
            make_dumps(tmpd, src_dir=tmpd)
            proc = run_analyze(
                *fixture_args(tmpd, "clean_rvalue_snapshot", src_dir=tmpd))
            self.assertEqual(proc.returncode, 1,
                             proc.stdout + proc.stderr)
            self.assertIn("stale", proc.stdout)


class AstDumpCache(unittest.TestCase):
    """Content-hash caching, exercised through a logging stub clang."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)
        self.log = self.dir / "invocations.log"
        self.stub = self.dir / "clang++"
        self.stub.write_text(
            "#!/bin/sh\n"
            f"printf '%s\\n' \"$*\" >> {self.log}\n"
            "case \"$*\" in\n"
            "  *--version*) echo 'softcell stub clang version 1'; exit 0;;\n"
            "esac\n"
            "echo '{\"id\":\"0x1\",\"kind\":\"TranslationUnitDecl\","
            "\"inner\":[]}'\n")
        self.stub.chmod(self.stub.stat().st_mode | stat.S_IEXEC)
        self.src = self.dir / "unit.cpp"
        self.src.write_text("int answer() { return 42; }\n")
        self.cache = self.dir / "cache"

    def tearDown(self):
        self.tmp.cleanup()

    def dump_invocations(self):
        if not self.log.exists():
            return []
        return [l for l in self.log.read_text().splitlines()
                if "ast-dump=json" in l and str(self.src) in l]

    def run_stub(self):
        return run_analyze(str(self.src), "--clang", str(self.stub),
                           "--cache-dir", str(self.cache),
                           "--lock-order", os.devnull,
                           "--suppressions", os.devnull)

    def test_cache_hit_and_invalidation(self):
        proc = self.run_stub()
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(len(self.dump_invocations()), 1, "first run dumps")
        self.assertTrue(list(self.cache.glob("*.json.gz")),
                        "cache entry written")

        proc = self.run_stub()
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(len(self.dump_invocations()), 1,
                         "second run must hit the cache")

        self.src.write_text("int answer() { return 43; }\n")
        proc = self.run_stub()
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(len(self.dump_invocations()), 2,
                         "content change must invalidate the cache")

    def test_no_cache_flag_always_dumps(self):
        for _ in range(2):
            proc = run_analyze(str(self.src), "--clang", str(self.stub),
                               "--cache-dir", str(self.cache), "--no-cache",
                               "--lock-order", os.devnull,
                               "--suppressions", os.devnull)
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(len(self.dump_invocations()), 2)


class EnvironmentSkip(unittest.TestCase):
    """No usable clang => exit 3 (tier1 SKIP), never a silent pass."""

    def test_missing_clang_exits_3(self):
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "x.cpp"
            src.write_text("int x;\n")
            proc = run_analyze(str(src), "--clang",
                               str(Path(tmp) / "no-such-clang"))
            self.assertEqual(proc.returncode, 3, proc.stdout + proc.stderr)
            self.assertIn("SKIP", proc.stderr)

    def test_clang_without_json_support_exits_3(self):
        with tempfile.TemporaryDirectory() as tmp:
            stub = Path(tmp) / "oldclang"
            stub.write_text(
                "#!/bin/sh\n"
                "case \"$*\" in\n"
                "  *--version*) echo 'clang version 3.8'; exit 0;;\n"
                "esac\n"
                "echo 'error: unknown argument -ast-dump=json' >&2\n"
                "exit 1\n")
            stub.chmod(stub.stat().st_mode | stat.S_IEXEC)
            src = Path(tmp) / "x.cpp"
            src.write_text("int x;\n")
            proc = run_analyze(str(src), "--clang", str(stub))
            self.assertEqual(proc.returncode, 3, proc.stdout + proc.stderr)

    def test_probe_only(self):
        with tempfile.TemporaryDirectory() as tmp:
            proc = run_analyze("--probe-only", "--clang",
                               str(Path(tmp) / "no-such-clang"))
            self.assertEqual(proc.returncode, 3)


class ModuleUnit(unittest.TestCase):
    """Direct unit coverage of the walker internals."""

    @classmethod
    def setUpClass(cls):
        cls.mod = load_module()

    def test_position_carry_forward(self):
        # clang omits file/line when unchanged from the previously printed
        # location; children inherit through document order.
        root = {
            "kind": "TranslationUnitDecl",
            "inner": [
                {"kind": "FunctionDecl",
                 "range": {"begin": {"file": "a.cpp", "line": 3, "col": 1},
                           "end": {"line": 5, "col": 1}},
                 "inner": [
                     {"kind": "CompoundStmt",
                      "range": {"begin": {"col": 9}, "end": {"col": 1}},
                      "inner": [
                          {"kind": "ReturnStmt",
                           "range": {"begin": {"line": 4, "col": 3},
                                     "end": {"col": 10}}}]}]}]}
        ast = self.mod.Ast(root, default_file="a.cpp")
        fn = root["inner"][0]
        body = fn["inner"][0]
        ret = body["inner"][0]
        self.assertEqual(ast.pos(fn), ("a.cpp", 3))
        # The compound's begin omitted line => carries the fn range END (5).
        self.assertEqual(ast.pos(body), ("a.cpp", 5))
        self.assertEqual(ast.pos(ret), ("a.cpp", 4))

    def test_class_of(self):
        cases = {
            "softcell::Leader *": "Leader",
            "const softcell::mem::Slab<softcell::Rec> &": "Slab",
            "FlatMap<unsigned int, Rec>": "FlatMap",
            "softcell::sc::Mutex": "Mutex",
        }
        for qt, want in cases.items():
            self.assertEqual(self.mod.class_of(qt), want, qt)

    def test_container_kind(self):
        self.assertEqual(self.mod.container_kind("mem::Slab<Rec> &"), "Slab")
        self.assertEqual(
            self.mod.container_kind("softcell::FlatMap<unsigned, Rec>"),
            "FlatMap")
        self.assertIsNone(self.mod.container_kind("std::vector<Rec>"))

    def test_snapshot_type_re(self):
        hits = [
            "std::shared_ptr<const softcell::PathView>",
            "std::shared_ptr<const softcell::ServicePolicy>",
            "shared_ptr<TopologySnapshot>",
        ]
        misses = [
            "std::shared_ptr<softcell::Controller>",
            "const softcell::PathView *",
        ]
        for qt in hits:
            self.assertTrue(self.mod.SNAPSHOT_TYPE_RE.search(qt), qt)
        for qt in misses:
            self.assertFalse(self.mod.SNAPSHOT_TYPE_RE.search(qt), qt)

    def test_tarjan_finds_cycle(self):
        graph = {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": set()}
        sccs = self.mod.tarjan_sccs(graph)
        big = [s for s in sccs if len(s) > 1]
        self.assertEqual(len(big), 1)
        self.assertEqual(sorted(big[0]), ["a", "b", "c"])


@unittest.skipUnless(
    shutil.which("clang++") and subprocess.run(
        [sys.executable, str(ANALYZE), "--probe-only"],
        capture_output=True).returncode == 0,
    "clang++ with JSON AST support not available")
class LiveClangCrossCheck(unittest.TestCase):
    """With a real clang on PATH, the live dumps must reach the same
    verdicts as the generated ones (the two paths cross-check)."""

    def test_fixture_verdicts_match(self):
        for name in FIXTURE_NAMES:
            src = FIXTURES / f"{name}.cpp"
            with tempfile.TemporaryDirectory() as tmp:
                proc = run_analyze(str(src), "--cache-dir", tmp,
                                   "--lock-order", os.devnull,
                                   "--suppressions", os.devnull)
            expected = 1 if name.startswith("bad_") else 0
            self.assertEqual(proc.returncode, expected,
                             f"{name}:\n{proc.stdout}\n{proc.stderr}")


if __name__ == "__main__":
    unittest.main(verbosity=2)
