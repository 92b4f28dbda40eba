"""Self-tests for the repro.analysis checker suite.

Every rule is proved twice against the fixture corpus in
``tests/analysis_fixtures/``: its ``*_bad.py`` fixture must fire and its
``*_good.py`` fixture must stay silent.  On top of that the framework
pieces — suppression, baseline, emitters, CLI exit codes — are exercised
directly, and the suite is asserted clean on the real ``src/`` tree (the
repo's own acceptance criterion).
"""

import json
import unittest
from pathlib import Path

from repro.analysis import (
    DEFAULT_BASELINE,
    Finding,
    analyze_paths,
    analyze_source,
    main,
    registered_rules,
)
from repro.analysis.core import (
    load_baseline,
    register,
    split_baselined,
    write_baseline,
)
from repro.analysis.emit import emit_json, emit_sarif, emit_text

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"

#: code -> (fixture stem, virtual path the fixture is analysed under).
#: The virtual path matters for the path-scoped rules (ARR001-ARR003);
#: the others just need any plausible library path.
CASES = {
    "RES001": ("res001", "src/repro/parallel/fixture.py"),
    "ARR001": ("arr001", "src/repro/core/fixture.py"),
    "ARR002": ("arr002", "src/repro/store/fixture.py"),
    "ARR003": ("arr003", "src/repro/graph/fixture.py"),
    "KER001": ("ker001", "src/repro/core/fixture.py"),
    "PAR001": ("par001", "src/repro/parallel/fixture.py"),
    "ERR001": ("err001", "src/repro/core/fixture.py"),
    "API001": ("api001", "src/repro/app/fixture.py"),
}


def _run_fixture(code, flavour):
    stem, virtual = CASES[code]
    source = (FIXTURES / f"{stem}_{flavour}.py").read_text(encoding="utf-8")
    return analyze_source(source, virtual, select=[code])


class TestRuleRegistry(unittest.TestCase):
    def test_all_codes_registered(self):
        self.assertEqual(sorted(registered_rules()), sorted(CASES))

    def test_rules_are_documented(self):
        for code, rule_cls in registered_rules().items():
            self.assertEqual(rule_cls.code, code)
            self.assertTrue(rule_cls.name, code)
            self.assertTrue(rule_cls.description, code)

    def test_duplicate_code_rejected(self):
        existing = next(iter(registered_rules().values()))

        class Imposter(existing):
            pass

        with self.assertRaises(ValueError):
            register(Imposter)


class TestRulesFireOnBadFixtures(unittest.TestCase):
    def test_bad_fixtures_fire(self):
        for code in CASES:
            with self.subTest(code=code):
                findings, suppressed = _run_fixture(code, "bad")
                self.assertTrue(findings, f"{code} stayed silent on its bad fixture")
                self.assertEqual({f.code for f in findings}, {code})
                self.assertEqual(suppressed, [])

    def test_good_fixtures_stay_silent(self):
        for code in CASES:
            with self.subTest(code=code):
                findings, suppressed = _run_fixture(code, "good")
                self.assertEqual(
                    findings, [], f"{code} fired on its good fixture: {findings}"
                )
                self.assertEqual(suppressed, [])

    def test_expected_finding_counts(self):
        # pin the exact per-fixture counts so a rule cannot silently decay
        # into firing once where it used to catch every violation
        expected = {
            "RES001": 1,
            "ARR001": 3,
            "ARR002": 3,
            "ARR003": 4,
            "KER001": 4,
            "PAR001": 4,
            "ERR001": 3,
            "API001": 2,
        }
        for code, count in expected.items():
            findings, _ = _run_fixture(code, "bad")
            self.assertEqual(len(findings), count, code)

    def test_findings_carry_positions(self):
        findings, _ = _run_fixture("ERR001", "bad")
        for finding in findings:
            self.assertGreater(finding.line, 0)
            self.assertIn("fixture.py", finding.file)


class TestPathScoping(unittest.TestCase):
    def test_arr001_only_binds_in_array_tiers(self):
        source = (FIXTURES / "arr001_bad.py").read_text(encoding="utf-8")
        outside, _ = analyze_source(source, "src/repro/app/report.py", ["ARR001"])
        self.assertEqual(outside, [])

    def test_arr002_binds_on_core_csr_only(self):
        source = (FIXTURES / "arr002_bad.py").read_text(encoding="utf-8")
        inside, _ = analyze_source(source, "src/repro/core/csr.py", ["ARR002"])
        self.assertTrue(inside)
        outside, _ = analyze_source(source, "src/repro/core/snd.py", ["ARR002"])
        self.assertEqual(outside, [])

    def test_arr003_binds_in_core_and_graph_only(self):
        source = (FIXTURES / "arr003_bad.py").read_text(encoding="utf-8")
        for path in ("src/repro/core/csr.py", "src/repro/graph/csr_graph.py"):
            inside, _ = analyze_source(source, path, ["ARR003"])
            self.assertEqual(len(inside), 4, path)
        outside, _ = analyze_source(source, "src/repro/store/bundle.py", ["ARR003"])
        self.assertEqual(outside, [])


class TestSuppression(unittest.TestCase):
    BAD_RAISE = 'def f():\n    raise RuntimeError("boom")'

    def test_unsuppressed_fires(self):
        findings, suppressed = analyze_source(self.BAD_RAISE, "x.py", ["ERR001"])
        self.assertEqual(len(findings), 1)
        self.assertEqual(suppressed, [])

    def test_noqa_with_code_suppresses(self):
        source = self.BAD_RAISE + "  # repro: noqa[ERR001]"
        findings, suppressed = analyze_source(source, "x.py", ["ERR001"])
        self.assertEqual(findings, [])
        self.assertEqual(len(suppressed), 1)

    def test_bare_noqa_suppresses_everything(self):
        source = self.BAD_RAISE + "  # repro: noqa"
        findings, suppressed = analyze_source(source, "x.py", ["ERR001"])
        self.assertEqual(findings, [])
        self.assertEqual(len(suppressed), 1)

    def test_wrong_code_suppresses_nothing(self):
        source = self.BAD_RAISE + "  # repro: noqa[ARR001]"
        findings, _ = analyze_source(source, "x.py", ["ERR001"])
        self.assertEqual(len(findings), 1)

    def test_plain_flake8_noqa_is_not_ours(self):
        source = self.BAD_RAISE + "  # noqa"
        findings, _ = analyze_source(source, "x.py", ["ERR001"])
        self.assertEqual(len(findings), 1)

    def test_syntax_error_becomes_parse_finding(self):
        findings, _ = analyze_source("def broken(:\n", "x.py")
        self.assertEqual(len(findings), 1)
        self.assertEqual(findings[0].code, "PARSE")


class TestBaseline(unittest.TestCase):
    def setUp(self):
        self.findings = [
            Finding("src/a.py", 3, "ERR001", "raise RuntimeError ..."),
            Finding("src/b.py", 9, "ARR001", "np.zeros without dtype ..."),
        ]

    def test_round_trip_and_split(self):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "baseline.json"
            write_baseline(path, self.findings)
            baseline = load_baseline(path)
            fresh, old = split_baselined(self.findings, baseline)
            self.assertEqual(fresh, [])
            self.assertEqual(len(old), 2)
            novel = Finding("src/c.py", 1, "ERR001", "new")
            fresh, _ = split_baselined(self.findings + [novel], baseline)
            self.assertEqual(fresh, [novel])

    def test_missing_baseline_is_empty(self):
        self.assertEqual(load_baseline(Path("/nonexistent/baseline.json")), set())

    def test_malformed_baseline_rejected(self):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "baseline.json"
            path.write_text('["not", "an", "object"]')
            with self.assertRaises(ValueError):
                load_baseline(path)

    def test_committed_baseline_is_empty(self):
        # repo policy: exemptions are explanatory noqas, never baseline rows
        self.assertEqual(load_baseline(REPO_ROOT / DEFAULT_BASELINE), set())


class TestEmitters(unittest.TestCase):
    def setUp(self):
        self.findings = [
            Finding("src/repro/core/csr.py", 12, "ARR001", "np.zeros without dtype")
        ]
        self.rules = registered_rules()

    def test_text(self):
        report = emit_text(self.findings, self.rules)
        self.assertIn("src/repro/core/csr.py:12: ARR001", report)

    def test_json(self):
        payload = json.loads(emit_json(self.findings, self.rules))
        self.assertEqual(len(payload), 1)
        entry = payload[0]
        self.assertEqual(entry["code"], "ARR001")
        self.assertEqual(entry["line"], 12)

    def test_sarif_shape(self):
        sarif = json.loads(emit_sarif(self.findings, self.rules))
        self.assertEqual(sarif["version"], "2.1.0")
        run = sarif["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        self.assertEqual(rule_ids, set(self.rules))
        result = run["results"][0]
        self.assertEqual(result["ruleId"], "ARR001")
        location = result["locations"][0]["physicalLocation"]
        self.assertEqual(location["region"]["startLine"], 12)

    def test_sarif_empty(self):
        sarif = json.loads(emit_sarif([], self.rules))
        self.assertEqual(sarif["runs"][0]["results"], [])


class TestCLI(unittest.TestCase):
    def test_list_rules(self):
        self.assertEqual(main(["--list-rules"]), 0)

    def test_unknown_select_is_usage_error(self):
        self.assertEqual(main([str(FIXTURES), "--select", "NOPE99"]), 2)

    def test_missing_path_is_usage_error(self):
        self.assertEqual(main(["definitely/not/here.py"]), 2)

    def test_findings_fail_exit_zero_passes(self):
        bad = str(FIXTURES / "err001_bad.py")
        self.assertEqual(main([bad, "--select", "ERR001", "--no-baseline"]), 1)
        self.assertEqual(
            main([bad, "--select", "ERR001", "--no-baseline", "--exit-zero"]), 0
        )

    def test_baseline_grandfathers_and_write(self):
        import tempfile

        bad = str(FIXTURES / "err001_bad.py")
        with tempfile.TemporaryDirectory() as tmp:
            baseline = str(Path(tmp) / "baseline.json")
            args = [bad, "--select", "ERR001", "--baseline", baseline]
            self.assertEqual(main(args), 1)
            self.assertEqual(main(args + ["--write-baseline"]), 0)
            self.assertEqual(main(args), 0)  # grandfathered now
            self.assertEqual(main(args + ["--no-baseline"]), 1)

    def test_output_file(self):
        import tempfile

        bad = str(FIXTURES / "err001_bad.py")
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "report.sarif"
            code = main(
                [bad, "--select", "ERR001", "--no-baseline", "--format", "sarif",
                 "--output", str(out), "--exit-zero"]
            )
            self.assertEqual(code, 0)
            self.assertEqual(json.loads(out.read_text())["version"], "2.1.0")


class TestSrcIsClean(unittest.TestCase):
    def test_src_has_no_unsuppressed_findings(self):
        findings, _ = analyze_paths([REPO_ROOT / "src"])
        self.assertEqual(
            [f.render() for f in findings],
            [],
            "the suite must stay clean on src/ (fix or noqa with a reason)",
        )


if __name__ == "__main__":
    unittest.main()
