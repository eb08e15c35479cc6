"""Tests for the ``reprolint`` invariant linter.

Each rule is exercised three ways, per the framework's contract:

* a **positive** fixture that must produce the finding,
* a **suppressed** fixture where a ``# reprolint: disable=...`` comment
  silences it (the finding moves to the suppressed list),
* a **baseline-excluded** case where a ledger entry grandfathers it.

Plus CLI behavior (text/json formats, exit codes, stale-entry
reporting) and the repo-tree invariant: the checked-in ``src`` and
``tools`` trees must be clean against the checked-in baseline.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from reprolint import Baseline, check_file, default_rules, parse_suppressions
from reprolint.baseline import BaselineError, entry_for
from reprolint.cli import run as cli_run

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "reprolint_fixtures"

#: rule -> (pretend in-scope path, expected positive finding count)
RULE_CASES = {
    "RL001": ("src/repro/partitions/fixture_mod.py", 4),
    "RL002": ("src/repro/markov/solvers.py", 1),
    "RL003": ("src/repro/lumping/fixture_mod.py", 3),
    "RL004": ("src/repro/markov/fixture_mod.py", 3),
    "RL005": ("src/repro/robust/fixture_mod.py", 2),
    "RL006": ("src/repro/statespace/fixture_mod.py", 4),
    "RL007": ("src/repro/robust/fixture_mod.py", 5),
    "RL008": ("src/repro/lumping/fixture_mod.py", 4),
    "RL009": ("src/repro/service/fixture_mod.py", 6),
}


def _fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def _lint(path: str, text: str):
    return check_file(default_rules(), path, text=text)


# ----------------------------------------------------------------------
# per-rule: positive / suppressed / baseline-excluded
# ----------------------------------------------------------------------


@pytest.mark.parametrize("rule", sorted(RULE_CASES))
def test_rule_positive(rule):
    path, expected_count = RULE_CASES[rule]
    text = _fixture(f"{rule.lower()}_positive.py")
    report = _lint(path, text)
    assert report.error is None
    codes = [f.rule for f in report.findings]
    assert codes.count(rule) == expected_count, report.findings
    # Fixtures also contain compliant variants; the rule must not flag
    # anything beyond the seeded violations.
    assert all(code == rule for code in codes)


@pytest.mark.parametrize("rule", sorted(RULE_CASES))
def test_rule_suppressed(rule):
    path, _ = RULE_CASES[rule]
    text = _fixture(f"{rule.lower()}_suppressed.py")
    report = _lint(path, text)
    assert report.error is None
    assert report.findings == [], report.findings
    assert any(f.rule == rule for f in report.suppressed)


@pytest.mark.parametrize("rule", sorted(RULE_CASES))
def test_rule_baseline_excluded(rule):
    path, _ = RULE_CASES[rule]
    text = _fixture(f"{rule.lower()}_positive.py")
    report = _lint(path, text)
    lines = text.splitlines()
    entries = [
        entry_for(f, lines[f.line - 1], justification="grandfathered in test")
        for f in report.findings
    ]
    baseline = Baseline(entries)
    for finding in report.findings:
        assert baseline.matches(finding, lines[finding.line - 1])
    assert baseline.stale_entries() == []
    # A different finding (content changed) is NOT matched.
    changed = report.findings[0]
    assert not baseline.matches(changed, "some_other_line = 1")


# ----------------------------------------------------------------------
# rule-specific edges
# ----------------------------------------------------------------------


def test_rl001_out_of_scope_path_is_clean():
    text = _fixture("rl001_positive.py")
    report = _lint("src/repro/markov/ctmc.py", text)
    assert [f for f in report.findings if f.rule == "RL001"] == []


def test_rl001_covers_the_san_compiler():
    # The compiler fixes the level and event-table order later stages inherit.
    text = _fixture("rl001_positive.py")
    report = _lint("src/repro/san/fixture_mod.py", text)
    assert [f.rule for f in report.findings] == ["RL001"] * 4


def test_rl001_sorted_iteration_is_clean():
    text = _fixture("rl001_suppressed.py")
    report = _lint("src/repro/partitions/fixture_mod.py", text)
    assert report.findings == []


def test_rl002_hooked_loop_is_clean():
    text = _fixture("rl002_suppressed.py")
    report = _lint("src/repro/markov/solvers.py", text)
    assert report.findings == []
    assert len(report.suppressed) == 1


def test_rl002_only_applies_to_hot_path_files():
    text = _fixture("rl002_positive.py")
    report = _lint("src/repro/markov/ctmc.py", text)
    assert [f for f in report.findings if f.rule == "RL002"] == []


def test_rl003_allowed_in_tests():
    text = _fixture("rl003_positive.py")
    report = _lint("tests/test_something.py", text)
    assert report.findings == []


def test_rl004_structural_constants_exempt():
    report = _lint(
        "src/repro/markov/fixture_mod.py",
        "def f(weight, scale):\n"
        "    return weight == 0.0 or scale != 1.0 or weight == 0\n",
    )
    assert report.findings == []


def test_rl005_recording_handler_is_clean():
    report = _lint(
        "src/repro/robust/fixture_mod.py",
        "def f(action, report):\n"
        "    try:\n"
        "        action()\n"
        "    except Exception as exc:\n"
        "        report.record_fallback('s', 'a', 'b', str(exc))\n",
    )
    assert report.findings == []


def test_rl006_clock_whitelist():
    text = "import time\n\n\ndef now():\n    return time.time()\n"
    assert _lint("src/repro/util/timing.py", text).findings == []
    assert len(_lint("src/repro/markov/ctmc.py", text).findings) == 1


def test_rl007_supervisor_module_may_spawn():
    text = _fixture("rl007_positive.py")
    report = _lint("src/repro/robust/supervisor.py", text)
    # Spawn calls are the supervisor's job; the unbounded waits are
    # still flagged — a no-timeout wait can hang the watchdog itself.
    flagged = [f for f in report.findings if f.rule == "RL007"]
    assert len(flagged) == 2, flagged
    assert all("timeout" in f.message for f in flagged)


def test_rl007_out_of_scope_path_is_clean():
    text = _fixture("rl007_positive.py")
    report = _lint("benchmarks/run_all.py", text)
    assert [f for f in report.findings if f.rule == "RL007"] == []


def test_rl007_worker_pool_module_may_spawn():
    text = "import os\n\n\ndef spawn():\n    return os.fork()\n"
    report = _lint("src/repro/robust/supervisor.py", text)
    assert [f for f in report.findings if f.rule == "RL007"] == []
    # The dispatcher runs its workers through the supervisor's watched
    # child, so it may not fork on its own.
    for path in (
        "src/repro/service/dispatcher.py",
        "src/repro/markov/ctmc.py",
    ):
        assert len(_lint(path, text).findings) == 1, path


def test_rl008_process_layer_may_import_parallelism():
    text = "import multiprocessing\n"
    assert _lint("src/repro/robust/supervisor.py", text).findings == []
    assert len(_lint("src/repro/markov/ctmc.py", text).findings) == 1


def test_rl008_completion_order_flagged_even_in_pool():
    # The determinism half of the rule has no allowlist: even the
    # process layer must never fold results in completion order.
    text = "def f(pool, work, tasks):\n    return pool.imap_unordered(work, tasks)\n"
    report = _lint("src/repro/robust/supervisor.py", text)
    assert [f.rule for f in report.findings] == ["RL008"]


def test_rl008_out_of_scope_path_is_clean():
    text = _fixture("rl008_positive.py")
    report = _lint("benchmarks/run_all.py", text)
    assert [f for f in report.findings if f.rule == "RL008"] == []


def test_syntax_error_reported_not_raised():
    report = _lint("src/repro/markov/broken.py", "def f(:\n")
    assert report.error is not None
    assert "syntax error" in report.error


def test_parse_suppressions_all_and_multi():
    text = (
        "x = 1  # reprolint: disable=all\n"
        "y = 2  # reprolint: disable=RL001,RL004\n"
        "z = 3  # plain comment\n"
    )
    sup = parse_suppressions(text)
    assert sup[1] == {"all"}
    assert sup[2] == {"RL001", "RL004"}
    assert 3 not in sup


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def _seed_violation_tree(tmp_path: Path) -> Path:
    mod = tmp_path / "src" / "repro" / "partitions" / "mod.py"
    mod.parent.mkdir(parents=True)
    mod.write_text(
        "def f(block_of, states):\n"
        "    touched = {block_of[s] for s in states}\n"
        "    out = []\n"
        "    for block_id in touched:\n"
        "        out.append(block_id)\n"
        "    return out\n",
        encoding="utf-8",
    )
    return mod


def test_cli_json_nonzero_on_seeded_violation(tmp_path, capsys):
    _seed_violation_tree(tmp_path)
    code = cli_run(
        ["--root", str(tmp_path), "--format", "json", str(tmp_path / "src")]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["exit_code"] == 1
    assert payload["files_checked"] == 1
    [finding] = payload["new_findings"]
    assert finding["rule"] == "RL001"
    assert finding["path"] == "src/repro/partitions/mod.py"
    assert finding["line"] == 4


def test_cli_text_output_and_exit_zero_when_clean(tmp_path, capsys):
    mod = _seed_violation_tree(tmp_path)
    mod.write_text(
        "def f(items):\n    return sorted(items)\n", encoding="utf-8"
    )
    code = cli_run(["--root", str(tmp_path), str(tmp_path / "src")])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 new finding(s)" in out


def test_cli_baseline_grandfathers_then_goes_stale(tmp_path, capsys):
    mod = _seed_violation_tree(tmp_path)
    baseline_file = tmp_path / "baseline.json"
    baseline_file.write_text(
        json.dumps(
            {
                "version": 1,
                "entries": [
                    {
                        "rule": "RL001",
                        "path": "src/repro/partitions/mod.py",
                        "content": "for block_id in touched:",
                        "justification": "seeded for the test",
                    }
                ],
            }
        ),
        encoding="utf-8",
    )
    args = [
        "--root",
        str(tmp_path),
        "--baseline",
        str(baseline_file),
        "--format",
        "json",
        str(tmp_path / "src"),
    ]
    code = cli_run(args)
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["new_findings"] == []
    assert len(payload["baselined"]) == 1
    # Fix the violation: the entry must be reported stale, still exit 0.
    mod.write_text(
        "def f(block_of, states):\n"
        "    touched = {block_of[s] for s in states}\n"
        "    return [b for b in sorted(touched)]\n",
        encoding="utf-8",
    )
    code = cli_run(args)
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(payload["stale_baseline_entries"]) == 1


def test_cli_rejects_unjustified_baseline(tmp_path, capsys):
    _seed_violation_tree(tmp_path)
    baseline_file = tmp_path / "baseline.json"
    baseline_file.write_text(
        json.dumps(
            {
                "version": 1,
                "entries": [
                    {
                        "rule": "RL001",
                        "path": "src/repro/partitions/mod.py",
                        "content": "for block_id in touched:",
                        "justification": "",
                    }
                ],
            }
        ),
        encoding="utf-8",
    )
    code = cli_run(
        [
            "--root",
            str(tmp_path),
            "--baseline",
            str(baseline_file),
            str(tmp_path / "src"),
        ]
    )
    assert code == 2
    assert "justification" in capsys.readouterr().err


def test_cli_unknown_select_code(tmp_path, capsys):
    _seed_violation_tree(tmp_path)
    code = cli_run(["--select", "RL999", str(tmp_path / "src")])
    assert code == 2
    assert "RL999" in capsys.readouterr().err


def test_cli_missing_baseline_file(tmp_path, capsys):
    _seed_violation_tree(tmp_path)
    code = cli_run(
        [
            "--baseline",
            str(tmp_path / "nope.json"),
            str(tmp_path / "src"),
        ]
    )
    assert code == 2


def test_cli_syntax_error_is_nonzero(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def f(:\n", encoding="utf-8")
    code = cli_run(["--root", str(tmp_path), str(tmp_path / "src")])
    assert code == 1
    assert "syntax error" in capsys.readouterr().out


def test_baseline_load_rejects_bad_version(tmp_path):
    f = tmp_path / "b.json"
    f.write_text('{"version": 99, "entries": []}', encoding="utf-8")
    with pytest.raises(BaselineError):
        Baseline.load(f)


# ----------------------------------------------------------------------
# the repo itself must be clean
# ----------------------------------------------------------------------


def test_repo_tree_is_clean_against_checked_in_baseline(capsys):
    code = cli_run(
        [
            "--root",
            str(REPO_ROOT),
            "--format",
            "json",
            str(REPO_ROOT / "src"),
            str(REPO_ROOT / "tools"),
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0, payload["new_findings"]
    assert payload["new_findings"] == []
    assert payload["stale_baseline_entries"] == []
