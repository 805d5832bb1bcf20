"""Per-rule tests against the positive/negative fixture files."""

from pathlib import Path

import pytest

from repro.analysis import lint_paths
from repro.analysis.rules import rules_by_name

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name: str, rule: str):
    return lint_paths([FIXTURES / name], rules_by_name([rule]))


def lines_of(violations):
    return [v.line for v in violations]


# -- determinism ----------------------------------------------------------


def test_determinism_flags_every_bad_site():
    violations = lint_fixture("det_bad.py", "determinism")
    messages = " ".join(v.message for v in violations)
    assert len(violations) == 11
    assert "time.time()" in messages
    assert "time.perf_counter()" in messages
    assert "datetime.now()" in messages
    assert "random.Random() without a seed" in messages
    assert "random.random()" in messages
    assert "random.choice()" in messages
    assert "uuid.uuid4" in messages
    assert "os.urandom" in messages
    assert "iteration over a set" in messages
    assert "list(set(...))" in messages
    assert "popitem" in messages


def test_determinism_clean_fixture_passes():
    assert lint_fixture("det_clean.py", "determinism") == []


# -- lock pairing ---------------------------------------------------------


def test_lock_pairing_flags_every_leak():
    violations = lint_fixture("lock_bad.py", "lock-pairing")
    messages = [v.message for v in violations]
    assert len(violations) == 4
    assert any("return while a lock" in m for m in messages)
    assert any("raise while a lock" in m for m in messages)
    assert any("result ignored" in m for m in messages)
    assert any("not released on every path" in m for m in messages)


def test_lock_pairing_clean_fixture_passes():
    assert lint_fixture("lock_clean.py", "lock-pairing") == []


# -- billing --------------------------------------------------------------


def test_billing_flags_unbilled_sends():
    violations = lint_fixture("billing_bad.py", "billing")
    messages = [v.message for v in violations]
    assert sum("without nbytes=" in m for m in messages) == 2


def test_billing_clean_fixture_passes():
    assert lint_fixture("billing_clean.py", "billing") == []


# -- attempt token --------------------------------------------------------


def test_attempt_token_flags_unguarded_collection():
    violations = lint_fixture("attempt_bad.py", "attempt-token")
    assert len(violations) == 3
    assert all("attempt token" in v.message for v in violations)


def test_attempt_token_clean_fixture_passes():
    assert lint_fixture("attempt_clean.py", "attempt-token") == []


# -- compiled scan --------------------------------------------------------


def test_compiled_scan_flags_per_row_eval_in_loops():
    violations = lint_fixture("scanpath_bad.py", "compiled-scan")
    assert len(violations) == 3
    assert all("re-walks the expression AST" in v.message
               for v in violations)


def test_compiled_scan_clean_fixture_passes():
    # scanpath_ok.py includes one deliberate interpreted-baseline call
    # suppressed with an inline ``# lint: allow(compiled-scan)``.
    assert lint_fixture("scanpath_ok.py", "compiled-scan") == []


def test_compiled_scan_ignores_off_path_files():
    # Same per-row eval code, but the file is not on the scan path.
    assert lint_fixture("offpath_eval.py", "compiled-scan") == []


# -- rule registry --------------------------------------------------------


def test_unknown_rule_name_raises():
    with pytest.raises(ValueError, match="unknown rule"):
        rules_by_name(["no-such-rule"])


def test_all_rules_selected_by_default():
    assert len(rules_by_name(None)) == 8
