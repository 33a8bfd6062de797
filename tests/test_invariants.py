"""The design-invariant guards (``tools/check_invariants.py``).

The repository passes every guard, and no guard is vacuous: each
check's sample line, planted alone in an empty tree, fails that check
and no other.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_invariants",
    os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "tools", "check_invariants.py",
    ),
)
invariants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(invariants)


def test_the_repository_keeps_every_invariant(capsys):
    assert invariants.main([]) == 0, capsys.readouterr().out


@pytest.mark.parametrize(
    "check", invariants.CHECKS,
    ids=[f"{number}-{check.guard.split(' (')[0]}"
         for number, check in enumerate(invariants.CHECKS)],
)
def test_a_planted_line_fails_its_check(tmp_path, check):
    path, line = check.sample
    planted = tmp_path / path
    planted.parent.mkdir(parents=True)
    planted.write_text(f"# context\n{line}\n")
    for other in invariants.CHECKS:
        found = invariants.violations(other, str(tmp_path))
        if other is check:
            assert found == [f"{path}:2:{line}"]
        else:
            assert found == []
    assert invariants.main([str(tmp_path)]) == 1


def test_binary_files_are_skipped(tmp_path):
    check = invariants.CHECKS[0]
    path, line = check.sample
    planted = tmp_path / path
    planted.parent.mkdir(parents=True)
    planted.write_bytes(b"\0" + line.encode())
    assert invariants.violations(check, str(tmp_path)) == []
