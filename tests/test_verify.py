"""The table of verification checks: lookup and its documentation."""

import re
from pathlib import Path

import pytest

from e0graph import verify

README = Path(__file__).resolve().parents[1] / "README.md"


def test_run_check_rejects_unknown_names():
    with pytest.raises(ValueError, match=r"unknown check 'nope'; available: cor-highval, "):
        verify.run_check("nope")


def test_every_check_has_a_ladder():
    # a generator would run its rows once and leave an empty check afterwards
    for name, (inputs, row) in verify.CHECKS.items():
        assert isinstance(inputs, tuple) and inputs, name
        assert callable(row), name


def test_readme_lists_every_check():
    text = README.read_text()
    section = text.split("## Verification checks", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^\| `([^`]+)` \|", section, flags=re.M)
    assert sorted(names) == sorted(verify.CHECKS)
