"""Byte identity of the golden corpus (tests/golden): each case's exit
code, stdout and report files, rerun in-process, must equal the stored
texts exactly.  A route that moves one bit of a printed or reported
number fails here; `python tests/golden/regen.py` rewrites the corpus and
says how far each text moved."""

import pytest

from golden.regen import CASES, load, run_case, versions


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_run_is_byte_identical(name):
    want = load(name)
    assert want["argv"] == CASES[name]
    got = run_case(CASES[name])
    made = load("versions")
    where = f"corpus made with {made}, rerun with {versions()}"
    assert got["exit"] == want["exit"], where
    assert got["stdout"] == want["stdout"], where
    assert sorted(got["files"]) == sorted(want["files"]), where
    for file, text in want["files"].items():
        assert got["files"][file] == text, f"{file} moved; {where}"
