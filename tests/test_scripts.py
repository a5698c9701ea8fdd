"""The comparison logic of ``scripts/grid_outputs.py --against`` and
``scripts/src_lines.py --against``, on hand-written lines, and the degree
classes of ``scripts/rounding_census.py``, on hand-written profiles."""

import importlib.util
import os
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

OLD = """\
vca 50x2 seed 0 F [1, 2, 1] G [0, 1, 3] a1 b1 c1 d1 e1
coeff 50x2 seed 0 F [1, 2, 1] G [0, 1, 3] a2 b2 c2 d2 e2
coeff 50x3 seed 1 F [1, 3, 0] G [0, 3, 6] a3 b3 c3 d3 e3
vca V2x50 seed 1 F [1, 2, 3, 0] G [0, 1, 0, 4] a4 b4 c4 d4 e4
retrieval-test --variety V1 --runs 2 --scales 0.01,1,100 r1
"""


def _load(name):
    """Import ``scripts/<name>.py``, keeping the environment it pins BLAS threads in."""
    saved = dict(os.environ)
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    os.environ.clear()
    os.environ.update(saved)
    return module


@pytest.fixture(scope="module")
def grid_outputs():
    return _load("grid_outputs")


def _compare(module, tmp_path, new):
    (tmp_path / "old.txt").write_text(OLD)
    (tmp_path / "new.txt").write_text(new)
    return module.compare((tmp_path / "old.txt").read_text().splitlines(),
                          (tmp_path / "new.txt").read_text().splitlines())


def test_counts_moved_hashes_per_mode_and_file(grid_outputs, tmp_path):
    new = OLD.replace(" b2 ", " B2 ").replace(" e2\n", " E2\n").replace(" b3 ", " B3 ")
    summary, problems = _compare(grid_outputs, tmp_path, new.replace(" d4 ", " D4 "))
    assert summary == [
        "vca report.json 0/2 basis.json 0/2 evaluation.json 0/2 reduction.json 1/2 "
        "reduced_basis.json 0/2",
        "coeff report.json 0/2 basis.json 2/2 evaluation.json 0/2 reduction.json 0/2 "
        "reduced_basis.json 1/2",
        "retrieval-test retrieval.json 0/1",
    ]
    assert problems == []


def test_names_profile_differences_and_unpaired_fits(grid_outputs, tmp_path):
    lines = OLD.splitlines()
    lines[0] = lines[0].replace("G [0, 1, 3]", "G [0, 2, 3]")
    lines[3] = lines[3].replace("G [0, 1, 0, 4]", "G [0, 1, 1, 3]")
    lines[4] = lines[4].replace(" r1", " r2")
    new = "\n".join([lines[0], lines[1], "grad 50x2 seed 0 F [1] G [0] a b c d e", *lines[3:]])
    summary, problems = _compare(grid_outputs, tmp_path, new)
    assert problems == [
        "only in old: coeff 50x3 seed 1",
        "only in new: grad 50x2 seed 0",
        "profile differs: vca 50x2 seed 0: F [1, 2, 1] G [0, 1, 3] -> F [1, 2, 1] G [0, 2, 3]",
        "profile differs: vca V2x50 seed 1: F [1, 2, 3, 0] G [0, 1, 0, 4] -> "
        "F [1, 2, 3, 0] G [0, 1, 1, 3]",
    ]
    assert summary[-1] == "retrieval-test retrieval.json 1/1"
    # a fit only one side lists counts in no mode's tally
    assert [line.split()[0] for line in summary] == ["vca", "coeff", "retrieval-test"]


def test_src_lines_compares_each_module_and_the_total():
    src_lines = _load("src_lines")
    old = ["   436  engine.py", "   223  retrieval.py", "    12  gone.py", "   671  total"]
    new = ["   409  engine.py", "   224  retrieval.py", "     5  added.py", "   638  total"]
    assert src_lines.compare(old, new) == [
        "     0 ->      5     +5  added.py",
        "   436 ->    409    -27  engine.py",
        "    12 ->      0    -12  gone.py",
        "   223 ->    224     +1  retrieval.py",
        "   671 ->    638    -33  total",
    ]


def test_census_classes_each_degree_by_where_f_reaches_the_point_count(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))  # the census imports grid_outputs
    census = _load("rounding_census")
    # F reaches |X| = 10 at degree 3; degree 4 is saturated
    assert census.degree_classes([1, 2, 3, 4, 0], 10) == [
        "lower", "lower", "lower", "fill", "saturated"]
    # a fit whose F never reaches |X| has lower degrees only
    assert census.degree_classes([1, 2, 3, 1, 0], 10) == ["lower"] * 5
    # one point: the constant alone fills it
    assert census.degree_classes([1, 0], 1) == ["fill", "saturated"]
