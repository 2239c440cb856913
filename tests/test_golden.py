"""Every output of the ``published`` and ``campaign-noisy`` workloads at seed 1.

Each workload runs as the benchmark runs it (``tests/golden/regenerate.py``,
which also rewrites the goldens).  ``shots.csv``, its binary copy
``shots.csv.npy`` and ``provenance.json`` must keep their sha256: the
engine makes no BLAS call.  ``analyze`` reads the shots from the copy;
without the copy it parses the CSV and writes the same bytes.  The analysis
and FID outputs go through BLAS, whose kernel can move their last bits
(by at most ~6e-13 relative across OpenBLAS kernels), so their values
are compared at rtol 1e-9, with their keys, columns and shapes exact.
"""

import contextlib
import csv
import io
import json
import math
import shutil

import pytest

from singletsim.cli import main
from tests.golden.regenerate import (
    GOLDEN,
    HASHED,
    SEED,
    WORKLOADS,
    _workloads,
    run_workload,
    sha256,
)

RTOL = 1e-9


@pytest.fixture(scope="module", params=WORKLOADS)
def run(request, tmp_path_factory):
    """(golden directory, the workload's outputs by name)."""
    name = request.param
    return GOLDEN / name, run_workload(name, tmp_path_factory.mktemp(name))


def assert_close(got, want, where="") -> None:
    """``got`` equals ``want`` in keys, lengths and types, and numbers at ``RTOL``."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        same = math.isnan(got) and math.isnan(want)
        assert same or math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0), (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def read_csv(path) -> list:
    """The header, then each row's fields read as floats."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return [header] + [[float(v) for v in row] for row in rows]


def test_every_output_is_pinned(run):
    golden, outputs = run
    hashed = set(json.loads((golden / "sha256.json").read_text()))
    copied = [key.rsplit("/", 1)[-1] for key in outputs.keys() - hashed]
    assert hashed <= outputs.keys()
    assert sorted(copied) == sorted(p.name for p in golden.iterdir() if p.name != "sha256.json")


def test_shots_and_provenance_keep_their_bytes(run):
    golden, outputs = run
    pinned = json.loads((golden / "sha256.json").read_text())
    assert {key: sha256(outputs[key]) for key in pinned} == pinned


def test_analysis_and_fid_outputs_keep_their_values(run):
    golden, outputs = run
    for key, path in outputs.items():
        if key in HASHED:
            continue
        want = golden / path.name
        if path.suffix == ".json":
            assert_close(json.loads(path.read_text()), json.loads(want.read_text()), key)
        else:
            got_rows, want_rows = read_csv(path), read_csv(want)
            assert got_rows[0] == want_rows[0], key
            assert_close(got_rows[1:], want_rows[1:], key)


def test_analyze_without_the_binary_copy_writes_the_same_bytes(run, tmp_path):
    # The workload's analyze again, on its shots.csv with the copy deleted.
    golden, outputs = run
    shots = outputs["sim/shots.csv"]
    bare = tmp_path / "bare"
    shutil.copytree(shots.parent, bare)
    (bare / "shots.csv.npy").unlink()
    inputs = shots.parents[2] / "inputs"
    command = next(c for c in _workloads().build(golden.name).commands if c[0] == "analyze")
    argv = [arg.format(inputs=inputs, out=tmp_path, seed=SEED) for arg in command]
    argv[1] = str(bare / "shots.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    written = sorted(p.name for p in (tmp_path / "analysis").iterdir())
    assert written == sorted(key.split("/")[1] for key in outputs if key.startswith("analysis/"))
    for name in written:
        got = (tmp_path / "analysis" / name).read_bytes()
        assert got == outputs[f"analysis/{name}"].read_bytes(), name
