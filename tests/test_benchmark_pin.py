"""What the benchmark relies on must stay in the package.

``perfbench/spans.py`` looks each ``TRACED`` key up with a plain
``getattr`` on ``singletsim.<layer>``, so deleting or renaming one of
those functions breaks the benchmark's trace mode; that file is parsed,
not imported.  ``perfbench/workloads.py`` holds each workload's config,
so a config key it sets must stay in the schema; it is imported with
bytecode writing off, so the benchmark directory stays untouched.  Its
output checks test every bin against the squeezing law written with
its own copy of the published constants, so that law must equal the
package's exact moments at the empty config.
Finally ``analysis.py`` makes no random draws: its witness stderrs are
delta-method, so every analysis output depends on the data alone.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from singletsim import config_from_dict
from tests.conftest import engine_schur

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
ANALYSIS = ROOT / "src" / "singletsim" / "analysis.py"


def traced_names() -> list[str]:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no TRACED assignment in {SPANS}")


def test_traced_functions_resolve():
    names = traced_names()
    assert names
    missing = []
    for name in names:
        layer, attr = name.split(".")
        module = importlib.import_module(f"singletsim.{layer}")
        if not callable(getattr(module, attr, None)):
            missing.append(name)
    assert missing == [], f"perfbench/spans.py TRACED names missing: {missing}"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up in sys.modules.
    sys.modules[spec.name] = module
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("tiny", [False, True])
def test_workload_configs_load(tiny):
    workloads = load_workloads()
    assert workloads.NAMES
    for name in workloads.NAMES:
        config = workloads.build(name, tiny=tiny).config
        config_from_dict({**config, "seed": 1})


def test_benchmark_squeezing_law_is_the_package_law():
    workloads = load_workloads()
    seq = config_from_dict({}).sequence
    floor = 3.0 * workloads.readout_sigma() ** 2
    for n in np.linspace(1e5, 1.6e6, 16):
        law = 2.0 * n / (1.0 + workloads.EFFICIENCY * workloads.snr(n))
        assert engine_schur(seq, n).trace - floor == pytest.approx(law, rel=1e-12)


def test_analysis_draws_no_random_numbers():
    banned = {"default_rng", "SeedSequence", "integers"}
    found = []
    for node in ast.walk(ast.parse(ANALYSIS.read_text())):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            if name in banned:
                found.append((node.lineno, name))
    assert found == []
