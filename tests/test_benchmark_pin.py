"""What the benchmark relies on must stay in the package.

``perfbench/spans.py`` looks each ``TRACED`` key up with a plain
``getattr`` on ``singletsim.<layer>``, so deleting or renaming one of
those functions breaks the benchmark's trace mode; that file is parsed,
not imported.  ``perfbench/workloads.py`` holds each workload's config,
so a config key it sets must stay in the schema; it is imported with
bytecode writing off, so the benchmark directory stays untouched.
Finally ``analysis.py`` makes no random draws: its witness stderrs are
delta-method, so every analysis output depends on the data alone.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from singletsim import config_from_dict

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


def test_analysis_draws_no_random_numbers():
    banned = {"default_rng", "SeedSequence", "integers"}
    found = []
    for node in ast.walk(ast.parse(ANALYSIS.read_text())):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            if name in banned:
                found.append((node.lineno, name))
    assert found == []
