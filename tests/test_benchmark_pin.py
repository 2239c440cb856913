"""The functions the benchmark's span tracer wraps by name must exist.

``perfbench/spans.py`` looks each ``TRACED`` key up with a plain
``getattr`` on ``singletsim.<layer>``, so deleting or renaming one of
those functions breaks the benchmark's trace mode.  The file is parsed,
not imported, so the test leaves the benchmark directory untouched.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
