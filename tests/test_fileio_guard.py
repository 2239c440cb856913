"""Only ``fileio.py`` parses CSV input or formats JSON output.

Every input CSV is read through ``fileio.read_csv`` and every JSON
output written through ``fileio.write_json``, so the header, field-count
and unreadable-file checks cover every input, and every JSON file has
the same layout.  The package source is parsed, not imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "singletsim"

GUARDED = {("csv", "reader"), ("json", "dumps")}


def guarded_calls() -> list[tuple[str, int, str]]:
    """(file, line, call) for each ``csv.reader``/``json.dumps`` call in the package."""
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                if (func.value.id, func.attr) in GUARDED:
                    calls.append((path.name, node.lineno, f"{func.value.id}.{func.attr}"))
    return calls


def test_csv_reader_and_json_dumps_only_in_fileio():
    calls = guarded_calls()
    assert {call for _, _, call in calls} == {"csv.reader", "json.dumps"}
    outside = [c for c in calls if c[0] != "fileio.py"]
    assert outside == [], f"call fileio.read_csv / fileio.write_json instead: {outside}"
