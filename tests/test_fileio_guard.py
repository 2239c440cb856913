"""Only ``fileio.py`` reads CSV input or writes CSV or JSON output.

Every input CSV is read through ``fileio.read_csv``, every CSV output
written through ``fileio.write_csv`` and every JSON output through
``fileio.write_json``, so the header, field-count and unreadable-file
checks cover every input, and every output of one kind has the same
layout (CSV: ``csv.writer``'s dialect, ``\\r\\n`` line ends).  The
package source is parsed, not imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "singletsim"

GUARDED = {("csv", "reader"), ("csv", "writer"), ("json", "dumps")}


def guarded_calls() -> list[tuple[str, int, str]]:
    """(file, line, call) for each guarded call in the package.

    The guarded calls are ``csv.reader``, ``csv.writer``, ``json.dumps``
    and any ``.write_text(...)``.
    """
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            func = node.func
            if func.attr == "write_text":
                calls.append((path.name, node.lineno, ".write_text"))
            elif isinstance(func.value, ast.Name) and (func.value.id, func.attr) in GUARDED:
                calls.append((path.name, node.lineno, f"{func.value.id}.{func.attr}"))
    return calls


def test_csv_reader_and_json_dumps_only_in_fileio():
    calls = guarded_calls()
    assert {call for _, _, call in calls} == {
        "csv.reader",
        "csv.writer",
        "json.dumps",
        ".write_text",
    }
    outside = [c for c in calls if c[0] != "fileio.py"]
    assert outside == [], f"call fileio.read_csv / write_csv / write_json instead: {outside}"
