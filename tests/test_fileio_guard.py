"""Only ``fileio.py`` reads CSV input or writes CSV or JSON output.

Every input CSV is read through ``fileio.read_table``, every CSV output
written through ``fileio.write_csv`` (the shot CSV and its binary copy
through ``fileio.write_table``) and every JSON output through
``fileio.write_json``, so the header, field-count and unreadable-file
checks cover every input, every output of one kind has the same layout
(CSV: ``csv.writer``'s default dialect, ``\\r\\n`` line ends), and one
module knows the binary copy's format.  The package source is parsed,
not imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "singletsim"

GUARDED = {
    ("csv", "reader"),
    ("csv", "writer"),
    ("json", "dumps"),
    ("np", "loadtxt"),
    ("numpy", "loadtxt"),
    ("np", "load"),
    ("numpy", "load"),
    ("np", "save"),
    ("numpy", "save"),
}


def _opens_to_write(node: ast.Call) -> bool:
    """Whether ``open(path, mode)`` / ``path.open(mode)`` may write: a mode
    holding w, a, x or +, or one that is not a constant string."""
    position = 1 if isinstance(node.func, ast.Name) else 0
    mode = next((k.value for k in node.keywords if k.arg == "mode"), None)
    if mode is None and len(node.args) > position:
        mode = node.args[position]
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and set(str(mode.value)).isdisjoint("wax+"))


def guarded_calls() -> list[tuple[str, int, str]]:
    """(file, line, call) for each guarded call in the package.

    The guarded calls are ``csv.reader``, ``csv.writer``, ``json.dumps``,
    ``np.loadtxt``, ``np.load``, ``np.save`` (also spelled ``numpy.``),
    any ``.write_text(...)`` and any ``open`` (builtin or
    ``Path.open``) whose mode writes, appends or creates, shown as
    ``open(w)``.
    """
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "open":
                if _opens_to_write(node):
                    calls.append((path.name, node.lineno, "open(w)"))
            elif name == "write_text":
                calls.append((path.name, node.lineno, ".write_text"))
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                if (func.value.id, func.attr) in GUARDED:
                    calls.append((path.name, node.lineno, f"{func.value.id}.{func.attr}"))
    return calls


def test_csv_reader_and_json_dumps_only_in_fileio():
    calls = guarded_calls()
    assert {call for _, _, call in calls} == {
        "csv.reader",
        "np.loadtxt",
        "np.load",
        "np.save",
        "json.dumps",
        ".write_text",
        "open(w)",
    }
    outside = [c for c in calls if c[0] != "fileio.py"]
    writers = "write_csv / write_table / write_json"
    assert outside == [], f"call fileio.read_table / {writers} instead: {outside}"


def test_np_load_never_unpickles():
    # A damaged or hostile binary copy must not run code: every np.load
    # and np.save in the package passes allow_pickle=False.
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
            if isinstance(func, ast.Attribute) and func.attr in ("load", "save"):
                if isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy"):
                    pickle = [k.value for k in node.keywords if k.arg == "allow_pickle"]
                    calls.append((path.name, node.lineno, ast.dump(pickle[0]) if pickle else None))
    assert calls, "no np.load or np.save found"
    refused = ast.dump(ast.Constant(False))
    assert [c for c in calls if c[2] != refused] == []
