"""The one CSV reader and the CSV and JSON writers behind every command.

Each input file (shot records, FID trace, calibration pairs) is read by
``read_table`` into one structured array.  The data lines stream from
the open file into a single ``np.loadtxt`` call.  Each input's row rules
are written once, as column checks, and run on whichever pass read the
file: a file the numpy pass does not take as it is (a parse failure, a
warning, or a row that breaks a rule) is read again by the csv module,
and the error names the first line that it cannot read or that breaks
a rule.  Each CSV output (shot records, noise scaling, cutoff scan) is
written by ``write_csv`` and each JSON output (provenance, report,
field estimate, calibration) by ``write_json``.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from functools import partial
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .errors import SchemaError

# Characters the numpy pass and the csv pass read differently: NUL (a
# line holding one is a csv error before Python 3.11) and the
# separators \x1c-\x1f (whitespace to numpy's number parsers, not to
# Python's ``int`` and ``float``).
_UNSAFE_CHARS = "\x00\x1c\x1d\x1e\x1f"
# Text is read and written in pieces well under 128 KiB: joining 1024
# shot rows (~140 kB) per write raised a published run's peak RSS by
# ~1 MB over 128 rows (~18 kB) per write.
_BATCH_CHARS = 1 << 16
_WRITE_ROWS = 128


def read_table(path, dtype, rules) -> np.ndarray:
    """The data rows of a CSV input as a structured array of ``dtype``.

    ``dtype`` has one field per column, named as in the header: int64,
    float, or object for a text column, which holds each field as
    written.  ``rules(rows)`` yields the input's row rules in order, each
    a ``(mask, message)`` pair: ``mask`` marks the rows that break the
    rule, and ``message`` is its text, or a function of a row's index and
    the rows' line numbers that gives it.  The numpy pass's rows are
    returned when no rule marks a row.  Otherwise the csv module reads the
    file again (``_csv_rows``) and the same rules run on the rows it read:
    the ``SchemaError`` names the first line that it could not read or
    that breaks a rule, with the message of the first rule that row breaks.
    The rows returned are always those of the last ``rules`` call, so a
    caller's rules may keep what they compute from them.
    """
    rows = _loadtxt(path, dtype)
    if rows is not None and not any(mask.any() for mask, _ in rules(rows)):
        return rows
    rows, lines, fault = _csv_rows(path, dtype)
    # (first marked row, rule order, message): the least is that row's first rule.
    marked = [(np.argmax(m), k, message) for k, (m, message) in enumerate(rules(rows)) if m.any()]
    if marked:
        i, _, message = min(marked)
        message = message if isinstance(message, str) else message(i, lines)
        fault = SchemaError(f"{Path(path)}:{lines[i]}: {message}")
    if fault is not None:
        raise fault
    return rows


def _csv_rows(path, dtype) -> tuple:
    """The csv module's reading of a CSV input: (rows, line numbers, fault).

    Blank lines are skipped; every other line must have one field per
    column of ``dtype``, each read by its column's kind: ``int`` within
    64 bits, ``float``, or the text as written.  Reading stops at the
    first line that cannot be read, and ``fault`` is the ``SchemaError``
    for it, or None: it names ``path:line``, or the path alone for a
    file that is empty, has other columns or cannot be opened or decoded.
    ``rows`` is a structured array of the lines read before it and
    ``lines`` their 1-based line numbers.
    """
    path, names = Path(path), dtype.names
    kinds = [{"i": int, "f": float}.get(dtype[name].kind, str) for name in names]
    ints = [k for k, name in enumerate(names) if dtype[name].kind == "i"]
    rows, lines, fault = [], [], None
    try:
        with path.open("rb") as fh:
            reader = csv.reader(_decoded_lines(fh, path))
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: empty file")
            if tuple(header) != names:
                raise SchemaError(f"{path}: bad columns {header}, expected {list(names)}")
            for row in filter(None, reader):
                try:
                    if len(row) != len(names):
                        raise ValueError(f"expected {len(names)} fields")
                    values = [read(field) for read, field in zip(kinds, row)]
                    if not all(-(2**63) <= values[k] < 2**63 for k in ints):
                        wide = " and ".join(names[k] for k in ints)
                        raise ValueError(f"{wide} must fit in 64 bits")
                except ValueError as exc:
                    raise SchemaError(f"{path}:{reader.line_num}: {exc}") from None
                rows.append(tuple(values))
                lines.append(reader.line_num)
    except SchemaError as exc:
        fault = exc
    except OSError as exc:
        fault = SchemaError(f"{path}: {exc.strerror}")
    except csv.Error as exc:
        fault = SchemaError(f"{path}:{reader.line_num}: {exc}")
    return np.array(rows, dtype=dtype), lines, fault


def _decoded_lines(fh, path):
    """The lines of the binary file ``fh`` as text, each decoded as it is read.

    Lines end as in text mode with ``newline=""`` (at CR, LF or CRLF,
    kept), so the csv reader numbers them alike.  A line that is not
    UTF-8 raises ``SchemaError`` naming the path and the byte's offset in
    the file when the reader reaches it, after the lines before it.
    """
    offset = 0
    for chunk in fh:
        for line in chunk.splitlines(keepends=True):
            try:
                yield line.decode("utf-8")
            except UnicodeDecodeError as exc:
                byte = offset + exc.start
                raise SchemaError(f"{path}: not UTF-8 ({exc.reason} at byte {byte})") from None
            offset += len(line)


def _loadtxt(path, dtype):
    """Parse the file in one ``np.loadtxt`` pass, or None where it cannot.

    None for a header other than the exact column line, for a line
    longer than the csv module's field limit or holding ``_UNSAFE_CHARS``,
    and for any error or warning numpy raises (a header-only file warns).
    Lines are split as ``csv.reader`` splits them (``newline=""``), and
    numpy's number parsers accept a subset of what ``int`` and ``float``
    accept, giving the same values.
    """
    header = ",".join(dtype.names)
    try:
        with Path(path).open(newline="", encoding="utf-8") as fh:
            if fh.readline() not in (header + "\r\n", header + "\n"):
                return None
            batches = iter(partial(fh.readlines, _BATCH_CHARS), [])
            lines = chain.from_iterable(map(_checked_batch, batches))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except (OSError, ValueError, Warning):
        return None


def _checked_batch(lines: list) -> list:
    text = "".join(lines)
    if max(map(len, lines)) > csv.field_size_limit() or any(c in text for c in _UNSAFE_CHARS):
        raise ValueError("line needs the csv reader")
    return lines


def write_csv(path, columns, rows) -> None:
    """Write a ``columns`` header line, then ``rows``, as ``csv.writer`` would.

    Every row is a tuple or list of exactly ``len(columns)`` fields, each
    an int or a float (Python or numpy), written as its ``str`` (for a
    float, the shortest string that reads back to the same double),
    comma-separated, and every line ends in CRLF: the bytes of
    ``csv.writer``'s default dialect.  Each row is formatted by one
    ``%s`` template, so a row of any other width raises ``TypeError``.
    Rows are written ``_WRITE_ROWS`` at a time.  A call that raises once
    it has opened ``path`` removes the file, so it leaves no truncated
    CSV behind.
    """
    path = Path(path)
    line = ",".join(["%s"] * len(columns)) + "\r\n"
    rows = iter(rows)
    fh = path.open("w", newline="")
    try:
        with fh:
            fh.write(",".join(columns) + "\r\n")
            while chunk := list(islice(rows, _WRITE_ROWS)):
                fh.write("".join([line % tuple(row) for row in chunk]))
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def first_non_finite(payload) -> str | None:
    """Where the first NaN or infinity in ``payload`` sits, or None.

    Dict keys are visited in sorted order, as ``write_json`` writes them,
    and a place is named like ``bins[3].xi2``.
    """

    def places(value, name):
        if isinstance(value, float) and not math.isfinite(value):
            yield name
        elif isinstance(value, dict):
            for key, item in sorted(value.items()):
                yield from places(item, f"{name}.{key}" if name else str(key))
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                yield from places(item, f"{name}[{i}]")

    return next(places(payload, ""), None)


def write_json(path, payload) -> None:
    """Write ``payload`` as JSON: indent 2, sorted keys, trailing newline.

    A NaN or infinity raises ``ValueError`` (strict JSON has neither)
    before the file is opened.
    """
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")
