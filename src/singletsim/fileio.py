"""The one CSV reader and the CSV and JSON writers behind every command.

Each input file (shot records, FID trace, calibration pairs) is read by
``read_table`` into one structured array.  The data lines stream from
the open file into a single ``np.loadtxt`` call, and the caller checks
whole columns with numpy.  Whatever that pass does not take as it is
(a parse failure, a warning, a failed column check, or text the csv
module reads differently) is read again by the per-line ``read_csv``
loop, which names the bad line or, for a valid but unusual file, gives
the reference reading.  Each CSV output (shot records, noise scaling,
cutoff scan) is written by ``write_csv`` and each JSON output
(provenance, report, field estimate, calibration) by ``write_json``.
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

# Characters the numpy pass and the csv loop read differently: NUL (kept
# by csv, dropped from the end of a numpy string field) and the
# separators \x1c-\x1f (whitespace to numpy's number parsers, not to
# Python's ``int`` and ``float``).
_UNSAFE_CHARS = "\x00\x1c\x1d\x1e\x1f"
# Text is read and written in pieces well under 128 KiB: joining 1024
# shot rows (~140 kB) per write raised a published run's peak RSS by
# ~1 MB over 128 rows (~18 kB) per write.
_BATCH_CHARS = 1 << 16
_WRITE_ROWS = 128


def read_csv(path, columns, parse) -> list:
    """Parsed rows of a UTF-8 CSV file whose header is ``columns``.

    Blank lines are skipped; every other row must have exactly
    ``len(columns)`` fields and is passed as ``parse(row, line)``, with
    ``line`` its 1-based line number.  Returns the list of what ``parse``
    returns.  A ``ValueError`` from ``parse`` becomes a ``SchemaError``
    naming ``path:line``; a file that is empty, has other columns or
    cannot be opened, decoded or split into fields raises ``SchemaError``
    naming the path.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: empty file")
            if tuple(header) != tuple(columns):
                raise SchemaError(f"{path}: bad columns {header}, expected {list(columns)}")
            rows = []
            for row in reader:
                if not row:
                    continue
                line = reader.line_num
                if len(row) != len(columns):
                    raise SchemaError(f"{path}:{line}: expected {len(columns)} fields")
                try:
                    rows.append(parse(row, line))
                except ValueError as exc:
                    raise SchemaError(f"{path}:{line}: {exc}") from None
    except OSError as exc:
        raise SchemaError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    except csv.Error as exc:
        raise SchemaError(f"{path}:{reader.line_num}: {exc}") from None
    return rows


def read_table(path, dtype, parse, check) -> np.ndarray:
    """The data rows of a CSV input as a structured array of ``dtype``.

    ``dtype`` has one field per column, named as in the header.  The
    numpy pass's rows are returned when ``check(rows)`` is true, so
    ``check`` must be false wherever ``parse`` would reject a row.
    Otherwise the file is read by ``read_csv(path, dtype.names, parse)``,
    which raises ``SchemaError`` for a bad file; ``parse`` returns each
    good row as a tuple in ``dtype``'s form, a token field as the token
    the numpy pass accepts for it.
    """
    rows = _loadtxt(path, dtype)
    if rows is not None and check(rows):
        return rows
    return np.array(read_csv(path, dtype.names, parse), dtype=dtype)


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
