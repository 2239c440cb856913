"""The one CSV reader and the CSV and JSON writers behind every command.

Each input file (shot records, FID trace, calibration pairs) is read by
``read_csv`` with its own per-row parse; each CSV output (shot records,
noise scaling, cutoff scan) is written by ``write_csv`` and each JSON
output (provenance, report, field estimate, calibration) by
``write_json``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .errors import SchemaError


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


def write_csv(path, columns, rows) -> None:
    """Write a ``columns`` header line, then ``rows``, in ``csv.writer``'s default dialect.

    A float is written as its ``repr`` (the shortest string that reads
    back to the same double), and every line ends in CRLF.
    """
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def write_json(path, payload) -> None:
    """Write ``payload`` as JSON: indent 2, sorted keys, trailing newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
