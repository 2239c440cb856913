"""The one-pass numpy read of every CSV input against the csv module's.

Each of the three CSV readers (``read_dataset``, ``read_fid_csv`` and the
calibration reader ``cli._read_pairs``) reads a file twice: as it is,
and with ``fileio._loadtxt`` declining, so that the csv module reads it
(``fileio._csv_rows``).  The csv module's reading is the oracle for
parsing; the reader's row rules are shared, the same function running on
whichever pass read the file.  On every file both reads give bit-equal
arrays with the same dtypes, or both raise ``SchemaError`` with the same
text.  The files are a valid input with one field, line or line end
changed: the listed cases are the ones where a bare ``np.loadtxt`` pass
would accept a file the csv module rejects, or read it differently; a
hypothesis strategy changes one field at random.  A file with two bad
lines names the first, whether it breaks a rule or cannot be read.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singletsim import (
    CampaignConfig,
    MagneticField,
    ProbeConfig,
    SchemaError,
    SequenceConfig,
    read_dataset,
    run_campaign,
)
from singletsim import fileio, magnetometry, sequence
from singletsim.cli import _read_pairs
from singletsim.magnetometry import read_fid_csv
from singletsim.sequence import write_dataset
from tests.conftest import FIELD_111

FIELD_LIMIT = 131072


def _shot_lines(tmp_path_factory):
    campaign = CampaignConfig(
        n_cycles=2, sequences_per_cycle=3, reference_shots_per_cycle=2, master_seed=5
    )
    cfg = SequenceConfig(MagneticField(FIELD_111), ProbeConfig())
    path = tmp_path_factory.mktemp("base") / "shots.csv"
    write_dataset(path, run_campaign(campaign, cfg))
    return path.read_bytes().decode().split("\r\n")[:-1]


FID_LINES = ["t_us,theta_rad,branch"] + [
    f"{0.5 * i!r},{0.001 * (i - 4)!r},{'zy'[i % 2]}" for i in range(10)
]
PAIR_LINES = ["phi_rad,n_atoms"] + [f"{9e-8 * n!r},{n!r}" for n in (1e5, 3e5, 6e5, 9e5)]


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """Per reader: (reader, the valid file's lines without line ends)."""
    return {
        "shots": (read_dataset, _shot_lines(tmp_path_factory)),
        "fid": (read_fid_csv, FID_LINES),
        "pairs": (_read_pairs, PAIR_LINES),
    }


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


def _arrays(result) -> list:
    if isinstance(result, np.ndarray):
        return [result]
    if isinstance(result, tuple):
        return list(result)
    return [result.cycle_id, result.seq_index, result.is_reference, result.n_atoms, result.f]


def _outcome(reader, path):
    try:
        arrays = _arrays(reader(path))
    except SchemaError as exc:
        return ("error", str(exc))
    return ("ok", [(a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes()) for a in arrays])


def fast_and_loop(reader, path) -> tuple:
    """The reader's outcome as it is and with every file read by the loop."""
    fast = _outcome(reader, path)
    with mock.patch.object(fileio, "_loadtxt", return_value=None):
        loop = _outcome(reader, path)
    return fast, loop


def write(path, lines, end="\r\n", tail=True) -> None:
    path.write_bytes((end.join(lines) + (end if tail else "")).encode("utf-8"))


def with_field(lines, row, column, value) -> list:
    fields = lines[row].split(",")
    fields[column] = value
    return lines[:row] + [",".join(fields)] + lines[row + 1 :]


# One float column of each reader.
NUMBER_FIELDS = (("shots", 4), ("fid", 1), ("pairs", 0))
# (reader, column, value): one field of data row 2 replaced.
FIELD_CASES = [
    # A valid number one character longer than the csv module's field
    # limit, and one exactly at it.
    *[(r, c, " " * (FIELD_LIMIT - 2) + "1.5") for r, c in NUMBER_FIELDS],
    ("shots", 4, "0" * (FIELD_LIMIT - 2) + "1.5"),
    *[(r, c, " " * (FIELD_LIMIT - 3) + "1.5") for r, c in NUMBER_FIELDS],
    # is_reference tokens the loop refuses or reads as another token.
    *[("shots", 2, v) for v in ("01", "+1", " 1 ", "1 ", "00", "-0", "1.0", "１")],
    *[("shots", 2, v) for v in ("true", "True", "false", "False", "TRUE", "t")],
    # Tokens a fixed-width string field would cut down to an accepted one.
    *[("shots", 2, v) for v in ("10", "1x", "1 x", "0000", "1\x00", "0\x00\x00", "\x001")],
    *[("fid", 2, v) for v in ("zz", "yz", "z x", "z\x00", " z", "z ", "Z", "zy", "z\x1c")],
    # Bad tokens with whitespace around them.
    ("shots", 2, " yes "),
    ("fid", 2, " w "),
    # Numbers an int column (numpy 1.23 warns, then reads 3) and the loop see differently.
    *[("shots", 0, v) for v in ("3.0", "1e3", "1_0", " 7 ", "+7", "007", "-0", "0x1f")],
    *[("shots", 1, v) for v in ("2.5", "", " ", "7\x1c", "7\x00", "٣")],
    # The 64-bit key range, both ends and one past each.
    *[("shots", 0, str(v)) for v in (-(2**63), 2**63 - 1, -(2**63) - 1, 2**63)],
    # Floats.
    *[(r, c, v) for r, c in (("shots", 5), ("fid", 0), ("fid", 1), ("pairs", 1))
      for v in ("nan", "inf", "-inf", "-0.0", "1_0", "1.5\x00", "1.5\x1c", "\x1f1.5",
                "\xa01.5 ", "1.5\x0b", '"1.5"', "1.5e", "٣", "0x10", "Infinity")],
    *[("shots", 3, v) for v in ("-0.0", "-5.0", "nan")],
    *[("fid", 0, v) for v in ("-0.0", "-1.0", "-1e-320", "1e308")],
]


def _case_id(value) -> str:
    text = repr(value)
    return text if len(text) <= 24 else f"{text[:10]}...({len(value)} chars)"


@pytest.mark.parametrize(
    "name, column, value",
    FIELD_CASES,
    ids=[f"{n}-{c}-{_case_id(v)}" for n, c, v in FIELD_CASES],
)
def test_changed_field(base, tmp_path, name, column, value):
    reader, lines = base[name]
    path = tmp_path / "input.csv"
    write(path, with_field(lines, 2, column, value))
    fast, loop = fast_and_loop(reader, path)
    assert fast == loop


def _quoted(line: str) -> str:
    return '"' + line.replace(",", '","') + '"'


def _reference_n_atoms(lines, value) -> list:
    row = next(i for i, line in enumerate(lines) if i and line.split(",")[2] == "1")
    return with_field(lines, row, 3, value)


# name -> lines -> (lines, line end, whether the last line has one).
FILE_CHANGES = {
    "header only": lambda ls: (ls[:1], "\r\n", True),
    "header without line end": lambda ls: (ls[:1], "\n", False),
    "no final line end": lambda ls: (ls, "\n", False),
    "LF line ends": lambda ls: (ls, "\n", True),
    "bare CR line ends": lambda ls: (ls, "\r", True),
    "CR CR LF line ends": lambda ls: (ls, "\r\r\n", True),
    "whitespace-only line": lambda ls: (ls[:3] + ["  "] + ls[3:], "\n", True),
    "tab line": lambda ls: (ls[:3] + ["\t"] + ls[3:], "\n", True),
    "NUL line": lambda ls: (ls[:3] + ["\x00"] + ls[3:], "\n", True),
    "blank line": lambda ls: (ls[:3] + [""] + ls[3:], "\r\n", True),
    "blank line before a bad line": lambda ls: (ls[:2] + ["", ls[2] + ","] + ls[3:], "\n", True),
    "trailing comma": lambda ls: (ls[:2] + [ls[2] + ","] + ls[3:], "\n", True),
    "quoted fields": lambda ls: ([*ls[:2], _quoted(ls[2]), *ls[3:]], "\n", True),
    "quoted header": lambda ls: ([_quoted(ls[0]), *ls[1:]], "\n", True),
    "byte-order mark": lambda ls: (["\ufeff" + ls[0], *ls[1:]], "\n", True),
}
SHOT_CHANGES = {
    "duplicate key": lambda ls: (ls[:4] + [ls[2]] + ls[4:], "\r\n", True),
    "reference n_atoms -0.0": lambda ls: (_reference_n_atoms(ls, "-0.0"), "\r\n", True),
    "reference n_atoms 1.0": lambda ls: (_reference_n_atoms(ls, "1.0"), "\r\n", True),
    "rows in reverse": lambda ls: (ls[:1] + ls[:0:-1], "\r\n", True),
}
FILE_CASES = [(n, c) for n in ("shots", "fid", "pairs") for c in FILE_CHANGES] + [
    ("shots", c) for c in SHOT_CHANGES
]


@pytest.mark.parametrize("name, case", FILE_CASES, ids=[f"{n}-{c}" for n, c in FILE_CASES])
def test_changed_file(base, tmp_path, name, case):
    reader, lines = base[name]
    changed, end, tail = {**FILE_CHANGES, **SHOT_CHANGES}[case](lines)
    path = tmp_path / "input.csv"
    write(path, changed, end, tail)
    fast, loop = fast_and_loop(reader, path)
    assert fast == loop


SHOT_TOKENS = "is_reference must be one of 0, 1, false, true, False, True"
# (reader, the first bad line's change, a later line's change, the message):
# each change is (data row, column, value), and data row 2 is line 3.
TWO_BAD_LINES = [
    ("shots", (2, 2, "yes"), (5, 4, "x"), f"3: {SHOT_TOKENS}, got 'yes'"),
    ("shots", (2, 3, "-5.0"), (6, 9, "1.0,2.0"), "3: negative n_atoms"),
    ("shots", (2, 4, "x"), (5, 2, "yes"), "3: could not convert string to float: 'x'"),
    ("shots", (2, 9, "1.0,2.0"), (5, 3, "-5.0"), "3: expected 10 fields"),
    ("fid", (2, 2, "w"), (5, 0, "x"), "3: branch must be 'z' or 'y', got 'w'"),
    ("fid", (2, 0, "x"), (5, 2, "w"), "3: could not convert string to float: 'x'"),
    ("pairs", (2, 1, "1e5,7"), (4, 0, "nan"), "3: expected 2 fields"),
    ("pairs", (2, 0, "nan"), (4, 1, "1e5,7"), "3: non-finite phi_rad or n_atoms"),
]


@pytest.mark.parametrize(
    "name, first, later, message",
    TWO_BAD_LINES,
    ids=[f"{n}-{f[2]}-then-{l[2]}" for n, f, l, _ in TWO_BAD_LINES],
)
def test_first_bad_line_wins(base, tmp_path, name, first, later, message):
    # A line that breaks a rule and a later one that cannot be read, and
    # the reverse: the error names the first of the two, on either pass.
    reader, lines = base[name]
    for row, column, value in (first, later):
        lines = with_field(lines, row, column, value)
    path = tmp_path / "input.csv"
    write(path, lines)
    fast, loop = fast_and_loop(reader, path)
    assert fast == loop == ("error", f"{path}:{message}")


# Per reader: a change on line 3 that breaks a rule, and its message.
RULE_ON_LINE_3 = {
    "shots": ((2, 2, "yes"), f"{SHOT_TOKENS}, got 'yes'"),
    "fid": ((2, 2, "w"), "branch must be 'z' or 'y', got 'w'"),
    "pairs": ((2, 0, "nan"), "non-finite phi_rad or n_atoms"),
}


# Per reader: the spaces that start line 5, none or enough to push its
# bad byte past the text a decoder of the whole file reads first.
NON_UTF8_CASES = [(name, pad) for name in RULE_ON_LINE_3 for pad in (20000, 0)]


@pytest.mark.parametrize(
    "name, pad", NON_UTF8_CASES, ids=[n if p else f"{n}-unpadded" for n, p in NON_UTF8_CASES]
)
def test_rule_before_a_non_utf8_byte_wins(base, tmp_path, name, pad):
    # A byte that cannot be decoded ends line 5: lines 1-4 are read and
    # checked before the decoder meets it, however near it sits.
    reader, lines = base[name]
    (row, column, value), message = RULE_ON_LINE_3[name]
    data = [line.encode() for line in with_field(lines, row, column, value)]
    data[4] = b" " * pad + data[4] + b"\xff"
    path = tmp_path / "input.csv"
    path.write_bytes(b"\n".join(data) + b"\n")
    fast, loop = fast_and_loop(reader, path)
    assert fast == loop == ("error", f"{path}:3: {message}")


# (reader, text column, bad token, the message for it on line 3).
BAD_TOKENS = [
    ("shots", 2, "1 x", f"{SHOT_TOKENS}, got '1 x'"),
    ("shots", 2, " yes ", f"{SHOT_TOKENS}, got ' yes '"),
    ("fid", 2, "z x", "branch must be 'z' or 'y', got 'z x'"),
    ("fid", 2, " w ", "branch must be 'z' or 'y', got 'w'"),
]


@pytest.mark.parametrize(
    "name, column, value, message", BAD_TOKENS, ids=[f"{n}-{v!r}" for n, _, v, _ in BAD_TOKENS]
)
def test_bad_token_is_refused_whole(base, tmp_path, name, column, value, message):
    # Both passes see the whole field: a text column cut to a fixed width
    # would read "1 x" as "1 ", an accepted token once stripped.
    reader, lines = base[name]
    path = tmp_path / "input.csv"
    write(path, with_field(lines, 2, column, value))
    fast, loop = fast_and_loop(reader, path)
    assert fast == loop == ("error", f"{path}:3: {message}")


@pytest.mark.parametrize("name", ["shots", "fid", "pairs"])
@pytest.mark.parametrize("end", ["\r\n", "\n"])
def test_valid_file_takes_the_numpy_pass(base, tmp_path, name, end):
    # The csv module's pass is not called on the files the program writes.
    reader, lines = base[name]
    path = tmp_path / "input.csv"
    write(path, lines, end)
    with mock.patch.object(fileio, "_csv_rows", side_effect=AssertionError("loop called")):
        fast = _outcome(reader, path)
    assert fast[0] == "ok"
    assert fast == fast_and_loop(reader, path)[1]


@pytest.mark.parametrize(
    "name, module, classify",
    [("shots", sequence, "_reference"), ("fid", magnetometry, "_branches")],
    ids=["shots", "fid"],
)
@pytest.mark.parametrize("numpy_pass", [True, False], ids=["numpy-pass", "csv-pass"])
def test_token_column_is_classified_once(base, tmp_path, name, module, classify, numpy_pass):
    # The rules and the table (or the z/y split) share one classification
    # of the text column, on whichever pass read the file.
    reader, lines = base[name]
    path = tmp_path / "input.csv"
    write(path, lines)
    with mock.patch.object(module, classify, wraps=getattr(module, classify)) as counted:
        if numpy_pass:
            reader(path)
        else:
            with mock.patch.object(fileio, "_loadtxt", return_value=None):
                reader(path)
    assert counted.call_count == 1


def test_numpy_warning_means_loop(base, tmp_path):
    # numpy 1.23 reads "3.0" in an int column as 3, with a DeprecationWarning.
    # Any warning from the numpy pass sends the file to the loop.
    reader, lines = base["shots"]
    path = tmp_path / "input.csv"
    write(path, lines)
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        rows = loadtxt(*args, **kwargs)
        warnings.warn("an int column held a float", DeprecationWarning)
        rows["f1_z"] += 1.0
        return rows

    with mock.patch.object(np, "loadtxt", warning_loadtxt):
        with mock.patch.object(fileio, "_csv_rows", wraps=fileio._csv_rows) as loop:
            fast = _outcome(reader, path)
    assert loop.called
    assert fast == fast_and_loop(reader, path)[1]


# Characters around the ones that matter: digits, signs, exponents,
# separators, quotes, line ends, NUL, numpy-only whitespace and tokens.
ALPHABET = "0123456789+-.eE_ ,\"\t\r\n\x00\x0b\x1c\x1f\xa0 ٣naifNItruefalsTFzy"


@st.composite
def changed_field(draw):
    """(reader, data row, column, (prefix, keep, suffix), line end): one field changed.

    The new value is the old one (``keep``) or nothing, between a prefix
    and a suffix of up to three ``ALPHABET`` characters; the column wraps
    round the row.
    """
    name = draw(st.sampled_from(["shots", "fid", "pairs"]))
    row, column = draw(st.integers(1, 4)), draw(st.integers(0, 9))
    kept = draw(st.booleans())
    prefix, suffix = draw(st.text(ALPHABET, max_size=3)), draw(st.text(ALPHABET, max_size=3))
    end = draw(st.sampled_from(["\r\n", "\n", "\r"]))
    return name, row, column, (prefix, kept, suffix), end


@settings(max_examples=300, deadline=None, derandomize=True)
@given(change=changed_field())
def test_one_changed_field(base, workdir, change):
    name, row, column, (prefix, kept, suffix), end = change
    reader, lines = base[name]
    fields = lines[row].split(",")
    column %= len(fields)
    value = prefix + (fields[column] if kept else "") + suffix
    path = workdir / "input.csv"
    write(path, with_field(lines, row, column, value), end)
    fast, loop = fast_and_loop(reader, path)
    assert fast == loop
