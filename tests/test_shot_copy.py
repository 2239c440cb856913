"""The binary copy ``write_dataset`` writes beside a shot CSV.

``<shots.csv>.npy`` holds the sha256 of the CSV's bytes and the rows;
``read_dataset`` takes the rows from it while the CSV keeps those bytes.
A fresh copy gives the table the text gives, bit for bit, without
parsing the text; an edited CSV, and a copy that is truncated, has other
columns or holds pickled objects, send the read to the text as if there
were no copy.  A row that breaks a rule gives the same ``SchemaError``
either way, and a failed write leaves neither file.  The analysis of a
whole workload, with and without the copy, is compared in
``tests/test_golden.py``.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest

from singletsim import (
    CampaignConfig,
    MagneticField,
    ProbeConfig,
    SchemaError,
    SequenceConfig,
    ShotTable,
    read_dataset,
    run_campaign,
    write_dataset,
)
from singletsim import fileio
from singletsim.cli import main
from singletsim.sequence import _DATASET_DTYPE, DATASET_COLUMNS
from tests.conftest import FIELD_111

CAMPAIGN = CampaignConfig(
    n_cycles=4, sequences_per_cycle=5, reference_shots_per_cycle=2, master_seed=7
)
COLUMNS = ("cycle_id", "seq_index", "is_reference", "n_atoms", "f")


@pytest.fixture(scope="module")
def table():
    return run_campaign(CAMPAIGN, SequenceConfig(MagneticField(FIELD_111), ProbeConfig()))


@pytest.fixture
def shots(table, tmp_path):
    """A shot CSV with its binary copy beside it."""
    path = tmp_path / "shots.csv"
    write_dataset(path, table)
    return path


def copy_of(path):
    return path.with_name(path.name + ".npy")


def columns(t) -> list:
    """Each column's dtype, shape and bytes."""
    arrays = [getattr(t, name) for name in COLUMNS]
    return [(a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes()) for a in arrays]


def outcome(path):
    try:
        return ("ok", columns(read_dataset(path)))
    except SchemaError as exc:
        return ("error", str(exc))


def from_text(path):
    """``read_dataset`` with the copy out of the way."""
    with mock.patch.object(fileio, "_copied_rows", return_value=None):
        return outcome(path)


def write_copy(path, rows, allow_pickle=False, digest=None):
    """A copy of the CSV at ``path``: the sha256 of ``digest`` (by default
    the CSV's bytes), then ``rows``."""
    digest = hashlib.sha256(path.read_bytes() if digest is None else digest).digest()
    with copy_of(path).open("wb") as fh:
        np.save(fh, np.frombuffer(digest, dtype=np.uint8))
        np.save(fh, rows, allow_pickle=allow_pickle)


def retyped(rows, **dtypes):
    """``rows`` with the named fields cast to other dtypes."""
    names = rows.dtype.names
    out = np.empty(len(rows), [(name, dtypes.get(name, rows.dtype[name])) for name in names])
    for name in names:
        out[name] = rows[name]
    return out


def test_write_dataset_writes_the_copy(table, shots):
    with copy_of(shots).open("rb") as fh:
        digest = np.load(fh, allow_pickle=False)
        rows = np.load(fh, allow_pickle=False)
        assert fh.read() == b""
    assert digest.dtype == np.uint8 and digest.shape == (32,)
    assert digest.tobytes() == hashlib.sha256(shots.read_bytes()).digest()
    assert rows.dtype.names == DATASET_COLUMNS
    assert rows["is_reference"].tolist() == ["1" if r else "0" for r in table.is_reference]


def test_fresh_copy_serves_the_rows_without_a_parse(table, shots):
    no_parse = AssertionError("the text was parsed")
    with mock.patch.object(fileio, "_loadtxt", side_effect=no_parse):
        with mock.patch.object(fileio, "_csv_rows", side_effect=no_parse):
            got = outcome(shots)
    assert got == ("ok", columns(table)) == from_text(shots)


def test_copied_rows_have_the_read_dtype(shots):
    # The text column comes back as object holding str, as the text passes read it.
    rows = fileio._copied_rows(shots, _DATASET_DTYPE)
    assert rows.dtype == _DATASET_DTYPE
    assert {type(v) for v in rows["is_reference"]} == {str}


def test_missing_copy_reads_the_text(table, shots):
    copy_of(shots).unlink()
    with mock.patch.object(fileio, "_loadtxt", wraps=fileio._loadtxt) as parse:
        assert outcome(shots) == ("ok", columns(table))
    assert parse.called


def test_edited_csv_is_read_from_its_text(table, shots):
    # One digit of one readout changed after the write: the copy no longer
    # matches, so the edited value is what the read gives.
    data = shots.read_bytes().decode()
    header, first, rest = data.split("\r\n", 2)
    fields = first.split(",")
    old = fields[4]
    digit = next(k for k, c in enumerate(old) if c in "123456789")
    fields[4] = old[:digit] + str(int(old[digit]) % 9 + 1) + old[digit + 1:]
    shots.write_bytes("\r\n".join([header, ",".join(fields), rest]).encode())
    got = read_dataset(shots)
    assert got.f[0, 0] == float(fields[4]) != table.f[0, 0]
    assert outcome(shots) == from_text(shots)


def _truncated(shots, rows):
    data = copy_of(shots).read_bytes()
    copy_of(shots).write_bytes(data[: len(data) - 100])


def _float32_readouts(shots, rows):
    write_copy(shots, retyped(rows, **{name: "f4" for name in rows.dtype.names[4:]}))


def _int_reference(shots, rows):
    write_copy(shots, retyped(rows, is_reference="i8"))


def _other_columns(shots, rows):
    write_copy(shots, rows[["cycle_id", "seq_index", "is_reference", "n_atoms"]].copy())


def _two_dimensional(shots, rows):
    write_copy(shots, rows.reshape(-1, 2))


def _stale(shots, rows):
    write_copy(shots, rows, digest=b"the bytes of another CSV")


def _not_numpy(shots, rows):
    copy_of(shots).write_bytes(b"PK\x03\x04 not an archive")


@pytest.mark.parametrize(
    "damage",
    [
        _truncated,
        _float32_readouts,
        _int_reference,
        _other_columns,
        _two_dimensional,
        _stale,
        _not_numpy,
    ],
)
def test_damaged_copy_is_ignored(table, shots, damage):
    with copy_of(shots).open("rb") as fh:
        np.load(fh)
        rows = np.load(fh)
    damage(shots, rows)
    with mock.patch.object(fileio, "_loadtxt", wraps=fileio._loadtxt) as parse:
        assert outcome(shots) == ("ok", columns(table))
    assert parse.called


CALLS = []


def record(tag):
    CALLS.append(tag)


class Payload:
    """An object whose unpickling calls ``record``."""

    def __reduce__(self):
        return (record, ("unpickled",))


def test_pickled_copy_is_ignored_and_runs_no_code(table, shots):
    rows = np.empty(2, dtype=object)
    rows[:] = [Payload(), Payload()]
    write_copy(shots, rows, allow_pickle=True)
    assert outcome(shots) == ("ok", columns(table))
    assert CALLS == []


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_rule_errors_keep_their_text(table, tmp_path, value):
    f = table.f.copy()
    f[5, 2] = value
    bad = ShotTable(table.cycle_id, table.seq_index, table.is_reference, table.n_atoms, f)
    path = tmp_path / "shots.csv"
    write_dataset(path, bad)
    assert copy_of(path).is_file()
    with_copy = outcome(path)
    assert with_copy == from_text(path) == ("error", f"{path}:7: non-finite n_atoms or readout")


def test_failed_copy_write_leaves_no_file(table, tmp_path):
    path = tmp_path / "shots.csv"
    save = np.save

    def full_disk(fh, array, **kwargs):
        if array.dtype.names:  # the rows, after the digest was written
            raise OSError(28, "No space left on device")
        save(fh, array, **kwargs)

    with mock.patch.object(fileio.np, "save", full_disk):
        with pytest.raises(OSError, match="No space"):
            write_dataset(path, table)
    assert not path.exists()
    assert not copy_of(path).exists()


def test_failed_simulate_leaves_no_file(tmp_path, capsys):
    out = tmp_path / "run"
    config = tmp_path / "config.json"
    config.write_text('{"campaign": {"n_cycles": 3}}')
    with mock.patch.object(fileio.np, "save", side_effect=OSError(28, "No space left on device")):
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert sorted(out.iterdir()) == []
    assert "No space left on device" in capsys.readouterr().err
