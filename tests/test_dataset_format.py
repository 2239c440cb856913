"""The shot CSV format, byte for byte, against a per-record writer.

``oracle_write`` is a plain ``csv.writer`` loop over a table's rows:
one line per row, integers as written, floats as ``repr``, the csv
module's ``\\r\\n`` terminators.  ``write_dataset`` must produce the same
bytes from a campaign table, and a read followed by a write must
reproduce the file.  ``fileio.write_csv`` itself must match ``csv.writer``
byte for byte on every kind of int and float value, Python or numpy.
"""

import csv
import math

import numpy as np
import pytest

from singletsim import (
    CampaignConfig,
    MagneticField,
    ProbeConfig,
    SequenceConfig,
    read_dataset,
    run_campaign,
    write_dataset,
)
from singletsim import fileio
from singletsim.sequence import DATASET_COLUMNS
from tests.conftest import FIELD_111

CAMPAIGN = CampaignConfig(
    n_cycles=6,
    sequences_per_cycle=5,
    reference_shots_per_cycle=2,
    initial_atoms=9e5,
    master_seed=43,
)

ALL_BRANCHES = dict(
    prep_noise_cov=1e5 * (0.5 * np.eye(3) + 0.5 * np.ones((3, 3))),
    prep_mean_offset=np.array([400.0, -250.0, 120.0]),
    detector_noise_cov=np.array([[1e5, 2e4, 0.0], [2e4, 8e4, 1e4], [0.0, 1e4, 6e4]]),
    period_diffusion=1e4,
    intra_pulse_rotation=True,
)


def oracle_write(path, table):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DATASET_COLUMNS)
        for i in range(len(table)):
            writer.writerow(
                [
                    int(table.cycle_id[i]),
                    int(table.seq_index[i]),
                    int(table.is_reference[i]),
                    repr(float(table.n_atoms[i])),
                    *(repr(float(v)) for v in table.f1[i]),
                    *(repr(float(v)) for v in table.f2[i]),
                ]
            )


def bits(column):
    column = np.ascontiguousarray(column)
    return column.view(np.uint64) if column.dtype == float else column


@pytest.fixture(
    params=[
        (ProbeConfig(), {}),
        (ProbeConfig(light_backaction=True, n_photons=4e13), ALL_BRANCHES),
    ],
    ids=["published", "all-branches"],
)
def table(request):
    probe, branches = request.param
    cfg = SequenceConfig(field=MagneticField(FIELD_111), probe=probe, **branches)
    return run_campaign(CAMPAIGN, cfg)


def test_write_matches_per_record_writer(table, tmp_path):
    written, expected = tmp_path / "table.csv", tmp_path / "oracle.csv"
    write_dataset(written, table)
    oracle_write(expected, table)
    assert written.read_bytes() == expected.read_bytes()
    assert written.read_bytes().count(b"\r\n") == 1 + len(table)


def test_read_write_reproduces_bytes(table, tmp_path):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_dataset(first, table)
    write_dataset(second, read_dataset(first))
    assert second.read_bytes() == first.read_bytes()


def test_read_columns_bit_equal(table, tmp_path):
    path = tmp_path / "shots.csv"
    write_dataset(path, table)
    loaded = read_dataset(path)
    for name in ("cycle_id", "seq_index", "is_reference", "n_atoms", "f"):
        got, want = getattr(loaded, name), getattr(table, name)
        assert got.dtype == want.dtype
        assert np.array_equal(bits(got), bits(want)), name


# Each kind of value the program writes, and the float edge cases.
WRITER_VALUES = [
    0,
    -7,
    2**63 - 1,
    np.int64(-(2**63)),
    np.int32(12),
    True,
    0.1,
    -0.0,
    1e16,
    1e-05,
    5e-324,
    1.7976931348623157e308,
    float("nan"),
    float("inf"),
    float("-inf"),
    np.float64(-0.0),
    np.float64(1e16),
    np.float64(1e-05),
    np.float64(5e-324),
    np.float64("nan"),
    np.float64("-inf"),
    np.float64(0.30000000000000004),
]


def test_write_csv_matches_csv_writer(tmp_path):
    # More rows than one write chunk, each mixing Python and numpy values.
    n = len(WRITER_VALUES)
    rows = [
        [WRITER_VALUES[(i + k) % n] for k in range(4)] + [i, np.float64(i) / 7]
        for i in range(3 * fileio._WRITE_ROWS + 5)
    ]
    columns = ("a", "b", "c", "d", "i", "x")
    written, expected = tmp_path / "written.csv", tmp_path / "expected.csv"
    fileio.write_csv(written, columns, iter(rows))
    with expected.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)
    assert written.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("n_rows", [2 * fileio._WRITE_ROWS, 2 * fileio._WRITE_ROWS + 1])
@pytest.mark.parametrize("row_type", [tuple, list])
def test_write_csv_chunk_edges(tmp_path, row_type, n_rows):
    # Tuple rows (the shot writer) and list rows (the analysis writers),
    # at a whole number of write chunks and one row past it.
    rows = [row_type((i, np.float64(i) / 7, float(-i) / 3)) for i in range(n_rows)]
    columns = ("i", "x", "y")
    written, expected = tmp_path / "written.csv", tmp_path / "expected.csv"
    fileio.write_csv(written, columns, rows)
    with expected.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)
    assert written.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("row", [(1, 2.0), [1, 2.0, 3.0, 4.0]])
def test_write_csv_rejects_a_row_of_the_wrong_width(tmp_path, row):
    with pytest.raises(TypeError):
        fileio.write_csv(tmp_path / "bad.csv", ("a", "b", "c"), [(0, 1.0, 2.0), row])


def test_write_csv_leaves_no_file_when_a_row_fails(tmp_path):
    # The bad row comes after a whole write chunk has reached the file.
    path = tmp_path / "bad.csv"
    rows = [(i, 1.0, 2.0) for i in range(200)] + [(200, 1.0)]
    with pytest.raises(TypeError):
        fileio.write_csv(path, ("a", "b", "c"), rows)
    assert not path.exists()


def test_write_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    fileio.write_csv(path, ("a", "b"), [])
    assert path.read_bytes() == b"a,b\r\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_json_refuses_non_finite_numbers(tmp_path, value):
    # A backstop: analyze checks its report first, so no command reaches it.
    path = tmp_path / "report.json"
    with pytest.raises(ValueError):
        fileio.write_json(path, {"fits": {"b": [1.0, value]}})
    assert not path.exists()


def test_first_non_finite_names_the_first_place_in_written_order():
    payload = {
        "z": math.nan,
        "bins": [{"xi2": 1.0}, {"xi2_stderr": math.inf, "a": np.float64(-math.inf)}],
    }
    assert fileio.first_non_finite(payload) == "bins[1].a"
    assert fileio.first_non_finite({"n": 3, "ok": True, "s": "nan", "x": None, "v": [0.5]}) is None
