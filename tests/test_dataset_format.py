"""The shot CSV format, byte for byte, against a per-record writer.

``oracle_write`` is a plain ``csv.writer`` loop over a table's rows:
one line per row, integers as written, floats as ``repr``, the csv
module's ``\\r\\n`` terminators.  ``write_dataset`` must produce the same
bytes from a campaign table, and a read followed by a write must
reproduce the file.
"""

import csv

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
