import math

import numpy as np
import pytest

from singletsim import (
    CampaignConfig,
    ConfigError,
    MagneticField,
    ProbeConfig,
    SchemaError,
    SequenceConfig,
    ShotTable,
    engine_covariance,
    read_dataset,
    readout_noise_sigma,
    run_campaign,
    snr,
    write_dataset,
)
from singletsim.sequence import DATASET_COLUMNS, MAX_CYCLES, _cholesky3, _pivoted_factor
from tests.conftest import FIELD_111, engine_schur, fixed_n_campaign


def small_campaign(seed=0, **kwargs):
    defaults = dict(
        n_cycles=4,
        sequences_per_cycle=5,
        initial_atoms=8e5,
        reference_shots_per_cycle=2,
        master_seed=seed,
    )
    defaults.update(kwargs)
    return CampaignConfig(**defaults)


class TestRunSequence:
    """One preparation and its six pulses, through the engine."""

    def test_noiseless_repeat(self, field):
        # Frozen spin, vanishing readout noise: the second round repeats
        # the first, component by component.
        probe = ProbeConfig(readout_noise_override=1e-9)
        cfg = SequenceConfig(field=field, probe=probe)
        table = run_campaign(fixed_n_campaign(1e6, 1, seed=0), cfg)
        assert np.allclose(table.f1[0], table.f2[0], atol=1e-6)

    def test_first_round_variance(self, seq_ideal):
        n = 1e6
        v1 = np.diag(engine_covariance(seq_ideal, n))[:3]
        expected = 2.0 / 3.0 * n + readout_noise_sigma(seq_ideal.probe) ** 2
        assert np.allclose(v1, expected, rtol=1e-12)

    def test_rotation_bookkeeping_with_polarized_sample(self, field, probe_ideal):
        # A mean along initial y shows up on pulse 2 (the first lab-z
        # readout after one third of a Larmor period).
        m = 1e9
        cfg = SequenceConfig(
            field=field, probe=probe_ideal, prep_mean_offset=np.array([0.0, m, 0.0])
        )
        f1 = run_campaign(fixed_n_campaign(1e6, 1, seed=2), cfg).f1
        assert f1[0, 1] == pytest.approx(m, rel=1e-4)
        assert abs(f1[0, 0]) < 1e-4 * m
        assert abs(f1[0, 2]) < 1e-4 * m
        assert DATASET_COLUMNS[4:7] == ("f1_z", "f1_y", "f1_x")

    def test_reference_shot_is_pure_readout(self, seq_ideal):
        # Every readout of a no-atom shot is independent readout noise.
        sigma = readout_noise_sigma(seq_ideal.probe)
        assert np.allclose(engine_covariance(seq_ideal, 0.0), sigma**2 * np.eye(6), rtol=1e-12)
        campaign = fixed_n_campaign(0.0, 1, seed=3, references=30_000)
        data = run_campaign(campaign, seq_ideal).references.f
        assert abs(data.mean()) < 4 * sigma / math.sqrt(data.size)

    def test_conditional_variance_matches_snr_law(self, seq_ideal):
        # Kalman prediction: v_cond_tilde = 2N/(1+zeta) at b = 1.
        n = 8e5
        v_cond = engine_schur(seq_ideal, n).trace - 3 * readout_noise_sigma(seq_ideal.probe) ** 2
        predicted = 2 * n / (1 + snr(seq_ideal.probe, n))
        assert v_cond == pytest.approx(predicted, rel=1e-10)

    def test_detector_noise_correlates_rounds(self, field, probe_ideal):
        d_var = 3e5
        cfg = SequenceConfig(
            field=field, probe=probe_ideal, detector_noise_cov=np.eye(3) * d_var
        )
        cross = engine_covariance(cfg, 0.0)[:3, 3:]
        # Shared detector noise appears in the cross covariance even with
        # no atoms: d_var on each component, nothing across components.
        assert np.allclose(cross, d_var * np.eye(3), rtol=1e-12, atol=1e-9 * d_var)

    def test_noise_matrix_axis_orders(self, field):
        # The same diag(9e6, 0, 0) lands on different columns (z, y, x):
        # detector noise is in readout order (z, y, x), so on f*_z; prep
        # noise is in the prep frame (x, y, z), so on f*_x.  Every column
        # keeps the thermal (2/3) N plus a readout variance of 1.
        probe = ProbeConfig(readout_noise_override=1.0)
        loud = np.diag([9e6, 0.0, 0.0])
        for key, n_atoms, column in (("detector_noise_cov", 0.0, 0), ("prep_noise_cov", 1e3, 2)):
            cfg = SequenceConfig(field=field, probe=probe, **{key: loud})
            expected = np.full(3, 2.0 / 3.0 * n_atoms + 1.0)
            expected[column] += 9e6
            var = np.diag(engine_covariance(cfg, n_atoms))
            assert np.allclose(var, np.tile(expected, 2), rtol=1e-9), key

    def test_intra_pulse_rotation_flag_shifts_component(self, field, probe_ideal):
        m = 1e9
        cfg = SequenceConfig(
            field=field,
            probe=probe_ideal,
            prep_mean_offset=np.array([0.0, 0.0, m]),
            intra_pulse_rotation=True,
        )
        f1 = run_campaign(fixed_n_campaign(1e6, 1, seed=6), cfg).f1
        # Mid-pulse rotation by ~0.037 rad leaks a bit of z into the
        # other components: reading is cos-reduced, not exact m.
        assert f1[0, 0] < m
        assert f1[0, 0] == pytest.approx(m, rel=2e-3)

    def test_light_backaction_decorrelates_transverse_readouts(self, field):
        # n_photons chosen so the per-pulse kick about lab z has a 2 rad
        # std: the true spin's transverse part is scrambled between the
        # rounds, so f1 and f2 stop agreeing on the y and x components.
        n_photons = (2.0 * 2.0 / 9.0e-8) ** 2
        corr = {}
        for flag in (False, True):
            probe = ProbeConfig(efficiency=1.0, n_photons=n_photons, light_backaction=flag)
            cfg = SequenceConfig(field=field, probe=probe)
            table = run_campaign(fixed_n_campaign(1e6, 20_000, seed=12), cfg)
            corr[flag] = [np.corrcoef(table.f1[:, k], table.f2[:, k])[0, 1] for k in (1, 2)]
        assert min(corr[False]) > 0.99
        assert max(abs(c) for c in corr[True]) < 0.05

    def test_field_must_lie_on_the_diagonal(self, probe_ideal):
        # Any magnitude along [1, 1, 1] is accepted, and a unit vector off
        # that axis by less than FIELD_AXIS_ATOL per component; not more.
        for b in ([2.0, 2.0, 2.0], [1.0, 1.0, 1.0 + 1e-6]):
            SequenceConfig(field=MagneticField(b), probe=probe_ideal)
        for b in ([1.0, 1.0, 1.0 + 1e-5], [0.0, 0.0, 1.0], [-1.0, -1.0, -1.0]):
            with pytest.raises(ValueError, match=r"field\.b must point along"):
                SequenceConfig(field=MagneticField(b), probe=probe_ideal)

    def test_indefinite_preparation_names_smallest_atom_number(self, field, probe_ideal):
        # (2/3) N - 2e5 < 0 below N = 3e5: the decay 8e5, 4e5, 2e5, 1e5
        # crosses it at 2e5, and the error names the smallest, 1e5.
        cfg = SequenceConfig(
            field=field, probe=probe_ideal, prep_noise_cov=np.diag([-2e5, 0.0, 0.0])
        )
        campaign = small_campaign(
            seed=14, n_cycles=2, sequences_per_cycle=4, loss_fraction=0.5, atom_jitter=0.0
        )
        with pytest.raises(ConfigError, match=r"n_atoms = 100000 "):
            run_campaign(campaign, cfg)


class TestCampaign:
    def test_shot_counts(self, seq_ideal):
        campaign = small_campaign()
        table = run_campaign(campaign, seq_ideal)
        assert len(table.atoms) == 4 * 5
        assert len(table.references) == 4 * 2
        # The published campaign structure: 12 sequences over 602 cycles.
        assert 602 * 12 == 7224

    def test_geometric_loss(self, seq_ideal):
        campaign = small_campaign(
            sequences_per_cycle=12, loss_fraction=0.15, atom_jitter=0.0, n_cycles=1
        )
        n_atoms = run_campaign(campaign, seq_ideal).atoms.n_atoms
        n0 = n_atoms[0]
        assert n0 == campaign.initial_atoms
        assert n_atoms[11] == pytest.approx(n0 * 0.85**11)
        assert n_atoms[11] / n0 == pytest.approx(0.167, rel=5e-3)

    def test_zero_loss(self, seq_ideal):
        campaign = small_campaign(loss_fraction=0.0, atom_jitter=0.0, n_cycles=1)
        atom_numbers = set(run_campaign(campaign, seq_ideal).atoms.n_atoms.tolist())
        assert atom_numbers == {campaign.initial_atoms}

    def test_determinism(self, seq_ideal):
        a = run_campaign(small_campaign(seed=7), seq_ideal)
        b = run_campaign(small_campaign(seed=7), seq_ideal)
        assert np.array_equal(a.f1, b.f1)
        assert np.array_equal(a.f2, b.f2)
        assert np.array_equal(a.n_atoms, b.n_atoms)

    def test_jitter_bounds(self, seq_ideal):
        campaign = small_campaign(n_cycles=20, atom_jitter=0.05)
        table = run_campaign(campaign, seq_ideal)
        first_shots = table.n_atoms[(table.seq_index == 0) & ~table.is_reference].tolist()
        assert all(
            0.95 * campaign.initial_atoms <= n <= 1.05 * campaign.initial_atoms
            for n in first_shots
        )
        assert len(set(first_shots)) > 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(loss_fraction=1.0)
        with pytest.raises(ValueError):
            CampaignConfig(n_cycles=0)
        with pytest.raises(ValueError):
            CampaignConfig(atom_jitter=-0.1)

    def test_cycle_count_bounded_by_the_spawn_word(self):
        # The bound a config may ask for, far above any campaign that fits
        # in memory: a larger count is refused before anything is allocated.
        assert CampaignConfig(n_cycles=MAX_CYCLES).n_cycles == 2**32
        with pytest.raises(ValueError, match="n_cycles must be at most 2"):
            CampaignConfig(n_cycles=MAX_CYCLES + 1)


class TestShotTable:
    def _table(self, n=5):
        rng = np.random.default_rng(3)
        is_ref = np.arange(n) >= n - 2
        return ShotTable(
            cycle_id=np.zeros(n, dtype=int),
            seq_index=np.arange(n),
            is_reference=is_ref,
            n_atoms=np.where(is_ref, 0.0, 1e5),
            f=rng.standard_normal((n, 6)),
        )

    def test_rows_and_slices(self):
        table = self._table()
        # A table has no row type: one row is read from the columns.
        with pytest.raises(ValueError, match="shape"):
            table[1]
        part = table[1:3]
        assert isinstance(part, ShotTable) and len(part) == 2
        assert part.seq_index.tolist() == [1, 2]
        assert table.atoms.seq_index.tolist() == [0, 1, 2]
        assert table.references.seq_index.tolist() == [3, 4]

    def test_columns_read_only(self):
        table = self._table()
        with pytest.raises(ValueError):
            table.f1[0, 0] = 1.0
        with pytest.raises(ValueError):
            table.n_atoms[0] = 1.0

    def test_a_writable_base_does_not_change_a_table(self):
        # The table owns its columns: writes to the caller's array reach
        # neither the table nor what it built from them.
        base = np.arange(24.0).reshape(4, 6)
        n_atoms = np.full(4, 1e5)
        table = ShotTable(np.zeros(4, int), np.arange(4), np.zeros(4, bool), n_atoms, base[:])
        assert table.atoms.f[0, 0] == 0.0
        base[0, 0] = 99.0
        n_atoms[1] = 7.0
        assert table.f[0, 0] == table.atoms.f[0, 0] == 0.0
        assert table.n_atoms[1] == table.atoms.n_atoms[1] == 1e5

    def test_the_callers_arrays_stay_writable(self):
        f = np.zeros((2, 6))
        n_atoms = np.ones(2)
        ShotTable(np.zeros(2, int), np.arange(2), np.zeros(2, bool), n_atoms, f)
        f[0, 0] = 1.0
        n_atoms[0] = 2.0
        assert f[0, 0] == 1.0 and n_atoms[0] == 2.0

    def test_checks(self):
        table = self._table()
        with pytest.raises(ValueError, match="reference shots"):
            ShotTable(
                table.cycle_id, table.seq_index, table.is_reference, np.ones(5), table.f
            )
        with pytest.raises(ValueError, match="seq_index"):
            ShotTable(table.cycle_id, [0], table.is_reference, table.n_atoms, table.f)
        with pytest.raises(ValueError, match="shape"):
            ShotTable(
                table.cycle_id, table.seq_index, table.is_reference, table.n_atoms,
                table.f[:, :3],
            )


class TestDatasetIo:
    def test_round_trip(self, seq_ideal, tmp_path):
        table = run_campaign(small_campaign(seed=5, n_cycles=2), seq_ideal)
        path = tmp_path / "shots.csv"
        write_dataset(path, table)
        loaded = read_dataset(path)
        assert len(loaded) == len(table)
        for name in ("f", "n_atoms", "is_reference", "cycle_id", "seq_index"):
            assert np.array_equal(getattr(loaded, name), getattr(table, name)), name

    def test_header_schema(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cycle,seq,ref\n1,2,3\n")
        with pytest.raises(SchemaError, match="cycle_id"):
            read_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            read_dataset(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "bad_value.csv"
        header = "cycle_id,seq_index,is_reference,n_atoms,f1_z,f1_y,f1_x,f2_z,f2_y,f2_x"
        path.write_text(header + "\n0,0,0,abc,0,0,0,0,0,0\n")
        with pytest.raises(SchemaError, match=":2"):
            read_dataset(path)


def _build(section, **kwargs):
    """The named config dataclass at its defaults, with ``kwargs`` set."""
    if section == "field":
        return MagneticField(**{"b": FIELD_111, **kwargs})
    if section == "probe":
        return ProbeConfig(**kwargs)
    if section == "sequence":
        return SequenceConfig(field=MagneticField(FIELD_111), probe=ProbeConfig(), **kwargs)
    return CampaignConfig(**kwargs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "section, key, default",
    [
        ("field", "b", FIELD_111.tolist()),
        ("field", "gyromagnetic_ratio", 4.374e6),
        ("probe", "g1", 9e-8),
        ("probe", "n_photons", 2.8e8),
        ("probe", "pulse_duration", 1e-6),
        ("probe", "readout_noise_override", 1e3),
        ("sequence", "prep_mean_offset", [0.0, 0.0, 0.0]),
        ("sequence", "period_diffusion", 1e4),
        ("sequence", "prep_noise_cov", np.zeros((3, 3)).tolist()),
        ("sequence", "detector_noise_cov", np.zeros((3, 3)).tolist()),
        ("campaign", "initial_atoms", 1.5e6),
    ],
)
def test_non_finite_config_value_is_refused(section, key, default, bad):
    # The JSON loader refuses these too; this is the Python API.  A vector
    # gets the bad value in its middle entry, a matrix on its diagonal.
    _build(section, **{key: default})
    value = np.array(default, dtype=float)
    value[(1,) * value.ndim] = bad
    with pytest.raises(ValueError, match=rf"^{key} must be finite"):
        _build(section, **{key: value.tolist() if value.ndim else float(value)})


def _random_psd(rng, rank):
    g = 1e5 * rng.standard_normal((3, rank))
    return g @ g.T


class TestCholesky3:
    """``_cholesky3``, the factor rule for each shot's prepared covariance."""

    MATRICES = {
        "rank-0": np.zeros((3, 3)),
        "zero-first-diagonal": np.array([[0.0, 0.0, 0.0], [0.0, 4e5, 2e5], [0.0, 2e5, 5e5]]),
        "zero-middle-diagonal": np.array([[4e5, 0.0, 2e5], [0.0, 0.0, 0.0], [2e5, 0.0, 5e5]]),
        "campaign-noisy-prep": 1e5 * (0.5 * np.eye(3) + 0.5 * np.ones((3, 3))),
        "singular-detector": np.diag([1e5, 0.0, 1e5]),
    }

    @staticmethod
    def factor(a):
        return np.array(_cholesky3(a.tolist()), dtype=float)

    @pytest.mark.parametrize("rank", [3, 2, 1, 0])
    def test_factors_random_psd_matrices(self, rank):
        # Fixed draws; an unpivoted factor of a singular matrix loses
        # accuracy when its leading 2x2 block is itself near-singular.
        rng = np.random.default_rng(rank)
        for _ in range(5):
            a = _random_psd(rng, rank)
            low = self.factor(a)
            assert np.array_equal(low, np.tril(low))
            np.testing.assert_allclose(low @ low.T, a, rtol=0, atol=1e-12 * np.abs(a).max())

    @pytest.mark.parametrize("name", list(MATRICES))
    def test_factors_singular_and_structured_matrices(self, name):
        a = self.MATRICES[name]
        low = self.factor(a)
        assert np.array_equal(low, np.tril(low))
        np.testing.assert_allclose(low @ low.T, a, rtol=0, atol=1e-12 * max(np.abs(a).max(), 1.0))
        # A zero diagonal entry gives a zero column.
        for j in np.flatnonzero(np.diag(a) == 0.0):
            assert not np.any(low[:, j])

    def test_batch_matches_each_matrix_bit_for_bit(self):
        rng = np.random.default_rng(7)
        mats = [_random_psd(rng, rank) for rank in (3, 2, 1, 0)] + list(self.MATRICES.values())
        mats = [m + 2e5 * k * np.eye(3) for k in (0, 1) for m in mats]
        columns = [[np.array([m[i, j] for m in mats]) for j in range(3)] for i in range(3)]
        batch = np.reshape(np.broadcast_arrays(*sum(_cholesky3(columns), [])), (3, 3, -1))
        for k, m in enumerate(mats):
            one = np.array(_cholesky3(m.tolist()), dtype=float)
            assert batch[:, :, k].tobytes() == one.tobytes(), k


class TestPivotedFactor:
    """``_pivoted_factor``, the factor of the constant ``detector_noise_cov``."""

    @staticmethod
    def factor(a):
        return np.array(_pivoted_factor(a.tolist()), dtype=float)

    def test_factors_random_rank_2_matrices(self):
        # Unpivoted (``_cholesky3``), 3 of these miss G G^T by more than
        # 1e-12 of its largest entry, the worst by 1.4e-9: a near-singular
        # leading 2x2 block divides by a pivot that is mostly rounding.
        # Pivoting leaves that pivot last, where it divides nothing.
        rng = np.random.default_rng(11)
        for _ in range(3000):
            g = rng.standard_normal((3, 2)) * 10.0 ** rng.uniform(-3, 6)
            a = g @ g.T
            a = 0.5 * (a + a.T)
            m = self.factor(a)
            np.testing.assert_allclose(m @ m.T, a, rtol=0, atol=1e-12 * np.abs(a).max())

    @pytest.mark.parametrize("name", list(TestCholesky3.MATRICES))
    def test_factors_singular_and_structured_matrices(self, name):
        a = TestCholesky3.MATRICES[name]
        m = self.factor(a)
        np.testing.assert_allclose(m @ m.T, a, rtol=0, atol=1e-12 * max(np.abs(a).max(), 1.0))
        # A zero diagonal entry gives a zero row.
        for j in np.flatnonzero(np.diag(a) == 0.0):
            assert not np.any(m[j])

    @pytest.mark.parametrize(
        "a",
        [
            1e5 * np.eye(3),
            np.array([[1e5, 2e4, 0.0], [2e4, 8e4, 1e4], [0.0, 1e4, 6e4]]),
            1e5 * (0.5 * np.eye(3) + 0.5 * np.ones((3, 3))),
        ],
    )
    def test_no_reordering_gives_the_cholesky3_factor_bit_for_bit(self, a):
        # Each step's largest remaining diagonal is the next index (by
        # ties to the lower index for 1e5 I and 1e5 (I + J) / 2), so the
        # draws of such a config, campaign-noisy's included, do not move.
        assert self.factor(a).tobytes() == TestCholesky3.factor(a).tobytes()

    def test_largest_diagonal_first_ties_to_the_lower_index(self):
        # diag(1e5, 0, 1e5): steps take index 0, then 2, then 1, so index
        # 2 reads the second draw of the block and index 1 none.
        m = self.factor(np.diag([1e5, 0.0, 1e5]))
        root = math.sqrt(1e5)
        assert m.tolist() == [[root, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, root, 0.0]]
