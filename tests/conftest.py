import math

import numpy as np
import pytest

from singletsim import (
    MagneticField,
    ProbeConfig,
    SequenceConfig,
    ShotTable,
    conditional_covariance,
    engine_covariance,
)

# 16.9 mG along [1,1,1]: T_L = 85 us with the default gyromagnetic ratio.
FIELD_111 = np.ones(3) * 16.9e-3 / math.sqrt(3.0)

# Supplementary input covariance at N_A = 1.4e6 (spins^2).
GAMMA1_PAPER = (
    np.array(
        [
            [1.90, 1.10, 1.10],
            [1.10, 1.40, 0.81],
            [1.10, 0.81, 1.30],
        ]
    )
    * 1e6
)


@pytest.fixture
def field():
    return MagneticField(FIELD_111)


@pytest.fixture
def probe_ideal():
    """Quoted coupling constants with ideal detection (b = 1)."""
    return ProbeConfig(efficiency=1.0)


@pytest.fixture
def probe_paper():
    """Quoted coupling constants with the fitted efficiency b = 0.75."""
    return ProbeConfig()


@pytest.fixture
def seq_ideal(field, probe_ideal):
    return SequenceConfig(field=field, probe=probe_ideal)


def schur_trace(f1, f2):
    """Empirical conditional-covariance trace of two vector measurements."""
    from singletsim import conditional_covariance, sample_covariance

    c6 = sample_covariance(np.hstack([f1, f2]))
    return conditional_covariance(c6[:3, :3], c6[3:, 3:], c6[:3, 3:]).trace


def engine_schur(cfg, n_atoms):
    """Exact covariance of f2 conditioned on f1, in readout order (z, y, x).

    The Schur complement of ``engine_covariance``'s blocks, through the
    same ``conditional_covariance`` the analysis applies to data.
    """
    c6 = engine_covariance(cfg, n_atoms)
    return conditional_covariance(c6[:3, :3], c6[3:, 3:], c6[:3, 3:])


def shot_table(f1, f2, n_atoms, is_reference=False):
    """A table of the given readouts: rows numbered by seq_index, cycle 0.

    ``n_atoms`` and ``is_reference`` are one value per row or one for all.
    """
    n = len(f1)
    return ShotTable(
        cycle_id=np.zeros(n, dtype=np.int64),
        seq_index=np.arange(n),
        is_reference=np.array(np.broadcast_to(is_reference, (n,)), dtype=bool),
        n_atoms=np.array(np.broadcast_to(n_atoms, (n,)), dtype=float),
        f=np.hstack([f1, f2]).reshape(n, 6),
    )
