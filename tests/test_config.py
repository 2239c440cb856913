"""The config schema derived from the dataclasses: types, round trip, docs."""

import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singletsim import ConfigError
from singletsim.config import (
    _TYPE_RULES,
    SCHEMA,
    SECTIONS,
    config_from_dict,
    config_to_dict,
)

README = Path(__file__).resolve().parents[1] / "README.md"

DEFAULTS = config_to_dict(config_from_dict({}))

# Every settable value, each set away from its default.
NON_DEFAULT = {
    "seed": 9,
    "probe": {
        "g1": 8.0e-8,
        "n_photons": 1.0e8,
        "pulse_duration": 2.0e-6,
        "efficiency": 0.5,
        "readout_noise_override": 515.0,
        "light_backaction": True,
    },
    # The sequence needs a field along [1, 1, 1]; only its magnitude moves.
    "field": {"b": [0.005, 0.005, 0.005], "gyromagnetic_ratio": 4.0e6},
    "sequence": {
        "prep_noise_cov": [[1.0e3, 0.0, 0.0], [0.0, 2.0e3, 0.0], [0.0, 0.0, 3.0e3]],
        "prep_mean_offset": [1.0, 2.0, 3.0],
        "detector_noise_cov": [[5.0, 1.0, 0.0], [1.0, 5.0, 0.0], [0.0, 0.0, 5.0]],
        "period_diffusion": 10.0,
        "intra_pulse_rotation": True,
    },
    "campaign": {
        "n_cycles": 5,
        "sequences_per_cycle": 4,
        "loss_fraction": 0.1,
        "initial_atoms": 1.0e6,
        "reference_shots_per_cycle": 3,
        "atom_jitter": 0.02,
    },
    "analysis": {
        "n_bins": 4,
        "min_bin_shots": 5,
        "cutoff": 1.5,
        "n_resamples": 50,
        "use_analytic_v0": True,
    },
}

FILLED = {"field", "probe", "master_seed"}


class TestRoundTrip:
    def test_keys_are_the_dataclass_fields(self):
        # A field added to a config dataclass reaches provenance.
        assert set(DEFAULTS) == {"seed", *SECTIONS}
        for name, cls in SECTIONS.items():
            assert set(DEFAULTS[name]) == {f.name for f in fields(cls)} - FILLED, name

    def test_every_value_set_is_stable(self):
        assert {k: set(v) for k, v in NON_DEFAULT.items() if k != "seed"} == {
            k: set(v) for k, v in DEFAULTS.items() if k != "seed"
        }
        for name, section in NON_DEFAULT.items():
            if name == "seed":
                continue
            for key, value in section.items():
                assert value != DEFAULTS[name][key], f"{name}.{key}"
        resolved = config_to_dict(config_from_dict(NON_DEFAULT))
        assert resolved == NON_DEFAULT
        assert config_to_dict(config_from_dict(resolved)) == resolved
        assert json.loads(json.dumps(resolved)) == resolved

    def test_settable_value_count(self):
        assert 1 + sum(len(keys) for keys in SCHEMA.values()) == 25

    def test_every_type_rule_is_used(self):
        # A rule no annotation asks for is dead code.
        assert set(_TYPE_RULES) == {h for keys in SCHEMA.values() for h in keys.values()}
        assert len(_TYPE_RULES) == 5

    def test_removed_keys_are_unknown(self):
        # Old provenance files holding them are refused, not half-read.
        for payload, message in [
            ({"constants": {"wavelength": 7.8e-7}}, "constants: unknown key"),
            ({"probe": {"g2": -4.1e-9}}, "probe.g2: unknown key"),
            ({"sequence": {"n_pulses": 6}}, "sequence.n_pulses: unknown key"),
            ({"sequence": {"pulses_per_period": 3}}, "pulses_per_period: unknown key"),
            ({"analysis": {"seed": 0}}, "analysis.seed: unknown key"),
            ({"analysis": {"mean_mode": "per_bin"}}, "analysis.mean_mode: unknown key"),
            ({"analysis": {"f": 1.0}}, "analysis.f: unknown key"),
        ]:
            with pytest.raises(ConfigError, match=re.escape(message)):
                config_from_dict({"kind": "provenance", "config": payload})

    def test_readme_block_matches_schema(self):
        text = README.read_text()
        section = text[text.index("### Configuration") :]
        block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        documented = json.loads(block)
        assert set(documented) == set(DEFAULTS)
        for name in SECTIONS:
            assert set(documented[name]) == set(DEFAULTS[name]), name


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
BAD_ENTRY = st.one_of(st.booleans(), NON_FINITE, st.text(max_size=3), st.none())


def with_bad_entry(default):
    """The default array with one entry replaced by a non-number."""

    def put(drawn):
        index, bad = drawn
        arr = np.array(default, dtype=object)
        arr.flat[index] = bad
        return arr.tolist()

    return st.tuples(st.integers(0, np.size(default) - 1), BAD_ENTRY).map(put)


def wrong_kind(hint, default):
    """Values a field of this annotation must refuse."""
    scalar_list = st.lists(st.floats(), max_size=3)
    if hint is bool:
        return st.one_of(st.integers(), st.floats(), st.text(), st.none(), scalar_list)
    if hint is int:
        return st.one_of(st.booleans(), st.floats(), st.text(), st.none(), scalar_list)
    if hint is float or hint == (float | None):
        wrong = [st.booleans(), NON_FINITE, st.text(), scalar_list]
        return st.one_of(*wrong, *([st.none()] if hint is float else []))
    assert hint is np.ndarray, hint
    return st.one_of(st.floats(), st.booleans(), st.text(), st.none(), with_bad_entry(default))


@pytest.mark.parametrize(
    "section, key", [(name, key) for name, keys in SCHEMA.items() for key in keys]
)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_wrong_kind_value_names_its_key(section, key, data):
    value = data.draw(wrong_kind(SCHEMA[section][key], DEFAULTS[section][key]))
    with pytest.raises(ConfigError) as info:
        config_from_dict({section: {key: value}})
    assert f"{section}.{key} must be" in str(info.value)


@given(
    value=st.one_of(
        st.booleans(), st.floats(), st.text(), st.none(), st.integers(max_value=-1)
    )
)
@settings(max_examples=30, deadline=None)
def test_bad_top_level_seed(value):
    with pytest.raises(ConfigError, match="seed must be"):
        config_from_dict({"seed": value})
