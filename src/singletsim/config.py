"""Run configuration: JSON ingestion, validation, and provenance echo.

A run config is a single JSON file with optional sections ``probe``,
``field``, ``sequence``, ``campaign`` and ``analysis`` and a top-level
``seed``.  Every omitted value falls back to the published operating
point of the experiment, so ``simulate`` with an empty object ``{}``
already reproduces that regime.  The provenance file written next to a
dataset contains the fully resolved config and can itself be passed back
as ``--config``.

The schema is read from the config dataclasses: a section's keys are the
fields of its class (``SECTIONS``), less the ones filled from elsewhere
(a sequence's ``field`` and ``probe`` sections and the campaign's
``master_seed``, which is the top-level ``seed``), and each value is
checked against the field's annotation:

- ``bool`` takes only ``true`` or ``false``;
- ``int`` takes an integer, never a bool or a float such as ``2.0``;
- ``float`` takes a finite number, never a bool; ``float | None`` also
  takes ``null``;
- ``np.ndarray`` takes nested lists of finite numbers, never bools.

Unknown keys and badly typed values raise ``ConfigError`` naming
``section.key``; range checks are the dataclasses' own.  A provenance
file that still holds a key since removed from the schema
(``constants``, ``probe.g2``, ``sequence.n_pulses``,
``sequence.pulses_per_period``, ``analysis.seed``, ``analysis.mean_mode``,
``analysis.f``) is rejected with ``unknown key`` like any other.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .analysis import AnalysisOptions
from .errors import ConfigError
from .probe import ProbeConfig
from .sequence import CampaignConfig, SequenceConfig
from .spins import MagneticField

# Config section -> the dataclass it builds.
SECTIONS = {
    "probe": ProbeConfig,
    "field": MagneticField,
    "sequence": SequenceConfig,
    "campaign": CampaignConfig,
    "analysis": AnalysisOptions,
}

# Dataclass fields that are not config keys: they are filled from
# other sections or from the top-level seed.
_FILLED = {"field", "probe", "master_seed"}


def _is_finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_finite_array(v) -> bool:
    return isinstance(v, list) and all(
        _is_finite_array(x) if isinstance(x, list) else _is_finite(x) for x in v
    )


# Annotation -> (accepts a JSON value, what the diagnostic says it must be).
_TYPE_RULES = {
    bool: (lambda v: isinstance(v, bool), "must be true or false"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "must be an integer"),
    float: (_is_finite, "must be a finite number"),
    float | None: (lambda v: v is None or _is_finite(v), "must be a finite number or null"),
    np.ndarray: (_is_finite_array, "must be a list (of lists) of finite numbers"),
}


def _schema(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.name not in _FILLED}


# Section -> {key: annotation}, the whole settable schema.
SCHEMA = {name: _schema(cls) for name, cls in SECTIONS.items()}


@dataclass(frozen=True)
class RunConfig:
    seed: int
    probe: ProbeConfig
    field: MagneticField
    sequence: SequenceConfig
    campaign: CampaignConfig
    analysis: AnalysisOptions

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(
            self, seed=seed, campaign=replace(self.campaign, master_seed=seed)
        )


def _check_value(path: str, value, hint, errors: list) -> bool:
    accepts, requirement = _TYPE_RULES[hint]
    if accepts(value):
        return True
    errors.append(f"{path} {requirement}, got {value!r}")
    return False


def _section_kwargs(name: str, data, errors: list) -> dict:
    """The well-typed keys of one section; every other key is an error."""
    if data is None:
        return {}
    if not isinstance(data, dict):
        errors.append(f"{name}: expected an object")
        return {}
    schema = SCHEMA[name]
    kwargs = {}
    for key, value in data.items():
        if key not in schema:
            errors.append(f"{name}.{key}: unknown key")
        elif _check_value(f"{name}.{key}", value, schema[key], errors):
            kwargs[key] = value
    return kwargs


def _build(name: str, kwargs: dict, errors: list):
    try:
        return SECTIONS[name](**kwargs)
    except ValueError as exc:
        errors.append(f"{name}: {exc}")
        return None


def config_from_dict(data: dict) -> RunConfig:
    """Validate a parsed config object and build all module configs."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    # Accept a provenance file transparently.
    if "config" in data and isinstance(data.get("config"), dict):
        data = data["config"]

    errors: list[str] = []
    for key in sorted(set(data) - {"seed", *SECTIONS}):
        errors.append(f"{key}: unknown key")
    seed = data.get("seed", 0)
    if not _check_value("seed", seed, int, errors):
        seed = 0
    elif seed < 0:
        errors.append("seed must be non-negative")
        seed = 0

    kwargs = {name: _section_kwargs(name, data.get(name), errors) for name in SECTIONS}
    probe = _build("probe", kwargs["probe"], errors)
    field = _build("field", kwargs["field"], errors)
    sequence = None
    if probe is not None and field is not None:
        sequence = _build(
            "sequence", {**kwargs["sequence"], "field": field, "probe": probe}, errors
        )
    campaign = _build("campaign", {**kwargs["campaign"], "master_seed": seed}, errors)
    analysis = _build("analysis", kwargs["analysis"], errors)

    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    return RunConfig(seed, probe, field, sequence, campaign, analysis)


def load_config(path) -> RunConfig:
    """Read and validate a JSON config (or provenance) file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return config_from_dict(data)


def _json_value(value):
    return value.tolist() if isinstance(value, np.ndarray) else value


def config_to_dict(cfg: RunConfig) -> dict:
    """Fully resolved config, round-trippable through ``config_from_dict``."""
    out = {"seed": cfg.seed}
    for name, schema in SCHEMA.items():
        section = getattr(cfg, name)
        out[name] = {key: _json_value(getattr(section, key)) for key in schema}
    return out
