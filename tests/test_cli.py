import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from singletsim import fid_signal, load_config
from singletsim.cli import CALIBRATION_COLUMNS, _parse_scan, main
from singletsim.config import config_from_dict, config_to_dict
from singletsim.magnetometry import FID_CSV_COLUMNS
from singletsim.sequence import DATASET_COLUMNS, read_dataset

SRC = Path(__file__).resolve().parents[1] / "src"

TINY_CAMPAIGN = {
    "seed": 11,
    "campaign": {
        "n_cycles": 3,
        "sequences_per_cycle": 4,
        "initial_atoms": 6e5,
        "reference_shots_per_cycle": 2,
    },
    "analysis": {"n_bins": 3, "min_bin_shots": 2, "n_resamples": 40},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def fid_trace_lines(b=(9.6e-3, 9.7e-3, 9.9e-3), t2=745e-6, f0=1e6, g1=9.0e-8):
    """A noiseless two-branch FID trace as CSV lines, header first."""
    t = np.arange(0.0, 1.5e-3, 0.5e-6)
    rows = ["t_us,theta_rad,branch"]
    for axis in ("z", "y"):
        for ti, theta in zip(t, fid_signal(t, b, axis, f0, g1, t2)):
            rows.append(f"{float(ti) * 1e6!r},{float(theta)!r},{axis}")
    return rows


def calibration_lines():
    """Noiseless (phi, n_atoms) pairs at g1 = 9e-8, header first."""
    lines = ["phi_rad,n_atoms"]
    for n in np.linspace(1e5, 1.5e6, 6):
        lines.append(f"{float(9.0e-8 * n)!r},{float(n)!r}")
    return lines


class TestConfig:
    def test_empty_config_is_paper_regime(self):
        cfg = config_from_dict({})
        assert cfg.probe.g1 == 9.0e-8
        assert cfg.probe.n_photons == 2.8e8
        assert cfg.campaign.n_cycles == 602
        assert cfg.campaign.sequences_per_cycle == 12
        assert cfg.campaign.loss_fraction == 0.15
        assert np.linalg.norm(cfg.field.b) == pytest.approx(16.9e-3)

    def test_round_trip(self):
        cfg = config_from_dict(TINY_CAMPAIGN)
        again = config_from_dict(config_to_dict(cfg))
        assert config_to_dict(again) == config_to_dict(cfg)

    def test_unknown_keys_rejected(self, tmp_path):
        path = write_config(tmp_path, {"probe": {"g3": 1.0}, "bogus": 2})
        with pytest.raises(Exception) as info:
            load_config(path)
        message = str(info.value)
        assert "probe.g3" in message
        assert "bogus" in message

    def test_invalid_values_diagnosed(self):
        from singletsim import ConfigError

        with pytest.raises(ConfigError, match="probe"):
            config_from_dict({"probe": {"efficiency": 2.0}})
        with pytest.raises(ConfigError, match="campaign"):
            config_from_dict({"campaign": {"loss_fraction": 1.5}})

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2


class TestSimulate:
    def test_tiny_campaign_outputs(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY_CAMPAIGN)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        table = read_dataset(out / "shots.csv")
        assert len(table.atoms) == 3 * 4
        assert len(table.references) == 3 * 2
        provenance = json.loads((out / "provenance.json").read_text())
        assert provenance["config"]["seed"] == 11
        assert provenance["n_records"] == len(table)

    def test_single_shot_campaign(self, tmp_path):
        payload = {
            "campaign": {
                "n_cycles": 1,
                "sequences_per_cycle": 1,
                "reference_shots_per_cycle": 2,
                "initial_atoms": 1e5,
            }
        }
        cfg_path = write_config(tmp_path, payload)
        out = tmp_path / "single"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        table = read_dataset(out / "shots.csv")
        assert len(table.atoms) == 1
        assert len(table.references) == 2

    def test_byte_identical_repeat(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY_CAMPAIGN)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg_path), "--out", str(out1)])
        main(["simulate", "--config", str(cfg_path), "--out", str(out2)])
        assert (out1 / "shots.csv").read_bytes() == (out2 / "shots.csv").read_bytes()
        assert (out1 / "provenance.json").read_bytes() == (
            out2 / "provenance.json"
        ).read_bytes()

    def test_shots_do_not_depend_on_the_blas_kernel(self, tmp_path):
        # The engine's arithmetic is plain products and sums and its
        # covariance factors are elementwise Cholesky, so without
        # back-action the shots are the same under OpenBLAS's default
        # kernel and under Prescott, a kernel without fused multiply-add.
        # The second config has campaign-noisy's prep_noise_cov, whose
        # eigenvalue 5e4 is doubly degenerate (its eigenvectors are not
        # unique), and a singular detector_noise_cov.  Each run is a
        # fresh interpreter: OpenBLAS reads the variable when it loads.
        # Under another BLAS the variable does nothing and the runs agree.
        # The third config's near-[1, 1, 1] field has a magnitude whose
        # last bit a BLAS dot (np.linalg.norm) takes from the kernel.
        common = {"period_diffusion": 1e4, "intra_pulse_rotation": True}
        sequences = {
            "offset": {**common, "prep_mean_offset": [400.0, -250.0, 120.0]},
            "noisy": {
                **common,
                "prep_noise_cov": (1e5 * (0.5 * np.eye(3) + 0.5 * np.ones((3, 3)))).tolist(),
                "detector_noise_cov": np.diag([1e5, 0.0, 1e5]).tolist(),
            },
        }
        payloads = {
            name: {"seed": 3, "campaign": {"n_cycles": 20}, "sequence": sequence}
            for name, sequence in sequences.items()
        }
        b = [0.00020036664035499543, 0.0002003666338193072, 0.00020036663663873793]
        payloads["field"] = {"seed": 1, "campaign": {"n_cycles": 20}, "field": {"b": b}}
        path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        for config, payload in payloads.items():
            cfg_path = write_config(tmp_path, payload, f"{config}.json")
            shots = []
            for kernel, extra in (("default", {}), ("prescott", {"OPENBLAS_CORETYPE": "Prescott"})):
                out = tmp_path / f"{config}-{kernel}"
                proc = subprocess.run(
                    [sys.executable, "-m", "singletsim.cli", "simulate"]
                    + ["--config", str(cfg_path), "--out", str(out)],
                    env={**env, **extra, "PYTHONPATH": path},
                    capture_output=True,
                    text=True,
                    timeout=120,
                )
                assert proc.returncode == 0, proc.stderr
                shots.append((out / "shots.csv").read_bytes())
            assert shots[0] == shots[1], config

    def test_seed_override_changes_data(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY_CAMPAIGN)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg_path), "--out", str(out1)])
        main(["simulate", "--config", str(cfg_path), "--out", str(out2), "--seed", "99"])
        assert (out1 / "shots.csv").read_bytes() != (out2 / "shots.csv").read_bytes()

    def test_provenance_reingestion(self, tmp_path):
        # The provenance record is itself a valid config reproducing the run.
        cfg_path = write_config(tmp_path, TINY_CAMPAIGN)
        out1 = tmp_path / "a"
        main(["simulate", "--config", str(cfg_path), "--out", str(out1)])
        out2 = tmp_path / "b"
        main(["simulate", "--config", str(out1 / "provenance.json"), "--out", str(out2)])
        assert (out1 / "shots.csv").read_bytes() == (out2 / "shots.csv").read_bytes()

    def test_worker_invariance(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY_CAMPAIGN)
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        main(["simulate", "--config", str(cfg_path), "--out", str(out1), "--workers", "1"])
        main(["simulate", "--config", str(cfg_path), "--out", str(out2), "--workers", "3"])
        assert (out1 / "shots.csv").read_bytes() == (out2 / "shots.csv").read_bytes()

    def test_invalid_config_exit_code(self, tmp_path):
        cfg_path = write_config(tmp_path, {"probe": {"efficiency": -1}})
        out = tmp_path / "bad"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert not (out / "shots.csv").exists()

    def test_indefinite_prep_noise_exit_code(self, tmp_path, capsys):
        # -2e5 on z outweighs the thermal (2/3) N once N < 3e5, which the
        # late shots of each cycle reach from 4e5 initial atoms.
        payload = {
            **TINY_CAMPAIGN,
            "campaign": {**TINY_CAMPAIGN["campaign"], "initial_atoms": 4e5},
            "sequence": {"prep_noise_cov": [[-2e5, 0, 0], [0, 0, 0], [0, 0, 0]]},
        }
        cfg_path = write_config(tmp_path, payload)
        out = tmp_path / "indefinite"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert not out.exists()
        assert "prep_noise_cov" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cov, reason",
        [
            ([[-1e5, 0, 0], [0, 0, 0], [0, 0, 0]], "not positive semidefinite"),
            ([[1e5, 5e4, 0], [0, 1e5, 0], [0, 0, 1e5]], "not symmetric"),
        ],
    )
    def test_invalid_detector_noise_exit_code(self, tmp_path, capsys, cov, reason):
        payload = {**TINY_CAMPAIGN, "sequence": {"detector_noise_cov": cov}}
        cfg_path = write_config(tmp_path, payload)
        out = tmp_path / "detector"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert not (out / "shots.csv").exists()
        err = capsys.readouterr().err
        assert "detector_noise_cov" in err and reason in err

    @pytest.mark.parametrize("value", [2.0, True])
    @pytest.mark.parametrize(
        "key", ["n_cycles", "sequences_per_cycle", "reference_shots_per_cycle"]
    )
    def test_non_integer_campaign_field_exit_code(self, tmp_path, capsys, key, value):
        payload = {"campaign": {**TINY_CAMPAIGN["campaign"], key: value}}
        cfg_path = write_config(tmp_path, payload)
        out = tmp_path / "nonint"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert not (out / "shots.csv").exists()
        assert f"{key} must be an integer" in capsys.readouterr().err

    def test_negative_seed_override_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, TINY_CAMPAIGN)
        out = tmp_path / "negative_seed"
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(out), "--seed", "-3"])
        assert rc == 2
        assert not (out / "shots.csv").exists()
        assert "--seed: master_seed must be non-negative" in capsys.readouterr().err

    def test_too_many_cycles_exit_code(self, tmp_path, capsys):
        # 2**32 cycles is far more than any campaign that fits in memory;
        # the config refuses more before anything is allocated.
        cfg_path = write_config(tmp_path, {"campaign": {"n_cycles": 2**32 + 1}})
        out = tmp_path / "too_many"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert not out.exists()
        assert "campaign: n_cycles must be at most 2**32" in capsys.readouterr().err

    def test_zero_field_exit_code(self, tmp_path, capsys):
        payload = {**TINY_CAMPAIGN, "field": {"b": [0, 0, 0]}}
        cfg_path = write_config(tmp_path, payload)
        out = tmp_path / "zero_field"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert not (out / "shots.csv").exists()
        assert "sequence: field must be non-zero" in capsys.readouterr().err

    def test_off_axis_field_exit_code(self, tmp_path, capsys):
        # The f*_z/y/x columns name the components read only for a field
        # along [1, 1, 1]; along z every column would read lab S_z.
        payload = {**TINY_CAMPAIGN, "field": {"b": [0, 0, 0.0169]}}
        cfg_path = write_config(tmp_path, payload)
        out = tmp_path / "off_axis"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert not (out / "shots.csv").exists()
        assert not (out / "provenance.json").exists()
        assert "sequence: field.b must point along [1, 1, 1]" in capsys.readouterr().err

    def test_default_config_reproduces_campaign_structure(self, tmp_path):
        # An empty config is the published campaign: 602 loading cycles
        # of 12 sequences = 7224 atom shots, plus reference shots.
        cfg_path = write_config(tmp_path, {})
        out = tmp_path / "full"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        table = read_dataset(out / "shots.csv")
        assert len(table.atoms) == 7224
        assert len(table.references) == 602 * 2


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    cfg_path = write_config(out, TINY_CAMPAIGN)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out / "run")]) == 0
    return out / "run" / "shots.csv"


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("analysis", "n_bins", True),
        ("analysis", "n_resamples", 2.5),
        ("analysis", "min_bin_shots", 2.5),
        ("analysis", "use_analytic_v0", 1),
        ("analysis", "cutoff", -0.5),
        ("probe", "light_backaction", "no"),
        ("sequence", "intra_pulse_rotation", "false"),
        ("probe", "readout_noise_override", True),
        ("probe", "g1", "x"),
        ("campaign", "initial_atoms", math.nan),
        ("probe", "n_photons", math.inf),
        ("field", "gyromagnetic_ratio", math.nan),
        ("field", "b", [0.01, math.nan, 0.01]),
        ("sequence", "prep_noise_cov", [[math.nan, 0, 0], [0, 0, 0], [0, 0, 0]]),
        ("sequence", "period_diffusion", math.nan),
    ],
)
def test_bad_config_value_exit_code(tiny_dataset, tmp_path, capsys, section, key, value):
    # Every config value is checked on load, so both commands refuse it
    # before writing anything.
    payload = {**TINY_CAMPAIGN, section: {**TINY_CAMPAIGN.get(section, {}), key: value}}
    cfg_path = write_config(tmp_path, payload)
    sim, an = tmp_path / "sim", tmp_path / "an"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(sim)]) == 2
    assert main(["analyze", str(tiny_dataset), "--out", str(an), "--config", str(cfg_path)]) == 2
    assert not (sim / "shots.csv").exists()
    assert not (sim / "provenance.json").exists()
    assert not (an / "report.json").exists()
    err = capsys.readouterr().err
    assert err.count("config error") == 2
    assert f"{section}.{key} must be" in err or f"{section}: {key} must be" in err


class TestAnalyze:
    @pytest.fixture
    def dataset(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY_CAMPAIGN)
        out = tmp_path / "run"
        main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        return out / "shots.csv", cfg_path

    def test_report_outputs(self, dataset, tmp_path):
        shots, cfg_path = dataset
        out = tmp_path / "analysis"
        rc = main(
            [
                "analyze",
                str(shots),
                "--out",
                str(out),
                "--config",
                str(cfg_path),
                "--cutoff-scan",
                "0.25:3.0:0.25",
            ]
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert "v0" in report and "bins" in report and "fits" in report
        scan_lines = (out / "cutoff_scan.csv").read_text().splitlines()
        assert scan_lines[0] == "C,xi2,xi2_stderr,n_selected"
        assert len(scan_lines) == 1 + 12
        scaling = (out / "noise_scaling.csv").read_text().splitlines()
        assert scaling[0] == "n_atoms,v1_tilde,v2_tilde,v_cond_tilde"

    def test_reference_only_dataset(self, tmp_path):
        payload = {
            "campaign": {
                "n_cycles": 30,
                "sequences_per_cycle": 1,
                "initial_atoms": 6e5,
                "reference_shots_per_cycle": 3,
            },
            "analysis": {"n_resamples": 40},
        }
        cfg_path = write_config(tmp_path, payload)
        out = tmp_path / "refrun"
        main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        # Keep only the no-atom reference rows.
        lines = (out / "shots.csv").read_text().splitlines()
        refs_only = [lines[0]] + [l for l in lines[1:] if l.split(",")[2] == "1"]
        ref_csv = tmp_path / "refs.csv"
        ref_csv.write_text("\n".join(refs_only) + "\n")
        analysis_out = tmp_path / "refanalysis"
        rc = main(["analyze", str(ref_csv), "--out", str(analysis_out)])
        assert rc == 0
        report = json.loads((analysis_out / "report.json").read_text())
        assert report["bins"] == []
        assert report["v0"] > 0
        assert abs(report["reference_v1_tilde"]) < 0.3 * report["v0"]

    def test_one_reference_row_leaves_no_output(self, tmp_path, capsys):
        columns, reference_row = INPUT_FILES["analyze"]
        shots = tmp_path / "one_reference.csv"
        shots.write_text(",".join(columns) + "\n" + reference_row + "\n")
        out = tmp_path / "out"
        assert main(["analyze", str(shots), "--out", str(out)]) == 3
        assert not out.exists()
        assert "data error: need at least 2 reference shots" in capsys.readouterr().err

    def test_schema_error_exit(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["analyze", str(bad), "--out", str(tmp_path / "x")]) == 3

    @pytest.mark.parametrize(
        "column, value, reason",
        [
            ("f1_x", "nan", "non-finite"),
            ("n_atoms", "-5.0", "negative n_atoms"),
            ("is_reference", "yes", "is_reference must be one of"),
            ("cycle_id", "1" + "0" * 20, "cycle_id and seq_index must fit in 64 bits"),
        ],
    )
    def test_bad_value_schema_error(self, dataset, tmp_path, capsys, column, value, reason):
        shots, _ = dataset
        lines = shots.read_text().splitlines()
        row = lines[3].split(",")
        row[lines[0].split(",").index(column)] = value
        lines[3] = ",".join(row)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "bad_analysis"
        assert main(["analyze", str(bad), "--out", str(out)]) == 3
        assert not (out / "report.json").exists()
        assert f"{bad}:4: {reason}" in capsys.readouterr().err

    def test_duplicate_row_schema_error(self, dataset, tmp_path, capsys):
        shots, _ = dataset
        lines = shots.read_text().splitlines()
        lines[4] = lines[2]
        bad = tmp_path / "dup.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "dup_analysis"
        assert main(["analyze", str(bad), "--out", str(out)]) == 3
        assert not (out / "report.json").exists()
        err = capsys.readouterr().err
        assert f"{bad}:5: duplicate (cycle_id, seq_index) = (0, 1), first on line 3" in err

    @pytest.mark.parametrize("column", ["cycle_id", "seq_index"])
    @pytest.mark.parametrize("value", [-(2**63), 2**63 - 1, -(2**63) - 1, 2**63])
    def test_key_range_is_int64(self, dataset, tmp_path, capsys, column, value):
        # Keys are signed 64-bit: both ends of [-2**63, 2**63) are read,
        # one past either end names the line.
        shots, _ = dataset
        lines = shots.read_text().splitlines()
        row = lines[3].split(",")
        row[lines[0].split(",").index(column)] = str(value)
        lines[3] = ",".join(row)
        edited = tmp_path / "keys.csv"
        edited.write_text("\n".join(lines) + "\n")
        out = tmp_path / "keys_analysis"
        rc = main(["analyze", str(edited), "--out", str(out)])
        if -(2**63) <= value < 2**63:
            assert rc == 0
            assert (out / "report.json").exists()
        else:
            assert rc == 3
            assert not out.exists()
            err = capsys.readouterr().err
            assert f"{edited}:4: cycle_id and seq_index must fit in 64 bits" in err

    @pytest.mark.parametrize(
        "option, analysis, message",
        [
            ([], {"cutoff": 0}, "analysis: cutoff must be finite and positive"),
            ([], {"n_bins": 0}, "analysis: n_bins must be >= 1"),
            ([], {"n_resamples": 1}, "analysis: n_resamples must be >= 2"),
            (["--cutoff-scan", "0:1:0.5"], {}, "--cutoff-scan requires"),
            (["--cutoff-scan", "nan:1:0.5"], {}, "--cutoff-scan requires"),
            (["--cutoff-scan", "0.25:inf:0.25"], {}, "--cutoff-scan requires"),
            (["--cutoff-scan", "1:100001:1"], {}, "has more than 100000 points"),
            (["--cutoff-scan", "1e-6:1e6:1e-6"], {}, "has more than 100000 points"),
            (["--cutoff-scan", "1e-300:1e300:1e-300"], {}, "has more than 100000 points"),
            ([], {"cutoff": math.nan}, "analysis.cutoff must be a finite number"),
            ([], {"cutoff": math.inf}, "analysis.cutoff must be a finite number"),
        ],
        ids=[
            "cutoff",
            "bins",
            "resamples",
            "scan-start",
            "scan-nan",
            "scan-inf",
            "scan-over-cap",
            "scan-small-step-over-cap",
            "scan-overflowing-count",
            "cutoff-nan",
            "cutoff-inf",
        ],
    )
    def test_bad_option_value_exit_code(
        self, dataset, tmp_path, capsys, option, analysis, message
    ):
        shots, cfg_path = dataset
        if analysis:
            payload = {**TINY_CAMPAIGN, "analysis": {**TINY_CAMPAIGN["analysis"], **analysis}}
            cfg_path = write_config(tmp_path, payload, "bad_option.json")
        out = tmp_path / "bad_option"
        rc = main(["analyze", str(shots), "--out", str(out), "--config", str(cfg_path), *option])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    def test_conditioning_invariant_exit_code(self, dataset, tmp_path, capsys, monkeypatch):
        import singletsim.analysis as analysis_mod

        def inflated(g1, g2, g12, *args, **kwargs):
            gain = np.zeros((3, 3))
            return analysis_mod.ConditionalCovariance(2.0 * np.asarray(g2), gain, False)

        monkeypatch.setattr(analysis_mod, "conditional_covariance", inflated)
        shots, cfg_path = dataset
        out = tmp_path / "invariant"
        rc = main(["analyze", str(shots), "--out", str(out), "--config", str(cfg_path)])
        assert rc == 4
        err = capsys.readouterr().err
        assert "numerical failure: bin 0: conditional variance" in err
        assert not (out / "report.json").exists()
        assert not (out / "noise_scaling.csv").exists()

    def test_failed_write_removes_outputs(self, dataset, tmp_path, capsys, monkeypatch):
        import singletsim.cli as cli_mod

        def full_disk(path, result):
            raise OSError(28, "No space left on device", str(path))

        monkeypatch.setattr(cli_mod, "write_noise_scaling_csv", full_disk)
        shots, cfg_path = dataset
        out = tmp_path / "full"
        rc = main(["analyze", str(shots), "--out", str(out), "--config", str(cfg_path)])
        assert rc == 2
        assert "cannot write output: [Errno 28] No space left on device" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_paper_operating_point_top_bin(self, tmp_path):
        # Campaign around 1.1e6 atoms at the measured readout
        # sensitivity: the top-bin conditional witness sits in the
        # published 0.45-0.55 window.
        payload = {
            "seed": 6,
            "probe": {"efficiency": 0.75, "readout_noise_override": 515.0},
            "campaign": {"n_cycles": 600, "initial_atoms": 1.15e6},
            "analysis": {"n_bins": 8, "n_resamples": 150},
        }
        cfg_path = write_config(tmp_path, payload)
        out = tmp_path / "op"
        main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        main(
            [
                "analyze",
                str(out / "shots.csv"),
                "--out",
                str(out / "analysis"),
                "--config",
                str(cfg_path),
            ]
        )
        report = json.loads((out / "analysis" / "report.json").read_text())
        top = max(report["bins"], key=lambda b: b["n_atoms_mean"])
        assert 0.45 <= top["xi2"] <= 0.55
        assert top["ent_bound"] > 0

    def test_bad_scan_spec(self, dataset, tmp_path):
        shots, _ = dataset
        rc = main(
            ["analyze", str(shots), "--out", str(tmp_path / "y"), "--cutoff-scan", "oops"]
        )
        assert rc == 2

    def test_scan_points(self):
        # The point count comes from (stop - start) / step, relative to the
        # step, and each point is rounded to 12 significant digits.
        assert _parse_scan("0.25:3.0:0.25") == [0.25 * k for k in range(1, 13)]
        assert _parse_scan("1e-13:2e-13:1e-14") == [k * 1e-14 for k in range(10, 21)]
        assert _parse_scan("0.1:0.3:0.1") == [0.1, 0.2, 0.3]
        assert len(_parse_scan("1:100000:1")) == 100_000

    def test_small_step_scan(self, dataset, tmp_path):
        shots, cfg_path = dataset
        out = tmp_path / "small_step"
        argv = ["analyze", str(shots), "--out", str(out), "--config", str(cfg_path)]
        assert main([*argv, "--cutoff-scan", "1e-13:2e-13:1e-14"]) == 0
        lines = (out / "cutoff_scan.csv").read_text().splitlines()
        assert [float(line.split(",")[0]) for line in lines[1:]] == [
            k * 1e-14 for k in range(10, 21)
        ]


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


# Valid configs whose atom numbers, efficiency or coupling push the
# analysis out of the float range, with analyze's exit code.
EXTREME_CONFIGS = [
    pytest.param({"campaign": {"initial_atoms": 1e200}}, 4, id="atoms-1e200"),
    pytest.param({"campaign": {"initial_atoms": 1e-300}}, 0, id="atoms-1e-300"),
    pytest.param({"campaign": {"initial_atoms": 1e-320}}, 4, id="atoms-1e-320"),
    pytest.param({"probe": {"efficiency": 1e-300}}, 4, id="efficiency-1e-300"),
    pytest.param({"probe": {"g1": 1e150}}, 0, id="g1-1e150"),
    pytest.param({"probe": {"g1": 1e-300}}, 4, id="g1-1e-300"),
    pytest.param({"probe": {"n_photons": 1e-300}}, 4, id="n-photons-1e-300"),
    pytest.param({"campaign": {"initial_atoms": 1e307}}, 4, id="atoms-1e307"),
    pytest.param({"probe": {"g1": 1e100}}, 0, id="g1-1e100"),
    pytest.param({"probe": {"n_photons": 1e300}}, 0, id="n-photons-1e300"),
    pytest.param({"campaign": {"initial_atoms": 1e100}}, 0, id="atoms-1e100"),
    pytest.param({"campaign": {"initial_atoms": 1e150}}, 0, id="atoms-1e150"),
    pytest.param({"probe": {"efficiency": 1e-100}}, 0, id="efficiency-1e-100"),
]


@pytest.mark.parametrize("extreme, exit_code", EXTREME_CONFIGS)
def test_extreme_config_report_is_strict_json(tmp_path, extreme, exit_code):
    # analyze runs in a child process, so LAPACK's own messages (written
    # straight to file descriptor 1) and numpy's warnings are both seen.
    # report.json holds no NaN or Infinity: a non-finite value exits 4
    # with one line and no file, and a fit that cannot run is an error
    # entry in a report that exits 0.
    payload = {"seed": 1, **extreme, "campaign": {"n_cycles": 30, **extreme.get("campaign", {})}}
    cfg_path = write_config(tmp_path, payload)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
    out = tmp_path / "analysis"
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    argv = ["analyze", str(tmp_path / "run" / "shots.csv"), "--config", str(cfg_path)]
    proc = subprocess.run(
        [sys.executable, "-m", "singletsim.cli", *argv, "--out", str(out)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == exit_code, proc.stderr
    assert "DLASCL" not in proc.stdout
    lines = proc.stderr.splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("numerical failure:")), lines
    if exit_code:
        assert not out.exists()
    else:
        report = json.loads((out / "report.json").read_text(), parse_constant=_refuse_constant)
        assert "error" in report["fits"]["snr_model"]


class TestFidfit:
    def test_synthetic_trace_recovery(self, tmp_path):
        samples = tmp_path / "fid.csv"
        samples.write_text("\n".join(fid_trace_lines()) + "\n")
        out = tmp_path / "estimate.json"
        assert main(["fidfit", str(samples), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["bx_mG"] == pytest.approx(9.6, rel=1e-4)
        assert payload["by_mG"] == pytest.approx(9.7, rel=1e-4)
        assert payload["bz_mG"] == pytest.approx(9.9, rel=1e-4)
        assert payload["t2_us"] == pytest.approx(745.0, rel=1e-4)

    @pytest.mark.parametrize("bad_row", ["15.0,nan,z", "inf,0.0,y", "15.0,-inf,y"])
    def test_non_finite_row_exit_code(self, tmp_path, capsys, bad_row):
        rows = fid_trace_lines()
        rows[10] = bad_row
        samples = tmp_path / "fid.csv"
        samples.write_text("\n".join(rows) + "\n")
        out = tmp_path / "estimate.json"
        assert main(["fidfit", str(samples), "--out", str(out)]) == 3
        assert not out.exists()
        assert f"{samples}:11: non-finite t_us or theta_rad" in capsys.readouterr().err

    def test_empty_file_schema_error(self, tmp_path):
        samples = tmp_path / "empty.csv"
        samples.write_text("")
        assert main(["fidfit", str(samples), "--out", str(tmp_path / "e.json")]) == 3

    def test_fit_failure_writes_nothing(self, tmp_path, monkeypatch, capsys):
        import singletsim.cli as cli_mod
        from singletsim import FitError

        def broken_fit(*args, **kwargs):
            raise FitError("did not converge (residual norm 1.2e-1)")

        monkeypatch.setattr(cli_mod, "fit_fid", broken_fit)
        samples = tmp_path / "fid.csv"
        samples.write_text("t_us,theta_rad,branch\n0.0,0.0,z\n1.0,0.0,z\n")
        out = tmp_path / "estimate.json"
        assert main(["fidfit", str(samples), "--out", str(out)]) == 4
        assert "numerical failure: did not converge" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [samples]

    def test_config_g1_scales_polarization(self, tmp_path):
        # theta is linear in g1 * f0: doubling the configured g1 halves f0.
        samples = tmp_path / "fid.csv"
        samples.write_text("\n".join(fid_trace_lines()) + "\n")
        cfg_path = write_config(tmp_path, {"probe": {"g1": 1.8e-7}})
        default, doubled = tmp_path / "default.json", tmp_path / "doubled.json"
        assert main(["fidfit", str(samples), "--out", str(default)]) == 0
        assert main(["fidfit", str(samples), "--out", str(doubled), "--config", str(cfg_path)]) == 0
        default, doubled = json.loads(default.read_text()), json.loads(doubled.read_text())
        assert default["f0_spins"] == pytest.approx(1e6, rel=1e-6)
        assert doubled["f0_spins"] == pytest.approx(default["f0_spins"] / 2, rel=1e-6)
        assert doubled["t2_us"] == pytest.approx(default["t2_us"], rel=1e-6)

    def test_degenerate_single_branch_flagged(self, tmp_path):
        t = np.arange(0.0, 1.5e-3, 1e-6)
        theta = fid_signal(t, (0.0, 0.0, 9.9e-3), "z", 1e6, 9.0e-8, 745e-6)
        rows = ["t_us,theta_rad,branch"]
        rows += [f"{float(ti) * 1e6!r},{float(th)!r},z" for ti, th in zip(t, theta)]
        samples = tmp_path / "degenerate.csv"
        samples.write_text("\n".join(rows) + "\n")
        out = tmp_path / "partial.json"
        assert main(["fidfit", str(samples), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["flags"]

    @pytest.mark.parametrize("theta", ["1e308", "1e300"])
    def test_overflowing_trace_exit_code(self, tmp_path, theta):
        # 40 rows of +/-theta: at 1e308 the initial guess overflows, at
        # 1e300 its residual norm does.  The fit runs in a child process
        # with a timeout, so a fit that never returns fails the test;
        # in-process, the overflow warnings would be errors.
        rows = ["t_us,theta_rad,branch"]
        rows += [f"{10.0 * i},{'-' if i % 2 else ''}{theta},{'zy'[i % 2]}" for i in range(40)]
        samples = tmp_path / "overflow.csv"
        samples.write_text("\n".join(rows) + "\n")
        out = tmp_path / "estimate.json"
        path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "singletsim.cli", "fidfit", str(samples), "--out", str(out)],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 4, proc.stderr
        # The message alone: no numpy overflow warning ahead of it.
        assert proc.stderr.splitlines() == [
            "numerical failure: FID fit: the residual norm is not finite at the initial guess"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("jac_value", [np.inf, 1e200], ids=["inf", "overflowing-jtj"])
    def test_non_finite_solution_exit_code(self, tmp_path, monkeypatch, capsys, jac_value):
        # A solver result whose Jacobian, or J^T J, is not finite stops
        # before the SVD and the pinv.
        import singletsim.magnetometry as magnetometry_mod
        from singletsim.lsq import LsqResult

        solve = magnetometry_mod.levenberg_marquardt

        def overflowing(fun, jac, x0, **kwargs):
            result = solve(fun, jac, x0, **kwargs)
            jac_out = np.full_like(result.jac, jac_value)
            return LsqResult(result.x, result.fun, jac_out, result.nfev, result.status)

        monkeypatch.setattr(magnetometry_mod, "levenberg_marquardt", overflowing)
        samples = tmp_path / "fid.csv"
        samples.write_text("\n".join(fid_trace_lines()) + "\n")
        out = tmp_path / "estimate.json"
        with np.errstate(over="ignore"):
            assert main(["fidfit", str(samples), "--out", str(out)]) == 4
        assert "the residual norm or the Jacobian is not finite" in capsys.readouterr().err
        assert not out.exists()


class TestCalibrate:
    def test_noiseless_slope(self, tmp_path):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("\n".join(calibration_lines()) + "\n")
        out = tmp_path / "g1.json"
        assert main(["calibrate", str(pairs), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["g1"] == pytest.approx(9.0e-8, rel=1e-12)
        assert payload["g1_stderr"] == pytest.approx(0.0, abs=1e-18)

    def test_constant_column_fails(self, tmp_path):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("phi_rad,n_atoms\n0.01,1e5\n0.02,1e5\n")
        assert main(["calibrate", str(pairs), "--out", str(tmp_path / "g.json")]) == 4

    @pytest.mark.parametrize(
        "rows",
        [
            ["9e-3,1e200", "4.5e-2,5e200"],
            ["1e300,1e5", "-1e300,5e5", "1e300,1e6"],
            ["9e-3,1e-200", "4.5e-2,5e-200"],
        ],
        ids=["n-overflow", "phi-overflow", "n-underflow"],
    )
    def test_out_of_range_sums_exit_code(self, tmp_path, capsys, rows):
        # Not g1 = 0, an Infinity stderr or a false "all n_atoms are zero":
        # one message, no file.
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("\n".join(["phi_rad,n_atoms", *rows]) + "\n")
        out = tmp_path / "g.json"
        assert main(["calibrate", str(pairs), "--out", str(out)]) == 4
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: calibration: the sums left the float range")
        assert err.count("\n") == 1

    def test_bad_header(self, tmp_path):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("phi,atoms\n1,2\n")
        assert main(["calibrate", str(pairs), "--out", str(tmp_path / "g.json")]) == 3

    @pytest.mark.parametrize(
        "bad_row, reason",
        [
            ("nan,1e5", "non-finite phi_rad or n_atoms"),
            ("0.01,inf", "non-finite phi_rad or n_atoms"),
            ("-inf,2e5", "non-finite phi_rad or n_atoms"),
            ("0.1,1e6,999", "expected 2 fields"),
            ("0.1", "expected 2 fields"),
            ("0.1,-1e5", "negative n_atoms"),
        ],
        ids=["nan,1e5", "0.01,inf", "-inf,2e5", "0.1,1e6,999", "0.1", "0.1,-1e5"],
    )
    def test_non_finite_row_exit_code(self, tmp_path, capsys, bad_row, reason):
        lines = calibration_lines()
        lines[3] = bad_row
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("\n".join(lines) + "\n")
        out = tmp_path / "g.json"
        assert main(["calibrate", str(pairs), "--out", str(out)]) == 3
        assert not out.exists()
        assert f"{pairs}:4: {reason}" in capsys.readouterr().err


# Per input file: its columns and one valid row.
INPUT_FILES = {
    "analyze": (DATASET_COLUMNS, "0,0,1,0.0,1.0,2.0,3.0,4.0,5.0,6.0"),
    "fidfit": (FID_CSV_COLUMNS, "0.0,0.0,z"),
    "calibrate": (CALIBRATION_COLUMNS, "0.01,1e5"),
}


# The ids keep the names of the command-line flags these keys replaced.
@pytest.mark.parametrize(
    "command, section, key, value",
    [
        ("fidfit", "probe", "g1", 0),
        ("fidfit", "probe", "g1", math.nan),
        ("fidfit", "probe", "g1", -9e-8),
        ("fidfit", "field", "gyromagnetic_ratio", 0),
        ("fidfit", "field", "gyromagnetic_ratio", math.inf),
    ],
    ids=[
        "fidfit---g1-0",
        "fidfit---g1-nan",
        "fidfit---g1--9e-8",
        "fidfit---gamma-0",
        "fidfit---gamma-inf",
    ],
)
def test_bad_option_value_exit_code(tmp_path, capsys, command, section, key, value):
    # The input file is valid: only the config value is wrong.
    lines = fid_trace_lines()
    data = tmp_path / "input.csv"
    data.write_text("\n".join(lines) + "\n")
    cfg_path = write_config(tmp_path, {section: {key: value}})
    out = tmp_path / "out.json"
    assert main([command, str(data), "--out", str(out), "--config", str(cfg_path)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "config error" in err
    assert f"{section}.{key} must be" in err or f"{section}: {key} must be" in err


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("analyze", "--bins", "4"),
        ("analyze", "--cutoff", "0.75"),
        ("analyze", "--resamples", "30"),
        ("fidfit", "--g1", "9e-8"),
        ("fidfit", "--gamma", "4.374e6"),
        ("calibrate", "--f", "1"),
    ],
)
def test_removed_option_rejected(tmp_path, capsys, command, option, value):
    # These values are config keys only; with abbreviations off,
    # --cutoff is not taken for --cutoff-scan either.
    argv = [command, str(tmp_path / "input.csv"), "--out", str(tmp_path / "out"), option, value]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "analyze", "fidfit", "calibrate"])
def test_unwritable_output_exit_code(tiny_dataset, tmp_path, capsys, command):
    # An output directory that is a regular file, or a JSON path in a
    # missing directory.
    if command in ("simulate", "analyze"):
        out = tmp_path / "taken"
        out.write_text("keep\n")
        inputs = ["--config", str(write_config(tmp_path, TINY_CAMPAIGN))]
        if command == "analyze":
            inputs.append(str(tiny_dataset))
    else:
        lines = fid_trace_lines() if command == "fidfit" else calibration_lines()
        data = tmp_path / "input.csv"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "missing" / "out.json"
        inputs = [str(data)]
    assert main([command, *inputs, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "cannot write output: " in err and str(out) in err
    if out.parent == tmp_path:
        assert out.read_text() == "keep\n"
    else:
        assert not out.parent.exists()


@pytest.mark.parametrize(
    "case", ["missing", "directory", "non-utf8", "oversize-field", "empty", "field-count"]
)
@pytest.mark.parametrize("command", list(INPUT_FILES))
def test_bad_input_file_exit_code(tmp_path, capsys, command, case):
    columns, good_row = INPUT_FILES[command]
    header = ",".join(columns)
    path = tmp_path / "input.csv"
    expected = f"{path}: "
    if case == "directory":
        path.mkdir()
    elif case == "non-utf8":
        path.write_bytes(b"\xff" + header.encode() + b"\n")
    elif case == "oversize-field":
        path.write_text(header + "\n" + "9" * 200_000 + good_row[1:] + "\n")
        expected = f"{path}:2: field larger than field limit"
    elif case == "empty":
        path.write_text("")
        expected = f"{path}: empty file"
    elif case == "field-count":
        # The blank line is skipped but counted: the bad row is line 4.
        path.write_text("\n".join([header, good_row, "", good_row + ",0"]) + "\n")
        expected = f"{path}:4: expected {len(columns)} fields"
    out = tmp_path / "out"
    assert main([command, str(path), "--out", str(out)]) == 3
    assert not out.exists()
    assert f"data error: {expected}" in capsys.readouterr().err


FIT_CAMPAIGN = {
    "seed": 3,
    "campaign": {"n_cycles": 20},
    "analysis": {"n_bins": 4, "min_bin_shots": 5},
}
FIT_KEYS = ("unconditional_1", "unconditional_2", "conditional", "snr_model")


@pytest.fixture(scope="module")
def fit_dataset(tmp_path_factory):
    """A dataset with four bins, on which all four fits succeed."""
    out = tmp_path_factory.mktemp("fits")
    cfg_path = write_config(out, FIT_CAMPAIGN)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out / "run")]) == 0
    return out / "run" / "shots.csv", cfg_path


@pytest.mark.parametrize("failing", FIT_KEYS)
def test_failed_fit_is_reported(fit_dataset, tmp_path, monkeypatch, failing):
    # The fits run in FIT_KEYS order; a FitError in one of them is written
    # under its key and the other fits and outputs stand.
    import singletsim.analysis as analysis_mod
    from singletsim import FitError

    calls = []

    def failing_on(fit):
        def wrapped(*args, **kwargs):
            calls.append(fit)
            if FIT_KEYS[len(calls) - 1] == failing:
                raise FitError("forced failure")
            return fit(*args, **kwargs)

        return wrapped

    for name in ("fit_noise_scaling", "fit_snr_model"):
        monkeypatch.setattr(analysis_mod, name, failing_on(getattr(analysis_mod, name)))
    shots, cfg_path = fit_dataset
    out = tmp_path / "an"
    assert main(["analyze", str(shots), "--out", str(out), "--config", str(cfg_path)]) == 0
    assert len(calls) == 4
    fits = json.loads((out / "report.json").read_text())["fits"]
    assert fits[failing] == {"error": "forced failure"}
    for key in FIT_KEYS:
        if key != failing:
            keys = {"params", "stderrs", "residual_norm", "model_tag"}
            if key == "snr_model":
                keys |= {"nfev", "status"}  # the iterative fit's solver diagnostics
            assert set(fits[key]) == keys, key
    assert (out / "noise_scaling.csv").is_file()


def test_csv_outputs_share_one_dialect(fit_dataset, tmp_path):
    # Every CSV output is written by fileio.write_csv: csv.writer's
    # default dialect, every line ending in \r\n.
    shots, cfg_path = fit_dataset
    out = tmp_path / "an"
    argv = ["analyze", str(shots), "--out", str(out), "--config", str(cfg_path)]
    assert main([*argv, "--cutoff-scan", "0.25:3.0:0.25"]) == 0
    for path in (shots, out / "noise_scaling.csv", out / "cutoff_scan.csv"):
        data = path.read_bytes()
        assert data.endswith(b"\r\n"), path.name
        assert data.count(b"\n") == data.count(b"\r\n") > 1, path.name
