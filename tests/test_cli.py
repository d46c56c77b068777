import json

import numpy as np
import pytest

from gaborgrid import cli
from gaborgrid.errors import ConfigError
from gaborgrid.formats import validate_report, write_signal_csv
from gaborgrid.grid import PeriodicGrid, sample_gaussian
from gaborgrid.suites import SuiteConfig, run_suites

from conftest import random_signal


def write_config(tmp_path, **overrides):
    data = {
        "schema": 1,
        "seed": 42,
        "grid": {"dim": 1, "period": 16.0, "points_per_axis": 256},
        "system": {
            "window": {"kind": "gaussian", "center": 0.0, "width": 1.0},
            "time_step": 1.0,
            "freq_step": 0.5,
        },
        "spaces": [{"kind": "Lp_w", "p": 2.0, "tau": 0.0}],
        "suites": ["derivative-identity"],
        "output": {"report": str(tmp_path / "report.json")},
    }
    data.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return path


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError, match="time_step"):
        SuiteConfig.from_dict({"system": {"time_step": 0.3}})
    with pytest.raises(ConfigError, match="freq_step"):
        SuiteConfig.from_dict({"system": {"freq_step": 0.3}})
    with pytest.raises(ConfigError, match="suites"):
        SuiteConfig.from_dict({"suites": ["nope"]})
    with pytest.raises(ConfigError, match="window.kind"):
        SuiteConfig.from_dict({"system": {"window": {"kind": "hann"}}})
    with pytest.raises(ConfigError, match="seed"):
        SuiteConfig.from_dict({"seed": "forty-two"})
    with pytest.raises(ConfigError, match="schema"):
        SuiteConfig.from_dict({"schema": 9})
    # The dual solve shares the frame tolerance; a separate solver key is refused.
    with pytest.raises(ConfigError, match="tolerances.cg: unknown tolerance"):
        SuiteConfig.from_dict({"tolerances": dict(cg=1e-12)})
    cfg = write_config(tmp_path, tolerances=dict(cg=1e-12))
    assert cli.main(["dual-window", "--config", str(cfg),
                     "--output", str(tmp_path / "gamma.csv")]) == 2


def test_cli_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli.main(["verify", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["verify", "--config", str(bad)]) == 2
    capsys.readouterr()


def test_empty_suite_list(tmp_path):
    cfg = write_config(tmp_path, suites=[])
    assert cli.main(["verify", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    validate_report(report)
    assert report["entries"] == []


def test_verify_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path, suites=["derivative-identity", "reconstruction"])
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.main(["verify", "--config", str(cfg), "--output", str(out1)]) == 0
    assert cli.main(["verify", "--config", str(cfg), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, suites=[])
    out = tmp_path / "seeded.json"
    assert cli.main(
        ["verify", "--config", str(cfg), "--seed", "7", "--output", str(out)]
    ) == 0
    assert json.loads(out.read_text())["seed"] == 7


def test_verify_csv_output(tmp_path):
    cfg = write_config(tmp_path, suites=["derivative-identity"])
    out = tmp_path / "rep.json"
    assert cli.main(
        ["verify", "--config", str(cfg), "--output", str(out), "--format", "both"]
    ) == 0
    csv_text = (tmp_path / "rep.csv").read_text()
    assert csv_text.splitlines()[0] == "suite,name,passed,value,threshold,comparator,details"
    assert len(csv_text.strip().splitlines()) == 3


def test_undersampled_config_is_diagnosed_not_crashed(tmp_path):
    cfg = write_config(
        tmp_path,
        suites=["reconstruction"],
        system={
            "window": {"kind": "gaussian"},
            "time_step": 2.0,
            "freq_step": 1.0,
        },
    )
    assert cli.main(["verify", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    validate_report(report)
    (entry,) = report["entries"]
    assert entry["name"] == "frame"
    assert entry["passed"] is False
    assert entry["value"] <= 1e-10


def test_norms_subcommand(tmp_path, capsys):
    grid = PeriodicGrid(1, 16.0, 256)
    sig = sample_gaussian(grid)
    sig_path = tmp_path / "sig.csv"
    write_signal_csv(sig, sig_path)
    cfg = write_config(
        tmp_path,
        spaces=[{"kind": "Lp_w", "p": 2.0, "tau": 0.0}, {"kind": "C0_w", "tau": 0.0}],
    )
    out = tmp_path / "norms.json"
    assert cli.main(
        ["norms", "--config", str(cfg), "--input", str(sig_path), "--output", str(out)]
    ) == 0
    records = json.loads(out.read_text())
    assert len(records) == 2
    assert records[0]["value"] == pytest.approx(2.0 ** -0.25, rel=1e-10)
    assert records[1]["value"] == pytest.approx(1.0, rel=1e-12)


def test_stft_subcommand(tmp_path):
    small = {
        "grid": {"dim": 1, "period": 4.0, "points_per_axis": 16},
        "system": {"window": {"kind": "gaussian", "width": 0.5},
                   "time_step": 0.25, "freq_step": 0.25},
    }
    cfg = write_config(tmp_path, **small)
    grid = PeriodicGrid(1, 4.0, 16)
    sig_path = tmp_path / "in.csv"
    write_signal_csv(random_signal(grid, np.random.default_rng(3)), sig_path)
    out = tmp_path / "tf.csv"
    assert cli.main(
        ["stft", "--config", str(cfg), "--input", str(sig_path), "--output", str(out)]
    ) == 0
    assert len(out.read_text().strip().splitlines()) == 1 + 256
    assert cli.main(["stft", "--config", str(cfg)]) == 2  # missing --input


def test_dual_window_subcommand(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "gamma.csv"
    cert = tmp_path / "cert.json"
    assert cli.main(
        ["dual-window", "--config", str(cfg), "--output", str(out),
         "--certificate", str(cert)]
    ) == 0
    payload = json.loads(cert.read_text())
    assert payload["frame"] is True
    assert payload["A"] > 0.5 and payload["residual"] <= 1e-8
    assert out.exists()

    under = write_config(
        tmp_path,
        system={"window": {"kind": "gaussian"}, "time_step": 2.0, "freq_step": 1.0},
    )
    out2 = tmp_path / "gamma2.csv"
    cert2 = tmp_path / "cert2.json"
    assert cli.main(
        ["dual-window", "--config", str(under), "--output", str(out2),
         "--certificate", str(cert2)]
    ) == 2
    payload2 = json.loads(cert2.read_text())
    assert payload2["frame"] is False
    assert not out2.exists()


@pytest.mark.parametrize("overrides", [
    # Redundancy 1/2: the lower frame bound is exactly zero.
    {"system": {"window": {"kind": "gaussian"}, "time_step": 2.0, "freq_step": 1.0}},
    # A frame (A is about 0.83) that a frame tolerance of 1.0 refuses.
    {"tolerances": {"frame": 1.0}},
], ids=["undersampled", "frame-tolerance"])
def test_dual_window_not_a_frame_exits_2(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path, **overrides)
    gamma = tmp_path / "gamma.csv"
    cert = tmp_path / "cert.json"
    assert cli.main(
        ["dual-window", "--config", str(cfg), "--output", str(gamma),
         "--certificate", str(cert)]
    ) == 2
    assert json.loads(cert.read_text())["frame"] is False
    assert not gamma.exists()
    assert capsys.readouterr().err.startswith("not a frame:")


def test_profile_subcommand(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "prof.csv"
    assert cli.main(
        ["profile", "--config", str(cfg), "--preset", "gaussian",
         "--output", str(out)]
    ) == 0
    assert out.exists()
    summary = json.loads((tmp_path / "prof.json").read_text())
    assert summary["count"] == 32
    assert cli.main(["profile", "--config", str(cfg)]) == 2  # no input selection


def test_run_suites_report_is_valid(tmp_path):
    cfg = SuiteConfig.from_dict({"suites": ["derivative-identity"]})
    report = run_suites(cfg)
    validate_report(report)
    assert report["suites"] == ["derivative-identity"]
    assert all(e["passed"] for e in report["entries"])


def test_verify_deterministic_across_processes(tmp_path):
    import subprocess
    import sys

    cfg = write_config(tmp_path, suites=["derivative-identity"])
    outputs = []
    for name in ("p1.json", "p2.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "gaborgrid.cli", "verify",
             "--config", str(cfg), "--output", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
