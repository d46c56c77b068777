import json
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from gaborgrid import cli
from gaborgrid.errors import ConfigError
from gaborgrid.formats import validate_report, write_signal_binary, write_signal_csv
from gaborgrid.grid import GridSignal, PeriodicGrid, sample_gaussian
from gaborgrid.suites import SUITE_NAMES, SuiteConfig, run_suites

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
    with pytest.raises(ConfigError, match="system.window: must be an object"):
        SuiteConfig.from_dict({"system": {"window": 5}})
    with pytest.raises(ConfigError, match="seed"):
        SuiteConfig.from_dict({"seed": "forty-two"})
    with pytest.raises(ConfigError, match="schema"):
        SuiteConfig.from_dict({"schema": 9})
    # The thresholds are fixed; a section that would set one is refused.
    with pytest.raises(ConfigError, match="tolerances: unknown key"):
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


def test_empty_suite_list(tmp_path, capsys, monkeypatch):
    # A --suites list of separators names no suite; the config spelling,
    # "suites": [], is a case of test_malformed_config_value_exits_2.
    monkeypatch.setattr(cli, "run_suites", lambda cfg: pytest.fail("a suite ran"))
    cfg = write_config(tmp_path)
    assert cli.main(["verify", "--config", str(cfg), "--suites", " , "]) == 2
    assert capsys.readouterr().err == "config error: suites: must name at least one suite\n"
    assert not (tmp_path / "report.json").exists()


def test_verify_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path, suites=["derivative-identity", "reconstruction"])
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.main(["verify", "--config", str(cfg), "--output", str(out1)]) == 0
    assert cli.main(["verify", "--config", str(cfg), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_csv_output(tmp_path):
    cfg = write_config(tmp_path, suites=["derivative-identity"])
    out = tmp_path / "rep.json"
    assert cli.main(
        ["verify", "--config", str(cfg), "--output", str(out), "--format", "both"]
    ) == 0
    csv_text = (tmp_path / "rep.csv").read_text()
    assert csv_text.splitlines()[0] == "suite,name,passed,value,threshold,comparator,details"
    assert len(csv_text.strip().splitlines()) == 3


@pytest.mark.parametrize("flags, written", [
    (["--csv", "out.csv"], "out.csv"),
    ([], "report.csv"),  # next to the config's report path
], ids=["csv-flag", "next-to-json"])
def test_verify_format_csv_writes_no_json(tmp_path, monkeypatch, flags, written):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, suites=["derivative-identity"])
    assert cli.main(["verify", "--config", str(cfg), "--format", "csv", *flags]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", written]
    lines = (tmp_path / written).read_text().splitlines()
    assert lines[0] == "suite,name,passed,value,threshold,comparator,details"
    assert len(lines) == 3


@pytest.mark.parametrize("flags, output", [
    (["--format", "both", "--output", "r.csv"], None),
    (["--output", "x.json", "--csv", "x.json"], None),
    (["--output", "x.json", "--csv", "./x.json"], None),
    ([], {"report": "r.json", "csv": "r.json"}),
], ids=["format-both", "csv-flag", "csv-flag-other-spelling", "config"])
def test_verify_refuses_one_file_for_both_reports(tmp_path, capsys, monkeypatch, flags, output):
    # Writing the CSV report over the JSON one would lose the JSON report.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_suites", lambda cfg: pytest.fail("a suite ran"))
    cfg = write_config(tmp_path, **({"output": output} if output else {}))
    assert cli.main(["verify", "--config", str(cfg), *flags]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: output: the JSON and CSV reports would both be written to ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


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
    assert capsys.readouterr().out == f"wrote {out}\n"
    # One {spec, value} record per configured space, in config order.
    assert out.read_text() == (
        '[{"spec": {"kind": "Lp_w", "p": 2.0, "tau": 0.0}, "value": 0.84089641525371461}, '
        '{"spec": {"kind": "C0_w", "tau": 0.0}, "value": 1.0}]\n')
    records = json.loads(out.read_text())
    assert records[0]["value"] == pytest.approx(2.0 ** -0.25, rel=1e-10)
    assert records[1]["value"] == pytest.approx(1.0, rel=1e-12)


def test_norms_binary_input_on_other_grid_exits_2(tmp_path, capsys):
    sig_path = tmp_path / "sig.bin"
    write_signal_binary(sample_gaussian(PeriodicGrid(1, 16.0, 128)), sig_path)
    cfg = write_config(tmp_path)  # L = 256
    assert cli.main(["norms", "--config", str(cfg), "--input", str(sig_path)]) == 2
    assert capsys.readouterr().err == (
        f"config error: input: {sig_path} shape does not match the config grid\n")


@pytest.mark.parametrize("name, content, message", [
    ("short.bin", b"GAB", "header truncated"),
    ("bad.csv", b"index,re,im\r\n0,abc,0\r\n", "row 2: expected index,re,im numbers"),
], ids=["short-binary-header", "non-numeric-csv-field"])
def test_norms_unreadable_input_exits_2(tmp_path, capsys, name, content, message):
    sig_path = tmp_path / name
    sig_path.write_bytes(content)
    cfg = write_config(tmp_path)
    assert cli.main(["norms", "--config", str(cfg), "--input", str(sig_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {sig_path}") and message in err


@pytest.mark.parametrize("command", ["stft", "norms", "profile"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_input_exits_2(tmp_path, capsys, command, value):
    # The file formats keep special values; the commands refuse them.
    values = sample_gaussian(PeriodicGrid(1, 16.0, 256)).values.copy()
    values[7] = float(value)
    sig_path = tmp_path / "sig.csv"
    write_signal_csv(GridSignal(PeriodicGrid(1, 16.0, 256), values), sig_path)
    cfg = write_config(tmp_path)
    assert cli.main([command, "--config", str(cfg), "--input", str(sig_path),
                     "--output", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == (
        f"config error: input: {sig_path}: non-finite value at index 7\n")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["stft", "norms"])
def test_missing_input_exits_2(tmp_path, capsys, command):
    assert cli.main([command, "--config", str(write_config(tmp_path))]) == 2
    assert capsys.readouterr().err == (
        f"config error: input: --input is required for {command}\n")


@pytest.mark.parametrize("key, value", [
    ("grid", 5), ("system", [1.0]), ("samples", None),
])
def test_config_section_not_an_object_exits_2(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, **{key: value})
    assert cli.main(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: must be an object")


# Each key the config does not read, misspelled or removed, is refused by its
# dotted name.
UNKNOWN_KEYS = {
    "grdi": {"grdi": {"dim": 2}},
    "grid.points": {"grid": {"dim": 1, "points": 64}},
    "system.timestep": {"system": {"timestep": 2.0}},
    "system.window.widht": {"system": {"window": {"kind": "bump", "widht": 0.3}}},
    "sample": {"sample": {"continuity": 4}},
    "samples.continuty": {"samples": {"continuty": 4}},
    "output.reprot": {"output": {"reprot": "r.json"}},
    "tolerances": {"tolerances": {"frame": 1e-10}},
    "spaces[0].p1": {"spaces": [{"kind": "Lp_w", "p1": 2.0}]},
    # Keys of another kind: C0_w has no exponent, Lp_w no second one.
    "spaces[0].p": {"spaces": [{"kind": "C0_w", "p": 3}]},
    "spaces[1].p2": {"spaces": [{"kind": "C0_w"}, {"kind": "Lp_w", "p2": 7}]},
}


@pytest.mark.parametrize("key", sorted(UNKNOWN_KEYS))
def test_unknown_config_key_exits_2(tmp_path, capsys, monkeypatch, key):
    monkeypatch.setattr(cli, "run_suites", lambda cfg: pytest.fail("a suite ran"))
    cfg = write_config(tmp_path, **UNKNOWN_KEYS[key])
    assert cli.main(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {key}: unknown key\n"


# Malformed values: each is refused by its dotted key before any suite runs,
# never crashes (exit 3) nor is read as something else.
MALFORMED_VALUES = {
    "spaces-not-a-list": ({"spaces": 5}, "spaces: must be a list"),
    "space-not-an-object": ({"spaces": [5]}, "spaces[0]: must be an object"),
    "suites-not-a-list": ({"suites": 5}, "suites: must be a list"),
    "empty-suite-list": ({"suites": []}, "suites: must name at least one suite"),
    "float-dim": ({"grid": {"dim": 2.0, "period": 8.0, "points_per_axis": 32}}, "grid.dim:"),
    "string-time-step": ({"system": {"time_step": "1"}}, "system.time_step:"),
    "zero-width": ({"system": {"window": {"kind": "gaussian", "width": 0}}},
                   "system.window.width:"),
    "negative-width": ({"system": {"window": {"kind": "gaussian", "width": -1}}},
                       "system.window.width:"),
    "boolean-seed": ({"seed": True}, "seed:"),
    "boolean-sample-count": ({"samples": {"continuity": True}}, "samples.continuity:"),
    "negative-seed": ({"seed": -1}, "seed:"),
    "string-center": ({"system": {"window": {"kind": "gaussian", "center": "a"}}},
                      "system.window.center:"),
    "bump-radius-half-period": ({"system": {"window": {"kind": "bump", "radius": 8.0}}},
                                "system.window.radius:"),
    "report-not-a-path": ({"output": {"report": 5}}, "output.report:"),
    "boolean-p": ({"spaces": [{"kind": "Lp_w", "p": True}]}, "spaces[0].p:"),
    "boolean-tau": ({"spaces": [{"kind": "Lp_w", "p": 2.0, "tau": True}]}, "spaces[0].tau:"),
    "boolean-p2": ({"spaces": [{"kind": "MixedLp", "p": 2.0, "p2": False}]}, "spaces[0].p2:"),
    "string-p": ({"spaces": [{"kind": "FourierLp_w", "p": "2"}]}, "spaces[0].p:"),
    "unknown-space-kind": ({"spaces": [{"kind": "Lp", "p": 2.0}]},
                           "spaces[0]: unknown space kind"),
    # A step below half a grid unit is no multiple of it; MixedLp needs 2-d.
    "tiny-time-step": ({"system": {"time_step": 1e-12}}, "system.time_step:"),
    "tiny-freq-step": ({"system": {"freq_step": 1e-12}}, "system.freq_step:"),
    "mixed-on-1d-grid": ({"spaces": [{"kind": "MixedLp", "p": 2.0, "p2": 1.0}]},
                         "spaces[0].kind: MixedLp needs grid.dim 2"),
    "second-space-mixed-on-1d-grid": (
        {"spaces": [{"kind": "Lp_w", "p": 2.0}, {"kind": "MixedLp", "p": 2.0, "p2": 1.0}]},
        "spaces[1].kind: MixedLp needs grid.dim 2"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_VALUES))
def test_malformed_config_value_exits_2(tmp_path, capsys, monkeypatch, name):
    monkeypatch.setattr(cli, "run_suites", lambda cfg: pytest.fail("a suite ran"))
    overrides, message = MALFORMED_VALUES[name]
    cfg = write_config(tmp_path, **overrides)
    assert cli.main(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")


def test_readme_config_example_runs(tmp_path, monkeypatch):
    # The example of "Config schema (version 1)" in the README, as a user
    # would copy it, with one cheap suite.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Config schema (version 1)", 1)[1]
    example = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    SuiteConfig.from_dict(example)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(example))
    assert cli.main(["verify", "--config", "cfg.json", "--suites", "derivative-identity"]) == 0
    report = json.loads((tmp_path / example["output"]["report"]).read_text())
    assert report["suites"] == ["derivative-identity"]


def test_verify_output_not_an_object_exits_2_before_any_suite(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_suites", lambda cfg: pytest.fail("a suite ran"))
    cfg = write_config(tmp_path, output=None)
    assert cli.main(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "config error: output: must be an object, got NoneType\n"
    assert not (tmp_path / "report.json").exists()


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


def test_dual_window_subcommand(tmp_path, monkeypatch):
    # The certificate and the dual's frame gate share one set of Zak fibers.
    # The frame's fibers have one row, so its bounds are row sums and need
    # no eigen-decomposition; the undersampled system's have two.
    eigvalsh = np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: calls.append(a.shape) or eigvalsh(a))
    cfg = write_config(tmp_path)
    out = tmp_path / "gamma.csv"
    cert = tmp_path / "cert.json"
    assert cli.main(
        ["dual-window", "--config", str(cfg), "--output", str(out),
         "--certificate", str(cert)]
    ) == 0
    assert calls == []
    payload = json.loads(cert.read_text())
    assert payload["frame"] is True
    assert payload["A"] > 0.5 and payload["residual"] <= 1e-8
    assert payload["method"] == "zak-fiber"
    assert payload["fiber_shape"] == [256, 1, 2]
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
    assert payload2["fiber_shape"] == [128, 2, 1]
    assert calls == [(8, 16, 2, 2)]
    assert not out2.exists()


@pytest.mark.parametrize("overrides", [
    # Redundancy 1/2: the lower frame bound is exactly zero.
    {"system": {"window": {"kind": "gaussian"}, "time_step": 2.0, "freq_step": 1.0}},
], ids=["undersampled"])
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


# Systems whose continuum adjoint misses the grid: the time step 1/0.1875 =
# 16/3 is no multiple of the spacing 1/16 (1-D), nor 1/0.375 = 8/3 of the
# spacing 1/4 (2-D).  Their finite adjoint F^perp x A^perp is on the grid.
OFF_GRID_CONTINUUM_ADJOINT = {
    "1d": {"grid": {"dim": 1, "period": 16.0, "points_per_axis": 256},
           "system": {"window": {"kind": "gaussian"}, "time_step": 1.0,
                      "freq_step": 0.1875}},
    "2d": {"grid": {"dim": 2, "period": 8.0, "points_per_axis": 32},
           "system": {"window": {"kind": "gaussian"}, "time_step": 1.0,
                      "freq_step": 0.375}},
}


@pytest.mark.parametrize("name", sorted(OFF_GRID_CONTINUUM_ADJOINT))
def test_dual_window_off_grid_continuum_adjoint_exits_0(tmp_path, name):
    cfg = write_config(tmp_path, **OFF_GRID_CONTINUUM_ADJOINT[name])
    gamma = tmp_path / "gamma.csv"
    cert = tmp_path / "cert.json"
    assert cli.main(
        ["dual-window", "--config", str(cfg), "--output", str(gamma),
         "--certificate", str(cert)]
    ) == 0
    assert gamma.exists()
    payload = json.loads(cert.read_text())
    assert payload["frame"] is True
    assert payload["residual"] <= 1e-8


@pytest.mark.parametrize("name", sorted(OFF_GRID_CONTINUUM_ADJOINT))
def test_verify_off_grid_continuum_adjoint_passes(tmp_path, name):
    overrides = OFF_GRID_CONTINUUM_ADJOINT[name]
    cfg = write_config(tmp_path, suites=list(SUITE_NAMES), **overrides)
    assert cli.main(["verify", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    validate_report(report)
    entries = [e for e in report["entries"] if e["suite"] == "wexler-raz"]
    assert [e["name"] for e in entries] == ["adjoint_identity_defect", "residual"]
    assert all(e["passed"] for e in entries)
    # Every other suite keeps the entries it has without wexler-raz.
    others = [suite for suite in SUITE_NAMES if suite != "wexler-raz"]
    rest = run_suites(SuiteConfig.from_dict(dict(overrides, suites=others, seed=42)))
    assert [e for e in report["entries"] if e["suite"] != "wexler-raz"] == rest["entries"]


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


def test_profile_without_spaces_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, spaces=[])
    assert cli.main(["profile", "--config", str(cfg), "--preset", "gaussian",
                     "--output", str(tmp_path / "prof.csv")]) == 2
    assert capsys.readouterr().err == (
        "config error: spaces: profiles need a solid space first in the list\n")
    assert not (tmp_path / "prof.csv").exists()


@pytest.mark.parametrize("command", ["stft", "dual-window", "norms", "profile"])
def test_seed_is_a_verify_flag_only(tmp_path, capsys, monkeypatch, command):
    # No command draws at random, so none takes a seed (verify: USAGE_ERRORS).
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", str(cfg), "--seed", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


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


def _dual_window_argv(tmp_path):
    cfg = write_config(tmp_path)
    return ["dual-window", "--config", str(cfg), "--output", str(tmp_path / "gamma.csv"),
            "--certificate", str(tmp_path / "cert.json")]


# The command-line contract: each usage error exits 2 on stderr before any
# work starts, and the spellings argparse accepted (`--flag=value`, a unique
# prefix) still work.
USAGE_ERRORS = {
    "no-subcommand": ([], "required"),
    "unknown-subcommand": (["certify"], "invalid choice"),
    "unknown-flag": (["verify", "--sed", "5"], "unrecognized arguments: --sed 5"),
    "positional": (["verify", "extra"], "unrecognized arguments: extra"),
    "flag-without-value": (["verify", "--config"], "expected one argument"),
    "flag-before-flag": (["verify", "--output", "--seed", "5"], "expected one argument"),
    "bad-format": (["verify", "--format", "xml"], "invalid choice"),
    "bad-preset": (["profile", "--preset", "box"], "invalid choice"),
    "non-integer-seed": (["verify", "--seed", "five"], "unrecognized arguments: --seed five"),
    "seed": (["verify", "--seed", "3"], "unrecognized arguments: --seed 3"),
    "ambiguous-prefix": (["dual-window", "--c", "x"], "ambiguous option"),
}


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_usage_error_exits_2(tmp_path, capsys, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_suites", lambda cfg: pytest.fail("a suite ran"))
    argv, message = USAGE_ERRORS[name]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: " in err and message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spelling", ["separate", "equals", "prefix", "repeated"])
def test_flag_spellings(tmp_path, spelling):
    cfg, cert, first = write_config(tmp_path), tmp_path / "cert.json", tmp_path / "first.json"
    flags = {
        "separate": ["--config", cfg, "--certificate", cert],
        "equals": [f"--config={cfg}", f"--certificate={cert}"],
        "prefix": ["--conf", cfg, "--cert", cert],
        "repeated": ["--config", cfg, "--certificate", first, "--certificate", cert],
    }[spelling]
    argv = ["dual-window", "--output", str(tmp_path / "gamma.csv"), *map(str, flags)]
    assert cli.main(argv) == 0
    assert json.loads(cert.read_text())["frame"] is True
    assert not first.exists()


SUBCOMMANDS = ["verify", "stft", "dual-window", "norms", "profile"]


@pytest.mark.parametrize("argv, named", [
    (["-h"], SUBCOMMANDS), (["--help"], SUBCOMMANDS), (["verify", "-h"], ["verify"]),
], ids=["-h", "--help", "verify -h"])
def test_help_exits_0(capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert all(command in out for command in named)


def test_main_without_argv_reads_sys_argv(tmp_path, monkeypatch):
    argv = _dual_window_argv(tmp_path)
    monkeypatch.setattr(sys, "argv", ["gaborgrid", *argv])
    assert cli.main() == 0
    assert (tmp_path / "gamma.csv").exists() and (tmp_path / "cert.json").exists()


def test_profile_refuses_input_with_preset(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)
    sig_path = tmp_path / "sig.csv"
    write_signal_csv(sample_gaussian(PeriodicGrid(1, 16.0, 256)), sig_path)
    assert cli.main(["profile", "--config", str(cfg), "--input", str(sig_path),
                     "--preset", "gaussian"]) == 2
    assert capsys.readouterr().err == (
        "config error: input: give --input or --preset, not both\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "sig.csv"]


def _usage_flags(block):
    """Each subcommand's ``--flags`` on the ``gaborgrid <command>`` lines of a
    usage block, continuation lines included."""
    flags, command = {}, None
    for line in block.splitlines():
        words = line.split()
        if words[:1] == ["gaborgrid"]:
            command = words[1]
        if command is not None:
            flags.setdefault(command, set()).update(re.findall(r"--[a-z-]+", line))
    return flags


def test_usage_text_names_every_flag():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    readme_block = readme.split("## CLI\n\n```", 1)[1].split("```", 1)[0]
    doc_block = cli.__doc__.split("Usage::", 1)[1].split("\n\n")[1]
    expected = {command: set(flags) for command, flags in cli._FLAGS.items()}
    assert _usage_flags(doc_block) == expected
    assert _usage_flags(readme_block) == expected


def test_cli_loads_no_argparse(tmp_path):
    # argparse and its gettext lookups cost milliseconds on every call; the
    # flag table parses without them.
    import subprocess

    argv = _dual_window_argv(tmp_path)
    script = (
        "import sys\n"
        "from gaborgrid import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(code, sorted({'argparse', 'gettext'} & set(sys.modules)))\n"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
