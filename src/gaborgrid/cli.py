"""Batch verification driver.

Subcommands::

    gaborgrid verify      --config cfg.json [--suites a,b] [--output out.json]
    gaborgrid stft        --config cfg.json --input sig.csv --output tf.csv
    gaborgrid dual-window --config cfg.json --output gamma.csv --certificate c.json
    gaborgrid norms       --config cfg.json --input sig.csv [--output norms.json]
    gaborgrid profile     --config cfg.json (--input sig.csv | --preset name) ...

Flags override config-file fields.  Exit codes: 0 success (numerical
failures are report data, not errors), 2 configuration error or a system
that is not a frame where a dual window is required, 3 internal error.
Reports are byte-deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .errors import ConfigError, GaborGridError, NotAFrame
from .formats import (
    dump_json,
    profile_summary,
    read_signal_binary,
    read_signal_csv,
    validate_report,
    write_profile_csv,
    write_signal_binary,
    write_signal_csv,
    write_tfarray_binary,
    write_tfarray_csv,
)
from .gabor import dual_window, frame_bounds, wexler_raz_residual
from .grid import GridSignal, sample_gaussian, sample_oscillation
from .smoothness import decay_profile
from .spaces import continuous_norm
from .stft import stft
from .suites import SUITE_NAMES, SuiteConfig, run_suites


def load_config(path: str | None) -> SuiteConfig:
    if path is None:
        return SuiteConfig.from_dict({})
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from None
    return SuiteConfig.from_dict(data)


def _apply_overrides(cfg: SuiteConfig, args) -> SuiteConfig:
    from dataclasses import replace

    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "suites", None):
        names = tuple(s.strip() for s in args.suites.split(",") if s.strip())
        updates["suites"] = names
    if getattr(args, "output", None):
        updates["report_path"] = args.output
    if getattr(args, "csv", None):
        updates["csv_path"] = args.csv
    if not updates:
        return cfg
    cfg = replace(cfg, **updates)
    cfg.validate()
    return cfg


def emit_report(report: dict, json_path: str | None = None,
                csv_path: str | None = None) -> list[str]:
    """Write the report deterministically; returns the paths written."""
    validate_report(report)
    written = []
    if json_path:
        Path(json_path).write_text(dump_json(report) + "\n")
        written.append(json_path)
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["suite", "name", "passed", "value", "threshold", "comparator", "details"]
            )
            for e in report["entries"]:
                details = ";".join(
                    f"{k}={_fmt(v)}" for k, v in sorted(e["details"].items())
                )
                writer.writerow(
                    [
                        e["suite"],
                        e["name"],
                        str(e["passed"]).lower(),
                        _fmt(e["value"]),
                        _fmt(e["threshold"]),
                        e["comparator"],
                        details,
                    ]
                )
        written.append(csv_path)
    return written


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _read_signal(path: str, grid) -> GridSignal:
    if path.endswith((".bin", ".gabr")):
        sig = read_signal_binary(path, grid.period)
        if sig.grid.points_per_axis != grid.points_per_axis or sig.grid.dim != grid.dim:
            raise ConfigError(f"input: {path} shape does not match the config grid")
        return sig
    return read_signal_csv(path, grid)


def _write_signal(sig: GridSignal, path: str) -> None:
    if path.endswith((".bin", ".gabr")):
        write_signal_binary(sig, path)
    else:
        write_signal_csv(sig, path)


# Subcommands ------------------------------------------------------------------

def cmd_verify(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    report = run_suites(cfg)
    json_path = cfg.report_path or "report.json"
    csv_path = cfg.csv_path
    if args.format == "csv" and not csv_path:
        csv_path = str(Path(json_path).with_suffix(".csv"))
        json_path = None
    elif args.format == "both" and not csv_path:
        csv_path = str(Path(json_path).with_suffix(".csv"))
    written = emit_report(report, json_path, csv_path)
    failed = sum(1 for e in report["entries"] if not e["passed"])
    print(
        f"ran {len(report['suites'])} suites, {len(report['entries'])} checks, "
        f"{failed} failed -> {', '.join(written) if written else 'no output'}"
    )
    return 0


def cmd_stft(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    grid = cfg.make_grid()
    if args.input is None:
        raise ConfigError("input: --input is required for stft")
    f = _read_signal(args.input, grid)
    window = cfg.make_window(grid)
    table = stft(f, window)
    out = args.output or "stft.csv"
    if out.endswith((".bin", ".gabr")):
        write_tfarray_binary(table, out)
    else:
        write_tfarray_csv(table, out)
    print(f"wrote {out}")
    return 0


def cmd_dual_window(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    system = cfg.make_system()
    cert = frame_bounds(system)
    payload = cert.to_dict()
    payload["frame"] = cert.lower > cfg.tol("frame")
    out = args.output or "dual_window.csv"
    if payload["frame"]:
        gamma = dual_window(system, tol=cfg.tol("frame"))
        payload["residual"] = wexler_raz_residual(system, gamma)
        _write_signal(gamma, out)
        print(f"wrote {out}")
    cert_path = args.certificate or "certificate.json"
    Path(cert_path).write_text(dump_json(payload) + "\n")
    print(f"wrote {cert_path}")
    if not payload["frame"]:
        raise NotAFrame(f"lower frame bound {cert.lower} <= tol {cfg.tol('frame')}; "
                        "no dual window written")
    return 0


def cmd_norms(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    grid = cfg.make_grid()
    if args.input is None:
        raise ConfigError("input: --input is required for norms")
    f = _read_signal(args.input, grid)
    records = [
        {"spec": spec.to_dict(), "lattice": None, "value": continuous_norm(f, spec)}
        for spec in cfg.spaces
    ]
    text = dump_json(records) + "\n"
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_profile(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    system = cfg.make_system()
    grid = system.grid
    if args.input:
        f = _read_signal(args.input, grid)
    elif args.preset == "gaussian":
        f = sample_gaussian(grid, width=2.0 ** 0.5, normalize=True)
    elif args.preset == "oscillation":
        f = sample_oscillation(grid, 4.0)
    else:
        raise ConfigError("input: provide --input or --preset")
    spec = cfg.spaces[0]
    if not spec.is_solid:
        raise ConfigError("spaces: profiles need a solid space first in the list")
    prof = decay_profile(system, f, spec)
    out_csv = args.output or "profile.csv"
    write_profile_csv(prof, out_csv)
    summary_path = args.summary or str(Path(out_csv).with_suffix(".json"))
    Path(summary_path).write_text(dump_json(profile_summary(prof)) + "\n")
    print(f"wrote {out_csv} and {summary_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaborgrid",
        description="Gabor frame verification suites on finite periodic grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("verify", help="run verification suites")
    common(p)
    p.add_argument("--suites", help=f"comma list from {', '.join(SUITE_NAMES)}")
    p.add_argument("--output", help="report JSON path (default report.json)")
    p.add_argument("--csv", help="also write a CSV report here")
    p.add_argument("--format", choices=("json", "csv", "both"), default="json")

    p = sub.add_parser("stft", help="full STFT of a signal file")
    common(p)
    p.add_argument("--input", help="signal file (.csv or .bin)")
    p.add_argument("--output", help="output table (.csv or .bin)")

    p = sub.add_parser("dual-window", help="canonical dual window and certificate")
    common(p)
    p.add_argument("--output", help="dual window signal file")
    p.add_argument("--certificate", help="certificate JSON path")

    p = sub.add_parser("norms", help="space norms of a signal")
    common(p)
    p.add_argument("--input", help="signal file (.csv or .bin)")
    p.add_argument("--output", help="JSON output path (default stdout)")

    p = sub.add_parser("profile", help="coefficient decay profile")
    common(p)
    p.add_argument("--input", help="signal file (.csv or .bin)")
    p.add_argument("--preset", choices=("gaussian", "oscillation"))
    p.add_argument("--output", help="profile CSV path")
    p.add_argument("--summary", help="profile JSON summary path")

    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "stft": cmd_stft,
    "dual-window": cmd_dual_window,
    "norms": cmd_norms,
    "profile": cmd_profile,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NotAFrame as exc:
        print(f"not a frame: {exc}", file=sys.stderr)
        return 2
    except GaborGridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - last-resort CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
