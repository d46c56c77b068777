"""Batch verification driver: maps flags to library calls.

Subcommands::

    gaborgrid verify      --config cfg.json [--seed n] [--suites a,b]
                          [--output out.json] [--csv out.csv] [--format json|csv|both]
    gaborgrid stft        --config cfg.json --input sig.csv --output tf.csv
    gaborgrid dual-window --config cfg.json --output gamma.csv --certificate c.json
    gaborgrid norms       --config cfg.json --input sig.csv [--output norms.json]
    gaborgrid profile     --config cfg.json (--input sig.csv | --preset name) ...

``verify``'s ``--seed`` and ``--suites`` override the config.  ``verify``
writes the JSON report at ``--output``, else ``output.report``, else
``report.json``, unless ``--format csv``; it writes the CSV report at
``--csv``, else ``output.csv``, else next to the JSON path when ``--format``
is ``csv`` or ``both``.  Every file format, and the choice between CSV and
binary by suffix, lives in :mod:`gaborgrid.formats`.  Exit codes: 0 success
(numerical failures are report data, not errors), 2 configuration error (a
config key the program does not read among them) or a system that is not a
frame where a dual window is required, 3 internal error.  Reports are
byte-deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError, GaborGridError, NotAFrame
from .formats import (
    dump_json,
    profile_summary,
    read_signal,
    write_profile_csv,
    write_report,
    write_signal,
    write_tfarray,
)
from .gabor import FRAME_THRESHOLD, dual_window, frame_bounds, wexler_raz_residual
from .grid import sample_gaussian, sample_oscillation
from .smoothness import decay_profile
from .spaces import continuous_norm
from .stft import stft
from .suites import SUITE_NAMES, SuiteConfig, run_suites


def _read_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from None


def load_config(path: str | None) -> SuiteConfig:
    return SuiteConfig.from_dict(_read_config(path))


# Subcommands ------------------------------------------------------------------

def cmd_verify(args) -> int:
    data = _read_config(args.config)
    cfg = SuiteConfig.from_dict(data)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.suites:
        cfg = replace(cfg, suites=tuple(s.strip() for s in args.suites.split(",") if s.strip()))
    output = data.get("output", {})  # checked by SuiteConfig.from_dict
    report = run_suites(cfg)
    json_path = args.output or output.get("report") or "report.json"
    csv_path = args.csv or output.get("csv")
    if not csv_path and args.format != "json":
        csv_path = str(Path(json_path).with_suffix(".csv"))
    if args.format == "csv":
        json_path = None
    written = write_report(report, json_path, csv_path)
    failed = sum(1 for e in report["entries"] if not e["passed"])
    print(
        f"ran {len(report['suites'])} suites, {len(report['entries'])} checks, "
        f"{failed} failed -> {', '.join(written)}"
    )
    return 0


def cmd_stft(args) -> int:
    cfg = load_config(args.config)
    grid = cfg.make_grid()
    if args.input is None:
        raise ConfigError("input: --input is required for stft")
    table = stft(read_signal(args.input, grid), cfg.make_window(grid))
    out = args.output or "stft.csv"
    write_tfarray(table, out)
    print(f"wrote {out}")
    return 0


def cmd_dual_window(args) -> int:
    cfg = load_config(args.config)
    system = cfg.make_system()
    cert = frame_bounds(system)
    payload = dict(cert.to_dict(), frame=cert.is_frame)
    out = args.output or "dual_window.csv"
    if cert.is_frame:
        gamma = dual_window(system)
        payload["residual"] = wexler_raz_residual(system, gamma)
        write_signal(gamma, out)
        print(f"wrote {out}")
    cert_path = args.certificate or "certificate.json"
    Path(cert_path).write_text(dump_json(payload) + "\n")
    print(f"wrote {cert_path}")
    if not cert.is_frame:
        raise NotAFrame(f"lower frame bound {cert.lower} <= {FRAME_THRESHOLD}; no dual window")
    return 0


def cmd_norms(args) -> int:
    cfg = load_config(args.config)
    grid = cfg.make_grid()
    if args.input is None:
        raise ConfigError("input: --input is required for norms")
    f = read_signal(args.input, grid)
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
    cfg = load_config(args.config)
    system = cfg.make_system()
    grid = system.grid
    if args.input:
        f = read_signal(args.input, grid)
    elif args.preset == "gaussian":
        f = sample_gaussian(grid, width=2.0 ** 0.5, normalize=True)
    elif args.preset == "oscillation":
        f = sample_oscillation(grid, 4.0)
    else:
        raise ConfigError("input: provide --input or --preset")
    if not (cfg.spaces and cfg.spaces[0].is_solid):
        raise ConfigError("spaces: profiles need a solid space first in the list")
    prof = decay_profile(system, f, cfg.spaces[0])
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

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--suites", help=f"comma list from {', '.join(SUITE_NAMES)}")
    p.add_argument("--output", help="report JSON path (default report.json)")
    p.add_argument("--csv", help="CSV report path")
    p.add_argument("--format", choices=("json", "csv", "both"), default="json")

    p = sub.add_parser("stft", help="full STFT of a signal file")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--input", help="signal file (.csv or .bin)")
    p.add_argument("--output", help="output table (.csv or .bin)")

    p = sub.add_parser("dual-window", help="canonical dual window and certificate")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--output", help="dual window signal file")
    p.add_argument("--certificate", help="certificate JSON path")

    p = sub.add_parser("norms", help="space norms of a signal")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--input", help="signal file (.csv or .bin)")
    p.add_argument("--output", help="JSON output path (default stdout)")

    p = sub.add_parser("profile", help="coefficient decay profile")
    p.add_argument("--config", help="JSON config file")
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
