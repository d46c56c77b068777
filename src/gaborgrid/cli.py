"""Batch verification driver: maps flags to library calls.

Usage::

    gaborgrid verify      --config cfg.json [--suites a,b]
                          [--output out.json] [--csv out.csv] [--format json|csv|both]
    gaborgrid stft        --config cfg.json --input sig.csv --output tf.csv
    gaborgrid dual-window --config cfg.json --output gamma.csv --certificate c.json
    gaborgrid norms       --config cfg.json --input sig.csv [--output norms.json]
    gaborgrid profile     --config cfg.json (--input sig.csv | --preset gaussian|oscillation)
                          [--output prof.csv] [--summary prof.json]

Each flag takes one value, as ``--flag value`` or ``--flag=value``, and may be
shortened to a unique prefix; ``-h`` or ``--help`` prints this text.
``verify``'s ``--suites`` overrides the config.  ``verify``
writes the JSON report at ``--output``, else ``output.report``, else
``report.json``, unless ``--format csv``; it writes the CSV report at
``--csv``, else ``output.csv``, else next to the JSON path when ``--format``
is ``csv`` or ``both``; when both reports would go to one file it refuses to
run.  ``profile`` writes the profile CSV at ``--output``, else
``profile.csv``, and its JSON summary at ``--summary``, else next to the CSV.
Every file format, and the choice between CSV and binary by suffix, lives in
:mod:`gaborgrid.formats`.  Exit codes: 0 success (numerical failures
are report data, not errors), 2 usage or configuration error (a config key
the program does not read among them) or a system that is not a frame where a
dual window is required, 3 internal error.  Reports are byte-deterministic for
a fixed config: no command draws at random.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

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
from .grid import GridSignal, PeriodicGrid, sample_gaussian, sample_oscillation
from .smoothness import decay_profile
from .spaces import continuous_norm
from .stft import stft
from .suites import SuiteConfig, run_suites


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


def _read_input(args, grid: PeriodicGrid) -> GridSignal:
    """The ``--input`` signal on ``grid``.  The file formats keep nan and
    inf, but no command gives them a meaning, so a non-finite value is a
    configuration error, as a missing ``--input`` is."""
    if args.input is None:
        raise ConfigError(f"input: --input is required for {args.command}")
    f = read_signal(args.input, grid)
    bad = np.flatnonzero(~np.isfinite(f.values))
    if bad.size:
        raise ConfigError(f"input: {args.input}: non-finite value at index {bad[0]}")
    return f


# Subcommands ------------------------------------------------------------------

def cmd_verify(args) -> int:
    data = _read_config(args.config)
    cfg = SuiteConfig.from_dict(data)
    if args.suites:
        cfg = replace(cfg, suites=tuple(s.strip() for s in args.suites.split(",") if s.strip()))
    output = data.get("output", {})  # checked by SuiteConfig.from_dict
    json_path = args.output or output.get("report") or "report.json"
    csv_path = args.csv or output.get("csv")
    if not csv_path and args.format != "json":
        csv_path = str(Path(json_path).with_suffix(".csv"))
    if args.format == "csv":
        json_path = None
    if json_path and csv_path and Path(json_path).resolve() == Path(csv_path).resolve():
        raise ConfigError(f"output: the JSON and CSV reports would both be written to {csv_path}")
    report = run_suites(cfg)
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
    table = stft(_read_input(args, grid), cfg.make_window(grid))
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
    f = _read_input(args, cfg.make_grid())
    records = [
        {"spec": spec.to_dict(), "value": continuous_norm(f, spec)}
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
    if args.input is not None and args.preset is not None:
        raise ConfigError("input: give --input or --preset, not both")
    cfg = load_config(args.config)
    system = cfg.make_system()
    grid = system.grid
    if args.preset == "gaussian":
        f = sample_gaussian(grid, width=2.0 ** 0.5, normalize=True)
    elif args.preset == "oscillation":
        f = sample_oscillation(grid, 4.0)
    elif args.input is None:
        raise ConfigError("input: provide --input or --preset")
    else:
        f = _read_input(args, grid)
    if not (cfg.spaces and cfg.spaces[0].is_solid):
        raise ConfigError("spaces: profiles need a solid space first in the list")
    prof = decay_profile(system, f, cfg.spaces[0])
    out_csv = args.output or "profile.csv"
    write_profile_csv(prof, out_csv)
    summary_path = args.summary or str(Path(out_csv).with_suffix(".json"))
    Path(summary_path).write_text(dump_json(profile_summary(prof)) + "\n")
    print(f"wrote {out_csv} and {summary_path}")
    return 0


# Each subcommand's flags; each takes one value, of the given type or one of
# the given strings.  Every flag but --format defaults to None.
_FLAGS = {
    "verify": {"--config": str, "--suites": str, "--output": str,
               "--csv": str, "--format": ("json", "csv", "both")},
    "stft": {"--config": str, "--input": str, "--output": str},
    "dual-window": {"--config": str, "--output": str, "--certificate": str},
    "norms": {"--config": str, "--input": str, "--output": str},
    "profile": {"--config": str, "--input": str, "--preset": ("gaussian", "oscillation"),
                "--output": str, "--summary": str},
}

_COMMANDS = {
    "verify": cmd_verify,
    "stft": cmd_stft,
    "dual-window": cmd_dual_window,
    "norms": cmd_norms,
    "profile": cmd_profile,
}


def _usage_error(message: str):
    usage = (__doc__ or "").partition("::\n\n")[2].partition("\n\n")[0]
    sys.stderr.write(f"usage:\n{usage}\ngaborgrid: error: {message}\n")
    raise SystemExit(2)


def _help():
    sys.stdout.write(__doc__ or "")
    raise SystemExit(0)


def _is_flag(token: str) -> bool:
    # "-" and negative numbers are values, as argparse reads them.
    return token[:1] == "-" and token != "-" and not token[1:].replace(".", "", 1).isdigit()


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """The subcommand and flag values of ``argv``; a usage error exits 2."""
    if argv[:1] in (["-h"], ["--help"]):
        _help()
    if not argv:
        _usage_error("the following arguments are required: command")
    command, rest = argv[0], argv[1:]
    if command not in _FLAGS:
        _usage_error(f"argument command: invalid choice: {command!r} "
                     f"(choose from {', '.join(_FLAGS)})")
    flags = _FLAGS[command]
    values = {flag[2:]: "json" if flag == "--format" else None for flag in flags}
    known = (*flags, "--help")
    unknown = []
    while rest:
        token, rest = rest[0], rest[1:]
        if token == "-h":
            _help()
        name, eq, value = token.partition("=")
        matches = [name] if name in known else [f for f in known if f.startswith(name)]
        if not name.startswith("--") or name == "--" or not matches:
            unknown.append(token)
            continue
        if len(matches) > 1:
            _usage_error(f"ambiguous option: {name} could match {', '.join(matches)}")
        flag = matches[0]
        if flag == "--help":
            _help()
        if not eq:
            if not rest or _is_flag(rest[0]):
                _usage_error(f"argument {flag}: expected one argument")
            value, rest = rest[0], rest[1:]
        kind = flags[flag]
        if isinstance(kind, tuple):
            if value not in kind:
                _usage_error(f"argument {flag}: invalid choice: {value!r} "
                             f"(choose from {', '.join(kind)})")
        else:
            try:
                value = kind(value)
            except ValueError:
                _usage_error(f"argument {flag}: invalid {kind.__name__} value: {value!r}")
        values[flag[2:]] = value
    if unknown:
        _usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(command=command, **values)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
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
