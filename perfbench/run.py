"""gaborgrid benchmark: three workloads driven through the public CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify-1d --seed 3 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (wall_s, setup_s, peak_rss_mb,
checks_passed_share); ``--trace 1`` prints the per-layer metrics of a traced
run and the tracing overhead.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; ``attempted`` counts
worker interpreters started and ``failed`` those that crashed or failed a
gate.  The exit code is 0 when every correctness gate passed, 1 when one
failed, and 2 when the checkout holds no ``src/gaborgrid``.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"

RUN_LIMIT_S = 165.0     # a run must end within 180 s; leave room for gates
SETUP_PROBES = 8        # set-up-only interpreter starts, before and after the executions
BLAS_THREADS = 1        # single-threaded baseline; fixes reduction order

SYSTEM = {
    "window": {"kind": "gaussian", "center": 0.0, "width": 1.0, "normalize": False},
    "time_step": 1.0,
    "freq_step": 0.5,
}
# Tiny sizes serve the smoke test only; measured runs use "full".
WORKLOADS = {
    "verify-1d": {"kind": "verify",
                  "full": {"grid": [1, 16.0, 256]},
                  "tiny": {"grid": [1, 8.0, 64], "samples": "tiny"}},
    # The ROADMAP's 2-D grid and system with a quarter of the default sample
    # counts, so that one execution fits a run's time budget.
    "verify-2d": {"kind": "verify",
                  "full": {"grid": [2, 8.0, 32],
                           "samples": {"ratio_scan": 50, "reconstruction": 12,
                                       "continuity": 25}},
                  "tiny": {"grid": [2, 4.0, 16], "samples": "tiny"}},
    "certify-1d": {"kind": "certify",
                   "full": {"grid": [1, 16.0, 1024]},
                   "tiny": {"grid": [1, 16.0, 128]}},
}
TINY_SAMPLES = {"ratio_scan": 4, "reconstruction": 3, "continuity": 4}

CERT_REL_TOL = 1e-6       # certificate A, B against the dense-eigen reference
RESIDUAL_TOL = 1e-8       # Wexler-Raz residual in the certificate
RECONSTRUCTION_TOL = 1e-8
RECONSTRUCTION_SIGNALS = 4


class Gates:
    """Correctness checks made outside the timed region."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))
        if not ok:
            print(f"gate failed: {name} {detail}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)


def make_config(workload: str, size: str, seed: int) -> dict:
    spec = WORKLOADS[workload][size]
    dim, period, points = spec["grid"]
    config = {
        "schema": 1,
        "seed": seed % 2 ** 32,
        "grid": {"dim": dim, "period": period, "points_per_axis": points},
        "system": SYSTEM,
    }
    samples = spec.get("samples")
    if samples is not None:
        config["samples"] = TINY_SAMPLES if samples == "tiny" else samples
    return config


def cli_argv(kind: str, rundir: Path) -> list[str]:
    config = str(rundir / "config.json")
    if kind == "verify":
        return ["verify", "--config", config, "--output", str(rundir / "report.json")]
    return ["dual-window", "--config", config, "--output", str(rundir / "gamma.csv"),
            "--certificate", str(rundir / "certificate.json")]


# Executions -------------------------------------------------------------------

def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def execute(rundir: Path, mode: str, trace: bool, argv: list[str], deadline: float) -> dict:
    """Start one worker interpreter; returns its result with ``setup_s`` added."""
    job = {"mode": mode, "trace": trace, "config": str(rundir / "config.json"),
           "argv": argv, "result": str(rundir / "worker-result.json")}
    job_path = rundir / "job.json"
    job_path.write_text(json.dumps(job))
    Path(job["result"]).unlink(missing_ok=True)
    begin = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path)],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=max(deadline - begin, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "timed out"}
    if proc.returncode != 0:
        return {"ok": False, "error": proc.stderr[-2000:]}
    result = json.loads(Path(job["result"]).read_text())
    result["ok"] = result.get("exit_code", 0) == 0
    if not result["ok"]:
        result["error"] = f"gaborgrid exited {result['exit_code']}: {proc.stderr[-2000:]}"
    result["setup_s"] = result["setup_end"] - begin
    if mode == "run":
        result["wall_s"] = result["end"] - result["start"]
    return result


# Correctness gates ------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_repeatable(gates: Gates, key: str, data: bytes) -> None:
    """Output bytes must match every earlier execution with the same key.

    The store outlives the run, so repeat runs with the same seed are
    compared too.  The key includes a digest of ``src/``.
    """
    store_path = WORK / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    digest = hashlib.sha256(data).hexdigest()
    expected = store.setdefault(key, digest)
    gates.check("byte_identical_repeat", digest == expected, key)
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, store_path)


def verify_gates(gates: Gates, rundir: Path, key: str) -> tuple[int, int]:
    """Gate the report; returns (checks attempted, checks failed) from it."""
    from gaborgrid.formats import validate_report

    path = rundir / "report.json"
    data = path.read_bytes()
    report = json.loads(data)
    try:
        validate_report(report)
        gates.check("report_schema", True)
    except ValueError as exc:
        gates.check("report_schema", False, str(exc))
        return 0, 0
    check_repeatable(gates, key, data)
    entries = report["entries"]
    return len(entries), sum(1 for e in entries if not e["passed"])


def read_certificate(path: Path) -> dict:
    return json.loads(path.read_text())


def load_reference(workload: str, size: str) -> dict:
    return json.loads((HERE / "reference.json").read_text())[workload][size]


def certify_gates(gates: Gates, rundir: Path, config: dict, reference: dict,
                  seed: int) -> tuple[int, int]:
    """Gate certificate and dual window; returns (checks attempted, failed)."""
    import numpy as np
    from gaborgrid import GridSignal, reconstruction_error
    from gaborgrid.formats import read_signal_csv
    from gaborgrid.suites import SuiteConfig

    before = len(gates.results), gates.failed
    cert = read_certificate(rundir / "certificate.json")
    for key in ("A", "B"):
        got, want = cert.get(key), reference[key]
        rel = abs(got - want) / abs(want) if isinstance(got, (int, float)) else math.inf
        gates.check(f"certificate_{key}", rel <= CERT_REL_TOL,
                    f"{got!r} against reference {want!r}")
    gates.check("certificate_frame", cert.get("frame") is True, repr(cert.get("frame")))
    residual = cert.get("residual")
    gates.check("certificate_residual",
                isinstance(residual, (int, float)) and residual <= RESIDUAL_TOL,
                repr(residual))
    system = SuiteConfig.from_dict(config).make_system()
    gamma = read_signal_csv(rundir / "gamma.csv", system.grid)
    rng = np.random.default_rng(seed % 2 ** 32)
    n = system.grid.size
    worst = max(
        reconstruction_error(system, gamma, GridSignal(
            system.grid, rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        for _ in range(RECONSTRUCTION_SIGNALS)
    )
    gates.check("gamma_reconstruction", worst <= RECONSTRUCTION_TOL, repr(worst))
    return len(gates.results) - before[0], gates.failed - before[1]


# Runs ---------------------------------------------------------------------------

def end_to_end_metrics(executions: list[dict], setups: list[float],
                       checks: tuple[int, int]) -> dict:
    attempted, failed = checks
    return {
        "wall_s": statistics.median(e["wall_s"] for e in executions),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(e["peak_rss_kb"] for e in executions) / 1024.0,
        "checks_passed_share": (attempted - failed) / attempted,
    }


def layer_metrics(traced: list[dict], untraced: list[dict], checks: tuple[int, int]) -> dict:
    from layertrace import LAYER_FUNCTIONS, SUITE_NAMES

    def med(values):
        values = list(values)
        if all(isinstance(v, int) for v in values):
            return statistics.median_low(values)  # counts stay whole numbers
        return statistics.median(values)

    summaries = [e["trace"] for e in traced]
    metrics = {}
    for layer, functions in LAYER_FUNCTIONS.items():
        for fname in functions:
            name = f"{layer}.{fname}"
            for field in ("calls", "total_s", "self_s"):
                metrics[f"{name}.{field}"] = med(
                    s["functions"].get(name, {}).get(field, 0) for s in summaries)
    for suite in SUITE_NAMES:
        metrics[f"suites.{suite}.total_s"] = med(
            s["functions"].get(f"suites.{suite}", {}).get("total_s", 0.0) for s in summaries)
    metrics["gabor.fft_calls"] = med(s["gabor_fft_calls"] for s in summaries)
    metrics["gabor.tables_bytes"] = traced[0]["tables_bytes"]
    kernels = {
        "numpy.fft.calls": "fft_calls",
        "numpy.fft.points": "fft_points",
        "numpy.roll.calls": "roll_calls",
        "numpy.roll.bytes": "roll_bytes",
        "numpy.linalg.eigvalsh.calls": "eigvalsh_calls",
    }
    for name, key in kernels.items():
        metrics[name] = med(s["kernels"][key] for s in summaries)
    attempted, failed = checks
    metrics["checks_failed_share"] = failed / attempted
    metrics["trace.overhead_s"] = (med(e["wall_s"] for e in traced)
                                   - med(e["wall_s"] for e in untraced))
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    kind = WORKLOADS[workload]["kind"]
    rundir = WORK / f"{workload}-{size}-seed{seed}-trace{int(trace)}"
    rundir.mkdir(parents=True, exist_ok=True)
    config = make_config(workload, size, seed)
    (rundir / "config.json").write_text(json.dumps(config, indent=1))
    argv = cli_argv(kind, rundir)
    reference = load_reference(workload, size) if kind == "certify" else None
    repeat_key = f"{workload}|{size}|seed={seed}|src={source_digest()}"

    gates = Gates()
    executions: list[dict] = []
    checks = [0, 0]

    def one(mode: str, traced: bool) -> dict | None:
        result = execute(rundir, mode, traced, argv, deadline)
        result["traced"] = traced
        executions.append(result)
        failed_before = gates.failed
        if not result["ok"]:
            gates.check("execution", False, result["error"])
        elif mode == "run":
            if kind == "verify":
                counts = verify_gates(gates, rundir, repeat_key)
            else:
                counts = certify_gates(gates, rundir, config, reference, seed)
            checks[0] += counts[0]
            checks[1] += counts[1]
        result["gates_failed"] = gates.failed - failed_before
        return result if result["gates_failed"] == 0 else None

    setups: list[float] = []

    def probes(count: int) -> None:
        for _ in range(count):
            probe = one("setup", False)
            if probe is not None:
                setups.append(probe["setup_s"])

    if not trace:
        one("setup", False)  # warm-up: bytecode and page cache
        probes(SETUP_PROBES // 2)
    measure_start = time.monotonic()
    while True:
        t = time.monotonic()
        one("run", False)
        if trace:
            one("run", True)
        now = time.monotonic()
        last = now - t
        # Start another execution only if at least half of it fits in the
        # measuring time, so a run measures about ``seconds`` on every workload.
        if (gates.failed or now - measure_start + last / 2 >= seconds
                or now + last > deadline):
            break
    measured_s = time.monotonic() - measure_start
    if not trace:
        probes(SETUP_PROBES - SETUP_PROBES // 2)

    runs = [e for e in executions if e["ok"] and "wall_s" in e]
    setups += [e["setup_s"] for e in runs if not e["traced"]]
    traced = [e for e in runs if e["traced"]]
    untraced = [e for e in runs if not e["traced"]]
    metrics = {}
    if not gates.failed:
        if trace:
            metrics = layer_metrics(traced, untraced, tuple(checks))
        else:
            metrics = end_to_end_metrics(untraced, setups, tuple(checks))
    return {
        "gates": gates,
        "executions": executions,
        "metrics": metrics,
        "attempted": len(executions),
        "failed": sum(1 for e in executions if e["gates_failed"]),
        "measured_s": measured_s,
    }


def with_units(values: dict, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(values):
        raise RuntimeError(f"metric names differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(values))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every path quickly, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gaborgrid" / "__init__.py").is_file():
        print(f"no src/gaborgrid under {ROOT}; run from the root of a gaborgrid checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # gates run in this process too
    from machine import facts

    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    gates = outcome["gates"]
    correct = gates.failed == 0
    metrics = with_units(outcome["metrics"], bool(args.trace)) if correct else {}
    run_facts = facts(ROOT, BLAS_THREADS)
    traced = [e for e in outcome["executions"] if e.get("trace")]
    if traced:
        run_facts["working_set"] = {
            "gabor.tables_bytes": traced[0]["tables_bytes"],
            "numpy.fft.max_call_bytes": traced[0]["trace"]["kernels"]["fft_bytes_max"],
        }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "facts": run_facts,
        "measured_s": outcome["measured_s"],
        "failed_gates": [list(g) for g in gates.results if not g[1]],
        "gates_run": len(gates.results),
        "executions": [{k: v for k, v in e.items() if k != "spans"}
                       for e in outcome["executions"]],
        "suite_accounting": [
            {"traced_wall_s": e["wall_s"],
             "suite_spans_s": sum(v["total_s"] for k, v in e["trace"]["functions"].items()
                                  if k.startswith("suites."))}
            for e in traced],
        "spans": traced[0]["spans"] if traced else [],
        "metrics": metrics,
    }
    out = WORK / "results" / (f"{args.workload}-{args.size}-seed{args.seed}"
                              f"-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record))
    print("facts: " + json.dumps(run_facts, sort_keys=True))
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
