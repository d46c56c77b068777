"""Recompute perfbench/reference.json: certify-1d frame bounds by dense eigen.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 perfbench/make_reference.py

The oracle builds the frame operator matrix directly from the window
samples, S = h * (W W^H) o (Phi Phi^H) with W the lattice translates of the
window, Phi the modulation phases and h the cell volume, and takes its
extreme eigenvalues.  It shares no code with gaborgrid's frame-operator
paths; only the window samples come from the config, through the public
``SuiteConfig``.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from run import HERE, WORKLOADS, make_config


def dense_bounds(config: dict) -> tuple[float, float]:
    from gaborgrid.suites import SuiteConfig

    cfg = SuiteConfig.from_dict(config)
    psi = cfg.make_window(cfg.make_grid()).values
    L = psi.size
    h = cfg.period / L
    shift = round(cfg.time_step / h)
    bins = round(cfg.freq_step * cfg.period)
    W = np.stack([np.roll(psi, k) for k in range(0, L, shift)], axis=1)
    n = np.arange(L)
    Phi = np.exp(2j * np.pi * np.outer(n, np.arange(0, L, bins)) / L)
    S = h * (W @ W.conj().T) * (Phi @ Phi.conj().T)
    eigs = np.linalg.eigvalsh(S)
    return float(eigs[0]), float(eigs[-1])


def main() -> int:
    reference = {}
    for workload, spec in WORKLOADS.items():
        if spec["kind"] != "certify":
            continue
        for size in ("full", "tiny"):
            config = make_config(workload, size, seed=0)
            if config["grid"]["dim"] != 1:
                raise SystemExit("the dense oracle here covers 1-D grids only")
            lower, upper = dense_bounds(config)
            reference.setdefault(workload, {})[size] = {
                "grid": spec[size]["grid"], "A": lower, "B": upper,
            }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(json.dumps(reference, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
