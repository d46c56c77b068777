"""The entry names and pass/fail sets of the benchmark's verify configs, pinned.

A change meant to make the toolkit faster or smaller must not flip a
verdict, and renaming or dropping an entry moves the benchmark's share of
passed checks.  The configs come from ``perfbench/run.py`` itself, so they
are the ones the benchmark runs.  A change that fixes one of the known 2-D
failures (ROADMAP N1), or renames an entry, updates the expected sets here
on purpose.
"""

import importlib.util
from pathlib import Path

import pytest

from gaborgrid.suites import SuiteConfig, run_suites

_RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _bench_config(workload, seed):
    spec = importlib.util.spec_from_file_location("perfbench_run", _RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_config(workload, "full", seed)


# Both verify configs report the same 34 entries, as "suite/name".
NAMES = {
    "decay/gaussian_sups_finite",
    "decay/gaussian_top_to_bottom_ratio",
    "derivative-identity/order1_defect",
    "derivative-identity/order2_defect",
    "embedding-chain/convolution_attained",
    "embedding-chain/kappa1_attained",
    "embedding-chain/kappa1_positive",
    "embedding-chain/kappa2_attained",
    "embedding-chain/kappa2_positive",
    "embedding-chain/superposition_attained",
    "frame-bounds/condition_number",
    "frame-bounds/lower_bound_positive",
    "growth/gaussian_bounded_order",
    "growth/oscillation_bounded_order",
    "growth/oscillation_fails_decay",
    "growth/oscillation_to_gaussian_weight2",
    "growth/top_band_bounded_order",
    "reconstruction/max_relative_error",
    "reconstruction/scaled_dual_error_is_one",
    "wexler-raz/adjoint_identity_defect",
    "wexler-raz/residual",
    "window-independence/K_attained_L1_tau0",
    "window-independence/K_attained_L1_tau2",
    "window-independence/K_attained_L2_tau0",
    "window-independence/K_attained_L2_tau2",
    "window-independence/K_attained_L4_tau0",
    "window-independence/K_attained_L4_tau2",
    "window-independence/fourier_parseval_deviation",
    "window-independence/fourier_vs_bump_band_L1",
    "window-independence/fourier_vs_bump_band_L4",
    "window-independence/solid_shortcut_exact_L1",
    "window-independence/solid_shortcut_exact_L2",
    "window-independence/solid_shortcut_exact_L4",
    "window-independence/solid_shortcut_weighted_band",
}

FAILING = {
    "verify-1d": set(),
    # P = 8 on a 32^2 grid: L / P = 4 is below what these checks resolve.
    "verify-2d": {
        "derivative-identity/order1_defect",
        "derivative-identity/order2_defect",
        "growth/oscillation_fails_decay",
        "growth/oscillation_to_gaussian_weight2",
        "window-independence/fourier_parseval_deviation",
    },
}


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("workload", sorted(FAILING))
def test_bench_configs_keep_their_failing_sets(workload, seed):
    report = run_suites(SuiteConfig.from_dict(_bench_config(workload, seed)))
    names = [f"{e['suite']}/{e['name']}" for e in report["entries"]]
    assert len(names) == len(NAMES) == 34
    assert set(names) == NAMES
    failing = {f"{e['suite']}/{e['name']}" for e in report["entries"] if not e["passed"]}
    assert failing == FAILING[workload]
