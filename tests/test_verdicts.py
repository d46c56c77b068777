"""The entry names and pass/fail sets of the benchmark's verify configs, pinned.

A change meant to make the toolkit faster or smaller must not flip a
verdict, and renaming or dropping an entry moves the benchmark's share of
passed checks.  The configs come from ``perfbench/run.py`` itself, so they
are the ones the benchmark runs.  A change that fixes one of the known 2-D
failures (ROADMAP N1), or renames an entry, updates the expected sets here
on purpose.  No suite draws at random, so the reports depend on the
config's grid and system alone, not on its ``seed`` or ``samples``.
"""

import importlib.util
from pathlib import Path

import pytest

from gaborgrid import cli
from gaborgrid.formats import dump_json
from gaborgrid.suites import SuiteConfig, run_suites

_RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _bench_config(workload, seed):
    spec = importlib.util.spec_from_file_location("perfbench_run", _RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_config(workload, "full", seed)


# The 1-D verify config reports these 34 entries, as "suite/name".
NAMES_1D = {
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

# On the 2-D 32^2 grid the Fourier-side labels collide (L < P^2), so one
# failing diagnostic stands in for the three Fourier entries: 32 entries.
FOURIER = {
    "window-independence/fourier_parseval_deviation",
    "window-independence/fourier_vs_bump_band_L1",
    "window-independence/fourier_vs_bump_band_L4",
}
NAMES = {
    "verify-1d": NAMES_1D,
    "verify-2d": NAMES_1D - FOURIER | {"window-independence/fourier_labels_resolved"},
}

FAILING = {
    "verify-1d": set(),
    # P = 8 on a 32^2 grid: L / P = 4 is below what these checks resolve.
    "verify-2d": {
        "derivative-identity/order1_defect",
        "derivative-identity/order2_defect",
        "growth/oscillation_fails_decay",
        "growth/oscillation_to_gaussian_weight2",
        "window-independence/fourier_labels_resolved",
    },
}


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("workload", sorted(FAILING))
def test_bench_configs_keep_their_failing_sets(workload, seed):
    report = run_suites(SuiteConfig.from_dict(_bench_config(workload, seed)))
    names = [f"{e['suite']}/{e['name']}" for e in report["entries"]]
    assert len(names) == len(NAMES[workload]) == {"verify-1d": 34, "verify-2d": 32}[workload]
    assert set(names) == NAMES[workload]
    failing = {f"{e['suite']}/{e['name']}" for e in report["entries"] if not e["passed"]}
    assert failing == FAILING[workload]


@pytest.mark.parametrize("workload", sorted(FAILING))
def test_bench_reports_depend_on_the_config_alone(workload, tmp_path):
    # The verify report bytes with seed 3, seed 11 and no seed at all.
    reports = []
    for seed in (3, 11, None):
        config = _bench_config(workload, 3 if seed is None else seed)
        if seed is None:
            del config["seed"]
        path = tmp_path / f"config-{seed}.json"
        path.write_text(dump_json(config))
        out = tmp_path / f"report-{seed}.json"
        assert cli.main(["verify", "--config", str(path), "--output", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]
    assert b'"seed"' not in reports[0]
