"""The pass/fail sets of the benchmark's verify configs, pinned.

A change meant to make the toolkit faster or smaller must not flip a
verdict.  The configs come from ``perfbench/run.py`` itself, so they are
the ones the benchmark runs.  A change that fixes one of the known 2-D
failures (ROADMAP N1) updates the expected set here on purpose.
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
    failing = {f"{e['suite']}/{e['name']}" for e in report["entries"] if not e["passed"]}
    assert failing == FAILING[workload]
    assert len(report["entries"]) == 39
