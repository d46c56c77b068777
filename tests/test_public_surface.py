"""The names ``gaborgrid`` exports, and the names the benchmark imports.

Adding a name to ``gaborgrid.__all__`` or removing one means editing
``EXPORTED`` too, so every change to the public surface is deliberate.
"""

import ast
import importlib
import types
from pathlib import Path

import gaborgrid

EXPORTED = {
    # errors
    "ConfigError", "DimensionMismatch", "GaborGridError", "GridMismatch",
    "IndexMismatch", "InvalidLattice", "NonAlignedLattice",
    "NonAlignedShift", "NotAFrame", "NotSolid", "OverlappingSupports",
    "ResourceLimit", "ZeroSignal",
    # gabor
    "FrameCertificate", "GaborSystem", "analyze", "dual_window", "frame_bounds",
    "reconstruction_error", "synthesize", "wexler_raz_residual",
    # grid
    "CoeffArray", "GridLattice", "GridSignal", "PeriodicGrid", "dft",
    "sample_bump", "sample_gaussian", "sample_oscillation", "sample_rectangle",
    "translate",
    # lattice
    "Lattice", "PowerWeight", "dual_lattice",
    # smoothness
    "DecayProfile", "decay_profile",
    # spaces
    "SpaceSpec", "continuous_norm", "decay_weighted_sup", "discrete_norm",
    "fourier_side_norm", "growth_weighted_sup", "solid_discrete_norm",
    # stft and suites
    "TFArray", "derivative_identity_defect", "stft", "SuiteConfig", "run_suites",
}

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_exported_names_are_pinned():
    names = {name for name in gaborgrid.__all__
             if not isinstance(getattr(gaborgrid, name), types.ModuleType)}
    assert names == EXPORTED


def test_benchmark_imports_resolve():
    imported = set()
    for script in ("run.py", "worker.py"):
        for node in ast.walk(ast.parse((BENCH / script).read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gaborgrid":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{script}: {node.module}.{alias.name}"
                    imported.add(f"{node.module}.{alias.name}")
    # The entry point every workload drives: the scan found the imports.
    assert "gaborgrid.cli.main" in imported
