"""Span tracer that wraps gaborgrid's public functions from outside the package.

``LayerTracer.install()`` replaces each traced public function in every
loaded ``gaborgrid`` module namespace that binds it, so a call made through
any import path (``gaborgrid.analyze``, ``suites.analyze``, ``cli.frame_bounds``)
opens a span.  Calls made inside a traced function become child spans.  The
suite functions in ``gaborgrid.suites.SUITES`` become ``suites.<name>`` spans.
The numpy kernels gaborgrid calls through the ``numpy`` namespace
(``numpy.fft.*``, ``numpy.roll``, ``numpy.linalg.eigvalsh``) are counted against
the innermost open span.  Spans stay in memory until ``summary()``.

Only module attributes are replaced, never source; ``uninstall()`` restores
every binding.  A traced function that the package no longer has reports 0.  The tracer assumes the
traced program runs on one thread, as the benchmark workloads do.
"""

from __future__ import annotations

import functools
import sys
import time

# Public functions traced per gaborgrid module.
LAYER_FUNCTIONS = {
    "gabor": ("frame_bounds", "dual_window", "analyze", "synthesize", "frame_apply",
              "reconstruction_error", "wexler_raz_residual"),
    "spaces": ("discrete_norm", "continuous_norm", "solid_discrete_norm",
               "fourier_side_norm"),
    "grid": ("lattice_superposition", "spectral_derivative"),
    "stft": ("stft", "stft_on_lattice", "derivative_identity_defect"),
    "smoothness": ("decay_profile", "growth_profile", "schwartz_seminorm",
                   "convolve_samples"),
    "formats": ("dump_json", "validate_report", "write_signal_csv"),
}

# Suites reported as ``suites.<name>.total_s``.
SUITE_NAMES = ("decay", "derivative-identity", "embedding-chain", "frame-bounds",
               "growth", "reconstruction", "wexler-raz", "window-independence")

_FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                  "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

_COUNTERS = ("fft_calls", "fft_points", "roll_calls", "roll_bytes", "eigvalsh_calls")

_ROOT = -1  # counter slot for kernel calls made outside every span


class LayerTracer:
    """Records (name, start, end, parent) spans and per-span kernel counts."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[int, dict[str, int]] = {}
        self.fft_bytes_max = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # Recording -------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else _ROOT)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def _count(self, key: str, amount: int = 1) -> None:
        slot = self._stack[-1] if self._stack else _ROOT
        self.counts.setdefault(slot, dict.fromkeys(_COUNTERS, 0))[key] += amount

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def _fft(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            self._count("fft_calls")
            self._count("fft_points", int(getattr(a, "size", 0)))
            self.fft_bytes_max = max(self.fft_bytes_max, int(getattr(a, "nbytes", 0)))
            return fn(a, *args, **kwargs)

        return counted

    def _roll(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            self._count("roll_calls")
            self._count("roll_bytes", int(getattr(a, "nbytes", 0)))
            return fn(a, *args, **kwargs)

        return counted

    def _eigvalsh(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._count("eigvalsh_calls")
            return fn(*args, **kwargs)

        return counted

    # Installation -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the traced functions everywhere gaborgrid binds them."""
        import numpy

        import gaborgrid.cli  # noqa: F401 - loads every gaborgrid module
        import gaborgrid.suites

        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "gaborgrid" or name.startswith("gaborgrid.")) and m]
        for layer, functions in LAYER_FUNCTIONS.items():
            home = sys.modules[f"gaborgrid.{layer}"]
            for fname in functions:
                original = getattr(home, fname, None)
                if original is None:  # removed from the package: reports 0
                    continue
                wrapped = self.span(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, attr, wrapped)
        suites = gaborgrid.suites.SUITES
        for name, original in list(suites.items()):
            suites[name] = self.span(f"suites.{name}", original)
            self._restore.append((suites, name, original))
        for fname in _FFT_FUNCTIONS:
            self._set(numpy.fft, fname, self._fft(getattr(numpy.fft, fname)))
        self._set(numpy, "roll", self._roll(numpy.roll))
        self._set(numpy.linalg, "eigvalsh", self._eigvalsh(numpy.linalg.eigvalsh))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    # Summary ----------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls, total and self time, plus kernel counters.

        ``total_s`` sums only the outermost span of each name, so recursion
        (``dump_json``, ``continuous_norm``) is not counted twice.  ``self_s``
        is a span's duration minus the time its child spans cover.
        """
        n = len(self.names)
        duration = [self.ends[i] - self.starts[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            if self.parents[i] != _ROOT:
                child_time[self.parents[i]] += duration[i]
        functions: dict[str, dict[str, float]] = {}
        for i in range(n):
            name = self.names[i]
            entry = functions.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += duration[i] - child_time[i]
            if not self._nested_in_same(i):
                entry["total_s"] += duration[i]
        kernels = dict.fromkeys(_COUNTERS, 0)
        kernels["fft_bytes_max"] = self.fft_bytes_max
        gabor_fft_calls = 0
        for slot, counts in self.counts.items():
            for key, value in counts.items():
                kernels[key] += value
            if slot != _ROOT and self.names[slot].startswith("gabor."):
                gabor_fft_calls += counts["fft_calls"]
        return {"functions": functions, "kernels": kernels,
                "gabor_fft_calls": gabor_fft_calls}

    def _nested_in_same(self, i: int) -> bool:
        name = self.names[i]
        parent = self.parents[i]
        while parent != _ROOT:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False

    def spans(self) -> list[list]:
        """Spans as [name, start, end, parent] rows, parent -1 for top level."""
        return [[self.names[i], self.starts[i], self.ends[i], self.parents[i]]
                for i in range(len(self.names))]
