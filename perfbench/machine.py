"""Machine and build facts recorded with every benchmark run (read-only)."""

from __future__ import annotations

import os
import platform
from pathlib import Path

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _size_bytes(text: str | None) -> int | None:
    if not text:
        return None
    units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    if text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def cache_sizes() -> dict:
    """Per-core L2 and last-level cache sizes in bytes, from sysfs."""
    sizes: dict[int, int] = {}
    for index in sorted(_CACHE_DIR.glob("index*")):
        level = _read(index / "level")
        kind = _read(index / "type")
        size = _size_bytes(_read(index / "size"))
        if level and kind in ("Unified", "Data") and size:
            sizes[int(level)] = size
    return {
        "l2_bytes": sizes.get(2),
        "llc_bytes": sizes[max(sizes)] if sizes else None,
        "llc_level": max(sizes) if sizes else None,
    }


def blas_facts() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return {"name": None, "version": None}
    return {"name": blas.get("name"), "version": blas.get("version")}


def src_line_count(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def facts(root: Path, threads: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_facts(),
        "blas_threads_pinned": threads,
        "src_lines": src_line_count(root),
    }
