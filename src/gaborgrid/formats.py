"""File formats: CSV and binary signal dumps, deterministic JSON.

Binary layout: a 16-byte header ``magic "GABR", u32 dim, u32 L, u32 rank``
(little endian) followed by float64 interleaved re/im pairs; rank 1 is a
signal of L^dim values, rank 2 a full time-frequency table of L^dim x L^dim
values.  The grid period is not stored; readers supply it.

CSV signals use columns ``index,re,im`` with the flat lexicographic node
index.  Time-frequency tables use ``k,m,re,im`` (flat time node, flat DFT
bin).

JSON is emitted by a small writer with sorted keys and floats printed at 17
significant digits, so byte-identical reruns are a property of the data,
not the serializer.
"""

from __future__ import annotations

import csv
import math
import struct
from typing import Any

import numpy as np

from .errors import ConfigError
from .grid import GridSignal, PeriodicGrid
from .stft import TFArray

_MAGIC = b"GABR"
_HEADER = struct.Struct("<4sIII")


def dump_json(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError(f"non-finite float {x!r} in JSON payload")
        text = format(x, ".17g")
        return text if any(c in text for c in ".eE") else text + ".0"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [dump_json(v, indent) for v in obj]
        return "[" + ", ".join(items) + "]"
    if isinstance(obj, dict):
        keys = sorted(obj.keys())
        items = [f'{dump_json(str(k))}: {dump_json(obj[k], indent)}' for k in keys]
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# Binary signals --------------------------------------------------------------

def _write_complex(fh, values: np.ndarray) -> None:
    inter = np.empty(2 * values.size)
    inter[0::2] = values.real
    inter[1::2] = values.imag
    fh.write(inter.astype("<f8").tobytes())


def _read_complex(fh, count: int) -> np.ndarray:
    raw = np.frombuffer(fh.read(16 * count), dtype="<f8")
    if raw.size != 2 * count:
        raise ConfigError("binary payload truncated")
    return raw[0::2] + 1j * raw[1::2]


def write_signal_binary(signal: GridSignal, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, signal.grid.dim, signal.grid.points_per_axis, 1))
        _write_complex(fh, signal.values)


def read_signal_binary(path, period: float) -> GridSignal:
    with open(path, "rb") as fh:
        magic, dim, L, rank = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != _MAGIC:
            raise ConfigError(f"bad magic {magic!r} in {path}")
        if rank != 1:
            raise ConfigError(f"expected rank-1 payload, found rank {rank}")
        grid = PeriodicGrid(dim, period, L)
        return GridSignal(grid, _read_complex(fh, grid.size))


def write_tfarray_binary(tf: TFArray, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, tf.grid.dim, tf.grid.points_per_axis, 2))
        _write_complex(fh, tf.values.ravel())


# CSV ------------------------------------------------------------------------

# Signal and time-frequency rows are joined from ``tolist`` floats: the bytes
# csv.writer would write (no field needs quoting, rows end in \r\n) at a
# fraction of its per-row cost.

def write_signal_csv(signal: GridSignal, path) -> None:
    rows = (f"{k},{v.real:.17g},{v.imag:.17g}\r\n"
            for k, v in enumerate(signal.values.tolist()))
    with open(path, "w", newline="") as fh:
        fh.write("index,re,im\r\n" + "".join(rows))


def read_signal_csv(path, grid: PeriodicGrid) -> GridSignal:
    values = np.zeros(grid.size, dtype=complex)
    seen = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["index", "re", "im"]:
            raise ConfigError(f"{path}: expected header index,re,im")
        for row in reader:
            if not row:
                continue
            k = int(row[0])
            if not 0 <= k < grid.size:
                raise ConfigError(f"{path}: index {k} outside grid of size {grid.size}")
            values[k] = float(row[1]) + 1j * float(row[2])
            seen += 1
    if seen != grid.size:
        raise ConfigError(f"{path}: expected {grid.size} rows, found {seen}")
    return GridSignal(grid, values)


def write_tfarray_csv(tf: TFArray, path) -> None:
    rows = (f"{k},{m},{v.real:.17g},{v.imag:.17g}\r\n"
            for k, row in enumerate(tf.values.tolist()) for m, v in enumerate(row))
    with open(path, "w", newline="") as fh:
        fh.write("k,m,re,im\r\n" + "".join(rows))


def write_profile_csv(profile, path) -> None:
    """Rows: ordinal, |lambda1|, slice norm, weighted values for N = 0..order."""
    order = profile.order
    radii = np.linalg.norm(np.atleast_2d(profile.freq_points), axis=-1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["lam1", "radius", "slice_norm"] + [f"w{n}" for n in range(order + 1)]
        )
        for j, (r, v) in enumerate(zip(radii, profile.slice_norms)):
            weighted = [format(v * (1.0 + r) ** n, ".17g") for n in range(order + 1)]
            writer.writerow([j, format(r, ".17g"), format(v, ".17g")] + weighted)


def profile_summary(profile) -> dict:
    return {
        "count": int(len(profile.slice_norms)),
        "decay_sups": [float(v) for v in profile.decay_sups],
        "growth_sups": [float(v) for v in profile.growth_sups],
        "fitted_order": float(profile.fitted_order),
        "bounded_order": None if profile.bounded_order is None else int(profile.bounded_order),
        "passes_decay": bool(profile.passes_decay()),
    }


# Report schema ----------------------------------------------------------------

_ENTRY_KEYS = {"suite", "name", "passed", "value", "threshold", "comparator", "details"}


def validate_report(report: Any) -> None:
    """Raise ValueError unless the object matches the report schema."""
    if not isinstance(report, dict):
        raise ValueError("report must be an object")
    for key in ("schema", "seed", "suites", "entries"):
        if key not in report:
            raise ValueError(f"report missing key {key!r}")
    if report["schema"] != 1:
        raise ValueError(f"unsupported schema {report['schema']!r}")
    if not isinstance(report["seed"], int):
        raise ValueError("seed must be an integer")
    if not isinstance(report["suites"], list) or not all(
        isinstance(s, str) for s in report["suites"]
    ):
        raise ValueError("suites must be a list of names")
    entries = report["entries"]
    if not isinstance(entries, list):
        raise ValueError("entries must be a list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not _ENTRY_KEYS.issuperset(entry):
            raise ValueError(f"entry {i} has unexpected keys")
        for key in ("suite", "name", "comparator"):
            if not isinstance(entry.get(key), str):
                raise ValueError(f"entry {i}: {key} must be a string")
        if not isinstance(entry.get("passed"), bool):
            raise ValueError(f"entry {i}: passed must be a boolean")
        for key in ("value", "threshold"):
            v = entry.get(key)
            if v is not None and not isinstance(v, (int, float)):
                raise ValueError(f"entry {i}: {key} must be numeric or null")
        details = entry.get("details", {})
        if not isinstance(details, dict):
            raise ValueError(f"entry {i}: details must be an object")
    names = [(e["suite"], e["name"]) for e in entries]
    if names != sorted(names):
        raise ValueError("entries must be sorted by (suite, name)")
