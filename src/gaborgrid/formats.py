"""Every file the toolkit reads or writes: signals, tables, profiles, reports.

A path ending in ``.bin`` or ``.gabr`` is binary, any other path CSV
(``read_signal``, ``write_signal``, ``write_tfarray``).

Binary layout: a 16-byte header ``magic "GABR", u32 dim, u32 L, u32 rank``
(little endian) followed by float64 interleaved re/im pairs; rank 1 is a
signal of L^dim values, rank 2 a full time-frequency table of L^dim x L^dim
values.  The grid period is not stored; readers take the config grid and
refuse a file of another dim or L.

CSV signals use columns ``index,re,im`` with the flat lexicographic node
index.  Time-frequency tables use ``k,m,re,im`` (flat time node, flat DFT
bin).  Report CSVs have one row per entry, ``details`` flattened to sorted
``key=value`` pairs joined by ``;``.

JSON is emitted in one pass that dispatches on each value's type, with
sorted keys, floats printed at 17 significant digits and strings through
the json module's C escaper, so byte-identical reruns are a property of the
data, not the serializer; a report CSV field is its value's JSON text.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from itertools import chain
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ConfigError
from .grid import GridSignal, PeriodicGrid
from .stft import TFArray

_MAGIC = b"GABR"
_HEADER = struct.Struct("<4sIII")


def dump_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    return (_WRITERS.get(type(obj)) or _writer(obj))(obj)


def _writer(obj):
    """The writer of the first of ``_KINDS`` that ``obj`` is an instance of,
    for the types ``_WRITERS`` does not hold: numpy scalars and subclasses."""
    for types, writer in _KINDS:
        if isinstance(obj, types):
            return writer
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _dump_float(obj) -> str:
    x = float(obj)
    if not math.isfinite(x):
        raise ValueError(f"non-finite float {x!r} in JSON payload")
    text = format(x, ".17g")
    return text if any(c in text for c in ".eE") else text + ".0"


# What json.dumps(s, ensure_ascii=False) returns, without building an encoder.
_escape = json.encoder.encode_basestring
# In order of precedence, as a bool is an int; np.float64, which reports
# hold, is listed for ``_WRITERS``.
_KINDS = (
    ((type(None),), lambda _: "null"),
    ((bool, np.bool_), lambda b: "true" if b else "false"),
    ((int, np.integer), lambda n: str(int(n))),
    ((float, np.float64, np.floating), _dump_float),
    ((str,), _escape),
    ((list, tuple), lambda items: "[" + ", ".join([dump_json(v) for v in items]) + "]"),
    ((np.ndarray,), lambda a: dump_json(a.tolist())),
    ((dict,), lambda d: "{" + ", ".join([f"{_escape(str(k))}: {dump_json(d[k])}"
                                         for k in sorted(d)]) + "}"),
)
_WRITERS = {kind: writer for types, writer in _KINDS for kind in types}


# Binary signals --------------------------------------------------------------

def _write_complex(fh, values: np.ndarray) -> None:
    # Little-endian complex128 is the interleaved float64 re/im pairs.
    fh.write(np.ascontiguousarray(values, dtype="<c16"))


def _read_complex(fh, count: int, path) -> np.ndarray:
    """Exactly ``count`` values, the rest of the file."""
    data = fh.read(16 * count + 1)
    if len(data) < 16 * count:
        raise ConfigError(f"{path}: binary payload truncated, expected {count} values")
    if len(data) > 16 * count:
        raise ConfigError(f"{path}: data past the {count} payload values")
    return np.frombuffer(data, dtype="<c16")


def write_signal_binary(signal: GridSignal, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, signal.grid.dim, signal.grid.points_per_axis, 1))
        _write_complex(fh, signal.values)


def read_signal_binary(path, grid: PeriodicGrid) -> GridSignal:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ConfigError(f"{path}: header truncated, expected {_HEADER.size} bytes")
        magic, dim, L, rank = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ConfigError(f"bad magic {magic!r} in {path}")
        if rank != 1:
            raise ConfigError(f"{path}: expected rank-1 payload, found rank {rank}")
        if (dim, L) != (grid.dim, grid.points_per_axis):
            raise ConfigError(f"input: {path} shape does not match the config grid")
        return GridSignal(grid, _read_complex(fh, grid.size, path))


def write_tfarray_binary(tf: TFArray, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, tf.grid.dim, tf.grid.points_per_axis, 2))
        _write_complex(fh, tf.values.ravel())


# CSV ------------------------------------------------------------------------

# Signal and time-frequency rows: the bytes csv.writer would write (no field
# needs quoting, rows end in \r\n), from one %-template over all the fields
# at a fraction of its per-row cost.

def _write_rows(path, header: str, columns: list, values: np.ndarray) -> None:
    """The integer ``columns``, then re and im of ``values`` at 17 digits."""
    fields = zip(*columns, values.real.ravel().tolist(), values.imag.ravel().tolist())
    template = ("%d," * len(columns) + "%.17g,%.17g\r\n") * values.size
    with open(path, "w", newline="") as fh:
        fh.write(header + template % tuple(chain.from_iterable(fields)))


def write_signal_csv(signal: GridSignal, path) -> None:
    _write_rows(path, "index,re,im\r\n", [range(signal.grid.size)], signal.values)


def read_signal_csv(path, grid: PeriodicGrid) -> GridSignal:
    values = np.zeros(grid.size, dtype=complex)
    filled = np.zeros(grid.size, dtype=bool)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["index", "re", "im"]:
            raise ConfigError(f"{path}: expected header index,re,im")
        for row in reader:
            if not row:
                continue
            try:
                index, real, imag = row
                k, real, imag = int(index), float(real), float(imag)
            except ValueError:
                raise ConfigError(f"{path}: row {reader.line_num}: expected "
                                  f"index,re,im numbers, got {','.join(row)!r}") from None
            if not 0 <= k < grid.size:
                raise ConfigError(f"{path}: index {k} outside grid of size {grid.size}")
            if filled[k]:
                raise ConfigError(f"{path}: row {reader.line_num}: index {k} repeats")
            values[k] = complex(real, imag)
            filled[k] = True
    if not filled.all():
        raise ConfigError(f"{path}: expected {grid.size} rows, found {np.count_nonzero(filled)}")
    return GridSignal(grid, values)


def write_tfarray_csv(tf: TFArray, path) -> None:
    indices = np.indices(tf.values.shape).reshape(2, -1).tolist()
    _write_rows(path, "k,m,re,im\r\n", indices, tf.values)


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


# Suffix dispatch --------------------------------------------------------------

def _is_binary(path) -> bool:
    return str(path).endswith((".bin", ".gabr"))


def read_signal(path, grid: PeriodicGrid) -> GridSignal:
    return (read_signal_binary if _is_binary(path) else read_signal_csv)(path, grid)


def write_signal(signal: GridSignal, path) -> None:
    (write_signal_binary if _is_binary(path) else write_signal_csv)(signal, path)


def write_tfarray(tf: TFArray, path) -> None:
    (write_tfarray_binary if _is_binary(path) else write_tfarray_csv)(tf, path)


# Reports ----------------------------------------------------------------------

def write_report(report: dict, json_path, csv_path) -> list[str]:
    """Validate the report, then write it as JSON and/or CSV (a path of None
    skips that format); returns the paths written."""
    validate_report(report)
    written = []
    if json_path:
        Path(json_path).write_text(dump_json(report) + "\n")
        written.append(str(json_path))
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["suite", "name", "passed", "value", "threshold", "comparator", "details"]
            )
            for e in report["entries"]:
                details = ";".join(
                    f"{k}={_fmt(v)}" for k, v in sorted(e["details"].items())
                )
                writer.writerow([e["suite"], e["name"], _fmt(e["passed"]), _fmt(e["value"]),
                                 _fmt(e["threshold"]), e["comparator"], details])
        written.append(str(csv_path))
    return written


def _fmt(v) -> str:
    """A CSV field: a number's or bool's JSON text, without the ".0" of an
    integral float; null is empty, anything else its str."""
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


_REPORT_KEYS = ("schema", "suites", "entries")
_ENTRY_KEYS = {"suite", "name", "passed", "value", "threshold", "comparator", "details"}


def validate_report(report: Any) -> None:
    """Raise ValueError unless the object matches the report schema."""
    if not isinstance(report, dict):
        raise ValueError("report must be an object")
    for key in _REPORT_KEYS:
        if key not in report:
            raise ValueError(f"report missing key {key!r}")
    unknown = sorted(set(report) - set(_REPORT_KEYS))
    if unknown:
        raise ValueError(f"report has unknown keys {unknown}")
    if report["schema"] != 1:
        raise ValueError(f"unsupported schema {report['schema']!r}")
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
