import csv
import io
import json
import math
import struct

import numpy as np
import pytest

from gaborgrid.errors import ConfigError
from gaborgrid.formats import (
    dump_json,
    profile_summary,
    read_signal_binary,
    read_signal_csv,
    validate_report,
    write_profile_csv,
    write_signal_binary,
    write_signal_csv,
    write_tfarray_binary,
    write_tfarray_csv,
)
from gaborgrid.grid import GridSignal, PeriodicGrid, sample_gaussian
from gaborgrid.stft import TFArray, stft

from conftest import random_signal


def test_dump_json_floats_and_keys():
    text = dump_json({"b": 1 / 3, "a": True, "c": None, "d": [1, 2.5, "x"]})
    assert text == '{"a": true, "b": 0.33333333333333331, "c": null, "d": [1, 2.5, "x"]}'
    assert json.loads(text)["b"] == 1 / 3  # 17 significant digits round-trip


def test_dump_json_rejects_non_finite():
    with pytest.raises(ValueError):
        dump_json({"x": math.nan})
    with pytest.raises(TypeError):
        dump_json({"x": object()})


def test_signal_binary_round_trip(tmp_path, ref_grid, rng):
    f = random_signal(ref_grid, rng)
    path = tmp_path / "sig.bin"
    write_signal_binary(f, path)
    raw = path.read_bytes()
    magic, dim, L, rank = struct.unpack("<4sIII", raw[:16])
    assert magic == b"GABR" and dim == 1 and L == 256 and rank == 1
    assert len(raw) == 16 + 16 * ref_grid.size
    back = read_signal_binary(path, ref_grid.period)
    np.testing.assert_array_equal(back.values, f.values)


def test_signal_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\0" * 28)
    with pytest.raises(ConfigError):
        read_signal_binary(path, 16.0)


def test_signal_csv_round_trip(tmp_path, ref_grid, rng):
    f = random_signal(ref_grid, rng)
    path = tmp_path / "sig.csv"
    write_signal_csv(f, path)
    back = read_signal_csv(path, ref_grid)
    np.testing.assert_array_equal(back.values, f.values)


def _csv_writer_bytes(header, rows):
    """What csv.writer writes for the header and rows of Python values,
    floats formatted per scalar at 17 significant digits."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(x, ".17g") if isinstance(x, np.floating) else x for x in row])
    return buffer.getvalue().encode()


def test_csv_writers_match_csv_module_bytes(tmp_path):
    rng = np.random.default_rng(11)
    scales = 10.0 ** rng.integers(-320, 300, 64)
    values = rng.standard_normal(64) * scales + 1j * rng.standard_normal(64)
    # Signed zeros, subnormals, extremes and exact integers.
    values[:8] = [-0.0, complex(0.0, -0.0), 5e-324, -2.5e-310 + 1e-315j, 1.7976931348623157e308,
                  -1.0, complex(3.0, -0.0), 0.1 - 0.2j]
    grid = PeriodicGrid(1, 8.0, 64)
    path = tmp_path / "sig.csv"
    write_signal_csv(GridSignal(grid, values), path)
    expected = _csv_writer_bytes(["index", "re", "im"],
                                 ([k, v.real, v.imag] for k, v in enumerate(values)))
    assert path.read_bytes() == expected
    table = values.reshape(8, 8)
    tf_path = tmp_path / "tf.csv"
    write_tfarray_csv(TFArray(PeriodicGrid(1, 4.0, 8), table), tf_path)
    expected = _csv_writer_bytes(["k", "m", "re", "im"],
                                 ([k, m, table[k, m].real, table[k, m].imag]
                                  for k in range(8) for m in range(8)))
    assert tf_path.read_bytes() == expected


def test_signal_csv_header_checked(tmp_path, ref_grid):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n0,1,2\n")
    with pytest.raises(ConfigError):
        read_signal_csv(path, ref_grid)


def test_signal_csv_row_count_checked(tmp_path, ref_grid):
    path = tmp_path / "short.csv"
    path.write_text("index,re,im\n0,1.0,0.0\n")
    with pytest.raises(ConfigError):
        read_signal_csv(path, ref_grid)


def test_tfarray_round_trip(tmp_path):
    # The binary table of ``gaborgrid stft``, read back with struct and
    # np.frombuffer: the GABR header, then interleaved little-endian re/im.
    grid = PeriodicGrid(1, 4.0, 8)
    tf = stft(random_signal(grid, np.random.default_rng(0)), sample_gaussian(grid))
    path = tmp_path / "tf.bin"
    write_tfarray_binary(tf, path)
    raw = path.read_bytes()
    assert struct.unpack("<4sIII", raw[:16]) == (b"GABR", 1, 8, 2)
    pairs = np.frombuffer(raw[16:], dtype="<f8").reshape(grid.size, grid.size, 2)
    back = pairs[..., 0] + 1j * pairs[..., 1]
    assert back.tobytes() == tf.values.tobytes()
    with pytest.raises(ConfigError):
        read_signal_binary(path, grid.period)  # rank mismatch

    csv_path = tmp_path / "tf.csv"
    write_tfarray_csv(tf, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "k,m,re,im"
    assert len(lines) == 1 + 64


def test_profile_export(tmp_path, ref_grid):
    from gaborgrid.gabor import GaborSystem
    from gaborgrid.grid import sample_gaussian
    from gaborgrid.smoothness import decay_profile
    from gaborgrid.spaces import SpaceSpec

    system = GaborSystem.separable(sample_gaussian(ref_grid), 1.0, 0.5)
    prof = decay_profile(system, sample_gaussian(ref_grid), SpaceSpec("Lp_w", 2.0))
    path = tmp_path / "profile.csv"
    write_profile_csv(prof, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "lam1,radius,slice_norm,w0,w1,w2,w3,w4,w5,w6"
    assert len(lines) == 1 + 32
    summary = profile_summary(prof)
    assert summary["count"] == 32
    assert summary["passes_decay"] in (True, False)
    json.loads(dump_json(summary))


def make_report(entries):
    return {"schema": 1, "seed": 42, "suites": ["decay"], "entries": entries}


def good_entry(name="x"):
    return {
        "suite": "decay",
        "name": name,
        "passed": True,
        "value": 1.0,
        "threshold": 2.0,
        "comparator": "<=",
        "details": {},
    }


def test_validate_report_accepts_good():
    validate_report(make_report([good_entry("a"), good_entry("b")]))


def test_validate_report_rejects_bad():
    with pytest.raises(ValueError):
        validate_report([])
    with pytest.raises(ValueError):
        validate_report({"schema": 2, "seed": 1, "suites": [], "entries": []})
    bad = good_entry()
    bad["passed"] = "yes"
    with pytest.raises(ValueError):
        validate_report(make_report([bad]))
    unsorted = make_report([good_entry("b"), good_entry("a")])
    with pytest.raises(ValueError):
        validate_report(unsorted)
