import csv
import io
import json
import math
import struct
import sys

import numpy as np
import pytest

from gaborgrid.errors import ConfigError
from gaborgrid.formats import (
    dump_json,
    profile_summary,
    read_signal,
    read_signal_binary,
    read_signal_csv,
    validate_report,
    write_profile_csv,
    write_report,
    write_signal,
    write_signal_binary,
    write_signal_csv,
    write_tfarray,
    write_tfarray_binary,
    write_tfarray_csv,
)
from gaborgrid.grid import GridSignal, PeriodicGrid, sample_gaussian
from gaborgrid.stft import TFArray, stft
from gaborgrid.suites import SuiteConfig, run_suites

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


# The writer's bytes, pinned against the recursive writer that the
# type-dispatched one replaced: every string below is what it returned.
@pytest.mark.parametrize("value, text", [
    (-0.0, "-0.0"),
    (1e16, "10000000000000000.0"),
    (1e-5, "1.0000000000000001e-05"),
    (5e-324, "4.9406564584124654e-324"),
    (2.0 ** 53, "9007199254740992.0"),
    (np.float32(0.1), "0.10000000149011612"),
    (np.float64(1 / 3), "0.33333333333333331"),
    (np.int64(-7), "-7"),
    (np.bool_(True), "true"),
    (np.bool_(False), "false"),
    ((1, 2.0, "a"), '[1, 2.0, "a"]'),
    (np.array([[1.0, 2.5], [-0.0, 3.0]]), "[[1.0, 2.5], [-0.0, 3.0]]"),
    (np.array([True, False]), "[true, false]"),
    ([], "[]"),
    ({}, "{}"),
    ((), "[]"),
    (np.zeros((0, 3)), "[]"),
    ({10: "a", 9: "b", 1: [None, True]}, '{"1": [null, true], "9": "b", "10": "a"}'),
    ({"é": "Grüße π"}, '{"é": "Grüße π"}'),
    ("\x00\x1f\n\t\"\\\u2028", '"\\u0000\\u001f\\n\\t\\"\\\\\u2028"'),
])
def test_dump_json_pinned_bytes(value, text):
    assert dump_json(value) == text


@pytest.mark.parametrize("value, error, message", [
    (math.nan, ValueError, "non-finite float nan in JSON payload"),
    (-math.inf, ValueError, "non-finite float -inf in JSON payload"),
    (np.float32("inf"), ValueError, "non-finite float inf in JSON payload"),
    ({"a": np.array([[math.nan]])}, ValueError, "non-finite float nan in JSON payload"),
    (object(), TypeError, "cannot serialize object"),
    ({1: [object()]}, TypeError, "cannot serialize object"),
    (b"x", TypeError, "cannot serialize bytes"),
])
def test_dump_json_pinned_errors(value, error, message):
    with pytest.raises(error) as info:
        dump_json(value)
    assert str(info.value) == message


_SCALARS = [None, True, False, np.True_, np.False_, 0, -7, np.int64(3), 1.0, -0.0, 0.1,
            1e16, 1e-5, 5e-324, 2.0 ** 53, np.float64(1 / 3), np.float32(0.1),
            np.float32(1.0), np.float16(0.1)]


@pytest.mark.parametrize("value", _SCALARS, ids=repr)
def test_csv_scalar_field_is_the_json_text(tmp_path, value):
    # The JSON text, with null as an empty field and no ".0" on an integral
    # float; numpy scalars, which only details may hold, too.
    csv_path = tmp_path / "r.csv"
    write_report(make_report([dict(good_entry(), details={"v": value})]), None, csv_path)
    [row] = list(csv.DictReader(io.StringIO(csv_path.read_text())))
    expected = "" if value is None else dump_json(value).removesuffix(".0")
    assert row["details"] == f"v={expected}"


@pytest.mark.parametrize("value, text", [
    ([0.1], "[0.10000000000000001]"),
    ((3, 4), "[3, 4]"),
    ([3, -4], "[3, -4]"),
    ([1.0, np.float32(0.1)], "[1.0, 0.10000000149011612]"),
], ids=["float-list", "tuple", "int-list", "mixed-list"])
def test_csv_list_detail_is_the_json_text(tmp_path, value, text):
    # A list or tuple detail is written as its JSON text, as in the JSON
    # report: floats at 17 digits, a tuple as a list.
    csv_path = tmp_path / "r.csv"
    write_report(make_report([dict(good_entry(), details={"x": value})]), None, csv_path)
    [row] = list(csv.DictReader(io.StringIO(csv_path.read_text())))
    assert text == dump_json(value)
    assert row["details"] == f"x={text}"


def test_csv_fields_of_a_verify_report_are_its_json_texts(tmp_path):
    json_path, csv_path = tmp_path / "r.json", tmp_path / "r.csv"
    write_report(run_suites(SuiteConfig()), json_path, csv_path)
    entries = json.loads(json_path.read_text())["entries"]
    rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
    assert len(rows) == len(entries)
    for row, entry in zip(rows, entries):
        assert (row["suite"], row["name"]) == (entry["suite"], entry["name"])
        assert row["passed"] == dump_json(entry["passed"])
        for key in ("value", "threshold"):
            text = "" if entry[key] is None else dump_json(entry[key])
            assert row[key] == text.removesuffix(".0")


def test_signal_binary_round_trip(tmp_path, ref_grid, rng):
    f = random_signal(ref_grid, rng)
    path = tmp_path / "sig.bin"
    write_signal_binary(f, path)
    raw = path.read_bytes()
    magic, dim, L, rank = struct.unpack("<4sIII", raw[:16])
    assert magic == b"GABR" and dim == 1 and L == 256 and rank == 1
    assert len(raw) == 16 + 16 * ref_grid.size
    back = read_signal_binary(path, ref_grid)
    np.testing.assert_array_equal(back.values, f.values)


def test_signal_binary_bad_magic(tmp_path, ref_grid):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\0" * 28)
    with pytest.raises(ConfigError):
        read_signal_binary(path, ref_grid)


@pytest.mark.parametrize("grid", [PeriodicGrid(1, 16.0, 128), PeriodicGrid(2, 16.0, 16)],
                         ids=["L", "dim"])
def test_signal_binary_rejects_other_grid(tmp_path, ref_grid, grid):
    # A well-formed file of 256 points read against a config grid of
    # another L, or of the same size in another dim.
    path = tmp_path / "sig.bin"
    write_signal_binary(sample_gaussian(ref_grid), path)
    with pytest.raises(ConfigError, match="shape does not match the config grid"):
        read_signal_binary(path, grid)


def test_signal_csv_round_trip(tmp_path, ref_grid, rng):
    f = random_signal(ref_grid, rng)
    path = tmp_path / "sig.csv"
    write_signal_csv(f, path)
    back = read_signal_csv(path, ref_grid)
    np.testing.assert_array_equal(back.values, f.values)


@pytest.mark.parametrize("suffix", [".bin", ".csv"])
def test_signal_round_trip_keeps_special_values(tmp_path, suffix):
    # Signed zeros, infinities, NaN, the least subnormal and the largest
    # double, in both parts; binary keeps every bit, CSV every value.
    big = sys.float_info.max
    values = np.array([complex(-0.0, 1.0), complex(1.0, math.inf), complex(math.nan, -0.0),
                       complex(-math.inf, 5e-324), complex(big, -big), complex(0.0, math.nan),
                       complex(-5e-324, -math.inf), complex(2.0, 0.0)])
    grid = PeriodicGrid(1, 4.0, 8)
    path = tmp_path / f"sig{suffix}"
    write_signal(GridSignal(grid, values), path)
    back = read_signal(path, grid).values
    if suffix == ".bin":
        assert back.tobytes() == values.tobytes()
    parts, expected = back.view(float), values.view(float)
    np.testing.assert_array_equal(parts, expected)  # NaN where NaN
    numbers = ~np.isnan(expected)
    np.testing.assert_array_equal(np.signbit(parts[numbers]), np.signbit(expected[numbers]))


@pytest.mark.parametrize("suffix, binary", [(".csv", False), (".bin", True), (".gabr", True)])
def test_suffix_selects_the_format(tmp_path, suffix, binary):
    grid = PeriodicGrid(1, 4.0, 8)
    f = random_signal(grid, np.random.default_rng(1))
    path = tmp_path / f"sig{suffix}"
    write_signal(f, path)
    assert path.read_bytes().startswith(b"GABR") == binary
    assert read_signal(path, grid).values.tobytes() == f.values.tobytes()
    tf_path = tmp_path / f"tf{suffix}"
    write_tfarray(stft(f, sample_gaussian(grid)), tf_path)
    assert tf_path.read_bytes().startswith(b"GABR\x01\0\0\0\x08\0\0\0\x02") == binary


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


def test_signal_csv_repeated_index_refused(tmp_path, ref_grid):
    # Index 0 twice and index 5 never: as many rows as nodes, one unfilled.
    indices = [0] + [k for k in range(ref_grid.size) if k != 5]
    path = tmp_path / "repeat.csv"
    path.write_text("index,re,im\n" + "".join(f"{k},1.0,0.0\n" for k in indices))
    with pytest.raises(ConfigError, match=f"{path}: row 3: index 0 repeats"):
        read_signal_csv(path, ref_grid)


@pytest.mark.parametrize("row", ["0,abc,0", "0,1.0", "x,1.0,0.0"],
                         ids=["non-numeric", "two-fields", "bad-index"])
def test_signal_csv_bad_row_names_file_and_row(tmp_path, ref_grid, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"index,re,im\n{row}\n")
    with pytest.raises(ConfigError, match=f"{path}: row 2: expected index,re,im numbers"):
        read_signal_csv(path, ref_grid)


@pytest.mark.parametrize("size", [0, 3, 15])
def test_signal_binary_short_header(tmp_path, ref_grid, size):
    path = tmp_path / "short.bin"
    path.write_bytes(b"GABR\x01\x00\x00\x00\x00\x01\x00\x00\x01\x00\x00"[:size])
    with pytest.raises(ConfigError, match="header truncated"):
        read_signal_binary(path, ref_grid)


def test_signal_binary_data_past_the_payload_refused(tmp_path, ref_grid):
    path = tmp_path / "long.bin"
    write_signal_binary(sample_gaussian(ref_grid), path)
    with open(path, "ab") as fh:
        fh.write(b"\0")
    with pytest.raises(ConfigError, match=f"{path}: data past the 256 payload values"):
        read_signal_binary(path, ref_grid)


def test_signal_binary_truncated_payload_names_the_file(tmp_path, ref_grid):
    path = tmp_path / "short.bin"
    write_signal_binary(sample_gaussian(ref_grid), path)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(ConfigError, match=f"{path}: binary payload truncated"):
        read_signal_binary(path, ref_grid)


def test_signal_binary_of_a_table_names_the_file(tmp_path):
    # A time-frequency table (rank 2), as ``gaborgrid stft`` writes it, read
    # where a signal is expected.
    grid = PeriodicGrid(1, 8.0, 32)
    f = sample_gaussian(grid)
    path = tmp_path / "tf.bin"
    write_tfarray_binary(stft(f, f), path)
    with pytest.raises(ConfigError, match=f"{path}: expected rank-1 payload, found rank 2"):
        read_signal_binary(path, grid)


@pytest.mark.parametrize("row", ["3,4,0,x", "3,4,0,"], ids=["extra-field", "trailing-comma"])
def test_signal_csv_row_with_extra_fields_refused(tmp_path, ref_grid, row):
    path = tmp_path / "wide.csv"
    path.write_text(f"index,re,im\n{row}\n")
    with pytest.raises(ConfigError, match=f"{path}: row 2: expected index,re,im numbers"):
        read_signal_csv(path, ref_grid)


def test_signal_csv_header_with_extra_fields_refused(tmp_path, ref_grid):
    path = tmp_path / "wide.csv"
    path.write_text("index,re,im,note\n0,1.0,0.0\n")
    with pytest.raises(ConfigError, match=f"{path}: expected header index,re,im"):
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
        read_signal_binary(path, grid)  # rank mismatch

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
    return {"schema": 1, "suites": ["decay"], "entries": entries}


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


def test_write_report_validates_before_writing(tmp_path):
    json_path, csv_path = tmp_path / "r.json", tmp_path / "r.csv"
    with pytest.raises(ValueError):
        write_report(make_report([good_entry("b"), good_entry("a")]), json_path, csv_path)
    assert not json_path.exists() and not csv_path.exists()
    entry = dict(good_entry(), details={"b": 0.1, "a": None, "c": True})
    assert write_report(make_report([entry]), json_path, csv_path) == [str(json_path),
                                                                       str(csv_path)]
    assert json.loads(json_path.read_text())["entries"] == [entry]
    assert csv_path.read_bytes() == (
        b"suite,name,passed,value,threshold,comparator,details\r\n"
        b"decay,x,true,1,2,<=,a=;b=0.10000000000000001;c=true\r\n")


def test_validate_report_rejects_bad():
    with pytest.raises(ValueError):
        validate_report([])
    with pytest.raises(ValueError):
        validate_report({"schema": 2, "suites": [], "entries": []})
    bad = good_entry()
    bad["passed"] = "yes"
    with pytest.raises(ValueError):
        validate_report(make_report([bad]))
    unsorted = make_report([good_entry("b"), good_entry("a")])
    with pytest.raises(ValueError):
        validate_report(unsorted)


def test_validate_report_refuses_unknown_top_level_keys():
    # As the config schema does; the report no longer carries a seed.
    for key in ("seed", "notes"):
        with pytest.raises(ValueError, match=f"unknown keys \\['{key}'\\]"):
            validate_report(dict(make_report([good_entry()]), **{key: 1}))


def test_dump_json_escapes_control_characters():
    payload = {"reason": "a\nb\tc\x01d \"q\" \\ é"}
    text = dump_json(payload)
    assert "\n" not in text and "\t" not in text and "\x01" not in text
    assert json.loads(text) == payload
