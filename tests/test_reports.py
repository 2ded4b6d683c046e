import copy
import itertools
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from varns import reports
from varns.cli import main
from varns.grids import PERIODIC, WALL, FieldQuartet, Grid, ScalarField, periodic_square
from varns.reports import (
    read_field_csv,
    read_quartet_csv,
    write_field_csv,
    write_fields_csv,
)

from conftest import field_from_function, random_quartet, write_quartet_csv


def test_field_csv_layout(tmp_path):
    g = Grid((1.0, 2.0), (3, 4), ("wall", "periodic"), time_nodes=3, dt=0.5)
    f = field_from_function(g, lambda x, y, t: x + 10 * y + 100 * t)
    path = tmp_path / "f.csv"
    write_field_csv(path, f)
    lines = path.read_text().splitlines()
    assert lines[0] == "axis0,axis1,t,value"
    assert len(lines) == 1 + 3 * 4 * 3
    # time-major, then axis0-major: the first rows sweep axis1 at axis0 = 0, t = 0
    first = lines[1].split(",")
    assert first[0] == "0.0" and first[2] == "0.0"
    second = lines[2].split(",")
    assert second[0] == "0.0" and second[1] == "0.5"
    # the second time block starts after all spatial nodes
    block2 = lines[1 + 12].split(",")
    assert block2[2] == "0.5"


def test_field_csv_roundtrip(tmp_path):
    g = periodic_square(6, time_nodes=3, dt=0.1)
    rng = np.random.default_rng(5)
    f = ScalarField(g, rng.normal(size=g.shape))
    path = tmp_path / "f.csv"
    write_field_csv(path, f)
    back = read_field_csv(path, g)
    assert np.array_equal(back.values, f.values)


def test_quartet_roundtrip_and_determinism(tmp_path):
    g = periodic_square(5, time_nodes=3, dt=0.2)
    q = random_quartet(g, 3)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_quartet_csv(d1, q)
    back = read_quartet_csv(d1, g)
    for i in range(2):
        assert np.array_equal(back.u[i].values, q.u[i].values)
        assert np.array_equal(back.w[i].values, q.w[i].values)
    assert np.array_equal(back.p.values, q.p.values)
    assert np.array_equal(back.r.values, q.r.values)
    write_quartet_csv(d2, back)
    for name in ("u_0.csv", "u_1.csv", "p.csv", "w_0.csv", "w_1.csv", "r.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_truncated_snapshot_rejected(tmp_path):
    g = periodic_square(5, time_nodes=3, dt=0.2)
    f = ScalarField.zeros(g)
    path = tmp_path / "f.csv"
    write_field_csv(path, f)
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[:-3]) + "\n")
    with pytest.raises(ValueError, match="truncated"):
        read_field_csv(path, g)


def test_extra_rows_rejected(tmp_path):
    g = periodic_square(5, time_nodes=3, dt=0.2)
    path = tmp_path / "f.csv"
    write_field_csv(path, ScalarField.zeros(g))
    with open(path, "a") as fh:
        fh.write("0.0,0.0,0.4,1.0\n")
    with pytest.raises(ValueError, match="extra rows"):
        read_field_csv(path, g)


def test_wrong_column_count_rejected(tmp_path):
    g = periodic_square(5, time_nodes=3, dt=0.2)
    path = tmp_path / "f.csv"
    write_field_csv(path, ScalarField.zeros(g))
    lines = path.read_text().splitlines()
    lines[0] = "axis0,t,value"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="has 3 columns, expected 4"):
        read_field_csv(path, g)


def test_wrong_header_names_rejected(tmp_path):
    g = periodic_square(5, time_nodes=3, dt=0.2)
    path = tmp_path / "f.csv"
    write_field_csv(path, ScalarField.zeros(g))
    lines = path.read_text().splitlines()
    lines[0] = "x,y,t,value"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="expected 4 named 'axis0,axis1,t,value'"):
        read_field_csv(path, g)


@pytest.mark.parametrize("other", [
    Grid((2 * np.pi, 2 * np.pi), (5, 5), (WALL, WALL), 3, 0.2),
    Grid((1.0, 1.0), (5, 5), (PERIODIC, PERIODIC), 3, 0.2),
    Grid((2 * np.pi, 2 * np.pi), (5, 5), (PERIODIC, PERIODIC), 3, 0.5),
], ids=["walls", "extent", "dt"])
def test_snapshot_from_another_grid_rejected(tmp_path, other):
    """Same node counts, other coordinates: the reader names the file and line."""
    path = tmp_path / "f.csv"
    write_field_csv(path, ScalarField.zeros(periodic_square(5, time_nodes=3, dt=0.2)))
    with pytest.raises(ValueError, match="written on another grid") as err:
        read_field_csv(path, other)
    assert str(path) in str(err.value)


def test_coordinates_rounded_otherwise_accepted(tmp_path):
    """A writer that rounds the coordinates differently in the last bits is
    read; a relative 1e-6 shift is not."""
    g = Grid((1.0, 1.0), (7, 7), (WALL, WALL), 3, 0.1)
    f = ScalarField(g, np.random.default_rng(2).normal(size=g.shape))
    path = tmp_path / "f.csv"
    write_field_csv(path, f)
    lines = path.read_text().splitlines()
    for shift, ok in ((1e-12, True), (1e-6, False)):
        rows = [",".join([*(repr(float(c) * (1 + shift)) for c in row.split(",")[:-1]),
                          row.rsplit(",", 1)[1]]) for row in lines[1:]]
        path.write_text("\n".join([lines[0], *rows]) + "\n")
        if ok:
            assert np.array_equal(read_field_csv(path, g).values, f.values)
        else:
            with pytest.raises(ValueError, match="another grid"):
                read_field_csv(path, g)


def test_non_utf8_snapshot_names_the_file(tmp_path):
    g = periodic_square(5, time_nodes=3, dt=0.2)
    path = tmp_path / "f.csv"
    write_field_csv(path, ScalarField.zeros(g))
    path.write_bytes(path.read_bytes().replace(b"\n", b"\n\xff\xfe", 1))
    with pytest.raises(ValueError, match="is not UTF-8 text") as err:
        read_field_csv(path, g)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("row, line", [("garbage", 40), ("", 20), ("0.0,0.0,0.0,abc", 2)])
def test_malformed_row_names_file_and_line(tmp_path, row, line):
    g = periodic_square(5, time_nodes=3, dt=0.2)
    path = tmp_path / "f.csv"
    write_field_csv(path, ScalarField.zeros(g))
    lines = path.read_text().splitlines()
    lines[line - 1] = row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"line {line} is malformed") as err:
        read_field_csv(path, g)
    assert str(path) in str(err.value)


def _counting(monkeypatch, name):
    """Replace ``reports.<name>`` by a wrapper that records each path it gets."""
    calls, real = [], getattr(reports, name)
    monkeypatch.setattr(reports, name, lambda path, *a: calls.append(path) or real(path, *a))
    return calls


def test_quartet_copy_path_matches_fresh_writes(tmp_path, monkeypatch):
    """A quartet whose w is u and r is p (as the solvers return it) writes the
    same six files as one with four distinct but bit-equal field arrays, and
    both format only the three distinct fields."""
    g = periodic_square(5, time_nodes=3, dt=0.2)
    q = random_quartet(g, 4)
    aliased = FieldQuartet(q.u, q.p, q.u, q.p)
    distinct = FieldQuartet(copy.deepcopy(q.u), copy.deepcopy(q.p),
                            copy.deepcopy(q.u), copy.deepcopy(q.p))
    assert distinct.w[0].values is not distinct.u[0].values
    calls = _counting(monkeypatch, "write_field_csv")
    write_quartet_csv(tmp_path / "aliased", aliased)
    assert len(calls) == 3
    write_quartet_csv(tmp_path / "distinct", distinct)
    assert len(calls) == 3 + 3
    for name in ("u_0.csv", "u_1.csv", "p.csv", "w_0.csv", "w_1.csv", "r.csv"):
        assert ((tmp_path / "aliased" / name).read_bytes()
                == (tmp_path / "distinct" / name).read_bytes())
    assert (tmp_path / "aliased" / "w_1.csv").read_bytes() == \
        (tmp_path / "aliased" / "u_1.csv").read_bytes()


def test_quartet_reader_parses_each_distinct_file_once(tmp_path, monkeypatch):
    g = periodic_square(5, time_nodes=3, dt=0.2)
    q = random_quartet(g, 4)
    write_quartet_csv(tmp_path, FieldQuartet(q.u, q.p, q.u, q.p))
    calls = _counting(monkeypatch, "read_field_csv")
    back = read_quartet_csv(tmp_path, g)
    assert [os.path.basename(c) for c in calls] == ["u_0.csv", "u_1.csv", "p.csv"]
    arrays = [c.values for c in (*back.u.components, back.p, *back.w.components, back.r)]
    for a, b in itertools.combinations(arrays, 2):
        assert not np.shares_memory(a, b)
    for i in range(2):
        assert np.array_equal(back.w[i].values, q.u[i].values)
    assert np.array_equal(back.r.values, q.p.values)


def test_quartet_reader_parses_a_file_one_byte_off(tmp_path, monkeypatch):
    """w_0.csv differs from u_0.csv in one byte of one value: it is parsed on
    its own, so a valid change shows in w and an invalid one names w_0.csv."""
    g = periodic_square(5, time_nodes=3, dt=0.2)
    q = random_quartet(g, 4)
    write_quartet_csv(tmp_path, FieldQuartet(q.u, q.p, q.u, q.p))
    text = (tmp_path / "u_0.csv").read_bytes()
    row = text.index(b"\n", len(text) // 2)         # the end of a row in the middle
    at = text.rindex(b",", 0, row) + 1               # its value's first character
    at += text[at:at + 1] == b"-"
    digit = b"2" if text[at:at + 1] == b"1" else b"1"
    for byte, valid in ((digit, True), (b"x", False)):
        (tmp_path / "w_0.csv").write_bytes(text[:at] + byte + text[at + 1:])
        calls = _counting(monkeypatch, "read_field_csv")
        if valid:
            back = read_quartet_csv(tmp_path, g)
            assert np.sum(back.w[0].values != back.u[0].values) == 1
        else:
            with pytest.raises(ValueError, match="is malformed") as err:
                read_quartet_csv(tmp_path, g)
            assert str(tmp_path / "w_0.csv") in str(err.value)
        assert os.path.basename(calls[-1]) == "w_0.csv"


def test_quartet_writer_and_reader_build_the_coordinates_once(tmp_path, monkeypatch):
    """Six distinct fields on one grid: one coordinate text for the writer and
    one set of coordinate lists for the reader."""
    g = periodic_square(5, time_nodes=3, dt=0.2)
    built = []
    for name in ("_coord_prefixes", "_coord_columns"):
        real = getattr(reports, name)
        monkeypatch.setattr(reports, name,
                            lambda grid, name=name, real=real: built.append(name) or real(grid))
    written, read = _counting(monkeypatch, "write_field_csv"), _counting(monkeypatch, "read_field_csv")
    write_quartet_csv(tmp_path, random_quartet(g, 4))
    read_quartet_csv(tmp_path, g)
    assert len(written) == len(read) == 6
    assert built == ["_coord_prefixes", "_coord_columns"]


def _write_in_axis_order(path, f, order):
    """``f`` with every row at its true node, but the spatial axes of each time
    slab swept in ``order`` (slowest first) instead of axis0-major."""
    g = f.grid
    axes = [g.axis_coords(a) for a in range(g.dim)]
    with open(path, "w") as fh:
        fh.write(",".join(f"axis{a}" for a in range(g.dim)) + ",t,value\n")
        for k, t in enumerate(g.time_coords()):
            for swept in itertools.product(*(range(g.nodes[a]) for a in order)):
                node = [0] * g.dim
                for a, i in zip(order, swept):
                    node[a] = i
                fh.write(",".join([*(repr(float(axes[a][node[a]])) for a in range(g.dim)),
                                   repr(float(t)), repr(float(f.values[(*node, k)]))]) + "\n")


@pytest.mark.parametrize("nodes, order", [
    ((4, 4), (0, 1)), ((4, 4), (1, 0)), ((3, 5), (1, 0)),
    ((4, 4, 4), (0, 1, 2)), ((4, 4, 4), (0, 2, 1)), ((4, 4, 4), (1, 0, 2)),
    ((3, 4, 5), (2, 1, 0)), ((3, 4, 5), (1, 2, 0)), ((3, 4, 5), (2, 0, 1)),
])
def test_axis_permuted_snapshot_rejected(tmp_path, nodes, order):
    """The first and last row of every slab are the same in any axis order;
    the reader checks every row."""
    g = Grid((1.0,) * len(nodes), nodes, (WALL,) * len(nodes), 3, 0.1)
    f = ScalarField(g, np.random.default_rng(3).normal(size=g.shape))
    path = tmp_path / "f.csv"
    _write_in_axis_order(path, f, order)
    if order == tuple(range(g.dim)):
        write_field_csv(tmp_path / "ref.csv", f)
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert np.array_equal(read_field_csv(path, g).values, f.values)
    else:
        with pytest.raises(ValueError, match="written on another grid") as err:
            read_field_csv(path, g)
        assert str(path) in str(err.value)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_snapshot_value_names_file_and_line(tmp_path, value):
    g = periodic_square(5, time_nodes=3, dt=0.2)
    path = tmp_path / "f.csv"
    write_field_csv(path, ScalarField.zeros(g))
    lines = path.read_text().splitlines()
    lines[40] = lines[40].rsplit(",", 1)[0] + "," + value
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 41 has a non-finite value") as err:
        read_field_csv(path, g)
    assert str(path) in str(err.value)


# --- byte format against the per-node reference writer -----------------------

def _reference_write_field_csv(path, f):
    """The original per-node writer: the byte-format oracle."""
    fmt = lambda x: repr(float(x))
    g = f.grid
    axes = [g.axis_coords(a) for a in range(g.dim)]
    times = g.time_coords()
    header = ",".join(f"axis{a}" for a in range(g.dim)) + ",t,value"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for k in range(g.time_nodes):
            slab = f.values[..., k]
            for idx in np.ndindex(*g.nodes):
                coords = [fmt(axes[a][idx[a]]) for a in range(g.dim)]
                fh.write(",".join(coords + [fmt(times[k]), fmt(slab[idx])]) + "\n")


# the seams of the writer's notation rewrite: 1e-5 <= |x| < 1e-4 goes through
# repr, 1.5e-7 needs its exponent padded, 1e16 and up need a '+'
SPECIAL_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300,
                  -1e300, 1e-300, -1e-300, 1e16, 1.5e16, 1e-5, 3e-5,
                  9.999999999999999e-05, 1.5e-7, 0.1, 1 / 3, -2.5,
                  np.inf, -np.inf, np.nan)

IO_SETTINGS = settings(max_examples=20, deadline=None, derandomize=True, database=None,
                       suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def snapshot_fields(draw, finite=False):
    dim = draw(st.integers(1, 3))
    top = 5 if dim < 3 else 4
    nodes = tuple(draw(st.integers(3, top)) for _ in range(dim))
    kinds = tuple(draw(st.sampled_from((PERIODIC, WALL))) for _ in range(dim))
    extents = tuple(draw(st.sampled_from((1.0, 2.5, 2 * np.pi))) for _ in range(dim))
    time_nodes = draw(st.sampled_from((1, 3, 4)))
    dt = draw(st.sampled_from((0.1, 0.03))) if time_nodes > 1 else 0.0
    g = Grid(extents, nodes, kinds, time_nodes, dt)
    specials = [v for v in SPECIAL_VALUES if not finite or np.isfinite(v)]
    elements = st.one_of(st.sampled_from(specials),
                         st.floats(allow_nan=not finite, allow_infinity=not finite))
    return ScalarField(g, draw(arrays(np.float64, g.shape, elements=elements)))


@IO_SETTINGS
@given(f=snapshot_fields())
def test_writer_bytes_match_reference(tmp_path, f):
    write_field_csv(tmp_path / "new.csv", f)
    _reference_write_field_csv(tmp_path / "ref.csv", f)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _log_uniform(rng, lo, hi, size):
    """Values with lo <= |x| < hi, log-uniform, of either sign."""
    x = np.clip(10.0 ** rng.uniform(np.log10(lo), np.log10(hi), size), lo, np.nextafter(hi, 0))
    return np.where(rng.uniform(size=size) < 0.5, -x, x)


# each band of orjson's notation that the writer rewrites, dense in every slab
NOTATION_BANDS = {
    "positive exponent": lambda rng, size: _log_uniform(rng, 1e16, 1e308, size),
    "one-digit negative exponent": lambda rng, size: _log_uniform(rng, 1e-9, 1e-5, size),
    "positional": lambda rng, size: _log_uniform(rng, 1e-5, 1e-4, size),
    "non-finite": lambda rng, size: rng.choice([np.nan, np.inf, -np.inf], size),
}


@pytest.mark.parametrize("negative_zeros", [False, True])
@pytest.mark.parametrize("band", NOTATION_BANDS)
def test_writer_bytes_match_reference_in_each_notation_band(tmp_path, band, negative_zeros):
    g = Grid((1.0, 2.5), (16, 16), (WALL, PERIODIC), time_nodes=3, dt=0.1)
    rng = np.random.default_rng(7)
    values = NOTATION_BANDS[band](rng, g.shape)
    if negative_zeros:
        values[rng.uniform(size=g.shape) < 0.25] = -0.0
    write_field_csv(tmp_path / "new.csv", ScalarField(g, values))
    _reference_write_field_csv(tmp_path / "ref.csv", ScalarField(g, values))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert reports._float_texts(values[:0]) == []


@IO_SETTINGS
@given(f=snapshot_fields(finite=True))
def test_read_of_write_is_bit_exact(tmp_path, f):
    path = tmp_path / "f.csv"
    write_field_csv(path, f)
    back = read_field_csv(path, f.grid).values
    # comparing the raw bits also checks that -0.0 keeps its sign
    assert np.array_equal(back.view(np.int64), f.values.view(np.int64))
    assert back.flags.c_contiguous


# --- float text: orjson digits in repr notation, parsed back as float() ------

def _repr_texts(values):
    return [repr(x) for x in np.asarray(values, dtype=np.float64).ravel().tolist()]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(a=arrays(np.float64, st.integers(0, 64),
                elements=st.one_of(st.sampled_from(SPECIAL_VALUES),
                                   st.floats(allow_subnormal=True, width=64))))
def test_float_texts_are_repr(a):
    assert reports._float_texts(a) == _repr_texts(a)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(a=arrays(np.float64, st.integers(1, 64),
                elements=st.one_of(st.floats(1e-5, 1e-4, exclude_max=True),
                                   st.floats(-1e-4, -1e-5, exclude_min=True))))
def test_float_texts_rewrite_the_positional_band_to_repr(a):
    # orjson writes 1e-5 <= |x| < 1e-4 as [-]0.0000DDD; the text is rewritten, not
    # taken from repr, so every value of the array goes through the rewrite
    assert reports._float_texts(a) == _repr_texts(a)


def test_float_texts_are_repr_at_every_power_and_seam():
    tiny = np.finfo(np.float64).smallest_subnormal
    powers = [10.0 ** k for k in range(-323, 309)] + [2.0 ** k for k in range(-1074, 1024)]
    seams = [1e-5, 1e-4, 1e16, tiny]
    v = np.array(powers + seams)
    v = np.concatenate([v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)])
    v = np.concatenate([v, -v])
    assert reports._float_texts(v) == _repr_texts(v)
    # one at a time, so that no other value of the array turns a rewrite on
    assert [reports._float_texts([x])[0] for x in v] == _repr_texts(v)


def _assert_reads_as_float(tmp_path, tails):
    """A 1D snapshot whose value column is ``tails``, one per row, must read as
    ``float()`` of each tail, or fail with the reader's message for the first
    row where ``float()`` fails or gives a non-finite value."""
    g = Grid((1.0,), (len(tails),), (PERIODIC,), time_nodes=1, dt=0.0)
    rows = [f"{x},0.0,{tail}" for x, tail in zip(_repr_texts(g.axis_coords(0)), tails)]
    path = tmp_path / "tails.csv"
    path.write_bytes("".join(r if r.endswith("\n") else r + "\n"
                             for r in ["axis0,t,value", *rows]).encode())
    want = []
    for n, (row, tail) in enumerate(zip(rows, tails), 2):      # line 1 is the header
        try:
            want.append(float(tail))
        except ValueError:
            want = f"snapshot {path} line {n} is malformed: {row.rstrip()!r}"
            break
    if isinstance(want, list) and not np.isfinite(want).all():
        n = int(np.argmin(np.isfinite(want)))
        want = f"snapshot {path} line {n + 2} has a non-finite value: {rows[n].rstrip()!r}"
    if isinstance(want, str):
        with pytest.raises(ValueError) as err:
            read_field_csv(path, g)
        assert str(err.value) == want
    else:
        got = read_field_csv(path, g).values.ravel()
        assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))


HARD_TAILS = ("0." + "1" * 40, "9" * 40, "1" * 40 + "e-40", "2.2250738585072011e-308",
              "2.4703282292062328e-324", "2.4703282292062327e-324", "4.9406564584124654e-324",
              "1.7976931348623158e308", "1e-400", "-1e-400", "1E5", "-0.0", " 1.5\r\n")
ODD_TAILS = ("-0", "1_0", "+1", "1.", ".5", "nan", "inf", "1e400", "true", "null", '"1"',
             "[1]", "", "1.5 2.5", "01.5")


@pytest.mark.parametrize("odd", ODD_TAILS)
def test_reader_parses_every_value_as_float_does(tmp_path, odd):
    # the odd tail sits among tails that JSON and float() both read
    _assert_reads_as_float(tmp_path, (*HARD_TAILS[:4], odd, *HARD_TAILS[4:]))
    _assert_reads_as_float(tmp_path, (odd,) * 3)


def test_reader_parses_hard_decimals_as_float_does(tmp_path):
    _assert_reads_as_float(tmp_path, HARD_TAILS)


@IO_SETTINGS
@given(tails=st.lists(st.from_regex(r"-?[0-9]{1,40}(\.[0-9]{0,40})?([eE][+-]?[0-9]{1,3})?",
                                    fullmatch=True), min_size=3, max_size=12))
def test_reader_parses_decimal_strings_as_float_does(tmp_path, tails):
    _assert_reads_as_float(tmp_path, tails)


def _twin(values, kind, index):
    """A copy of ``values`` equal in value, and in bits unless ``kind`` flips
    the sign of a zero or the payload of a NaN at ``index``."""
    a, b = values.copy(), values.copy()
    if kind == "signed zero":
        a.flat[index], b.flat[index] = 0.0, -0.0
    elif kind == "nan payload":
        a.flat[index] = np.nan
        b.view(np.int64).flat[index] = a.view(np.int64).flat[index] | 1
    return a, b


@IO_SETTINGS
@given(f=snapshot_fields(), kind=st.sampled_from(("same bits", "signed zero", "nan payload")),
       index=st.integers(0, 10 ** 6))
def test_set_writer_copies_only_bit_equal_fields(tmp_path, monkeypatch, f, kind, index):
    a, b = _twin(f.values, kind, index % f.values.size)
    fields = [("a.csv", ScalarField(f.grid, a)), ("b.csv", ScalarField(f.grid, b))]
    calls, real = [], write_field_csv
    monkeypatch.setattr(reports, "write_field_csv",
                        lambda path, fld, *a: calls.append(path) or real(path, fld, *a))
    write_fields_csv(tmp_path / "set", fields)
    assert len(calls) == (1 if kind == "same bits" else 2)
    for name, fld in fields:
        _reference_write_field_csv(tmp_path / "ref.csv", fld)
        assert (tmp_path / "set" / name).read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_table_writer_formats_each_column_by_its_type(tmp_path):
    table = reports.Table(i=range(3), x=[np.float64(0.1), 1e-300, -0.0],
                          ok=np.array([True, False, True]), node=[(1, 2), (3,), ()],
                          name=["a", "b", "c"], gap=[None, np.float64(2.5), None])
    reports.write_table_csv(tmp_path / "t.csv", table)
    assert (tmp_path / "t.csv").read_text() == (
        "i,x,ok,node,name,gap\n0,0.1,true,1;2,a,\n1,1e-300,false,3,b,2.5\n2,-0.0,true,,c,\n")
    with pytest.raises(ValueError):
        reports.write_table_csv(tmp_path / "bad.csv", reports.Table(a=[1.0], b=[1.0, 2.0]))


def test_write_reports_writes_each_kind_and_the_fields_in_one_call(tmp_path, monkeypatch):
    g = periodic_square(4, time_nodes=3, dt=0.1)
    f = field_from_function(g, lambda x, y, t: x - y + t)
    calls, real = [], reports.write_fields_csv
    monkeypatch.setattr(reports, "write_fields_csv",
                        lambda outdir, fields: calls.append(fields) or real(outdir, fields))
    reports.write_reports(tmp_path, {"a.csv": f, "t.csv": reports.Table(x=[0.5]),
                                     "r.json": {"J": 0.0}, "b.csv": f})
    assert calls == [[("a.csv", f), ("b.csv", f)]]
    write_field_csv(tmp_path / "ref.csv", f)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "t.csv").read_text() == "x\n0.5\n"
    assert (tmp_path / "r.json").read_text() == '{"J": 0.0}\n'


@st.composite
def off_grid_rows(draw):
    """A small grid, the column (a space or the time coordinate) to move off it,
    by how much, and the row to move through the command line."""
    dim = draw(st.integers(1, 3))
    nodes = tuple(draw(st.integers(3, 4)) for _ in range(dim))
    kinds = tuple(draw(st.sampled_from((PERIODIC, WALL))) for _ in range(dim))
    g = Grid((2.0,) * dim, nodes, kinds, draw(st.sampled_from((1, 3))), 0.1)
    column = draw(st.integers(0, dim))
    shift = draw(st.sampled_from((3.0, -0.5, 1e-6)))
    return g, column, shift, draw(st.integers(0, int(np.prod(g.shape)) - 1))


@IO_SETTINGS
@given(case=off_grid_rows())
def test_off_grid_coordinate_at_every_row_names_that_line(tmp_path_factory, capsys, case):
    """A coordinate moved off the grid, by more than the tolerance, is rejected
    at every row position, naming that line; through ``evaluate`` the run exits 1."""
    g, column, shift, picked = case
    f = ScalarField(g, np.random.default_rng(4).normal(size=g.shape))
    base = tmp_path_factory.mktemp("off-grid")
    path = base / "f.csv"
    write_field_csv(path, f)
    lines = path.read_text().splitlines()

    def moved(row):
        fields = lines[row + 1].split(",")
        fields[column] = repr(float(fields[column]) + shift)
        return "\n".join([*lines[:row + 1], ",".join(fields), *lines[row + 2:]]) + "\n"
    for row in range(len(lines) - 1):
        path.write_text(moved(row))
        with pytest.raises(ValueError, match=f"line {row + 2} is not at grid node"):
            read_field_csv(path, g)
    if g.steady:
        return
    quartet = base / "quartet"
    write_quartet_csv(quartet, FieldQuartet.zeros(g))
    (quartet / "p.csv").write_text(moved(picked))
    config = base / "config.json"
    config.write_text(json.dumps({
        "grid": {"dim": g.dim, "extent": list(g.extents), "nodes": list(g.nodes),
                 "boundary": list(g.boundaries), "time_nodes": g.time_nodes, "dt": g.dt},
        "scenario": f"file:{quartet}"}))
    capsys.readouterr()
    assert main(["evaluate", "--config", str(config), "--out", str(base / "out")]) == 1
    detail = json.loads(capsys.readouterr().err)["detail"]
    assert str(quartet / "p.csv") in detail
    assert f"line {picked + 2} is not at grid node" in detail


def test_row_short_of_a_field_cannot_borrow_its_neighbours(tmp_path):
    """A row with a field too many, then one with a field too few: the number
    stream is that of a good slab, but the first of the two rows is off the grid."""
    g = periodic_square(5, time_nodes=3, dt=0.2)
    f = ScalarField(g, np.random.default_rng(5).normal(size=g.shape))
    path = tmp_path / "f.csv"
    write_field_csv(path, f)
    lines = path.read_text().splitlines()
    lines[7] += "," + lines[8].split(",")[0]
    lines[8] = ",".join(lines[8].split(",")[1:])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 8 is not at grid node"):
        read_field_csv(path, g)


def _assert_read_ends_as_by_float(path, g, monkeypatch):
    """Reading ``path`` gives the values and bits, or the error text, of the
    reader with every field parsed by ``float()``."""
    def outcome():
        try:
            return read_field_csv(path, g).values.view(np.int64).tolist()
        except ValueError as exc:
            return str(exc)
    got = outcome()
    with monkeypatch.context() as m:
        m.setattr(reports, "_parsed_rows", lambda rows, width: None)
        assert got == outcome()


# a wall axis of extent 1 and dt 0.5 put 0.0 and 1.0 in each of the three columns
LITERAL_GRID = Grid((1.0, 2.0), (3, 4), (WALL, PERIODIC), time_nodes=3, dt=0.5)


@pytest.mark.parametrize("literal, node", [
    ("true", 1.0), ("false", 0.0), ("null", 0.0), ('"0.0"', 0.0), ("[0.0]", 0.0),
    ("1", 1.0), ("0", 0.0), ("-0", 0.0)])
@pytest.mark.parametrize("column", [0, 1, 2])
def test_json_literal_coordinate_reads_as_by_float(tmp_path, monkeypatch, literal, node, column):
    """A JSON literal in place of a coordinate that equals ``node``: true == 1.0
    and false == 0.0 in Python, yet float() refuses both."""
    f = ScalarField(LITERAL_GRID, np.random.default_rng(6).normal(size=LITERAL_GRID.shape))
    path = tmp_path / "f.csv"
    write_field_csv(path, f)
    lines = path.read_text().splitlines()
    n = next(n for n in range(1, len(lines)) if float(lines[n].split(",")[column]) == node)
    fields = lines[n].split(",")
    fields[column] = literal
    lines[n] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    _assert_read_ends_as_by_float(path, LITERAL_GRID, monkeypatch)


@pytest.mark.parametrize("moved", ["trailing", "leading"])
def test_row_pair_realigned_by_a_literal_null_reads_as_by_float(tmp_path, monkeypatch, moved):
    """One row gains a literal null and its neighbour loses a field, so the number
    of JSON values per slab is that of a good one."""
    f = ScalarField(LITERAL_GRID, np.random.default_rng(6).normal(size=LITERAL_GRID.shape))
    path = tmp_path / "f.csv"
    write_field_csv(path, f)
    lines = path.read_text().splitlines()
    if moved == "trailing":
        lines[5] += ",null"
        lines[6] = lines[6].split(",", 1)[1]
    else:
        lines[5] = lines[5].rsplit(",", 1)[0]
        lines[6] = "null," + lines[6]
    path.write_text("\n".join(lines) + "\n")
    _assert_read_ends_as_by_float(path, LITERAL_GRID, monkeypatch)
