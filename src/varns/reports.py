"""Every report file format: field snapshots, CSV tables and JSON records.

``write_reports`` writes a subcommand's reports, a map from file name to a
``ScalarField`` (a snapshot CSV), a ``Table`` (a CSV table) or a JSON record.

Snapshot format: one row per node with header ``axis0,axis1[,axis2],t,value``
in time-major, then axis0-major order. Every float of every CSV is written as
its ``repr``, the shortest round-trip text, so identical inputs produce
byte-identical files. ``_float_texts`` gets that text for a whole array from
one ``orjson.dumps`` call: orjson writes the same shortest digits, and only its
notation is rewritten to repr's, text by text at the values whose magnitude
calls for it (``1e16`` -> ``1e+16`` for |x| >= 1e16, ``1e-6`` -> ``1e-06`` for
1e-9 <= |x| < 1e-5, and for 1e-5 <= |x| < 1e-4, which orjson writes
positionally, ``0.0000123`` -> ``1.23e-05``). The non-finite values, which
orjson writes as ``null``, go through ``repr`` itself. The writer joins each
time slab from one list of slots, which interleaves the grid's coordinate
text, the slab's time, the value texts and the newlines, so no Python code
runs per row. The reader parses all the fields of each time slab with one
``orjson.loads`` and checks every row's coordinates against the grid,
vectorized; a slab that one parse does not serve goes through ``float()``
field by field, so the accepted values, their bits and every error are those
of ``float()``.

At a solution of the dual system w = u and r = p, so snapshots and residuals
come in bit-identical pairs. ``write_fields_csv`` formats each distinct field
of one call once and copies the file for a field whose float64 bits equal one
already written; ``read_quartet_csv`` parses each distinct file once and
hands back a copy of the array for a file whose bytes equal one already
parsed. Equal bytes parse to equal values and fail with equal errors, so the
output and every reader check are the same as formatting and parsing each
field on its own. Both build the coordinate text or lists of their grid once
per call, not once per file.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil

import numpy as np
import orjson

from .grids import FieldQuartet, Grid, ScalarField


def _float_texts(values) -> list[str]:
    """``repr`` of each float64 of ``values``, in C order."""
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    mag = np.abs(v)
    finite = np.isfinite(v)
    # an empty array dumps to "[]", whose one empty text the cut drops
    texts = orjson.dumps(v, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")[:v.size]
    # orjson writes a positive exponent only for |x| >= 1e16 and a one-digit
    # negative one only for 1e-9 <= |x| < 1e-5, so only those texts are rewritten
    for i in np.flatnonzero(finite & (mag >= 1e16)).tolist():
        texts[i] = texts[i].replace("e", "e+")
    for i in np.flatnonzero((mag >= 1e-9) & (mag < 1e-5)).tolist():
        texts[i] = texts[i].replace("e-", "e-0")
    for i in np.flatnonzero((mag >= 1e-5) & (mag < 1e-4)).tolist():
        sign, digits = texts[i].split("0.0000")     # orjson's [-]0.0000DDD
        texts[i] = f"{sign}{digits[0]}.{digits[1:]}e-05" if digits[1:] else f"{sign}{digits}e-05"
    own = np.flatnonzero(~finite)
    for i, x in zip(own.tolist(), v[own].tolist()):
        texts[i] = repr(x)
    return texts


def _coord_prefixes(g: Grid) -> list[str]:
    """``"x0,x1[,x2],"`` for every spatial node, in C (axis0-major) order."""
    prefixes = [""]
    for a in range(g.dim):
        coords = [c + "," for c in _float_texts(g.axis_coords(a))]
        prefixes = [p + c for p in prefixes for c in coords]
    return prefixes


def _header(dim: int) -> str:
    return ",".join(f"axis{a}" for a in range(dim)) + ",t,value"


def write_field_csv(path, f: ScalarField, prefixes: list[str] | None = None):
    """Write ``f`` as a snapshot CSV at ``path``. ``prefixes`` are the grid's
    :func:`_coord_prefixes`, when the caller has built them for other files too."""
    g = f.grid
    if prefixes is None:
        prefixes = _coord_prefixes(g)
    n = len(prefixes)
    # row i is slots 4i to 4i + 3: its coordinates, the slab's time and a comma,
    # its value and the newline. Each slab fills the middle two and is one join
    # and one write, which keeps memory flat
    slots = ["\n"] * (4 * n)
    slots[0::4] = prefixes
    with open(path, "w") as fh:
        fh.write(_header(g.dim) + "\n")
        for k, t in enumerate(_float_texts(g.time_coords())):
            slots[1::4] = [t + ","] * n
            slots[2::4] = _float_texts(f.values[..., k])
            fh.write("".join(slots))


def write_fields_csv(outdir, fields):
    """Write each ``(file_name, ScalarField)`` of ``fields`` into ``outdir``.

    A field whose grid and float64 bits equal those of a field already written
    in this call is copied from that file instead of being formatted again.
    Bits, not values: -0.0 and 0.0 format differently. The coordinate text of
    each grid is built once.
    """
    os.makedirs(outdir, exist_ok=True)
    written, prefixes = [], {}
    for name, f in fields:
        path = os.path.join(outdir, name)
        bits = f.values.view(np.int64)
        source = next((p for p, grid, seen in written
                       if grid == f.grid and np.array_equal(seen, bits)), None)
        if source is None:
            if f.grid not in prefixes:
                prefixes[f.grid] = _coord_prefixes(f.grid)
            write_field_csv(path, f, prefixes[f.grid])
            written.append((path, f.grid, bits))
        else:
            shutil.copyfile(source, path)


def _parsed_rows(rows: list[str], width: int) -> list | None:
    """The fields of ``rows`` from one JSON parse of the rows joined by nulls, when
    each row is ``width`` JSON numbers and its value (the last) is a float; else
    None. Field c of row i is at index i (width + 1) + c.

    The caller keeps the result only if every coordinate equals its node's float.
    The JSON values equal to a float are the numbers, which float() reads to
    the same float, and the booleans (True == 1.0, False == 0.0), which it
    refuses; no number text holds a 't' or an 'f', so one scan for those two
    refuses true and false. Every other token fails a check: a null, string,
    array or object is not a float, so in a value it fails the type check, in a
    coordinate the exact compare, and in a joiner's place the null count, or it
    displaces a joiner into a field, which then fails. So a row short of a field
    cannot borrow its neighbour's."""
    # the brackets go into the one join: another copy of the slab's text, fresh
    # pages each slab, costs about 0.2 ms of the 1.3 ms of a 4096-row slab
    pieces = rows.copy()
    pieces[0] = "[" + pieces[0]
    pieces[-1] += "]"
    text = ",null,".join(pieces)
    if "t" in text or "f" in text:
        return None
    try:
        flat = orjson.loads(text)
    except ValueError:
        return None
    stride = width + 1
    if len(flat) != len(rows) * stride - 1 or \
            flat[width::stride].count(None) != len(rows) - 1:
        return None
    return flat if set(map(type, flat[width - 1::stride])) == {float} else None


def _float_or_none(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _row_fields(row: str, width: int) -> list:
    """The ``width`` fields of ``row`` by ``float()``: its coordinates, NaN for a
    row with another number of them or one that is not a float, then its value,
    None when that is not a float."""
    texts = row.split(",")
    got = [_float_or_none(c) for c in texts[:-1]]
    if len(got) != width - 1 or None in got:
        got = [np.nan] * (width - 1)
    return [*got, _float_or_none(texts[-1]) if len(texts) > 1 else None]


def _read_slab(path, rows: list[str], first_line: int, columns: list[list[float]],
               t: float) -> list | np.ndarray:
    """The value column of one time slab's ``rows``, which start at 1-based file
    line ``first_line``, each row checked to be at its node: the space coordinates
    of the grid's nodes, one list per axis in ``columns``, and time ``t``. The
    coordinates that :func:`_parsed_rows` gives must equal the nodes' exactly. When
    it gives none, or they differ, every field goes through ``float()``, so the
    accepted values, their bits and every error are those of ``float()``: the first
    malformed row, then the first non-finite value, then the first row off its node
    by more than a relative 1e-9 (other writers may round the coordinates
    differently in the last bits). The exact compare of lists saves about 0.6 ms of
    the 2 ms a 4096-row slab takes with the tolerance check on every slab."""
    width = len(columns) + 2
    flat = _parsed_rows(rows, width)
    if flat is not None and all(flat[c::width + 1] == want
                                for c, want in enumerate([*columns, [t] * len(rows)])):
        return flat[width - 1::width + 1]
    parsed = [_row_fields(row, width) for row in rows]
    bad = next((n for n, f in enumerate(parsed) if f[-1] is None), None)
    if bad is not None:
        raise ValueError(f"snapshot {path} line {first_line + bad} is malformed: "
                         f"{rows[bad].rstrip()!r}")
    fields = np.array(parsed)
    finite = np.isfinite(fields[:, -1])
    if not finite.all():
        n = int(np.argmin(finite))
        raise ValueError(f"snapshot {path} line {first_line + n} has a non-finite value: "
                         f"{rows[n].rstrip()!r}")
    nodes = np.column_stack([*columns, np.full(len(rows), t)])
    on = (np.abs(fields[:, :-1] - nodes) <= 1e-12 + 1e-9 * np.abs(nodes)).all(axis=1)
    if not on.all():
        n = int(np.argmin(on))
        raise ValueError(f"snapshot {path} line {first_line + n} is not at grid node "
                         f"{','.join(_float_texts(nodes[n]))}; it was written on another grid")
    return fields[:, -1]


def _coord_columns(g: Grid) -> list[list[float]]:
    """The space coordinates of every node, in C (axis0-major) order, one list
    per axis."""
    return [m.ravel().tolist() for m in np.meshgrid(
        *(g.axis_coords(a) for a in range(g.dim)), indexing="ij")]


def read_field_csv(path, grid: Grid, columns: list[list[float]] | None = None) -> ScalarField:
    """The snapshot CSV at ``path``, checked to be written on ``grid``. ``columns``
    are the grid's :func:`_coord_columns`, when the caller has built them for
    other files too."""
    if columns is None:
        columns = _coord_columns(grid)
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"snapshot {path} cannot be read: {exc.strerror}") from None
    per_slab = int(np.prod(grid.nodes))
    values = np.empty(grid.shape)
    slabs = values.reshape(per_slab, grid.time_nodes)
    with fh:
        try:
            header = fh.readline().strip()
            if header != _header(grid.dim):
                raise ValueError(f"snapshot {path} has {header.count(',') + 1} columns, "
                                 f"expected {grid.dim + 2} named {_header(grid.dim)!r}")
            for k, t in enumerate(grid.time_coords().tolist()):
                rows = list(itertools.islice(fh, per_slab))
                if len(rows) < per_slab:
                    raise ValueError(f"snapshot {path} is truncated")
                slabs[:, k] = _read_slab(path, rows, 2 + k * per_slab, columns, t)
            if fh.readline():
                raise ValueError(f"snapshot {path} has extra rows")
        except UnicodeDecodeError as exc:
            raise ValueError(f"snapshot {path} is not UTF-8 text ({exc.reason})") from None
    return ScalarField(grid, values)


_COMPARE_CHUNK = 1 << 16


def _same_bytes(path_a, path_b) -> bool:
    """Whether two files hold the same bytes: sizes first, then chunk by chunk,
    so memory stays flat. A file that cannot be read compares unequal."""
    try:
        if os.path.getsize(path_a) != os.path.getsize(path_b):
            return False
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            while True:
                chunk = fa.read(_COMPARE_CHUNK)
                if chunk != fb.read(_COMPARE_CHUNK):
                    return False
                if not chunk:
                    return True
    except OSError:
        return False


def read_quartet_csv(indir, grid: Grid) -> FieldQuartet:
    parsed, columns = [], _coord_columns(grid)

    def read(name):
        # a file with the bytes of one parsed before parses to the same values
        path = os.path.join(indir, name)
        for seen, values in parsed:
            if _same_bytes(seen, path):
                return values.copy()
        values = read_field_csv(path, grid, columns).values
        parsed.append((path, values))
        return values

    vec = lambda name: [read(f"{name}_{i}.csv") for i in range(grid.dim)]
    return FieldQuartet.from_arrays(grid, vec("u"), read("p.csv"), vec("w"), read("r.csv"))


class Table(dict):
    """A CSV report: column name -> the column's values, in column order. A column
    holds floats, ints, strings, bools or tuples of ints; ``None`` is a blank cell."""


def _cells(column) -> list[str]:
    """The text of each cell of ``column``. The format is chosen once per column,
    by the type of its first value: floats by shortest round trip, bools as
    true/false, tuples joined by ';'."""
    values = list(column)
    given = [v for v in values if v is not None]
    first = given[0] if given else ""
    if isinstance(first, (float, np.floating)):
        text = _float_texts(given)
    elif isinstance(first, (bool, np.bool_)):
        text = ["true" if v else "false" for v in given]
    elif isinstance(first, tuple):
        text = [";".join(map(str, v)) for v in given]
    else:
        text = list(map(str, given))
    if len(given) < len(values):
        cells = iter(text)
        text = ["" if v is None else next(cells) for v in values]
    return text


def write_table_csv(path, table: Table):
    columns = [_cells(c) for c in table.values()]
    with open(path, "w") as fh:
        fh.write(",".join(table) + "\n")
        fh.write("".join([",".join(row) + "\n" for row in zip(*columns, strict=True)]))


def quartet_files(quartet: FieldQuartet) -> dict:
    """The snapshot file name of each component of ``quartet``."""
    vec = lambda name: {f"{name}_{i}.csv": c
                        for i, c in enumerate(getattr(quartet, name).components)}
    return {**vec("u"), **vec("w"), "p.csv": quartet.p, "r.csv": quartet.r}


def write_reports(outdir, files: dict):
    """Write each report of ``files`` (file name -> report) into ``outdir``: a
    ``ScalarField`` as a snapshot CSV, a ``Table`` as a CSV, any other value as a
    JSON record. All the fields go through one ``write_fields_csv`` call."""
    write_fields_csv(outdir, [(name, f) for name, f in files.items()
                              if isinstance(f, ScalarField)])
    for name, report in files.items():
        if isinstance(report, Table):
            write_table_csv(os.path.join(outdir, name), report)
        elif not isinstance(report, ScalarField):
            write_json(os.path.join(outdir, name), report)


def write_json(path, payload: dict):
    line = json_line(payload)       # before the file is opened: a non-finite one leaves none
    with open(path, "w") as fh:
        fh.write(line + "\n")


def _coerce(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


class NonFiniteError(Exception):
    """A summary or JSON report holds NaN or an infinity, for which JSON has no token."""


def json_line(payload: dict) -> str:
    """``payload`` as one line of strict JSON, its keys sorted."""
    try:
        return json.dumps(payload, sort_keys=True, default=_coerce, allow_nan=False)
    except ValueError:      # the encoder's error for NaN and the infinities
        raise NonFiniteError("a result is NaN or infinite, which JSON cannot hold") from None
