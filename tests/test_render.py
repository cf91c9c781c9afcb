"""The CSV and JSON writers against the renderers they replaced.

The reference functions below are the earlier ``cli`` renderers, kept
verbatim: ``_fmt`` per cell and a full ``_jsonify`` copy fed to
``json.dumps(..., sort_keys=True, indent=2)``.  Every drawn document and
table must render to the same text, and a value the reference rejects
with TypeError must be rejected with TypeError.  Float vectors are formatted once per content, so the
last tests render the same bytes again, under another sign of zero, with
NaN cells and under another dtype.
"""

import gc
import io
import json
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from frontpage import cli
from frontpage.cli import _write_csv, _write_json, _write_summary


def _ref_fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    value = float(value)
    if math.isnan(value):
        return ""
    return repr(value)


def _ref_csv_text(header: str, rows) -> str:
    lines = [header]
    lines.extend(",".join(_ref_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _ref_jsonify(value):
    """Convert to plain JSON types; non-finite floats become null."""
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, np.ndarray):
        return [_ref_jsonify(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _ref_jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_ref_jsonify(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__} to JSON")


def _ref_json_text(doc) -> str:
    return json.dumps(_ref_jsonify(doc), sort_keys=True, indent=2)


def _rendered(write, *args):
    """``write(stream, *args)``'s text, or TypeError if it raised one."""
    stream = io.StringIO()
    try:
        write(stream, *args)
    except TypeError:
        return TypeError
    return stream.getvalue()


def _reference(render, *args):
    try:
        return render(*args)
    except TypeError:
        return TypeError


_SPECIAL_FLOATS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1,
    1.7976931348623157e308,
]
floats = st.floats() | st.sampled_from(_SPECIAL_FLOATS)
ints = st.integers() | st.integers(-(2**63), 2**63 - 1).map(np.int64)
text = st.text(
    st.characters()
    | st.sampled_from(list('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\xe9\u03a9\U0001f4c8')),
    max_size=8,
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    ints,
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    floats,
    floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    text,
)
arrays = hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
) | hnp.arrays(np.float64, st.integers(0, 12), elements=floats)
# Values the reference rejects: numpy bools, complex numbers, sets, bytes,
# arbitrary objects and a 0-d array of a number.
unsupported = st.sampled_from(
    [np.bool_(True), 1j, {1}, b"x", object(), np.array(2.5), np.array(3)]
)
keys = text | st.integers(-3, 3) | st.integers(-3, 3).map(np.int64)
documents = st.recursive(
    scalars | arrays,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(keys, inner, max_size=4),
    max_leaves=12,
)
documents_with_unsupported = st.recursive(
    scalars | arrays | unsupported,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents)
@example({1: "int key", "1": "str key", "b": [], "a": {}, "c": ()})
@example(np.array([1.0, math.nan, -math.inf, -0.0, 5e-324], dtype=np.float32))
@example({"é\"\\": [np.float64("nan"), np.int64(-7), True, None]})
def test_json_writer_matches_json_dumps(doc):
    assert _rendered(_write_json, doc) == _reference(_ref_json_text, doc)


def _iterated(doc):
    """``doc`` with every list an iterator over its items."""
    if isinstance(doc, list):
        return iter([_iterated(item) for item in doc])
    if isinstance(doc, dict):
        return {key: _iterated(value) for key, value in doc.items()}
    return doc


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents)
@example({"results": [], "nested": [[], [{"a": []}]]})
def test_json_writer_writes_an_iterator_as_its_list(doc):
    assert _rendered(_write_json, _iterated(doc)) == _reference(_ref_json_text, doc)


@settings(max_examples=30, deadline=None)
@given(documents_with_unsupported)
@example(np.bool_(False))
@example([1.0, {"k": np.bool_(True)}])
@example(np.array(7.0))
def test_json_writer_rejects_what_jsonify_rejects(doc):
    assert _rendered(_write_json, doc) == _reference(_ref_json_text, doc)


@settings(max_examples=10, deadline=None)
@given(st.dictionaries(text, documents, max_size=4))
def test_summary_is_json_dumps_plus_newline(doc):
    assert _rendered(_write_summary, doc) == _ref_json_text(doc) + "\n"


def _columns(n: int):
    cell = st.one_of(st.none(), floats, ints, floats.map(np.float64))
    column = st.one_of(
        hnp.arrays(np.float64, n, elements=floats),
        hnp.arrays(st.sampled_from([np.float32, np.int64, np.uint8, np.bool_]), n),
        st.lists(cell, min_size=n, max_size=n),
        st.lists(floats, min_size=n, max_size=n).map(np.array),
    )
    return st.lists(column, min_size=1, max_size=4)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 8).flatmap(_columns))
@example([np.array([0.0, math.nan, 1e16]), [None, 0.1, np.int64(3)]])
def test_csv_writer_matches_cell_by_cell_fmt(columns):
    header = ",".join(f"c{i}" for i in range(len(columns)))
    assert _rendered(_write_csv, header, columns) == _ref_csv_text(
        header, zip(*columns)
    )


def test_csv_rows_stop_at_the_shortest_column():
    columns = [np.arange(4.0), [1, None, 2]]
    assert _rendered(_write_csv, "a,b", columns) == _ref_csv_text(
        "a,b", zip(*columns)
    ) == "a,b\n0.0,1\n1.0,\n2.0,2\n"


def _csv_and_json(column):
    """``column`` as one CSV table and as one JSON value, each against its
    reference rendering."""
    csv_text = _rendered(_write_csv, "c", [column])
    assert csv_text == _ref_csv_text("c", zip(column))
    json_text = _rendered(_write_json, column)
    assert json_text == _ref_json_text(column)
    return csv_text, json_text


def test_repeated_columns_render_like_the_reference():
    t = np.arange(6) * 0.1
    columns = [t, t, t.copy(), np.arange(6) * 0.1 + 1.0, t]
    for _ in range(3):
        assert _rendered(_write_csv, "a,b,c,d,e", columns) == _ref_csv_text(
            "a,b,c,d,e", zip(*columns)
        )
        doc = {"t": t, "u": t.copy(), "points": [{"t": t, "m": columns[3]}] * 2}
        assert _rendered(_write_json, doc) == _ref_json_text(doc)
    assert len(cli._REPRS) <= cli._REPRS_KEPT
    assert cli._float_reprs(t) is cli._float_reprs(t.copy())


def test_signed_zeros_are_told_apart():
    plus = np.array([0.0, 1.0])
    minus = np.array([-0.0, 1.0])
    assert plus.tolist() == minus.tolist()  # equal as values, not as bytes
    for column in (plus, minus, plus, minus):
        csv_text, json_text = _csv_and_json(column)
        sign = "-" if np.signbit(column[0]) else ""
        assert csv_text == f"c\n{sign}0.0\n1.0\n"
        assert f"{sign}0.0," in json_text


def test_nan_cells_of_a_remembered_vector():
    column = np.array([1.5, math.nan, -math.inf, 2.5])
    for _ in range(2):
        csv_text, json_text = _csv_and_json(column)
        assert csv_text == "c\n1.5\n\n-inf\n2.5\n"
        assert json_text.split() == ["[", "1.5,", "null,", "null,", "2.5", "]"]
    # blanking the NaN cells left the remembered reprs untouched
    finite = np.array([1.5, 7.0, 2.5])
    _csv_and_json(finite)
    assert cli._float_reprs(column) == ["1.5", "nan", "-inf", "2.5"]


def test_same_bytes_under_float32_and_float64():
    wide = np.array([1.0, -2.5e-300])
    narrow = wide.view(np.float32)
    assert narrow.tobytes() == wide.tobytes()
    for column in (wide, narrow, wide, narrow):
        _csv_and_json(column)
    assert _csv_and_json(wide)[0] == "c\n1.0\n-2.5e-300\n"
    assert _csv_and_json(narrow)[0].count("\n") == narrow.size + 1


_RUN_CELLS = [0.0, -0.0, 1.0, 1e16, 0.1, math.nan, math.inf, -math.inf]


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        st.sampled_from([np.float64, np.float32]),
        st.integers(0, 30),
        elements=st.sampled_from(_RUN_CELLS),
    )
)
@example(np.array([-0.0, 0.0, 0.0, math.nan, math.nan, 1.0, 1.0, 1.0]))
@example(np.array([2.5] * 7, dtype=np.float32))
@example(np.array([3.0]))
def test_runs_of_equal_cells_render_like_the_reference(column):
    _csv_and_json(column)
    strided = np.repeat(column, 2)[::2]  # not contiguous, same cells
    assert _rendered(_write_csv, "c", [strided]) == _ref_csv_text("c", zip(column))


def test_a_table_of_several_blocks_renders_like_the_reference():
    n = 10_000
    assert n > 2 * cli._CSV_BLOCK_ROWS and n % cli._CSV_BLOCK_ROWS
    x = np.arange(n) * 0.1
    x[::7] = math.nan
    runs = np.repeat(np.arange(n // 250) * 0.5, 250)  # runs of equal cells
    names = [f'a,"{i}"' if i % 3 else f"b{i}" for i in range(n)]
    quoted = [f'"a,""{i}"""' if i % 3 else f"b{i}" for i in range(n)]
    header = "x,runs,name"
    for rows in (n, cli._CSV_BLOCK_ROWS, cli._CSV_BLOCK_ROWS + 1, 1, 0):
        columns = [x[:rows], runs[:rows], names[:rows]]
        assert _rendered(_write_csv, header, columns) == _ref_csv_text(
            header, zip(x[:rows], runs[:rows], quoted[:rows])
        )


# Most bytes a row of four distinct float cells may take at the peak of
# ``_write_csv``, on top of its columns: the text of its cells, and of the
# rows of one block only, not of every row and of the whole table.
_CSV_ROW_BYTES = 390


def test_csv_writer_memory_per_row():
    rows = 200_000
    columns = [np.random.default_rng(seed).random(rows) for seed in range(4)]
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _write_csv(types.SimpleNamespace(write=len), "a,b,c,d", columns)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak / rows < _CSV_ROW_BYTES


# Most bytes either writer may hold at its peak for a table of 400,000 rows
# of four float columns, on top of the columns: a block of cells at a time,
# not the text of whole columns.
_WRITER_PEAK_BYTES = 8_000_000


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writers_hold_one_block_of_text(fmt):
    rows = 400_000
    columns = [np.random.default_rng(seed).random(rows) for seed in range(4)]
    sink = types.SimpleNamespace(write=len)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        if fmt == "csv":
            _write_csv(sink, "a,b,c,d", columns)
        else:
            _write_json(sink, dict(zip("abcd", columns)))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < _WRITER_PEAK_BYTES


@pytest.mark.parametrize("n", [cli._CSV_BLOCK_ROWS, cli._CSV_BLOCK_ROWS + 1, 10_000])
def test_float_arrays_of_blocks_render_like_the_reference(n):
    finite = np.arange(n) * 0.1
    _csv_and_json(finite)
    column = finite.copy()
    column[-2:] = [math.nan, math.inf]  # in the last block, after finite ones
    _csv_and_json(column)
