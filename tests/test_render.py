"""The CSV and JSON writers against the renderers they replaced.

The reference functions below are the earlier ``cli`` renderers, kept
verbatim: ``_fmt`` per cell and a full ``_jsonify`` copy fed to
``json.dumps(..., sort_keys=True, indent=2)``.  Every drawn document and
table must render to the same text, and a value the reference rejects
with TypeError must be rejected with TypeError.
"""

import io
import json
import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
