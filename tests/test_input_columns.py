"""How the analysis commands hold their input CSVs.

A trace or users file is read into typed columns, 8 bytes a number, so a
command's memory grows by a few dozen bytes per input row, not by the
Python objects of each row; and what is read is what a plain reading of
the file gives.
"""

import csv
import gc
import io
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from frontpage.cli import ingest_traces, main
from frontpage.fitting import success_rate_series

BASELINE_INI = Path(__file__).resolve().parents[1] / "configs" / "votes_baseline.ini"


def _peak_bytes(argv) -> int:
    """Peak traced allocation of one ``main(argv)`` above what it started with."""
    gc.collect()  # no earlier call's garbage is freed inside the measure
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _trace(path: Path, rows: int, ids: int = 20) -> Path:
    """``rows`` rows over ``ids`` interleaved ids; t from 1 up, so ``fit log``
    reads it, and inside the baseline story's horizon, so ``compare`` does."""
    lines = ["id,t,value"]
    for k in range(rows):
        t = 1 + k // ids
        lines.append(f"s{k % ids:02d},{t},{3.25 * t + (k % 7) / 3}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _users(path: Path, rows: int) -> Path:
    """``rows`` users, every one kept at the default ``--min-submissions``."""
    lines = ["id,submissions,front_page_F,network_S"]
    lines += [f"u{i},{60 + i % 300},{i % 7},{i % 1000}" for i in range(rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# Most a command's peak may grow per input row, from 2,000 rows to 20,000.
# A trace row is two doubles (16 B) in its id's columns.  A users row is
# its three doubles, which success_rate_series checks and bins where they
# were read, a kept user's S and rate, and the arrays that bin them: 66 B.
# Rows held as Python floats in lists cost 82 B (trace) and 340 B (users),
# and a users row cost 82 B while each kept user was copied a second time.
_TRACE_ROW_BOUND = 40
_USERS_ROW_BOUND = 75


@pytest.mark.parametrize(
    "command, make, bound",
    [
        (["fit", "linear"], _trace, _TRACE_ROW_BOUND),
        (["fit", "log"], _trace, _TRACE_ROW_BOUND),
        (["compare", "--config", str(BASELINE_INI)], _trace, _TRACE_ROW_BOUND),
        (["fit", "success"], _users, _USERS_ROW_BOUND),
    ],
    ids=["fit-linear", "fit-log", "compare", "fit-success"],
)
def test_input_memory_per_row_is_bounded(command, make, bound, tmp_path):
    def argv(rows):
        path = make(tmp_path / f"in{rows}.csv", rows)
        return [*command, str(path), "--out", str(tmp_path / f"o{rows}")]

    small, large = argv(2_000), argv(20_000)
    assert main(small) == 0  # imports and caches, outside the measure
    per_row = (_peak_bytes(large) - _peak_bytes(small)) / 18_000
    assert per_row <= bound, per_row


def _random_trace(rng: random.Random) -> str:
    """CSV text of a random valid trace: ids interleaved, some quoted with
    commas, quotes or spaces in them, blank lines between rows, and
    ``\\r\\n`` or ``\\n`` line endings."""
    ids = [
        rng.choice(["a", "b,c", 'say "hi"', " padded ", "x" * rng.randint(1, 9)])
        + str(i)
        for i in range(rng.randint(1, 6))
    ]
    clock = dict.fromkeys(ids, 0.0)
    rows = []
    for _ in range(rng.randint(1, 60)):
        sid = rng.choice(ids)
        clock[sid] += rng.choice([0.0, 0.5, rng.random() * 100, 1e-300])
        value = rng.choice([rng.uniform(-1e6, 1e6), rng.randint(-5, 5), 0.1, 1e308])
        rows.append([sid, repr(clock[sid]), repr(value)])
    text = io.StringIO()
    writer = csv.writer(text, lineterminator=rng.choice(["\n", "\r\n"]))
    writer.writerow(["id", "t", "value"])
    for row in rows:
        if rng.random() < 0.2:
            text.write(rng.choice(["\n", "\r\n"]))
        writer.writerow(row)
    return text.getvalue()


def _reference(path: Path) -> dict:
    """``{id: (t, value)}`` of a valid trace, by ``csv.reader``, lists and
    ``np.array``."""
    series = {}
    with open(path, encoding="utf-8", newline="") as stream:
        for row in list(csv.reader(stream))[1:]:
            if row:
                t, value = series.setdefault(row[0].strip(), ([], []))
                t.append(float(row[1]))
                value.append(float(row[2]))
    return {sid: (np.array(t), np.array(v)) for sid, (t, v) in series.items()}


@pytest.mark.parametrize("seed", range(40))
def test_ingest_traces_equals_a_plain_reading(seed, tmp_path):
    text = _random_trace(random.Random(seed))
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode("utf-8"))
    got, want = ingest_traces(path), _reference(path)
    assert list(got) == list(want)
    for sid, (t, value) in got.items():
        for array, expected in zip((t, value), want[sid]):
            assert array.dtype == np.float64
            assert np.array_equal(array, expected)


@pytest.mark.parametrize("seed", range(10))
def test_success_rate_series_bins_any_form_of_column_alike(seed):
    rng = random.Random(seed)
    users = []
    for _ in range(rng.randint(5, 300)):
        submissions = rng.randint(1, 400)
        users.append((submissions, rng.randint(0, submissions), rng.random() * 500))
    options = {"bins": rng.randint(1, 12), "min_submissions": rng.randint(1, 60)}
    lists = [list(column) for column in zip(*users)]
    # every other row of a (2n, 3) array: columns with a stride of six doubles
    strided = np.repeat(np.array(users, dtype=float), 2, axis=0)[::2]
    forms = {
        "lists": lists,
        "tuples": [tuple(column) for column in lists],
        "int arrays": [np.array(column) for column in lists],
        "strided views": [strided[:, k] for k in range(3)],
    }
    try:
        want = success_rate_series(*lists, **options)
    except ValueError as exc:  # no user kept
        for columns in forms.values():
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                success_rate_series(*columns, **options)
        return
    assert not forms["strided views"][0].flags.contiguous
    for form, columns in forms.items():
        got = success_rate_series(*columns, **options)
        for name in ("bin_edges", "bin_centers", "mean_rate", "stderr", "counts"):
            a, b = getattr(want, name), getattr(got, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (form, name)
        assert got.n_users_total == want.n_users_total == len(users)
        assert got.n_users_kept == want.n_users_kept
