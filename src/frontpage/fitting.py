"""Least-squares fits, the friend-voting significance test, and the
comparison of a model trajectory with an observed trace.

The fits here are the ones used to calibrate the models: straight lines
(optionally through the origin) for page drift and the rank-model
coefficients, a logarithmic law for the combined voter network, and a
binned success-rate-versus-network-size series.  The binomial machinery
quantifies how unlikely an observed number of friend votes would be if
voters were drawn at random from the whole user pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _MAX_BINS, _check
from .core import FriendVoteObservation, VoteTrajectory

__all__ = [
    "LinearFit",
    "LogFit",
    "SuccessRateBins",
    "fit_linear",
    "fit_log",
    "binomial_pmf",
    "chance_probability",
    "success_rate_series",
    "ComparisonReport",
    "compare_model_to_trace",
]

CHANCE_MODES = ("exact", "tail")


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    rss: float
    n_points: int


@dataclass(frozen=True)
class LogFit:
    """Coefficients of ``y = alpha * log_base(x) + beta``."""

    alpha: float
    beta: float
    log_base: float
    rss: float
    n_points: int


def _points_to_xy(points) -> tuple[np.ndarray, np.ndarray]:
    # C order: np.dot then sums x and y alike whatever the layout of points
    arr = np.asarray(points, dtype=float, order="C")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("points must be a sequence of (x, y) pairs")
    if arr.shape[0] < 2:
        raise ValueError(f"need at least 2 points, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("points must be finite")
    return arr[:, 0], arr[:, 1]


def fit_linear(points, through_origin: bool = False) -> LinearFit:
    """Ordinary least squares for ``y = slope * x + intercept``.

    ``through_origin`` pins the intercept at 0 (used for laws of the
    form y = a*x).  Degenerate abscissae (all equal, or all zero in the
    through-origin case) raise ValueError.
    """
    x, y = _points_to_xy(points)
    if through_origin:
        sxx = float(np.dot(x, x))
        if sxx == 0.0:
            raise ValueError("all x are zero; through-origin slope is undefined")
        slope = float(np.dot(x, y)) / sxx
        intercept = 0.0
    else:
        x_bar = float(x.mean())
        y_bar = float(y.mean())
        dx = x - x_bar
        sxx = float(np.dot(dx, dx))
        if sxx == 0.0:
            raise ValueError("all x are equal; slope is undefined")
        slope = float(np.dot(dx, y - y_bar)) / sxx
        intercept = y_bar - slope * x_bar
    residuals = y - (slope * x + intercept)
    return LinearFit(
        slope=slope,
        intercept=intercept,
        rss=float(np.dot(residuals, residuals)),
        n_points=int(x.size),
    )


def fit_log(points, log_base: float = math.e) -> LogFit:
    """Least squares for ``y = alpha * log_base(x) + beta`` with x >= 1.

    Fitting the same points in a different base rescales alpha by the
    ratio of the bases' natural logs and leaves beta unchanged.
    """
    _check(log_base, "positive and != 1", "log_base")
    x, y = _points_to_xy(points)
    if np.any(x < 1.0):
        raise ValueError(f"abscissae must be >= 1, got minimum {x.min()}")
    log_x = np.log(x) / math.log(log_base)
    inner = fit_linear(np.column_stack([log_x, y]))
    return LogFit(
        alpha=inner.slope,
        beta=inner.intercept,
        log_base=float(log_base),
        rss=inner.rss,
        n_points=inner.n_points,
    )


def binomial_pmf(k: int, n: int, p: float) -> float:
    """P(exactly k successes in n independent trials of probability p).

    Computed in log space via lgamma so that large n (hundreds of trials
    over a pool of tens of thousands) neither overflows nor underflows.
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValueError(f"k must be an integer, got {k!r}")
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"n must be an integer, got {n!r}")
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, n], got k={k}, n={n}")
    _check(p, "in [0, 1]", "p")
    if p == 0.0:
        return 1.0 if k == 0 else 0.0
    if p == 1.0:
        return 1.0 if k == n else 0.0
    return _binomial_terms(n, p)(k)


def _binomial_terms(n: int, p: float):
    """``j -> binomial_pmf(j, n, p)`` for 0 < p < 1: the one expression of
    the pmf, its logs of n!, p and q taken once for every j."""
    lgamma_n, log_p, log_q = math.lgamma(n + 1), math.log(p), math.log1p(-p)

    def term(j: int) -> float:
        return math.exp(
            lgamma_n - math.lgamma(j + 1) - math.lgamma(n - j + 1)
            + j * log_p + (n - j) * log_q
        )

    return term


def chance_probability(obs: FriendVoteObservation, mode: str = "exact") -> float:
    """How likely the observed friend-vote overlap is under random voting.

    With voters drawn uniformly from the pool, the number landing in the
    submitter's group is binomial with p = group_K / pool_N.  "exact"
    returns the probability of exactly the observed overlap; "tail"
    returns the probability of at least that many.  The two answer
    different questions, so both are exposed and the CLI reports both.

    The tail is the ``math.fsum`` of ``binomial_pmf(j, n, p)`` over
    ``j >= k``, bit for bit, but it adds only the terms that are nonzero
    in double precision, so it costs the width of the binomial's bulk, not n.
    """
    if mode not in CHANCE_MODES:
        raise ValueError(f"mode must be one of {CHANCE_MODES}, got {mode!r}")
    p = obs.group_K / obs.pool_N
    k, n = obs.overlap_k, obs.sample_n
    if mode == "exact":
        return binomial_pmf(k, n, p)
    if k == 0 or p == 1.0:
        return 1.0
    if p == 0.0:  # group_K / pool_N underflowed; binomial_pmf's terms are 0
        return 0.0
    term = _binomial_terms(n, p)
    # The pmf is log-concave: it rises up to its mode and falls after it.
    # So the terms that underflow to exactly 0.0 form one run below the
    # mode and one above it, and adding zeros does not change fsum, which
    # is exactly rounded in any order.  Walk out from max(k, mode): up to
    # n and down to k, each walk stopping at its first zero.
    start = max(k, min(n, math.floor((n + 1) * p)))
    terms = []
    for walk in (range(start, n + 1), range(start - 1, k - 1, -1)):
        for j in walk:
            t = term(j)
            if t == 0.0:
                break
            terms.append(t)
    return min(1.0, math.fsum(terms))


@dataclass(frozen=True)
class SuccessRateBins:
    """Success rate binned by network size, empty bins dropped."""

    bin_edges: np.ndarray    # full equal-width grid over the kept S range
    bin_centers: np.ndarray  # centers of non-empty bins only
    mean_rate: np.ndarray
    stderr: np.ndarray
    counts: np.ndarray
    n_users_total: int
    n_users_kept: int

    @property
    def points(self) -> np.ndarray:
        """(center, mean rate) pairs, ready for fit_linear."""
        return np.column_stack([self.bin_centers, self.mean_rate])


def _check_users(subs, fronts, networks) -> None:
    """ValueError naming the first user that breaks a rule, with the first
    rule it breaks in the order submissions, F, S (NaN passes no comparison)."""
    rules = [  # each rule, the column it names and the users it passes
        ("submissions must be > 0", subs, (subs > 0) & (subs < math.inf)),
        ("front_page_F must be in [0, submissions]", fronts,
         (fronts >= 0) & (fronts <= subs)),
        ("network_S must be >= 0", networks, (networks >= 0) & (networks < math.inf)),
    ]
    bad = ~np.logical_and.reduce([ok for _, _, ok in rules])
    if bad.any():
        i = int(bad.argmax())
        rule, column = next((r, c) for r, c, ok in rules if not ok[i])
        raise ValueError(f"user {i}: {rule}, got {float(column[i])}")


def success_rate_series(
    submissions, front_page_F, network_S, bins: int = 10, min_submissions: int = 50
) -> SuccessRateBins:
    """Bin per-user success rate (promoted / submitted) by network size.

    The arguments are 1-d columns of one length, user i at index i.  All
    users are checked, then those below ``min_submissions`` are dropped — a
    handful of submissions gives a meaningless rate — and the survivors are
    grouped into equal-width bins over the observed S range, each bin
    reporting the mean rate with its standard error.
    """
    bins = _check(bins, f"an integer in [1, {_MAX_BINS}]", "bins")
    min_submissions = _check(min_submissions, "an integer >= 1", "min_submissions")
    subs, fronts, networks = columns = [
        np.asarray(c, dtype=float) for c in (submissions, front_page_F, network_S)
    ]
    if subs.ndim != 1 or not subs.shape == fronts.shape == networks.shape:
        shapes = [c.shape for c in columns]
        raise ValueError(f"columns must be 1-d and of one length, got shapes {shapes}")
    _check_users(*columns)
    kept = subs >= min_submissions
    s_values = networks[kept]
    if not s_values.size:
        raise ValueError(
            f"no users with at least {min_submissions} submissions "
            f"({subs.size} supplied)"
        )

    # IEEE division: each rate is the Python float f / sub, bit for bit
    rates = fronts[kept] / subs[kept]
    s_min, s_max = float(s_values.min()), float(s_values.max())
    if s_min == s_max:
        edges = np.array([s_min - 0.5, s_max + 0.5])
    else:
        edges = np.linspace(s_min, s_max, bins + 1)
    idx = np.clip(np.searchsorted(edges, s_values, side="right") - 1, 0, len(edges) - 2)

    # a stable sort keeps each bin's members in input order, so every
    # bin's mean and spread are those of a masked scan of the users
    grouped = rates[np.argsort(idx, kind="stable")]
    sizes = np.bincount(idx)
    ends = np.cumsum(sizes)
    centers, means, errs, counts = [], [], [], []
    for b in np.flatnonzero(sizes).tolist():
        members = grouped[ends[b] - sizes[b] : ends[b]]
        centers.append(0.5 * (edges[b] + edges[b + 1]))
        means.append(float(members.mean()))
        if members.size > 1:
            errs.append(float(members.std(ddof=1)) / math.sqrt(members.size))
        else:
            errs.append(0.0)
        counts.append(members.size)
    return SuccessRateBins(
        bin_edges=edges,
        bin_centers=np.array(centers),
        mean_rate=np.array(means),
        stderr=np.array(errs),
        counts=np.array(counts, dtype=int),
        n_users_total=subs.size,
        n_users_kept=s_values.size,
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Goodness of a model trajectory against one observed series."""

    n_overlap: int
    rms_error: float
    promotion_time_model: float | None
    promotion_time_trace: float | None
    promotion_time_difference: float | None  # model minus trace
    final_value_ratio: float | None  # model / trace at last overlapping time


def compare_model_to_trace(
    trace_times: np.ndarray,
    trace_values: np.ndarray,
    trajectory: VoteTrajectory,
    threshold: float,
) -> ComparisonReport:
    """RMS error on the overlapping time range, plus promotion timing.

    The model is linearly interpolated at the trace's time stamps.  The
    trace's promotion time is the first stamp at which its value reaches
    ``threshold`` (None if it never does).
    """
    times = np.asarray(trace_times, dtype=float)
    values = np.asarray(trace_values, dtype=float)
    mask = (times >= trajectory.times[0]) & (times <= trajectory.times[-1])
    if not np.any(mask):
        raise ValueError(
            f"no time overlap: trace spans [{times.min()}, {times.max()}], "
            f"model spans [{trajectory.times[0]}, {trajectory.times[-1]}]"
        )
    tt, tv = times[mask], values[mask]
    model_at = np.interp(tt, trajectory.times, trajectory.votes_m)
    rms = float(np.sqrt(np.mean((model_at - tv) ** 2)))

    promo_trace: float | None = None
    crossed = np.nonzero(values >= threshold)[0]
    if crossed.size:
        promo_trace = float(times[crossed[0]])
    promo_model = trajectory.promotion_time_Th
    difference = None
    if promo_model is not None and promo_trace is not None:
        difference = promo_model - promo_trace
    ratio = float(model_at[-1] / tv[-1]) if tv[-1] != 0 else None
    return ComparisonReport(
        n_overlap=int(tt.size),
        rms_error=rms,
        promotion_time_model=promo_model,
        promotion_time_trace=promo_trace,
        promotion_time_difference=difference,
        final_value_ratio=ratio,
    )
