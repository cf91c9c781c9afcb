"""Least-squares fits and the friend-voting significance test.

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

from .core import FriendVoteObservation

__all__ = [
    "LinearFit",
    "LogFit",
    "SuccessRateBins",
    "fit_linear",
    "fit_log",
    "binomial_pmf",
    "chance_probability",
    "success_rate_series",
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
    arr = np.asarray(points, dtype=float)
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
    if not (math.isfinite(log_base) and log_base > 0.0 and log_base != 1.0):
        raise ValueError(f"log_base must be positive and != 1, got {log_base}")
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
    if not (math.isfinite(p) and 0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1], got {p}")
    if p == 0.0:
        return 1.0 if k == 0 else 0.0
    if p == 1.0:
        return 1.0 if k == n else 0.0
    log_comb = (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )
    return math.exp(log_comb + k * math.log(p) + (n - k) * math.log1p(-p))


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
    # Each term is binomial_pmf's expression in its operation order, so the
    # terms are bit-equal to it.
    lgamma_n, log_p, log_q = math.lgamma(n + 1), math.log(p), math.log1p(-p)

    def term(j: int) -> float:
        return math.exp(
            lgamma_n - math.lgamma(j + 1) - math.lgamma(n - j + 1)
            + j * log_p + (n - j) * log_q
        )

    # The pmf is log-concave: it rises up to its mode and falls after it.
    # So the terms that underflow to exactly 0.0 form one run below the
    # mode and one above it, and adding zeros does not change fsum.  Below
    # the mode, bisect for the first nonzero term; past it, stop at the
    # first zero.
    mode = min(n, math.floor((n + 1) * p))
    start = k
    if k < mode and term(k) == 0.0:
        zero, nonzero = k, mode
        while nonzero - zero > 1:
            mid = (zero + nonzero) // 2
            if term(mid) == 0.0:
                zero = mid
            else:
                nonzero = mid
        start = nonzero
    terms = []
    for j in range(start, n + 1):
        t = term(j)
        if t == 0.0 and j >= mode:
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


def success_rate_series(
    users,
    bins: int = 10,
    min_submissions: int = 50,
) -> SuccessRateBins:
    """Bin per-user success rate (promoted / submitted) by network size.

    ``users`` is an iterable of (submissions, front_page_F, network_S)
    triples.  Users below ``min_submissions`` are dropped first — a
    handful of submissions gives a meaningless rate — then the survivors
    are grouped into equal-width bins over the observed S range and each
    bin reports the mean rate with its standard error.
    """
    if not isinstance(bins, int) or isinstance(bins, bool) or bins < 1:
        raise ValueError(f"bins must be a positive integer, got {bins}")
    if min_submissions < 1:
        raise ValueError(f"min_submissions must be >= 1, got {min_submissions}")

    rows = []
    for i, (submissions, front_page, network) in enumerate(users):
        sub, f, s = float(submissions), float(front_page), float(network)
        if not (math.isfinite(sub) and sub > 0):
            raise ValueError(f"user {i}: submissions must be > 0, got {submissions}")
        if not (math.isfinite(f) and 0 <= f <= sub):
            raise ValueError(
                f"user {i}: front_page_F must be in [0, submissions], "
                f"got {front_page}"
            )
        if not (math.isfinite(s) and s >= 0):
            raise ValueError(f"user {i}: network_S must be >= 0, got {network}")
        rows.append((sub, f, s))
    kept = [(sub, f, s) for sub, f, s in rows if sub >= min_submissions]
    if not kept:
        raise ValueError(
            f"no users with at least {min_submissions} submissions "
            f"({len(rows)} supplied)"
        )

    s_values = np.array([s for _, _, s in kept])
    rates = np.array([f / sub for sub, f, _ in kept])
    s_min, s_max = float(s_values.min()), float(s_values.max())
    if s_min == s_max:
        edges = np.array([s_min - 0.5, s_max + 0.5])
    else:
        edges = np.linspace(s_min, s_max, bins + 1)
    idx = np.clip(np.searchsorted(edges, s_values, side="right") - 1, 0, len(edges) - 2)

    centers, means, errs, counts = [], [], [], []
    for b in range(len(edges) - 1):
        members = rates[idx == b]
        if members.size == 0:
            continue
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
        n_users_total=len(rows),
        n_users_kept=len(kept),
    )
