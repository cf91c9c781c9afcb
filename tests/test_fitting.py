import functools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frontpage import FriendVoteObservation
from frontpage.fitting import (
    binomial_pmf,
    chance_probability,
    fit_linear,
    fit_log,
    success_rate_series,
)


def _pairs(x, y):
    return np.column_stack([np.asarray(x, float), np.asarray(y, float)])


class TestFitLinear:
    def test_exact_recovery_is_exact(self):
        # every intermediate is representable in binary, so RSS is literally 0
        x = np.array([0.0, 1.0, 2.0, 3.0])
        fit = fit_linear(_pairs(x, 0.5 * x + 2.0))
        assert fit.slope == 0.5
        assert fit.intercept == 2.0
        assert fit.rss == 0.0
        assert fit.n_points == 4

    def test_page_drift_constants(self):
        x = np.arange(0.0, 100.0, 7.0)
        fit = fit_linear(_pairs(x, 0.060 * x + 1.0))
        assert fit.slope == pytest.approx(0.060, rel=1e-12)
        assert fit.intercept == pytest.approx(1.0, rel=1e-12)
        assert fit.rss < 1e-18

    def test_through_origin(self):
        f_values = np.array([0.0, 10.0, 25.0, 40.0, 80.0])
        fit = fit_linear(_pairs(f_values, 0.03 * f_values), through_origin=True)
        assert fit.slope == pytest.approx(0.03, rel=1e-12)
        assert fit.intercept == 0.0

    def test_noisy_recovery_within_ci(self, rng):
        x = np.linspace(0.0, 200.0, 80)
        noise = rng.normal(0.0, 0.5, x.size)
        fit = fit_linear(_pairs(x, 0.060 * x + 1.0 + noise))
        # standard error of an OLS slope: sigma / sqrt(sum dx^2)
        se = 0.5 / math.sqrt(float(np.sum((x - x.mean()) ** 2)))
        assert abs(fit.slope - 0.060) < 3 * se

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            fit_linear(_pairs([1.0], [2.0]))
        with pytest.raises(ValueError):
            fit_linear(_pairs([3.0, 3.0, 3.0], [1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            fit_linear(_pairs([0.0, 0.0], [1.0, 2.0]), through_origin=True)

    @pytest.mark.parametrize(
        "fit",
        [fit_linear, functools.partial(fit_linear, through_origin=True), fit_log],
        ids=["plain", "through-origin", "log"],
    )
    def test_fit_does_not_depend_on_memory_order(self, rng, fit):
        # numpy's dot sums a contiguous and a strided column in different
        # orders, so the fit reads its points in C order whatever their layout
        for _ in range(100):
            n = int(rng.integers(2, 400))
            points = 1.0 + np.abs(rng.normal(0.0, 50.0, (n, 2)))
            assert fit(np.ascontiguousarray(points)) == fit(np.asfortranarray(points))


class TestFitLog:
    def test_recovers_voter_network_law(self):
        m = np.array([1.0, 3.0, 10.0, 55.0, 200.0, 1000.0])
        fit = fit_log(_pairs(m, 112.0 * np.log(m) + 47.0))
        assert fit.alpha == pytest.approx(112.0, rel=1e-12)
        assert fit.beta == pytest.approx(47.0, rel=1e-10)
        assert fit.rss < 1e-18
        assert fit.log_base == math.e

    def test_change_of_base_rescales_alpha_only(self):
        m = np.array([1.0, 5.0, 20.0, 90.0, 400.0])
        y = 112.0 * np.log(m) + 47.0
        natural = fit_log(_pairs(m, y))
        base10 = fit_log(_pairs(m, y), log_base=10.0)
        assert base10.alpha == pytest.approx(natural.alpha * math.log(10.0), rel=1e-10)
        assert base10.beta == pytest.approx(natural.beta, rel=1e-10)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            fit_log(_pairs([0.5, 2.0], [1.0, 2.0]))  # abscissa below 1
        with pytest.raises(ValueError):
            fit_log(_pairs([2.0], [1.0]))  # underdetermined
        with pytest.raises(ValueError):
            fit_log(_pairs([1.0, 2.0], [1.0, 2.0]), log_base=1.0)


def _enumerated_pmf(k: int, n: int, p: float) -> float:
    """Sum the probability of every n-bit outcome with exactly k successes."""
    hits = sum(1 for mask in range(1 << n) if bin(mask).count("1") == k)
    return hits * p**k * (1.0 - p) ** (n - k)


class TestBinomialPmf:
    def test_certain_outcomes(self):
        assert binomial_pmf(0, 5, 0.0) == 1.0
        assert binomial_pmf(3, 5, 0.0) == 0.0
        assert binomial_pmf(5, 5, 1.0) == 1.0
        assert binomial_pmf(4, 5, 1.0) == 0.0

    def test_half_probability_enumeration(self):
        assert binomial_pmf(2, 4, 0.5) == pytest.approx(0.375, rel=1e-12)

    @pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.77])
    def test_matches_enumeration_up_to_twelve_trials(self, p):
        for n in range(13):
            for k in range(n + 1):
                expected = _enumerated_pmf(k, n, p)
                got = binomial_pmf(k, n, p)
                assert got == pytest.approx(expected, rel=1e-10, abs=1e-300)

    def test_large_n_against_exact_rationals(self):
        # the regime of the friend-vote test: 215 draws from a pool of 15742
        n, pool = 215, 15742
        for group in (50, 500, 2000, 7000, 15742):
            p_exact = Fraction(group, pool)
            for k in (0, 1, 2, 5, 20, 60):
                exact = math.comb(n, k) * p_exact**k * (1 - p_exact) ** (n - k)
                got = binomial_pmf(k, n, group / pool)
                assert got == pytest.approx(float(exact), rel=1e-10, abs=1e-300)

    def test_normalization(self):
        for n in (1, 7, 23, 50):
            for p in (0.005, 0.3, 0.5, 0.9):
                total = math.fsum(binomial_pmf(k, n, p) for k in range(n + 1))
                assert abs(total - 1.0) < 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            binomial_pmf(5, 4, 0.5)
        with pytest.raises(ValueError):
            binomial_pmf(-1, 4, 0.5)
        with pytest.raises(ValueError):
            binomial_pmf(1, 4, 1.5)
        with pytest.raises(ValueError):
            binomial_pmf(1.0, 4, 0.5)

    @given(
        n=st.integers(min_value=0, max_value=30),
        j=st.integers(min_value=0, max_value=30),
        p=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_symmetry_property(self, n, j, p):
        """Counting successes or failures must give the same mass."""
        # the identity needs the complement to round-trip in floats
        assume(1.0 - (1.0 - p) == p)
        k = min(j, n)
        forward = binomial_pmf(k, n, p)
        assert 0.0 <= forward <= 1.0 + 1e-12
        backward = binomial_pmf(n - k, n, 1.0 - p)
        assert forward == pytest.approx(backward, rel=1e-9, abs=1e-300)


class TestChanceProbability:
    def test_tail_at_zero_is_certain(self):
        obs = FriendVoteObservation(pool_N=100, sample_n=10, group_K=30, overlap_k=0)
        assert chance_probability(obs, mode="tail") == 1.0

    def test_everyone_is_a_friend(self):
        full = FriendVoteObservation(pool_N=50, sample_n=7, group_K=50, overlap_k=7)
        assert chance_probability(full, mode="exact") == 1.0
        partial = FriendVoteObservation(pool_N=50, sample_n=7, group_K=50, overlap_k=0)
        # impossible: with K = N every sampled voter is a friend ... but the
        # observation itself is constructible, so the mass is just 0
        assert chance_probability(partial, mode="exact") == 0.0

    def test_tail_dominates_exact(self):
        obs = FriendVoteObservation(pool_N=15742, sample_n=215, group_K=120, overlap_k=4)
        exact = chance_probability(obs, mode="exact")
        tail = chance_probability(obs, mode="tail")
        assert tail >= exact > 0.0

    def test_matches_brute_force_summation(self):
        obs = FriendVoteObservation(pool_N=15742, sample_n=215, group_K=300, overlap_k=6)
        p = 300 / 15742
        brute = math.fsum(binomial_pmf(j, 215, p) for j in range(6, 216))
        assert chance_probability(obs, mode="tail") == pytest.approx(
            brute, rel=1e-12
        )

    # pool_N for the exact-tail grid: group_K = p * pool_N reaches p = 1 - 1e-9.
    _POOL = 2_000_000_000

    def test_tail_equals_the_full_sum_bit_for_bit(self, rng):
        """The tail skips only terms that are 0.0, so it is the full fsum."""
        ps = [1e-5, 1e-3, 0.03, 0.5, 0.97, 1 - 1e-6, 1 - 1e-9]
        ps += list(10 ** rng.uniform(-5, -0.01, 3))
        checked = 0
        for n in (1, 7, 60, 500, 4_000, 20_000):
            for p_target in ps:
                group = round(p_target * self._POOL)
                p = group / self._POOL
                terms = [binomial_pmf(j, n, p) for j in range(n + 1)]
                mode = math.floor((n + 1) * p)
                spread = math.ceil(math.sqrt(n * p * (1 - p)))
                ks = {1, mode // 2, mode - 1, mode, mode + 1, mode + 40 * spread, n}
                ks |= set(int(k) for k in rng.integers(1, n + 1, 3))
                for k in sorted(k for k in ks if 1 <= k <= min(n, group)):
                    obs = FriendVoteObservation(self._POOL, n, group, k)
                    want = min(1.0, math.fsum(terms[k:]))
                    assert chance_probability(obs, mode="tail") == want, (n, p, k)
                    checked += 1
        assert checked > 250

    @pytest.mark.parametrize(
        "n,group,k",
        [
            (20_000, 1_000_000_000, 1),      # p = 0.5: terms below 7,297 underflow
            (20_000, 1_000_000_000, 7_296),  # the last term that underflows
            (20_000, 2_000_000, 373),        # p = 1e-3: every term from 373 on does
        ],
    )
    def test_tail_where_the_first_term_underflows(self, n, group, k):
        p = group / self._POOL
        assert binomial_pmf(k, n, p) == 0.0
        obs = FriendVoteObservation(self._POOL, n, group, k)
        want = min(1.0, math.fsum(binomial_pmf(j, n, p) for j in range(k, n + 1)))
        assert chance_probability(obs, mode="tail") == want

    def test_tail_of_ten_million_trials_is_fast(self):
        obs = FriendVoteObservation(
            pool_N=100_000_000, sample_n=10_000_000, group_K=90_000_000, overlap_k=1
        )
        start = time.perf_counter()
        tail = chance_probability(obs, mode="tail")
        elapsed = time.perf_counter() - start
        assert tail == pytest.approx(1.0, rel=1e-9)
        # The first ~8.96e6 terms underflow: walking them, let alone summing
        # all 10^7 terms, takes several seconds; the bulk is ~7e4 terms.
        assert elapsed < 2.0

    def test_unknown_mode(self):
        obs = FriendVoteObservation(pool_N=100, sample_n=10, group_K=30, overlap_k=2)
        with pytest.raises(ValueError):
            chance_probability(obs, mode="median")


class TestSuccessRateSeries:
    def test_filter_drops_casual_submitters(self):
        users = [(49, 10, 100), (50, 10, 100), (200, 50, 300)]
        series = success_rate_series(*zip(*users))
        assert series.n_users_total == 3
        assert series.n_users_kept == 2

    def test_perfect_promoter(self):
        series = success_rate_series(*zip((80, 80, 10)))
        assert series.mean_rate.tolist() == [1.0]
        assert series.counts.tolist() == [1]

    def test_all_filtered_out_is_an_error(self):
        with pytest.raises(ValueError, match="no users"):
            success_rate_series(*zip((10, 1, 5), (49, 0, 7)))

    def test_bins_are_capped(self):
        users = [(100, i, 10 * i) for i in range(0, 50, 5)]
        bound = r"^bins must be an integer in \[1, 100000\], got 100001$"
        with pytest.raises(ValueError, match=bound):
            success_rate_series(*zip(*users), bins=100_001)

    def test_rejects_impossible_counts(self):
        with pytest.raises(ValueError, match="front_page_F"):
            success_rate_series(*zip((50, 60, 10)))

    def test_planted_slope_recovery(self, rng):
        users = []
        for _ in range(200):
            network = int(rng.integers(0, 401))
            submissions = int(rng.integers(50, 151))
            rate = min(1.0, max(0.0, 0.002 * network + rng.normal(0.0, 0.005)))
            promoted = int(rng.binomial(submissions, rate))
            users.append((submissions, promoted, network))
        series = success_rate_series(*zip(*users))
        fit = fit_linear(series.points)
        assert fit.slope == pytest.approx(0.002, rel=0.2)

    def test_bins_cover_the_range(self):
        users = [(100, i, 10 * i) for i in range(0, 50, 5)]
        series = success_rate_series(*zip(*users), bins=5, min_submissions=50)
        assert len(series.bin_edges) == 6
        assert series.counts.sum() == len(users)

    @settings(max_examples=150, deadline=None)
    @given(
        users=st.lists(
            st.tuples(
                st.integers(1, 200),  # submissions; those below 50 are dropped
                st.floats(0.0, 1.0),  # promoted share
                st.integers(0, 40),   # network size: few values, so bins repeat
            ),
            min_size=1,
            max_size=80,
        ),
        bins=st.integers(1, 60),
        same_network=st.booleans(),
    )
    def test_bins_equal_a_masked_scan(self, users, bins, same_network):
        # empty bins, one-member bins and a single network size
        users = [
            (sub, math.floor(share * sub), 7 if same_network else s)
            for sub, share, s in users
        ]
        assume(any(sub >= 50 for sub, _, _ in users))
        _assert_bins_equal_a_masked_scan(users, bins)

    @pytest.mark.parametrize("bins", [1, 7, 300])
    def test_crowded_bins_equal_a_masked_scan(self, rng, bins):
        # bins of many members, whose sums depend on the members' order
        sub = rng.integers(50, 300, 3000)
        promoted = (rng.random(3000) * sub).astype(int)
        network = rng.integers(0, 1000, 3000)
        users = list(zip(sub.tolist(), promoted.tolist(), network.tolist()))
        _assert_bins_equal_a_masked_scan(users, bins)


def _assert_bins_equal_a_masked_scan(users, bins):
    """``success_rate_series`` against the scan its grouping replaced: one
    mask over the kept users per bin, by ``==``."""
    series = success_rate_series(*zip(*users), bins=bins)
    kept = [(float(sub), float(f), float(s)) for sub, f, s in users if sub >= 50]
    rates = np.array([f / sub for sub, f, _ in kept])
    edges = series.bin_edges
    idx = np.searchsorted(edges, np.array([s for _, _, s in kept]), side="right")
    idx = np.clip(idx - 1, 0, len(edges) - 2)
    centers, means, errs, counts = [], [], [], []
    for b in range(len(edges) - 1):
        members = rates[idx == b]
        if members.size == 0:
            continue
        centers.append(0.5 * (edges[b] + edges[b + 1]))
        means.append(float(members.mean()))
        size = members.size
        errs.append(float(members.std(ddof=1)) / math.sqrt(size) if size > 1 else 0.0)
        counts.append(size)
    assert series.bin_centers.tolist() == centers
    assert series.mean_rate.tolist() == means
    assert series.stderr.tolist() == errs
    assert series.counts.tolist() == counts
