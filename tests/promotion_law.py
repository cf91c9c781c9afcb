"""The exact law of a Monte Carlo run's promotion time: the forward
equation on the vote count before promotion."""

import math

import numpy as np

from frontpage.vote_dynamics import _voter_rate, step_count

from channel_rates import channel_rates

# Jumps summed past the bar for each tail; the law checks that the rest
# of each tail is negligible.
_TAIL_TERMS = 16


def promotion_law(story, params, policy, horizon):
    """P(T_h <= (k + 1) * dt) after each step k of a Poisson-mode run.

    Before promotion a run's count m lies in 1 .. B - 1, B being
    ``ceil(policy.threshold(story))``.  Step k adds Poisson(r * dt * rate)
    votes, ``rate`` being the queue and submitter's friends at the step
    midpoint, plus ``_voter_rate(m)`` while that midpoint is inside the
    friends window.  ``p[m]`` is carried forward step by step, and the mass
    that crosses the bar at each step is added as it crosses: the sum over
    m of p[m] * P(Poisson(mean_m) >= B - m), each tail summed from its
    smallest terms, so a tiny early CDF does not cancel.
    """
    dt, r = params.dt, story.interestingness_r
    bar = math.ceil(policy.threshold(story))
    counts = np.arange(1, bar)
    voters = np.array([_voter_rate(float(m), params) for m in counts.tolist()])
    jumps = np.arange(1, bar + _TAIL_TERMS)
    # row i, column j: the jump from count i + 1 to count j + 1
    states = np.arange(bar - 1)
    jump = states[None, :] - states[:, None]
    upward = jump >= 0
    jump = np.maximum(jump, 0)
    needed = bar - counts  # the jump from each count to the bar

    p = np.zeros(bar - 1)
    p[0] = 1.0
    absorbed = 0.0
    law = np.empty(step_count(horizon, dt))
    for k in range(law.size):
        t = (k + 0.5) * dt
        _, queue, submitter, _ = channel_rates(t, 1.0, story, None, params)
        rate = queue + submitter + (voters if t <= params.friends_window else 0.0)
        mean = np.broadcast_to(r * dt * rate, counts.shape)
        ratios = np.cumprod(mean[:, None] / jumps, axis=1)
        pmf = np.exp(-mean)[:, None] * np.hstack([np.ones((counts.size, 1)), ratios])
        # past twice the mean each term is at most half the one before, so
        # what a tail leaves out is below its last term
        assert 2.0 * mean.max() <= jumps[-1] and pmf[:, -1].max() < 1e-20, k
        tails = np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1]
        absorbed += p @ tails[states, needed]
        p = p @ np.where(upward, pmf[states[:, None], jump], 0.0)
        law[k] = absorbed
    return law
