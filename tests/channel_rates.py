"""The four vote channels at one instant, composed from the channel
functions the way the per-step reference integrators need them."""

import numpy as np

from frontpage.vote_dynamics import (
    _front_rate,
    _queue_rate,
    _submitter_rate,
    _voter_rate,
)


def channel_rates(t, m, story, promotion_time, params):
    """Viewers per minute at time t through (front page, upcoming queue,
    submitter's friends, voters' friends).

    ``promotion_time`` of None means the story is still in the queue.
    Window edges count as inside.
    """
    promoted = promotion_time is not None and t >= promotion_time
    with np.errstate(over="ignore", invalid="ignore"):
        if promoted:
            age = np.array([t - promotion_time])
            front, queue = float(_front_rate(age, params)[0]), 0.0
        else:
            front, queue = 0.0, float(_queue_rate(np.array([t]), params)[0])
    in_window = not promoted and t <= params.friends_window
    voters = _voter_rate(m, params) if in_window else 0.0
    submitter = float(_submitter_rate(np.array([t]), story, params)[0])
    return front, queue, submitter, voters


def total_rate(t, m, story, promotion_time, params):
    """The channels' sum, added from front page to voters' friends."""
    front, queue, submitter, voters = channel_rates(t, m, story, promotion_time, params)
    return front + queue + submitter + voters
