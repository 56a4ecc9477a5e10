"""Monte Carlo kernels for walking stopping rules at scale.

All trials step in lockstep as vectorized numpy arrays.  Increments come
from per-trial splitmix64 streams seeded from (seed, trial index), so a
given (seed, trial) always sees the same walk no matter the order trials
are processed in.  `sim.simulate_reference` replays the executable rule
state machines on the same streams; the tests hold every kernel to it bit
for bit.

Each kernel returns (positions, steps, stopped): final site, number of
steps consumed, and whether the rule actually stopped within `max_steps`
(unstopped trials are truncation, reported, never folded into the law).
"""

from __future__ import annotations

import numpy as np

# read by the benchmark's set-up child (perfbench/run.py)
HAVE_NUMBA = False

GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
STREAM = 0x632BE59BD9B4E019
MASK = (1 << 64) - 1

# the dyadic selector is forced after this many bits; beyond it float64
# cannot represent the interval ends exactly anyway, and the residual
# ambiguity (one part in 2^52) is far below any Monte Carlo resolution
MAX_DYADIC_BITS = 52


def mix64(z: int) -> int:
    """splitmix64 finalizer on plain Python ints."""
    z &= MASK
    z = ((z ^ (z >> 30)) * MIX1) & MASK
    z = ((z ^ (z >> 27)) * MIX2) & MASK
    return z ^ (z >> 31)


def stream_states(seed: int, trials: int) -> np.ndarray:
    """Initial splitmix64 state for each trial, as uint64."""
    out = np.empty(trials, dtype=np.uint64)
    for i in range(trials):
        out[i] = mix64((seed + i * STREAM) & MASK)
    return out


# read by the benchmark's set-up child (perfbench/run.py)
def resolve_backend(requested: str | None = None) -> str:
    return "numpy"


# ---------------------------------------------------------------------------
# lockstep stepping


def _np_next(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    states = states + np.uint64(GAMMA)
    z = states
    z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX2)
    z = z ^ (z >> np.uint64(31))
    return states, z


def _np_run(states, max_steps, is_stopped, consume):
    """Drive all trials in lockstep.

    `is_stopped(pos_view, aux)` marks freshly stopped trials at time zero;
    `consume(idx, up)` advances per-trial rule state for active indices and
    returns a boolean stop mask for them.
    """
    n = states.shape[0]
    pos = np.zeros(n, dtype=np.int64)
    steps = np.zeros(n, dtype=np.int64)
    stopped = is_stopped()
    active = ~stopped
    t = 0
    with np.errstate(over="ignore"):
        while active.any() and t < max_steps:
            t += 1
            idx = np.nonzero(active)[0]
            states[idx], z = _np_next(states[idx])
            up = (z >> np.uint64(63)).astype(bool)
            pos[idx] += np.where(up, 1, -1)
            hit = consume(idx, up, pos, t)
            just = idx[hit]
            steps[just] = t
            stopped[just] = True
            active[just] = False
    steps[active] = max_steps
    return pos, steps, stopped


def _np_two_point(states, us, vs, max_steps):
    def at_zero():
        return (us == 0) | (vs == 0)

    def consume(idx, up, pos, t):
        return (pos[idx] == us[idx]) | (pos[idx] == vs[idx])

    return _np_run(states.copy(), max_steps, at_zero, consume)


def _np_exit_composition(states, chips_a, chips_b, max_steps):
    n = states.shape[0]
    m = chips_a.shape[0]
    idx_state = np.zeros(n, dtype=np.int64)

    def settle(which, pos_vals):
        cur = idx_state[which]
        while True:
            running = cur < m
            a = chips_a[np.minimum(cur, m - 1)]
            b = chips_b[np.minimum(cur, m - 1)]
            inside = (a < pos_vals) & (pos_vals < b)
            bump = running & ~inside
            if not bump.any():
                break
            cur = cur + bump
        idx_state[which] = cur
        return cur >= m

    def at_zero():
        return settle(np.arange(n), np.zeros(n, dtype=np.int64))

    def consume(idx, up, pos, t):
        return settle(idx, pos[idx])

    return _np_run(states.copy(), max_steps, at_zero, consume)


def _np_max_threshold(states, levels, lo, hi, max_steps):
    n = states.shape[0]
    mx = np.zeros(n, dtype=np.int64)

    def thresh(p):
        clipped = np.clip(p, lo, hi)
        th = levels[clipped - lo]
        return np.where(p > hi, p, th)

    def at_zero():
        return mx >= thresh(np.zeros(n, dtype=np.int64))

    def consume(idx, up, pos, t):
        mx[idx] = np.maximum(mx[idx], pos[idx])
        return mx[idx] >= thresh(pos[idx])

    return _np_run(states.copy(), max_steps, at_zero, consume)


def _np_minimal(states, sites, cuts, max_steps):
    n = states.shape[0]
    low = np.zeros(n, dtype=np.float64)
    width = np.ones(n, dtype=np.float64)
    target = np.zeros(n, dtype=np.int64)
    resolved = np.zeros(n, dtype=bool)

    def try_resolve(which, t):
        open_ = which[~resolved[which]]
        if open_.size == 0:
            return
        force = t >= MAX_DYADIC_BITS
        probe = low[open_] + (width[open_] * 0.5 if force else 0.0)
        j = np.searchsorted(cuts, probe, side="right")
        j = np.minimum(j, len(cuts) - 1)
        ok = force | (low[open_] + width[open_] <= cuts[j])
        hit = open_[ok]
        resolved[hit] = True
        target[hit] = sites[j[ok]]

    def at_zero():
        try_resolve(np.arange(n), 0)
        return resolved & (target == 0)

    def consume(idx, up, pos, t):
        live = idx[~resolved[idx]]
        width[live] *= 0.5
        lifted = live[up[~resolved[idx]]]
        low[lifted] += width[lifted]
        try_resolve(idx, t)
        return resolved[idx] & (pos[idx] == target[idx])

    return _np_run(states.copy(), max_steps, at_zero, consume)


# ---------------------------------------------------------------------------
# entry points: seed the streams, then step


def run_two_point(seed, us, vs, max_steps):
    states = stream_states(seed, len(us))
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    return _np_two_point(states, us, vs, max_steps)


def run_exit_composition(seed, trials, chips, max_steps):
    states = stream_states(seed, trials)
    a = np.asarray([c.a for c in chips], dtype=np.int64)
    b = np.asarray([c.b for c in chips], dtype=np.int64)
    return _np_exit_composition(states, a, b, max_steps)


def run_max_threshold(seed, trials, thresholds, max_steps):
    states = stream_states(seed, trials)
    table = dict(thresholds)
    lo, hi = min(table), max(table)
    if not lo <= 0 <= hi:
        raise ValueError("threshold table must cover the origin")
    levels = np.asarray([table[s] for s in range(lo, hi + 1)], dtype=np.int64)
    return _np_max_threshold(states, levels, lo, hi, max_steps)


def run_minimal(seed, trials, sites, cut_points, max_steps):
    states = stream_states(seed, trials)
    sites = np.asarray(sites, dtype=np.int64)
    cuts = np.asarray([float(c) for c in cut_points], dtype=np.float64)
    return _np_minimal(states, sites, cuts, max_steps)
