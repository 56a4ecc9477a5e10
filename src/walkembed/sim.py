"""Simulation harness and exact stopped-law evaluation.

`simulate` runs a stopping rule for many independent walks through the
vectorized kernels and reports the empirical law, with truncation (trials
that never stopped within the step budget) reported separately and never
folded into the law.  `simulate_reference` replays the rule's executable
state machine on the same per-trial streams; it is the reference the
kernels are tested against.  `exact_law` computes the stopped law of a rule
exactly, with a certified residual: the rational mass not yet stopped at the
stage cap.  For exit-composition, max-threshold and minimal rules it runs a
dynamic program over integer path counts per merged rule state; the rule's
state machine is the transition function, stepped once per distinct state
and direction and memoized, and the only division happens at the end.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .classic import RandomizedRule
from .matrices import count_scan, exact_law_matrix
from .measures import IntegerMeasure
from .rational import Q, format_rational
from .rules import (
    ExitCompositionRule,
    MaxThresholdRule,
    MinimalRule,
    PathCountMatrixRule,
    RandomizedPairRule,
)


DEFAULT_MAX_STAGE = 64  # stage cap of `exact_law` and of the matrix count scan
MAX_STAGE = 2048  # hard cap of `exact_law`; 4^2048 has 1234 decimal digits
# work cap of the keyed DP (exit-composition, max-threshold and minimal
# rules): total key-steps, one merged state advanced by one step, checked
# at stage boundaries.  It bounds the DP of a minimal rule, whose keys
# carry the unbounded walk position, to about a second of pure Python on a
# 2-CPU Xeon; no exact-law of the certify benchmark takes 17 000 key-steps
MAX_KEY_STEPS = 1_000_000


@dataclass(frozen=True)
class SimReport:
    trials: int
    seed: int
    backend: str
    counts: dict[int, int]
    truncated: int
    max_steps: int
    mean_steps: float

    def frequency(self, site: int) -> Fraction:
        return Q(self.counts.get(site, 0), self.trials)

    def tv_distance(self, mu: IntegerMeasure) -> Fraction:
        """Total variation against a target, truncated mass counted as
        lying entirely outside the support (worst case)."""
        sites = set(mu.support) | set(self.counts)
        gap = sum(abs(self.frequency(s) - mu.weight(s)) for s in sites)
        return (gap + Q(self.truncated, self.trials)) / 2

    def to_json(self) -> str:
        return json.dumps(
            {
                "trials": self.trials,
                "seed": self.seed,
                "backend": self.backend,
                "counts": {str(k): v for k, v in sorted(self.counts.items())},
                "truncated": self.truncated,
                "maxSteps": self.max_steps,
                "meanSteps": self.mean_steps,
            },
            sort_keys=True,
        )


def _report(pos, steps, stopped, trials, seed, backend, max_steps) -> SimReport:
    counts: dict[int, int] = {}
    stopped_pos = pos[stopped]
    for site, cnt in zip(*np.unique(stopped_pos, return_counts=True)):
        counts[int(site)] = int(cnt)
    return SimReport(
        trials=trials,
        seed=seed,
        backend=backend,
        counts=counts,
        truncated=int(trials - stopped.sum()),
        max_steps=max_steps,
        mean_steps=float(steps[stopped].mean()) if stopped.any() else 0.0,
    )


def sample_pairs(rule: RandomizedRule, trials: int, seed: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Draw (u, v) pairs from the joint law of a randomized rule.

    Sampling is done once, one draw from a splitmix64 stream per trial
    (seeded apart from the walk streams), so `simulate` and
    `simulate_reference` resolve the same pair for every trial.
    """
    entries = list(rule.joint_law)
    cum = np.cumsum([float(w) for _, _, w in entries])
    states = kernels.stream_states(seed ^ 0x5DEECE66D, trials)
    _, z = kernels._np_next(states)
    x = z.astype(np.float64) / 2.0**64
    j = np.minimum(np.searchsorted(cum, x, side="right"), len(entries) - 1)
    us = np.asarray([e[0] for e in entries], dtype=np.int64)[j]
    vs = np.asarray([e[1] for e in entries], dtype=np.int64)[j]
    return us, vs


def simulate(rule, trials: int, seed: int,
             max_steps: int = 1_000_000) -> SimReport:
    """Monte Carlo run of a stopping rule; see the rule kinds in `rules`."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be at least 0, got {max_steps}")
    if isinstance(rule, RandomizedRule):
        us, vs = sample_pairs(rule, trials, seed)
        out = kernels.run_two_point(seed, us, vs, max_steps)
    elif isinstance(rule, RandomizedPairRule):
        us = np.full(trials, rule.u, dtype=np.int64)
        vs = np.full(trials, rule.v, dtype=np.int64)
        out = kernels.run_two_point(seed, us, vs, max_steps)
    elif isinstance(rule, ExitCompositionRule):
        out = kernels.run_exit_composition(seed, trials, rule.steps, max_steps)
    elif isinstance(rule, MaxThresholdRule):
        out = kernels.run_max_threshold(seed, trials, dict(rule.thresholds),
                                        max_steps)
    elif isinstance(rule, MinimalRule):
        cert = rule.certificate
        out = kernels.run_minimal(seed, trials, cert.sites, cert.cut_points,
                                  max_steps)
    elif isinstance(rule, PathCountMatrixRule):
        # the rank profile assumes a <= k: reject what `exact_law` rejects.
        # It does not vectorize, so the state machine runs (matrix rules
        # live on a bounded strip, so stopping is fast)
        count_scan(rule.matrix, DEFAULT_MAX_STAGE)
        return simulate_reference(rule, trials, seed, max_steps)
    else:
        raise TypeError(f"cannot simulate {type(rule).__name__}")
    pos, steps, stopped = out
    return _report(pos, steps, stopped, trials, seed, "numpy", max_steps)


def simulate_reference(rule, trials: int, seed: int,
                       max_steps: int = 1_000_000) -> SimReport:
    """Step `rule.new_state()` once per trial on the splitmix64 stream that
    `simulate` gives that trial.

    A randomized rule first draws its pairs with `sample_pairs`, then each
    trial steps the pair rule it drew.  Every kernel of `simulate` must
    reproduce this replay exactly.
    """
    if isinstance(rule, RandomizedRule):
        us, vs = sample_pairs(rule, trials, seed)
        per_trial = [RandomizedPairRule(int(u), int(v))
                     for u, v in zip(us, vs)]
    else:
        per_trial = [rule] * trials
    pos = np.zeros(trials, dtype=np.int64)
    steps = np.zeros(trials, dtype=np.int64)
    stopped = np.zeros(trials, dtype=bool)
    for i, trial_rule in enumerate(per_trial):
        s = kernels.mix64((seed + i * kernels.STREAM) & kernels.MASK)
        state = trial_rule.new_state()
        t = 0
        while not state.stopped and t < max_steps:
            s = (s + kernels.GAMMA) & kernels.MASK
            eps = 1 if (kernels.mix64(s) >> 63) else -1
            state.step(eps)
            t += 1
        pos[i] = state.position
        steps[i] = t
        stopped[i] = state.stopped
    return _report(pos, steps, stopped, trials, seed, "python", max_steps)


# ---------------------------------------------------------------------------
# exact laws


@dataclass(frozen=True)
class ExactLaw:
    law: dict[int, Fraction]
    residual: Fraction
    stages: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "law": {str(k): format_rational(v)
                        for k, v in sorted(self.law.items())},
                "residual": format_rational(self.residual),
                "stages": self.stages,
            },
            sort_keys=True,
        )


def exact_law(rule, max_stage: int = DEFAULT_MAX_STAGE) -> ExactLaw:
    """Exact stopped law of a rule up to min(`max_stage`, `MAX_STAGE`)
    stages (2 steps each); the keyed DP also stops at the first stage
    boundary past `MAX_KEY_STEPS` key-steps.

    The returned residual is the exact probability mass not yet stopped,
    and `stages` the stages that ran; rules that terminate within the
    horizon report residual zero.
    """
    if max_stage < 0:
        raise ValueError(f"max_stage must be at least 0, got {max_stage}")
    max_stage = min(max_stage, MAX_STAGE)
    max_steps = 2 * max_stage
    if isinstance(rule, RandomizedRule):
        from .classic import hall_stopped_law

        return ExactLaw(dict(hall_stopped_law(rule).atoms), Q(0), 0)
    if isinstance(rule, RandomizedPairRule):
        u, v = rule.u, rule.v
        if v == 0:
            return ExactLaw({0: Q(1)}, Q(0), 0)
        return ExactLaw({v: Q(-u, v - u), u: Q(v, v - u)}, Q(0), 0)
    if isinstance(rule, PathCountMatrixRule):
        return ExactLaw(*exact_law_matrix(rule.matrix, max_stage))
    if isinstance(rule, ExitCompositionRule):
        return _exact_law_generic(rule, max_steps, _chip_state_key)
    if isinstance(rule, MaxThresholdRule):
        return _exact_law_generic(rule, max_steps, _max_state_key)
    if isinstance(rule, MinimalRule):
        return _exact_law_generic(rule, max_steps, _minimal_state_key)
    raise TypeError(f"cannot evaluate {type(rule).__name__}")


def _chip_state_key(state):
    return (state.idx, state.position)


def _max_state_key(state):
    return (state.position, state.running_max)


def _minimal_state_key(state):
    # before resolution the dyadic interval is the state; afterwards only
    # the target matters, which is what makes the DP collapse
    if state.target is None:
        return (state.low, state.width, state.position)
    return (state.target, state.position)


def _exact_law_generic(rule, max_steps: int, key) -> ExactLaw:
    """State-merged DP over integer path counts, with memoized transitions.

    `counts[k]` is the number of increment words of the current length t
    that reach merged state `k`; each carries mass 2^-t.  Stopped mass is
    kept as integer numerators over 2^t, doubled once per step, so the loop
    only adds and shifts integers and divides once at the end.

    States with equal keys have equal futures, so the rule's own state
    machine is stepped once per distinct key and direction: a copy of one
    representative state takes the step, and the outcome (stopped at a
    site, or the child's key) is reused on every later visit of that key.

    The loop ends at `max_steps`, when every path has stopped, or at the
    first stage boundary after `MAX_KEY_STEPS` key-steps (the sum over
    steps of the number of keys advanced); the residual covers the rest.
    """
    init = rule.new_state()
    if init.stopped:
        return ExactLaw({init.position: Q(1)}, Q(0), 0)
    k0 = key(init)
    counts = {k0: 1}
    unstepped = {k0: init}  # one representative state per key not yet stepped
    moves: dict = {}  # key -> [(stopped, site or child key)] for eps -1, +1
    stops: dict[int, int] = {}  # site -> stopped mass times 2^steps_done
    steps_done = key_steps = 0
    while counts and steps_done < max_steps:
        if steps_done % 2 == 0 and key_steps >= MAX_KEY_STEPS:
            break
        steps_done += 1
        key_steps += len(counts)
        stops = {site: num << 1 for site, num in stops.items()}
        nxt: dict = {}
        for k, c in counts.items():
            out = moves.get(k)
            if out is None:
                rep = unstepped.pop(k)
                out = moves[k] = []
                for eps in (-1, 1):
                    # a shallow copy is safe: `step` rebinds a state's
                    # fields and only reads the tables it shares
                    child = copy.copy(rep)
                    child.step(eps)
                    if child.stopped:
                        out.append((True, child.position))
                    else:
                        ck = key(child)
                        if ck not in moves:
                            unstepped.setdefault(ck, child)
                        out.append((False, ck))
            for stopped, dest in out:
                if stopped:
                    stops[dest] = stops.get(dest, 0) + c
                else:
                    nxt[dest] = nxt.get(dest, 0) + c
        counts = nxt
    law = {site: Q(num, 1 << steps_done) for site, num in stops.items()}
    residual = Q(sum(counts.values()), 1 << steps_done)
    return ExactLaw(law, residual, (steps_done + 1) // 2)
