"""Simulation harness and exact stopped-law evaluation.

`simulate` runs a stopping rule for many independent walks through the
vectorized kernels and reports the empirical law, with truncation (trials
that never stopped within the step budget) reported separately and never
folded into the law.  `simulate_reference` replays the rule's executable
state machine on the same per-trial streams; it is the reference the
kernels are tested against, and it runs the matrix rules no kernel takes
(a tail that stops paths, or a head past `kernels.MAX_MATRIX_HEAD`),
within `MAX_SITE_STEPS`.  A pair rule is the one-pair law of a
randomized rule, so both share one branch: `sample_pairs` draws every
trial's pair.  `exact_law` computes the stopped law of a rule
exactly, with residual 0.  Pair, exit-composition and max-threshold rules
have closed forms from gambler's ruin, and a minimal rule stops at its
certificate's law.  A matrix rule's law is closed form too once its
counts settle (`matrices.exact_law_matrix`), and `simulate` runs that same
check before it trusts the counts.

numpy is imported only where arrays are made: in `sample_pairs`,
`simulate_reference` and the report reduction, and in the kernels that
`simulate` runs.  `exact_law` never loads it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .classic import RandomizedRule, exit_law
from .matrices import exact_law_matrix
from .rational import BudgetExceeded, Q, format_rational
from .rules import (
    ExitCompositionRule,
    MaxThresholdRule,
    MinimalRule,
    PathCountMatrixRule,
    RandomizedPairRule,
)


# trial cap of `simulate`: a run peaks at about 100 bytes per trial (99 in
# the minimal kernel's selection, 52-85 in the other kernels, measured with
# tracemalloc at 100k trials), so 10^7 trials stay near 1 GB
MAX_TRIALS = 10**7
# work cap of the matrix rules `simulate` leaves to the state machine: a
# `MatrixRuleState` step is charged the 2N + 3 sites of its strip, the most
# it can touch.  At 100 000 trials the paper's doubling 3/4 and periodic 1/6
# certificates are charged 3.6 and 1.7 * 10^6 site-steps; the cap ends a
# doubling row on an N = 30 strip in about 2 s
MAX_SITE_STEPS = 10**7


@dataclass(frozen=True)
class SimReport:
    trials: int
    seed: int
    backend: str
    counts: dict[int, int]
    truncated: int
    max_steps: int
    mean_steps: float

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
    import numpy as np

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


def sample_pairs(rule, trials: int, seed: int) -> np.ndarray:
    """Index into `rule.joint_law` of the pair each trial draws: one draw
    per trial from a splitmix64 stream seeded apart from the walk streams.
    `simulate` and `simulate_reference` both draw here.  A one-pair law,
    such as a `RandomizedPairRule`'s, gets all zeros and seeds no stream.
    """
    import numpy as np

    law = rule.joint_law
    if len(law) == 1:
        return np.zeros(trials, dtype=np.intp)
    cum = np.cumsum([float(w) for _, _, w in law])
    z = kernels._np_next(kernels.stream_states(seed ^ 0x5DEECE66D, trials))
    x = z.astype(np.float64) / 2.0**64
    return np.minimum(np.searchsorted(cum, x, side="right"), len(cum) - 1)


def simulate(rule, trials: int, seed: int,
             max_steps: int = 1_000_000) -> SimReport:
    """Monte Carlo run of a stopping rule; see the rule kinds in `rules`."""
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be in [1, {MAX_TRIALS}], got {trials}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be at least 0, got {max_steps}")
    if isinstance(rule, (RandomizedRule, RandomizedPairRule)):
        ends = [(u, v) for u, v, _ in rule.joint_law]
        draws = sample_pairs(rule, trials, seed)
        out = kernels.run_two_point(seed, ends, draws, max_steps)
    elif isinstance(rule, ExitCompositionRule):
        out = kernels.run_exit_composition(seed, trials, rule.steps, max_steps)
    elif isinstance(rule, MaxThresholdRule):
        out = kernels.run_max_threshold(seed, trials, rule.thresholds, max_steps)
    elif isinstance(rule, MinimalRule):
        cert = rule.certificate
        out = kernels.run_minimal(seed, trials, cert.sites, cert.cut_points,
                                  max_steps)
    elif isinstance(rule, PathCountMatrixRule):
        # the rank profile assumes a <= k: reject what `exact_law` rejects
        matrix = rule.matrix
        exact_law_matrix(matrix)
        if matrix.terminates and matrix.head_length <= kernels.MAX_MATRIX_HEAD:
            out = kernels.run_matrix(seed, trials, matrix, max_steps)
        else:
            # a tail that stops paths reads ranks at every step, and a
            # longer head past int64: the state machine runs, within
            # MAX_SITE_STEPS
            return simulate_reference(rule, trials, seed, max_steps,
                                      MAX_SITE_STEPS)
    else:
        raise TypeError(f"cannot simulate {type(rule).__name__}")
    pos, steps, stopped = out
    return _report(pos, steps, stopped, trials, seed, "numpy", max_steps)


def simulate_reference(rule, trials: int, seed: int,
                       max_steps: int = 1_000_000,
                       max_site_steps: int | None = None) -> SimReport:
    """Step `rule.new_state()` once per trial on the splitmix64 stream that
    `simulate` gives that trial.

    A pair rule or pair law first draws its pairs with `sample_pairs`,
    then each trial steps the pair rule it drew, with the exact ends of
    the joint law.  Every kernel of `simulate` must reproduce this replay
    exactly.  With `max_site_steps`, it raises `BudgetExceeded`
    rather than let all trials together spend more site-steps: a step
    counts the most sites it can update, the 2N + 3 of a matrix rule's
    strip and one for other rules.
    """
    import numpy as np

    if isinstance(rule, (RandomizedRule, RandomizedPairRule)):
        pairs = [RandomizedPairRule(u, v) for u, v, _ in rule.joint_law]
        per_trial = [pairs[j] for j in sample_pairs(rule, trials, seed)]
    else:
        per_trial = [rule] * trials
    pos = np.zeros(trials, dtype=np.int64)
    steps = np.zeros(trials, dtype=np.int64)
    stopped = np.zeros(trials, dtype=bool)
    sites = (2 * rule.matrix.half_width + 3
             if isinstance(rule, PathCountMatrixRule) else 1)
    left = math.inf if max_site_steps is None else max_site_steps // sites
    for i, trial_rule in enumerate(per_trial):
        s = kernels.mix64((seed + i * kernels.STREAM) & kernels.MASK)
        state = trial_rule.new_state()
        t = 0
        cap = min(max_steps, left)
        while not state.stopped and t < cap:
            s = (s + kernels.GAMMA) & kernels.MASK
            eps = 1 if (kernels.mix64(s) >> 63) else -1
            state.step(eps)
            t += 1
        if not state.stopped and t < max_steps:
            raise BudgetExceeded(
                "MAX_SITE_STEPS", f"past the work budget of {max_site_steps} "
                f"site-steps ({sites} sites a step)")
        left -= t
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


def exact_law(rule) -> ExactLaw:
    """Exact stopped law of a rule, with residual zero and `stages` 0, save
    a matrix rule's, the stages of its settle scan (`exact_law_matrix`).

    A minimal rule stops at its certificate's law, a site listed twice
    getting the sum of its weights:
    - the increments are iid fair bits, so U is uniform; the words that
      never resolve have U on a cut point, which has probability 0, so atom
      j is selected with probability c_j - c_{j-1} = w_j;
    - the simple symmetric walk is recurrent, so from wherever selection
      leaves it, it visits site_j almost surely.
    """
    if isinstance(rule, (RandomizedRule, RandomizedPairRule)):
        # imported per call, so it finds a wrapper set on `classic`
        from .classic import hall_stopped_law

        return ExactLaw(dict(hall_stopped_law(rule).atoms), Q(0), 0)
    if isinstance(rule, PathCountMatrixRule):
        return ExactLaw(*exact_law_matrix(rule.matrix))
    if isinstance(rule, ExitCompositionRule):
        return ExactLaw(exit_law(rule.steps), Q(0), 0)
    if isinstance(rule, MaxThresholdRule):
        return ExactLaw(_max_threshold_law(rule.thresholds), Q(0), 0)
    if isinstance(rule, MinimalRule):
        law: dict[int, Fraction] = {}
        for site, w in zip(rule.certificate.sites, rule.certificate.weights):
            law[site] = law.get(site, Q(0)) + w
        return ExactLaw(law, Q(0), 0)
    raise TypeError(f"cannot evaluate {type(rule).__name__}")


def _max_threshold_law(thresholds) -> dict[int, Fraction]:
    """Exact law of a max-threshold rule: one pass over the running
    maximum m.  A walk that has just reached m stops there if
    level(m) <= m.  Else it falls back to the highest site g < m with
    level(g) <= m, and hits it before m + 1 with probability
    1 / (m + 1 - g); with no such g it goes on surely.  Site x joins the
    candidates for g once m >= max(level(x), x + 1), so g never
    decreases; a site below the table shares the lowest site's level and
    never beats it.  Past the table level(m) = m, so the pass ends by
    m = hi + 1."""
    level = dict(thresholds)
    joins: dict[int, int] = {}  # m -> the highest site that joins at m
    for x, lv in thresholds:  # sorted by site: a later x is higher
        joins[max(lv, x + 1, 0)] = x
    law: dict[int, Fraction] = {}
    left, g, m = Q(1), None, 0
    while level.get(m, m) > m:
        if m in joins and (g is None or joins[m] > g):
            g = joins[m]
        if g is not None:
            law[g] = law.get(g, Q(0)) + left / (m + 1 - g)
            left *= Q(m - g, m + 1 - g)
        m += 1
    law[m] = law.get(m, Q(0)) + left
    return law
