"""Executable stopping rules for the simple symmetric random walk.

Every rule exposes a small state machine: `new_state()` returns a fresh
state with `stopped`, `position`, and `step(eps)` for eps in {-1, +1}.  A
state never looks ahead: whether it has stopped depends only on the
increments seen so far, which is what makes the rules adapted.

Rule kinds
----------
exitComposition   exit times of a chip sequence run in order (potential picture)
maxThreshold      stop when the running maximum reaches a site-dependent level
pathCountMatrix   stop-count matrices; the path's rank among alive histories
                  in lexicographic order (down < up) picks who stops
randomizedPair    a fixed pair (u, v), stop at first visit: the one-pair
                  law of a randomizedRule
minimalTheorem1   dyadic reading of the up-step indicator stream selects a
                  target atom, then stop at its first visit
randomizedRule    wire form of `classic.RandomizedRule`, a law over
                  randomizedPair draws (no state machine of its own)
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .classic import ChipStep, MinimalCertificate, RandomizedRule
from .matrices import StoppingMatrix
from .rational import Q, format_rational, known_fields, parse_int, parse_rational


class PrefixError(ValueError):
    """A recorded path disagrees with a rule (stops early or runs past it)."""


# ---------------------------------------------------------------------------
# exitComposition


class ExitCompositionState:
    __slots__ = ("steps", "idx", "position", "stopped")

    def __init__(self, steps: tuple[ChipStep, ...]):
        self.steps = steps
        self.idx = 0
        self.position = 0
        self.stopped = False
        self._settle()

    def _settle(self) -> None:
        while self.idx < len(self.steps):
            c = self.steps[self.idx]
            if c.a < self.position < c.b:
                return
            self.idx += 1
        self.stopped = True

    def step(self, eps: int) -> None:
        if self.stopped:
            raise PrefixError("step after the rule has stopped")
        self.position += eps
        self._settle()


@dataclass(frozen=True)
class ExitCompositionRule:
    kind = "exitComposition"
    steps: tuple[ChipStep, ...]

    def new_state(self) -> ExitCompositionState:
        return ExitCompositionState(self.steps)

    def payload(self) -> object:
        return [[c.a, c.b] for c in self.steps]


# ---------------------------------------------------------------------------
# maxThreshold


class MaxThresholdState:
    __slots__ = ("thresholds", "lo", "hi", "position", "running_max", "stopped")

    def __init__(self, thresholds: dict[int, int], lo: int, hi: int):
        self.thresholds = thresholds
        self.lo = lo
        self.hi = hi
        self.position = 0
        self.running_max = 0
        self.stopped = self._check()

    def _threshold(self) -> int:
        if self.position in self.thresholds:
            return self.thresholds[self.position]
        # above the table the level is the site itself (stop instantly);
        # below, the level is frozen at the lowest tabulated site's level
        if self.position > self.hi:
            return self.position
        return self.thresholds[self.lo]

    def _check(self) -> bool:
        return self.running_max >= self._threshold()

    def step(self, eps: int) -> None:
        if self.stopped:
            raise PrefixError("step after the rule has stopped")
        self.position += eps
        self.running_max = max(self.running_max, self.position)
        self.stopped = self._check()


@dataclass(frozen=True)
class MaxThresholdRule:
    kind = "maxThreshold"
    thresholds: tuple[tuple[int, int], ...]  # (site, level), sorted

    def __post_init__(self):
        sites = [s for s, _ in self.thresholds]
        if not (sites and sites[0] <= 0 <= sites[-1]
                and all(b - a == 1 for a, b in zip(sites, sites[1:]))):
            raise ValueError("threshold table needs one level per site of "
                             f"an interval containing 0, got sites {sites}")

    def new_state(self) -> MaxThresholdState:
        table = dict(self.thresholds)
        return MaxThresholdState(table, min(table), max(table))

    def payload(self) -> object:
        return [[s, t] for s, t in self.thresholds]


# ---------------------------------------------------------------------------
# pathCountMatrix: rank-based tie-breaking among alive histories
#
# Among the k[i][n] histories arriving at site i at stage n, the rule stops
# the a[i][n] lexicographically smallest (reading increments with -1 < +1).
# The observed path's rank equals the number of alive histories at its site
# whose increment word is lexicographically smaller.  `smaller` keeps only
# the positive ranks: a smaller-and-alive history at site j came from j-1
# or j+1, and when the observed path steps up, every history that instead
# stepped down from the same site becomes smaller.  The path stops off the
# strip or on a rank below its site's stop count; then only the matrix's
# rows stop histories, so only their sites lose rank, and the ends absorb.


class MatrixRuleState:
    __slots__ = ("matrix", "position", "t", "stopped", "smaller")

    def __init__(self, matrix: StoppingMatrix):
        self.matrix = matrix
        self.position = 0
        self.t = 0
        self.smaller: dict[int, int] = {}
        self._settle(0)

    def _settle(self, stage: int) -> None:
        N, pos, smaller = self.matrix.half_width, self.position, self.smaller
        self.stopped = (abs(pos) > N
                        or smaller.get(pos, 0) < self.matrix.entry(pos, stage))
        smaller.pop(N + 1, None)
        smaller.pop(-N - 1, None)
        for i, row in self.matrix.rows.items():
            if i in smaller:
                left = smaller.pop(i) - row.entry(stage)
                if left > 0:
                    smaller[i] = left

    def step(self, eps: int) -> None:
        if self.stopped:
            raise PrefixError("step after the rule has stopped")
        self.t += 1
        moved: dict[int, int] = {}
        for j, s in self.smaller.items():
            moved[j - 1] = moved.get(j - 1, 0) + s
            moved[j + 1] = moved.get(j + 1, 0) + s
        if eps == 1:  # the down-step sibling of the observed history
            moved[self.position - 1] = moved.get(self.position - 1, 0) + 1
        self.position += eps
        self.smaller = moved
        self._settle((self.t + 1) // 2)


@dataclass(frozen=True)
class PathCountMatrixRule:
    kind = "pathCountMatrix"
    matrix: StoppingMatrix

    def new_state(self) -> MatrixRuleState:
        return MatrixRuleState(self.matrix)

    def payload(self) -> object:
        return self.matrix.to_json_dict()


# ---------------------------------------------------------------------------
# randomizedPair


class TwoPointState:
    __slots__ = ("u", "v", "position", "stopped")

    def __init__(self, u: int, v: int):
        self.u = u
        self.v = v
        self.position = 0
        self.stopped = self.position in (u, v)

    def step(self, eps: int) -> None:
        if self.stopped:
            raise PrefixError("step after the rule has stopped")
        self.position += eps
        self.stopped = self.position in (self.u, self.v)


@dataclass(frozen=True)
class RandomizedPairRule:
    """One resolved draw (u, v) from a randomized two-point rule: the
    `RandomizedRule` whose `joint_law` is this one pair."""

    kind = "randomizedPair"
    u: int
    v: int

    def __post_init__(self):
        if not self.u < 0 <= self.v:
            raise ValueError("need u < 0 <= v")

    @property
    def joint_law(self) -> tuple[tuple[int, int, Q], ...]:
        return ((self.u, self.v, Q(1)),)

    def new_state(self) -> TwoPointState:
        return TwoPointState(self.u, self.v)

    def payload(self) -> object:
        return {"u": self.u, "v": self.v}


# ---------------------------------------------------------------------------
# minimalTheorem1
#
# Reading 1{step n is up} as binary digits of a uniform variable, the rule
# tracks the dyadic interval of possible values.  Once that interval lies
# inside one cell of the cut-point partition, the target atom is fixed and
# the rule stops at its first visit (including the moment of resolution).


class MinimalState:
    __slots__ = ("cert", "low", "width", "target", "position", "stopped")

    def __init__(self, cert: MinimalCertificate):
        self.cert = cert
        self.low = Q(0)
        self.width = Q(1)
        self.target: int | None = None
        self.position = 0
        self.stopped = False
        self._resolve()

    def _resolve(self) -> None:
        cuts = self.cert.cut_points
        prev = Q(0)
        for site, cut in zip(self.cert.sites, cuts):
            if prev <= self.low and self.low + self.width <= cut:
                self.target = site
                self._check()
                return
            prev = cut

    def _check(self) -> None:
        if self.target is not None and self.position == self.target:
            self.stopped = True

    def step(self, eps: int) -> None:
        if self.stopped:
            raise PrefixError("step after the rule has stopped")
        self.position += eps
        if self.target is None:
            # once the target is fixed the interval is never read again;
            # halving it anyway would grow its denominator every step
            self.width /= 2
            if eps == 1:
                self.low += self.width
            self._resolve()
        self._check()


@dataclass(frozen=True)
class MinimalRule:
    kind = "minimalTheorem1"
    certificate: MinimalCertificate

    def new_state(self) -> MinimalState:
        return MinimalState(self.certificate)

    def payload(self) -> object:
        return {
            "sites": list(self.certificate.sites),
            "weights": [format_rational(w) for w in self.certificate.weights],
        }


# ---------------------------------------------------------------------------
# (de)serialization


def rule_to_json(rule) -> str:
    if isinstance(rule, RandomizedRule):  # a law over pair rules
        kind = "randomizedRule"
        payload = [{"u": u, "v": v, "w": format_rational(w)}
                   for u, v, w in rule.joint_law]
    else:
        kind, payload = rule.kind, rule.payload()
    return json.dumps({"kind": kind, "payload": payload}, sort_keys=True)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = {}
    for key, val in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} appears twice in one object")
        obj[key] = val
    return obj


def parse_json(text: str):
    """`json.loads` for rule, matrix and measure documents: a key repeated
    in one object is a ValueError, where `json.loads` alone keeps the last
    value and a document would mean what its key order says."""
    return json.loads(text, object_pairs_hook=_unique_keys)


def rule_from_json(text: str):
    data = parse_json(text)
    if not isinstance(data, dict):
        raise ValueError('rule JSON must be an object with "kind" and "payload"')
    known_fields(data, ("kind", "payload"), "rule JSON")
    kind = data.get("kind")
    try:
        return _rule_from_payload(kind, data.get("payload"))
    except KeyError as exc:  # an object without a field its kind needs
        raise ValueError(f"malformed {kind} payload: missing field {exc}") from exc
    except TypeError as exc:  # a payload of the wrong shape
        raise ValueError(f"malformed {kind} payload: {exc}") from exc


def _int_pair(entry, kind: str, what: str) -> tuple[int, int]:
    if not isinstance(entry, list) or len(entry) != 2:
        raise ValueError(f"malformed {kind} payload: {what} must be a pair, "
                         f"got {entry!r}")
    return parse_int(entry[0]), parse_int(entry[1])


def _rule_from_payload(kind, payload):
    what = f"{kind} payload"
    if kind == "randomizedRule":
        entries = [known_fields(e, ("u", "v", "w"), what) for e in payload]
        return RandomizedRule(tuple((parse_int(e["u"]), parse_int(e["v"]),
                                     parse_rational(e["w"]))
                                    for e in entries))
    if kind == "exitComposition":
        return ExitCompositionRule(tuple(
            ChipStep(*_int_pair(e, kind, "chip [a, b]")) for e in payload))
    if kind == "maxThreshold":
        return MaxThresholdRule(tuple(sorted(
            _int_pair(e, kind, "threshold [site, level]") for e in payload)))
    if kind == "pathCountMatrix":
        return PathCountMatrixRule(StoppingMatrix.from_json_dict(payload))
    if kind == "randomizedPair":
        known_fields(payload, ("u", "v"), what)
        return RandomizedPairRule(parse_int(payload["u"]),
                                  parse_int(payload["v"]))
    if kind == "minimalTheorem1":
        known_fields(payload, ("sites", "weights"), what)
        return MinimalRule(MinimalCertificate(
            tuple(parse_int(s) for s in payload["sites"]),
            tuple(parse_rational(w) for w in payload["weights"])))
    raise ValueError(f"unknown rule kind {kind!r}")
