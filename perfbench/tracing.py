"""Span tracing of the walkembed layers, from outside the package.

`Tracer.install` replaces each public function at the binding its caller
uses (the CLI imports most functions by name; `sim` reaches the kernels
through the module; `chw_search` and `azema_yor_check` reach `potential` and
`barycenter` through `classic`'s own names) with a wrapper that records a
span: name, start, end, parent span and op id.  Spans stay in memory until
the run ends.  Rule-state `step` calls and `CountEngine.advance` stages are
counted, not spanned, because they run tens of thousands of times per op.
Private helpers (`_np_run`, `_report`, `_simulate_matrix`, ...) are not
wrapped: their time is self time of the public function calling them.

A span's self time is its duration minus that of its child spans, so the
self times of all spans of an op sum to the duration of its root span,
`cli.main`.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

from walkembed import (
    classic,
    cli,
    kernels,
    matrices,
    measures,
    rules,
    sim,
    uiset,
)

LAYERS = ("cli", "sim", "kernels", "rules", "classic", "matrices", "uiset",
          "rational", "measures")
RUNS = ("kernels.run_two_point", "kernels.run_exit_composition",
        "kernels.run_max_threshold", "kernels.run_minimal")


def _after_chw(counts, args, result):
    counts["classic.chw_depth"] += result.depth_searched


def _after_search(counts, args, result):
    counts["matrices.search_unknown"] += result.status == "unknown"


def _after_exact_law(counts, args, result):
    counts["sim.exact_law_stages"] += result.stages


def _after_seed(counts, args, result):
    counts["kernels.seed_trials"] += len(result)


def _after_base4(counts, args, result):
    counts["rational.to_base4_calls"] += 1


def _after_run(counts, args, result):
    _, steps, stopped = result
    iters = int(steps.max()) if len(steps) else 0
    counts["kernels.walk_steps"] += int(steps.sum())
    counts["kernels.lockstep_iters"] += iters
    counts["kernels.lane_slots"] += len(steps) * iters
    counts["kernels.truncated"] += int((~stopped).sum())


# (owner, attribute, span name, hook run on the result)
SPANNED = [
    (cli, "main", "cli.main", None),
    (cli, "azema_yor_check", "classic.azema_yor_check", None),
    (cli, "chw_search", "classic.chw_search", _after_chw),
    (cli, "hall_rule", "classic.hall_rule", None),
    (cli, "minimal_certificate", "classic.minimal_certificate", None),
    (cli, "search_matrix", "matrices.search_matrix", _after_search),
    (cli, "verify_matrix", "matrices.verify_matrix", None),
    (cli, "potential", "measures.potential", None),
    (cli, "barycenter", "measures.barycenter", None),
    (cli, "format_rational", "rational.format_rational", None),
    (cli, "parse_rational", "rational.parse_rational", None),
    (cli, "rule_from_json", "rules.rule_from_json", None),
    (cli, "rule_to_json", "rules.rule_to_json", None),
    (cli, "exact_law", "sim.exact_law", _after_exact_law),
    (cli, "simulate", "sim.simulate", None),
    (cli, "classify_weight", "uiset.classify_weight", None),
    (cli, "classify_triple", "uiset.classify_triple", None),
    (cli, "ifs_approximate", "uiset.ifs_approximate", None),
    (cli, "ifs_membership", "uiset.ifs_membership", None),
    (cli, "weight_set_system", "uiset.weight_set_system", None),
    (measures.IntegerMeasure, "from_json_dict", "measures.from_json_dict", None),
    (matrices.StoppingMatrix, "from_json_dict", "matrices.from_json_dict", None),
    (measures, "parse_rational", "rational.parse_rational", None),
    (classic, "potential", "measures.potential", None),
    (classic, "barycenter", "measures.barycenter", None),
    (classic, "hall_stopped_law", "classic.hall_stopped_law", None),
    (sim, "sample_pairs", "sim.sample_pairs", None),
    (sim, "format_rational", "rational.format_rational", None),
    (kernels, "run_two_point", "kernels.run_two_point", _after_run),
    (kernels, "run_exit_composition", "kernels.run_exit_composition", _after_run),
    (kernels, "run_max_threshold", "kernels.run_max_threshold", _after_run),
    (kernels, "run_minimal", "kernels.run_minimal", _after_run),
    (kernels, "stream_states", "kernels.stream_states", _after_seed),
    (rules, "parse_rational", "rational.parse_rational", None),
    (rules, "format_rational", "rational.format_rational", None),
    (uiset, "to_base4", "rational.to_base4", _after_base4),
    (uiset, "digit_half_weight", "rational.digit_half_weight", None),
]

# (class, method, counter)
COUNTED = [
    (rules.ExitCompositionState, "step", "rules.state_steps"),
    (rules.MaxThresholdState, "step", "rules.state_steps"),
    (rules.MatrixRuleState, "step", "rules.state_steps"),
    (rules.TwoPointState, "step", "rules.state_steps"),
    (rules.MinimalState, "step", "rules.state_steps"),
    (matrices.CountEngine, "advance", "matrices.count_stages"),
]


def _per_pass(value, passes: int, unit: str):
    # every pass replays the same ops, so whole counts divide exactly
    if unit == "count" and value % passes == 0:
        return value // passes
    return value / passes


class Tracer:
    """Spans and counters of the ops run while installed."""

    def __init__(self):
        #: [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _spanned(self, name, fn, after):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for owner, attr, name, after in SPANNED:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._spanned(name, raw.__func__, after))
            else:
                new = self._spanned(name, raw, after)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        for owner, attr, key in COUNTED:
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, self._counted(key, raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def inclusive(self, names) -> float:
        """Time inside spans named in `names`, nested ones counted once."""
        names = set(names)
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if name in names and not self._under(parent, names):
                total += end - start
        return total

    def _under(self, idx: int, names: set) -> bool:
        while idx >= 0:
            if self.spans[idx][0] in names:
                return True
            idx = self.spans[idx][3]
        return False

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per pass of the op list: name -> (value, unit)."""
        own = self.self_times()
        by_name: dict[str, float] = defaultdict(float)
        for (name, *_), s in zip(self.spans, own):
            by_name[name] += s
        layer_self = defaultdict(float)
        for name, s in by_name.items():
            layer_self[name.split(".")[0]] += s
        c = self.counts
        step_s = sum(by_name[n] for n in RUNS)
        classic_other = [name for _, _, name, _ in SPANNED
                         if name.startswith("classic.") and name != "classic.chw_search"]
        out = {
            "kernels.step_s": (step_s, "s"),
            "kernels.seed_s": (self.inclusive(["kernels.stream_states"]), "s"),
            "kernels.seed_trials": (c["kernels.seed_trials"], "count"),
            "kernels.walk_steps": (c["kernels.walk_steps"], "count"),
            "kernels.lockstep_iters": (c["kernels.lockstep_iters"], "count"),
            "kernels.truncated": (c["kernels.truncated"], "count"),
            "sim.sample_pairs_s": (by_name["sim.sample_pairs"], "s"),
            "sim.simulate_self_s": (by_name["sim.simulate"], "s"),
            "sim.exact_law_s": (self.inclusive(["sim.exact_law"]), "s"),
            "sim.exact_law_stages": (c["sim.exact_law_stages"], "count"),
            "rules.state_steps": (c["rules.state_steps"], "count"),
            "rules.parse_s": (self.inclusive(["rules.rule_from_json"]), "s"),
            "classic.chw_search_s": (self.inclusive(["classic.chw_search"]), "s"),
            "classic.chw_depth": (c["classic.chw_depth"], "count"),
            "classic.other_s": (self.inclusive(classic_other), "s"),
            "measures.potential_s": (self.inclusive(["measures.potential"]), "s"),
            "measures.parse_s": (self.inclusive(["measures.from_json_dict"]), "s"),
            "matrices.search_s": (self.inclusive(["matrices.search_matrix"]), "s"),
            "matrices.search_unknown": (c["matrices.search_unknown"], "count"),
            "matrices.verify_s": (self.inclusive(["matrices.verify_matrix"]), "s"),
            "matrices.count_stages": (c["matrices.count_stages"], "count"),
            "uiset.classify_s": (self.inclusive(["uiset.classify_weight",
                                                 "uiset.classify_triple"]), "s"),
            "uiset.ifs_s": (self.inclusive(["uiset.ifs_approximate",
                                            "uiset.ifs_membership",
                                            "uiset.weight_set_system"]), "s"),
            "rational.to_base4_s": (self.inclusive(["rational.to_base4"]), "s"),
            "rational.to_base4_calls": (c["rational.to_base4_calls"], "count"),
            "trace.op_s": (self.inclusive(["cli.main"]), "s"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self[layer], "s")
        out = {k: (_per_pass(v, passes, unit), unit) for k, (v, unit) in out.items()}
        walk, slots = c["kernels.walk_steps"], c["kernels.lane_slots"]
        out["kernels.live_lane_frac"] = (walk / slots if slots else 0.0, "ratio")
        out["kernels.steps_per_s"] = (walk / step_s if step_s else 0.0, "1/s")
        return out
