"""Command-line interface.

Subcommands:

  classify     membership of a weight, a triple slice, or a full measure
  embed        construct an embedding certificate (ay | chw | ui-matrix |
               minimal | hall)
  verify       check a stopping matrix against a target measure
  exact-law    exact stopped law of a rule file
  simulate     Monte Carlo run of a rule file
  set          approximate the embeddable-weight set by its contraction system
  potential    tabulate the potential and barycenter of a measure

Measures are JSON objects {"atoms": {"-2": "11/32", ...}}; rationals are
"p/q" strings; rules are JSON {"kind": ..., "payload": ...} as produced by
the embed subcommand.

Exit status: 0 on success, 2 on invalid input, 3 when the answer is an
honest "unknown"/"undecided" rather than a verdict.  A command that a
stated budget stops exits 3 with {"budget": NAME, "reason": TEXT}, where
NAME is the module constant that ran out (such as "MAX_HULL_SITES", the
sites a table may span).
"""

from __future__ import annotations

import argparse
import json
import sys

from .classic import (
    ChwStatus,
    azema_yor_check,
    chw_search,
    hall_rule,
    minimal_certificate,
)
from .matrices import (
    CountViolation,
    StoppingMatrix,
    search_matrix,
    verify_matrix,
)
from .measures import IntegerMeasure, barycenter, potential
from .rational import (
    BudgetExceeded,
    format_ratio,
    format_rational,
    parse_rational,
)
from .rules import (
    ExitCompositionRule,
    MaxThresholdRule,
    MinimalRule,
    PathCountMatrixRule,
    parse_json,
    rule_from_json,
    rule_to_json,
)
from .sim import exact_law, simulate
from .uiset import (
    classify_triple,
    classify_weight,
    ifs_approximate,
    ifs_membership,
    weight_set_system,
)

OK, INVALID, UNDECIDED = 0, 2, 3


def _load_measure(text: str) -> IntegerMeasure:
    return IntegerMeasure.from_json_dict(parse_json(text))


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as f:
        return f.read()


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def cmd_classify(args) -> int:
    if args.weight is not None:
        v = classify_weight(parse_rational(args.weight))
        _emit({"member": v.member, "halfWeight": format_rational(v.half_weight)})
        return OK
    if args.triple is not None:
        parts = [parse_rational(p) for p in args.triple.split(",")]
        if len(parts) != 3:
            print("triple must be three comma-separated rationals", file=sys.stderr)
            return INVALID
        v = classify_triple(*parts)
        _emit({"member": v.member, "reason": v.reason})
        return OK
    mu = _load_measure(_read(args.measure))
    # every law on Z has a minimal embedding; the UI class, and so AY and
    # CW inside it, keeps the mean at 0
    if not mu.is_centered():
        _emit({"azemaYor": False, "chaconWalsh": "nonMember",
               "uiMatrix": "nonMember", "minimal": True})
        return OK
    # the classes nest, AY in CW in UI, so a class whose smaller class
    # certified the target is not searched; an exit-composition rule stops
    # a bounded walk, so it is UI
    ay = azema_yor_check(mu).member
    cw = "member" if ay else chw_search(mu, max_depth=args.depth).status.value
    ui = "member" if cw == "member" else search_matrix(mu, args.depth).status
    _emit({"azemaYor": ay, "chaconWalsh": cw, "uiMatrix": ui, "minimal": True})
    return OK


def cmd_embed(args) -> int:
    mu = _load_measure(_read(args.measure))
    if args.method == "ay":
        ay = azema_yor_check(mu)
        if not ay.member:
            _emit({"member": False, "witnessSite": ay.witness_site,
                   "witnessValue": format_rational(ay.witness_value)})
            return UNDECIDED
        rule = MaxThresholdRule(tuple(sorted(ay.thresholds.items())))
    elif args.method == "chw":
        res = chw_search(mu, max_depth=args.depth)
        if res.status is ChwStatus.NON_MEMBER_UP_TO_DEPTH:
            _emit({"member": False, "depthSearched": res.depth_searched,
                   "statesSearched": res.states_searched})
            return UNDECIDED
        if res.status is ChwStatus.UNKNOWN:
            _emit({"member": "unknown", "budget": "maxStates",
                   "statesSearched": res.states_searched})
            return UNDECIDED
        rule = ExitCompositionRule(res.steps)
    elif args.method == "ui-matrix":
        res = search_matrix(mu, max_stage=args.depth)
        if res.status != "member":
            _emit({"member": "unknown"})
            # stdout keeps the bare verdict; what ended the search goes to
            # stderr
            print(json.dumps({"budget": res.budget,
                              "nodesSearched": res.nodes}), file=sys.stderr)
            return UNDECIDED
        rule = PathCountMatrixRule(res.matrix)
    elif args.method == "minimal":
        rule = MinimalRule(minimal_certificate(mu))
    elif args.method == "hall":
        rule = hall_rule(mu)
    else:  # pragma: no cover - argparse restricts choices
        return INVALID
    print(rule_to_json(rule))
    return OK


def cmd_verify(args) -> int:
    mu = _load_measure(_read(args.measure))
    matrix = StoppingMatrix.from_json_dict(parse_json(_read(args.matrix)))
    res = verify_matrix(matrix, mu)
    _emit({"status": res.status, "site": res.site, "stage": res.stage,
           "detail": res.detail})
    return OK if res.valid else (UNDECIDED if res.status == "inconclusive"
                                 else INVALID)


def cmd_exact_law(args) -> int:
    if args.max_stage < 0:
        raise ValueError(f"max_stage must be at least 0, got {args.max_stage}")
    rule = rule_from_json(_read(args.rule))
    el = exact_law(rule)
    print(el.to_json())
    return OK


def cmd_simulate(args) -> int:
    rule = rule_from_json(_read(args.rule))
    rep = simulate(rule, trials=args.trials, seed=args.seed,
                   max_steps=args.max_steps)
    print(rep.to_json())
    return OK


def cmd_set(args) -> int:
    if args.point is not None:
        verdict = ifs_membership(parse_rational(args.point), depth=args.depth)
        _emit({"point": args.point, "verdict": verdict})
        return UNDECIDED if verdict == "undecidedAtDepth" else OK
    cover = ifs_approximate(weight_set_system(), depth=args.depth)
    den = cover.den
    _emit({
        "depth": args.depth,
        "measure": format_rational(cover.measure()),
        "intervals": [[format_ratio(a, den), format_ratio(b, den)]
                      for a, b in cover.pairs],
    })
    return OK


def cmd_potential(args) -> int:
    mu = _load_measure(_read(args.measure))
    u = potential(mu)
    out = {
        "lo": u.lo,
        "hi": u.hi,
        "mean": format_rational(u.mean),
        "values": {str(k): format_rational(u.value_at(k))
                   for k in range(u.lo, u.hi + 1)},
    }
    if mu.is_centered():
        psi = barycenter(mu)
        out["barycenter"] = {str(k): format_rational(psi.value_at(k))
                             for k in range(psi.lo, psi.hi + 1)}
    _emit(out)
    return OK


def _depth(text: str) -> int:
    """argparse type of every --depth option: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="walkembed", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="class membership of weights/measures")
    g = c.add_mutually_exclusive_group(required=True)
    g.add_argument("--weight", help="rational p: is p delta_0 + ... embeddable")
    g.add_argument("--triple", help="p-,p0,p+ comma-separated rationals")
    g.add_argument("--measure", help="path to a measure JSON file (- for stdin)")
    c.add_argument("--depth", type=_depth, default=8)
    c.set_defaults(fn=cmd_classify)

    e = sub.add_parser("embed", help="construct an embedding certificate")
    e.add_argument("method", choices=["ay", "chw", "ui-matrix", "minimal", "hall"])
    e.add_argument("measure", help="path to a measure JSON file (- for stdin)")
    e.add_argument("--depth", type=_depth, default=8)
    e.set_defaults(fn=cmd_embed)

    v = sub.add_parser("verify", help="verify a stopping matrix against a measure")
    v.add_argument("matrix", help="path to a matrix JSON file (- for stdin)")
    v.add_argument("measure", help="path to a measure JSON file")
    v.set_defaults(fn=cmd_verify)

    x = sub.add_parser("exact-law", help="exact stopped law of a rule")
    x.add_argument("rule", help="path to a rule JSON file (- for stdin)")
    x.add_argument("--max-stage", type=int, default=0,
                   help="changes no output: every rule's law is exact")
    x.set_defaults(fn=cmd_exact_law)

    s = sub.add_parser("simulate", help="Monte Carlo run of a rule")
    s.add_argument("rule", help="path to a rule JSON file (- for stdin)")
    s.add_argument("--trials", type=int, default=100_000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--max-steps", type=int, default=1_000_000)
    s.set_defaults(fn=cmd_simulate)

    w = sub.add_parser("set", help="the embeddable-weight fractal set")
    w.add_argument("--depth", type=_depth, default=12)
    w.add_argument("--point", help="test one rational for membership")
    w.set_defaults(fn=cmd_set)

    q = sub.add_parser("potential", help="potential/barycenter tables")
    q.add_argument("measure", help="path to a measure JSON file (- for stdin)")
    q.set_defaults(fn=cmd_potential)

    return p


#: options whose value is one rational, which may be negative
_RATIONAL_OPTIONS = ("--point", "--weight")


def _join_negative_rationals(argv: list[str]) -> list[str]:
    """Write "--point -1/2" as "--point=-1/2".  argparse lets a value start
    with "-" only when it is a plain negative decimal, and reads "-1/2" as
    an option; the joined form reaches the command unchanged."""
    out: list[str] = []
    for arg in argv:
        if (out and out[-1] in _RATIONAL_OPTIONS and arg[:1] == "-"
                and (arg[1:2].isdigit() or arg[1:2] == ".")):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    # rationals of any size parse and print: lift Python's int-str limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    if _parser is None:  # built once per process, reused by every call
        _parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = _parser.parse_args(_join_negative_rationals(argv))
    try:
        return args.fn(args)
    except BudgetExceeded as exc:  # a stated budget ran out, not invalid
        _emit({"budget": exc.budget, "reason": str(exc)})
        return UNDECIDED
    except (CountViolation, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INVALID


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
