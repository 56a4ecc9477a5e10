"""CLI subcommands, exit codes, and JSON shapes."""

import contextlib
import hashlib
import io
import json
import math
import random
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walkembed
from walkembed import classic, cli, matrices, sim
from walkembed.cli import main

from test_classic import centered_measures

MU_516_JSON = '{"atoms": {"0": "5/16", "-2": "11/32", "2": "11/32"}}'
MU_29_JSON = '{"atoms": {"-3": "2/9", "0": "4/9", "2": "1/3"}}'
MU_UNIFORM3_JSON = '{"atoms": {"-2": "1/3", "0": "1/3", "2": "1/3"}}'
MU_BERNOULLI_JSON = '{"atoms": {"-1": "1/2", "1": "1/2"}}'


@pytest.fixture
def mu_516(tmp_path):
    p = tmp_path / "mu.json"
    p.write_text(MU_516_JSON)
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, (json.loads(out) if out else None)


@contextlib.contextmanager
def int_digit_limit(limit):
    """Set the interpreter's limit on int <-> str digits (0: none) for the
    block; Python before 3.10.7 has no limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


class TestClassify:
    def test_weight_member(self, capsys):
        code, out = run(capsys, ["classify", "--weight", "1/6"])
        assert code == 0
        assert out == {"member": True, "halfWeight": "1"}

    def test_weight_non_member(self, capsys):
        code, out = run(capsys, ["classify", "--weight", "11/20"])
        assert code == 0
        assert out == {"member": False, "halfWeight": "3/2"}

    def test_triple(self, capsys):
        code, out = run(capsys, ["classify", "--triple", "1/4,1/2,1/4"])
        assert code == 0
        assert out["member"] is False

    # the matrix search stops at MAX_SEARCH_STAGES: no RecursionError at
    # depth 1200, and "unknown" is a verdict word, exit 0
    def test_measure_past_stage_cap(self, capsys, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"atoms": {"-2": "2/5", "0": "1/5", "2": "2/5"}}')
        code, out = run(capsys, ["classify", "--measure", str(p),
                                 "--depth", "1200"])
        assert code == 0
        assert out == {"azemaYor": False, "chaconWalsh": "nonMemberUpToDepth",
                       "uiMatrix": "unknown", "minimal": True}

    def test_triple_malformed(self, capsys):
        assert main(["classify", "--triple", "1/4,1/2"]) == 2
        assert capsys.readouterr().err == (
            "error: triple must be three comma-separated rationals\n")

    def test_measure_chain(self, capsys, mu_516):
        code, out = run(capsys, ["classify", "--measure", mu_516])
        assert code == 0
        assert out["azemaYor"] is False
        assert out["chaconWalsh"] == "nonMemberUpToDepth"
        assert out["uiMatrix"] == "member"
        assert out["minimal"] is True

    # every law on Z has a minimal embedding, and no UI rule moves the
    # mean: a target off 0 is in no class but the minimal one
    def test_measure_not_centred(self, capsys, tmp_path):
        p = tmp_path / "mu.json"
        p.write_text(json.dumps({"atoms": {"1": "1/2", "2": "1/2"}}))
        code, out = run(capsys, ["classify", "--measure", str(p)])
        assert (code, out) == (0, {"azemaYor": False, "chaconWalsh": "nonMember",
                                   "uiMatrix": "nonMember", "minimal": True})

    # every class from the first that holds the target up prints "member",
    # and no larger class is searched (the searches alone leave "uiMatrix"
    # unknown on all five)
    @pytest.mark.parametrize("atoms, depth, first", [
        ({"-3": "1/4", "1": "3/4"}, "8", "azemaYor"),
        ({"-1": "4/5", "4": "1/5"}, "8", "azemaYor"),
        ({"0": "1/6", "-2": "5/12", "2": "5/12"}, "5", "chaconWalsh"),
        ({"-3": "2/9", "0": "4/9", "2": "1/3"}, "5", "chaconWalsh"),
        ({"0": "3/4", "-4": "1/8", "4": "1/8"}, "5", "chaconWalsh"),
    ], ids=["ay-1/4", "ay-4/5", "1/6", "2/9", "3/4"])
    def test_members_up_the_chain(self, capsys, tmp_path, monkeypatch, atoms,
                                  depth, first):
        def refuse(*args, **kwargs):
            raise AssertionError("searched a class already certified")

        monkeypatch.setattr(cli, "search_matrix", refuse)
        if first == "azemaYor":
            monkeypatch.setattr(cli, "chw_search", refuse)
        p = tmp_path / "mu.json"
        p.write_text(json.dumps({"atoms": atoms}))
        code, out = run(capsys, ["classify", "--measure", str(p),
                                 "--depth", depth])
        assert code == 0
        assert out == {"azemaYor": first == "azemaYor", "chaconWalsh": "member",
                       "uiMatrix": "member", "minimal": True}

    # no verdict reads lower than its class's own search at the same depth,
    # nor lower than a class inside it
    @settings(max_examples=60)
    @given(mu=centered_measures(), depth=st.integers(0, 4))
    def test_chain_never_below_own_search(self, mu, depth):
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "mu.json"
            p.write_text(json.dumps(mu.to_json_dict()))
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(["classify", "--measure", str(p),
                             "--depth", str(depth)])
        got = json.loads(buf.getvalue())
        assert code == 0
        assert got["azemaYor"] is classic.azema_yor_check(mu).member
        if classic.chw_search(mu, depth).status is classic.ChwStatus.MEMBER:
            assert got["chaconWalsh"] == "member"
        if matrices.search_matrix(mu, depth).status == "member":
            assert got["uiMatrix"] == "member"
        chain = [got["azemaYor"], got["chaconWalsh"] == "member",
                 got["uiMatrix"] == "member", got["minimal"]]
        assert chain == sorted(chain)

    # the expansions' periods run to about 5 * 10^8 digits and, for the
    # exponent, 10^6 digits follow a 5 * 10^5-digit preperiod
    @pytest.mark.parametrize("argv", [
        ["classify", "--weight", "1/1000000007"],
        ["classify", "--weight", "1e-1000000"],
        ["classify", "--triple", "0,1/1000000007,0"],
        ["classify", "--triple", "1e-1000000,0,0"],
    ], ids=["weight-period", "weight-exponent", "triple-period",
            "triple-exponent"])
    def test_digit_budget_undecided(self, capsys, argv):
        t0 = time.perf_counter()
        code, out = run(capsys, argv)
        assert time.perf_counter() - t0 < 5.0
        assert code == 3
        assert out == {"budget": "DIGIT_BUDGET", "reason": "base-4 expansion "
                       "needs more than DIGIT_BUDGET = 4096 digits"}

    # periods of 515 and 2045 digits, past MAX_SCAN: the counts of the
    # digit matrix outgrow its largest digit within a few stages
    @pytest.mark.parametrize("q, period", [(1031, 515), (4091, 2045)])
    def test_long_period_triple_decides(self, capsys, q, period):
        assert len(walkembed.to_base4(Fraction(1, q)).period) == period
        code, out = run(capsys, ["classify", "--triple", f"0,1/{q},0"])
        assert (code, out) == (0, {"member": True, "reason": ""})

    def test_parser_built_once(self, capsys, monkeypatch):
        build, calls = cli.build_parser, []
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser",
                            lambda: calls.append(1) or build())
        for _ in range(3):
            code, out = run(capsys, ["classify", "--weight", "1/6"])
            assert (code, out) == (0, {"member": True, "halfWeight": "1"})
        assert len(calls) == 1

    def test_bad_rational(self, capsys):
        assert main(["classify", "--weight", "not-a-number"]) == 2


class TestEmbed:
    def test_ay_member(self, capsys, tmp_path):
        p = tmp_path / "b.json"
        p.write_text(MU_BERNOULLI_JSON)
        code, out = run(capsys, ["embed", "ay", str(p)])
        assert code == 0
        assert out["kind"] == "maxThreshold"

    def test_ay_non_member_undecided(self, capsys, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(MU_29_JSON)
        code, out = run(capsys, ["embed", "ay", str(p)])
        assert code == 3
        assert out["member"] is False
        assert out["witnessValue"] == "6/7"

    def test_chw_witness(self, capsys, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(MU_29_JSON)
        code, out = run(capsys, ["embed", "chw", str(p)])
        assert code == 0
        assert out["kind"] == "exitComposition"
        assert len(out["payload"]) == 2

    def test_chw_non_member(self, capsys, mu_516):
        code, out = run(capsys, ["embed", "chw", mu_516])
        assert code == 3
        assert out["member"] is False

    def test_chw_payload_names_budget(self, capsys, mu_516, monkeypatch):
        code, out = run(capsys, ["embed", "chw", mu_516, "--depth", "3"])
        assert code == 3
        assert out == {"member": False, "depthSearched": 3,
                       "statesSearched": 10}
        monkeypatch.setattr(classic, "MAX_STATES", 3)
        code, out = run(capsys, ["embed", "chw", mu_516])
        assert code == 3
        assert out == {"member": "unknown", "budget": "maxStates",
                       "statesSearched": 4}

    # each hull site of each visited state holds one numerator: the 5-site
    # hull of 5/16 passes 15 of them at its fourth state, as it passes a
    # state budget of 3 there
    def test_chw_payload_names_numerator_budget(self, capsys, mu_516,
                                                monkeypatch):
        monkeypatch.setattr(classic, "MAX_NUMERATORS", 15)
        code, out = run(capsys, ["embed", "chw", mu_516])
        assert code == 3
        assert out == {"member": "unknown", "budget": "maxNumerators",
                       "statesSearched": 4}

    # the matrix search recurses once per stage, so past MAX_SEARCH_STAGES
    # (500) it answers "unknown" and names that cap, where it ended in a
    # RecursionError at depth 1200; up to the cap the output is the same
    @pytest.mark.parametrize("depth, budget", [
        (500, "maxStage"), (501, "maxSearchStages"),
        (1200, "maxSearchStages")])
    def test_ui_matrix_stage_cap(self, capsys, tmp_path, depth, budget):
        p = tmp_path / "m.json"
        p.write_text(MU_UNIFORM3_JSON)
        assert main(["embed", "ui-matrix", str(p), "--depth", str(depth)]) == 3
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"member": "unknown"}
        assert json.loads(captured.err) == {"budget": budget,
                                            "nodesSearched": 2003}

    # the node budget pinned by test_matrices.TestSearch runs out on the
    # 236th node; 5/16 needs three stages; p0 = 1/3 dead-ends on every
    # branch at the second stage
    @pytest.mark.parametrize("atoms,depth,budget,nodes", [
        ({"-1": "89/128", "0": "3/64", "2": "5/64", "3": "23/128"}, 6,
         "nodeBudget", 239),
        ({"-2": "11/32", "0": "5/16", "2": "11/32"}, 1, "maxStage", 7),
        ({"-1": "1/3", "0": "1/3", "1": "1/3"}, 8, None, 3),
    ], ids=["nodeBudget", "maxStage", "exhausted"])
    def test_ui_matrix_names_budget(self, capsys, tmp_path, monkeypatch,
                                    atoms, depth, budget, nodes):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"atoms": atoms}))
        monkeypatch.setattr(matrices, "NODE_BUDGET", 235)
        assert main(["embed", "ui-matrix", str(p), "--depth", str(depth)]) == 3
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"member": "unknown"}
        assert json.loads(captured.err) == {"budget": budget,
                                            "nodesSearched": nodes}

    def test_ui_matrix(self, capsys, mu_516):
        code, out = run(capsys, ["embed", "ui-matrix", mu_516])
        assert code == 0
        assert out["kind"] == "pathCountMatrix"
        assert out["payload"]["N"] == 1

    def test_minimal_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(MU_516_JSON))
        code, out = run(capsys, ["embed", "minimal", "-"])
        assert code == 0
        assert out["kind"] == "minimalTheorem1"

    def test_hall(self, capsys, tmp_path):
        p = tmp_path / "u.json"
        p.write_text(MU_UNIFORM3_JSON)
        code, out = run(capsys, ["embed", "hall", str(p)])
        assert code == 0
        assert out["kind"] == "randomizedRule"
        assert {(e["u"], e["v"], e["w"]) for e in out["payload"]} == {
            (-2, 0, "1/3"), (-2, 2, "2/3")}

    def test_missing_file(self, capsys):
        assert main(["embed", "ay", "/nonexistent/mu.json"]) == 2


class TestVerifyAndLaws:
    def _matrix_file(self, tmp_path, capsys, mu_path):
        code, out = run(capsys, ["embed", "ui-matrix", mu_path])
        assert code == 0
        m = tmp_path / "matrix.json"
        m.write_text(json.dumps(out["payload"]))
        return str(m)

    def test_verify_valid(self, capsys, tmp_path, mu_516):
        m = self._matrix_file(tmp_path, capsys, mu_516)
        code, out = run(capsys, ["verify", m, mu_516])
        assert code == 0
        assert out["status"] == "valid"

    def test_verify_violation(self, capsys, tmp_path, mu_516):
        m = tmp_path / "bad.json"
        m.write_text(json.dumps({"N": 1, "rows": [
            {"site": 0, "head": [0, 2], "tail": "zero"}]}))
        code, out = run(capsys, ["verify", str(m), mu_516])
        assert code == 2
        assert out["status"] == "violation"

    def test_exact_law_of_embedded_rule(self, capsys, tmp_path, mu_516):
        code, out = run(capsys, ["embed", "ui-matrix", mu_516])
        r = tmp_path / "rule.json"
        r.write_text(json.dumps(out))
        code, out = run(capsys, ["exact-law", str(r)])
        assert code == 0
        assert out["residual"] == "0"
        assert out["law"] == {"-2": "11/32", "0": "5/16", "2": "11/32"}

    def test_exact_law_hall_rule(self, capsys, tmp_path):
        p = tmp_path / "u.json"
        p.write_text(MU_UNIFORM3_JSON)
        code, out = run(capsys, ["embed", "hall", str(p)])
        r = tmp_path / "rule.json"
        r.write_text(json.dumps(out))
        code, out = run(capsys, ["exact-law", str(r)])
        assert code == 0
        assert out["law"] == {"-2": "1/3", "0": "1/3", "2": "1/3"}

    def test_hall_point_mass_at_zero(self, capsys, tmp_path):
        # the one pair (-1, 0) stops every walk at time 0
        p = tmp_path / "delta.json"
        p.write_text('{"atoms": {"0": "1"}}')
        code, out = run(capsys, ["embed", "hall", str(p)])
        assert (code, out) == (0, {"kind": "randomizedRule", "payload": [
            {"u": -1, "v": 0, "w": "1"}]})
        r = tmp_path / "rule.json"
        r.write_text(json.dumps(out))
        code, out = run(capsys, ["exact-law", str(r)])
        assert (code, out["law"], out["residual"]) == (0, {"0": "1"}, "0")
        code, out = run(capsys, ["simulate", str(r), "--trials", "500"])
        assert code == 0
        assert (out["counts"], out["truncated"], out["meanSteps"]) == (
            {"0": 500}, 0, 0.0)

    def test_exact_law_infeasible_matrix(self, capsys, tmp_path):
        r = tmp_path / "rule.json"
        r.write_text(json.dumps({"kind": "pathCountMatrix", "payload": {
            "N": 1, "rows": [{"site": 0, "head": [0, 5]}]}}))
        assert main(["exact-law", str(r)]) == 2
        assert "a[0][1] = 5 exceeds arrival count 2" in capsys.readouterr().err


    # the last stage's even-site stops are checked like every other stop,
    # never credited to the law with a negative residual
    @pytest.mark.parametrize("row, max_stage, message", [
        ({"site": 0, "head": [0, 3]}, 1, "a[0][1] = 3 exceeds arrival count 2"),
        ({"site": 0, "head": [0, 3]}, 2, "a[0][1] = 3 exceeds arrival count 2"),
        ({"site": 0, "head": [0, 1], "tail": "doubling"}, 3,
         "a[0][3] = 4 exceeds arrival count 0"),
    ], ids=["last-stage", "inner-stage", "doubling-last-stage"])
    def test_exact_law_checks_last_stage(self, capsys, tmp_path, row,
                                         max_stage, message):
        r = tmp_path / "rule.json"
        r.write_text(json.dumps({"kind": "pathCountMatrix", "payload": {
            "N": 1, "rows": [row]}}))
        assert main(["exact-law", str(r), "--max-stage", str(max_stage)]) == 2
        assert message in capsys.readouterr().err

    def test_exact_law_stage_cap(self, capsys, tmp_path):
        # an exit composition's law is closed form: exact, with no stage
        # run, whatever the cap
        r = tmp_path / "rule.json"
        r.write_text('{"kind": "exitComposition", "payload": [[-5, 5]]}')
        code, out = run(capsys, ["exact-law", str(r), "--max-stage", "8000"])
        assert (code, out) == (0, {"law": {"-5": "1/2", "5": "1/2"},
                                   "residual": "0", "stages": 0})

    # a matrix rule's law is closed form once its counts settle: exact,
    # with the stages of the settle scan, whatever the cap
    @pytest.mark.parametrize("max_stage", ["0", "64", "8000"])
    def test_exact_law_periodic_witness(self, capsys, tmp_path, max_stage):
        r = tmp_path / "rule.json"
        r.write_text(json.dumps({"kind": "pathCountMatrix", "payload": {
            "N": 1, "rows": [{"site": 0, "head": [0, 0], "tail": "periodic",
                              "period": [2]}]}}))
        code, out = run(capsys, ["exact-law", str(r), "--max-stage", max_stage])
        assert (code, out) == (0, {"law": {"-2": "5/12", "0": "1/6",
                                           "2": "5/12"},
                                   "residual": "0", "stages": 3})

    def test_tails_that_stop_nothing_settle(self, capsys, tmp_path):
        # a doubling tail after a 0 and an all-zero period stop nothing,
        # so they ask no growth of the counts
        payload = {"N": 1, "rows": [
            {"site": 0, "head": [0], "tail": "doubling"},
            {"site": 1, "head": [0], "tail": "periodic", "period": [1, 1]}]}
        m = tmp_path / "m.json"
        m.write_text(json.dumps(payload))
        mu = tmp_path / "mu.json"
        mu.write_text('{"atoms": {"-2": "1/3", "1": "2/3"}}')
        code, out = run(capsys, ["verify", str(m), str(mu)])
        assert (code, out["status"]) == (0, "valid")
        r = tmp_path / "rule.json"
        r.write_text(json.dumps({"kind": "pathCountMatrix", "payload": payload}))
        code, out = run(capsys, ["exact-law", str(r)])
        assert (code, out["law"], out["residual"]) == (
            0, {"-2": "1/3", "1": "2/3"}, "0")

    def test_odd_site_stage_zero_stop(self, capsys, tmp_path):
        # no walk reaches site 1 at stage 0: `exact-law` and `simulate`
        # reject the stop there, and `verify` reports the site's weight
        payload = {"N": 1, "rows": [{"site": 1, "head": [1, 1]}]}
        r = tmp_path / "rule.json"
        r.write_text(json.dumps({"kind": "pathCountMatrix", "payload": payload}))
        for argv in (["exact-law", str(r)], ["simulate", str(r), "--trials", "10"]):
            assert main(argv) == 2
            assert ("a[1][0] = 1 exceeds arrival count 0"
                    in capsys.readouterr().err)
        m = tmp_path / "m.json"
        m.write_text(json.dumps(payload))
        mu = tmp_path / "mu.json"
        mu.write_text('{"atoms": {"-2": "3/8", "1": "1/2", "2": "1/8"}}')
        code, out = run(capsys, ["verify", str(m), str(mu)])
        assert (code, out) == (2, {"status": "violation", "site": 1,
                                   "stage": None,
                                   "detail": "encoded weight 5/2 != target 1/2"})

    def test_exact_law_unsettled_tail_exits_3(self, capsys, tmp_path):
        # after 600 zeros, 2^599 + 1 stops at every stage: the counts
        # 2^600 + 2 - 2^(j+1) fall away from the tail's fixed point and pass
        # below the stops only at stage 1199, past MAX_SCAN of stage 601
        r = tmp_path / "rule.json"
        r.write_text(json.dumps({"kind": "pathCountMatrix", "payload": {
            "N": 1, "rows": [{"site": 0, "head": [0] * 600,
                              "tail": "periodic", "period": [2**599 + 1]}]}}))
        for argv in (["exact-law", str(r)], ["simulate", str(r), "--trials", "10"]):
            code, out = run(capsys, argv)
            assert (code, out) == (3, {
                "budget": "MAX_SCAN",
                "reason": "counts do not settle within MAX_SCAN = 512 "
                          "stages of stage 601"})

    def test_long_period_certificate_verifies(self, capsys, tmp_path):
        # the digit matrix of 1/1031 at 0: its 515-digit period could settle
        # the counts only at stage 516, past MAX_SCAN = 512 stages from 0,
        # but they outgrow the largest digit at stage 4
        m = tmp_path / "m.json"
        m.write_text(json.dumps({"N": 1, "rows": [{
            "site": 0, "head": [0], "tail": "periodic",
            "period": list(walkembed.to_base4(Fraction(1, 1031)).period)}]}))
        mu = tmp_path / "mu.json"
        mu.write_text(json.dumps({"atoms": {
            "-2": "515/1031", "0": "1/1031", "2": "515/1031"}}))
        code, out = run(capsys, ["verify", str(m), str(mu)])
        assert (code, out) == (0, {"status": "valid", "site": None,
                                   "stage": None, "detail": ""})

    def test_exact_law_long_head_settles(self, capsys, tmp_path):
        # MAX_SCAN counts from head_length + p: a doubling tail after a
        # 601-stage head settles at stage 602, with weight 2 * 4^-600 at 0
        r = tmp_path / "rule.json"
        r.write_text(json.dumps({"kind": "pathCountMatrix", "payload": {
            "N": 2, "rows": [{"site": 0, "head": [0] * 600 + [1],
                              "tail": "doubling"}]}}))
        code, out = run(capsys, ["exact-law", str(r)])
        w = Fraction(2, 4**600)
        assert (code, out) == (0, {"law": {"-3": str((1 - w) / 2),
                                           "0": str(w),
                                           "3": str((1 - w) / 2)},
                                   "residual": "0", "stages": 602})

    # rationals past the 4300 digits Python converts by default parse and
    # print in full: after 7200 zeros the row at 0 stops at stage 7200, where
    # 2^7200 histories of weight 4^-7200 each arrive
    def _run_past_digit_limit(self, capsys, tmp_path, command, stop):
        with int_digit_limit(0):
            payload = {"N": 1, "rows": [{"site": 0,
                                         "head": [0] * 7200 + [stop]}]}
            if command == "verify":
                m, mu = tmp_path / "m.json", tmp_path / "mu.json"
                m.write_text(json.dumps(payload))
                mu.write_text('{"atoms": {"0": "1"}}')
                argv = ["verify", str(m), str(mu)]
            else:
                r = tmp_path / "rule.json"
                r.write_text(json.dumps({"kind": "pathCountMatrix",
                                         "payload": payload}))
                argv = ["exact-law", str(r)]
        # as a new interpreter has it
        with int_digit_limit(getattr(sys.int_info, "default_max_str_digits",
                                     0)):
            return run(capsys, argv)

    def test_verify_prints_weight_past_digit_limit(self, capsys, tmp_path):
        code, out = self._run_past_digit_limit(capsys, tmp_path, "verify", 1)
        with int_digit_limit(0):
            detail = f"encoded weight {Fraction(1, 4**7200)} != target 1"
        assert (code, out) == (2, {"status": "violation", "site": 0,
                                   "stage": None, "detail": detail})

    def test_exact_law_prints_law_past_digit_limit(self, capsys, tmp_path):
        code, out = self._run_past_digit_limit(capsys, tmp_path,
                                               "exact-law", 1)
        with int_digit_limit(0):
            w = Fraction(1, 4**7200)
            law = {"-2": str((1 - w) / 2), "0": str(w),
                   "2": str((1 - w) / 2)}
        assert (code, out) == (0, {"law": law, "residual": "0",
                                   "stages": 7201})

    def test_verify_parses_count_past_digit_limit(self, capsys, tmp_path):
        with int_digit_limit(0):
            stop = 4**7200
            detail = f"a[0][7200] = {stop} exceeds arrival count {2**7200}"
        code, out = self._run_past_digit_limit(capsys, tmp_path, "verify",
                                               stop)
        assert (code, out) == (2, {"status": "violation", "site": 0,
                                   "stage": 7200, "detail": detail})

    def test_exact_law_minimal_ignores_stage_cap(self, capsys, tmp_path,
                                                 mu_516):
        # a minimal rule's law is its certificate's, whatever --max-stage
        assert main(["embed", "minimal", mu_516]) == 0
        r = tmp_path / "rule.json"
        r.write_text(capsys.readouterr().out)
        for max_stage in ("0", "64", "8000"):
            code, out = run(capsys, ["exact-law", str(r),
                                     "--max-stage", max_stage])
            assert (code, out) == (0, {
                "law": {"-2": "11/32", "0": "5/16", "2": "11/32"},
                "residual": "0", "stages": 0})


class TestSimulate:
    @pytest.mark.parametrize("row", [
        {"site": 0, "head": [0, 5]},
        {"site": 0, "head": [0, 3]},
        {"site": 0, "head": [0, 1], "tail": "doubling"},
    ], ids=["stage-1", "last-stage", "doubling"])
    def test_infeasible_matrix_rejected(self, capsys, tmp_path, row):
        r = tmp_path / "rule.json"
        r.write_text(json.dumps({"kind": "pathCountMatrix", "payload": {
            "N": 1, "rows": [row]}}))
        assert main(["exact-law", str(r)]) == 2
        expected = capsys.readouterr().err
        assert main(["simulate", str(r), "--trials", "16"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", expected)
        assert "exceeds arrival count" in expected

    def test_site_step_budget_exits_3(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(sim, "MAX_SITE_STEPS", 10_000)
        r = tmp_path / "rule.json"
        r.write_text(json.dumps({"kind": "pathCountMatrix", "payload": {
            "N": 30, "rows": [{"site": 0, "head": [0, 1], "tail": "doubling"}]}}))
        code, out = run(capsys, ["simulate", str(r)])
        assert code == 3
        assert out["budget"] == "MAX_SITE_STEPS"
        assert "budget of 10000 site-steps (63 sites a step)" in out["reason"]

    def test_simulate_matrix_rule_numpy(self, capsys, tmp_path, mu_516):
        code, out = run(capsys, ["embed", "ui-matrix", mu_516])
        r = tmp_path / "rule.json"
        r.write_text(json.dumps(out))
        code, out = run(capsys, ["simulate", str(r), "--trials", "5000",
                                 "--seed", "7"])
        assert code == 0
        assert out["backend"] == "numpy"
        assert sum(out["counts"].values()) + out["truncated"] == 5000

    def test_simulate_pair_rule(self, capsys, tmp_path):
        r = tmp_path / "rule.json"
        r.write_text('{"kind": "randomizedPair", "payload": {"u": -2, "v": 2}}')
        code, out = run(capsys, ["simulate", str(r), "--trials", "1000",
                                 "--seed", "7", "--max-steps", "4096"])
        assert code == 0
        assert out["trials"] == 1000
        assert out["truncated"] == 0
        assert set(out["counts"]) == {"-2", "2"}

    def test_seed_defaults_to_0(self, capsys, tmp_path):
        r = tmp_path / "rule.json"
        r.write_text('{"kind": "randomizedPair", "payload": {"u": -1, "v": 1}}')
        code, out = run(capsys, ["simulate", str(r), "--trials", "10",
                                 "--max-steps", "64"])
        assert code == 0
        assert out["seed"] == 0

    # a trial count past sim.MAX_TRIALS is rejected before any array is
    # allocated
    @pytest.mark.parametrize("flags", [["--max-steps", "-5"],
                                       ["--trials", "0"],
                                       ["--trials", "1000000000000000"]])
    def test_bad_budget_rejected(self, capsys, tmp_path, flags):
        r = tmp_path / "rule.json"
        r.write_text('{"kind": "randomizedPair", "payload": {"u": -1, "v": 1}}')
        assert main(["simulate", str(r), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


    def test_negative_stage_rejected(self, capsys, tmp_path):
        r = tmp_path / "rule.json"
        r.write_text('{"kind": "exitComposition", "payload": [[-1, 1]]}')
        assert main(["exact-law", str(r), "--max-stage", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: max_stage")

    def test_empty_exit_composition(self, capsys, tmp_path):
        r = tmp_path / "rule.json"
        r.write_text('{"kind": "exitComposition", "payload": []}')
        code, out = run(capsys, ["simulate", str(r), "--trials", "16"])
        assert code == 0
        assert (out["counts"], out["meanSteps"]) == ({"0": 16}, 0.0)
        code, out = run(capsys, ["exact-law", str(r)])
        assert (code, out["law"]) == (0, {"0": "1"})


class TestWireFormat:
    """Malformed input exits 2 with a one-line error, never a traceback."""

    @staticmethod
    def assert_rejected(capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        return captured.err

    @pytest.mark.parametrize("command", ["exact-law", "simulate"])
    @pytest.mark.parametrize("sites, weights, message", [
        ([-1, 1], ["1/2", "1/3"], "weights sum to 5/6"),
        ([-1, 1, 3], ["1/2", "1/2"], "3 sites but 2 weights"),
        ([-1, 1], ["1/2", "1/2", "0"], "2 sites but 3 weights"),
        ([-1, 0, 1], ["1/2", "0", "1/2"], "weights must be positive"),
        ([-1, 1], ["3/2", "-1/2"], "weights must be positive"),
    ], ids=["sum-5/6", "more-sites", "more-weights", "zero", "negative"])
    def test_minimal_weights_rejected(self, capsys, tmp_path, command,
                                      sites, weights, message):
        r = tmp_path / "rule.json"
        r.write_text(json.dumps({"kind": "minimalTheorem1", "payload": {
            "sites": sites, "weights": weights}}))
        assert message in self.assert_rejected(capsys, [command, str(r)])

    @pytest.mark.parametrize("command, text", [
        ("exact-law", "null"),
        ("exact-law", "[1, 2]"),
        ("simulate", "null"),
        ("simulate", "[1, 2]"),
        ("verify", "null"),
        ("verify", "[1, 2]"),
        ("exact-law", '{"kind": "exitComposition", "payload": null}'),
        ("simulate", '{"kind": "randomizedPair", "payload": [-1, 1]}'),
        ("exact-law", '{"kind": "pathCountMatrix", "payload": [1]}'),
        ("verify", '{"N": 1, "rows": [[0, 1]]}'),
        ("classify", '{"atoms": {"0": 0.5, "-1": 0.25, "1": 0.25}}'),
        ("potential", '{"atoms": {"0": 1}}'),
    ], ids=["exact-law-null", "exact-law-list", "simulate-null",
            "simulate-list", "verify-null", "verify-list",
            "null-chip-payload", "list-pair-payload", "list-matrix-payload",
            "list-matrix-row", "float-weights", "int-weight"])
    def test_malformed_json_rejected(self, capsys, tmp_path, command, text):
        f = tmp_path / "input.json"
        f.write_text(text)
        mu = tmp_path / "mu.json"
        mu.write_text(MU_516_JSON)
        argv = {"classify": ["classify", "--measure", str(f)],
                "verify": ["verify", str(f), str(mu)]}.get(
                    command, [command, str(f)])
        self.assert_rejected(capsys, argv)


    @pytest.mark.parametrize("command, text, message", [
        ("simulate", '{"kind": "randomizedPair", "payload": {"v": 1}}',
         "malformed randomizedPair payload: missing field 'u'"),
        ("exact-law", '{"kind": "randomizedRule", "payload": '
                      '[{"u": -1, "v": 1}]}',
         "malformed randomizedRule payload: missing field 'w'"),
        ("exact-law", '{"kind": "minimalTheorem1", "payload": {"sites": [0]}}',
         "malformed minimalTheorem1 payload: missing field 'weights'"),
        ("exact-law", '{"kind": "exitComposition", "payload": [[1, 2, 3]]}',
         "malformed exitComposition payload: chip [a, b] must be a pair, "
         "got [1, 2, 3]"),
        ("simulate", '{"kind": "maxThreshold", "payload": [[0]]}',
         "malformed maxThreshold payload: threshold [site, level] must be "
         "a pair, got [0]"),
        ("exact-law", '{"kind": "pathCountMatrix", "payload": {"rows": []}}',
         "malformed matrix JSON: missing field 'N'"),
        ("verify", '{"N": 1, "rows": [{"head": [0, 1]}]}',
         "malformed matrix JSON: missing field 'site'"),
        # one entry per site: a second spelling of a site, a repeated key
        # or a repeated row would replace the first, and a matrix verdict
        # would depend on the order of its rows
        ("potential", '{"atoms": {"1": "1/2", "01": "1/2", "-1": "1/2"}}',
         "site key is not an integer in canonical form: '01'"),
        ("potential", '{"atoms": {"1_0": "1/2", "-10": "1/2"}}',
         "site key is not an integer in canonical form: '1_0'"),
        ("potential", '{"atoms": {"1": "1/2", "1": "1/2", "-1": "1/2"}}',
         "key '1' appears twice in one object"),
        ("verify", '{"N": 1, "rows": [{"site": 0, "head": [0]}, '
                   '{"site": 0, "head": [1]}]}',
         "matrix lists site 0 twice"),
        ("verify", '{"N": 1, "rows": [{"site": 0, "head": [1]}, '
                   '{"site": 0, "head": [0]}]}',
         "matrix lists site 0 twice"),
        ("verify", '{"N": 1, "rows": [{"site": 0, "tail": "doubling"}]}',
         "doubling tail needs a nonempty head"),
        ("verify", '{"N": 1, "rows": [{"site": 0, "head": [0], '
                   '"tail": "periodic"}]}', "periodic tail needs digits"),
        ("verify", '{"N": -1}', "half width must be nonnegative"),
        ("verify", '{"N": 1, "rows": [{"site": 2, "head": [0]}]}',
         "row site 2 outside [-1, 1]"),
        ("verify", '{"N": 1, "rows": [{"site": 0, "head": 5}]}',
         "malformed matrix JSON: 'int' object is not iterable"),
        ("verify-target", '{"atoms": {"-5": "1/2", "5": "1/2"}}',
         "support site -5 outside [-2, 2]"),
        ("potential", '{"atoms": [1]}',
         '"atoms" must map integer strings to rational strings'),
        ("embed-chw", '{"atoms": {"1": "1/2", "2": "1/2"}}',
         "measure is not centered (mean 3/2)"),
        ("triple", "2,0,0", "p_minus out of [0, 1]: 2"),
        ("triple", "0,0,1", "no centered completion on {-2, 2} exists"),
        ("exact-law", '{"kind": "randomizedRule", "payload": '
                      '[{"u": 1, "v": 2, "w": "1"}]}',
         "pair must satisfy u < 0 <= v, got (1, 2)"),
        ("exact-law", '{"kind": "randomizedRule", "payload": '
                      '[{"u": -1, "v": 1, "w": "0"}]}',
         "weight must be positive, got 0"),
        ("verify", '{"N": 1, "rows": [{"site": 0, "head": [0], '
                   '"tail": "sideways"}]}', "unknown tail kind 'sideways'"),
    ], ids=["pair-u", "hall-w", "minimal-weights", "chip-triple",
            "threshold-single", "matrix-N", "matrix-site", "site-spellings",
            "site-underscore", "repeated-key", "repeated-row",
            "repeated-row-swapped", "doubling-empty-head",
            "periodic-no-period", "negative-N", "row-off-strip", "head-int",
            "target-off-strip", "atoms-list", "chw-off-centre",
            "triple-range", "triple-no-completion", "hall-pair-order",
            "hall-zero-weight", "unknown-tail"])
    def test_error_names_field(self, capsys, tmp_path, command, text,
                               message):
        f = tmp_path / "input.json"
        f.write_text(text)
        mu = tmp_path / "mu.json"
        mu.write_text(MU_516_JSON)
        strip = tmp_path / "strip.json"
        strip.write_text('{"N": 1, "rows": []}')
        # "verify" checks the input matrix against the 5/16 target,
        # "verify-target" an empty N = 1 matrix against the input measure;
        # a triple is its own argument
        argv = {"verify": ["verify", str(f), str(mu)],
                "verify-target": ["verify", str(strip), str(f)],
                "embed-chw": ["embed", "chw", str(f)],
                "triple": ["classify", "--triple", text]}.get(
                    command, [command, str(f)])
        assert self.assert_rejected(capsys, argv) == f"error: {message}\n"

    # a misspelt field would fall back to its default, and a period on a
    # row whose tail is not periodic would be dropped on output
    @pytest.mark.parametrize("command, text, message", [
        ("verify", '{"N": 1, "rows": [{"site": 0, "head": [0, 1], '
                   '"tial": "doubling"}]}', "unknown field 'tial'"),
        ("verify", '{"N": 1, "rows": [], "row": []}', "unknown field 'row'"),
        ("exact-law", '{"kind": "pathCountMatrix", "payload": {"N": 1, '
                      '"rows": [{"site": 0, "head": [0, 1], "perod": [1]}]}}',
         "unknown field 'perod'"),
        ("verify", '{"N": 1, "rows": [{"site": 0, "head": [0, 1], '
                   '"tail": "zero", "period": [3]}]}',
         "a zero tail takes no period"),
        ("simulate", '{"kind": "pathCountMatrix", "payload": {"N": 1, '
                     '"rows": [{"site": 0, "head": [0, 1], "period": [3]}]}}',
         "a zero tail takes no period"),
        ("verify", '{"N": 1, "rows": [{"site": 0, "head": [0, 1], '
                   '"tail": "doubling", "period": [3]}]}',
         "a doubling tail takes no period"),
    ], ids=["row-tail", "matrix-rows", "rule-row-period", "zero-period",
            "default-tail-period", "doubling-period"])
    def test_matrix_field_rejected(self, capsys, tmp_path, command, text,
                                   message):
        f = tmp_path / "input.json"
        f.write_text(text)
        mu = tmp_path / "mu.json"
        mu.write_text(MU_516_JSON)
        argv = ([command, str(f), str(mu)] if command == "verify"
                else [command, str(f)])
        assert message in self.assert_rejected(capsys, argv)

    # a field of no meaning in a rule or measure document would be dropped
    # without a word
    @pytest.mark.parametrize("command, text, message", [
        ("exact-law", '{"kind": "randomizedPair", "payload": {"u": -1, '
                      '"v": 3, "w": "1/2"}, "seed": 4}',
         "malformed rule JSON: unknown field 'seed'"),
        ("simulate", '{"kind": "randomizedPair", "payload": {"u": -1, '
                     '"v": 3, "w": "1/2"}}',
         "malformed randomizedPair payload: unknown field 'w'"),
        ("exact-law", '{"kind": "randomizedRule", "payload": [{"u": -1, '
                      '"v": 1, "w": "1", "weight": "1"}]}',
         "malformed randomizedRule payload: unknown field 'weight'"),
        ("exact-law", '{"kind": "minimalTheorem1", "payload": {"sites": [1], '
                      '"weights": ["1"], "weight": ["1/2"]}}',
         "malformed minimalTheorem1 payload: unknown field 'weight'"),
        ("potential", '{"atoms": {"-1": "1/2", "1": "1/2"}, '
                      '"atom": {"5": "1"}}',
         "malformed measure JSON: unknown field 'atom'"),
    ], ids=["rule", "pair-payload", "pair-law-entry", "minimal-payload",
            "measure"])
    def test_document_field_rejected(self, capsys, tmp_path, command, text,
                                     message):
        f = tmp_path / "input.json"
        f.write_text(text)
        assert self.assert_rejected(capsys, [command, str(f)]) == (
            f"error: {message}\n")

    # `json.loads` alone keeps the last of two equal keys, so swapping two
    # "rows" would turn a violation into a valid matrix
    @pytest.mark.parametrize("command, text, key", [
        ("verify", '{"N": 1, "rows": [{"site": 0, "head": [0, 1, 1]}], '
                   '"rows": []}', "rows"),
        ("verify", '{"N": 1, "rows": [], '
                   '"rows": [{"site": 0, "head": [0, 1, 1]}]}', "rows"),
        ("verify", '{"N": 1, "rows": [{"site": 0, "head": [0, 1, 1], '
                   '"head": [0]}]}', "head"),
        ("exact-law", '{"kind": "randomizedPair", "kind": "randomizedPair", '
                      '"payload": {"u": -1, "v": 1}}', "kind"),
        ("exact-law", '{"kind": "randomizedPair", '
                      '"payload": {"u": -1, "u": -3, "v": 1}}', "u"),
        ("simulate", '{"kind": "pathCountMatrix", "payload": {"N": 1, '
                     '"rows": [{"site": 0, "site": 1, "head": [0]}]}}', "site"),
    ], ids=["matrix-rows", "matrix-rows-swapped", "matrix-row-head",
            "rule-kind", "pair-u", "matrix-rule-site"])
    def test_repeated_key_rejected(self, capsys, tmp_path, command, text,
                                   key):
        f = tmp_path / "input.json"
        f.write_text(text)
        mu = tmp_path / "mu.json"
        mu.write_text(MU_516_JSON)
        argv = ([command, str(f), str(mu)] if command == "verify"
                else [command, str(f)])
        assert self.assert_rejected(capsys, argv) == (
            f"error: key {key!r} appears twice in one object\n")

    # the state machine and the kernel read a table the same way only when
    # it has one level per site of an interval containing the origin
    @pytest.mark.parametrize("command", ["exact-law", "simulate"])
    @pytest.mark.parametrize("table", [
        [[-1, 0], [1, 1]], [[1, 1], [2, 2]], [[0, 1], [0, 2]], [],
    ], ids=["gap", "no-origin", "repeated-site", "empty"])
    def test_threshold_table_rejected(self, capsys, tmp_path, command, table):
        r = tmp_path / "rule.json"
        r.write_text(json.dumps({"kind": "maxThreshold", "payload": table}))
        err = self.assert_rejected(capsys, [command, str(r)])
        assert "threshold table" in err

    # integer fields take JSON integers only: a float or a bool is an
    # error, never truncated to some other rule
    @pytest.mark.parametrize("command, text", [
        ("exact-law", '{"kind": "randomizedPair", "payload": {"u": -1.7, "v": 2.9}}'),
        ("simulate", '{"kind": "randomizedPair", "payload": {"u": -1.7, "v": 2.9}}'),
        ("exact-law", '{"kind": "exitComposition", "payload": [[true, 2]]}'),
        ("simulate", '{"kind": "exitComposition", "payload": [[-1, 2.0]]}'),
        ("exact-law", '{"kind": "maxThreshold", "payload": [[0, 1.0]]}'),
        ("simulate", '{"kind": "maxThreshold", "payload": [[false, 1]]}'),
        ("exact-law", '{"kind": "minimalTheorem1", "payload": '
                      '{"sites": [-1.0, 1], "weights": ["1/2", "1/2"]}}'),
        ("simulate", '{"kind": "randomizedRule", "payload": '
                     '[{"u": -1, "v": "1", "w": "1"}]}'),
        ("exact-law", '{"kind": "pathCountMatrix", "payload": '
                      '{"N": 1.0, "rows": []}}'),
        ("verify", '{"N": 1, "rows": [{"site": 0, "head": [0.9, 1.5]}]}'),
        ("verify", '{"N": true, "rows": []}'),
        ("verify", '{"N": 1, "rows": [{"site": false, "head": [0, 1]}]}'),
        ("verify", '{"N": 1, "rows": [{"site": 0, "tail": "periodic", '
                   '"period": ["1"]}]}'),
    ], ids=["exact-law-pair", "simulate-pair", "exact-law-chip-bool",
            "simulate-chip-float", "exact-law-threshold-float",
            "simulate-threshold-bool", "exact-law-minimal-site",
            "simulate-hall-string", "exact-law-matrix-N", "verify-head",
            "verify-N-bool", "verify-site-bool", "verify-period-string"])
    def test_non_integer_field_rejected(self, capsys, tmp_path, command,
                                        text):
        f = tmp_path / "input.json"
        f.write_text(text)
        mu = tmp_path / "mu.json"
        mu.write_text(MU_516_JSON)
        argv = ([command, str(f), str(mu)] if command == "verify"
                else [command, str(f)])
        assert "not an integer" in self.assert_rejected(capsys, argv)


class TestSetAndPotential:
    def test_set_cover(self, capsys):
        code, out = run(capsys, ["set", "--depth", "1"])
        assert code == 0
        assert out["measure"] == "1/2"
        assert out["intervals"] == [["0", "1/2"], ["1", "1"]]

    def test_set_point_member(self, capsys):
        code, out = run(capsys, ["set", "--point", "1/6"])
        assert code == 0
        assert out["verdict"] == "member"

    def test_set_point_non_member(self, capsys):
        code, out = run(capsys, ["set", "--point", "3/4"])
        assert code == 0
        assert out["verdict"] == "nonMember"

    def test_potential_table(self, capsys, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(MU_29_JSON)
        code, out = run(capsys, ["potential", str(p)])
        assert code == 0
        assert out["values"]["0"] == "-4/3"
        assert out["barycenter"]["0"] == "6/7"


# Runs in a fresh interpreter: every command but `simulate` on the files
# in sys.argv[2], then `simulate`, which alone may load numpy.
NUMPY_FREE_CHILD = r"""
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
import walkembed, walkembed.cli, walkembed.kernels

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = walkembed.cli.main(list(argv))
    assert code == 0, (argv, code)
    return out.getvalue()

def path(name, text=None):
    p = os.path.join(sys.argv[2], name)
    if text is not None:
        with open(p, "w") as f:
            f.write(text)
    return p

mu, bern = path("mu.json"), path("bern.json")
run("classify", "--weight", "1/6")
run("classify", "--triple", "1/4,1/2,1/4")
run("classify", "--measure", mu, "--depth", "3")
rules = [path(method + ".json", run("embed", method, target, "--depth", "3"))
         for method, target in [("ay", bern), ("chw", bern), ("ui-matrix", mu),
                                ("minimal", mu), ("hall", mu)]]
with open(rules[2]) as f:
    run("verify", path("matrix.json", json.dumps(json.load(f)["payload"])), mu)
rules.append(path("pair.json",
                  '{"kind": "randomizedPair", "payload": {"u": -1, "v": 2}}'))
for rule in rules:
    run("exact-law", rule)
run("set", "--depth", "4")
run("set", "--point", "1/6")
run("potential", mu)
assert "numpy" not in sys.modules, "an exact command loaded numpy"
report = json.loads(run("simulate", rules[2], "--trials", "100"))
assert "numpy" in sys.modules and report["backend"] == "numpy", report
"""


class TestNumpyFree:
    def test_only_simulate_loads_numpy(self, tmp_path):
        (tmp_path / "mu.json").write_text(MU_516_JSON)
        (tmp_path / "bern.json").write_text(MU_BERNOULLI_JSON)
        src = Path(walkembed.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", NUMPY_FREE_CHILD, str(src), str(tmp_path)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestNegativeRationals:
    """A negative rational may follow --point or --weight as its own
    argument, and prints exactly what the "--point=-1/2" form prints."""

    @pytest.mark.parametrize("split, joined, code", [
        (["set", "--point", "-1/2"], ["set", "--point=-1/2"], 0),
        (["set", "--point", "-3/4", "--depth", "3"],
         ["set", "--point=-3/4", "--depth", "3"], 0),
        (["set", "--depth", "3", "--point", "-.5"],
         ["set", "--depth", "3", "--point=-.5"], 0),
        (["classify", "--weight", "-1/2"], ["classify", "--weight=-1/2"], 2),
        (["classify", "--weight", "-1/6", "--depth", "2"],
         ["classify", "--weight=-1/6", "--depth", "2"], 2),
    ])
    def test_split_matches_joined(self, capsys, split, joined, code):
        assert main(joined) == code
        expected = capsys.readouterr()
        assert main(split) == code
        assert capsys.readouterr() == expected

    def test_split_outputs(self, capsys):
        code, out = run(capsys, ["set", "--point", "-1/2"])
        assert (code, out) == (0, {"point": "-1/2", "verdict": "nonMember"})
        assert main(["classify", "--weight", "-1/2"]) == 2
        assert "expansion defined on [0, 1] only, got -1/2" in \
            capsys.readouterr().err

    def test_process_argv(self, capsys, monkeypatch):
        # the installed script calls main() with no argv
        monkeypatch.setattr("sys.argv", ["walkembed", "set", "--point", "-1/2"])
        assert main() == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "nonMember"

    def test_missing_value_still_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["set", "--point", "--depth", "3"])
        assert exc.value.code == 2
        assert "argument --point: expected one argument" in \
            capsys.readouterr().err


class TestSetCoverBudget:
    # sha256 of `walkembed set --depth 12` stdout, captured with the
    # Fraction-based cover
    SET_12_SHA256 = ("c4db6061896a537d0c260aa379f75929"
                     "021feadc4091ef0767a61b7866fe3185")

    def test_depth_12_output_frozen(self, capsys):
        assert main(["set", "--depth", "12"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.SET_12_SHA256

    def test_depth_16_within_budget(self, capsys):
        code, out = run(capsys, ["set", "--depth", "16"])
        assert code == 0
        assert len(out["intervals"]) == 32769
        assert out["measure"] == "32769/131072"

    def test_depth_17_exceeds_budget(self, capsys):
        code, out = run(capsys, ["set", "--depth", "17"])
        assert code == 3
        assert out == {"budget": "MAX_COVER_INTERVALS", "reason": "the "
                       "depth-17 cover has 65537 intervals, more than "
                       "MAX_COVER_INTERVALS = 65536"}

    @pytest.mark.parametrize("argv", [
        ["set", "--depth", "-1"],
        ["set", "--point", "3/10", "--depth", "-1"],
        ["classify", "--weight", "1/6", "--depth", "-1"],
        ["embed", "chw", "MU", "--depth", "-1"],
        ["embed", "ui-matrix", "MU", "--depth", "-2"],
        pytest.param(["classify", "--measure", "MU", "--depth", "x"],
                     id="not-an-integer"),
    ])
    def test_negative_depth_rejected(self, capsys, mu_516, argv):
        depth = argv[-1]
        argv = [mu_516 if a == "MU" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        reason = ("must be >= 0" if depth.startswith("-")
                  else f"invalid int value: {depth!r}")
        assert f"argument --depth: {reason}" in captured.err

# payload values mix small ints with every other JSON type, and dict keys
# name the fields the parsers read, so some payloads get deep into them
FIELDS = ["u", "v", "w", "sites", "weights", "N", "rows", "site", "head",
          "tail", "period"]
RATIONALS = ["1/2", "1/3", "2/3", "1/4", "3/4", "1", "0", "-1/2"]
TAILS = ["zero", "doubling", "periodic"]
JSON_LEAVES = (st.integers(-20, 20) | st.floats() | st.booleans() | st.none()
               | st.sampled_from(RATIONALS + TAILS) | st.text(max_size=4))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(FIELDS) | st.text(
                       max_size=3), inner, max_size=4)),
    max_leaves=16)
KINDS = ["exitComposition", "maxThreshold", "pathCountMatrix",
         "randomizedPair", "minimalTheorem1", "randomizedRule", "noSuchKind"]


def pick(draw, *options):
    """Draw from one of `options`; repeating an option weights it (where
    `st.one_of` would merge the repeats)."""
    return draw(options[draw(st.integers(0, len(options) - 1))])


@st.composite
def fields(draw):
    # mostly well-typed, so payloads reach the rule constructors and the
    # engines; every other JSON value still turns up
    ints = st.integers(-20, 20)
    return pick(draw, ints, ints, st.sampled_from(RATIONALS), JSON_VALUES)


FIELD = fields()
PAIRS = st.lists(st.lists(FIELD, min_size=2, max_size=2), max_size=4)
# threshold tables with sites and levels up to 10^12 from the origin: far
# apart, or consecutive around 0
WIDE = st.integers(-10**12, 10**12)
WIDE_THRESHOLDS = (
    st.lists(st.lists(WIDE, min_size=2, max_size=2), min_size=1, max_size=4)
    | st.builds(lambda lo, levels: [[lo + j, v] for j, v in enumerate(levels)],
                st.integers(-3, 0), st.lists(WIDE, min_size=1, max_size=4)))
ROW = st.fixed_dictionaries(
    {"site": FIELD, "head": st.lists(FIELD, max_size=4)},
    optional={"tail": FIELD | st.sampled_from(TAILS),
              "period": st.lists(FIELD, max_size=3)})
SHAPES = {
    "exitComposition": PAIRS,
    "maxThreshold": PAIRS | WIDE_THRESHOLDS,
    "randomizedPair": st.fixed_dictionaries({"u": FIELD, "v": FIELD}),
    "minimalTheorem1": st.fixed_dictionaries(
        {"sites": st.lists(FIELD, max_size=4),
         "weights": st.lists(FIELD, max_size=4)}),
    "randomizedRule": st.lists(
        st.fixed_dictionaries({"u": FIELD, "v": FIELD, "w": FIELD}),
        max_size=3),
    "pathCountMatrix": st.fixed_dictionaries(
        {"N": FIELD, "rows": st.lists(ROW, max_size=3)}),
}


@st.composite
def rule_documents(draw):
    """{"kind", "payload"}: the payload is shaped like the kind's wire form,
    like some other kind's, or arbitrary JSON."""
    kind = draw(st.sampled_from(KINDS))
    own = SHAPES.get(kind, JSON_VALUES)
    payload = pick(draw, own, own, st.one_of(*SHAPES.values()), JSON_VALUES)
    return {"kind": kind, "payload": payload}


class CallTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise CallTimeout


@contextlib.contextmanager
def alarm(seconds):
    """Raise CallTimeout in the block once `seconds` of wall time pass."""
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def run_bounded(argv, seconds=5.0):
    """Run the CLI in-process under a wall-clock alarm; return the exit
    code, stderr and elapsed time.  An uncaught exception propagates."""
    err = io.StringIO()
    t0 = time.perf_counter()
    with alarm(seconds), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue(), time.perf_counter() - t0


class TestFuzz:
    """Arbitrary rule JSON ends in exit 0, 2 or 3 within 5 s, never in a
    traceback."""

    @settings(max_examples=200)
    @given(doc=rule_documents())
    def test_rule_json(self, tmp_path_factory, doc):
        f = tmp_path_factory.mktemp("fuzz") / "rule.json"
        f.write_text(json.dumps(doc))
        for argv in (["exact-law", str(f), "--max-stage", "4"],
                     ["simulate", str(f), "--trials", "64",
                      "--max-steps", "256"]):
            code, err, seconds = run_bounded(argv)
            assert code in (0, 2, 3), (argv, err)
            assert "Traceback" not in err
            assert seconds < 5.0


def orbit_fixed_point(seed: int, length: int) -> Fraction:
    """Fixed point of a random composition of `length` maps drawn from the
    weight set's contractions x/4 + 1/4 and x/4 + 1/8: a member whose
    inverse orbit first returns after up to `length` steps."""
    rng = random.Random(seed)
    c = Fraction(0)
    for _ in range(length):
        c = c / 4 + rng.choice((Fraction(1, 4), Fraction(1, 8)))
    return c * 4**length / (4**length - 1)


@st.composite
def huge_denominator_points(draw):
    q = draw(st.integers(2, 2**2000))
    return Fraction(draw(st.integers(-q // 8, q + q // 8)), q)


WEIGHT_POINTS = (
    st.fractions(-2, 2, max_denominator=10**6)
    | huge_denominator_points()
    | st.builds(orbit_fixed_point, st.integers(0, 2**32),
                st.integers(1, 1500)))


class TestSetPointFuzz:
    """`set --point` ends in exit 0, 2 or 3 within 5 s, never in a
    traceback, at any depth up to 5000."""

    @settings(max_examples=100)
    @given(point=WEIGHT_POINTS, depth=st.integers(0, 5000),
           joined=st.booleans())
    def test_set_point(self, point, depth, joined):
        # a negative point reaches the command in both spellings
        value = [f"--point={point}"] if joined else ["--point", str(point)]
        argv = ["set", *value, "--depth", str(depth)]
        code, err, seconds = run_bounded(argv)
        assert code in (0, 2, 3), (argv, err)
        assert "Traceback" not in err
        assert seconds < 5.0

    def test_long_orbit_member(self, capsys):
        # the inverse orbit returns after 1500 steps, past the depth a
        # recursive search could reach
        point = str(orbit_fixed_point(1, 1500))
        code, out = run(capsys, ["set", "--point", point, "--depth", "5000"])
        assert (code, out["verdict"]) == (0, "member")
        code, out = run(capsys, ["set", "--point", point, "--depth", "1000"])
        assert (code, out["verdict"]) == (3, "undecidedAtDepth")


# sites within 6 of the origin or at least 10^6 from it: every hull is
# either a few sites wide or past the hull budget, whose commands would
# otherwise run for minutes
NEAR = st.integers(1, 6)
FAR = st.integers(10**6, 10**12)
SITES = st.integers(-6, 6) | st.builds(lambda s, x: s * x,
                                       st.sampled_from([-1, 1]), FAR)


def _atoms(weights: dict[int, Fraction]) -> dict[str, str]:
    total = sum(weights.values())
    return {str(s): str(w / total) for s, w in weights.items()}


@st.composite
def centred_atoms(draw, ends):
    """A mixture of two-point laws a < 0 < b with |a|, b drawn from
    `ends`, each centred, plus an atom at 0 at times."""
    weights: dict[int, Fraction] = {}
    for _ in range(draw(st.integers(1, 3))):
        a, b = -draw(ends), draw(ends)
        c = draw(st.integers(1, 5))
        weights[a] = weights.get(a, 0) + Fraction(c * b, b - a)
        weights[b] = weights.get(b, 0) + Fraction(-c * a, b - a)
    if draw(st.booleans()):
        weights[0] = Fraction(draw(st.integers(1, 5)))
    return {"atoms": _atoms(weights)}


NEAR_CENTRED = centred_atoms(NEAR)


@st.composite
def measure_documents(draw):
    """{"atoms": ...}: centred, any law, malformed weights, or arbitrary
    JSON."""
    law = st.dictionaries(SITES, st.integers(1, 9).map(Fraction),
                          min_size=1, max_size=4).map(_atoms)
    bad = st.dictionaries(SITES.map(str), FIELD, max_size=4)
    return pick(draw, NEAR_CENTRED, NEAR_CENTRED, centred_atoms(NEAR | FAR),
                st.fixed_dictionaries({"atoms": law | bad}), JSON_VALUES)


# a strip of 2N + 3 sites: small, past the hull budget, or any field
STRIP_N = st.integers(-2, 8) | st.integers(2**15, 10**12) | FIELD
MATRIX_DOCUMENTS = (st.fixed_dictionaries(
    {"N": STRIP_N, "rows": st.lists(ROW, max_size=3)}) | JSON_VALUES)
# a strip of any width up to the hull budget (N = 32766), with well-formed
# rows of each tail kind near the origin: a period on periodic rows only
DIGITS = st.lists(st.integers(0, 3), min_size=1, max_size=3)
TAILED_ROW = st.fixed_dictionaries(
    {"site": st.integers(-8, 8), "head": DIGITS,
     "tail": st.sampled_from(TAILS), "period": DIGITS}).map(
    lambda row: row if row["tail"] == "periodic"
    else {k: v for k, v in row.items() if k != "period"})
WIDE_MATRIX_DOCUMENTS = st.fixed_dictionaries(
    {"N": st.integers(8, 2**15 - 2), "rows": st.lists(TAILED_ROW, max_size=3)})


def _write(tmp_path_factory, name, doc):
    f = tmp_path_factory.mktemp("fuzz") / name
    f.write_text(json.dumps(doc))
    return str(f)


class TestMeasureFuzz:
    """`classify --measure`, `potential` and `verify` end in exit 0, 2 or
    3 within 5 s, never in a traceback."""

    @staticmethod
    def assert_bounded(argv):
        code, err, seconds = run_bounded(argv)
        assert code in (0, 2, 3), (argv, err)
        assert "Traceback" not in err
        assert seconds < 5.0

    @settings(max_examples=100)
    @given(doc=measure_documents(), depth=st.integers(0, 3))
    def test_classify_and_potential(self, tmp_path_factory, doc, depth):
        f = _write(tmp_path_factory, "mu.json", doc)
        self.assert_bounded(["classify", "--measure", f, "--depth",
                             str(depth)])
        self.assert_bounded(["potential", f])

    # mostly a valid measure inside a small strip, so that the matrix gets
    # checked
    @settings(max_examples=100)
    @given(matrix=MATRIX_DOCUMENTS, mu=NEAR_CENTRED | measure_documents())
    def test_verify(self, tmp_path_factory, matrix, mu):
        self.assert_bounded(["verify",
                             _write(tmp_path_factory, "matrix.json", matrix),
                             _write(tmp_path_factory, "mu.json", mu)])

    # strips under the hull budget stop at the work budget, about 2 s at
    # the widest, so fewer examples
    @settings(max_examples=12)
    @given(matrix=WIDE_MATRIX_DOCUMENTS)
    def test_verify_wide_strip(self, tmp_path_factory, matrix):
        self.assert_bounded(["verify",
                             _write(tmp_path_factory, "matrix.json", matrix),
                             _write(tmp_path_factory, "mu.json",
                                    {"atoms": {"0": "1"}})])


class TestHullBudget:
    """A command that would tabulate more than MAX_HULL_SITES sites exits
    3 at once, naming the budget."""

    WIDE = '{"atoms": {"-1000000000000": "1/2", "1000000000000": "1/2"}}'

    @pytest.mark.parametrize("argv", [
        ["potential", "MU"],
        ["classify", "--measure", "MU"],
        ["embed", "ay", "MU"],
        ["embed", "chw", "MU"],
        ["embed", "ui-matrix", "MU"],
    ])
    def test_wide_hull(self, capsys, tmp_path, argv):
        p = tmp_path / "mu.json"
        p.write_text(self.WIDE)
        t0 = time.perf_counter()
        code, out = run(capsys, [str(p) if a == "MU" else a for a in argv])
        assert time.perf_counter() - t0 < 5.0
        assert code == 3
        assert out == {"budget": "MAX_HULL_SITES",
                       "reason": "the hull [-1000000000000, 1000000000000] "
                                 "has 2000000000001 sites, more than "
                                 "MAX_HULL_SITES = 65536"}

    def test_wide_strip(self, capsys, tmp_path):
        m, p = tmp_path / "m.json", tmp_path / "mu.json"
        m.write_text('{"N": 100000000, "rows": []}')
        p.write_text('{"atoms": {"0": "1"}}')
        code, out = run(capsys, ["verify", str(m), str(p)])
        assert code == 3
        assert out == {"status": "inconclusive", "site": None, "stage": None,
                       "detail": "the hull [-100000001, 100000001] has "
                                 "200000003 sites, more than "
                                 "MAX_HULL_SITES = 65536"}
        r = tmp_path / "rule.json"
        r.write_text('{"kind": "pathCountMatrix", "payload": '
                     '{"N": 100000000, "rows": []}}')
        code, out = run(capsys, ["exact-law", str(r)])
        assert code == 3
        assert out["budget"] == "MAX_HULL_SITES"

    def test_pair_and_minimal_rules_need_no_hull(self, capsys, tmp_path):
        p = tmp_path / "mu.json"
        p.write_text(self.WIDE)
        for method in ("hall", "minimal"):
            assert main(["embed", method, str(p)]) == 0
        capsys.readouterr()


class TestHallPairBudget:
    """`embed hall` builds one pair per atom below 0 and atom at or above
    it; past MAX_HALL_PAIRS it exits 3 before it builds any."""

    @staticmethod
    def _uniform(tmp_path, sites):
        p = tmp_path / "mu.json"
        p.write_text(json.dumps(
            {"atoms": {str(k): f"1/{len(sites)}" for k in sites}}))
        return str(p)

    def test_past_budget_exits_3(self, capsys, tmp_path):
        mu = self._uniform(tmp_path, range(-2000, 2001))
        with alarm(5.0):
            code, out = run(capsys, ["embed", "hall", mu])
        assert code == 3
        assert out == {"budget": "MAX_HALL_PAIRS",
                       "reason": "2000 atoms below 0 and 2001 at or above "
                                 "make 4002000 pairs, more than "
                                 "MAX_HALL_PAIRS = 250000"}

    def test_at_budget_embeds(self, capsys, tmp_path):
        side = math.isqrt(classic.MAX_HALL_PAIRS)
        assert side * side == classic.MAX_HALL_PAIRS
        sites = [*range(-side, 0), *range(1, side + 1)]
        code, out = run(capsys, ["embed", "hall", self._uniform(tmp_path, sites)])
        assert code == 0
        assert len(out["payload"]) == classic.MAX_HALL_PAIRS


def _parse_by_top_level(argv):
    """The reference parse: argv through the top-level parser, which hands
    the rest to the command's parser."""
    return cli.build_parser().parse_args(cli._join_negative_rationals(argv))


def _outcome(argv):
    """(exit code, stdout, stderr) of main(argv), an argparse exit
    included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestParsePath:
    """A known command is parsed by its own parser alone, with the same
    exit code, stdout and stderr as through the top-level parser."""

    ARGVS = [
        [], ["-h"], ["--help"], ["--he"], ["-h", "classify"],
        ["nosuch"], ["nosuch", "--weight", "1/6"],
        ["--", "classify", "--weight", "1/6"],
        ["classify"], ["classify", "-h"], ["embed", "--help"],
        ["classify", "--weight", "1/6"],
        ["classify", "--weight", "1/6", "junk"],
        ["classify", "--weight", "1/6", "--junk", "x"],
        ["classify", "--wei", "1/6"],
        ["classify", "--weight", "1/6", "--triple", "1/4,1/2,1/4"],
        ["classify", "--weight", "1/6", "--depth", "-1"],
        ["classify", "--weight", "1/6", "--depth", "x"],
        ["classify", "--weight", "-1/6"],
        ["embed", "nosuch", "MU"], ["embed", "ay"],
        ["embed", "ay", "MU", "extra1", "extra2"],
        ["embed", "chw", "MU", "--depth", "2"],
        ["potential", "MU", "--", "x"],
        ["set", "--point", "-1/2"], ["set", "--point=-1/2"],
        ["set", "--point", "-1/2", "--depth", "3", "junk"],
        ["set", "--point", "--depth", "3"],
        ["exact-law"], ["verify", "MU"],
        ["simulate", "MU", "--trials", "many"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_matches_top_level(self, monkeypatch, mu_516, argv):
        argv = [mu_516 if a == "MU" else a for a in argv]
        outcome = _outcome(argv)
        monkeypatch.setattr(cli, "_parse", _parse_by_top_level)
        assert outcome == _outcome(argv)

    def test_known_command_skips_top_level(self, monkeypatch, mu_516):
        _outcome([])  # builds the parser
        calls = []
        parse = cli._parser.parse_known_args
        monkeypatch.setattr(cli._parser, "parse_known_args",
                            lambda *a, **k: calls.append(a) or parse(*a, **k))
        for argv in (["classify", "--weight", "1/6"],
                     ["classify", "--weight", "1/6", "junk"],
                     ["embed", "minimal", mu_516], ["set", "--point", "-1/2"]):
            _outcome(argv)
        assert calls == []
        assert _outcome(["nosuch"])[0] == 2
        assert len(calls) == 1
