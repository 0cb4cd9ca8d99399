"""The verification suites: representative instances of each check,
report structure, and determinism of repeated runs."""

import json
from functools import partial

import pytest

import quiverhecke.checks as checks_mod
from quiverhecke import cyclotomic, klr
from quiverhecke.bimodules import Bimodules
from quiverhecke.cartan import Weight, build_cartan, weighted_comps
from quiverhecke.checks import (
    CHECKS,
    Report,
    _compare,
    check_categorification,
    check_convolution,
    check_exact,
    check_mixed,
    check_pbw,
    check_phi,
    check_sl2,
    check_taug,
    run_check,
    run_timed,
)
from quiverhecke.cyclotomic import CertificationError, CycAlgebra, IdealSpace
from quiverhecke.klr import BasisMonomial, crossing_degree
from quiverhecke.laurent import LaurentPoly
from quiverhecke.perms import canonical_word
from quiverhecke.qpolys import QSpec
from quiverhecke.simples import SimpleCount

A1 = build_cartan(("0",), [[2]])
A2 = build_cartan(("1", "2"), [[2, -1], [-1, 2]])
A1AFF = build_cartan(("0", "1"), [[2, -2], [-2, 2]])


def test_registry_names():
    assert sorted(CHECKS) == [
        "categorification",
        "convolution",
        "exact",
        "mixed",
        "pbw",
        "phi",
        "sl2",
        "taug",
    ]


def test_pbw_passes():
    rep = check_pbw(A2, (2, 1), degcap=8)
    assert rep.status == "pass"
    assert rep.name == "pbw"


def test_taug_passes():
    rep = check_taug(A1, Weight((2,)), (1,), 0)
    assert rep.status == "pass"


def test_taug_reports_a_wrong_p_after_q(monkeypatch):
    pq_poly = Bimodules.pq_poly
    monkeypatch.setattr(Bimodules, "pq_poly", lambda self: {
        m: 2 * c for m, c in pq_poly(self).items()})
    rep = check_taug(A2, Weight((1, 0)), (1, 1), 0)
    assert rep.status == "fail"
    fails = [w for w in rep.witness if w.get("kind") == "counterexample"]
    assert [(w["nu"], w["identity"]) for w in fails] == [
        ([0, 1], "P after Q")]
    # Q after P is untouched and still passes on every column
    assert [w for w in rep.witness if w.get("ok")] == [
        {"nu": [0, 1], "ok": True}, {"nu": [1, 0], "ok": True}]


def test_exact_passes():
    rep = check_exact(A2, Weight((1, 0)), (1, 1), 0)
    assert rep.status == "pass"
    assert "window" in rep.inputs


def test_sl2_both_signs():
    # positive pairing
    up = check_sl2(A1, Weight((3,)), (1,), 0)
    assert up.status == "pass"
    # negative pairing
    down = check_sl2(A1, Weight((1,)), (2,), 0)
    assert down.status == "pass"


def test_mixed_passes():
    rep = check_mixed(A2, Weight((1, 1)), (1, 1), 0, 1)
    assert rep.status == "pass"


def test_phi_passes():
    rep = check_phi(A2, Weight((1, 1)), (1, 0), 1, kmax=3)
    assert rep.status == "pass"


def test_convolution_passes():
    rep = check_convolution(A2, (1, 0), 0, 1, degcap=6)
    assert rep.status == "pass"
    same = check_convolution(A1, (1,), 0, 0, degcap=6)
    assert same.status == "pass"


def test_convolution_builds_every_algebra_on_the_given_table(monkeypatch):
    # the free algebra's PBW basis does not depend on Q, so every A2
    # instance passes on Q_12 = u + 2v; each engine it asks for must
    # carry that table, the corners' included
    given = QSpec(A2, {(0, 1): {(1, 0): 1, (0, 1): 2}})
    tables = set()

    def get_engine(datum, n, qspec=None):
        eng = klr.get_engine(datum, n, qspec)
        tables.add(eng.qspec)
        return eng

    monkeypatch.setattr(cyclotomic, "get_engine", get_engine)
    for thunk in CHECKS["convolution"]():
        if thunk.args[0] == A2:
            assert thunk(qspec=given).status == "pass"
    assert tables == {given}


def test_categorification_passes():
    rep = check_categorification(A1, Weight((2,)), 2)
    assert rep.status == "pass"


def _raise_certification_error(datum, weight, beta, qspec=None):
    raise CertificationError(f"last-strand relation not in ideal: {beta}")


def _cap_below_top(datum, weight, beta, qspec=None):
    return max(CycAlgebra(datum, weight, beta, qspec).graded_dims()) - 1


@pytest.mark.parametrize("fake,identity", [
    (_raise_certification_error, "last-strand relation"),
    (_cap_below_top, "tower bound"),
], ids=["not-in-ideal", "cap-below-top"])
def test_categorification_reports_a_broken_tower_bound(monkeypatch, fake,
                                                       identity):
    monkeypatch.setattr(checks_mod, "certified_cap", fake)
    rep = check_categorification(A1, Weight((2,)), 2)
    assert rep.status == "fail"
    rows = [row for row in rep.witness if row.get("kind") == "counterexample"]
    # one row per beta: (), (1,) and (2,) are all nonzero quotients
    assert [row["beta"] for row in rows] == [[0], [1], [2]]
    assert {row["identity"] for row in rows} == {identity}
    json.dumps(rep.to_json())


def test_categorification_fails_a_center_that_does_not_split(monkeypatch):
    # the simples of a cyclotomic quotient are absolutely irreducible, so
    # a center that does not split over Q is a fault, not a note
    monkeypatch.setattr(checks_mod, "count_simples",
                        lambda alg: SimpleCount(1, False, 4, 0, 2))
    rep = check_categorification(A1, Weight((2,)), 2)
    assert rep.status == "fail"
    rows = [row for row in rep.witness if row.get("kind") == "counterexample"]
    assert [row["beta"] for row in rows] == [[0], [1], [2]]
    assert {row["identity"] for row in rows} == {"centre splits over Q"}
    json.dumps(rep.to_json())


def test_report_shape_and_determinism():
    a = check_taug(A1, Weight((1,)), (1,), 0).to_json()
    b = check_taug(A1, Weight((1,)), (1,), 0).to_json()
    for rep in (a, b):
        assert set(rep) == {
            "name", "inputs", "status", "fail_degree", "witness",
            "elapsed_ms",
        }
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_check_counts():
    reports = run_check("phi")
    assert len(reports) == 39
    assert all(r.status == "pass" for r in reports)
    assert all(r.elapsed_ms >= 0 for r in reports)


def test_a_raising_instance_is_an_error_report():
    def boom(datum, weight, beta, i, kmax=4):
        raise ValueError("no such strand")

    rep = run_timed(partial(boom, A2, Weight((1, 0)), (1, 1), 0, kmax=2))
    assert rep.status == "error"
    assert rep.name == "boom"
    assert rep.inputs == {"labels": ["1", "2"], "levels": [1, 0],
                          "beta": [1, 1], "i": 0, "kmax": 2}
    assert rep.witness == [{"kind": "error", "type": "ValueError",
                            "message": "no such strand"}]
    assert rep.elapsed_ms >= 0
    json.dumps(rep.to_json())


def test_a_broken_dead_sequence_bound_reports_an_error(monkeypatch):
    # declaring the one live sequence of R^(2)(alpha) dead fails when the
    # quotient is built, and the instance reports it instead of raising
    monkeypatch.setattr(cyclotomic, "alive_seqs", lambda beta, table: ())
    rep = run_timed(partial(check_sl2, A1, Weight((2,)), (1,), 0))
    assert rep.status == "error"
    assert rep.name == "sl2"
    assert rep.inputs == {"labels": ["0"], "levels": [2], "beta": [1],
                          "i": 0}
    assert [w["type"] for w in rep.witness] == ["AssertionError"]


# the keys a suite adds to its inputs after building its report
ADDED_INPUTS = {"exact": {"window"}, "sl2": {"pairing"}, "phi": {"pairing"}}


def test_an_error_row_renders_the_inputs_of_the_pass_report():
    # one renderer: the error row of every desk thunk binds the same
    # arguments, defaults included, as its suite's report
    for name in sorted(CHECKS):
        for thunk in CHECKS[name]():
            got = thunk().inputs
            err = checks_mod._error_report(thunk, ValueError("x")).inputs
            assert got.keys() - err.keys() == ADDED_INPUTS.get(name, set())
            assert {k: v for k, v in got.items() if k in err} == err


# Q_12(u, v) = u + 2v: not the standard table, and not symmetric in u, v
A2_TWISTED = QSpec(A2, {(0, 1): {(1, 0): 1, (0, 1): 2}})


def test_a_table_reaches_pass_and_error_reports(monkeypatch):
    thunk = partial(check_taug, A2, Weight((1, 0)), (1, 0), 0,
                    qspec=A2_TWISTED)
    rep = thunk()
    assert rep.status == "pass"
    assert rep.inputs["qspec"] == A2_TWISTED.describe()

    def broken(*args, **kwargs):
        raise RuntimeError("no bimodules")

    monkeypatch.setattr(checks_mod, "Bimodules", broken)
    err = run_timed(thunk)
    assert err.status == "error"
    row = json.loads(json.dumps(err.to_json()))
    assert row["inputs"]["qspec"] == A2_TWISTED.describe()
    assert row["inputs"] == rep.inputs
    # with no table, none is rendered
    assert "qspec" not in run_timed(partial(check_taug, A2, Weight((1, 0)),
                                            (1, 0), 0)).inputs


def test_compare_fails_at_the_first_differing_degree():
    rep = Report("x", {})
    lhs = LaurentPoly({0: 1, 1: 2, 2: 3})
    rhs = LaurentPoly({0: 1, 1: 5, 2: 4, 7: 1})
    assert _compare(rep, lhs, rhs, range(-1, 1), "same") is True
    assert rep.status == "pass" and rep.witness == []
    assert _compare(rep, lhs, rhs, range(-1, 3), "first", nu=[0]) is False
    assert rep.status == "fail"
    assert rep.fail_degree == 1
    assert rep.witness == [{"kind": "counterexample", "degree": 1, "lhs": 2,
                            "rhs": 5, "identity": "first", "nu": [0]}]
    # the degrees are walked in the order given
    assert _compare(rep, lhs, rhs, [7, 2], "second") is False
    assert rep.witness[-1]["degree"] == 7
    assert rep.fail_degree == 1


def _columns_from_the_transporter_lam_to_mu(self, lam, mu, d):
    return _mutant_columns(self, lam, mu, d, self.transporter(lam, mu), mu)


def _columns_with_the_crossing_degree_on_lam(self, lam, mu, d):
    return _mutant_columns(self, lam, mu, d, self.transporter(mu, lam), lam)


def _mutant_columns(self, lam, mu, d, perms, deg_seq):
    """IdealSpace.block_columns with its permutations and the sequence
    its crossing degree is taken on passed in."""
    datum = self.engine.datum
    weights = [datum.form(i, i) for i in mu]
    cols = [BasisMonomial(canonical_word(w), exps, mu) for w in perms
            for exps in weighted_comps(
                weights, d - crossing_degree(datum, w, deg_seq))]
    return sorted(cols, key=BasisMonomial.sort_key)


@pytest.mark.parametrize("mutant", [
    _columns_from_the_transporter_lam_to_mu,
    _columns_with_the_crossing_degree_on_lam,
], ids=["transporter-lam-to-mu", "crossing-degree-on-lam"])
def test_pbw_sees_a_block_enumerated_from_the_wrong_side(monkeypatch,
                                                         mutant):
    # summed over all blocks both mutants cancel; block by block they do
    # not, on the two 3-strand betas of A2 and of affine A1
    monkeypatch.setattr(IdealSpace, "block_columns", mutant)
    reports = run_check("pbw")
    failed = [(r.inputs["labels"], r.inputs["beta"]) for r in reports
              if r.status == "fail"]
    assert failed == [(["1", "2"], [1, 2]), (["1", "2"], [2, 1]),
                      (["0", "1"], [1, 2]), (["0", "1"], [2, 1])]
    rows = [w for r in reports for w in r.witness]
    assert {w["identity"] for w in rows} == {"block"}
    assert len(rows) == 16
