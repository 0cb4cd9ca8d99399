"""Graded tensor products over embedded subalgebras, computed as
coequalizers, against cases with independently known answers; and the
free module bases against a reference enumerator."""

import old_pair_numbering as numbered
import old_tensor_dim as old
import pytest

from quiverhecke import checks
from quiverhecke.bimodules import emb_elt_last
from quiverhecke.cartan import Weight, build_cartan, seqs_of, weighted_comps
from quiverhecke.checks import DESK, _betas_upto
from quiverhecke.cyclotomic import CycAlgebra, free_space
from quiverhecke.klr import (
    BasisMonomial,
    crossing_degree,
    left_seq,
    min_tau_degree,
)
from quiverhecke.laurent import LaurentPoly
from quiverhecke.perms import all_perms, canonical_word
from quiverhecke.qpolys import QSpec
from quiverhecke.tensors import (
    TruncationModule,
    algebra_gens,
    tensor_dim,
    tensor_dim_poly,
)

A1 = build_cartan(("0",), [[2]])
A2 = build_cartan(("1", "2"), [[2, -1], [-1, 2]])
B2 = build_cartan(("s", "l"), [[2, -2], [-1, 2]])
# Q_12(u, v) = u + 2v: not the standard table, and not symmetric in u, v
A2_U2V = QSpec(A2, {(0, 1): {(1, 0): 1, (0, 1): 2}})


def ident(elt):
    return elt


def basis_monomials(datum, beta, d):
    """The free basis enumerator that the module classes replaced, kept
    verbatim as the reference: all basis monomials of R(beta) of degree
    d, over every right sequence and every permutation, canonically
    ordered."""
    n = sum(beta)
    out = []
    for seq in seqs_of(beta):
        weights = [datum.form(i, i) for i in seq]
        for w in all_perms(n):
            tdeg = crossing_degree(datum, w, seq)
            word = canonical_word(w)
            for exps in weighted_comps(weights, d - tdeg):
                out.append(BasisMonomial(word, exps, seq))
    out.sort(key=BasisMonomial.sort_key)
    return out


def free_module(datum, beta, side, seqs, emb=ident):
    """R(beta) e(seqs) (side "right") or e(seqs) R(beta) (side "left")."""
    every = seqs_of(beta)
    rows, cols = (every, seqs) if side == "right" else (seqs, every)
    return TruncationModule(free_space(datum, beta), rows, cols, side, emb)


def quotient_module(alg, side, seqs, emb=ident):
    """The same truncation of a cyclotomic quotient, each block built in
    every nonzero degree of the quotient."""
    cut = [nu for nu in alg.alive if nu in seqs]
    rows, cols = (alg.alive, cut) if side == "right" else (cut, alg.alive)
    dims = alg.graded_dims()
    return TruncationModule(alg.space, rows, cols, side, emb,
                            {(lam, mu): dims for lam in rows for mu in cols})


DESK_DATA = sorted({row[0] for _, _, rows in DESK.values()
                    for row in rows}, key=lambda datum: datum.labels)


def test_free_module_bases_match_the_reference_enumerator():
    # every desk datum and beta of at most three strands, from the least
    # crossing degree up to degree ten, on both sides, cut to every other
    # sequence and uncut; B2 has dots of two degrees, so a dot weight
    # read from the wrong sequence shows
    cases = 0
    for datum in DESK_DATA + [B2]:
        for beta in _betas_upto(datum.rank, 3):
            seqs = seqs_of(beta)[::2]
            right = free_module(datum, beta, "right", seqs)
            left = free_module(datum, beta, "left", seqs)
            whole = free_module(datum, beta, "right", seqs_of(beta))
            for d in range(min_tau_degree(datum, beta), 11):
                ref = basis_monomials(datum, beta, d)
                assert right.basis(d) == [m for m in ref if m.seq in seqs]
                assert left.basis(d) == [m for m in ref
                                         if left_seq(m) in seqs]
                assert whole.basis(d) == ref
                cases += 1
    assert cases == 452


def test_algebra_gens_are_homogeneous():
    from quiverhecke.klr import get_engine

    eng = get_engine(A2, 2)
    for elt, deg in algebra_gens(A2, (1, 1)):
        for m in elt:
            assert eng.monomial_degree(m) == deg


def test_left_seq_crosses_colors():
    m = free_module(A2, (1, 1), "right", seqs_of((1, 1))).basis(1)[0]
    if m.word:
        assert left_seq(m) != m.seq or m.seq[0] == m.seq[1]


def test_free_self_tensor_is_identity():
    # R(beta) tensored with itself over all of R(beta) collapses to
    # R(beta); the equal-color case makes the crossing generator have
    # negative degree, which the relation scan must still reach
    for datum, beta in ((A2, (1, 1)), (A1, (2,))):
        cols = seqs_of(beta)
        M = free_module(datum, beta, "right", cols)
        N = free_module(datum, beta, "left", cols)
        gens = algebra_gens(datum, beta)
        for d in range(-2, 5):
            want = len(basis_monomials(datum, beta, d))
            assert tensor_dim(M, N, gens, d) == want


def test_cyclotomic_self_tensor_is_identity():
    alg = CycAlgebra(A1, Weight((2,)), (2,))
    cols = seqs_of((2,))
    M = quotient_module(alg, "right", cols)
    N = quotient_module(alg, "left", cols)
    gens = algebra_gens(A1, (2,))
    window = (alg.dmin, alg.dmax)
    got = tensor_dim_poly(M, N, gens, window)
    assert got == alg.graded_dim_poly()


def test_tensor_over_trivial_subalgebra_multiplies_dimensions():
    # acting only through idempotents, the coequalizer is the plain
    # product of graded vector spaces
    alg = CycAlgebra(A1, Weight((2,)), (1,))
    cols = seqs_of((1,))
    M = quotient_module(alg, "right", cols)
    N = quotient_module(alg, "left", cols)
    idems = [g for g in algebra_gens(A1, (1,)) if g[1] == 0]
    got = tensor_dim_poly(M, N, idems, (0, 4))
    assert got == LaurentPoly({0: 1, 2: 2, 4: 1})
    square = alg.graded_dim_poly() * alg.graded_dim_poly()
    assert got == square


def test_relations_cut_the_plain_product():
    # the same pair of modules, tensored over the full algebra instead
    # of just its idempotents, collapses from the product of dimensions
    # back down to the algebra itself
    alg = CycAlgebra(A1, Weight((2,)), (1,))
    cols = seqs_of((1,))
    M = quotient_module(alg, "right", cols)
    N = quotient_module(alg, "left", cols)
    gens = algebra_gens(A1, (1,))
    got = tensor_dim_poly(M, N, gens, (0, 4))
    assert got == alg.graded_dim_poly()
    assert got == LaurentPoly({0: 1, 2: 1})


def is_unit(gelt):
    """Whether the generator gelt is an idempotent e(nu)."""
    (m, _), *rest = gelt.items()
    return not rest and not m.word and not any(m.exps)


def compared_with_the_reference(calls, seen, *, recompute=True):
    """tensor_dim_poly, checked against tests/old_pair_numbering.py, which
    numbers every pair and relates it by every generator, and, unless
    recompute is False, against tests/old_tensor_dim.py, which also
    recomputes the module actions at every degree and keys its relations
    by (degree, sort key, sort key).  The act calls that the new run
    makes go to `calls`, cleared first, and each result to `seen`.  The
    new run calls act at most once per module, generator and monomial,
    and never by an idempotent generator."""
    def both(M, N, gens, window):
        calls.clear()
        got = tensor_dim_poly(M, N, gens, window)
        assert len(set(calls)) == len(calls)
        assert [call for call in calls if call[-1]] == []
        assert got == numbered.tensor_dim_poly(M, N, gens, window)
        if recompute:
            assert got == old.tensor_dim_poly(M, N, gens, window)
        seen.append(got)
        return got
    return both


def counting_acts(monkeypatch):
    """The list that each TruncationModule.act call appends its
    (module, generator, monomial, whether the generator is an
    idempotent) to."""
    calls = []
    act = TruncationModule.act

    def counted(module, m, gelt):
        calls.append((id(module), id(gelt), m, is_unit(gelt)))
        return act(module, m, gelt)

    monkeypatch.setattr(TruncationModule, "act", counted)
    return calls


def test_shared_action_memo_matches_recomputation(monkeypatch):
    # the F E tensors of the sl2, phi, exact and mixed desk instances, with
    # the module actions memoized across the window and recomputed at
    # every degree as in tests/old_tensor_dim.py
    seen = []
    monkeypatch.setattr(checks, "tensor_dim_poly", compared_with_the_reference(
        counting_acts(monkeypatch), seen))
    cases = set()
    for suite in ("sl2", "phi", "exact", "mixed"):
        for th in checks.CHECKS[suite]():
            datum, weight, beta, i, *j = th.args
            cases.add((datum, weight, beta, i, j[0] if j else i))
    assert (checks.A1, Weight((3,)), (3,), 0, 0) in cases
    for datum, weight, beta, i, j in sorted(cases, key=repr):
        checks._fe_tensor(datum, beta, i, j,
                          checks._quotient_modules(datum, weight, None))
    # 57 tensors reach tensor_dim_poly, 18 of them nonzero
    assert (len(seen), sum(1 for got in seen if got.coeffs)) == (57, 18)


def test_suite_tensors_match_the_reference(monkeypatch):
    # every tensor the convolution and categorification suites take:
    # free modules with no top degree, the front strand embedding of the
    # shifted tower, and the sl2 sides of every quotient up to the desk's
    # strand counts
    seen = []
    monkeypatch.setattr(checks, "tensor_dim_poly", compared_with_the_reference(
        counting_acts(monkeypatch), seen))
    for suite in ("convolution", "categorification"):
        assert {r.status for r in checks.run_check(suite)} == {"pass"}
    # 46 tensors reach tensor_dim_poly, 29 of them nonzero
    assert (len(seen), sum(1 for got in seen if got.coeffs)) == (46, 29)


@pytest.mark.parametrize("datum, qspec", [(B2, None), (A2, A2_U2V)],
                         ids=["B2", "A2-u+2v"])
def test_off_desk_tensors_match_the_reference(monkeypatch, datum, qspec):
    # B2 has dots of two degrees and A2 a table that is neither standard
    # nor symmetric: the F_j E_i tensors of every quotient at Lambda=(1,1)
    # up to three strands, and the free tensors of convolution, the
    # shifted tower among them, up to two strands and on the mixed three
    # strand betas
    seen = []
    monkeypatch.setattr(checks, "tensor_dim_poly", compared_with_the_reference(
        counting_acts(monkeypatch), seen, recompute=False))
    colors = range(datum.rank)
    module_of = checks._quotient_modules(datum, Weight((1, 1)), qspec)
    for beta in _betas_upto(datum.rank, 3):
        for i in colors:
            for j in colors:
                checks._fe_tensor(datum, beta, i, j, module_of)
    for beta in _betas_upto(datum.rank, 3):
        if sum(beta) == 3 and 0 in beta:
            continue  # four free strands of one colour take seconds
        cap = 6 if sum(beta) < 3 else 1
        for i in colors:
            for j in colors:
                rep = checks.check_convolution(datum, beta, i, j, cap, qspec)
                assert rep.status == "pass"
    assert (len(seen), sum(1 for got in seen if got.coeffs)) == (54, 40)


def test_a_column_off_the_embedding_raises():
    # M's columns must each be emb(e(nu)) for an idempotent e(nu) of the
    # acting algebra; the column (1, 0) of R(1,1) does not end in the
    # added strand 1, and the numbered pairs count it without a word
    sub, beta = (1, 0), (1, 1)
    M = free_module(A2, beta, "right", [(0, 1), (1, 0)],
                    lambda elt: emb_elt_last(elt, 1))
    N = free_module(A2, beta, "left", [(0, 1)],
                    lambda elt: emb_elt_last(elt, 1))
    gens = algebra_gens(A2, sub)
    assert numbered.tensor_dim(M, N, gens, 0) == 1
    with pytest.raises(ValueError, match=r"\(1, 0\), which embeds no"):
        tensor_dim(M, N, gens, 0)
    with pytest.raises(ValueError, match="embeds no idempotent"):
        tensor_dim_poly(M, N, gens, (0, 2))


def test_a_generator_on_two_idempotents_raises():
    # x_1 (e(0,1) + e(1,0)) acts on two summands at once, so its rows
    # are not confined to the pairs on one idempotent
    beta = (1, 1)
    cols = seqs_of(beta)
    M = free_module(A2, beta, "right", cols)
    N = free_module(A2, beta, "left", cols)
    dot = {BasisMonomial((), (1, 0), nu): 1 for nu in cols}
    gens = algebra_gens(A2, beta) + [(dot, 2)]
    assert numbered.tensor_dim(M, N, gens, 2) == 4
    with pytest.raises(ValueError, match="not idempotent-homogeneous"):
        tensor_dim(M, N, gens, 2)
    # with no idempotent generators the summands are not known either
    bare = [g for g in algebra_gens(A2, beta) if not is_unit(g[0])]
    with pytest.raises(ValueError, match="is not a generator"):
        tensor_dim(M, N, bare, 2)
