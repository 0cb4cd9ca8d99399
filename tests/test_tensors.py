"""Graded tensor products over embedded subalgebras, computed as
coequalizers, against cases with independently known answers."""

from quiverhecke.cartan import Weight, build_cartan
from quiverhecke.cyclotomic import CycAlgebra
from quiverhecke.klr import basis_monomials, left_seq, seqs_of
from quiverhecke.laurent import LaurentPoly
from quiverhecke.tensors import (
    TruncationModule,
    algebra_gens,
    tensor_dim,
    tensor_dim_poly,
)

A1 = build_cartan(("0",), [[2]])
A2 = build_cartan(("1", "2"), [[2, -1], [-1, 2]])


def ident(elt):
    return elt


def test_algebra_gens_are_homogeneous():
    from quiverhecke.klr import get_engine

    eng = get_engine(A2, 2)
    for elt, deg in algebra_gens(A2, (1, 1)):
        for m in elt:
            assert eng.monomial_degree(m) == deg


def test_left_seq_crosses_colors():
    m = basis_monomials(A2, (1, 1), 1)[0]
    if m.word:
        assert left_seq(m) != m.seq or m.seq[0] == m.seq[1]


def test_free_self_tensor_is_identity():
    # R(beta) tensored with itself over all of R(beta) collapses to
    # R(beta); the equal-color case makes the crossing generator have
    # negative degree, which the relation scan must still reach
    for datum, beta in ((A2, (1, 1)), (A1, (2,))):
        cols = set(seqs_of(beta))
        M = TruncationModule("right", cols, ident, datum=datum, beta=beta)
        N = TruncationModule("left", cols, ident, datum=datum, beta=beta)
        gens = algebra_gens(datum, beta)
        for d in range(-2, 5):
            want = len(basis_monomials(datum, beta, d))
            assert tensor_dim(M, N, gens, d, dmax_m=6) == want


def test_cyclotomic_self_tensor_is_identity():
    alg = CycAlgebra(A1, Weight((2,)), (2,))
    cols = set(seqs_of((2,)))
    M = TruncationModule("right", cols, ident, alg)
    N = TruncationModule("left", cols, ident, alg)
    gens = algebra_gens(A1, (2,))
    window = (alg.dmin, alg.dmax)
    got = tensor_dim_poly(M, N, gens, window, dmax_m=alg.dmax)
    assert got == alg.graded_dim_poly()


def test_tensor_over_trivial_subalgebra_multiplies_dimensions():
    # acting only through idempotents, the coequalizer is the plain
    # product of graded vector spaces
    alg = CycAlgebra(A1, Weight((2,)), (1,))
    cols = set(seqs_of((1,)))
    M = TruncationModule("right", cols, ident, alg)
    N = TruncationModule("left", cols, ident, alg)
    idems = [g for g in algebra_gens(A1, (1,)) if g[1] == 0]
    got = tensor_dim_poly(M, N, idems, (0, 4), dmax_m=alg.dmax)
    assert got == LaurentPoly({0: 1, 2: 2, 4: 1})
    square = alg.graded_dim_poly() * alg.graded_dim_poly()
    assert got == square


def test_relations_cut_the_plain_product():
    # the same pair of modules, tensored over the full algebra instead
    # of just its idempotents, collapses from the product of dimensions
    # back down to the algebra itself
    alg = CycAlgebra(A1, Weight((2,)), (1,))
    cols = set(seqs_of((1,)))
    M = TruncationModule("right", cols, ident, alg)
    N = TruncationModule("left", cols, ident, alg)
    gens = algebra_gens(A1, (1,))
    got = tensor_dim_poly(M, N, gens, (0, 4), dmax_m=alg.dmax)
    assert got == alg.graded_dim_poly()
    assert got == LaurentPoly({0: 1, 2: 1})
