"""Cartan data: symmetrizers, the bilinear form, weights, and the
weighted compositions of a degree."""

import itertools
import random

import pytest

from old_cartan import build_cartan as old_build_cartan
from quiverhecke.cartan import Weight, build_cartan, seqs_of, weighted_comps


def test_a2_form():
    d = build_cartan(("1", "2"), [[2, -1], [-1, 2]])
    assert d.rank == 2
    assert d.form(0, 0) == 2
    assert d.form(1, 1) == 2
    assert d.form(0, 1) == d.form(1, 0) == -1


def test_b2_form_asymmetric_matrix():
    # a_{01} = -2, a_{10} = -1 forces d = (1, 2) up to scale
    d = build_cartan(("s", "l"), [[2, -2], [-1, 2]])
    assert d.form(0, 0) == 2
    assert d.form(1, 1) == 4
    assert d.form(0, 1) == d.form(1, 0) == -2
    # (alpha_i | alpha_j) = d_i a_{ij} both ways around
    assert d.form(0, 1) == 1 * (-2)
    assert d.form(1, 0) == 2 * (-1)


def test_g2_form():
    d = build_cartan(("a", "b"), [[2, -3], [-1, 2]])
    assert d.form(0, 0) == 2
    assert d.form(1, 1) == 6
    assert d.form(0, 1) == -3


def test_affine_a1_form():
    d = build_cartan(("0", "1"), [[2, -2], [-2, 2]])
    assert d.form(0, 0) == d.form(1, 1) == 2
    assert d.form(0, 1) == -2


def test_form_beta_bilinear():
    d = build_cartan(("1", "2"), [[2, -1], [-1, 2]])
    # (a1 + a2 | a1 + a2) = 2 + 2 - 2 = 2
    assert d.form_beta((1, 1), (1, 1)) == 2
    assert d.form_beta((2, 1), (0, 1)) == 2 * (-1) + 1 * 2


def test_index_of():
    d = build_cartan(("x", "y"), [[2, -1], [-1, 2]])
    assert d.index_of("y") == 1
    with pytest.raises(ValueError):
        d.index_of("z")


def test_rejects_bad_matrices():
    with pytest.raises(ValueError):
        build_cartan(("1",), [[1]])  # diagonal must be 2
    with pytest.raises(ValueError):
        build_cartan(("1", "2"), [[2, 1], [-1, 2]])  # positive off-diagonal
    with pytest.raises(ValueError):
        build_cartan(("1", "2"), [[2, -1], [0, 2]])  # zero pattern asymmetric
    with pytest.raises(ValueError):
        build_cartan(("1", "2"), [[2, -1], [-1, 2], [0, 0]])  # not square
    with pytest.raises(ValueError, match="not symmetrizable"):
        # d_0 = 2 d_1 and d_0 = d_2 along two edges, d_1 = d_2 on the third
        build_cartan("abc", [[2, -1, -1], [-2, 2, -1], [-1, -1, 2]])


@pytest.mark.parametrize("matrix, sym", [
    # A1 x B2 and G2 x B2: each component is scaled on its own
    ([[2, 0, 0], [0, 2, -2], [0, -1, 2]], (1, 1, 2)),
    ([[2, -3, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -2, 2]],
     (1, 3, 2, 1)),
    # A_2^(2), B3 and C3
    ([[2, -4], [-1, 2]], (1, 4)),
    ([[2, -1, 0], [-1, 2, -2], [0, -1, 2]], (1, 1, 2)),
    ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], (2, 2, 1)),
])
def test_symmetrizer_coprime_per_component(matrix, sym):
    assert build_cartan(range(len(matrix)), matrix).sym == sym


def _outcome(build, matrix):
    """The datum `build` makes of matrix, or its ValueError message."""
    try:
        return build(range(len(matrix)), matrix)
    except ValueError as exc:
        return str(exc)


def _square(n, offdiag):
    it = iter(offdiag)
    return [[2 if i == j else next(it) for j in range(n)] for i in range(n)]


def _sampled_matrix(rng, n):
    """A rank-n matrix with a symmetric zero pattern: symmetrizable by a
    drawn d for about half the draws, with free entries for the rest."""
    d = [rng.choice((1, 2, 3)) for _ in range(n)]
    sound = rng.random() < 0.5
    mat = [[2] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < 0.4:
            mat[i][j] = mat[j][i] = 0
        elif sound:
            s = rng.choice((1, 2)) * d[i] * d[j]
            mat[i][j], mat[j][i] = -s // d[i], -s // d[j]
        else:
            mat[i][j], mat[j][i] = rng.randint(-4, -1), rng.randint(-4, -1)
    return mat


def test_symmetrizer_matches_component_search():
    # every rank <= 3 matrix with off-diagonal entries in {0, ..., -3},
    # then a seeded sample at rank 4 and 5
    matrices = [_square(n, offdiag) for n in (1, 2, 3)
                for offdiag in itertools.product(range(0, -4, -1),
                                                 repeat=n * (n - 1))]
    rng = random.Random(17)
    matrices += [_sampled_matrix(rng, rng.choice((4, 5)))
                 for _ in range(2000)]
    outcomes = set()
    for mat in matrices:
        new = _outcome(build_cartan, mat)
        assert new == _outcome(old_build_cartan, mat), mat
        outcomes.add(new if isinstance(new, str) else "datum")
    # both the walk's raise and its scaling are reached
    assert {"datum", "Cartan matrix is not symmetrizable"} <= outcomes


def test_weight_level_and_pairing():
    d = build_cartan(("1", "2"), [[2, -1], [-1, 2]])
    rho = Weight((1, 1))
    assert rho.level(0) == 1 and rho.level(1) == 1
    # (Lambda | beta) = sum_i beta_i d_i <h_i, Lambda>
    assert rho.pair_beta(d, (1, 0)) == 1
    assert rho.pair_beta(d, (2, 1)) == 3
    b2 = build_cartan(("s", "l"), [[2, -2], [-1, 2]])
    lam = Weight((1, 1))
    assert lam.pair_beta(b2, (0, 1)) == 2  # d_1 = 2


def test_weight_shift_constant():
    d = build_cartan(("1", "2"), [[2, -1], [-1, 2]])
    rho = Weight((1, 1))
    # c = (Lambda | beta) - (beta | beta) / 2
    assert rho.coeff_c(d, (1, 0)) == 1 - 1
    assert rho.coeff_c(d, (1, 1)) == 2 - 1
    assert rho.coeff_c(d, (2, 1)) == 3 - 3


def test_weight_level_minus_beta():
    # <h_i, Lambda - beta> reads row i of the Cartan matrix
    b2 = build_cartan(("s", "l"), [[2, -2], [-1, 2]])
    rho = Weight((1, 1))
    assert rho.level_minus(b2, 0, (0, 0)) == 1
    assert rho.level_minus(b2, 0, (1, 1)) == 1 - 2 + 2
    assert rho.level_minus(b2, 1, (1, 1)) == 1 + 1 - 2
    assert rho.level_minus(b2, 1, (2, 0)) == 1 + 2


def recursive_weighted_comps(weights, total):
    """`weighted_comps` before its memo, kept verbatim as a reference."""
    out = []
    k = len(weights)

    def rec(pos, rem, acc):
        if pos == k:
            if rem == 0:
                out.append(tuple(acc))
            return
        w = weights[pos]
        top = rem // w
        for e in range(top + 1):
            acc.append(e)
            rec(pos + 1, rem - e * w, acc)
            acc.pop()

    if total >= 0:
        rec(0, total, [])
    return out


@pytest.mark.parametrize("weights", [(2,), (2, 2, 4), (4, 2, 6), (1, 1),
                                     (2, 2, 2, 2), ()])
def test_weighted_comps_memo_matches_the_recursion(weights):
    for total in range(-1, 15):
        want = recursive_weighted_comps(weights, total)
        for arg in (weights, list(weights)):
            got = weighted_comps(arg, total)
            assert type(got) is tuple
            assert list(got) == want
        # a list and a tuple of the same weights share one memo entry
        assert weighted_comps(list(weights), total) is weighted_comps(
            weights, total)


def test_seqs_of_memo_matches_the_permutations():
    # every beta of rank at most 3 on at most 5 strands, rank 0 included
    betas = [beta for rank in range(4)
             for beta in itertools.product(range(6), repeat=rank)
             if sum(beta) <= 5]
    for beta in betas:
        pool = [i for i, k in enumerate(beta) for _ in range(k)]
        want = tuple(sorted(set(itertools.permutations(pool))))
        for arg in (beta, list(beta)):
            got = seqs_of(arg)
            assert type(got) is tuple
            assert got == want
        # a list and a tuple of the same beta share one memo entry
        assert seqs_of(list(beta)) is seqs_of(beta)
