"""Defining relations and structural properties of the strand algebra engine.

Every relation is checked literally: both sides are pushed through the
rewriting engine and compared as coefficient dicts.  Color sequences run
over all of I^n, not a single weight block, so the equal-color special
cases are always exercised.
"""

import itertools
import random
from fractions import Fraction

import pytest
from old_klr_kernel import OldKLR

from quiverhecke.cartan import build_cartan, seqs_of, weighted_comps
from quiverhecke.checks import _betas_upto
from quiverhecke.cyclotomic import IdealSpace
from quiverhecke.klr import (
    KLR,
    BasisMonomial,
    crossing_degree,
    get_engine,
    left_seq,
    min_tau_degree,
)
from quiverhecke.perms import (
    all_perms,
    apply_word,
    canonical_word,
    word_to_perm,
)
from quiverhecke.qpolys import QSpec

A2 = build_cartan(("1", "2"), [[2, -1], [-1, 2]])
B2 = build_cartan(("s", "l"), [[2, -2], [-1, 2]])
A1AFF = build_cartan(("0", "1"), [[2, -2], [-2, 2]])
A2TWIST = QSpec(A2, {(0, 1): {(1, 0): Fraction(2), (0, 1): Fraction(3)}})

CASES = [
    pytest.param(A2, None, id="A2"),
    pytest.param(B2, None, id="B2"),
    pytest.param(A1AFF, None, id="A1aff"),
    pytest.param(A2, A2TWIST, id="A2-twisted-Q"),
]


def unit(seqs):
    """The sum of the idempotents e(seq) over seqs."""
    return {BasisMonomial((), (0,) * len(seq), tuple(seq)): Fraction(1)
            for seq in seqs}


def psi(eng, E: dict) -> dict:
    """The antiautomorphism fixing e(nu), x_m, tau_k."""
    out = {}
    for m, c in E.items():
        cur = {BasisMonomial((), m.exps, m.seq): c}
        for k in reversed(m.word):
            cur = eng.right_mult_tau(cur, k)
        for m2, c2 in cur.items():
            out[m2] = out.get(m2, 0) + c2
    return {m: c for m, c in out.items() if c}


def engine(datum, qspec, n=3):
    return get_engine(datum, n, qspec)


def seqs(datum, n=3):
    return list(itertools.product(range(datum.rank), repeat=n))


def sub(a, b):
    out = dict(a)
    for m, c in b.items():
        v = out.get(m, 0) - c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def qpoly_elt(eng, i, j, k, seq):
    """Q_{i j}(x_k, x_{k+1}) e(seq)."""
    poly = []
    for (p, q, t) in eng.qspec.terms(i, j):
        e = [0] * eng.n
        e[k] = p
        e[k + 1] = q
        poly.append((tuple(e), t))
    return eng.times_poly(eng.idempotent(seq), poly)


@pytest.mark.parametrize("datum,qspec", CASES)
def test_idempotents(datum, qspec):
    eng = engine(datum, qspec)
    all_seqs = seqs(datum)
    for nu in all_seqs[:6]:
        e = eng.idempotent(nu)
        assert eng.multiply(e, e) == e
    mu, nu = all_seqs[0], all_seqs[-1]
    assert eng.multiply(eng.idempotent(mu), eng.idempotent(nu)) == {}
    one = unit(all_seqs)
    x = eng.gen_x(1, all_seqs[2])
    assert eng.multiply(one, x) == x
    assert eng.multiply(x, one) == x


@pytest.mark.parametrize("datum,qspec", CASES)
def test_x_commute(datum, qspec):
    eng = engine(datum, qspec)
    for nu in seqs(datum):
        for m1 in range(3):
            for m2 in range(m1, 3):
                a = eng.multiply(eng.gen_x(m1, nu), eng.gen_x(m2, nu))
                b = eng.multiply(eng.gen_x(m2, nu), eng.gen_x(m1, nu))
                assert a == b


@pytest.mark.parametrize("datum,qspec", CASES)
def test_tau_moves_idempotent(datum, qspec):
    eng = engine(datum, qspec)
    for nu in seqs(datum):
        for k in range(2):
            snu = nu[:k] + (nu[k + 1], nu[k]) + nu[k + 2 :]
            t = eng.gen_tau(k, nu)
            # tau_k e(nu) = e(s_k nu) tau_k e(nu)
            assert eng.multiply(eng.idempotent(snu), t) == t
            for mu in seqs(datum):
                if mu != snu:
                    assert eng.multiply(eng.idempotent(mu), t) == {}


@pytest.mark.parametrize("datum,qspec", CASES)
def test_tau_x_far_commute(datum, qspec):
    eng = engine(datum, qspec)
    for nu in seqs(datum):
        snu = (nu[1], nu[0], nu[2])
        lhs = eng.multiply(eng.gen_tau(0, nu), eng.gen_x(2, nu))
        rhs = eng.multiply(eng.gen_x(2, snu), eng.gen_tau(0, nu))
        assert lhs == rhs


@pytest.mark.parametrize("datum,qspec", CASES)
def test_tau_x_slide(datum, qspec):
    eng = engine(datum, qspec)
    for nu in seqs(datum):
        for k in range(2):
            snu = nu[:k] + (nu[k + 1], nu[k]) + nu[k + 2 :]
            delta = eng.idempotent(nu) if nu[k] == nu[k + 1] else {}
            # tau_k x_{k+1} e(nu) = (x_k tau_k + delta) e(nu)
            lhs = eng.multiply(eng.gen_tau(k, nu), eng.gen_x(k + 1, nu))
            rhs = eng.multiply(eng.gen_x(k, snu), eng.gen_tau(k, nu))
            assert sub(lhs, rhs) == delta
            # x_{k+1} tau_k e(nu) = (tau_k x_k + delta) e(nu)
            lhs2 = eng.multiply(eng.gen_x(k + 1, snu), eng.gen_tau(k, nu))
            rhs2 = eng.multiply(eng.gen_tau(k, nu), eng.gen_x(k, nu))
            assert sub(lhs2, rhs2) == delta


@pytest.mark.parametrize("datum,qspec", CASES)
def test_tau_square(datum, qspec):
    eng = engine(datum, qspec)
    for nu in seqs(datum):
        for k in range(2):
            snu = nu[:k] + (nu[k + 1], nu[k]) + nu[k + 2 :]
            square = eng.multiply(eng.gen_tau(k, snu), eng.gen_tau(k, nu))
            assert square == qpoly_elt(eng, nu[k], nu[k + 1], k, nu)


def test_tau_far_commute():
    eng = get_engine(A2, 4)
    for nu in itertools.product(range(2), repeat=4):
        lhs = eng.multiply(eng.gen_tau(0, (nu[0], nu[1], nu[3], nu[2])), eng.gen_tau(2, nu))
        rhs = eng.multiply(eng.gen_tau(2, (nu[1], nu[0], nu[2], nu[3])), eng.gen_tau(0, nu))
        assert lhs == rhs


@pytest.mark.parametrize("datum,qspec", CASES)
def test_braid_relation(datum, qspec):
    eng = engine(datum, qspec)
    for nu in seqs(datum):
        t0 = lambda s: eng.gen_tau(0, s)
        t1 = lambda s: eng.gen_tau(1, s)
        s0 = lambda s: (s[1], s[0], s[2])
        s1 = lambda s: (s[0], s[2], s[1])
        lhs = eng.multiply(t1(s0(s1(nu))), eng.multiply(t0(s1(nu)), t1(nu)))
        rhs = eng.multiply(t0(s1(s0(nu))), eng.multiply(t1(s0(nu)), t0(nu)))
        diff = sub(lhs, rhs)
        if nu[0] != nu[2]:
            assert diff == {}
            continue
        # (Q(x_2, x_1) - Q(x_0, x_1)) / (x_2 - x_0) e(nu)
        poly = []
        for (p, q, t) in eng.qspec.terms(nu[0], nu[1]):
            for s in range(p):
                poly.append(((s, q, p - 1 - s), t))
        assert diff == eng.times_poly(eng.idempotent(nu), poly)


def test_frozen_product_crossing_squared():
    # tau e(12) * tau e(21) lands on e(21) and equals (x_0 + x_1) e(21)
    eng = get_engine(A2, 2)
    prod = eng.multiply(eng.gen_tau(0, (0, 1)), eng.gen_tau(0, (1, 0)))
    assert prod == {
        BasisMonomial((), (1, 0), (1, 0)): Fraction(1),
        BasisMonomial((), (0, 1), (1, 0)): Fraction(1),
    }


def random_element(eng, rng, all_seqs, terms=3):
    out = {}
    for _ in range(terms):
        nu = rng.choice(all_seqs)
        word = []
        cur = nu
        for _ in range(rng.randrange(3)):
            k = rng.randrange(eng.n - 1)
            word.append(k)
        exps = tuple(rng.randrange(3) for _ in range(eng.n))
        E = eng.idempotent(cur)
        for k in word:
            E = eng.right_mult_tau(E, k)
        for m, c in eng.times_poly(E, [(exps, Fraction(rng.randrange(-3, 4)))]).items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


@pytest.mark.parametrize("datum,qspec", CASES)
def test_associativity_random(datum, qspec):
    eng = engine(datum, qspec)
    rng = random.Random(101)
    all_seqs = seqs(datum)
    for _ in range(12):
        a = random_element(eng, rng, all_seqs)
        b = random_element(eng, rng, all_seqs)
        c = random_element(eng, rng, all_seqs)
        left = eng.multiply(eng.multiply(a, b), c)
        right = eng.multiply(a, eng.multiply(b, c))
        assert left == right


@pytest.mark.parametrize("datum,qspec", CASES)
def test_psi_antihomomorphism(datum, qspec):
    eng = engine(datum, qspec)
    rng = random.Random(202)
    all_seqs = seqs(datum)
    for _ in range(10):
        a = random_element(eng, rng, all_seqs)
        b = random_element(eng, rng, all_seqs)
        assert psi(eng, eng.multiply(a, b)) == eng.multiply(psi(eng, b),
                                                            psi(eng, a))
        assert psi(eng, psi(eng, a)) == a


def test_psi_fixes_generators():
    eng = get_engine(A2, 3)
    all_seqs = seqs(A2)
    for nu in all_seqs:
        assert psi(eng, eng.idempotent(nu)) == eng.idempotent(nu)
        for m in range(3):
            assert psi(eng, eng.gen_x(m, nu)) == eng.gen_x(m, nu)
        for k in range(2):
            # on one block psi flips the idempotent across the crossing
            snu = nu[:k] + (nu[k + 1], nu[k]) + nu[k + 2 :]
            assert psi(eng, eng.gen_tau(k, nu)) == eng.gen_tau(k, snu)
    for k in range(2):
        total = {}
        for nu in all_seqs:
            total.update(eng.gen_tau(k, nu))
        assert psi(eng, total) == total


@pytest.mark.parametrize("datum,qspec", CASES)
def test_degree_additivity(datum, qspec):
    eng = engine(datum, qspec)
    rng = random.Random(303)
    all_seqs = seqs(datum)
    for _ in range(20):
        nu = rng.choice(all_seqs)
        mu = rng.choice(all_seqs)
        k = rng.randrange(2)
        m = rng.randrange(3)
        a = eng.multiply(eng.gen_tau(k, nu), eng.gen_x(m, nu))
        b = eng.multiply(eng.gen_tau(k, mu), eng.gen_x(m, mu))
        da, db = eng.element_degree(a), eng.element_degree(b)
        prod = eng.multiply(a, b)
        if prod:
            assert eng.element_degree(prod) == da + db


def test_degree_values():
    eng = get_engine(A2, 2)
    # deg x_m e(nu) = (alpha_{nu_m} | alpha_{nu_m}) = 2 in type A
    assert eng.element_degree(eng.gen_x(0, (0, 1))) == 2
    # deg tau_0 e(nu) = -(alpha_{nu_0} | alpha_{nu_1})
    assert eng.element_degree(eng.gen_tau(0, (0, 1))) == 1
    assert eng.element_degree(eng.gen_tau(0, (0, 0))) == -2
    engb = get_engine(B2, 2)
    assert engb.element_degree(engb.gen_x(0, (1, 0))) == 4
    assert engb.element_degree(engb.gen_tau(0, (0, 1))) == 2


@pytest.mark.parametrize("datum,qspec", CASES)
def test_intertwiner_moves_polynomials(datum, qspec):
    # g_a x_m e(nu) = x_{s_a(m)} g_a e(nu), including m = a, a + 1
    eng = engine(datum, qspec)
    for nu in seqs(datum):
        for a in range(2):
            snu = nu[:a] + (nu[a + 1], nu[a]) + nu[a + 2 :]
            g = eng.intertwiner_g(a, nu)
            for m in range(3):
                sm = {a: a + 1, a + 1: a}.get(m, m)
                lhs = eng.multiply(g, eng.gen_x(m, nu))
                rhs = eng.multiply(eng.gen_x(sm, snu), g)
                assert lhs == rhs


def test_intertwiner_equal_color_expansion():
    eng = get_engine(A2, 2)
    nu = (0, 0)
    g = eng.intertwiner_g(0, nu)
    assert g == {
        BasisMonomial((), (0, 1), nu): Fraction(1),
        BasisMonomial((), (1, 0), nu): Fraction(-1),
        BasisMonomial((0,), (2, 0), nu): Fraction(-1),
        BasisMonomial((0,), (1, 1), nu): Fraction(2),
        BasisMonomial((0,), (0, 2), nu): Fraction(-1),
    }
    assert eng.intertwiner_g(0, (0, 1)) == eng.gen_tau(0, (0, 1))


@pytest.mark.parametrize("datum", [A2, B2, A1AFF])
def test_crossing_degree_sums_simple_crossings(datum):
    # along a reduced word each crossing tau_k contributes
    # -(alpha_i | alpha_j) for the two colors it crosses
    for seq in seqs(datum):
        for w in all_perms(3):
            cur = seq
            total = 0
            for k in reversed(canonical_word(w)):
                total -= datum.form(cur[k], cur[k + 1])
                cur = cur[:k] + (cur[k + 1], cur[k]) + cur[k + 2:]
            assert crossing_degree(datum, w, seq) == total


def test_beta_enumerations_read_the_memo():
    assert _betas_upto(2, 2) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1),
                                 (2, 0)]
    assert list(reversed(weighted_comps((1, 1), 2))) == [(2, 0), (1, 1),
                                                         (0, 2)]


def scanned_min_tau_degree(datum, beta) -> int:
    """`klr.min_tau_degree` before its closed form, kept verbatim as a
    reference."""
    perms = all_perms(sum(beta))
    return min(
        crossing_degree(datum, w, seq) for seq in seqs_of(beta) for w in perms
    )


def test_min_tau_degree_closed_form_matches_the_scan():
    data = [
        build_cartan(("0",), [[2]]),
        A2,
        B2,
        build_cartan(("s", "l"), [[2, -1], [-3, 2]]),  # G2
        build_cartan(("0", "1"), [[2, -4], [-1, 2]]),  # A_2^(2)
        build_cartan(("1", "2", "3"),
                     [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]),  # A3
        build_cartan(("1", "2"), [[2, 0], [0, 2]]),  # A1 x A1
        A1AFF,
    ]
    cases = [(datum, beta) for datum in data
             for beta in _betas_upto(datum.rank, 6)]
    assert len(cases) == 259
    for datum, beta in cases:
        assert min_tau_degree(datum, beta) == scanned_min_tau_degree(
            datum, beta)


# Q_12(u, v) = u + 2v: not the standard table, and not symmetric in u, v
A2_U2V = QSpec(A2, {(0, 1): {(1, 0): 1, (0, 1): 2}})

KERNEL_CASES = [
    pytest.param(build_cartan(("0",), [[2]]), None, (4,), id="A1"),
    pytest.param(A2, None, (2, 2), id="A2"),
    pytest.param(A1AFF, None, (2, 2), id="A1aff"),
    pytest.param(B2, None, (2, 2), id="B2"),
    pytest.param(A2, A2_U2V, (2, 2), id="A2-Q12=u+2v"),
]


def random_basis_element(rng, n, all_seqs, perms, terms, k, sign):
    """A sum of `terms` random basis monomials tau_w x^a e(nu), each
    joined by the one with a_k and a_{k+1} swapped times `sign`, with
    coefficients from a small set that includes a non-integer.  The
    pairs make products cancel terms: every kernel then drops a key and
    may put it back at the end."""
    out = {}
    for _ in range(terms):
        word = canonical_word(rng.choice(perms))
        a = tuple(rng.randrange(3) for _ in range(n))
        nu = rng.choice(all_seqs)
        c = rng.choice([-2, -1, 1, 2, 3, Fraction(1, 2)])
        out[BasisMonomial(word, a, nu)] = c
        swapped = a[:k] + (a[k + 1], a[k]) + a[k + 2:]
        out[BasisMonomial(word, swapped, nu)] = sign * c
    return out


@pytest.mark.parametrize("datum,qspec,beta", KERNEL_CASES)
def test_kernels_match_the_old_kernels_term_for_term(datum, qspec, beta):
    # each engine is fresh, so every rewrite the old one memoizes goes
    # through the kernels of tests/old_klr_kernel.py; the products agree
    # as ordered lists of terms, not only as dicts
    n = sum(beta)
    new, old = KLR(datum, n, qspec), OldKLR(datum, n, qspec)
    rng = random.Random(2101)
    all_seqs = seqs_of(beta)
    perms = all_perms(n)
    for _ in range(40):
        k = rng.randrange(n - 1)
        a = random_basis_element(rng, n, all_seqs, perms, 6, k, 1)
        b = random_basis_element(rng, n, all_seqs, perms, 3, k, -1)
        got = new.right_mult_tau(a, k)
        assert list(got.items()) == list(old.right_mult_tau(a, k).items())
        got = new.multiply(a, b)
        assert list(got.items()) == list(old.multiply(a, b).items())
        # a dotless right factor, as the chain of an ideal row is
        chain = {BasisMonomial(tuple(range(k + 1)), (0,) * n,
                               rng.choice(all_seqs)): 1}
        got = new.multiply(a, chain)
        assert list(got.items()) == list(old.multiply(a, chain).items())


@pytest.mark.parametrize("datum,qspec", CASES)
def test_memoized_left_seq_and_tau_degree_match_a_recomputation(datum,
                                                                 qspec):
    # every monomial of every block column list of the 3-strand betas,
    # on a fresh engine so that each crossing degree is first computed
    # here; the second lookup reads the memo
    n = 3
    eng = KLR(datum, n, qspec)
    cases = 0
    for beta in _betas_upto(datum.rank, n):
        if sum(beta) != n:
            continue
        space = IdealSpace(eng, None, beta, ())
        low = min_tau_degree(datum, beta)
        for lam in space.seqs:
            for mu in space.seqs:
                for d in range(low, low + 12):
                    for m in space.block_columns(lam, mu, d):
                        want_left = apply_word(m.word, m.seq)
                        want_deg = crossing_degree(
                            datum, word_to_perm(n, m.word), m.seq)
                        for _ in range(2):
                            assert left_seq(m) == want_left == lam
                            assert eng.tau_degree(m.word, m.seq) == want_deg
                        assert eng.monomial_degree(m) == d
                        cases += 1
    assert cases == {A2: 1804, B2: 691, A1AFF: 1386}[datum]


G2 = build_cartan(("a", "b"), [[2, -3], [-1, 2]])

# the data on which the mirrored ideal rows of `cyclotomic.IdealSpace`
# lean on psi: symmetric, non-simply-laced and affine, and a table that
# is not symmetric in u, v
PSI_CASES = [
    pytest.param(A2, None, id="A2"),
    pytest.param(B2, None, id="B2"),
    pytest.param(G2, None, id="G2"),
    pytest.param(A1AFF, None, id="A1aff"),
    pytest.param(A2, A2_U2V, id="A2-Q12=u+2v"),
]


@pytest.mark.parametrize("datum,qspec", PSI_CASES)
def test_psi_reverses_products_of_composable_basis_pairs(datum, qspec):
    # psi(a b) = psi(b) psi(a) on basis monomials a, b with a's right
    # sequence the left sequence of b, on four strands of content (2, 2),
    # where braid moves between equal colours carry a correction
    n = 4
    eng = get_engine(datum, n, qspec)
    rng = random.Random(2901)
    all_seqs = seqs_of((2, 2))
    perms = all_perms(n)

    def draw(seq):
        return BasisMonomial(canonical_word(rng.choice(perms)),
                             tuple(rng.randrange(2) for _ in range(n)), seq)

    nonzero = 0
    for _ in range(56):
        b = draw(rng.choice(all_seqs))
        a = draw(left_seq(b))
        ab = eng.multiply({a: 1}, {b: 1})
        assert psi(eng, ab) == eng.multiply(psi(eng, {b: 1}),
                                            psi(eng, {a: 1}))
        assert psi(eng, psi(eng, {a: 1})) == {a: 1}
        nonzero += bool(ab)
    assert nonzero
