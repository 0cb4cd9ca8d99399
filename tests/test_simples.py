"""Counting simple modules of cyclotomic quotients through the trace
form radical and center splitting, against weight space dimensions."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest

import old_count_simples
import old_mult_table
import old_trace_form
import old_tracked_basis as old
from quiverhecke import simples
from quiverhecke.cartan import Weight, build_cartan
from quiverhecke.cyclotomic import CycAlgebra
from quiverhecke.linalg import SubspaceBasis
from quiverhecke.qpolys import QSpec
from quiverhecke.simples import (
    _charpoly,
    _factors,
    _mult_table,
    _nullspace,
    _trace_form,
    count_simples,
    split_center,
)
from quiverhecke.uqmod import UqModule

A1 = build_cartan(("0",), [[2]])
A2 = build_cartan(("1", "2"), [[2, -1], [-1, 2]])
A1AFF = build_cartan(("0", "1"), [[2, -2], [-2, 2]])
B2 = build_cartan(("s", "l"), [[2, -2], [-1, 2]])
G2 = build_cartan(("s", "l"), [[2, -1], [-3, 2]])

FROZEN = [
    # datum, levels, beta, count, total, radical, center
    (A1, (1,), (1,), 1, 1, 0, 1),
    (A1, (2,), (2,), 1, 4, 0, 1),
    (A1, (3,), (2,), 1, 12, 8, 1),
    (A1, (3,), (3,), 1, 36, 0, 1),
    (A2, (1, 0), (1, 1), 1, 1, 0, 1),
    (A2, (1, 1), (1, 1), 2, 6, 4, 2),
    (A1AFF, (1, 0), (2, 2), 2, 24, 19, 2),
]


@pytest.mark.parametrize(
    "datum,levels,beta,count,total,radical,center", FROZEN
)
def test_frozen_counts(datum, levels, beta, count, total, radical, center):
    alg = CycAlgebra(datum, Weight(levels), beta)
    sc = count_simples(alg)
    assert sc.count == count
    assert sc.split
    assert sc.total_dim == total
    assert sc.radical_dim == radical
    assert sc.center_dim == center


def test_matrix_algebra_over_the_top():
    # level 3 at beta = 3 alpha is semisimple with one block, so it can
    # only be a 6 by 6 matrix algebra
    sc = count_simples(CycAlgebra(A1, Weight((3,)), (3,)))
    assert sc.radical_dim == 0
    assert sc.total_dim == 36
    assert sc.count == 1


def test_count_matches_weight_space_dimension():
    for datum, levels, beta in [
        (A1, (2,), (1,)),
        (A1, (2,), (2,)),
        (A2, (1, 1), (1, 0)),
        (A2, (1, 1), (1, 1)),
        (A1AFF, (1, 0), (1, 1)),
        (A1AFF, (1, 0), (2, 1)),
    ]:
        alg = CycAlgebra(datum, Weight(levels), beta)
        sc = count_simples(alg)
        assert sc.split
        mod = UqModule(datum, Weight(levels))
        assert sc.count == mod.weight_dim(beta)


def test_zero_algebra_has_no_simples():
    sc = count_simples(CycAlgebra(A1, Weight((1,)), (2,)))
    assert sc.count == 0
    assert sc.total_dim == 0
    assert sc.split


# -- the exact linear algebra behind the count ---------------------------

NONZERO = [(datum, levels, beta) for datum, levels, beta, *_ in FROZEN]


def dense_left_matrices(dim, table):
    """Reference: the dense matrix of left multiplication by each basis
    element, (L_a)[k][b] = table[a, b][k]."""
    mats = []
    for a in range(dim):
        mat = [[Fraction(0)] * dim for _ in range(dim)]
        for b in range(dim):
            for k, c in table[(a, b)].items():
                mat[k][b] = c
        mats.append(mat)
    return mats


def dense_trace_form(dim, mats):
    """Reference: T[a][b] = tr(L_a L_b) from the dense matrices."""
    T = [[Fraction(0)] * dim for _ in range(dim)]
    for a in range(dim):
        for b in range(a, dim):
            s = Fraction(0)
            Ma, Mb = mats[a], mats[b]
            for k in range(dim):
                for l in range(dim):
                    if Ma[k][l]:
                        s += Ma[k][l] * Mb[l][k]
            T[a][b] = T[b][a] = s
    return T


def span(vectors):
    sb = SubspaceBasis()
    for v in vectors:
        sb.add(v)
    return sb


@pytest.mark.parametrize("datum,levels,beta", NONZERO)
def test_sparse_trace_form_matches_dense_reference(datum, levels, beta):
    # the reference multiplies out every product; the table holds only
    # those of total degree 0 or with a degree-0 factor
    alg = CycAlgebra(datum, Weight(levels), beta)
    basis, full = old_mult_table._mult_table(alg)
    dim = len(basis)
    dense = dense_trace_form(dim, dense_left_matrices(dim, full))
    sparse = _trace_form(dim, _mult_table(alg)[1])
    assert [[row.get(b, 0) for b in range(dim)] for row in sparse] == dense


@pytest.mark.parametrize("datum,levels,beta", NONZERO)
def test_nullspace_matches_sympy(datum, levels, beta):
    sympy = pytest.importorskip("sympy")
    degrees, table = _mult_table(CycAlgebra(datum, Weight(levels), beta))
    dim = len(degrees)
    T = _trace_form(dim, table)
    ours = _nullspace(T, range(dim))
    M = sympy.Matrix([[sympy.Rational(row.get(b, 0)) for b in range(dim)]
                      for row in T])
    theirs = [{k: Fraction(int(x.p), int(x.q)) for k, x in enumerate(v) if x}
              for v in M.nullspace()]
    for v in ours:
        assert all(sum(c * row.get(k, 0) for k, c in v.items()) == 0
                   for row in T)
    assert len(ours) == len(theirs)
    ours_sb, theirs_sb = span(ours), span(theirs)
    assert ours_sb.rank == len(ours)
    assert ours_sb.rows == theirs_sb.rows


def _table_algebras():
    """Every nonzero quotient of 1 to 3 strands over the desk data, B2
    and G2 at small weights, which hold two of the four dense-simples
    algebras of the benchmark, and the other two, as pytest params named
    by datum, levels and beta."""
    data = {"A1": A1, "A2": A2, "A1AFF": A1AFF, "B2": B2, "G2": G2}
    small = {"A1": [(1,), (2,), (3,)]}
    algebras = [(name, lv, beta) for name, datum in data.items()
                for lv in small.get(name, [(1, 0), (0, 1), (1, 1)])
                for beta in product(range(4), repeat=datum.rank)
                if 1 <= sum(beta) <= 3]
    algebras += [("A1", (6,), (2,)), ("A1AFF", (2, 0), (2, 1))]
    out = []
    for name, lv, beta in algebras:
        if not CycAlgebra(data[name], Weight(lv), beta).is_zero():
            tag = "{}-L{}-b{}".format(name, "".join(map(str, lv)),
                                      "".join(map(str, beta)))
            out.append(pytest.param(data[name], lv, beta, id=tag))
    return out


@pytest.mark.parametrize("datum,levels,beta", _table_algebras())
def test_mult_table_matches_every_product_reduced(datum, levels, beta):
    # the old table multiplies and reduces every basis pair; the new one
    # skips the products its certified block scans prove zero, and those
    # that neither have total degree 0 nor a factor of degree 0, and
    # keeps only the nonzero ones: it equals the old table on every pair
    # it forms and holds every nonzero product of those degrees
    alg = CycAlgebra(datum, Weight(levels), beta)
    degrees, table = _mult_table(alg)
    _, full = old_mult_table._mult_table(alg)
    assert degrees == [d for _, d in alg.basis()]
    needed = {(a, b): row for (a, b), row in full.items()
              if row and 0 in (degrees[a], degrees[b],
                               degrees[a] + degrees[b])}
    assert table == needed


# A2 with a table whose products leave Z, as in test_cyclotomic.py: the
# quotients below have Fraction structure constants and trace forms
A2_HALF = QSpec(A2, {(0, 1): {(1, 0): 1, (0, 1): Fraction(1, 2)}})


# the table quotients and two A2 quotients over A2_HALF; the table
# quotients hold the four dense-simples algebras of the benchmark
TABLE_CASES = [
    *(pytest.param(*p.values, None, id=p.id) for p in _table_algebras()),
    pytest.param(A2, (1, 1), (1, 2), A2_HALF, id="A2half-L11-b12"),
    pytest.param(A2, (2, 1), (1, 2), A2_HALF, id="A2half-L21-b12"),
]


@pytest.mark.parametrize("datum,levels,beta,qspec", TABLE_CASES)
def test_trace_form_from_basis_traces_matches_pairwise(datum, levels, beta,
                                                        qspec):
    # the old form sums tr(L_a L_b) entry by entry over every pair; the
    # new one reads sum_k c_ab^k tr(L_k) off the table.  Two wrong
    # variants would pass here unseen, so neither serves as a mutant:
    # c_ba^k in place of c_ab^k gives tr(L_b L_a), equal in any
    # associative algebra, and tr(R_k) in place of tr(L_k) agrees on
    # these quotients because cyclotomic quiver Hecke algebras are
    # symmetric algebras.  Dropping the l = 0 term of tr(L_k) fails.  The
    # reference reads the old full table, the new form the table of
    # products of total degree 0 or with a degree-0 factor.
    alg = CycAlgebra(datum, Weight(levels), beta, qspec)
    basis, full = old_mult_table._mult_table(alg)
    dim = len(basis)
    assert (_trace_form(dim, _mult_table(alg)[1])
            == old_trace_form._trace_form(dim, full))


def _graded_parts(alg, monkeypatch):
    """count_simples(alg) with its radical vectors, center vectors and
    center components, recorded from the calls it makes: its first two
    `_nullspace` calls solve the trace form and the center equations."""
    solved, split = [], []
    nullspace, split_center_ = simples._nullspace, simples.split_center
    monkeypatch.setattr(simples, "_nullspace", lambda rows, cols: (
        solved.append(nullspace(rows, cols)) or solved[-1]))
    monkeypatch.setattr(simples, "split_center", lambda vecs, qmul: (
        split.append(split_center_(vecs, qmul)) or split[-1]))
    sc = count_simples(alg)
    monkeypatch.undo()
    return sc, solved[0], solved[1], split[0]


@pytest.mark.parametrize("datum,levels,beta,qspec", TABLE_CASES)
def test_count_simples_matches_full_table_and_center(datum, levels, beta,
                                                     qspec, monkeypatch):
    # the old count forms every product its block scans allow and solves
    # the center in every degree; the new one forms only the products of
    # total degree 0 or with a degree-0 factor and solves the center in
    # degree 0: the count, the radical, the center and its components
    # are the same, vector for vector
    alg = CycAlgebra(datum, Weight(levels), beta, qspec)
    assert (_graded_parts(alg, monkeypatch)
            == old_count_simples.count_simples(alg))


@pytest.mark.parametrize("datum,levels,beta,qspec", TABLE_CASES)
def test_full_center_lies_in_degree_zero(datum, levels, beta, qspec):
    # what the grading proves, seen in the old computation over every
    # degree: every radical vector is homogeneous, and every center
    # vector of the semisimple quotient lies on its degree-0 columns
    alg = CycAlgebra(datum, Weight(levels), beta, qspec)
    degrees = [d for _, d in alg.basis()]
    _, rad_vecs, center_vecs, _ = old_count_simples.count_simples(alg)
    assert all(len({degrees[k] for k in v}) == 1 for v in rad_vecs)
    piv = span(rad_vecs).pivot_columns()
    keep = [k for k in range(len(degrees)) if k not in piv]
    assert center_vecs
    assert all(degrees[keep[a]] == 0 for v in center_vecs for a in v)


def test_charpoly_and_factors():
    F = Fraction
    # [[0, 2], [1, 0]] has characteristic polynomial x^2 - 2
    assert _charpoly([[F(0), F(2)], [F(1), F(0)]]) == [-2, 0, 1]
    M = [[F(1), F(2), F(0)], [F(0), F(1, 2), F(3)], [F(-1), F(0), F(2)]]
    sympy = pytest.importorskip("sympy")
    want = sympy.Matrix(M).charpoly(sympy.Symbol("x")).all_coeffs()
    assert _charpoly(M) == [F(int(c.p), int(c.q)) for c in reversed(want)]
    # int entries still divide exactly
    coeffs = _charpoly([[1, 2], [3, 4]])
    assert coeffs == [-2, -5, 1]
    assert all(type(c) is F for c in coeffs)
    # (x - 1/2)^2 (x + 3) x: three rational roots
    poly = [F(0), F(3, 4), F(-11, 4), F(2), F(1)]
    assert sorted(f[0] for f in _factors(poly)) == [F(-1, 2), 0, 3]
    # x (x^2 - 2): one rational root and one quadratic factor
    assert _factors([F(0), F(-2), F(0), F(1)]) == [[0, 1], [-2, 0, 1]]
    # (x^2 - 2)(x^2 - 3) x: the cofactor with no rational root stays whole
    assert (_factors([F(0), F(6), F(0), F(-5), F(0), F(1)])
            == [[0, 1], [6, 0, -5, 0, 1]])


def _synthetic(table):
    """qmul for a commutative algebra given by {(a, b): {k: c}}."""
    def qmul(u, v):
        out = {}
        for a, ca in u.items():
            for b, cb in v.items():
                for k, c in table.get((a, b), table.get((b, a), {})).items():
                    out[k] = out.get(k, 0) + ca * cb * c
        return {k: c for k, c in out.items() if c}
    return qmul


def test_split_center_rationals():
    # Q x Q x Q on idempotents e0, e1, e2, seen through the basis
    # 1 = e0 + e1 + e2, e0 + e1, e0
    qmul = _synthetic({(0, 0): {0: 1}, (1, 1): {1: 1}, (2, 2): {2: 1}})
    vecs = [{0: Fraction(1), 1: Fraction(1), 2: Fraction(1)},
            {0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1)}]
    assert [len(c) for c in split_center(vecs, qmul)] == [1, 1, 1]


def test_split_center_non_split_goes_through_sympy():
    # Q(sqrt 2) x Q on the basis e1, s = sqrt 2 e1, e2: two components,
    # one of them two-dimensional, so count 2 and split False; the
    # quadratic cofactor x^2 - 2 is kept whole, with no sympy
    qmul = _synthetic({(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 1): {0: 2},
                       (2, 2): {2: 1}})
    vecs = [{0: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)}]
    assert sorted(len(c) for c in split_center(vecs, qmul)) == [1, 2]


def test_cli_import_leaves_sympy_out(tmp_path):
    import quiverhecke

    src = os.path.dirname(os.path.dirname(quiverhecke.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "import quiverhecke.cli\n"
        "assert 'sympy' not in sys.modules, 'import'\n"
        "rc = quiverhecke.cli.main(['cache', 'stat', '--cache-dir', sys.argv[1]])\n"
        "assert rc == 0\n"
        "assert 'sympy' not in sys.modules, 'cache stat'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_split_center_matches_tracked_basis(monkeypatch):
    # Q^4 on the basis of partial sums of its idempotents, and Q x Q x Q
    # through a triangular basis: the components are the same when the
    # coordinates come from the tracked basis that coords_in_span replaced
    qmul = _synthetic({(k, k): {k: 1} for k in range(4)})
    sums = [{k: Fraction(1) for k in range(top)} for top in range(4, 0, -1)]
    tri = [{0: Fraction(2), 1: Fraction(-1)}, {1: Fraction(3), 2: Fraction(1)},
           {2: Fraction(1, 2)}]
    cases = [(sums, qmul), (tri, qmul)]
    got = [split_center(vecs, q) for vecs, q in cases]
    assert [len(c) for c in got] == [4, 3]
    monkeypatch.setattr(simples, "coords_in_span", old.tracked_coords)
    assert [split_center(vecs, q) for vecs, q in cases] == got
