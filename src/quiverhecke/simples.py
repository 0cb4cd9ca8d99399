"""Counting simple modules of a cyclotomic quotient by exact linear
algebra.

The grading is forgotten; over a field of characteristic zero the
radical of the trace form of the regular representation equals the
Jacobson radical, so the semisimple quotient is computable from the
structure constants alone.  The number of simple modules is the number
of blocks, found by splitting the center of the semisimple quotient
into fields with factored characteristic polynomials.  When every field
factor is the rationals themselves the splitting is certified and the
count is valid over any coefficient field containing the rationals.
"""

from __future__ import annotations

from fractions import Fraction

import sympy

from .cyclotomic import CycAlgebra
from .klr import BasisMonomial
from .linalg import SubspaceBasis

__all__ = ["SimpleCount", "count_simples"]


class SimpleCount:
    def __init__(self, count, split, total_dim, radical_dim, center_dim):
        self.count = count
        self.split = split
        self.total_dim = total_dim
        self.radical_dim = radical_dim
        self.center_dim = center_dim

    def __repr__(self):
        return (
            f"SimpleCount(count={self.count}, split={self.split}, "
            f"total_dim={self.total_dim}, radical_dim={self.radical_dim}, "
            f"center_dim={self.center_dim})"
        )


def _mult_table(alg: CycAlgebra):
    """Ungraded basis and structure constants c[i][j] = coords of
    b_i b_j."""
    basis = []
    for d in sorted(alg.graded_dims()):
        basis.extend(alg.quotient_basis(d))
    index = {m: k for k, m in enumerate(basis)}
    eng = alg.engine
    table = {}
    for a, ma in enumerate(basis):
        for b, mb in enumerate(basis):
            prod = alg.nf(eng.multiply({ma: Fraction(1)}, {mb: Fraction(1)}))
            row = {}
            for m, c in prod.items():
                row[index[m]] = c
            table[(a, b)] = row
    return basis, table


def _left_matrices(dim, table):
    mats = []
    for a in range(dim):
        mat = [[Fraction(0)] * dim for _ in range(dim)]
        for b in range(dim):
            for k, c in table[(a, b)].items():
                mat[k][b] = c
        mats.append(mat)
    return mats


def _trace_form(dim, mats):
    T = [[Fraction(0)] * dim for _ in range(dim)]
    for a in range(dim):
        for b in range(a, dim):
            s = Fraction(0)
            Ma, Mb = mats[a], mats[b]
            for k in range(dim):
                row = Ma[k]
                for l in range(dim):
                    if row[l]:
                        s += row[l] * Mb[l][k]
            T[a][b] = s
            T[b][a] = s
    return T


def _nullspace(rows):
    """Exact nullspace of a list-of-lists Fraction matrix, as Fraction
    vectors."""
    M = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row]
                      for row in rows])
    out = []
    for v in M.nullspace():
        out.append([Fraction(int(x.p), int(x.q)) for x in v])
    return out


def count_simples(alg: CycAlgebra) -> SimpleCount:
    if alg.is_zero():
        return SimpleCount(0, True, 0, 0, 0)
    basis, table = _mult_table(alg)
    dim = len(basis)
    mats = _left_matrices(dim, table)
    T = _trace_form(dim, mats)
    rad_vecs = _nullspace(T)
    rad = SubspaceBasis()
    for v in rad_vecs:
        rad.add({k: c for k, c in enumerate(v) if c})
    rad_dim = len(rad_vecs)
    piv = set(rad.pivot_columns())
    keep = [k for k in range(dim) if k not in piv]
    pos = {k: t for t, k in enumerate(keep)}

    def project(vec):
        """Coordinates of a full-space vector in the semisimple
        quotient basis."""
        red = rad.normal_form(vec)
        return {pos[k]: c for k, c in red.items() if c}

    sdim = len(keep)
    # multiplication in the quotient
    def qmul(u, v):
        out = {}
        for a, ca in u.items():
            for b, cb in v.items():
                for k, c in table[(keep[a], keep[b])].items():
                    out[k] = out.get(k, 0) + ca * cb * c
        return project({k: c for k, c in out.items() if c})

    # center: solve z b = b z for all quotient basis elements
    rows = []
    for j in range(sdim):
        bj = {j: Fraction(1)}
        cols = []
        for a in range(sdim):
            za = {a: Fraction(1)}
            diff = qmul(za, bj)
            for k, c in qmul(bj, za).items():
                diff[k] = diff.get(k, 0) - c
            cols.append({k: c for k, c in diff.items() if c})
        for k in range(sdim):
            rows.append([cols[a].get(k, Fraction(0)) for a in range(sdim)])
    center_vecs = _nullspace(rows)
    cdim = len(center_vecs)

    # split the center into field components; repeat the sweep until no
    # basis element refines anything further
    components = [center_vecs]
    changed = True
    while changed:
        changed = False
        for z in center_vecs:
            zc = {k: c for k, c in enumerate(z) if c}
            new_components = []
            for comp in components:
                if len(comp) == 1:
                    new_components.append(comp)
                    continue
                cb = SubspaceBasis(track=True)
                for v in comp:
                    cb.add({k: c for k, c in enumerate(v) if c})
                # matrix of multiplication by z on the component
                rowsm = []
                for v in comp:
                    prod = qmul(zc, {k: c for k, c in enumerate(v) if c})
                    coords = cb.coords_in_gens(prod)
                    if coords is None:
                        raise AssertionError("center component not closed")
                    rowsm.append(
                        [coords.get(t, Fraction(0)) for t in range(len(comp))]
                    )
                Mz = sympy.Matrix(
                    [[sympy.Rational(c.numerator, c.denominator) for c in r]
                     for r in rowsm]
                ).T
                lam = sympy.symbols("lam")
                charpoly = Mz.charpoly(lam)
                factors = sympy.factor_list(charpoly.as_expr())[1]
                if len(factors) == 1:
                    new_components.append(comp)
                    continue
                split_total = 0
                for fac, _mult in factors:
                    poly = sympy.Poly(fac, lam)
                    acc = sympy.zeros(len(comp), len(comp))
                    for mono, coeff in zip(poly.monoms(), poly.coeffs()):
                        acc += coeff * Mz ** mono[0]
                    kern = acc.nullspace()
                    sub = []
                    for kv in kern:
                        vec = [Fraction(0)] * sdim
                        for t in range(len(comp)):
                            c = Fraction(int(kv[t].p), int(kv[t].q))
                            if c:
                                for k, cc in enumerate(comp[t]):
                                    vec[k] += c * cc
                        sub.append(vec)
                    split_total += len(sub)
                    if sub:
                        new_components.append(sub)
                        changed = True
                if split_total != len(comp):
                    raise AssertionError("kernel split lost dimension")
            components = new_components
    count = len(components)
    split = all(len(c) == 1 for c in components)
    return SimpleCount(count, split, dim, rad_dim, cdim)
