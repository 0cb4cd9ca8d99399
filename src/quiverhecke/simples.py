"""Counting simple modules of a cyclotomic quotient by exact linear
algebra.

The quotient A = R^Lambda(beta) is a finite-dimensional Z-graded
algebra with a homogeneous basis b_k of degrees d_k, and the product
b_a b_b lies in degree d_a + d_b, so its coordinate c_ab^k is 0 unless
d_k = d_a + d_b.  The count forgets the grading, but the grading
decides which structure constants it needs.  Over a field of
characteristic zero the radical of the trace form of the regular
representation equals the Jacobson radical J, so the semisimple
quotient is computable from the structure constants alone.

- Trace form.  As A is associative, the trace form tr(L_a L_b) is the
  sum over k of c_ab^k t_k with t_k = tr(L_k), read off the structure
  constants with no multiplication matrix formed (see `_trace_form`).
  Left multiplication L_k shifts degree by d_k, so t_k = 0 unless
  d_k = 0, and T[a][b] = 0 unless d_a + d_b = 0.  The trace form reads
  only the products with d_a + d_b = 0, and t only those with d_a = 0.
- Radical.  A row of T in degree d has its support in the columns of
  degree -d, and a reduced echelon elimination never mixes two column
  degrees, so the radical's null vectors are homogeneous: J is a graded
  ideal, and the quotient basis `keep` is a set of basis elements.
- Center.  The center Z of the graded algebra A/J is graded: for a
  homogeneous b the commutator [z, b] splits by degree, so each
  homogeneous part of a central z is central.  A/J is semisimple, so Z
  is a product of fields and has no nonzero nilpotent.  A homogeneous z
  of degree e != 0 has z^k in degree ke, which is zero for large k as A
  is finite-dimensional, so z = 0: Z lies in degree 0.  The equations
  z b_j = b_j z therefore need unknowns only in degree 0, their rows
  read only the products with a degree-0 factor, and `split_center`
  multiplies only elements of degree 0.
- Same center vectors.  The null space of the equations over every
  degree is Z, on the degree-0 columns, and a null vector of the
  degree-0 system extended by zero is one of the full system.
  `SubspaceBasis` pivots on the least column, so a column f is free
  exactly when f is the largest support index of some null vector,
  which depends on the null space alone, and `_nullspace`'s v_f is the
  one null vector that is 1 at f and 0 at every other free column.  So
  the degree-0 system gives the same vectors as the full one, vector for
  vector, and every column of nonzero degree is a pivot there.

So `_mult_table` forms b_a b_b only when d_a, d_b or d_a + d_b is 0.

The number of simple modules is the number of blocks, found by
splitting the center of the semisimple quotient into fields.  A center
component splits along the rational roots of the characteristic
polynomial of a center element.  The simple modules of R^Lambda(beta)
are absolutely irreducible (Khovanov-Lauda, "A diagrammatic approach to
categorification of quantum groups I", Represent. Theory 2009, 3.2), so
the center of A/J is a product of copies of Q and every such polynomial
splits over Q.  A cofactor of degree two or more with no rational root
is therefore kept whole as one factor: its component stays non-split,
the count reports `split` False, and `check_categorification` fails.

The linear algebra is exact rational arithmetic on `SubspaceBasis`
(ints where integral, Fractions elsewhere), with nullspaces read off
reduced echelon forms.  None of this changes an answer: the counts and
dimensions do not depend on the nullspace basis, the radical's pivot
columns are canonical as the echelon form is, and the kernels of the
pairwise coprime factors of the characteristic polynomial of a
semisimple multiplication map do not depend on how they are found.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import isqrt, lcm
from operator import add

from .cyclotomic import CycAlgebra
from .klr import BasisMonomial, left_seq
from .linalg import SubspaceBasis, coords_in_span

__all__ = ["SimpleCount", "count_simples", "split_center"]


class SimpleCount(namedtuple("SimpleCount",
                              "count split total_dim radical_dim center_dim")):
    """What `count_simples` finds; its fields are described there."""

    __slots__ = ()


def _mult_table(alg: CycAlgebra):
    """Degrees of the ungraded basis, and structure constants
    table[a, b] = coords of b_a b_b for the products `count_simples`
    reads, stored only where nonzero.

    Only the pairs where d_a, d_b or d_a + d_b is 0 are needed: the
    trace form reads the products of total degree 0 and the traces t_k
    those with d_a = 0, and the center equations and `split_center` only
    those with a factor of degree 0 (see the module docstring).

    Let b_a lie in the block (lam, mu) in degree d_a and b_b in the block
    (mu', nu) in degree d_b.  Their product is zero, with no multiply and
    no reduction, in two cases.  When mu != mu', the idempotents e(mu)
    and e(mu') are orthogonal.  When the certified scan of the block
    (lam, nu), `CycAlgebra.block_dims`, has no degree d_a + d_b, every
    element of that block in that degree lies in the ideal: a side whose
    idempotent lies in the ideal puts the whole block in it, below the
    block's least crossing degree it has no columns, inside the scan the
    degree was found zero, `scan_until_vanishing`'s induction covers the
    degrees above its vanishing run, and the window covers those above
    dmax.  The basis and every reported dimension rest on this same
    certificate.  An empty product builds no block.

    Every other product is formed as `KLR.multiply` forms it.  For
    b_b = tau_w x^e e(nu), one rewrite chain b_a tau_w serves every
    partner of b_a with the word w, which all share nu = w^-1 mu, and
    x^e raises the dots of each term, whose monomial is made by
    `tuple.__new__` as there.  The product lies in the one block
    (lam, nu, d_a + d_b), whose echelon form reduces it.
    """
    pairs = alg.basis()
    index = {m: k for k, (m, _) in enumerate(pairs)}
    eng = alg.engine
    space = alg.space
    new = tuple.__new__
    # the partners b_b of each left sequence, grouped by word and nu
    partners = {}
    for b, (mb, db) in enumerate(pairs):
        partners.setdefault(left_seq(mb), {}).setdefault(
            (mb.word, mb.seq), []).append((b, mb.exps, db))
    table = {}
    for a, (ma, da) in enumerate(pairs):
        lam = left_seq(ma)
        for (word, nu), group in partners.get(ma.seq, {}).items():
            dims = alg.block_dims(lam, nu)
            kept = [(b, exps, da + db) for b, exps, db in group
                    if 0 in (da, db, da + db) and da + db in dims]
            if not kept:
                continue
            chain = eng.right_mult_word({ma: 1}, word)
            if not chain:
                continue
            for b, exps, d in kept:
                prod = {new(BasisMonomial,
                            (m.word, tuple(map(add, m.exps, exps)), m.seq)): c
                        for m, c in chain.items()}
                _, sb = space.block(lam, nu, d)
                row = {index[m]: c for m, c in sb.normal_form(prod).items()}
                if row:
                    table[a, b] = row
    return [d for _, d in pairs], table


def _trace_form(dim, table):
    """Rows of T[a][b] = tr(L_a L_b), as sparse dicts, where L_a is left
    multiplication by b_a, (L_a)[k][l] = table[a, l][k], and table holds
    the nonzero products of `_mult_table`.

    The quotient is associative, so L is a representation:
    L_a L_b b_l = b_a (b_b b_l) = (b_a b_b) b_l, that is
    L_a L_b = L_{b_a b_b} = sum over k of table[a, b][k] L_k.  The trace
    is linear, so with t_k = tr(L_k) = sum over l of table[k, l][l],

        tr(L_a L_b) = sum over k of table[a, b][k] * t_k,

    so two passes over the table give t and then T, with work only on
    its nonzero entries, where forming each tr(L_a L_b) from the
    matrices costs a sparse trace for every one of the dim^2 / 2 pairs.
    t_k reads only the products with d_k = 0, and T[a][b] only those
    with d_a + d_b = 0, which `_mult_table` all forms; every other t_k
    and T[a][b] is 0 by degree.
    The identity holds in Q, and + and * on ints and Fractions are
    exact, so each T[a][b] is the same rational number as tr(L_a L_b)
    summed entry by entry: an int and a Fraction of equal value compare
    equal, and only the Python type of an integral value may differ,
    which `SubspaceBasis` allows.  Since tr(L_a L_b) = tr(L_b L_a), T is
    computed for a <= b and mirrored."""
    t = [0] * dim
    for (k, l), row in table.items():
        c = row.get(l)
        if c:
            t[k] += c
    T = [{} for _ in range(dim)]
    for (a, b), row in table.items():
        if a <= b:
            s = sum(c * t[k] for k, c in row.items())
            if s:
                T[a][b] = T[b][a] = s
    return T


def _nullspace(rows, cols):
    """Basis of the vectors v over the columns cols, in increasing order,
    with row . v = 0 for every sparse row, each supported in cols: one
    vector per free column f of the reduced echelon form,
    v_f = e_f - sum over rows r of r[f] e_{pivot of r}."""
    sb = SubspaceBasis()
    for row in rows:
        sb.add(row)
    out = []
    for f in cols:
        if f in sb.pivots:
            continue
        v = {f: 1}
        for p, r in sb.pivots.items():
            c = sb.rows[r].get(f)
            if c:
                v[p] = -c
        out.append(v)
    return out


def _times_plus(A, M, c):
    """A M + c I for square Fraction matrices."""
    n = len(M)
    return [[sum(A[i][t] * M[t][j] for t in range(n)) + (c if i == j else 0)
             for j in range(n)] for i in range(n)]


def _charpoly(M):
    """det(x - M) by Faddeev-LeVerrier, coefficients lowest degree
    first: M_k = M_{k-1} M + c_{n-k+1} I, c_{n-k} = -tr(M_k M) / k."""
    n = len(M)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    Mk = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        Mk = _times_plus(Mk, M, coeffs[n - k + 1])
        tr = sum(Mk[i][t] * M[t][i] for i in range(n) for t in range(n))
        coeffs[n - k] = -tr / k
    return coeffs


def _divide_root(poly, r):
    """(q, poly(r)) with poly = (x - r) q + poly(r), by synthetic
    division; coefficients lowest degree first."""
    q = []
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * r + c
        q.append(acc)
    rem = q.pop()
    return q[::-1], rem


def _divisors(n):
    small = [p for p in range(1, isqrt(abs(n)) + 1) if n % p == 0]
    return small + [abs(n) // p for p in small]


def _factors(poly):
    """Factors over Q of a monic polynomial, pairwise coprime, each as a
    coefficient list lowest degree first: x - r for each distinct
    rational root r, from the rational root test, and the cofactor left
    when those are divided out, whole, if its degree is two or more.
    The cofactor has no rational root; the simple modules of a cyclotomic
    quotient are absolutely irreducible, so it never occurs there, and
    its kernel is left as one non-split part."""
    den = lcm(*(c.denominator for c in poly))
    ints = [int(c * den) for c in poly]
    low = next(a for a in ints if a)
    cands = {Fraction(s * p, q) for p in _divisors(low)
             for q in _divisors(ints[-1]) for s in (1, -1)}
    if not ints[0]:
        cands.add(Fraction(0))
    factors = []
    for r in sorted(cands):
        quo, rem = _divide_root(poly, r)
        if not rem:
            factors.append([-r, Fraction(1)])
        while not rem:
            poly = quo
            quo, rem = _divide_root(poly, r)
    if len(poly) > 2:
        factors.append(poly)
    return factors


def _split_by(z, comp, qmul):
    """Parts of the center component comp (a list of independent sparse
    vectors) along the factors of the characteristic polynomial of
    multiplication by z on it; [comp] when there is a single factor."""
    n = len(comp)
    images = coords_in_span(comp, [qmul(z, v) for v in comp])
    if any(coords is None for coords in images):
        raise AssertionError("center component not closed")
    Mz = [[images[s].get(t, Fraction(0)) for s in range(n)] for t in range(n)]
    factors = _factors(_charpoly(Mz))
    if len(factors) == 1:
        return [comp]
    parts = []
    for fac in factors:
        val = [[Fraction(0)] * n for _ in range(n)]
        for c in reversed(fac):
            val = _times_plus(val, Mz, c)
        kern = _nullspace(
            [{s: c for s, c in enumerate(row) if c} for row in val], range(n))
        part = []
        for kv in kern:
            vec = {}
            for t, c in kv.items():
                for k, cc in comp[t].items():
                    vec[k] = vec.get(k, 0) + c * cc
            part.append({k: c for k, c in vec.items() if c})
        parts.append(part)
    if sum(len(p) for p in parts) != n:
        raise AssertionError("kernel split lost dimension")
    return parts


def split_center(center_vecs, qmul):
    """Components of a commutative semisimple algebra spanned by
    center_vecs (sparse vectors, multiplied by qmul): each basis element
    in turn splits every component along its characteristic polynomial,
    until no element refines anything further."""
    components = [list(center_vecs)]
    changed = True
    while changed:
        changed = False
        for z in center_vecs:
            refined = []
            for comp in components:
                parts = _split_by(z, comp, qmul) if len(comp) > 1 else [comp]
                changed = changed or len(parts) > 1
                refined.extend(parts)
            components = refined
    return components


def count_simples(alg: CycAlgebra) -> SimpleCount:
    """The simple modules of the quotient alg, with the grading
    forgotten, counted over Q.

    The structure constants of `_mult_table` give the trace form of the
    regular representation, whose radical is the Jacobson radical J.  The
    center of the semisimple quotient A/J splits (`split_center`) into
    one field per block, and each block has one simple module.  `count`
    is the number of fields and `split` whether each is Q itself, so that
    the count holds over every field containing Q; a component that does
    not split over Q is counted once.  `total_dim`, `radical_dim` and
    `center_dim` are the dimensions of A, of J and of the center of A/J.
    A zero quotient has no simples.

    The grading decides what is formed, and the answer is the one the
    whole table and the center over every degree give (the proof is in
    the module docstring).  T pairs degree d with degree -d only, so the
    radical vectors are homogeneous and `keep` is a set of basis
    elements.  The center of A/J lies in degree 0: its homogeneous parts
    are central, and one of degree e != 0 is nilpotent, as its powers
    climb through the degrees ke of a finite-dimensional algebra, hence
    0, as A/J is semisimple.  So the unknowns of the center equations are
    the degree-0 elements of `keep`; every other column would be a
    pivot, and the free columns and their null vectors are the same.
    Their rows read the products with a degree-0 factor, and
    `split_center` multiplies only degree-0 elements, which are all in
    the table.  Each product of two elements of `keep` is projected onto
    the quotient basis once, and not at all when J is zero, where the
    projection is the identity; projection is linear, so `qmul`'s sums
    of projected products are the projections of its products."""
    if alg.is_zero():
        return SimpleCount(0, True, 0, 0, 0)
    degrees, table = _mult_table(alg)
    dim = len(degrees)
    rad = SubspaceBasis()
    rad_vecs = _nullspace(_trace_form(dim, table), range(dim))
    for v in rad_vecs:
        rad.add(v)
    piv = rad.pivot_columns()
    keep = [k for k in range(dim) if k not in piv]
    pos = {k: t for t, k in enumerate(keep)}
    products = {}

    def qprod(a, b):
        """Coordinates in the quotient basis of the product of its
        elements a and b."""
        out = products.get((a, b))
        if out is None:
            row = table.get((keep[a], keep[b]), {})
            if rad_vecs:
                row = {pos[k]: c for k, c in rad.normal_form(row).items()}
            out = products[a, b] = row
        return out

    def qmul(u, v):
        """Multiplication in the quotient."""
        out = {}
        for a, ca in u.items():
            for b, cb in v.items():
                for k, c in qprod(a, b).items():
                    out[k] = out.get(k, 0) + ca * cb * c
        return {k: c for k, c in out.items() if c}

    # center: solve z b = b z for all quotient basis elements, with z in
    # degree 0; the rows are indexed by (j, k), their entries by a
    zero = [a for a, k in enumerate(keep) if not degrees[k]]
    rows = []
    for j in range(len(keep)):
        byk = {}
        for a in zero:
            diff = dict(qprod(a, j))
            for k, c in qprod(j, a).items():
                diff[k] = diff.get(k, 0) - c
            for k, c in diff.items():
                if c:
                    byk.setdefault(k, {})[a] = c
        rows.extend(byk.values())
    center_vecs = _nullspace(rows, zero)
    components = split_center(center_vecs, qmul)
    split = all(len(c) == 1 for c in components)
    return SimpleCount(len(components), split, dim, len(rad_vecs),
                       len(center_vecs))
