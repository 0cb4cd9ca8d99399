"""`simples.count_simples` as it was before it used the grading: its
table holds every product the certified block scans allow, in every
degree, with an entry, empty or not, for every basis pair, and its
center equations have unknowns in every degree.  Kept verbatim, apart
from returning the radical vectors, the center vectors and the
`split_center` components with the count, as the reference for the
differential tests."""

from operator import add

from quiverhecke.cyclotomic import CycAlgebra
from quiverhecke.klr import BasisMonomial, left_seq
from quiverhecke.linalg import SubspaceBasis
from quiverhecke.simples import SimpleCount, split_center


def _mult_table(alg: CycAlgebra):
    """Ungraded basis and structure constants c[i][j] = coords of
    b_i b_j, with only the products the quotient can keep computed.

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
    basis = [m for m, _ in pairs]
    index = {m: k for k, m in enumerate(basis)}
    eng = alg.engine
    space = alg.space
    new = tuple.__new__
    # the partners b_b of each left sequence, grouped by word and nu
    partners = {}
    for b, (mb, db) in enumerate(pairs):
        partners.setdefault(left_seq(mb), {}).setdefault(
            (mb.word, mb.seq), []).append((b, mb.exps, db))
    dim = len(basis)
    table = {(a, b): {} for a in range(dim) for b in range(dim)}
    for a, (ma, da) in enumerate(pairs):
        lam = left_seq(ma)
        for (word, nu), group in partners.get(ma.seq, {}).items():
            dims = alg.block_dims(lam, nu)
            kept = [(b, exps, da + db) for b, exps, db in group
                    if da + db in dims]
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
                table[(a, b)] = {index[m]: c
                                 for m, c in sb.normal_form(prod).items()}
    return basis, table


def _trace_form(dim, table):
    """Rows of T[a][b] = tr(L_a L_b), as sparse dicts, where L_a is left
    multiplication by b_a, (L_a)[k][l] = table[a, l][k].

    The quotient is associative, so L is a representation:
    L_a L_b b_l = b_a (b_b b_l) = (b_a b_b) b_l, that is
    L_a L_b = L_{b_a b_b} = sum over k of table[a, b][k] L_k.  The trace
    is linear, so with t_k = tr(L_k) = sum over l of table[k, l][l],

        tr(L_a L_b) = sum over k of table[a, b][k] * t_k,

    so two passes over the table give t and then T, with work only on
    its nonzero entries, where forming each tr(L_a L_b) from the
    matrices costs a sparse trace for every one of the dim^2 / 2 pairs.
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
        if row and a <= b:
            s = sum(c * t[k] for k, c in row.items())
            if s:
                T[a][b] = T[b][a] = s
    return T


def _nullspace(rows, ncols):
    """Basis of the vectors v over columns 0..ncols-1 with row . v = 0
    for every sparse row: one vector per free column f of the reduced
    echelon form, v_f = e_f - sum over rows r of r[f] e_{pivot of r}."""
    sb = SubspaceBasis()
    for row in rows:
        sb.add(row)
    out = []
    for f in range(ncols):
        if f in sb.pivots:
            continue
        v = {f: 1}
        for p, r in sb.pivots.items():
            c = sb.rows[r].get(f)
            if c:
                v[p] = -c
        out.append(v)
    return out


def count_simples(alg: CycAlgebra):
    """The simple modules of the quotient alg, with the grading
    forgotten, counted over Q.

    The structure constants of `_mult_table` give the trace form of the
    regular representation, whose radical is the Jacobson radical J.  The
    center of the semisimple quotient A/J splits (`split_center`) into
    one field per block, and each block has one simple module.  `count`
    is the number of fields and `split` whether each is Q itself, so that
    the count holds over every field containing Q; `total_dim`,
    `radical_dim` and `center_dim` are the dimensions of A, of J and of
    the center of A/J.  A zero quotient has no simples."""
    if alg.is_zero():
        return SimpleCount(0, True, 0, 0, 0), [], [], []
    basis, table = _mult_table(alg)
    dim = len(basis)
    rad = SubspaceBasis()
    rad_vecs = _nullspace(_trace_form(dim, table), dim)
    for v in rad_vecs:
        rad.add(v)
    piv = rad.pivot_columns()
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

    # center: solve z b = b z for all quotient basis elements; the rows
    # are indexed by (j, k), their entries by a
    rows = []
    for j in range(sdim):
        bj = {j: 1}
        byk = {}
        for a in range(sdim):
            za = {a: 1}
            diff = qmul(za, bj)
            for k, c in qmul(bj, za).items():
                diff[k] = diff.get(k, 0) - c
            for k, c in diff.items():
                if c:
                    byk.setdefault(k, {})[a] = c
        rows.extend(byk.values())
    center_vecs = _nullspace(rows, sdim)
    components = split_center(center_vecs, qmul)
    split = all(len(c) == 1 for c in components)
    return (SimpleCount(len(components), split, dim, len(rad_vecs),
                        len(center_vecs)), rad_vecs, center_vecs, components)
