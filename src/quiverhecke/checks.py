"""Structural validation suite.

Each check computes both sides of a dimension or element identity with
exact arithmetic and reports pass or fail together with a witness
table.  Failures never abort a run; every instance produces a report
(`error` when it raised) and the caller aggregates.  All iteration
orders are fixed so that two runs over the same inputs emit identical
output apart from timing.  Series are compared by `_compare`, which
fails at the first differing degree.  The commutation suites share one
F_j E_i tensor (`_fe_tensor`, free or cyclotomic), one E_i F_j corner
(`CycAlgebra.corner`) and one pair of sl2 sides (`_sl2_sides`).
"""

from __future__ import annotations

import time
from functools import cache, partial
from itertools import product

from .bimodules import Bimodules, emb_elt_first, emb_elt_last
from .cartan import Weight, build_cartan, seqs_of, weighted_comps
from .cyclotomic import (CertificationError, CycAlgebra, certified_cap,
                         free_space)
from .klr import BasisMonomial, min_tau_degree
from .laurent import LaurentPoly
from .linalg import SubspaceBasis
from .perms import act_on_seq, all_perms, inversions
from .simples import count_simples
from .tensors import TruncationModule, algebra_gens, tensor_dim_poly
from .uqmod import UqModule

__all__ = [
    "Report", "CHECKS", "run_check", "run_all", "run_timed",
    "check_pbw", "check_taug", "check_exact", "check_sl2", "check_mixed",
    "check_phi", "check_convolution", "check_categorification",
]


def _render_inputs(args) -> dict:
    """A check's bound arguments as report inputs: the datum as its
    labels, the weight as its levels, a table as `QSpec.describe()` (left
    out when it is None), tuples as lists, and every other value as is."""
    inputs = {}
    for key, val in args.items():
        if key == "datum":
            key, val = "labels", list(val.labels)
        elif key == "weight":
            key, val = "levels", list(val.levels)
        elif key == "qspec":
            if val is None:
                continue
            val = val.describe()
        elif isinstance(val, tuple):
            val = list(val)
        inputs[key] = val
    return inputs


class Report:
    """Outcome of one check instance.

    inputs are the check's arguments, defaults included, rendered by
    `_render_inputs`: a suite passes its `locals()` as its first
    statement, and an error row the arguments its thunk binds.  witness
    holds small rows of scalars and strings; fail_degree is the first
    degree at which a comparison broke, when that makes sense.
    """

    def __init__(self, name, args):
        self.name = name
        self.inputs = _render_inputs(args)
        self.status = "pass"
        self.witness = []
        self.fail_degree = None
        self.elapsed_ms = 0.0

    def fail(self, degree=None, **info):
        if self.status == "pass":
            self.status = "fail"
            if degree is not None:
                self.fail_degree = degree
        row = {"kind": "counterexample"}
        if degree is not None:
            row["degree"] = degree
        row.update(info)
        self.witness.append(row)

    def note(self, **info):
        self.witness.append(info)

    def to_json(self):
        return {
            "name": self.name,
            "inputs": self.inputs,
            "status": self.status,
            "fail_degree": self.fail_degree,
            "witness": self.witness,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def _poly_str(p: LaurentPoly) -> str:
    return str(sorted(p.coeffs.items()))


def _sub_beta(beta, i):
    out = list(beta)
    out[i] -= 1
    return tuple(out) if out[i] >= 0 else None


def _add_beta(beta, j):
    out = list(beta)
    out[j] += 1
    return tuple(out)


def _free_block_poly(datum, beta, rows, cols, window, qspec=None):
    """Graded dims of e(rows) R(beta) e(cols) for the free algebra."""
    return TruncationModule(free_space(datum, beta, qspec), rows,
                            cols).graded_dim_poly(window)


def _compare(rep, lhs, rhs, degrees, identity, **info) -> bool:
    """Compare two series over the given degrees, in order: at the first
    degree where they differ add one failure row and return False."""
    for d in degrees:
        lv, rv = lhs.coeffs.get(d, 0), rhs.coeffs.get(d, 0)
        if lv != rv:
            rep.fail(degree=d, lhs=lv, rhs=rv, identity=identity, **info)
            return False
    return True


def _inversion_degree(datum, w, seq):
    """Degree of the crossing tau_w on e(seq): minus the form of the two
    colors at each inversion of w.  Counted from `perms.inversions`, and
    not by `klr.crossing_degree`, so that the pbw counts stay independent
    of the engine they check."""
    return -sum(datum.form(seq[a], seq[b]) for (a, b) in inversions(w))


def _gen_fn_blocks(datum, beta, window):
    """Free graded dims of each block e(w.mu) R(beta) e(mu) from the
    closed generating function: crossings tau_w e(mu) by permutation,
    dots by geometric factors per strand.  Keyed by (w.mu, mu)."""
    n = sum(beta)
    top = window[1]
    blocks = {}
    for mu in seqs_of(tuple(beta)):
        weights = [datum.form(c, c) for c in mu]
        for w in all_perms(n):
            stack = [_inversion_degree(datum, w, mu)]
            for wgt in weights:
                nxt = []
                for d in stack:
                    e = 0
                    while d + e * wgt <= top:
                        nxt.append(d + e * wgt)
                        e += 1
                stack = nxt
            coeffs = blocks.setdefault((act_on_seq(w, mu), mu), {})
            for d in stack:
                if window[0] <= d <= top:
                    coeffs[d] = coeffs.get(d, 0) + 1
    return {key: LaurentPoly(coeffs) for key, coeffs in blocks.items()}


def check_pbw(datum, beta, degcap=10):
    """Monomial counts against the generating function, block by block
    and in total, and the two-block factorization, through degcap."""
    rep = Report("pbw", locals())
    beta = tuple(beta)
    n = sum(beta)
    lo = min_tau_degree(datum, beta)
    window = (lo, degcap)
    degrees = range(lo, degcap + 1)
    genfn = _gen_fn_blocks(datum, beta, window)
    blocks = {(lam, mu): _free_block_poly(datum, beta, [lam], [mu], window)
              for lam in seqs_of(beta) for mu in seqs_of(beta)}
    series = sum(blocks.values(), LaurentPoly.zero())
    _compare(rep, series, sum(genfn.values(), LaurentPoly.zero()), degrees,
             "count vs generating function")
    # a pass adds no row; a block read from the wrong side fails here
    for (lam, mu), block in blocks.items():
        _compare(rep, block, genfn.get((lam, mu), LaurentPoly.zero()),
                 degrees, "block", lam=list(lam), mu=list(mu))
    if n >= 2:
        npr = n // 2
        shuffles = [w for w in all_perms(n)
                    if all(w[a] < w[a + 1]
                           for a in range(n - 1) if a != npr - 1)]
        maxform = max(datum.form(c, c) for c in range(datum.rank))
        # the scan tops out at degcap plus the largest crossing shift of
        # a shuffle plus the depth the other factor can reach below zero
        hi_cap = degcap + (npr * (n - npr) + n * (n - 1) // 2) * maxform

        # row-truncation dims of the two factors, keyed by left seq
        @cache
        def rows_of(lam):
            part = tuple(map(lam.count, range(datum.rank)))
            return _free_block_poly(datum, part, [lam], seqs_of(part),
                                    (min_tau_degree(datum, part), hi_cap))

        factored = LaurentPoly.zero()
        for lam in seqs_of(beta):
            both = rows_of(lam[:npr]) * rows_of(lam[npr:])
            for w in shuffles:
                factored += both.shift(_inversion_degree(datum, w, lam))
        _compare(rep, factored, series, degrees, "two-block factorization")
    return rep


def _residual_terms(lhs, rhs) -> int:
    """Number of monomials at which two elements differ."""
    return sum(lhs.get(m, 0) != rhs.get(m, 0) for m in lhs.keys() | rhs.keys())


def check_taug(datum, weight, beta, i, qspec=None):
    """Both composites of the crossing chain P and the intertwiner chain
    Q act as explicit polynomials: Q after P on each column e(i, nu) of
    K1 as qp_poly(nu), and P after Q on each column e(nu, i) of K0 as
    pq_poly.  Only the first adds a row on a pass."""
    rep = Report("taug", locals())
    bim = Bimodules(datum, weight, beta, i, qspec=qspec)
    pq = bim.pq_poly()
    zero = (0,) * bim.N
    for nu in seqs_of(tuple(beta)):
        E = {BasisMonomial((), zero, (i,) + nu): 1}
        lhs = bim.K1.nf(bim.apply_Q(bim.apply_P(E)))
        rhs = bim.K1.nf(bim.engine.multiply(E, bim.qp_poly(nu)))
        diff = _residual_terms(lhs, rhs)
        if diff:
            rep.fail(nu=list(nu), residual_terms=diff)
        else:
            rep.note(nu=list(nu), ok=True)
        E = {BasisMonomial((), zero, nu + (i,)): 1}
        lhs = bim.K0.nf(bim.apply_P(bim.apply_Q(E)))
        rhs = bim.K0.nf(bim.engine.multiply(E, pq))
        diff = _residual_terms(lhs, rhs)
        if diff:
            rep.fail(nu=list(nu), residual_terms=diff, identity="P after Q")
    return rep


def check_exact(datum, weight, beta, i, qspec=None):
    """P injective, pi surjective, image of P equals kernel of pi, and
    the graded dimension identity, degree by degree over the window."""
    rep = Report("exact", locals())
    bim = Bimodules(datum, weight, beta, i, qspec=qspec)
    rep.inputs["window"] = list(bim.window)
    lo, hi = bim.window
    shift = bim.shift_P
    for d in range(lo, hi + 1):
        dim0 = len(bim.K0.basis(d))
        dimf = len(bim.F.basis(d))
        dim1 = len(bim.K1.basis(d - shift))
        if dim0 != dimf + dim1:
            rep.fail(degree=d, lhs=dim0, rhs=dimf + dim1,
                     identity="dim K0 = dim F + shifted dim K1")
            continue
        src = bim.K1.basis(d - shift)
        sb = SubspaceBasis(keyfunc=BasisMonomial.sort_key)
        im_in_ker = True
        for m in src:
            v = bim.K0.nf(bim.apply_P({m: 1}))
            if bim.F.nf(v):
                im_in_ker = False
            sb.add(v)
        if sb.rank != len(src):
            rep.fail(degree=d, lhs=sb.rank, rhs=len(src),
                     identity="P injective")
            continue
        if not im_in_ker:
            rep.fail(degree=d, identity="pi after P vanishes")
            continue
        sbp = SubspaceBasis(keyfunc=BasisMonomial.sort_key)
        for m in bim.K0.basis(d):
            sbp.add(bim.F.nf({m: 1}))
        if sbp.rank != dimf:
            rep.fail(degree=d, lhs=sbp.rank, rhs=dimf,
                     identity="pi surjective")
            continue
        if sb.rank != dim0 - sbp.rank:
            rep.fail(degree=d, lhs=sb.rank, rhs=dim0 - sbp.rank,
                     identity="image of P = kernel of pi")
    if rep.status == "pass":
        rep.note(window=[lo, hi], shift=shift,
                 dims_K0=_poly_str(bim.K0.graded_dim_poly(bim.window)))
    return rep


def _fe_tensor(datum, beta, i, j, module_of, window=None) -> LaurentPoly:
    """Graded dims of A(beta - alpha_i + alpha_j) e(., j) tensored over
    A(beta - alpha_i) with e(., i) A(beta): the tensor presenting F_j E_i
    at beta.  module_of(beta, rows, cols, side, emb) cuts the modules out
    of A, free or cyclotomic.  The smaller algebra acts through the right
    strand embedding, which on cyclotomic quotients is well defined
    because it maps the smaller ideal into the larger one (the statement
    proved in `cyclotomic.unit_in_ideal`).  The window defaults to the
    sum of the two factors' degree ranges, outside which a tensor of
    bounded factors vanishes."""
    sub = _sub_beta(beta, i)
    if sub is None:
        return LaurentPoly.zero()
    big = _add_beta(sub, j)
    M = module_of(big, seqs_of(big), [s + (j,) for s in seqs_of(sub)],
                  "right", lambda e: emb_elt_last(e, j))
    N = module_of(beta, [s + (i,) for s in seqs_of(sub)], seqs_of(beta),
                  "left", lambda e: emb_elt_last(e, i))
    if window is None:
        window = (M.min_degree + N.min_degree, M.max_degree + N.max_degree)
    return tensor_dim_poly(M, N, algebra_gens(datum, sub), window)


def _quotient_modules(datum, weight, qspec):
    """module_of for `_fe_tensor` on the cyclotomic quotients."""
    return lambda beta, *cut: CycAlgebra(datum, weight, beta,
                                         qspec).module(*cut)


def _tensor_side(rep, fe, predicted) -> bool:
    """The tensor side against its prediction, over both supports: the
    two series agree at every other degree, where both vanish."""
    return _compare(rep, fe, predicted,
                    sorted(fe.coeffs.keys() | predicted.coeffs.keys()),
                    "tensor side")


def _solved_fe(ef, base, a, d_i):
    """The tensor side F_i E_i solved from the sl2 commutation, shifted
    by d_i: the corner ef of the enlarged quotient less sum_{k<a}
    q^{k d_i} base when a = <h_i, Lambda - beta> >= 0, plus
    sum_{k<-a} q^{-(k+1) d_i} base when a < 0; base is the quotient."""
    if a >= 0:
        corr = LaurentPoly({k * d_i: 1 for k in range(a)})
        return (ef - corr * base).shift(d_i)
    corr = LaurentPoly({-(k + 1) * d_i: 1 for k in range(-a)})
    return (ef + corr * base).shift(d_i)


def _sl2_sides(datum, weight, beta, i, qspec):
    """Both sides of the sl2 commutation at beta for the color i, as
    (a, ef, base, predicted, fe): the pairing a = <h_i, Lambda - beta>,
    the corner ef of E_i F_i in the enlarged quotient, the quotient base,
    the tensor side solved from them, and the F_i E_i tensor itself."""
    beta = tuple(beta)
    a = weight.level_minus(datum, i, beta)
    big = CycAlgebra(datum, weight, _add_beta(beta, i), qspec)
    cols = [s + (i,) for s in seqs_of(beta)]
    ef = big.corner(cols, cols)
    base = CycAlgebra(datum, weight, beta, qspec).graded_dim_poly()
    predicted = _solved_fe(ef, base, a, datum.form(i, i))
    fe = _fe_tensor(datum, beta, i, i, _quotient_modules(datum, weight, qspec))
    return a, ef, base, predicted, fe


def check_sl2(datum, weight, beta, i, qspec=None):
    """The commutation identity between adding and removing a strand of
    color i on the cyclotomic quotient at beta."""
    rep = Report("sl2", locals())
    a, ef, base, predicted, fe = _sl2_sides(datum, weight, beta, i, qspec)
    rep.inputs["pairing"] = a
    if predicted.coeffs and min(predicted.coeffs.values()) < 0:
        rep.fail(identity="solved tensor side has negative coefficients",
                 predicted=_poly_str(predicted))
        return rep
    if _tensor_side(rep, fe, predicted):
        rep.note(pairing=a, ef=_poly_str(ef), base=_poly_str(base),
                 fe=_poly_str(fe))
    return rep


def check_mixed(datum, weight, beta, i, j, qspec=None):
    """For distinct colors, the corner of the enlarged quotient matches
    the tensor up to the off-diagonal form twist."""
    rep = Report("mixed", locals())
    if i == j:
        rep.status = "skip"
        rep.note(reason="colors must differ")
        return rep
    beta = tuple(beta)
    big = CycAlgebra(datum, weight, _add_beta(beta, j), qspec)
    shifted = _sub_beta(_add_beta(beta, j), i)
    rows = [] if shifted is None else [s + (i,) for s in seqs_of(shifted)]
    ef = big.corner(rows, [s + (j,) for s in seqs_of(beta)])
    predicted = ef.shift(datum.form(i, j))
    fe = _fe_tensor(datum, beta, i, j, _quotient_modules(datum, weight, qspec))
    if _tensor_side(rep, fe, predicted):
        rep.note(ef=_poly_str(ef), fe=_poly_str(fe))
    return rep


def check_phi(datum, weight, beta, i, kmax=4, qspec=None):
    """The endomorphism coefficients phi_k: both computations agree and
    satisfy vanishing, monicity, the recursion, and the triangular
    start."""
    rep = Report("phi", locals())
    bim = Bimodules(datum, weight, beta, i, qspec=qspec)
    lvl = bim.level_pairing
    ginv = bim.gamma_inverse()
    sub_zero = bim.sub.is_zero()
    rep.inputs["pairing"] = lvl
    unit = {}
    if not sub_zero:
        for m, d in bim.sub.basis():
            if d == 0 and not m.word and not any(m.exps):
                unit[m] = 1
    prev = None
    prev_e = None
    for k in range(kmax + 1):
        phi_a, psi, e_psi = bim.phi_by_chase(k)
        phi_b = bim.phi_by_division(k)
        if phi_a != phi_b:
            rep.fail(k=k, identity="chase vs division")
            return rep
        if not sub_zero:
            if (not phi_a) != (lvl + k < 0):
                rep.fail(k=k, identity="vanishing threshold")
                return rep
            if lvl + k >= 0:
                tops = {m: c / ginv for (jj, m), c in phi_a.items()
                        if jj == lvl + k}
                if tops != unit:
                    rep.fail(k=k, identity="monic leading coefficient")
                    return rep
                if any(jj > lvl + k for (jj, m) in phi_a):
                    rep.fail(k=k, identity="degree bound")
                    return rep
        if prev is not None:
            rec = {(jj + 1, m): c for (jj, m), c in prev.items()}
            for m, c in prev_e.items():
                rec[(0, m)] = rec.get((0, m), 0) + c
            if {km: c for km, c in rec.items() if c} != phi_a:
                rep.fail(k=k, identity="recursion")
                return rep
        if not sub_zero and lvl < 0:
            if k == -lvl - 1:
                if e_psi != {m: ginv for m in unit}:
                    rep.fail(k=k, identity="triangular unit")
                    return rep
            elif k < -lvl - 1 and e_psi:
                rep.fail(k=k, identity="triangular vanishing")
                return rep
        rep.note(k=k, terms=len(phi_a))
        prev, prev_e = phi_a, e_psi
    return rep


def check_convolution(datum, beta, i, j, degcap=6, qspec=None):
    """Free strand algebra convolution identities through degcap."""
    rep = Report("convolution", locals())
    beta = tuple(beta)
    d_i = datum.form(i, i)
    sub = _sub_beta(beta, i)
    big = _add_beta(beta, j)
    lo = min_tau_degree(datum, big)
    window = (lo, degcap)
    degrees = range(lo, degcap + 1)
    shifted = _sub_beta(big, i)
    rows = [] if shifted is None else [s + (i,) for s in seqs_of(shifted)]
    corner = _free_block_poly(datum, big, rows,
                              [s + (j,) for s in seqs_of(beta)], window, qspec)
    # the tensor side is compared after a degree shift, so compute it
    # one shift past the window at both ends
    pad = max(d_i, -datum.form(i, j))
    fe = _fe_tensor(datum, beta, i, j,
                    lambda b, *cut: TruncationModule(
                        free_space(datum, b, qspec), *cut),
                    (window[0] - pad, degcap + pad))
    if i != j:
        if _compare(rep, corner, fe.shift(-datum.form(i, j)), degrees,
                    "distinct colors"):
            rep.note(corner=_poly_str(corner), fe=_poly_str(fe))
        return rep
    unit_i = tuple(1 if t == i else 0 for t in range(datum.rank))
    twist = -datum.form_beta(unit_i, beta)
    # the twisted tower below drags the base series above the cap
    top = degcap + max(0, -twist)
    seqs = seqs_of(beta)
    base = _free_block_poly(datum, beta, seqs, seqs,
                            (min_tau_degree(datum, beta), top), qspec)
    span = (top - base.valuation()) // d_i + 2 if base.coeffs else 0
    tower = base * LaurentPoly({k * d_i: 1 for k in range(span)})
    if not _compare(rep, corner, fe.shift(-d_i) + tower, degrees,
                    "equal colors"):
        return rep
    # shifted variant: columns start with i, the tower carries the
    # form twist of the added strand against beta
    rows2 = {s + (i,) for s in seqs}
    cols2 = {(i,) + s for s in seqs}
    corner2 = _free_block_poly(datum, big, rows2, cols2, window, qspec)
    if sub is None:
        fe2 = LaurentPoly({})
    else:
        free = free_space(datum, beta, qspec)
        M2 = TruncationModule(free, seqs, [(i,) + s for s in seqs_of(sub)],
                              "right", lambda e: emb_elt_first(e, i))
        N2 = TruncationModule(free, [s + (i,) for s in seqs_of(sub)], seqs,
                              "left", lambda e: emb_elt_last(e, i))
        fe2 = tensor_dim_poly(M2, N2, algebra_gens(datum, sub), window)
    if _compare(rep, corner2, fe2 + tower.shift(twist), degrees,
                "shifted tower"):
        rep.note(corner=_poly_str(corner), fe=_poly_str(fe),
                 corner_shifted=_poly_str(corner2),
                 fe_shifted=_poly_str(fe2))
    return rep


def check_categorification(datum, weight, nmax, qspec=None):
    """Corner dims of every quotient against the module-side pairing
    values, simple counts against weight multiplicities (up to three
    strands), and the ungraded commutator count, over all beta with at
    most nmax strands."""
    rep = Report("categorification", locals())
    mod = UqModule(datum, weight)
    for beta in _betas_upto(datum.rank, nmax):
        alg = CycAlgebra(datum, weight, beta, qspec)
        for mu in seqs_of(beta):
            for nu in seqs_of(beta):
                want = mod.predicted_dim(beta, mu, nu)
                got = alg.corner([mu], [nu])
                if got != want:
                    rep.fail(beta=list(beta), mu=list(mu), nu=list(nu),
                             lhs=_poly_str(got), rhs=_poly_str(want),
                             identity="corner dims")
        if sum(beta) <= 3:
            sc = count_simples(alg)
            gram_rank = mod.weight_dim(beta)
            if not sc.split:
                # the simples of R^Lambda(beta) are absolutely irreducible
                # (Khovanov-Lauda 2009, 3.2), so the center of the
                # semisimple quotient is a product of copies of Q
                rep.fail(beta=list(beta), simples=sc.count,
                         center_dim=sc.center_dim,
                         identity="centre splits over Q")
            elif sc.count != gram_rank:
                rep.fail(beta=list(beta), lhs=sc.count, rhs=gram_rank,
                         identity="simple count vs gram rank")
            else:
                rep.note(beta=list(beta), simples=sc.count, split=True)
        base = alg.graded_dim_poly()
        if not alg.is_zero():
            # the paper's tower bound; a pass adds no witness row
            try:
                cap = certified_cap(datum, weight, beta, qspec)
            except CertificationError as exc:
                rep.fail(beta=list(beta), error=str(exc),
                         identity="last-strand relation")
            else:
                if cap is None or base.degree() > cap:
                    rep.fail(beta=list(beta), lhs=base.degree(), rhs=cap,
                             identity="tower bound")
        for i in range(datum.rank):
            a, ef, _, _, fe = _sl2_sides(datum, weight, beta, i, qspec)
            if ef.at_one() - fe.at_one() != a * base.at_one():
                rep.fail(beta=list(beta), i=i,
                         lhs=ef.at_one() - fe.at_one(), rhs=a * base.at_one(),
                         identity="ungraded commutator")
    return rep


def _betas_upto(rank, nmax):
    """Every beta of at most nmax strands, by height, each height in
    increasing lex order."""
    return [beta for total in range(nmax + 1)
            for beta in weighted_comps((1,) * rank, total)]


# ---------------------------------------------------------------------
# the desk: the small-rank instances each named check runs on

A1 = build_cartan(["0"], [[2]])
A2 = build_cartan(["1", "2"], [[2, -1], [-1, 2]])
A1AFF = build_cartan(["0", "1"], [[2, -2], [-2, 2]])

# each weight Lambda is named by its levels
_L1, _L2, _L3 = Weight((1,)), Weight((2,)), Weight((3,))
_L10, _L11 = Weight((1, 0)), Weight((1, 1))
_I = ((0,), (1,))
_IJ = ((0, 1), (1, 0))

# suite: (check, least strand count of a beta, rows).  Each check runs
# with its own defaults (degcap, kmax), which its report renders.  A row
# is (datum, weights, nmax, tails): one instance per weight, per beta of
# at most nmax strands, per tail of trailing arguments, in that order.
# weights None passes no weight and nmax None no beta, so the
# categorification rows carry their own nmax as the tail.
DESK = {
    "categorification": (check_categorification, 0, [
        (A1, (_L1, _L2), None, ((3,),)),
        (A2, (_L10,), None, ((3,),)),
        (A1AFF, (_L10,), None, ((2,),)),
    ]),
    "convolution": (check_convolution, 0, [
        (A1, None, 2, ((0, 0),)),
        (A2, None, 2, ((0, 0), (0, 1), (1, 0), (1, 1))),
    ]),
    "exact": (check_exact, 0, [
        (A1, (_L1, _L2), 2, ((0,),)),
        (A2, (_L10,), 2, _I),
    ]),
    "mixed": (check_mixed, 0, [
        (A2, (_L10, _L11), 2, _IJ),
        (A1AFF, (_L10,), 2, _IJ),
    ]),
    "pbw": (check_pbw, 1, [
        (A1, None, 3, ((),)),
        (A2, None, 3, ((),)),
        (A1AFF, None, 3, ((),)),
    ]),
    "phi": (check_phi, 0, [
        (A1, (_L1, _L2, _L3), 2, ((0,),)),
        (A2, (_L10, _L11), 2, _I),
        (A1AFF, (_L10,), 1, _I),
    ]),
    "sl2": (check_sl2, 0, [
        (A1, (_L1, _L2, _L3), 3, ((0,),)),
        (A2, (_L10, _L11), 3, _I),
        (A1AFF, (_L10,), 2, _I),
    ]),
    "taug": (check_taug, 0, [
        (A1, (_L1, _L2), 2, ((0,),)),
        (A2, (_L10,), 2, _I),
    ]),
}


def _instances(suite) -> list:
    """The instances of one suite as picklable thunks, in desk order."""
    check, nmin, rows = DESK[suite]
    out = []
    for datum, weights, nmax, tails in rows:
        wts = [()] if weights is None else [(w,) for w in weights]
        betas = [()] if nmax is None else [
            (b,) for b in _betas_upto(datum.rank, nmax) if sum(b) >= nmin]
        out.extend(partial(check, datum, *w, *b, *tail)
                   for w, b, tail in product(wts, betas, tails))
    return out


CHECKS = {suite: partial(_instances, suite) for suite in DESK}


def _error_report(thunk, exc) -> Report:
    """The `error` report of an instance that raised: its check's name
    and arguments (positional, keyword and default, bound as a call
    binds them), with the exception type and message as the witness."""
    func = getattr(thunk, "func", thunk)
    names = func.__code__.co_varnames[:func.__code__.co_argcount]
    defaults = func.__defaults__ or ()
    args = dict(zip(names, getattr(thunk, "args", ())))
    for name, val in zip(names[len(names) - len(defaults):], defaults):
        args.setdefault(name, val)
    args.update(getattr(thunk, "keywords", {}))
    rep = Report(func.__name__.removeprefix("check_"), args)
    rep.status = "error"
    rep.witness.append({"kind": "error", "type": type(exc).__name__,
                        "message": str(exc)})
    return rep


def run_timed(thunk) -> Report:
    """Run one check instance and record its wall time in elapsed_ms.  An
    instance that raises gives an `error` report, and the run goes on.
    Module level, so a process pool can pickle it."""
    t0 = time.perf_counter()
    try:
        rep = thunk()
    except Exception as exc:
        rep = _error_report(thunk, exc)
    rep.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return rep


def run_check(name) -> list:
    maker = CHECKS.get(name)
    if maker is None:
        raise KeyError(f"unknown check: {name}")
    return [run_timed(thunk) for thunk in maker()]


def run_all(names=None) -> list:
    reports = []
    for name in sorted(CHECKS if names is None else names):
        reports.extend(run_check(name))
    return reports
