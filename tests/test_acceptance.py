"""Acceptance gate: twelve criteria, one test and one report line each.

Every comparison is exact; nothing is approximated or sampled beyond
the stated random triple counts, which use a fixed seed.
"""

import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from quiverhecke.cartan import Weight, build_cartan, seqs_of
from quiverhecke.checks import check_pbw, run_check
from quiverhecke.cyclotomic import CycAlgebra
from quiverhecke.klr import BasisMonomial, get_engine
from quiverhecke.perms import all_perms, canonical_word

A1 = build_cartan(("0",), [[2]])
A2 = build_cartan(("1", "2"), [[2, -1], [-1, 2]])
A1AFF = build_cartan(("0", "1"), [[2, -2], [-2, 2]])

TRIO = (A1, A2, A1AFF)

CHECK_ALL_REFERENCE = (Path(__file__).resolve().parents[1] / "perfbench"
                       / "reference" / "check-all.json")


def _sub(a, b):
    out = dict(a)
    for m, c in b.items():
        v = out.get(m, 0) - c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def _qpoly_elt(eng, i, j, k, seq):
    """Q_{i j}(x_k, x_{k+1}) e(seq)."""
    poly = []
    for (p, q, t) in eng.qspec.terms(i, j):
        e = [0] * eng.n
        e[k] = p
        e[k + 1] = q
        poly.append((tuple(e), t))
    return eng.times_poly(eng.idempotent(seq), poly)


def _swap(seq, k):
    return seq[:k] + (seq[k + 1], seq[k]) + seq[k + 2:]


def _betas(rank, nmax):
    out = []
    for total in range(1, nmax + 1):
        for tup in itertools.combinations_with_replacement(
                range(rank), total):
            counts = [0] * rank
            for i in tup:
                counts[i] += 1
            out.append(tuple(counts))
    return out


def test_01_defining_relations():
    for datum in (A2, A1AFF):
        for n in range(1, 4):
            eng = get_engine(datum, n)
            allseq = list(itertools.product(range(datum.rank), repeat=n))
            for nu in allseq:
                e_nu = eng.idempotent(nu)
                for mu in allseq:
                    prod = eng.multiply(eng.idempotent(mu), e_nu)
                    assert prod == (e_nu if mu == nu else {})
                for k in range(n):
                    for l in range(n):
                        xk = eng.gen_x(k, nu)
                        ab = eng.multiply(eng.gen_x(l, nu), xk)
                        ba = eng.multiply(xk, eng.gen_x(l, nu))
                        assert ab == ba
                for k in range(n - 1):
                    snu = _swap(nu, k)
                    tau = eng.gen_tau(k, nu)
                    assert eng.multiply(eng.idempotent(snu), tau) == tau
                    assert eng.multiply(
                        eng.gen_tau(k, snu), tau
                    ) == _qpoly_elt(eng, nu[k], nu[k + 1], k, nu)
                    for j in range(n):
                        lhs = eng.multiply(tau, eng.gen_x(j, nu))
                        sj = k + 1 if j == k else (k if j == k + 1 else j)
                        rhs = eng.multiply(eng.gen_x(sj, snu), tau)
                        delta = {}
                        if nu[k] == nu[k + 1] and j in (k, k + 1):
                            delta = eng.idempotent(nu)
                            if j == k:
                                delta = {m: -c for m, c in delta.items()}
                        assert _sub(lhs, rhs) == delta
            if n == 3:
                for nu in allseq:
                    t0 = lambda s: eng.gen_tau(0, s)
                    t1 = lambda s: eng.gen_tau(1, s)
                    s0 = lambda s: (s[1], s[0], s[2])
                    s1 = lambda s: (s[0], s[2], s[1])
                    lhs = eng.multiply(
                        t1(s0(s1(nu))), eng.multiply(t0(s1(nu)), t1(nu)))
                    rhs = eng.multiply(
                        t0(s1(s0(nu))), eng.multiply(t1(s0(nu)), t0(nu)))
                    diff = _sub(lhs, rhs)
                    if nu[0] != nu[2]:
                        assert diff == {}
                        continue
                    poly = []
                    for (p, q, t) in eng.qspec.terms(nu[0], nu[1]):
                        for s in range(p):
                            poly.append(((s, q, p - 1 - s), t))
                    assert diff == eng.times_poly(eng.idempotent(nu), poly)


def test_02_associativity_random_triples():
    rng = random.Random(20240817)
    for datum in TRIO:
        for beta in _betas(datum.rank, 3):
            n = sum(beta)
            eng = get_engine(datum, n)
            perms = all_perms(n)
            seqs = seqs_of(beta)

            def rand_mono():
                w = canonical_word(rng.choice(perms))
                exps = tuple(rng.randrange(3) for _ in range(n))
                return {BasisMonomial(w, exps, rng.choice(seqs)):
                        Fraction(rng.randrange(1, 5))}

            for _ in range(200):
                a, b, c = rand_mono(), rand_mono(), rand_mono()
                left = eng.multiply(eng.multiply(a, b), c)
                right = eng.multiply(a, eng.multiply(b, c))
                assert left == right


def test_03_pbw_through_degree_ten():
    for datum in TRIO:
        for beta in _betas(datum.rank, 3):
            rep = check_pbw(datum, beta, degcap=10)
            assert rep.status == "pass", rep.to_json()


def test_04_intertwiner_identities():
    for datum in TRIO:
        for n in range(2, 5):
            eng = get_engine(datum, n)
            allseq = list(itertools.product(range(datum.rank), repeat=n))
            gs = [eng.intertwiner_g_all(a, allseq) for a in range(n - 1)]
            xs = []
            for b in range(n):
                tot = {}
                for nu in allseq:
                    for m, c in eng.gen_x(b, nu).items():
                        tot[m] = tot.get(m, 0) + c
                xs.append(tot)
            taus = []
            for a in range(n - 1):
                tot = {}
                for nu in allseq:
                    for m, c in eng.gen_tau(a, nu).items():
                        tot[m] = tot.get(m, 0) + c
                taus.append(tot)
            for a in range(n - 1):
                for b in range(n):
                    sb = a + 1 if b == a else (a if b == a + 1 else b)
                    lhs = eng.multiply(xs[sb], gs[a])
                    rhs = eng.multiply(gs[a], xs[b])
                    assert lhs == rhs, (datum.labels, n, a, b)
            for a in range(n - 2):
                lhs = eng.multiply(
                    taus[a], eng.multiply(gs[a + 1], gs[a]))
                rhs = eng.multiply(
                    eng.multiply(gs[a + 1], gs[a]), taus[a + 1])
                assert lhs == rhs, (datum.labels, n, a)


def _all_pass(name):
    reports = run_check(name)
    bad = [r.to_json() for r in reports if r.status != "pass"]
    assert not bad, bad
    return reports


def test_05_taug_suite():
    assert len(_all_pass("taug")) == 18


def test_06_exact_sequence_suite():
    assert len(_all_pass("exact")) == 18


def test_07_sl2_suite_both_signs():
    reports = _all_pass("sl2")
    by_labels = {("0",): A1, ("1", "2"): A2, ("0", "1"): A1AFF}
    signs = {"neg": 0, "nonneg": 0}
    for r in reports:
        datum = by_labels[tuple(r.inputs["labels"])]
        beta = r.inputs["beta"]
        i = r.inputs["i"]
        pairing = r.inputs["levels"][i] - sum(
            datum.a(i, j) * k for j, k in enumerate(beta))
        signs["neg" if pairing < 0 else "nonneg"] += 1
    assert signs["neg"] >= 2 and signs["nonneg"] >= 2, signs


def test_08_mixed_commutation_suite():
    assert len(_all_pass("mixed")) == 36


def test_09_phi_suite():
    assert len(_all_pass("phi")) == 39


def test_10_categorification_suite():
    assert len(_all_pass("categorification")) == 4


def test_11_vanishing():
    for datum in TRIO:
        zero = Weight((0,) * datum.rank)
        for beta in _betas(datum.rank, 3):
            assert CycAlgebra(datum, zero, beta).is_zero(), (
                datum.labels, beta)
    for m in range(3):
        alg = CycAlgebra(A1, Weight((m,)), (m + 1,))
        assert alg.is_zero(), m


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items()
                if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_strip_timing(x) for x in obj]
    return obj


def test_12_check_all_deterministic():
    cmd = [sys.executable, "-m", "quiverhecke.cli", "check", "all", "--json"]
    runs = []
    for _ in range(2):
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    stripped = [
        json.dumps(_strip_timing(json.loads(out)), sort_keys=True)
        for out in runs
    ]
    assert stripped[0].encode() == stripped[1].encode()
    # and the desk still emits the benchmark's reference answers
    got = json.dumps(_strip_timing(json.loads(runs[0])), sort_keys=True,
                     indent=2) + "\n"
    assert got == CHECK_ALL_REFERENCE.read_text(encoding="utf-8")
