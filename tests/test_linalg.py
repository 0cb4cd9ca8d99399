"""Sparse echelon bases over the rationals, spans that stop pulling rows
at full rank, and Laurent-entry ranks."""

import random
from fractions import Fraction

import old_fraction_basis as frac
import old_tracked_basis as old
from quiverhecke.laurent import LaurentPoly
from quiverhecke.linalg import (
    SubspaceBasis,
    coords_in_span,
    laurent_rank,
    span_basis,
)


def test_add_and_rank():
    sb = SubspaceBasis()
    assert sb.add({"a": Fraction(1), "b": Fraction(2)})
    assert sb.add({"b": Fraction(1)})
    # dependent vector must be rejected
    assert not sb.add({"a": Fraction(2), "b": Fraction(7)})
    assert sb.rank == 2


def test_contains_and_normal_form():
    sb = SubspaceBasis()
    sb.add({"x": Fraction(1), "y": Fraction(1)})
    assert sb.contains({"x": Fraction(3), "y": Fraction(3)})
    assert not sb.contains({"x": Fraction(1)})
    nf = sb.normal_form({"x": Fraction(1)})
    # the residual is supported away from pivot columns and differs from
    # the input by a span element
    assert set(nf) <= {"x", "y"} - set(sb.pivot_columns())
    diff = {"x": Fraction(1) - nf.get("x", 0), "y": -nf.get("y", 0)}
    diff = {k: v for k, v in diff.items() if v}
    assert sb.contains(diff)
    # normal form is idempotent
    assert sb.normal_form(nf) == nf


def test_normal_form_zero_on_span():
    sb = SubspaceBasis()
    sb.add({1: Fraction(2), 2: Fraction(4)})
    assert sb.normal_form({1: Fraction(1), 2: Fraction(2)}) == {}


def test_coords_in_span_reconstructs():
    rng = random.Random(77)
    gens = []
    for _ in range(6):
        v = {k: Fraction(rng.randrange(-4, 5)) for k in range(5)}
        v = {k: c for k, c in v.items() if c}
        gens.append(v)
    # a random combination of the generators must be recognized
    target = {}
    combo = [Fraction(rng.randrange(-3, 4)) for _ in gens]
    for c, g in zip(combo, gens):
        for k, val in g.items():
            target[k] = target.get(k, 0) + c * val
    target = {k: v for k, v in target.items() if v}
    # a vector outside the span has no coordinates
    outside = dict(target)
    outside["w"] = Fraction(1)
    coords, none = coords_in_span(gens, [target, outside])
    assert coords is not None
    assert _combine(gens, coords) == target
    assert none is None


def _combine(gens, coords):
    out = {}
    for idx, c in coords.items():
        for k, val in gens[idx].items():
            out[k] = out.get(k, 0) + c * val
    return {k: v for k, v in out.items() if v}


def _random_family(rng, ncols, nindep, ndep):
    """nindep random vectors over ncols columns, with ndep random
    combinations of them (zero vectors and repeats included) shuffled
    in, so that the family has dependent generators."""
    def vec():
        v = {c: Fraction(rng.randrange(-3, 4), rng.choice((1, 1, 2, 3)))
             for c in rng.sample(range(ncols), rng.randint(1, ncols))}
        return {c: x for c, x in v.items() if x}

    base = [vec() for _ in range(nindep)]
    gens = list(base)
    for _ in range(ndep):
        pick = rng.sample(range(len(gens)), min(len(gens), rng.randint(0, 3)))
        gens.insert(rng.randint(0, len(gens)),
                    _combine(gens, {k: Fraction(rng.randrange(-2, 3))
                                    for k in pick}))
    return gens


def test_coords_in_span_matches_tracked_basis():
    # the coordinates of dependent families are not unique: the tag
    # columns must give exactly the tracked basis's choice
    rng = random.Random(2011)
    keyfuncs = (None, lambda c: -c, lambda c: (c % 3, c))
    dependent = 0
    for trial in range(300):
        ncols = rng.randint(1, 7)
        gens = _random_family(rng, ncols, rng.randint(0, 6),
                              rng.randint(0, 6))
        keyfunc = keyfuncs[trial % len(keyfuncs)]
        ref = old.SubspaceBasis(keyfunc)
        dependent += sum(not ref.add(g) for g in gens)
        targets = []
        for _ in range(4):
            combo = {k: Fraction(rng.randrange(-3, 4))
                     for k in range(len(gens)) if rng.random() < 0.5}
            inside = _combine(gens, combo)
            targets.append(inside)
            extra = {rng.randrange(ncols + 1): Fraction(rng.randrange(1, 4))}
            targets.append({c: inside.get(c, 0) + extra.get(c, 0)
                            for c in set(inside) | set(extra)})
        got = coords_in_span(gens, targets, keyfunc)
        assert got == old.tracked_coords(gens, targets, keyfunc)
        for target, coords in zip(targets, got):
            assert (coords is None) == (not ref.contains(target))
            if coords is not None:
                assert _combine(gens, coords) == {
                    c: v for c, v in target.items() if v}
    assert dependent > 300


def _int_iff_integral(values):
    return all(type(v) in (int, Fraction)
               and (type(v) is int) == (v.denominator == 1) for v in values)


def _mixed_family(rng, ncols, kind):
    """Random vectors over ncols columns whose entries are ints, Fractions
    (integral ones included) or both, as kind says, with zero vectors,
    explicit zero entries and combinations of earlier vectors shuffled
    in."""
    def entry():
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return rng.choice((1, -1, 1, -1, 2, -2, 3, 0))
        return Fraction(rng.randrange(-3, 4), rng.choice((1, 1, 2, 3)))

    gens = []
    for _ in range(rng.randint(0, 8)):
        roll = rng.random()
        if roll < 0.1:
            gens.append(rng.choice(({}, {rng.randrange(ncols): 0})))
        elif roll < 0.3 and gens:
            pick = rng.sample(range(len(gens)), min(len(gens), 2))
            gens.append(_combine(gens, {k: entry() for k in pick}))
        else:
            gens.append({c: entry() for c in
                         rng.sample(range(ncols), rng.randint(1, ncols))})
    return gens


def test_integer_echelon_form_matches_fraction_basis():
    # the same rows, pivots, normal forms and coordinates as the
    # all-Fraction elimination, with an int exactly where integral
    rng = random.Random(1311)
    keyfuncs = (None, lambda c: -c, lambda c: (c % 3, c))
    pivot_values = {1: 0, -1: 0, "other": 0}
    for trial in range(300):
        ncols = rng.randint(1, 6)
        kind = ("int", "fraction", "mixed")[trial % 3]
        gens = _mixed_family(rng, ncols, kind)
        keyfunc = keyfuncs[trial % len(keyfuncs)]
        new, ref = SubspaceBasis(keyfunc), frac.SubspaceBasis(keyfunc)
        for g in gens:
            res = new.normal_form(g)
            if res:
                p = res[min(res, key=new.keyfunc)]
                pivot_values[p if p in (1, -1) else "other"] += 1
            assert new.add(g) == ref.add(g)
            assert new.rank == ref.rank
            assert list(new.pivots.items()) == list(ref.pivots.items())
            assert new.rows == ref.rows
            assert all(_int_iff_integral(row.values()) for row in new.rows)
        targets = [{}, *({c: 1} for c in range(ncols)),
                   {c: Fraction(1, 2) for c in range(ncols)}]
        for _ in range(3):
            inside = _combine(gens, {k: Fraction(rng.randrange(-3, 4),
                                                 rng.choice((1, 2)))
                                     for k in range(len(gens))})
            targets.append(inside)
            targets.append({**inside, ncols: rng.randrange(1, 4)})
        for t in targets:
            nf = new.normal_form(t)
            assert nf == ref.normal_form(t)
            assert _int_iff_integral(nf.values())
            assert new.contains(t) == ref.contains(t)
        got = coords_in_span(gens, targets, keyfunc)
        assert got == frac.coords_in_span(gens, targets, keyfunc)
        assert all(_int_iff_integral(c.values()) for c in got if c)
    assert min(pivot_values.values()) > 50


def test_coords_in_span_of_no_generators():
    assert coords_in_span([], [{}, {"a": 1}]) == [{}, None]


def test_keyfunc_controls_pivots():
    sb = SubspaceBasis(keyfunc=lambda k: -k)
    sb.add({1: Fraction(1), 5: Fraction(1)})
    assert set(sb.pivot_columns()) == {5}


def test_identity_basis_is_the_full_echelon_form():
    cols = ["a", "b", "c"]
    ident = SubspaceBasis.identity(cols)
    ref = SubspaceBasis()
    for v in ({"a": 1, "b": 2}, {"b": 1, "c": 5}, {"a": 3, "c": 1}):
        ref.add(v)
    assert ident.rank == ref.rank == 3
    assert ident.pivot_columns() == ref.pivot_columns() == set(cols)
    assert ident.rows == ref.rows
    assert ident.normal_form({"a": 4, "c": Fraction(1, 3)}) == {}
    assert ident.add({"b": 7}) is False


def counting(rows):
    """The rows, and a list that records how many were pulled."""
    pulled = []

    def gen():
        for row in rows:
            pulled.append(row)
            yield row

    return gen(), pulled


def test_span_basis_stops_pulling_rows_at_full_rank():
    rows, pulled = counting([{"a": 2, "b": 1}, {"b": 3}, {"a": 1}, {"b": 1}])
    sb = span_basis(rows, ["a", "b"])
    assert len(pulled) == 2
    assert sb.rank == 2
    assert sb.normal_form({"a": 5, "b": 1}) == {}
    # the rows are those of the identity basis, row by pivot
    ident = SubspaceBasis.identity(["a", "b"])
    assert ({c: sb.rows[r] for c, r in sb.pivots.items()}
            == {c: ident.rows[r] for c, r in ident.pivots.items()})


def test_span_basis_rank_is_exact_over_q():
    # rows that are dependent modulo the prime 2^61 - 1 but independent
    # over Q have rank 2
    rows, pulled = counting([{"a": 2**61 - 1, "b": 1}, {"b": 1}])
    sb = span_basis(rows, ["a", "b"])
    assert len(pulled) == 2
    assert sb.rank == 2
    assert sb.pivot_columns() == {"a", "b"}


def test_span_basis_one_short_of_full_stays_partial():
    cols = ["a", "b", "c"]
    rows = [{"a": 1, "b": -1}, {"b": 1, "c": -1}, {"a": 2, "c": -2}]
    sb = span_basis(rows, cols)
    ref = SubspaceBasis()
    for row in rows:
        ref.add(row)
    assert sb.rank == ref.rank == 2
    for c in cols:
        unit = {c: Fraction(1)}
        assert sb.normal_form(unit) == ref.normal_form(unit) != {}


def test_span_basis_non_integral_row_goes_exact():
    rows, pulled = counting(
        [{"a": 1}, {"a": Fraction(1, 2)}, {"b": 1}, {"a": 9}])
    sb = span_basis(rows, ["a", "b"])
    # the pass stops once the rank is full
    assert len(pulled) == 3
    assert sb.rank == 2
    rows, pulled = counting([{"a": Fraction(3, 2), "b": 1}])
    sb = span_basis(rows, ["a", "b"])
    assert sb.rank == 1
    assert sb.rows == [{"a": Fraction(1), "b": Fraction(2, 3)}]


def test_span_basis_of_empty_block_pulls_nothing():
    rows, pulled = counting([{"a": 1}])
    assert span_basis(rows, []).rank == 0
    assert pulled == []


def test_laurent_rank():
    def q(e):
        return LaurentPoly({e: 1})

    one = LaurentPoly.one()
    # invertible 2x2
    assert laurent_rank([[q(1), one], [one, q(-1) + one]]) == 2
    # determinant q * q^-1 - 1 = 0
    assert laurent_rank([[q(1), one], [one, q(-1)]]) == 1
    assert laurent_rank([[LaurentPoly.zero()]]) == 0
    # rank grows with independent rows
    rows = [
        [one, q(2), LaurentPoly.zero()],
        [q(2), q(4), LaurentPoly.zero()],
        [LaurentPoly.zero(), LaurentPoly.zero(), one + q(2)],
    ]
    assert laurent_rank(rows) == 2
