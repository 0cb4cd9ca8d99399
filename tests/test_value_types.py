"""The value types against their old `@dataclass` definitions in
tests/old_value_types.py, over the desk's Cartan data and weights and B2.

`CartanDatum` and `Weight` agree with the frozen dataclasses on `==`,
`hash`, `repr`, their methods, a refused assignment and a pickle round
trip.  `SimpleCount` agrees on `==`, `repr` and pickling; where the old
one was a mutable, unhashable dataclass, the new one is immutable and
hashes by its fields, as no caller ever assigns to a count.  `RunConfig`
is a plain class that carries the same fields and requirements."""

import pickle
from itertools import product

import pytest

import old_value_types as old
from quiverhecke.cartan import (CartanDatum, Weight, build_cartan,
                                weighted_comps)
from quiverhecke.checks import A1, A2, DESK
from quiverhecke.config import ConfigError, RunConfig
from quiverhecke.cyclotomic import CycAlgebra
from quiverhecke.qpolys import QSpec
from quiverhecke.simples import SimpleCount, count_simples

B2 = build_cartan(("s", "l"), [[2, -2], [-1, 2]])


def _desk():
    """The distinct data and weights of the desk, then B2 and its
    fundamental weights and rho."""
    data, weights = [], []
    for _, _, rows in DESK.values():
        for datum, wts, _, _ in rows:
            data.append(datum)
            weights.extend(wts or ())
    data.append(B2)
    weights.extend(Weight(levels) for levels in ((1, 0), (0, 1), (1, 1)))
    return list(dict.fromkeys(data)), list(dict.fromkeys(weights))


DATA, WEIGHTS = _desk()


def _old_datum(d):
    return old.CartanDatum(d.labels, d.matrix, d.sym)


def _old_weight(w):
    return old.Weight(w.levels)


def _agree_as_values(new, older):
    """new and its old counterpart print alike, refuse assignment, and
    come back from pickle equal, of their own type."""
    assert repr(new) == repr(older)
    for obj in (new, older):
        for name in (*older.__dataclass_fields__, "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is type(obj) and back == obj
        assert repr(back) == repr(obj) and hash(back) == hash(obj)


def test_the_desk_is_covered():
    # A1, A2 and affine A1 from the desk, then B2
    assert [d.labels for d in DATA] == [("0",), ("1", "2"), ("0", "1"),
                                        ("s", "l")]
    assert [w.levels for w in WEIGHTS] == [(1,), (2,), (1, 0), (1, 1), (3,),
                                           (0, 1)]


def test_data_agree_with_the_dataclass():
    pairs = [(d, _old_datum(d)) for d in DATA]
    for new, older in pairs:
        _agree_as_values(new, older)
        assert hash(new) == hash(older)
        assert new == CartanDatum(new.labels, new.matrix, new.sym)
        assert (new.rank, new.labels, new.matrix, new.sym) == (
            older.rank, older.labels, older.matrix, older.sym)
        n = new.rank
        for i, j in product(range(n), repeat=2):
            assert new.a(i, j) == older.a(i, j)
            assert new.form(i, j) == older.form(i, j)
        for beta in weighted_comps((1,) * n, 3):
            for gamma in weighted_comps((1,) * n, 2):
                assert new.form_beta(beta, gamma) == older.form_beta(beta,
                                                                     gamma)
        for label in new.labels:
            assert new.index_of(label) == older.index_of(label)
    for (a, old_a), (b, old_b) in product(pairs, repeat=2):
        assert (a == b) == (old_a == old_b)
        assert (a != b) == (old_a != old_b)
    # a datum differing in one field only is another datum
    for other in (CartanDatum(("x",), A1.matrix, A1.sym),
                  CartanDatum(A1.labels, A1.matrix, (2,))):
        assert other != A1 and _old_datum(other) != _old_datum(A1)


def test_weights_agree_with_the_dataclass():
    pairs = [(w, _old_weight(w)) for w in WEIGHTS]
    for new, older in pairs:
        _agree_as_values(new, older)
        assert hash(new) == hash(older)
        assert new.levels == older.levels
        for datum in DATA:
            if datum.rank != len(new.levels):
                continue
            for total in range(4):
                for beta in weighted_comps((1,) * datum.rank, total):
                    got = (new.pair_beta(datum, beta),
                           new.coeff_c(datum, beta),
                           [new.level_minus(datum, i, beta)
                            for i in range(datum.rank)])
                    want = (older.pair_beta(datum, beta),
                            older.coeff_c(datum, beta),
                            [older.level_minus(datum, i, beta)
                             for i in range(datum.rank)])
                    assert got == want
    for (a, old_a), (b, old_b) in product(pairs, repeat=2):
        assert (a == b) == (old_a == old_b)
        assert (hash(a) == hash(b)) == (hash(old_a) == hash(old_b))


# (datum, levels, beta) of small quotients, one of them over B2
QUOTIENTS = [(A1, (2,), (2,)), (A1, (3,), (2,)), (A2, (1, 1), (1, 1)),
             (B2, (1, 1), (1, 1)), (B2, (0, 1), (0, 1))]


def test_simple_counts_agree_with_the_dataclass():
    counts = [count_simples(CycAlgebra(d, Weight(levels), beta))
              for d, levels, beta in QUOTIENTS]
    olds = [old.SimpleCount(*c) for c in counts]
    for new, older in zip(counts, olds):
        assert type(new) is SimpleCount
        assert repr(new) == repr(older)
        back = pickle.loads(pickle.dumps(new))
        assert type(back) is SimpleCount and back == new
        # the two deliberate differences: the old count was unhashable
        # and took assignment; the new one hashes by its fields, like a
        # frozen dataclass, and refuses assignment
        with pytest.raises(TypeError):
            hash(older)
        assert hash(new) == hash(tuple(new))
        older.count = older.count
        with pytest.raises(AttributeError):
            new.count = 0
    for (a, old_a), (b, old_b) in product(zip(counts, olds), repeat=2):
        assert (a == b) == (old_a == old_b)


def test_run_config_carries_what_the_dataclass_did():
    fields = ("datum", "qspec", "weight", "betas", "degree_cap", "output")
    qspec = QSpec.standard(A2)
    betas = (((1, 1),), None)
    for weight, beta, cap in product((Weight((1, 0)), None), betas,
                                     (None, 4)):
        kwargs = dict(datum=A2, qspec=qspec, weight=weight, betas=beta,
                      degree_cap=cap, output="tsv")
        new, older = RunConfig(**kwargs), old.RunConfig(**kwargs)
        assert ([getattr(new, f) for f in fields]
                == [getattr(older, f) for f in fields])
        for cfg in (new, older):
            if weight is None:
                with pytest.raises(ConfigError, match="lambda"):
                    cfg.require_weight()
            else:
                assert cfg.require_weight() is weight
            if beta is None:
                with pytest.raises(ConfigError, match="nmax"):
                    cfg.require_betas()
            else:
                assert cfg.require_betas() is beta
        # both are mutable records
        new.output = older.output = "json"
        assert new.output == older.output
