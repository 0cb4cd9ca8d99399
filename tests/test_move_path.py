"""`perms.move_path`, built by Tits' word property, against the
breadth-first search over the reduced-word graph that it replaced
(`old_move_path`, kept verbatim)."""

import itertools
import random

import pytest

import old_move_path as old
from quiverhecke import klr
from quiverhecke.cartan import build_cartan
from quiverhecke.perms import all_perms, canonical_word, move_path, reduced_words

A1 = build_cartan(("0",), [[2]])
A2 = build_cartan(("1", "2"), [[2, -1], [-1, 2]])
B2 = build_cartan(("s", "l"), [[2, -2], [-1, 2]])


def engine_paths(n):
    """The (src, dst) pairs `KLR.tau_tau_e` asks for on n strands:
    canonical(w) + (k,) -> canonical(w s_k) on an ascent, and
    canonical(w) -> canonical(w s_k) + (k,) on a descent."""
    for w in all_perms(n):
        cw = canonical_word(w)
        for k in range(n - 1):
            v = canonical_word(w[:k] + (w[k + 1], w[k]) + w[k + 2:])
            yield (cw + (k,), v) if w[k] < w[k + 1] else (cw, v + (k,))


def replay(src, path):
    """The word that the moves of path carry src to, checking each move."""
    cur = src
    for before, pos, kind in path:
        assert before == cur
        a, b = cur[pos], cur[pos + 1]
        if kind == "comm":
            assert abs(a - b) >= 2
            cur = cur[:pos] + (b, a) + cur[pos + 2:]
        else:
            assert kind == "braid"
            assert abs(a - b) == 1 and cur[pos + 2] == a
            cur = cur[:pos] + (b, a, b) + cur[pos + 3:]
    return cur


def test_engine_paths_equal_the_search_up_to_six_strands():
    count = 0
    for n in range(2, 7):
        for src, dst in engine_paths(n):
            assert move_path(n, src, dst) == old.move_path(n, src, dst)
            count += 1
    assert count == 4166


def test_seven_strand_engine_paths_replay_as_moves():
    rng = random.Random(37)
    pairs = rng.sample(list(engine_paths(7)), 100)
    for src, dst in pairs:
        assert replay(src, move_path(7, src, dst)) == dst


@pytest.mark.parametrize("datum", [A1, A2, B2])
def test_tau_tau_e_matches_the_engine_on_the_search(datum, monkeypatch):
    def table(eng, n):
        return {(cw, k, mu): eng.tau_tau_e(cw, k, mu)
                for cw in map(canonical_word, all_perms(n))
                for k in range(n - 1)
                for mu in itertools.product(range(datum.rank), repeat=n)}

    for n in range(2, 6):
        new = table(klr.KLR(datum, n), n)
        with monkeypatch.context() as m:
            m.setattr(klr, "move_path", old.move_path)
            assert table(klr.KLR(datum, n), n) == new


@pytest.mark.parametrize("datum", [A2, B2])
def test_corrections_sum_to_the_same_difference_on_every_path(datum):
    # on words that are not engine pairs the two paths differ, and the
    # corrections along either still sum to tau_src - tau_dst
    rng = random.Random(41)
    n = 5
    eng = klr.KLR(datum, n)
    perms = [w for w in all_perms(n) if len(canonical_word(w)) >= 3]
    differ = 0
    for _ in range(40):
        words = sorted(reduced_words(n, rng.choice(perms)))
        src, dst = rng.choice(words), rng.choice(words)
        mu = tuple(rng.randrange(datum.rank) for _ in range(n))
        want = dict(eng.eval_word(src, mu))
        for m, c in eng.eval_word(dst, mu).items():
            klr._add(want, m, -c)
        paths = (move_path(n, src, dst), old.move_path(n, src, dst))
        differ += paths[0] != paths[1]
        for path in paths:
            assert replay(src, path) == dst
            got = {}
            for step in path:
                for m, c in eng._braid_correction(step, mu, ()).items():
                    klr._add(got, m, c)
            assert got == want
    assert differ
