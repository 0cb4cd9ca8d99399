"""Permutation words: composition order, reduced words, canonical forms."""

import random

import pytest

from quiverhecke.perms import (
    all_perms,
    apply_word,
    act_on_seq,
    canonical_word,
    compose,
    inverse,
    inversions,
    is_reduced,
    length,
    move_path,
    reduced_words,
    simple,
    word_to_perm,
)


def test_identity_and_simple():
    assert compose(simple(3, 1), simple(3, 1)) == (0, 1, 2)
    assert simple(3, 0) == (1, 0, 2)
    assert simple(4, 2) == (0, 1, 3, 2)


def test_compose_and_inverse():
    rng = random.Random(7)
    perms = all_perms(4)
    for _ in range(30):
        u = rng.choice(perms)
        v = rng.choice(perms)
        w = compose(u, v)
        assert compose(w, inverse(w)) == (0, 1, 2, 3)
        assert compose(inverse(u), compose(u, v)) == v


def test_word_to_perm_multiplies_left_to_right():
    # word (0, 1) means s_0 then s_1 applied to positions as in
    # tau_0 tau_1: the perm is s_0 . s_1 with s_1 acting first on points
    w = word_to_perm(3, (0, 1))
    assert w == compose(simple(3, 0), simple(3, 1))
    assert w == (1, 2, 0)


def test_apply_word_matches_act_on_seq():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randrange(2, 6)
        word = tuple(rng.randrange(n - 1) for _ in range(rng.randrange(6)))
        seq = tuple(rng.randrange(3) for _ in range(n))
        w = word_to_perm(n, word)
        assert apply_word(word, seq) == act_on_seq(w, seq)


def test_act_on_seq_is_position_relabeling():
    # (w . nu)_m = nu_{w^{-1}(m)}: the letter at position k moves to w(k)
    w = (2, 0, 1)
    nu = ("a", "b", "c")
    out = act_on_seq(w, nu)
    for k in range(3):
        assert out[w[k]] == nu[k]


def test_length_and_inversions():
    for w in all_perms(4):
        assert length(w) == len(inversions(w))
        assert length(w) == len(canonical_word(w))


def test_is_reduced():
    assert is_reduced(3, (0, 1, 0))
    assert not is_reduced(3, (0, 0))
    assert not is_reduced(3, (0, 1, 0, 1))  # braid-equivalent to (1, 0, 1)


def test_canonical_word_is_lex_min_reduced():
    for w in all_perms(4):
        cw = canonical_word(w)
        assert word_to_perm(4, cw) == w
        words = list(reduced_words(4, w))
        assert cw in words
        assert cw == min(words)


def test_reduced_words_count_longest_element():
    # the longest element of S_4 has 16 reduced words
    w0 = (3, 2, 1, 0)
    assert len(list(reduced_words(4, w0))) == 16


def test_move_path_connects_reduced_words():
    rng = random.Random(23)
    perms = [w for w in all_perms(4) if length(w) >= 2]
    for _ in range(15):
        w = rng.choice(perms)
        words = list(reduced_words(4, w))
        src = rng.choice(words)
        dst = rng.choice(words)
        cur = src
        for before, pos, kind in move_path(4, src, dst):
            assert before == cur
            if kind == "comm":
                a, b = cur[pos], cur[pos + 1]
                assert abs(a - b) >= 2
                cur = cur[:pos] + (b, a) + cur[pos + 2 :]
            else:
                a, b = cur[pos], cur[pos + 1]
                assert abs(a - b) == 1 and cur[pos + 2] == a
                cur = cur[:pos] + (b, a, b) + cur[pos + 3 :]
        assert cur == dst


def test_move_path_rejects_words_that_are_not_reduced():
    with pytest.raises(ValueError):
        move_path(2, (0, 0), ())
    with pytest.raises(ValueError):
        move_path(3, (0, 1, 0, 1), (1, 0))
    with pytest.raises(ValueError):
        move_path(3, (0, 0), (0, 0))
    with pytest.raises(ValueError):
        move_path(3, (0, 1), (1, 0))
