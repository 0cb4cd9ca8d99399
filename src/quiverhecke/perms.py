"""Symmetric group utilities for strand diagrams.

Permutations are one-line tuples w with w[m] = w(m), 0-based.  A "word"
is a tuple of letters k meaning the product s_{k} ... applied left to
right as written: word (k1, k2) stands for s_{k1} * s_{k2}, and letters
act on strand positions k, k+1 (0-based).

Every permutation gets one canonical reduced word (lexicographically
smallest).  Any two reduced words of a permutation are joined by a chain
of commutation and braid moves, built by Tits' word property.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = [
    "simple",
    "compose",
    "inverse",
    "apply_word",
    "word_to_perm",
    "length",
    "inversions",
    "is_reduced",
    "canonical_word",
    "act_on_seq",
    "all_perms",
    "reduced_words",
    "move_path",
]


def simple(n: int, k: int) -> tuple:
    """One-line form of s_k in S_n (swaps positions k, k+1)."""
    p = list(range(n))
    p[k], p[k + 1] = p[k + 1], p[k]
    return tuple(p)


def compose(u: tuple, v: tuple) -> tuple:
    """(u v)(m) = u(v(m))."""
    return tuple(u[v[m]] for m in range(len(v)))


def inverse(w: tuple) -> tuple:
    inv = [0] * len(w)
    for m, im in enumerate(w):
        inv[im] = m
    return tuple(inv)


def word_to_perm(n: int, word) -> tuple:
    """Product s_{k1} s_{k2} ... as a one-line tuple."""
    p = list(range(n))
    # Right multiplication by s_k swaps the values at positions k, k+1.
    for k in word:
        p[k], p[k + 1] = p[k + 1], p[k]
    return tuple(p)


def apply_word(word, seq) -> tuple:
    """Act by the word's permutation on a sequence: (w . seq)[m] = seq[w^-1(m)]."""
    return act_on_seq(word_to_perm(len(seq), word), seq)


def act_on_seq(w: tuple, seq) -> tuple:
    """(w . seq)[m] = seq[w^-1(m)]; place-permutation action."""
    inv = inverse(w)
    return tuple(seq[inv[m]] for m in range(len(seq)))


def length(w: tuple) -> int:
    return sum(
        1
        for a in range(len(w))
        for b in range(a + 1, len(w))
        if w[a] > w[b]
    )


def inversions(w: tuple):
    """Pairs (a, b), a < b, with w(a) > w(b)."""
    n = len(w)
    return [(a, b) for a in range(n) for b in range(a + 1, n) if w[a] > w[b]]


def is_reduced(n: int, word) -> bool:
    return length(word_to_perm(n, word)) == len(word)


def canonical_word(w: tuple) -> tuple:
    """Lexicographically smallest reduced word for w.

    Built greedily: repeatedly strip the smallest left descent.  s_k is a
    left descent of w exactly when the value k stands after the value k+1
    in w.  Suffixes of canonical words are canonical; prefixes need not
    be.
    """
    w = list(w)
    n = len(w)
    pos = [0] * n
    for m, vm in enumerate(w):
        pos[vm] = m
    word = []
    remaining = length(tuple(w))
    while remaining:
        for k in range(n - 1):
            if pos[k] > pos[k + 1]:
                word.append(k)
                # Left-multiply by s_k: swap the values k, k+1 in w.
                a, b = pos[k], pos[k + 1]
                w[a], w[b] = w[b], w[a]
                pos[k], pos[k + 1] = b, a
                remaining -= 1
                break
        else:
            raise AssertionError("no descent found for non-identity permutation")
    return tuple(word)


@lru_cache(maxsize=None)
def all_perms(n: int):
    """All of S_n sorted by (length, one-line form)."""
    from itertools import permutations

    return tuple(
        sorted(permutations(range(n)), key=lambda p: (length(p), p))
    )


@lru_cache(maxsize=None)
def reduced_words(n: int, w: tuple):
    """All reduced words of w, as a frozenset of tuples."""
    if length(w) == 0:
        return frozenset({()})
    out = set()
    pos = [0] * n
    for m, vm in enumerate(w):
        pos[vm] = m
    for k in range(n - 1):
        if pos[k] > pos[k + 1]:
            shorter = list(w)
            a, b = pos[k], pos[k + 1]
            shorter[a], shorter[b] = shorter[b], shorter[a]
            for rest in reduced_words(n, tuple(shorter)):
                out.add((k,) + rest)
    return frozenset(out)


@lru_cache(maxsize=None)
def move_path(n: int, src: tuple, dst: tuple):
    """Chain of commutation/braid moves from src to dst.

    Both must be reduced words of one permutation w, else ValueError.
    Returns (word_before, pos, kind) steps; applying each move at pos
    transforms word_before into the next word, ending at dst.

    By Tits' word property (Bjorner-Brenti, Combinatorics of Coxeter Groups,
    3.3): words with a common first letter take the path of their tails.
    Otherwise the first letters s != t are both left descents of w, so
    w = alt * rest, alt = s t s... and other = t s t... being the two words
    of the longest element of <s, t>; the path runs src -> alt + rest, one
    move to other + rest, then -> dst, each leg between words that share a
    first letter.  Any path serves a rewrite: the corrections of its steps
    (word before minus word after) sum to tau_src - tau_dst.
    """
    w = word_to_perm(n, src)
    if word_to_perm(n, dst) != w:
        raise ValueError("words are not reduced words of the same permutation")
    if len(src) != length(w) or len(dst) != length(w):
        raise ValueError("words are not reduced")
    if src == dst:
        return ()
    s, t = src[0], dst[0]
    if s == t:
        return tuple(((s,) + before, pos + 1, kind)
                     for before, pos, kind in move_path(n, src[1:], dst[1:]))
    m = 2 if abs(s - t) >= 2 else 3
    alt, other = (s, t, s)[:m], (t, s, t)[:m]
    rest = canonical_word(compose(word_to_perm(n, alt[::-1]), w))
    return (move_path(n, src, alt + rest)
            + ((alt + rest, 0, "comm" if m == 2 else "braid"),)
            + move_path(n, other + rest, dst))
