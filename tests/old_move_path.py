"""The breadth-first search over the reduced-word graph that
`perms.move_path` used before it built its paths by Tits' word property,
kept verbatim as the reference for the differential tests."""

from functools import lru_cache

from quiverhecke.perms import word_to_perm


def _neighbors(word):
    """Words one commutation or braid move away, with the move description.

    Yields (other_word, pos, kind) where kind is "comm" for s_a s_b = s_b s_a
    (|a - b| >= 2) and "braid" for s_k s_{k+1} s_k = s_{k+1} s_k s_{k+1},
    and pos is the left index of the replaced block.
    """
    L = len(word)
    for t in range(L - 1):
        a, b = word[t], word[t + 1]
        if abs(a - b) >= 2:
            yield word[:t] + (b, a) + word[t + 2 :], t, "comm"
    for t in range(L - 2):
        a, b, c = word[t], word[t + 1], word[t + 2]
        if a == c and abs(a - b) == 1:
            yield word[:t] + (b, a, b) + word[t + 3 :], t, "braid"


@lru_cache(maxsize=None)
def move_path(n: int, src: tuple, dst: tuple):
    """Shortest chain of commutation/braid moves from src to dst.

    Both must be reduced words of the same permutation.  Returns a tuple of
    (word_before, pos, kind) steps; applying each move at pos transforms
    word_before into the next word, ending at dst.
    """
    if src == dst:
        return ()
    if word_to_perm(n, src) != word_to_perm(n, dst):
        raise ValueError("words are not reduced words of the same permutation")
    frontier = [src]
    back = {src: None}
    while frontier:
        nxt = []
        for cur in frontier:
            for other, pos, kind in _neighbors(cur):
                if other in back:
                    continue
                back[other] = (cur, pos, kind)
                if other == dst:
                    steps = []
                    node = dst
                    while back[node] is not None:
                        prev, p, k = back[node]
                        steps.append((prev, p, k))
                        node = prev
                    return tuple(reversed(steps))
                nxt.append(other)
        frontier = nxt
    raise AssertionError("reduced word graph is connected; path must exist")
