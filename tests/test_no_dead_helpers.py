"""Every def and class in src/ has a caller in src/, apart from a short
allowlist of public names and of references that tests compare against."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quiverhecke"

ALLOWED = {
    "gen_x": "public API: a dot generator of the exported KLR engine",
    "gen_tau": "public API: a crossing generator of the exported KLR engine",
    "predicted_total_dim": "public API: the README's UqModule example",
    "run_all": "public API: exported by the package __init__",
    "compose": "reference: the perms tests check word_to_perm against it",
    "simple": "reference: the perms tests check word_to_perm against "
              "products of simple transpositions",
    "is_reduced": "reference: the perms tests check reduced words by "
                  "length with it",
    "reduced_words": "reference: the perms tests check canonical_word and "
                     "move_path against every reduced word",
}


def _names(node):
    """Count of every name and attribute read in node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreferenced_defs(root):
    """(file, name) of each def or class, dunder methods aside, that no
    code under root names outside its own body.  An import alone is not a
    reference."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(root.glob("*.py"))}
    total = sum((_names(t) for t in trees.values()), Counter())
    out = []
    for fname, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if total[node.name] == _names(node)[node.name]:
                out.append((fname, node.name))
    return out


def test_no_src_helper_lacks_a_src_caller():
    dead = [(f, name) for f, name in unreferenced_defs(SRC)
            if name not in ALLOWED]
    assert dead == []


def test_allowlist_holds_only_unreferenced_names():
    # an allowlisted name that gains a caller leaves the list
    dead = {name for _, name in unreferenced_defs(SRC)}
    assert set(ALLOWED) <= dead
    assert all(reason for reason in ALLOWED.values())
