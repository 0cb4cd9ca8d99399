"""Every def and class in src/ has a caller in src/, apart from a short
allowlist of public names and of references that tests compare against.
The scan credits a def with any read of its name, so reading a
parameter, attribute or method of the same name elsewhere in src/ hides
a dead one.  Every name a src/ module imports is read in that module."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quiverhecke"

ALLOWED = {
    "gen_x": "public API: a dot generator of the exported KLR engine",
    "gen_tau": "public API: a crossing generator of the exported KLR engine",
    "element_degree": "public API: the degree of a homogeneous element of "
                      "the exported KLR engine",
    "predicted_total_dim": "public API: the README's UqModule example",
    "run_all": "public API: exported by the package __init__",
    "dim_at": "public API: one degree of a quotient; the benchmark tracer "
              "wraps it by name",
    "simple": "reference: the perms tests check word_to_perm against "
              "products of simple transpositions",
    "is_reduced": "reference: the perms tests check reduced words by "
                  "length with it",
    "reduced_words": "reference: the perms tests check canonical_word "
                     "against every reduced word, and the move_path tests "
                     "draw words from it to compare paths with the search "
                     "in tests/old_move_path.py",
}


def _reads(node):
    """Counts of the bare names and of the attribute names read in node.
    A store, such as a local variable, reads nothing."""
    names, attrs = Counter(), Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            attrs[n.attr] += 1
    return names, attrs


def _uses(reads, name, method):
    """A method is used only through an attribute read; a function or a
    class through either read."""
    names, attrs = reads
    return attrs[name] + (0 if method else names[name])


def unreferenced_defs(root):
    """(file, name) of each def or class, dunder methods aside, that no
    code under root reads outside its own body.  An import alone is not a
    reference."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(root.glob("*.py"))}
    total = (Counter(), Counter())
    for tree in trees.values():
        for count, more in zip(total, _reads(tree)):
            count.update(more)
    out = []
    for fname, tree in trees.items():
        methods = {id(item) for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            method = id(node) in methods
            if (_uses(total, node.name, method)
                    == _uses(_reads(node), node.name, method)):
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


def unused_imports(root):
    """(file, name) of each name that a module under root imports and
    never reads, the package __init__ included: it re-exports by name,
    not by import.  `from __future__` binds no name."""
    out = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names, _ = _reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if not names[bound]:
                        out.append((path.name, bound))
    return out


def test_every_src_import_is_read():
    assert unused_imports(SRC) == []


def test_import_scan_catches_an_unused_import(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import f\n")
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .cartan import build_cartan, seqs_of as seqs\n"
        "def f():\n"
        "    return seqs\n")
    assert unused_imports(tmp_path) == [("__init__.py", "f"),
                                        ("mod.py", "os"),
                                        ("mod.py", "build_cartan")]
