"""Every `/` in src/ has a Fraction operand.  Coefficients are ints
wherever they are integral, and `/` on two ints gives a float, which
would silently leave exact arithmetic; so each function that divides is
listed here, with the operand that keeps its quotient a Fraction."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quiverhecke"

ALLOWED = {
    ("linalg", "SubspaceBasis.add"):
        "`Fraction(1) / p`: the numerator is Fraction(1)",
    ("bimodules", "Bimodules._tpoly_f"):
        "`Fraction(-1) ** p / self.gamma_inverse()`: a Fraction power "
        "over gamma_inverse, which is a Fraction",
    ("checks", "check_phi"):
        "`c / ginv`: ginv is Bimodules.gamma_inverse(), a Fraction",
    ("simples", "_charpoly"):
        "`-tr / k`: tr sums products with the entries of Mk, which start "
        "as Fraction(0)",
}


def divisions(tree, module):
    """(module, qualified function) of each `/` and `/=` in tree, in
    source order; "<module>" for one outside any function."""
    out = []

    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = scope + (node.name,)
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.Div)):
            out.append((module, ".".join(scope) or "<module>"))
        for child in ast.iter_child_nodes(node):
            walk(child, scope)

    walk(tree, ())
    return out


def src_divisions():
    return [site for p in sorted(SRC.glob("*.py"))
            for site in divisions(ast.parse(p.read_text(encoding="utf-8")),
                                  p.stem)]


def test_every_division_in_src_is_allowed():
    assert [site for site in src_divisions() if site not in ALLOWED] == []


def test_no_allowed_division_is_stale():
    assert set(ALLOWED) <= set(src_divisions())
    assert all("Fraction" in reason for reason in ALLOWED.values())


def test_the_scan_sees_every_kind_of_division():
    tree = ast.parse(
        "x = 1 / 2\n"
        "class C:\n"
        "    def f(self, a):\n"
        "        a /= 3\n"
        "        return [b // 2 for b in (a / 4,)]\n"
        "def g(a):\n"
        "    return a // 2\n")
    assert divisions(tree, "m") == [("m", "<module>"), ("m", "C.f"),
                                    ("m", "C.f")]
