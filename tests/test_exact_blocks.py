"""Blocks eliminated in one exact pass against the screen modulo a prime
that came before it (`tests/old_span_basis.py`), and the check that
keeps every ideal row inside its block under `python -O`."""

import os
import subprocess
import sys

import pytest

import old_span_basis as old
from quiverhecke import cyclotomic
from quiverhecke.cartan import Weight
from quiverhecke.cyclotomic import CycAlgebra, IdealSpace
from test_cyclotomic import DESK_ALGEBRAS
from test_pruned_blocks import A1AFF, B2, NON_INTEGRAL

# the desk quotients, B2 at (1, 1) on (2, 2), affine A1 at (1, 0) on
# (3, 2), and A2 with the non-integral table Q_12 = u + v/2
CASES = [(datum, wt, beta, None) for datum, wt, beta in DESK_ALGEBRAS] + [
    (B2, Weight((1, 1)), (2, 2), None),
    (A1AFF, Weight((1, 0)), (3, 2), None),
    NON_INTEGRAL,
]


def _pivot_rows(sb):
    """Each pivot column with its row.  A full block's rows are listed
    in column order by the screen's identity and in the order their
    pivots were found by the exact pass, so only this map is canonical."""
    return {c: sb.rows[r] for c, r in sb.pivots.items()}


@pytest.mark.parametrize("datum,wt,beta,qspec", CASES)
def test_blocks_equal_screened_blocks(monkeypatch, datum, wt, beta, qspec):
    # every block the quotient builds, rebuilt on spaces that certify
    # nothing, so that each block is eliminated from its rows: once by
    # the exact pass and once through the screen
    monkeypatch.setattr(cyclotomic, "_ideal_spaces", {})
    A = CycAlgebra(datum, wt, beta, qspec)
    A.summary()
    keys = list(A.space._blocks)
    with monkeypatch.context() as m:
        m.setattr(cyclotomic, "span_basis", old.span_basis)
        screened = IdealSpace(A.engine, wt, beta)
        want = {key: screened.block(*key) for key in keys}
    new = IdealSpace(A.engine, wt, beta)
    full = partial = 0
    for key in keys:
        cols, sb = new.block(*key)
        old_cols, old_sb = want[key]
        assert cols == old_cols
        assert sb.rank == old_sb.rank
        assert sb.pivot_columns() == old_sb.pivot_columns()
        assert _pivot_rows(sb) == _pivot_rows(old_sb)
        for m in cols:
            assert sb.normal_form({m: 1}) == old_sb.normal_form({m: 1})
        if sb.rank == len(cols):
            full += 1
        else:
            partial += 1
    # both of the screen's outcomes are compared
    assert full and (partial or A.is_zero())


def test_escaped_ideal_row_raises_under_python_o():
    # an empty column set puts every row outside its block; the check
    # must raise even where `python -O` strips assert statements
    import quiverhecke

    src = os.path.dirname(os.path.dirname(quiverhecke.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "from quiverhecke.cartan import Weight, build_cartan\n"
        "from quiverhecke.cyclotomic import CycAlgebra\n"
        "assert False, 'asserts are on'\n"
        "A = CycAlgebra(build_cartan(('i',), [[2]]), Weight((2,)), (2,))\n"
        "A.summary()\n"
        "space = A.space\n"
        "for gen in (space._mirrored_rows, space._ideal_rows):\n"
        "    rows = (row for key in sorted(space._blocks)\n"
        "            for row in gen(*key, set()))\n"
        "    try:\n"
        "        next(rows)\n"
        "    except AssertionError as err:\n"
        "        print(gen.__name__, err)\n"
        "    else:\n"
        "        print(gen.__name__, 'no error')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "_mirrored_rows ideal row escaped its block",
        "_ideal_rows ideal row escaped its block",
    ]
