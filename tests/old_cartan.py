"""The symmetrizer search that `cartan.build_cartan` used before it
found the symmetrizer in one walk per component, kept verbatim as the
reference for the differential test."""

from fractions import Fraction
from math import gcd

from quiverhecke.cartan import CartanDatum


def _connected_components(matrix):
    n = len(matrix)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if j != i and not seen[j] and matrix[i][j] != 0:
                    seen[j] = True
                    comp.append(j)
                    queue.append(j)
        comps.append(sorted(comp))
    return comps


def build_cartan(labels, matrix) -> CartanDatum:
    """Validate a GCM and compute its minimal positive integer symmetrizer.

    Raises ValueError when the matrix is not a GCM or not symmetrizable.
    The symmetrizer is normalized per connected component so the d_i in
    each component are coprime positive integers.
    """
    labels = tuple(labels)
    n = len(labels)
    if len(set(labels)) != n:
        raise ValueError("duplicate labels")
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError("Cartan matrix shape does not match labels")
    mat = tuple(tuple(int(x) for x in row) for row in matrix)
    for i in range(n):
        if mat[i][i] != 2:
            raise ValueError(f"diagonal entry a[{i}][{i}] must be 2")
        for j in range(n):
            if i == j:
                continue
            if mat[i][j] > 0:
                raise ValueError(f"off-diagonal entry a[{i}][{j}] must be <= 0")
            if (mat[i][j] == 0) != (mat[j][i] == 0):
                raise ValueError(f"zero pattern asymmetric at ({i},{j})")

    # Propagate d_j = d_i * a_ij / a_ji along edges of each component,
    # then check consistency on every edge (this is where a cyclically
    # non-symmetrizable matrix fails).
    d = [None] * n
    for comp in _connected_components(mat):
        root = comp[0]
        d[root] = Fraction(1)
        queue = [root]
        inside = set(comp)
        visited = {root}
        while queue:
            i = queue.pop()
            for j in inside:
                if j == i or mat[i][j] == 0:
                    continue
                ratio = Fraction(mat[i][j], mat[j][i])
                if j in visited:
                    if d[j] != d[i] * ratio:
                        raise ValueError("Cartan matrix is not symmetrizable")
                else:
                    d[j] = d[i] * ratio
                    visited.add(j)
                    queue.append(j)
        # Scale the component to coprime positive integers.
        denom_lcm = 1
        for j in comp:
            denom_lcm = denom_lcm * d[j].denominator // gcd(
                denom_lcm, d[j].denominator
            )
        ints = [int(d[j] * denom_lcm) for j in comp]
        g = 0
        for v in ints:
            g = gcd(g, v)
        for j, v in zip(comp, ints):
            d[j] = v // g

    datum = CartanDatum(labels=labels, matrix=mat, sym=tuple(d))
    # Final symmetry check of the form itself.
    for i in range(n):
        for j in range(n):
            if datum.form(i, j) != datum.form(j, i):
                raise ValueError("Cartan matrix is not symmetrizable")
    return datum
