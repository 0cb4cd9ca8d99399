"""The value types as `@dataclass` definitions, before they were built
on `collections.namedtuple` and a plain class: `cartan.CartanDatum` and
`cartan.Weight`, `simples.SimpleCount` and `config.RunConfig`, kept
verbatim as references for the differential tests in
tests/test_value_types.py."""

from __future__ import annotations

from dataclasses import dataclass

from quiverhecke.config import ConfigError
from quiverhecke.qpolys import QSpec


@dataclass(frozen=True)
class CartanDatum:
    """A generalized Cartan matrix with a chosen minimal symmetrizer.

    `matrix` is the GCM as a tuple of tuples, `sym` the positive integers
    d_i with d_i * a_ij = d_j * a_ji.  The symmetric form on simple roots
    is (alpha_i | alpha_j) = d_i * a_ij.
    """

    labels: tuple
    matrix: tuple
    sym: tuple

    @property
    def rank(self) -> int:
        return len(self.labels)

    def a(self, i: int, j: int) -> int:
        return self.matrix[i][j]

    def form(self, i: int, j: int) -> int:
        """(alpha_i | alpha_j)."""
        return self.sym[i] * self.matrix[i][j]

    def form_beta(self, beta_i, beta_j) -> int:
        """(beta | beta') for multiplicity vectors over the labels."""
        total = 0
        for i, ki in enumerate(beta_i):
            if not ki:
                continue
            for j, kj in enumerate(beta_j):
                if kj:
                    total += ki * kj * self.form(i, j)
        return total

    def index_of(self, label) -> int:
        return self.labels.index(label)


@dataclass(frozen=True)
class Weight:
    """Integral weight recorded by its levels <h_i, Lambda>."""

    levels: tuple

    def level(self, i: int) -> int:
        return self.levels[i]

    def level_minus(self, datum: CartanDatum, i: int, beta) -> int:
        """<h_i, Lambda - beta> = <h_i, Lambda> - sum_j k_j * a_ij."""
        return self.levels[i] - sum(
            k * datum.a(i, j) for j, k in enumerate(beta) if k
        )

    def pair_beta(self, datum: CartanDatum, beta) -> int:
        """(Lambda | beta) = sum_i k_i * d_i * <h_i, Lambda>."""
        return sum(
            k * datum.sym[i] * self.levels[i] for i, k in enumerate(beta) if k
        )

    def coeff_c(self, datum: CartanDatum, beta) -> int:
        """(Lambda | beta) - (beta | beta)/2; the (beta|beta) pairing is even."""
        bb = datum.form_beta(beta, beta)
        if bb % 2:
            raise ValueError("odd (beta|beta), symmetrizer inconsistent")
        return self.pair_beta(datum, beta) - bb // 2


@dataclass
class SimpleCount:
    count: int
    split: bool
    total_dim: int
    radical_dim: int
    center_dim: int


@dataclass
class RunConfig:
    """Validated configuration ready for the command implementations."""

    datum: CartanDatum
    qspec: QSpec
    weight: Weight
    betas: tuple
    degree_cap: int
    output: str

    def require_weight(self) -> Weight:
        if self.weight is None:
            raise ConfigError("this command needs a \"lambda\" entry")
        return self.weight

    def require_betas(self) -> tuple:
        if self.betas is None:
            raise ConfigError(
                "this command needs a \"beta\" or \"nmax\" entry"
            )
        return self.betas

