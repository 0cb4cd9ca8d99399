"""Run configuration for the command line.

A config file is a single JSON object naming the Cartan datum, the
coefficient polynomials, the dominant weight, and which root spaces to
work over.  Parsing is strict: unknown keys, malformed entries, and
unknown labels are all rejected with a ConfigError rather than guessed
around.

Schema:

    {
      "cartan":     {"labels": ["1", "2"], "matrix": [[2, -1], [-1, 2]]},
      "q_coeffs":   "standard",                  # or {"1,2": [[1, 0, 1, 1], ...]}
      "lambda":     {"1": 1},                    # levels, absent labels are 0
      "beta":       {"1": 1, "2": 1},            # or "nmax": 3 for all |beta| <= 3
      "degree_cap": 10,                          # optional display cap
      "output":     "tsv"                        # or "json"
    }

Each q_coeffs entry under key "a,b" is a list of terms [p, q, num, den]
meaning (num/den) u^p v^q in Q_ab(u, v), with u attached to label a and
v to label b.  Labels may not contain "," or "|", which separate the
labels in these keys and in the sequence and truncation names of the
output.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .cartan import CartanDatum, Weight, build_cartan, weighted_comps
from .qpolys import QSpec

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config"]

_TOP_KEYS = {"cartan", "q_coeffs", "lambda", "beta", "nmax", "degree_cap",
             "output"}


class ConfigError(Exception):
    """Raised for any malformed or inconsistent configuration."""


class RunConfig:
    """Validated configuration ready for the command implementations."""

    def __init__(self, datum: CartanDatum, qspec: QSpec, weight: Weight,
                 betas: tuple, degree_cap: int, output: str):
        self.datum = datum
        self.qspec = qspec
        self.weight = weight
        self.betas = betas
        self.degree_cap = degree_cap
        self.output = output

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


def _expect(cond, message):
    if not cond:
        raise ConfigError(message)


def _parse_cartan(data) -> CartanDatum:
    _expect(isinstance(data, dict), "\"cartan\" must be an object")
    _expect(set(data) == {"labels", "matrix"},
            "\"cartan\" must have exactly the keys \"labels\" and \"matrix\"")
    labels = data["labels"]
    _expect(isinstance(labels, list) and labels,
            "\"cartan.labels\" must be a nonempty list")
    _expect(all(isinstance(s, str) and s for s in labels),
            "\"cartan.labels\" entries must be nonempty strings")
    # sequences are named by joining labels with "," and truncations by
    # joining two names with "|", and q_coeffs keys are "a,b"
    for lab in labels:
        _expect("," not in lab and "|" not in lab,
                f"\"cartan.labels\" entry {lab!r} contains \",\" or \"|\"")
    matrix = data["matrix"]
    _expect(isinstance(matrix, list)
            and all(isinstance(row, list) for row in matrix),
            "\"cartan.matrix\" must be a list of rows")
    for row in matrix:
        for x in row:
            _expect(isinstance(x, int) and not isinstance(x, bool),
                    "\"cartan.matrix\" entries must be integers")
    try:
        return build_cartan(labels, matrix)
    except ValueError as err:
        raise ConfigError(f"bad Cartan data: {err}") from None


def _parse_qspec(data, datum) -> QSpec:
    if data is None or data == "standard":
        return QSpec.standard(datum)
    _expect(isinstance(data, dict),
            "\"q_coeffs\" must be \"standard\" or an object")
    table = {}
    for key, terms in data.items():
        _expect(isinstance(key, str) and key.count(",") == 1,
                f"q_coeffs key {key!r} must look like \"a,b\"")
        la, lb = key.split(",")
        for lab in (la, lb):
            _expect(lab in datum.labels, f"unknown label {lab!r} in q_coeffs")
        i = datum.index_of(la)
        j = datum.index_of(lb)
        _expect(i != j, f"q_coeffs key {key!r} repeats a label")
        pair = (i, j) if i < j else (j, i)
        _expect(pair not in table,
                f"q_coeffs pair {{{la},{lb}}} given more than once")
        _expect(isinstance(terms, list) and terms,
                f"q_coeffs[{key!r}] must be a nonempty list of terms")
        entry = {}
        for term in terms:
            _expect(isinstance(term, list) and len(term) == 4
                    and all(isinstance(x, int) and not isinstance(x, bool)
                            for x in term),
                    f"each term in q_coeffs[{key!r}] must be"
                    " [p, q, num, den] with integer entries")
            p, q, num, den = term
            _expect(den != 0, f"zero denominator in q_coeffs[{key!r}]")
            mono = (p, q) if i < j else (q, p)
            _expect(mono not in entry,
                    f"duplicate exponent pair in q_coeffs[{key!r}]")
            entry[mono] = Fraction(num, den)
        table[pair] = entry
    try:
        return QSpec(datum, table)
    except ValueError as err:
        raise ConfigError(f"bad q_coeffs: {err}") from None


def _parse_counts(data, datum, key) -> tuple:
    """A label-to-count object (`lambda` or `beta`) as a tuple in label
    order; absent labels count 0."""
    _expect(isinstance(data, dict), f"\"{key}\" must be an object")
    counts = [0] * datum.rank
    for lab, k in data.items():
        _expect(lab in datum.labels, f"unknown label {lab!r} in {key}")
        _expect(isinstance(k, int) and not isinstance(k, bool) and k >= 0,
                f"{key}[{lab!r}] must be a nonnegative integer")
        counts[datum.index_of(lab)] = k
    return tuple(counts)


def _parse_betas(beta, nmax, datum):
    _expect(beta is None or nmax is None,
            "give \"beta\" or \"nmax\", not both")
    if beta is not None:
        return (_parse_counts(beta, datum, "beta"),)
    if nmax is not None:
        _expect(isinstance(nmax, int) and not isinstance(nmax, bool)
                and nmax >= 0,
                "\"nmax\" must be a nonnegative integer")
        # by height, each height in decreasing lex order
        return tuple(beta for total in range(nmax + 1) for beta in
                     reversed(weighted_comps((1,) * datum.rank, total)))
    return None


def parse_config(data) -> RunConfig:
    """Validate a decoded JSON object into a RunConfig."""
    _expect(isinstance(data, dict), "config must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    _expect(not unknown,
            "unknown config keys: " + ", ".join(sorted(unknown)))
    _expect("cartan" in data, "config needs a \"cartan\" entry")
    datum = _parse_cartan(data["cartan"])
    qspec = _parse_qspec(data.get("q_coeffs"), datum)
    weight = data.get("lambda")
    if weight is not None:
        weight = Weight(_parse_counts(weight, datum, "lambda"))
    betas = _parse_betas(data.get("beta"), data.get("nmax"), datum)
    cap = data.get("degree_cap")
    if cap is not None:
        _expect(isinstance(cap, int) and not isinstance(cap, bool),
                "\"degree_cap\" must be an integer")
    output = data.get("output", "tsv")
    _expect(output in ("tsv", "json"),
            "\"output\" must be \"tsv\" or \"json\"")
    return RunConfig(datum=datum, qspec=qspec, weight=weight, betas=betas,
                     degree_cap=cap, output=output)


def load_config(path) -> RunConfig:
    """Read and validate a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"config {path} is not UTF-8: {err}") from None
    except (json.JSONDecodeError, RecursionError) as err:
        # json.load recurses once per nesting level
        raise ConfigError(f"config {path} is not valid JSON: {err}") from None
    return parse_config(data)
