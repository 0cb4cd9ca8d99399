"""Command line interface.

Commands:

    basis        per-degree dimensions of the free algebra R(beta)
    cyclotomic   graded dimensions of the cyclotomic quotient
    gram         bilinear form matrices on the weight spaces of V(Lambda)
    compare      quotient dimensions against the module-side predictions
    check        run a named verification suite, or all of them
    cache        inspect or clear the on-disk cache

Exit status is 0 on success, 1 when a check or comparison fails, and 2
for configuration or usage errors.  All output is deterministic: two
runs over the same inputs emit the same bytes apart from timing fields.

Each command imports what it runs inside its own function, and the
package `__init__` imports nothing, so a fresh process pays only for the
modules its command uses.  `cache stat` loads `cli` and `cache` alone.
`compare` and `cyclotomic` never load the check suites or the bimodule
and simple-module layers, and on a warm cache hit they load no strand
algebra either: the summary's type table, SUMMARY_TYPES, lives here, and
the strand engine (`klr`, `perms`, `tensors`, `cyclotomic`) is imported
only to compute a missing summary.  A warm `compare` loads `cli`,
`cache`, `config`, `cartan`, `qpolys`, `uqmod` and `laurent`.
Every call is its own process, so these imports are most of a short
command's time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cache import Cache, resolve_cache_dir, summary_key

__all__ = ["main"]


def _labeled(datum, seq) -> str:
    return ",".join(str(datum.labels[i]) for i in seq)


def _beta_str(datum, beta) -> str:
    parts = []
    for i, k in enumerate(beta):
        parts.extend([str(datum.labels[i])] * k)
    return ",".join(parts) if parts else "-"


def _emit_json(payload):
    sys.stdout.write(
        json.dumps(payload, sort_keys=True, indent=2) + "\n"
    )


def _emit_rows(header, rows):
    sys.stdout.write("\t".join(header) + "\n")
    for row in rows:
        sys.stdout.write("\t".join(str(x) for x in row) + "\n")


def _want_json(cfg, args) -> bool:
    if args.json:
        return True
    return cfg is not None and cfg.output == "json"


def _load(args):
    from .config import ConfigError, load_config

    if not args.config:
        raise ConfigError("this command needs --config FILE")
    return load_config(args.config)


# -- basis -------------------------------------------------------------


def cmd_basis(args):
    from .cartan import seqs_of
    from .cyclotomic import free_space
    from .klr import min_tau_degree
    from .tensors import TruncationModule

    cfg = _load(args)
    betas = cfg.require_betas()
    cap = args.degree_cap
    if cap is None:
        cap = cfg.degree_cap
    if cap is None:
        cap = 10
    out = []
    for beta in betas:
        lo = min_tau_degree(cfg.datum, beta)
        seqs = seqs_of(beta)
        free = TruncationModule(free_space(cfg.datum, beta, cfg.qspec), seqs,
                                seqs)
        out.append((beta, free.graded_dim_poly((lo, cap)).coeffs))
    if _want_json(cfg, args):
        _emit_json({
            "command": "basis",
            "degree_cap": cap,
            "betas": [
                {
                    "beta": _beta_str(cfg.datum, beta),
                    "dims": {str(d): k for d, k in sorted(dims.items())},
                }
                for beta, dims in out
            ],
        })
    else:
        rows = []
        for beta, dims in out:
            name = _beta_str(cfg.datum, beta)
            for d in sorted(dims):
                rows.append((name, d, dims[d]))
        _emit_rows(("beta", "degree", "dim"), rows)
    return 0


# -- cyclotomic and compare --------------------------------------------


# the fields of CycAlgebra.summary() in write order, with their JSON
# types: [t] a list of t, {str: t} a dict of t, {int: t} one keyed by
# integers.  Kept here, beside its one reader, so that a cache hit loads
# no algebra module.
SUMMARY_TYPES = {
    "labels": [str], "levels": [int], "beta": [int], "window": [int],
    "window_bound": int, "nilpotency": [{str: int}], "alive": [str],
    "zero": bool, "graded_dim": {int: int}, "total_dim": int,
    "truncations": {str: {int: int}},
}


def _typed(value, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and all(_typed(v, kind[0])
                                               for v in value)
    if isinstance(kind, dict):
        (key, inner), = kind.items()
        return isinstance(value, dict) and all(
            isinstance(k, str) and (key is str or
                                    k.removeprefix("-").isdecimal())
            and _typed(v, inner) for k, v in value.items())
    return type(value) is kind


def _summary_for(cfg, beta, cache):
    """Fetch or compute the summary payload for one root space.  A cache
    entry is {"key": key, "summary": payload}.  It counts as a hit only
    when it carries the key it is stored under and its payload is a dict
    with exactly the fields of SUMMARY_TYPES, each of its type; any
    other entry, such as a bare payload or one copied from another key,
    is recomputed and overwritten.  Only a miss imports the quotient
    code."""
    key = summary_key(cfg.datum, cfg.qspec, cfg.weight, beta)
    if cache is not None:
        entry = cache.get(key)
        hit = (entry.get("summary") if isinstance(entry, dict)
               and entry.get("key") == key else None)
        if (isinstance(hit, dict) and set(hit) == set(SUMMARY_TYPES)
                and all(_typed(hit[k], t) for k, t in SUMMARY_TYPES.items())):
            return hit
    from .cyclotomic import CycAlgebra

    alg = CycAlgebra(cfg.datum, cfg.weight, beta, cfg.qspec)
    payload = alg.summary()
    if cache is not None:
        cache.put(key, {"key": key, "summary": payload})
    return payload


def _open_cache(args):
    if args.no_cache:
        return None
    return Cache(resolve_cache_dir(args.cache_dir))


def cmd_cyclotomic(args):
    from .laurent import LaurentPoly

    cfg = _load(args)
    cfg.require_weight()
    betas = cfg.require_betas()
    cache = _open_cache(args)
    payloads = [_summary_for(cfg, beta, cache) for beta in betas]
    if _want_json(cfg, args):
        _emit_json({"command": "cyclotomic", "algebras": payloads})
    else:
        rows = []
        for beta, pay in zip(betas, payloads):
            poly = LaurentPoly.from_json(pay["graded_dim"])
            rows.append((
                _beta_str(cfg.datum, beta),
                pay["total_dim"],
                1 if pay["zero"] else 0,
                str(poly),
            ))
        _emit_rows(("beta", "total_dim", "zero", "graded_dim"), rows)
    return 0


def cmd_gram(args):
    from .uqmod import UqModule

    cfg = _load(args)
    weight = cfg.require_weight()
    betas = cfg.require_betas()
    mod = UqModule(cfg.datum, weight)
    blocks = []
    for beta in betas:
        seqs, matrix = mod.gram_matrix(beta)
        blocks.append((beta, seqs, matrix))
    if _want_json(cfg, args):
        _emit_json({
            "command": "gram",
            "blocks": [
                {
                    "beta": _beta_str(cfg.datum, beta),
                    "seqs": [_labeled(cfg.datum, s) for s in seqs],
                    "matrix": [[p.to_json() for p in row] for row in matrix],
                }
                for beta, seqs, matrix in blocks
            ],
        })
    else:
        rows = []
        for beta, seqs, matrix in blocks:
            name = _beta_str(cfg.datum, beta)
            for a, mu in enumerate(seqs):
                for b, nu in enumerate(seqs):
                    rows.append((
                        name,
                        _labeled(cfg.datum, mu),
                        _labeled(cfg.datum, nu),
                        str(matrix[a][b]),
                    ))
        _emit_rows(("beta", "mu", "nu", "gram"), rows)
    return 0


def cmd_compare(args):
    from .cartan import seqs_of
    from .laurent import LaurentPoly
    from .uqmod import UqModule

    cfg = _load(args)
    weight = cfg.require_weight()
    betas = cfg.require_betas()
    cache = _open_cache(args)
    mod = UqModule(cfg.datum, weight)
    rows = []
    mismatches = 0
    for beta in betas:
        pay = _summary_for(cfg, beta, cache)
        truncs = pay.get("truncations", {})
        name = _beta_str(cfg.datum, beta)
        for mu in seqs_of(beta):
            for nu in seqs_of(beta):
                key = "|".join((_labeled(cfg.datum, mu),
                                _labeled(cfg.datum, nu)))
                alg = LaurentPoly.from_json(truncs.get(key, {}))
                pred = mod.predicted_dim(beta, mu, nu)
                ok = alg == pred
                if not ok:
                    mismatches += 1
                rows.append({
                    "beta": name,
                    "mu": _labeled(cfg.datum, mu),
                    "nu": _labeled(cfg.datum, nu),
                    "algebra": alg,
                    "predicted": pred,
                    "match": ok,
                })
    if _want_json(cfg, args):
        _emit_json({
            "command": "compare",
            "mismatches": mismatches,
            "rows": [
                {
                    "beta": r["beta"],
                    "mu": r["mu"],
                    "nu": r["nu"],
                    "algebra": r["algebra"].to_json(),
                    "predicted": r["predicted"].to_json(),
                    "match": r["match"],
                }
                for r in rows
            ],
        })
    else:
        _emit_rows(
            ("beta", "mu", "nu", "algebra", "predicted", "match"),
            [
                (r["beta"], r["mu"], r["nu"], str(r["algebra"]),
                 str(r["predicted"]), 1 if r["match"] else 0)
                for r in rows
            ],
        )
    return 1 if mismatches else 0


# -- check -------------------------------------------------------------


def _run_checks(names, jobs):
    from .checks import CHECKS, run_timed

    thunks = [thunk for name in names for thunk in CHECKS[name]()]
    jobs = min(jobs, os.cpu_count() or 1, len(thunks))
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            return pool.map(run_timed, thunks)
    return [run_timed(thunk) for thunk in thunks]


def _inputs_str(inputs) -> str:
    return " ".join(f"{k}={inputs[k]}" for k in sorted(inputs))


def cmd_check(args):
    from .checks import CHECKS

    if args.name == "all":
        names = sorted(CHECKS)
    elif args.name in CHECKS:
        names = [args.name]
    else:
        known = ", ".join(sorted(CHECKS))
        sys.stderr.write(
            f"unknown check {args.name!r}; choose from: {known}, all\n"
        )
        return 2
    if args.jobs < 1:
        sys.stderr.write(f"--jobs must be at least 1, got {args.jobs}\n")
        return 2
    reports = _run_checks(names, args.jobs)
    failed = sum(1 for r in reports if r.status in ("fail", "error"))
    if args.json:
        _emit_json({
            "command": "check",
            "results": [r.to_json() for r in reports],
            "total": len(reports),
            "failed": failed,
        })
    else:
        for r in reports:
            line = "%-4s %-16s %s" % (
                r.status.upper(), r.name, _inputs_str(r.inputs)
            )
            sys.stdout.write(line.rstrip() + "\n")
            if r.status in ("fail", "error"):
                for row in r.witness:
                    if row.get("kind") in ("counterexample", "error"):
                        sys.stdout.write("     " + _inputs_str(row) + "\n")
        sys.stdout.write(
            f"{len(reports)} instances, {failed} failed\n"
        )
    return 1 if failed else 0


# -- cache -------------------------------------------------------------


def cmd_cache(args):
    cache = Cache(resolve_cache_dir(args.cache_dir))
    if args.action == "stat":
        info = cache.stat()
        if args.json:
            _emit_json({"command": "cache", **info})
        else:
            _emit_rows(("root", "entries", "bytes"),
                       [(info["root"], info["entries"], info["bytes"])])
    else:
        removed = cache.clear()
        if args.json:
            _emit_json({"command": "cache", "removed": removed})
        else:
            sys.stdout.write(f"removed {removed} entries\n")
    return 0


# -- driver ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="path to a JSON config file")
    common.add_argument("--json", action="store_true",
                        help="emit JSON instead of TSV")
    common.add_argument("--cache-dir", metavar="DIR",
                        help="cache directory (overrides the environment)")
    common.add_argument("--no-cache", action="store_true",
                        help="compute everything fresh")
    common.add_argument("--degree-cap", type=int, metavar="N",
                        help="top degree for unbounded listings")
    common.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for check suites")

    parser = argparse.ArgumentParser(
        prog="quiverhecke",
        description="exact computations in quiver Hecke algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", parents=[common],
                       help="graded dimensions of the free algebra")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("cyclotomic", parents=[common],
                       help="graded dimensions of the cyclotomic quotient")
    p.set_defaults(func=cmd_cyclotomic)

    p = sub.add_parser("gram", parents=[common],
                       help="bilinear form matrices on weight spaces")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("compare", parents=[common],
                       help="quotient dimensions against predictions")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("check", parents=[common],
                       help="run verification suites")
    p.add_argument("name", help="suite name or \"all\"")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("cache", parents=[common],
                       help="inspect or clear the cache")
    p.add_argument("action", choices=("stat", "clear"))
    p.set_defaults(func=cmd_cache)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:
        # config is imported only on this path; anything else propagates
        from .config import ConfigError

        if not isinstance(err, ConfigError):
            raise
        sys.stderr.write(f"config error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
