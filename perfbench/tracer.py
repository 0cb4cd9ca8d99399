"""Outside-in tracing of quiverhecke's layers.

`Tracer.install()` wraps public functions and methods of the package
modules in place, so no file under `src/` changes.  Functions that other
modules import by name (`count_simples`, `tensor_dim`, `laurent_rank`,
`certified_cap`) are replaced at every import site.

Every wrapped call is a span.  For each span name the tracer keeps the
number of calls, the busy time and the self time (busy time minus the
time covered by nested spans).  Coarse spans (one per block, per
algebra, per suite, ...) are also stored as records
(id, parent id, name, start, end) and written to a side file by `dump`.
Hot spans (multiply, rewriting, elimination) are only aggregated, which
keeps memory flat on long runs.

Counts are taken at the same boundaries: rows built and offered per
ideal block, rank reached, memo hits judged by keys seen before on the
same object (never by reading private memo dicts).
"""

from __future__ import annotations

import collections
import itertools
import json
import sys
import time
import weakref

__all__ = ["Tracer", "merge", "layer_metrics", "SUITES"]

SUITES = ("categorification", "convolution", "exact", "mixed", "pbw", "phi",
          "sl2", "taug")


class _Owner:
    """Counters for the SubspaceBasis rows one block or tensor offers."""

    __slots__ = ("is_block", "offered", "kept", "ranks", "products")

    def __init__(self, is_block):
        self.is_block = is_block
        self.offered = 0
        self.kept = 0
        self.ranks = []
        self.products = 0


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.stack = []      # child-time accumulators of open spans
        self.open_ids = []   # ids of open recorded spans
        self.ids = itertools.count()
        self.spans = []      # (id, parent id, name, start_s, end_s)
        self.totals = {}     # name -> [calls, busy_s, self_s]
        self.counts = collections.Counter()

    # -- spans -----------------------------------------------------------

    def wrap(self, fn, name, record=False):
        """Return fn wrapped in a span called `name`."""
        tot = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = self.clock
        if not record:
            def timed(*args, **kwargs):
                acc = [0.0]
                stack.append(acc)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    tot[0] += 1
                    tot[1] += dur
                    tot[2] += dur - acc[0]
                    if stack:
                        stack[-1][0] += dur
            return timed

        spans = self.spans
        open_ids = self.open_ids
        ids = self.ids
        origin = self.origin

        def recorded(*args, **kwargs):
            sid = next(ids)
            parent = open_ids[-1] if open_ids else None
            open_ids.append(sid)
            acc = [0.0]
            stack.append(acc)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                open_ids.pop()
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - acc[0]
                if stack:
                    stack[-1][0] += dur
                spans.append((sid, parent, name, t0 - origin, t1 - origin))
        return recorded

    # -- patching --------------------------------------------------------

    @staticmethod
    def patch_function(module, attr, wrapper):
        """Replace module.attr at every quiverhecke import site."""
        orig = getattr(module, attr)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("quiverhecke"):
                continue
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapper)

    def install(self):
        """Wrap every measured layer of the imported package."""
        from quiverhecke import (bimodules, cache, cyclotomic, klr, linalg,
                                 perms, simples, tensors, uqmod)

        C = self.counts
        owners = []

        def timed(cls, attr, name, record=False):
            setattr(cls, attr, self.wrap(getattr(cls, attr), name, record))

        self._move_path = perms.move_path
        self._move_path_base = perms.move_path.cache_info()

        # linalg ---------------------------------------------------------
        add = self.wrap(linalg.SubspaceBasis.add, "linalg.SubspaceBasis.add")

        def sb_add(sb, vec):
            rank = sb.rank
            grew = add(sb, vec)
            if grew:
                C["linalg.SubspaceBasis.add.kept"] += 1
            if owners:
                own = owners[-1]
                own.offered += 1
                if grew:
                    own.kept += 1
                if own.is_block:
                    own.ranks.append(rank)
            return grew

        linalg.SubspaceBasis.add = sb_add
        timed(linalg.SubspaceBasis, "normal_form",
              "linalg.SubspaceBasis.normal_form")
        self.patch_function(
            linalg, "laurent_rank",
            self.wrap(linalg.laurent_rank, "linalg.laurent_rank"))

        # klr ------------------------------------------------------------
        mult = self.wrap(klr.KLR.multiply, "klr.multiply")

        def multiply(eng, A, B):
            if owners and owners[-1].is_block:
                owners[-1].products += 1
            return mult(eng, A, B)

        klr.KLR.multiply = multiply
        timed(klr.KLR, "right_mult_tau", "klr.right_mult_tau")

        tte = klr.KLR.tau_tau_e
        tt_seen = weakref.WeakKeyDictionary()

        def tau_tau_e(eng, wword, k, mu):
            C["klr.tau_tau_e.calls"] += 1
            keys = tt_seen.get(eng)
            if keys is None:
                keys = tt_seen[eng] = set()
            key = (wword, k, mu)
            if key in keys:
                C["klr.tau_tau_e.hits"] += 1
            else:
                keys.add(key)
            return tte(eng, wword, k, mu)

        klr.KLR.tau_tau_e = tau_tau_e

        # cyclotomic -----------------------------------------------------
        blk = self.wrap(cyclotomic.IdealSpace.block,
                        "cyclotomic.IdealSpace.block", record=True)
        blk_seen = weakref.WeakKeyDictionary()

        def block(space, lam, mu, d):
            C["block.calls"] += 1
            keys = blk_seen.get(space)
            if keys is None:
                keys = blk_seen[space] = set()
            key = (lam, mu, d)
            if key in keys:
                return blk(space, lam, mu, d)
            keys.add(key)
            own = _Owner(True)
            owners.append(own)
            try:
                cols, sb = blk(space, lam, mu, d)
            finally:
                owners.pop()
            ncols = len(cols)
            C["block.built"] += 1
            C["block.cols"] += ncols
            C["block.rank"] += sb.rank
            C["block.rows_built"] += own.products
            C["block.rows_offered"] += own.offered
            C["block.rows_kept"] += own.kept
            C["block.rows_after_full"] += sum(1 for r in own.ranks
                                              if r >= ncols)
            # A block is full when the ideal spans all of it, so the
            # quotient vanishes there; an empty block is trivially full.
            if sb.rank == ncols:
                C["block.full"] += 1
            return cols, sb

        cyclotomic.IdealSpace.block = block
        timed(cyclotomic.IdealSpace, "reduce", "cyclotomic.IdealSpace.reduce")
        self.patch_function(
            cyclotomic, "certified_cap",
            self.wrap(cyclotomic.certified_cap, "cyclotomic.certified_cap",
                      record=True))

        dim_at = cyclotomic.CycAlgebra.dim_at
        dim_seen = weakref.WeakKeyDictionary()

        def cyc_dim_at(alg, d):
            C["dim_at.calls"] += 1
            value = dim_at(alg, d)
            degs = dim_seen.get(alg)
            if degs is None:
                degs = dim_seen[alg] = set()
            if d not in degs:
                degs.add(d)
                C["dim_at.scanned"] += 1
                if value:
                    C["dim_at.nonzero"] += 1
            return value

        cyclotomic.CycAlgebra.dim_at = cyc_dim_at
        for attr, name in (("__init__", "cyclotomic.CycAlgebra.init"),
                           ("summary", "cyclotomic.CycAlgebra.summary")):
            timed(cyclotomic.CycAlgebra, attr, name, record=True)

        # tensors --------------------------------------------------------
        tdim = self.wrap(tensors.tensor_dim, "tensors.tensor_dim",
                         record=True)

        def tensor_dim(*args, **kwargs):
            own = _Owner(False)
            owners.append(own)
            try:
                return tdim(*args, **kwargs)
            finally:
                owners.pop()
                C["tensor_dim.relations_offered"] += own.offered
                C["tensor_dim.relations_kept"] += own.kept

        self.patch_function(tensors, "tensor_dim", tensor_dim)

        # bimodules ------------------------------------------------------
        for attr, name in (("__init__", "bimodules.Bimodules.init"),
                           ("phi_by_chase", "bimodules.phi_by_chase"),
                           ("phi_by_division", "bimodules.phi_by_division")):
            timed(bimodules.Bimodules, attr, name, record=True)

        # simples --------------------------------------------------------
        count = self.wrap(simples.count_simples, "simples.count_simples",
                          record=True)

        def count_simples(alg):
            sc = count(alg)
            C["count_simples.dim_sum"] += sc.total_dim
            return sc

        self.patch_function(simples, "count_simples", count_simples)

        # uqmod ----------------------------------------------------------
        gram = uqmod.UqModule.gram

        def uq_gram(mod, mu, nu):
            C["uqmod.gram.calls"] += 1
            return gram(mod, mu, nu)

        uqmod.UqModule.gram = uq_gram
        timed(uqmod.UqModule, "predicted_dim", "uqmod.UqModule.predicted_dim")
        timed(uqmod.UqModule, "weight_dim", "uqmod.UqModule.weight_dim",
              record=True)

        # cache ----------------------------------------------------------
        get = self.wrap(cache.Cache.get, "cache.get", record=True)

        def cache_get(store, key):
            hit = get(store, key)
            if hit is not None:
                C["cache.hits"] += 1
            return hit

        cache.Cache.get = cache_get
        timed(cache.Cache, "put", "cache.put", record=True)

    # -- output ----------------------------------------------------------

    def snapshot(self) -> dict:
        info = self._move_path.cache_info()
        base = self._move_path_base
        counts = dict(self.counts)
        counts["perms.move_path.hits"] = info.hits - base.hits
        counts["perms.move_path.misses"] = info.misses - base.misses
        return {
            "totals": {k: list(v) for k, v in self.totals.items()},
            "counts": counts,
            "spans": [list(s) for s in self.spans],
        }

    def dump(self, path, extra=None):
        data = self.snapshot()
        if extra:
            data.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def merge(snapshots) -> dict:
    """Sum the totals and counts of several traced processes."""
    totals = {}
    counts = collections.Counter()
    for snap in snapshots:
        for name, (calls, busy, own) in snap["totals"].items():
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += busy
            acc[2] += own
        counts.update(snap["counts"])
    return {"totals": totals, "counts": dict(counts)}


def _ratio(num, den):
    return num / den if den else 0.0


# (metric, unit, better, value from (totals, counts)).  A ratio whose
# base is zero reads 0.
_LAYERS = [
    ("cyclotomic.IdealSpace.block.calls", "count", "lower",
     lambda T, C: C["block.calls"]),
    ("cyclotomic.IdealSpace.block.built", "count", "lower",
     lambda T, C: C["block.built"]),
    ("cyclotomic.IdealSpace.block.self_s", "s", "lower",
     lambda T, C: T["cyclotomic.IdealSpace.block"][2]),
    ("cyclotomic.block.cols", "count", "lower",
     lambda T, C: C["block.cols"]),
    ("cyclotomic.block.rank", "count", "lower",
     lambda T, C: C["block.rank"]),
    ("cyclotomic.block.full_ratio", "ratio", "lower",
     lambda T, C: _ratio(C["block.full"], C["block.built"])),
    ("cyclotomic.block.rows_built", "count", "lower",
     lambda T, C: C["block.rows_built"]),
    ("cyclotomic.block.rows_offered", "count", "lower",
     lambda T, C: C["block.rows_offered"]),
    ("cyclotomic.block.rows_kept_ratio", "ratio", "higher",
     lambda T, C: _ratio(C["block.rows_kept"], C["block.rows_offered"])),
    ("cyclotomic.block.rows_after_full", "count", "lower",
     lambda T, C: C["block.rows_after_full"]),
    ("cyclotomic.CycAlgebra.dim_at.calls", "count", "lower",
     lambda T, C: C["dim_at.calls"]),
    ("cyclotomic.CycAlgebra.dim_at.nonzero_ratio", "ratio", "higher",
     lambda T, C: _ratio(C["dim_at.nonzero"], C["dim_at.scanned"])),
    ("cyclotomic.certified_cap.self_s", "s", "lower",
     lambda T, C: T["cyclotomic.certified_cap"][2]),
    ("cyclotomic.IdealSpace.reduce.calls", "count", "lower",
     lambda T, C: T["cyclotomic.IdealSpace.reduce"][0]),
    ("cyclotomic.IdealSpace.reduce.self_s", "s", "lower",
     lambda T, C: T["cyclotomic.IdealSpace.reduce"][2]),
    ("linalg.SubspaceBasis.add.calls", "count", "lower",
     lambda T, C: T["linalg.SubspaceBasis.add"][0]),
    ("linalg.SubspaceBasis.add.self_s", "s", "lower",
     lambda T, C: T["linalg.SubspaceBasis.add"][2]),
    ("linalg.SubspaceBasis.add.kept_ratio", "ratio", "higher",
     lambda T, C: _ratio(C["linalg.SubspaceBasis.add.kept"],
                         T["linalg.SubspaceBasis.add"][0])),
    ("linalg.SubspaceBasis.normal_form.calls", "count", "lower",
     lambda T, C: T["linalg.SubspaceBasis.normal_form"][0]),
    ("linalg.SubspaceBasis.normal_form.self_s", "s", "lower",
     lambda T, C: T["linalg.SubspaceBasis.normal_form"][2]),
    ("klr.multiply.calls", "count", "lower",
     lambda T, C: T["klr.multiply"][0]),
    ("klr.multiply.self_s", "s", "lower",
     lambda T, C: T["klr.multiply"][2]),
    ("klr.right_mult_tau.calls", "count", "lower",
     lambda T, C: T["klr.right_mult_tau"][0]),
    ("klr.right_mult_tau.self_s", "s", "lower",
     lambda T, C: T["klr.right_mult_tau"][2]),
    ("klr.tau_tau_e.calls", "count", "lower",
     lambda T, C: C["klr.tau_tau_e.calls"]),
    ("klr.tau_tau_e.hit_ratio", "ratio", "higher",
     lambda T, C: _ratio(C["klr.tau_tau_e.hits"], C["klr.tau_tau_e.calls"])),
    ("perms.move_path.hit_ratio", "ratio", "higher",
     lambda T, C: _ratio(C["perms.move_path.hits"],
                         C["perms.move_path.hits"]
                         + C["perms.move_path.misses"])),
    ("tensors.tensor_dim.calls", "count", "lower",
     lambda T, C: T["tensors.tensor_dim"][0]),
    ("tensors.tensor_dim.self_s", "s", "lower",
     lambda T, C: T["tensors.tensor_dim"][2]),
    ("tensors.tensor_dim.relations_offered", "count", "lower",
     lambda T, C: C["tensor_dim.relations_offered"]),
    ("tensors.tensor_dim.relations_kept_ratio", "ratio", "higher",
     lambda T, C: _ratio(C["tensor_dim.relations_kept"],
                         C["tensor_dim.relations_offered"])),
    ("bimodules.Bimodules.init.self_s", "s", "lower",
     lambda T, C: T["bimodules.Bimodules.init"][2]),
    ("bimodules.phi_by_chase.self_s", "s", "lower",
     lambda T, C: T["bimodules.phi_by_chase"][2]),
    ("bimodules.phi_by_division.self_s", "s", "lower",
     lambda T, C: T["bimodules.phi_by_division"][2]),
    ("simples.count_simples.calls", "count", "lower",
     lambda T, C: T["simples.count_simples"][0]),
    ("simples.count_simples.self_s", "s", "lower",
     lambda T, C: T["simples.count_simples"][2]),
    ("simples.count_simples.dim_sum", "count", "lower",
     lambda T, C: C["count_simples.dim_sum"]),
    ("linalg.laurent_rank.self_s", "s", "lower",
     lambda T, C: T["linalg.laurent_rank"][2]),
    ("uqmod.UqModule.gram.calls", "count", "lower",
     lambda T, C: C["uqmod.gram.calls"]),
    ("uqmod.UqModule.predicted_dim.self_s", "s", "lower",
     lambda T, C: T["uqmod.UqModule.predicted_dim"][2]),
    ("uqmod.UqModule.weight_dim.self_s", "s", "lower",
     lambda T, C: T["uqmod.UqModule.weight_dim"][2]),
    ("cache.get.calls", "count", "lower",
     lambda T, C: T["cache.get"][0]),
    ("cache.put.calls", "count", "lower",
     lambda T, C: T["cache.put"][0]),
    ("cache.hit_ratio", "ratio", "higher",
     lambda T, C: _ratio(C["cache.hits"], T["cache.get"][0])),
    ("cache.get.self_s", "s", "lower",
     lambda T, C: T["cache.get"][2]),
    ("cache.put.self_s", "s", "lower",
     lambda T, C: T["cache.put"][2]),
] + [
    ("checks.%s.busy_s" % suite, "s", "lower",
     lambda T, C, _s=suite: T["checks." + _s][1])
    for suite in SUITES
]

# Measured outside the trace counters and passed in by the caller.
EXTERNAL = [
    ("import.quiverhecke_s", "s", "lower"),
    ("import.sympy_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

PER_LAYER = [(name, unit, better) for name, unit, better, _ in _LAYERS] \
    + EXTERNAL


def layer_metrics(merged, external) -> dict:
    """Every per-layer metric as {name: {"value", "unit"}}."""
    T = collections.defaultdict(lambda: [0, 0.0, 0.0], merged["totals"])
    C = collections.Counter(merged["counts"])
    out = {}
    for name, unit, _better, fn in _LAYERS:
        out[name] = {"value": fn(T, C), "unit": unit}
    for name, unit, _better in EXTERNAL:
        out[name] = {"value": external[name], "unit": unit}
    return out
