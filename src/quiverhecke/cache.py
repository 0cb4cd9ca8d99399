"""On-disk cache for computed cyclotomic algebra summaries.

Entries are keyed by a hash of every mathematical input: Cartan matrix,
symmetrizer, coefficient polynomial table, weight levels, and the root
beta, plus a schema version so stale payload layouts are never reused,
and an engine revision so payloads computed by an older engine are never
served after the engine changes.
The cache only ever stores finished summary payloads, each next to the
key it was stored under so that an entry copied to another key is a
miss; a hit and a recomputation produce identical output.

The cache directory is resolved from, in order: an explicit argument
(the --cache-dir flag), the QUIVERHECKE_CACHE_DIR environment variable,
and a per-user default.

This module imports no algebra code.  The command line checks an entry's
payload against `cli.SUMMARY_TYPES`, kept there so that a hit imports no
quotient code either.  `hashlib` is imported only to compute a key, so
`cache stat` and `cache clear` do not load it.
"""

from __future__ import annotations

import json
import os
import re

__all__ = ["ENGINE_REVISION", "SCHEMA_VERSION", "resolve_cache_dir",
           "summary_key", "Cache"]

SCHEMA_VERSION = 2

# Bump on every change that can alter a stored summary; a change that
# computes the same summaries another way, with an argument that they are
# equal, keeps it.  Revision 2 builds ideal rows over the integers and
# takes each block's reduced echelon form over Q, which is unique, so no
# choice of rows or of eliminator changes it.
ENGINE_REVISION = 2

_ENV_VAR = "QUIVERHECKE_CACHE_DIR"

# the file name of an entry, a `summary_key` digest; other files are kept
_ENTRY_NAME = re.compile(r"[0-9a-f]{64}\.json")


def resolve_cache_dir(explicit=None) -> str:
    if explicit:
        return explicit
    env = os.environ.get(_ENV_VAR)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "quiverhecke")


def summary_key(datum, qspec, weight, beta) -> str:
    """Stable hex digest identifying one cyclotomic computation."""
    import hashlib

    payload = {
        "schema": SCHEMA_VERSION,
        "engine": ENGINE_REVISION,
        "labels": [str(s) for s in datum.labels],
        "matrix": [list(row) for row in datum.matrix],
        "sym": list(datum.sym),
        "q_coeffs": qspec.describe(),
        "levels": list(weight.levels),
        "beta": list(beta),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class Cache:
    """A directory of JSON payloads addressed by hex key."""

    def __init__(self, root):
        self.root = root

    def _path(self, key):
        return os.path.join(self.root, key + ".json")

    def get(self, key):
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError,
                RecursionError):
            return None

    def put(self, key, payload):
        """Store payload under key.  Each write goes to its own temporary
        file, so concurrent writers never collide; a failed write (an
        unusable root, a full disk) is a cache miss, not an error."""
        path = self._path(key)
        tmp = f"{path}.{os.urandom(8).hex()}.tmp"
        try:
            os.makedirs(self.root, exist_ok=True)
            with open(tmp, "x", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
            os.replace(tmp, path)
        except OSError:
            try:
                os.remove(tmp)
            except OSError:
                pass

    def _entries(self):
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        return sorted(n for n in names if _ENTRY_NAME.fullmatch(n))

    def stat(self) -> dict:
        names = self._entries()
        size = 0
        for name in names:
            try:
                size += os.path.getsize(os.path.join(self.root, name))
            except OSError:
                pass
        return {"root": self.root, "entries": len(names), "bytes": size}

    def clear(self) -> int:
        removed = 0
        for name in self._entries():
            try:
                os.remove(os.path.join(self.root, name))
                removed += 1
            except OSError:
                pass
        return removed
