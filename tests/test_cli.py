"""The command line driver: output shapes, exit codes, and the cache."""

import json
import os
import subprocess
import sys
from functools import partial
from importlib import import_module

import pytest

import quiverhecke
from quiverhecke.cache import Cache, resolve_cache_dir, summary_key
from quiverhecke.cartan import Weight, build_cartan
from quiverhecke import cli, cyclotomic, klr
from quiverhecke.cli import main
from quiverhecke.config import ConfigError, load_config
from quiverhecke.cyclotomic import CycAlgebra
from quiverhecke.qpolys import QSpec

A2_CONFIG = {
    "cartan": {"labels": ["1", "2"], "matrix": [[2, -1], [-1, 2]]},
    "q_coeffs": "standard",
    "lambda": {"1": 1},
    "nmax": 2,
}


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(A2_CONFIG))
    return str(p)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_basis_tsv(cfg_path, capsys):
    rc, out, _ = run(capsys, "basis", "--config", cfg_path,
                     "--degree-cap", "2")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "beta\tdegree\tdim"
    assert "1,1\t-2\t1" in lines
    assert "1,2\t1\t2" in lines


def test_basis_builds_on_the_configured_table(cfg_path, tmp_path, capsys,
                                              monkeypatch):
    # the free algebra's basis does not depend on Q, so the output
    # matches the standard table's, but every engine carries the given one
    rc, standard, _ = run(capsys, "basis", "--config", cfg_path,
                          "--degree-cap", "4")
    assert rc == 0
    p = tmp_path / "twisted.json"
    p.write_text(json.dumps(
        {**A2_CONFIG, "q_coeffs": {"1,2": [[1, 0, 1, 1], [0, 1, 2, 1]]}}))
    given = load_config(str(p)).qspec
    tables = set()

    def get_engine(datum, n, qspec=None):
        eng = klr.get_engine(datum, n, qspec)
        tables.add(eng.qspec)
        return eng

    monkeypatch.setattr(cyclotomic, "get_engine", get_engine)
    rc, twisted, _ = run(capsys, "basis", "--config", str(p),
                         "--degree-cap", "4")
    assert rc == 0
    assert twisted == standard
    assert tables == {given}


def test_cyclotomic_tsv_and_cache_identity(cfg_path, tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    rc, cold, _ = run(capsys, "cyclotomic", "--config", cfg_path,
                      "--cache-dir", cache_dir)
    assert rc == 0
    rc, warm, _ = run(capsys, "cyclotomic", "--config", cfg_path,
                      "--cache-dir", cache_dir)
    assert rc == 0
    rc, fresh, _ = run(capsys, "cyclotomic", "--config", cfg_path,
                       "--no-cache")
    assert cold == warm == fresh
    assert "1,2\t1\t0\t1" in cold.splitlines()


def test_compare_all_match(cfg_path, capsys):
    rc, out, _ = run(capsys, "compare", "--config", cfg_path, "--no-cache")
    assert rc == 0
    rows = [ln.split("\t") for ln in out.splitlines()[1:]]
    assert rows
    assert all(r[-1] == "1" for r in rows)


def test_gram_json(cfg_path, capsys):
    rc, out, _ = run(capsys, "gram", "--config", cfg_path, "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["command"] == "gram"
    by_beta = {b["beta"]: b for b in payload["blocks"]}
    assert by_beta["1"]["matrix"] == [[{"0": 1}]]


def test_check_text_and_exit(capsys):
    rc, out, _ = run(capsys, "check", "taug")
    assert rc == 0
    lines = out.splitlines()
    assert lines[-1] == "18 instances, 0 failed"
    assert all(ln.startswith("PASS") for ln in lines[:-1])


def strip(obj):
    """A report with its timing fields removed."""
    if isinstance(obj, dict):
        return {k: strip(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [strip(x) for x in obj]
    return obj


def test_check_json_deterministic(capsys):
    rc, first, _ = run(capsys, "check", "phi", "--json")
    assert rc == 0
    rc, second, _ = run(capsys, "check", "phi", "--json")
    assert strip(json.loads(first)) == strip(json.loads(second))


def test_check_jobs_matches_serial(capsys):
    rc, serial, _ = run(capsys, "check", "taug", "--json")
    assert rc == 0
    rc, pooled, _ = run(capsys, "check", "taug", "--jobs", "2", "--json")
    assert rc == 0
    assert strip(json.loads(pooled)) == strip(json.loads(serial))


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_check_jobs_below_one_exit_two(capsys, jobs):
    rc, out, err = run(capsys, "check", "taug", "--jobs", jobs)
    assert rc == 2
    assert out == ""
    assert "--jobs" in err


def test_check_jobs_clamped(capsys, monkeypatch):
    import multiprocessing

    sizes = []

    class FakePool:
        """Records the worker count and runs the work in this process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(x) for x in items]

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    rc, out, _ = run(capsys, "check", "taug", "--jobs", "1000000")
    assert rc == 0
    assert out.splitlines()[-1] == "18 instances, 0 failed"
    assert sizes == [3]
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    run(capsys, "check", "categorification", "--jobs", "1000000")
    assert sizes == [3, 4]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run(capsys, "check", "categorification", "--jobs", "8")
    assert sizes == [3, 4]


def check_broken(datum, weight, beta, i):
    """A check instance that raises; module level, so a pool can pickle
    it."""
    raise RuntimeError("instance blew up")


@pytest.fixture
def taug_with_a_raising_instance(monkeypatch):
    """The taug suite cut to three real instances with a raising one
    between them."""
    import quiverhecke.checks as checks_mod

    real = checks_mod.CHECKS["taug"]
    broken = partial(check_broken, build_cartan(("0",), [[2]]),
                     Weight((1,)), (1,), 0)
    monkeypatch.setitem(checks_mod.CHECKS, "taug",
                        lambda: real()[:2] + [broken] + real()[2:3])


def test_check_reports_a_raising_instance_as_an_error(
        capsys, taug_with_a_raising_instance):
    rc, out, _ = run(capsys, "check", "taug")
    assert rc == 1
    lines = out.splitlines()
    assert [ln.split()[0] for ln in lines[:-1] if ln[0] != " "] == [
        "PASS", "PASS", "ERROR", "PASS"]
    assert lines[2] == ("ERROR broken           beta=[1] i=0 labels=['0'] "
                        "levels=[1]")
    assert lines[3] == ("     kind=error message=instance blew up "
                        "type=RuntimeError")
    assert lines[-1] == "4 instances, 1 failed"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_check_json_reports_a_raising_instance_as_an_error(
        capsys, taug_with_a_raising_instance, jobs):
    rc, out, _ = run(capsys, "check", "taug", "--json", "--jobs", jobs)
    assert rc == 1
    payload = json.loads(out)
    assert (payload["total"], payload["failed"]) == (4, 1)
    assert [r["status"] for r in payload["results"]] == [
        "pass", "pass", "error", "pass"]
    err = payload["results"][2]
    assert err["name"] == "broken"
    assert err["witness"] == [{"kind": "error", "type": "RuntimeError",
                               "message": "instance blew up"}]


def test_check_unknown_name(capsys):
    rc, _, err = run(capsys, "check", "nosuch")
    assert rc == 2
    assert "unknown check" in err


def test_bad_config_exit_two(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"cartan": A2_CONFIG["cartan"], "junk": 1}))
    rc, _, err = run(capsys, "basis", "--config", str(p))
    assert rc == 2
    assert "config error" in err


def test_config_that_is_not_utf8_exit_two(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_bytes(b'{"cartan": "\xff"}')
    rc, out, err = run(capsys, "cyclotomic", "--config", str(p))
    assert rc == 2
    assert "config error" in err
    assert "not UTF-8" in err
    assert "Traceback" not in err and out == ""


def test_missing_config_exit_two(capsys):
    rc, _, err = run(capsys, "basis")
    assert rc == 2
    assert "config" in err


def test_cache_stat_and_clear(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    cache = Cache(cache_dir)
    cache.put("ab" * 32, {"x": 1})
    rc, out, _ = run(capsys, "cache", "stat", "--cache-dir", cache_dir)
    assert rc == 0
    assert out.splitlines()[1].split("\t")[1] == "1"
    rc, out, _ = run(capsys, "cache", "clear", "--cache-dir", cache_dir)
    assert rc == 0
    assert "removed 1" in out
    assert cache.stat()["entries"] == 0


def test_cache_leaves_foreign_json_files_alone(tmp_path, capsys):
    # only digest-named files are entries: a user's config kept in the
    # cache directory is neither counted nor removed
    cache_dir = tmp_path / "cache"
    cache = Cache(str(cache_dir))
    cache.put("ab" * 32, {"x": 1})
    foreign = ["myconfig.json", "AB" * 32 + ".json", "ab" * 31 + ".json"]
    for name in foreign:
        (cache_dir / name).write_text(json.dumps(A2_CONFIG))
    assert cache.stat()["entries"] == 1
    rc, out, _ = run(capsys, "cache", "clear", "--cache-dir", str(cache_dir))
    assert rc == 0
    assert "removed 1 " in out
    assert sorted(os.listdir(cache_dir)) == sorted(foreign)
    assert cache.stat() == {"root": str(cache_dir), "entries": 0, "bytes": 0}


def test_cache_key_sensitivity():
    d = build_cartan(("1", "2"), [[2, -1], [-1, 2]])
    qs = QSpec.standard(d)
    w1 = Weight((1, 0))
    w2 = Weight((0, 1))
    k = summary_key(d, qs, w1, (1, 1))
    assert k == summary_key(d, qs, w1, (1, 1))
    assert k != summary_key(d, qs, w2, (1, 1))
    assert k != summary_key(d, qs, w1, (1, 2))
    twisted = QSpec(d, {(0, 1): {(1, 0): 2, (0, 1): 3}})
    assert k != summary_key(d, twisted, w1, (1, 1))


def test_cache_key_carries_the_engine_revision(cfg_path, tmp_path, capsys,
                                              monkeypatch):
    import quiverhecke.cache as cache_mod

    cfg = load_config(cfg_path)
    beta = (1, 1)
    alg_key = (cfg.datum, cfg.qspec, cfg.weight, beta)
    key = summary_key(*alg_key)
    monkeypatch.setattr(cache_mod, "ENGINE_REVISION",
                        cache_mod.ENGINE_REVISION - 1)
    old_key = summary_key(*alg_key)
    monkeypatch.undo()
    assert old_key != key
    assert summary_key(*alg_key) == key
    # and the payload schema
    monkeypatch.setattr(cache_mod, "SCHEMA_VERSION",
                        cache_mod.SCHEMA_VERSION - 1)
    assert summary_key(*alg_key) not in (key, old_key)
    monkeypatch.undo()
    # a well-shaped but wrong entry from the older engine is never served
    stale = CycAlgebra(cfg.datum, cfg.weight, beta, cfg.qspec).summary()
    stale["total_dim"] += 1
    cache_dir = str(tmp_path / "cache")
    Cache(cache_dir).put(old_key, {"key": old_key, "summary": stale})
    fresh = run(capsys, "cyclotomic", "--config", cfg_path, "--no-cache",
                "--json")
    cached = run(capsys, "cyclotomic", "--config", cfg_path,
                 "--cache-dir", cache_dir, "--json")
    assert cached == fresh
    assert Cache(cache_dir).get(old_key) == {"key": old_key, "summary": stale}
    assert (Cache(cache_dir).get(key)["summary"]["total_dim"]
            == stale["total_dim"] - 1)


def test_cache_dir_resolution(tmp_path, monkeypatch):
    monkeypatch.delenv("QUIVERHECKE_CACHE_DIR", raising=False)
    default = resolve_cache_dir()
    assert default.endswith(os.path.join(".cache", "quiverhecke"))
    monkeypatch.setenv("QUIVERHECKE_CACHE_DIR", str(tmp_path))
    assert resolve_cache_dir() == str(tmp_path)
    assert resolve_cache_dir("/explicit/wins") == "/explicit/wins"


def test_cache_ignores_corrupt_entries(tmp_path):
    cache = Cache(str(tmp_path))
    key = "cd" * 32
    cache.put(key, {"ok": True})
    assert cache.get(key) == {"ok": True}
    with open(os.path.join(str(tmp_path), key + ".json"), "w") as fh:
        fh.write("{not json")
    assert cache.get(key) is None


@pytest.mark.parametrize("command", ["cyclotomic", "compare"])
def test_cache_entry_that_is_not_utf8_is_a_miss(cfg_path, tmp_path, capsys,
                                               command):
    cache_dir = tmp_path / "cache"
    assert run(capsys, command, "--config", cfg_path,
               "--cache-dir", str(cache_dir))[0] == 0
    names = sorted(os.listdir(cache_dir))
    assert names
    for name in names:
        (cache_dir / name).write_bytes(b"\xff\xfe\x00garbage")
    fresh = run(capsys, command, "--config", cfg_path, "--no-cache")
    cached = run(capsys, command, "--config", cfg_path,
                 "--cache-dir", str(cache_dir))
    assert cached == fresh
    assert fresh[0] == 0
    # every entry was recomputed, overwritten and reads back
    cache = Cache(str(cache_dir))
    for name in names:
        key = name.removesuffix(".json")
        assert cache.get(key)["key"] == key


def test_summary_keys_are_the_summary_fields():
    alg = CycAlgebra(build_cartan(("1", "2"), [[2, -1], [-1, 2]]),
                     Weight((1, 1)), (1, 1))
    # the table lives in cli.py and the summary in cyclotomic.py: both
    # name the same fields in the same order
    assert tuple(alg.summary()) == tuple(cli.SUMMARY_TYPES)


# a full summary as schema 1 wrote it, with its window_certified field
SCHEMA_1_SUMMARY = {
    "labels": ["1", "2"], "levels": [1, 0], "beta": [1, 1], "window": [0, 1],
    "window_bound": 1, "window_certified": 1,
    "nilpotency": [{"1": 1, "2": 0}, {"1": 0, "2": 1}], "alive": ["1,2"],
    "zero": False, "graded_dim": {"0": 1}, "total_dim": 1,
    "truncations": {"1,2|1,2": {"0": 1}},
}


@pytest.mark.parametrize("entry", [{}, [], {"graded_dim": {}},
                                   SCHEMA_1_SUMMARY],
                         ids=["empty-dict", "list", "partial", "schema-1"])
@pytest.mark.parametrize("command", ["cyclotomic", "compare"])
def test_wrong_shaped_cache_entry_is_a_miss(cfg_path, tmp_path, capsys,
                                            command, entry):
    cfg = load_config(cfg_path)
    cache_dir = str(tmp_path / "cache")
    cache = Cache(cache_dir)
    keys = [summary_key(cfg.datum, cfg.qspec, cfg.weight, beta)
            for beta in cfg.require_betas()]
    for fmt in ((), ("--json",)):
        # each under its own key, so only the summary's shape is wrong
        for key in keys:
            cache.put(key, {"key": key, "summary": entry})
        fresh = run(capsys, command, "--config", cfg_path, "--no-cache", *fmt)
        cached = run(capsys, command, "--config", cfg_path,
                     "--cache-dir", cache_dir, *fmt)
        assert cached[:2] == fresh[:2]
        # the wrong-shaped entries were overwritten with real summaries
        for key in keys:
            assert cache.get(key)["key"] == key
            assert (set(cache.get(key)["summary"])
                    == set(cli.SUMMARY_TYPES))


def test_summary_types_cover_the_summary_fields():
    # every field the cache reads is typed, and a real summary passes
    alg = CycAlgebra(build_cartan(("1", "2"), [[2, -1], [-1, 2]]),
                     Weight((1, 1)), (1, 1))
    summary = alg.summary()
    assert set(summary) == set(cli.SUMMARY_TYPES)
    assert all(cli._typed(summary[k], t)
               for k, t in cli.SUMMARY_TYPES.items())


# one field of a well-keyed summary given a value of the wrong type
WRONG_TYPES = [("graded_dim", "oops"), ("truncations", [1, 2]),
               ("total_dim", "1"), ("zero", 0), ("levels", [1.0, 0]),
               ("graded_dim", {"x": 1}), ("truncations", {"1,2|1,2": []}),
               ("nilpotency", [{"1": True}])]


@pytest.mark.parametrize("field,value", WRONG_TYPES,
                         ids=[f"{f}={v!r}" for f, v in WRONG_TYPES])
@pytest.mark.parametrize("command", ["cyclotomic", "compare"])
def test_wrongly_typed_cache_entry_is_a_miss(cfg_path, tmp_path, capsys,
                                             command, field, value):
    cfg = load_config(cfg_path)
    cache_dir = str(tmp_path / "cache")
    cache = Cache(cache_dir)
    betas = cfg.require_betas()
    keys = [summary_key(cfg.datum, cfg.qspec, cfg.weight, beta)
            for beta in betas]
    summaries = [CycAlgebra(cfg.datum, cfg.weight, beta, cfg.qspec).summary()
                 for beta in betas]
    for fmt in ((), ("--json",)):
        # each under its own key, so only the field's type is wrong
        for key, summary in zip(keys, summaries):
            cache.put(key, {"key": key, "summary": {**summary, field: value}})
        fresh = run(capsys, command, "--config", cfg_path, "--no-cache", *fmt)
        cached = run(capsys, command, "--config", cfg_path,
                     "--cache-dir", cache_dir, *fmt)
        assert cached == fresh
        assert fresh[0] == 0
        # the entries were recomputed and overwritten
        assert [cache.get(key) for key in keys] == [
            {"key": key, "summary": summary}
            for key, summary in zip(keys, summaries)]


@pytest.mark.parametrize("command", ["cyclotomic", "compare"])
def test_cache_entry_copied_to_another_key_is_a_miss(cfg_path, tmp_path,
                                                     capsys, command):
    # a well-formed entry of A2 at rho and beta = alpha_1 + alpha_2 copied
    # over the file of Lambda = Lambda_1 and beta = alpha_1, and a bare
    # summary of the older format under its right key
    cfg = load_config(cfg_path)
    rho = tmp_path / "rho.json"
    rho.write_text(json.dumps({**A2_CONFIG, "lambda": {"1": 1, "2": 1}}))
    cache_dir = str(tmp_path / "cache")
    assert run(capsys, "cyclotomic", "--config", str(rho),
               "--cache-dir", cache_dir)[0] == 0
    rho_cfg = load_config(str(rho))
    src = summary_key(rho_cfg.datum, rho_cfg.qspec, rho_cfg.weight, (1, 1))
    dst = summary_key(cfg.datum, cfg.qspec, cfg.weight, (1, 0))
    bare = summary_key(cfg.datum, cfg.qspec, cfg.weight, (0, 1))
    cache = Cache(cache_dir)
    copied = cache.get(src)
    assert copied["key"] == src
    cache.put(dst, copied)
    cache.put(bare, CycAlgebra(cfg.datum, cfg.weight, (0, 1),
                               cfg.qspec).summary())
    for fmt in ((), ("--json",)):
        fresh = run(capsys, command, "--config", cfg_path, "--no-cache", *fmt)
        cached = run(capsys, command, "--config", cfg_path,
                     "--cache-dir", cache_dir, *fmt)
        assert cached == fresh
        assert fresh[0] == 0
    # both entries were recomputed and overwritten under their own keys
    for key in (dst, bare):
        assert cache.get(key)["key"] == key
    assert cache.get(dst)["summary"]["beta"] == [1, 0]


def test_cache_interleaved_writers(tmp_path, monkeypatch):
    # a second writer of the same key runs to completion in the middle of
    # the first one's write
    import quiverhecke.cache as cache_mod

    cache = Cache(str(tmp_path))
    key = "ef" * 32
    dump = json.dump
    nested = []

    def dump_with_rival(obj, fh, **kw):
        if not nested:
            nested.append(True)
            cache.put(key, {"writer": 2})
        dump(obj, fh, **kw)

    monkeypatch.setattr(cache_mod.json, "dump", dump_with_rival)
    cache.put(key, {"writer": 1})
    assert nested
    assert cache.get(key) == {"writer": 1}
    assert os.listdir(str(tmp_path)) == [key + ".json"]


def test_cache_write_failure_is_a_miss(tmp_path, cfg_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file, not a directory")
    root = str(blocker / "cache")
    cache = Cache(root)
    key = "01" * 32
    cache.put(key, {"x": 1})
    assert cache.get(key) is None
    assert cache.stat()["entries"] == 0
    rc, cached, _ = run(capsys, "cyclotomic", "--config", cfg_path,
                        "--cache-dir", root)
    assert rc == 0
    rc, fresh, _ = run(capsys, "cyclotomic", "--config", cfg_path,
                       "--no-cache")
    assert cached == fresh
    assert sorted(os.listdir(str(tmp_path))) == ["blocker", "cfg.json"]


# nesting deeper than the recursion limit makes json.load raise
# RecursionError rather than JSONDecodeError
DEEP_JSON = "[" * 100000 + "]" * 100000


def test_deeply_nested_cache_entry_is_a_miss(cfg_path, tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    assert run(capsys, "compare", "--config", cfg_path,
               "--cache-dir", str(cache_dir))[0] == 0
    names = sorted(os.listdir(cache_dir))
    assert names
    for name in names:
        (cache_dir / name).write_text(DEEP_JSON)
    fresh = run(capsys, "compare", "--config", cfg_path, "--no-cache")
    cached = run(capsys, "compare", "--config", cfg_path,
                 "--cache-dir", str(cache_dir))
    assert fresh[0] == 0
    assert cached[:2] == fresh[:2]
    # every entry was recomputed and overwritten
    cache = Cache(str(cache_dir))
    for name in names:
        key = name.removesuffix(".json")
        assert cache.get(key)["key"] == key


def test_deeply_nested_config_exit_two(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text(DEEP_JSON)
    rc, out, err = run(capsys, "compare", "--config", str(p))
    assert rc == 2
    assert "is not valid JSON" in err
    assert "Traceback" not in err and out == ""


def _a3_config(tmp_path, labels):
    p = tmp_path / "a3.json"
    p.write_text(json.dumps({
        "cartan": {"labels": labels,
                   "matrix": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]},
        "lambda": {labels[0]: 1},
        "beta": {lab: 1 for lab in labels},
    }))
    return str(p)


@pytest.mark.parametrize("bad", ["a,b", "a|b"])
def test_labels_with_a_name_separator_exit_two(tmp_path, capsys, bad):
    # summary() names sequences "a,b" and truncations "name|name", so
    # such a label would make two truncations share one name
    rc, out, err = run(capsys, "compare", "--config",
                       _a3_config(tmp_path, ["a", "b", bad]))
    assert rc == 2
    assert "config error" in err and repr(bad) in err
    assert out == ""
    rc, out, _ = run(capsys, "compare", "--config",
                     _a3_config(tmp_path, ["a", "b", "c"]))
    assert rc == 0 and out


# -- what a fresh process imports ----------------------------------------

# the module sets below are the point of the package's lazy __init__, of
# cli.py importing per command, and of keeping the summary table in cli.py:
# a short command pays for no more

# the strand engine, which a cached summary does not need
ENGINE = {"quiverhecke.klr", "quiverhecke.perms", "quiverhecke.tensors",
          "quiverhecke.cyclotomic"}

RUN_CLI = ("import sys\n"
           "import quiverhecke.cli\n"
           "assert quiverhecke.cli.main(sys.argv[1:]) == 0\n")


def _loaded(code, *args):
    """Every module loaded by a fresh interpreter after it runs code (with
    args as sys.argv[1:])."""
    src = os.path.dirname(os.path.dirname(quiverhecke.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _fresh_modules(code, *args):
    """The quiverhecke modules loaded by a fresh interpreter after it
    runs code."""
    return {m for m in _loaded(code, *args)
            if m.split(".")[0] == "quiverhecke"}


def _cli_modules(*argv):
    """The quiverhecke modules a fresh CLI process loads to run argv."""
    return _fresh_modules(RUN_CLI, *argv)


def test_package_import_loads_no_submodule():
    assert _fresh_modules("import quiverhecke") == {"quiverhecke"}


def test_cache_stat_loads_only_the_cache(tmp_path):
    assert _cli_modules("cache", "stat", "--cache-dir", str(tmp_path)) == {
        "quiverhecke", "quiverhecke.cli", "quiverhecke.cache"}


def test_cache_stat_loads_no_hashlib(tmp_path):
    # a key is hashed only when one is computed; stat computes none
    bare = _loaded("")
    assert "hashlib" not in bare
    stat = _loaded(RUN_CLI, "cache", "stat", "--cache-dir", str(tmp_path))
    assert "hashlib" not in stat - bare


@pytest.mark.parametrize("command", ["compare", "cyclotomic"])
def test_quotient_commands_load_no_check_layer(cfg_path, tmp_path, command):
    heavy = {"quiverhecke.checks", "quiverhecke.bimodules",
             "quiverhecke.simples"}
    argv = (command, "--config", cfg_path, "--cache-dir", str(tmp_path))
    cold = _cli_modules(*argv)
    assert "quiverhecke.cyclotomic" in cold and not cold & heavy
    assert Cache(str(tmp_path)).stat()["entries"] == 6
    # every summary is a hit, so no strand algebra is loaded, and the
    # oracle needs no elimination to predict a corner
    warm = _cli_modules(*argv)
    assert not warm & (heavy | ENGINE)
    assert "quiverhecke.linalg" not in warm


def test_the_oracle_loads_no_strand_engine():
    # V(Lambda) predicts what the quotients are checked against, so it
    # must not be computed with the code under test
    loaded = _fresh_modules("import quiverhecke.uqmod")
    assert "quiverhecke.uqmod" in loaded and not loaded & ENGINE


@pytest.mark.parametrize("argv", [
    ("basis", "--degree-cap", "2"), ("cyclotomic",), ("gram",), ("compare",),
    ("check", "pbw"), ("cache", "stat"), ("cache", "clear")],
    ids=["basis", "cyclotomic", "gram", "compare", "check", "cache-stat",
         "cache-clear"])
def test_no_command_loads_dataclasses(cfg_path, tmp_path, argv):
    bare = _loaded("")
    assert "dataclasses" not in bare
    loaded = _loaded(RUN_CLI, *argv, "--config", cfg_path,
                     "--cache-dir", str(tmp_path))
    assert "dataclasses" not in loaded - bare


def test_lazy_names_are_the_exports():
    assert quiverhecke.__all__ == [
        "BasisMonomial", "CHECKS", "CartanDatum", "CycAlgebra", "KLR",
        "LaurentPoly", "QSpec", "UqModule", "Weight", "build_cartan",
        "get_engine", "run_all", "run_check", "__version__"]
    exports = quiverhecke._EXPORTS
    assert set(exports) == set(quiverhecke.__all__) - {"__version__"}
    for name, module in exports.items():
        owner = import_module(f"quiverhecke.{module}")
        assert getattr(quiverhecke, name) is getattr(owner, name)
    star = {}
    exec("from quiverhecke import *", star)
    assert set(star) - {"__builtins__"} == set(quiverhecke.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        quiverhecke.no_such_name


def test_a_command_error_that_is_not_a_config_error_propagates(
        monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("command blew up")

    monkeypatch.setattr(cli, "cmd_cache", broken)
    with pytest.raises(RuntimeError, match="command blew up"):
        main(["cache", "stat"])
    assert capsys.readouterr().err == ""


def test_a_config_error_inside_a_command_exits_two(monkeypatch, capsys):
    def broken(args):
        raise ConfigError("no such thing")

    monkeypatch.setattr(cli, "cmd_cache", broken)
    rc, out, err = run(capsys, "cache", "stat")
    assert (rc, out, err) == (2, "", "config error: no such thing\n")
