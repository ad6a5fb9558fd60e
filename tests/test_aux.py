"""Aux sources + pagination arithmetic (S2/S6/S7/S11, M13/M18, ST3)."""

import gzip
import json
import os

import pytest

from rkts_migration_ray.functions import pagination as pg
from rkts_migration_ray.sources import aux_readers

# the checkout these tests belong to: CLI subprocesses run ITS package
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_folio_arithmetic():
    # folio 1a is image 1 (one_a=1); 1b is 2; 2a is 3 …
    assert pg.folio_side_to_pagenum(1, "a") == 1
    assert pg.folio_side_to_pagenum(1, "b") == 2
    assert pg.folio_side_to_pagenum(2, "a") == 3
    # first-folio override: volume film starts at folio 3
    assert pg.folio_side_to_pagenum(3, "a", first_folio=3) == 1
    with pytest.raises(ValueError):
        pg.folio_side_to_pagenum(2, "a", first_folio=3)


def test_pagination_compare():
    # comparepg semantics, migrate-bvm.py:14,58-76
    assert pg.compare_pagination("107a", "107b") < 0
    assert pg.compare_pagination("107b", "108a") < 0
    assert pg.compare_pagination("107a", "107'a") < 0    # apostrophe dup-mark
    assert pg.compare_pagination("107'a", "107''a") < 0  # more marks sort later
    assert pg.compare_pagination("9b", "10a") < 0        # numeric, not lexical
    assert pg.compare_pagination("garbage", "10a") == 0
    assert pg.compare_pagination("xa", "10a") == 0       # wildcard folio
    assert pg.compare_pagination("10a", "xb") == 0
    assert pg.compare_pagination("107a?", "107a") == 0   # '?' ignored
    assert pg.compare_pagination("107a(d2)", "107a") == 0  # '(dN)' ignored
    assert pg.parse_pagination_token("12x") is None      # side is mandatory


def test_pagination_cache_lru1():
    loads = []
    cache = pg.PaginationCache(lambda name: loads.append(name) or name.upper())
    assert cache.get("v1") == "V1"
    assert cache.get("v1") == "V1"
    assert cache.get("v2") == "V2"
    assert cache.get("v1") == "V1"
    assert loads == ["v1", "v2", "v1"] and cache.misses == 3


def test_read_json_gz(tmp_path):
    p = tmp_path / "x.json.gz"
    with gzip.open(p, "wt") as f:
        json.dump({"2": "b", "10": "c", "1": "a"}, f)
    d = aux_readers.read_json_gz(str(p))
    assert aux_readers.sorted_json_keys(d) == ["1", "2", "10"]


def test_glob_denylist(tmp_path):
    for name in ("a.json", "b.json", "skipme.json"):
        (tmp_path / name).write_text("{}")
    got = aux_readers.glob_with_denylist(str(tmp_path / "*.json"), ["skip"])
    assert [g.split("/")[-1] for g in got] == ["a.json", "b.json"]


def test_yaml_config(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"target": "rkts", "n_subj_buckets": 32, "junk": 1}))
    cfg = aux_readers.load_yaml_config(str(p))
    assert cfg.target == "rkts" and cfg.n_subj_buckets == 32


def test_cli_query_subcommand(sf_tag, tmp_path):
    """`python -m rkts_migration_ray query` runs a registry query in-process
    (the CLI owns its own Ray session, so here we drive main() directly
    against the already-running test session via the registry path)."""
    import json
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-m", "rkts_migration_ray", "query", "--name",
         "text_vocab", "--sf", sf_tag, "--num-cpus", "2"],
        capture_output=True, text=True, cwd=REPO_ROOT)
    assert out.returncode == 0, out.stderr[-500:]
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["query"] == "text_vocab" and res["rows"] > 0


def test_image_list_store_fetch_seam(tmp_path):
    """Remote-fetch seam (round-3 verdict fix #6; migrate-bvm.py:369-387):
    a cache miss calls the INJECTED fetcher with the md5-bucketed remote
    key, persists the gz side file atomically, and later gets hit the
    local cache; no fetcher => loud failure, never an invented list."""
    import gzip
    import json

    # key grammar, both suffix branches (migrate-bvm.py:371-375)
    k = pg.image_list_key("W22084", "I0886")
    assert k == "Works/60/W22084/images/W22084-0886/dimensions.json"
    assert pg.image_list_key("W22084", "X123").endswith("W22084-X123/dimensions.json")

    # malformed volume row: explicit error naming the list, not IndexError
    import pytest as _pt
    with _pt.raises(ValueError, match="W22084"):
        pg.image_list_key("W22084", "")

    calls = []

    def fake_fetch(key: str) -> bytes:
        calls.append(key)
        return gzip.compress(json.dumps(
            [{"filename": f"{key.split('/')[2]}-0001.jpg"}]).encode())

    store = pg.ImageListStore(str(tmp_path / "il"), fetch=fake_fetch)
    got = store.get("W22084", "I0886")
    assert got[0]["filename"] == "W22084-0001.jpg"
    assert calls == ["Works/60/W22084/images/W22084-0886/dimensions.json"]

    # LRU-1 memo: same volume again → no fetch, no re-read
    store.get("W22084", "I0886")
    assert store.fetch_calls == 1

    # a FRESH store over the same cache dir hits the side file, not the net
    store2 = pg.ImageListStore(str(tmp_path / "il"), fetch=None)
    assert store2.get("W22084", "I0886") == got

    # default local-cache-only store fails loudly on a missing volume
    import pytest as _pytest
    with _pytest.raises(FileNotFoundError, match="no fetcher"):
        store2.get("W99999", "I9999")


def test_cli_query_csv_export(sf_tag, tmp_path):
    """`query --csv` is the standalone CSV-export path (extractList.php /
    exportlocations.php analog): writes a readable CSV with the query's
    rows."""
    import json
    import subprocess
    import sys

    import pandas as pd

    out_dir = str(tmp_path / "pivot_csv")
    out = subprocess.run(
        [sys.executable, "-m", "rkts_migration_ray", "query", "--name",
         "kg_role_pivot", "--sf", sf_tag, "--num-cpus", "2",
         "--out", out_dir, "--csv"],
        capture_output=True, text=True, cwd=REPO_ROOT)
    assert out.returncode == 0, out.stderr[-500:]
    res = json.loads(out.stdout.strip().splitlines()[-1])
    import glob as _glob
    files = _glob.glob(out_dir + "/*.csv") or _glob.glob(out_dir + "/*")
    got = pd.concat([pd.read_csv(f) for f in files], ignore_index=True)
    assert len(got) == res["rows"] > 0


def test_cli_ingest_subcommand(sf_tag, tmp_path):
    """The generational ingest services from the CLI surface: dedup ingest
    (band index) then embed ingest (IVF), each initializing its own index,
    probing a batch and folding it in; --compact folds generations to 1.
    SUBPROCESS like the other CLI tests — main() owns a Ray session and
    calls ray.shutdown() on exit, so driving it in-process would kill the
    pytest session cluster and every later test would auto-init a 32-CPU
    one (this exact mistake exposed the fan-out-64 latency sentinel bug)."""
    import json
    import subprocess
    import sys

    import pandas as pd

    bidx = str(tmp_path / "bandidx")
    out = str(tmp_path / "matches.parquet")
    r1 = subprocess.run(
        [sys.executable, "-m", "rkts_migration_ray", "ingest", "--kind",
         "dedup", "--sf", sf_tag, "--index", bidx, "--gen", "batch1",
         "--out", out, "--num-cpus", "2"],
        capture_output=True, text=True, cwd=REPO_ROOT)
    assert r1.returncode == 0, r1.stderr[-500:]
    rep = json.loads(r1.stdout.strip().splitlines()[-1])
    assert rep["generations"] == 2 and rep["matches"] > 0
    got = pd.read_parquet(out)
    assert list(got.columns) == ["delta_id", "base_id", "jaccard"]
    assert len(got) == rep["matches"]

    vidx = str(tmp_path / "ivfidx")
    r2 = subprocess.run(
        [sys.executable, "-m", "rkts_migration_ray", "ingest", "--kind",
         "embed", "--sf", sf_tag, "--index", vidx, "--gen", "batch1",
         "--compact", "--num-cpus", "2"],
        capture_output=True, text=True, cwd=REPO_ROOT)
    assert r2.returncode == 0, r2.stderr[-500:]
    rep = json.loads(r2.stdout.strip().splitlines()[-1])
    assert rep["matches"] > 0 and rep["generations"] == 1  # compacted

    # a second embed ingest after --compact probes the compacted index as it
    # is: gen-base must not come back (compaction deleted it and its _DONE)
    out2 = str(tmp_path / "matches2.parquet")
    r3 = subprocess.run(
        [sys.executable, "-m", "rkts_migration_ray", "ingest", "--kind",
         "embed", "--sf", sf_tag, "--index", vidx, "--gen", "batch2",
         "--delta-rem", "5", "--out", out2, "--num-cpus", "2"],
        capture_output=True, text=True, cwd=REPO_ROOT)
    assert r3.returncode == 0, r3.stderr[-500:]
    rep = json.loads(r3.stdout.strip().splitlines()[-1])
    assert rep["generations"] == 2 and rep["matches"] > 0

    import glob as _glob

    import numpy as np
    import pyarrow.parquet as pq

    from rkts_migration_ray.pipelines import docs

    gens = [os.path.basename(g) for g in docs._ivf_generations(vidx)]
    assert gens == ["gen-batch2", "gen-compact000"]
    # the index batch2 was probed against: every vec_id exactly once
    probed = np.concatenate([
        pq.read_table(f, columns=["vec_id"])["vec_id"].to_numpy()
        for f in _glob.glob(os.path.join(vidx, "gen-compact000", "**",
                                         "*.parquet"), recursive=True)])
    t = pq.read_table(os.path.join(docs.resolve_sf_dir(sf_tag),
                                   "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    ids = np.asarray(t["vec_id"], dtype=np.int64)
    assert len(probed) == len(np.unique(probed))
    # base (vec_id % 10 != 0) plus batch1 (vec_id % 10 == 0): all vectors
    assert set(probed.tolist()) == set(ids.tolist())

    # full probe => exact: id-for-id equal to numpy float64 brute force
    E = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    En = E / np.linalg.norm(E, axis=1, keepdims=True)
    delta = ids % 10 == 5
    S = En[delta] @ En.T
    want = {int(d): list(ids[np.lexsort((ids, -S[i]))[:docs.KNN_K]])
            for i, d in enumerate(ids[delta])}
    got2 = pd.read_parquet(out2)
    assert len(got2) == rep["matches"]
    assert {int(d): list(g.sort_values("rank")["base_id"])
            for d, g in got2.groupby("delta_id")} == want


def _cli_at_one_and_two_slots(args, out_of, forbidden):
    """Run the CLI ``args`` (with ``out_of(cpus)`` as its output path) in a
    subprocess at 1 and at 2 CPU slots, each within a 240 s deadline. No
    execution plan it logs may name a ``forbidden`` operator. Returns the
    two output frames."""
    import subprocess
    import sys

    import pandas as pd

    got = {}
    for cpus in (1, 2):
        r = subprocess.run(
            [sys.executable, "-m", "rkts_migration_ray", *args(cpus),
             "--out", out_of(cpus), "--num-cpus", str(cpus)],
            capture_output=True, text=True, cwd=REPO_ROOT, timeout=240)
        assert r.returncode == 0, r.stderr[-500:]
        plans = [ln for ln in r.stderr.splitlines()
                 if "Execution plan of Dataset" in ln]
        assert plans and not any(forbidden in p for p in plans), plans
        got[cpus] = pd.read_parquet(out_of(cpus))
    return got[1], got[2]


def _ingest_at_one_and_two_slots(kind, sf_tag, tmp_path):
    return _cli_at_one_and_two_slots(
        lambda cpus: ["ingest", "--kind", kind, "--sf", sf_tag, "--index",
                      str(tmp_path / f"idx{cpus}"), "--gen", "batch1"],
        lambda cpus: str(tmp_path / f"matches{cpus}.parquet"),
        "AllToAllOperator")


def test_cli_dedup_ingest_same_matches_at_one_and_two_slots(sf_tag, tmp_path):
    """`ingest --kind dedup` finishes at 1 and at 2 CPU slots within a
    deadline, no execution plan it logs has an all-to-all (shuffle)
    operator, and both runs report the same matches. SUBPROCESS, so the
    session's cluster is left alone."""
    one, two = _ingest_at_one_and_two_slots("dedup", sf_tag, tmp_path)
    assert len(one) > 0 and one.equals(two)


def test_cli_embed_ingest_same_matches_at_one_and_two_slots(sf_tag, tmp_path):
    """`ingest --kind embed` finishes at 1 and at 2 CPU slots within a
    deadline, with no all-to-all operator in any plan, and both runs
    report the same top-k frame."""
    one, two = _ingest_at_one_and_two_slots("embed", sf_tag, tmp_path)
    assert len(one) > 0 and one.equals(two)
    assert list(one.columns) == ["delta_id", "base_id", "rank", "cos_sim"]


def test_cli_minhash_pairs_same_at_one_and_two_slots(sf_tag, tmp_path):
    """`query --name dedup_minhash_pairs` (minhash_pairs_ds) finishes at 1
    and at 2 CPU slots within a deadline, starts no actor pool, and both
    runs give the same verified pairs."""
    one, two = _cli_at_one_and_two_slots(
        lambda cpus: ["query", "--name", "dedup_minhash_pairs", "--sf",
                      sf_tag],
        lambda cpus: str(tmp_path / f"pairs{cpus}.parquet"),
        "ActorPoolMapOperator")
    assert len(one) > 0 and one.equals(two)


def test_cli_query_list_starts_no_ray(monkeypatch, capsys):
    """`query --list` only reads the registry: it must answer without
    starting (or stopping) a Ray session."""
    import ray

    from rkts_migration_ray.__main__ import main

    def no_init(*args, **kwargs):
        raise AssertionError("query --list started Ray")

    monkeypatch.setattr(ray, "init", no_init)
    monkeypatch.setattr(ray, "shutdown", lambda *args, **kwargs: None)
    assert main(["query", "--list"]) == 0
    names = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "kg_triples" in names


def test_cli_run_same_graph_at_one_and_two_slots(tmp_path):
    """The CLI `run` finishes at 1 and at 2 CPU slots within a deadline, as
    ONE Ray Data execution with no actor pool and no repartition, without
    Ray's "different schema" warning, and both runs write the same
    graph: identical per-bucket manifests whose rows add up to the DuckDB
    kg_triples twin. A `--format nt` run at 1 slot is one execution too,
    with one part.nt per bucket and the same (rows, checksum) per bucket.
    SUBPROCESS, so the session's cluster is left alone."""
    import subprocess
    import sys

    import duckdb

    from rkts_migration_ray import fixtures, oracles
    from rkts_migration_ray.state import manifest as mf

    fixtures.ensure_fixture("sf0.001")
    got = {}
    for cpus, fmt in ((1, "parquet"), (2, "parquet"), (1, "nt")):
        out = str(tmp_path / f"graph{cpus}{fmt}")
        r = subprocess.run(
            [sys.executable, "-m", "rkts_migration_ray", "run", "--sf",
             "sf0.001", "--out", out, "--no-resume", "--num-cpus", str(cpus),
             "--format", fmt],
            capture_output=True, text=True, cwd=REPO_ROOT, timeout=240)
        assert r.returncode == 0, r.stderr[-500:]
        plans = [ln for ln in r.stderr.splitlines()
                 if "Execution plan of Dataset" in ln]
        assert len(plans) == 1, plans
        assert "ActorPoolMapOperator" not in plans[0]
        assert "Repartition" not in plans[0]
        assert not [ln for ln in r.stderr.splitlines()
                    if "different schema" in ln]
        done = mf.committed_buckets(out)
        assert all(sorted(os.listdir(os.path.join(out, f"bucket={b:05d}")))
                   == [f"part.{fmt}"] for b in done)
        got[cpus, fmt] = {b: (m["rows"], m["checksum"])
                          for b, m in done.items()}
    ref = got[1, "parquet"]
    assert len(ref) == 64 and ref == got[2, "parquet"] == got[1, "nt"]
    sql = oracles.kg_oracle_sql("sf0.001")["kg_triples"]
    (want,) = duckdb.sql(f"SELECT count(*) FROM ({sql})").fetchone()
    assert sum(rows for rows, _ in ref.values()) == want
