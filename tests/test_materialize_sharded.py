"""The graph writer (materialize.write_graph): resume, stale-file cleanup,
full rewrites, resume refusals, adjacency, manifest-scoped read-back."""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from rkts_migration_ray.pipelines import kg, materialize
from rkts_migration_ray.state import manifest as mf


def test_sharded_resume_and_stale_cleanup(sf_tag, tmp_path):
    out = str(tmp_path / "g")
    m1 = materialize.write_graph(kg.structural_ds(sf_tag, True), out,
                                 n_buckets=8, resume=False)
    total = int(m1["rows"].sum())
    sums = dict(zip(m1["bucket"], m1["checksum"]))
    # simulate a partial failure: drop two buckets' manifests + plant a stale frag
    for b in (1, 4):
        os.remove(mf.manifest_path(out, b))
    stale = os.path.join(out, "bucket=00001", "frag-deadbeefdeadbeef.parquet")
    open(stale, "wb").write(b"junk")
    m2 = materialize.write_graph(kg.structural_ds(sf_tag, True), out,
                                 n_buckets=8, resume=True)
    assert int(m2["rows"].sum()) == total
    assert dict(zip(m2["bucket"], m2["checksum"])) == sums
    assert set(m2[m2["skipped"]]["bucket"]) == set(m1["bucket"]) - {1, 4}
    assert not os.path.exists(stale)  # stale fragment removed at commit
    df = materialize.read_graph(out).to_pandas()
    assert len(df) == total


def test_write_bucket_adjacency(sf_tag, tmp_path):
    """Adjacency table of a bucket: one row per subject, edges list matching
    the bucket's edge rows exactly (subject-hash bucketing guarantees
    bucket-locality)."""
    import os

    import pyarrow.parquet as pq

    from rkts_migration_ray.pipelines import kg, materialize

    out = str(tmp_path / "adjgraph")
    ds = kg.structural_ds(sf_tag, include_quarantine=True)
    materialize.write_graph(ds, out, n_buckets=8, resume=False)
    committed = sorted(os.listdir(out))
    path = materialize.write_bucket_adjacency(out, 0)
    adj = pq.read_table(path)
    meta = __import__("rkts_migration_ray.state.manifest",
                      fromlist=["committed_buckets"]).committed_buckets(out)[0]
    import pyarrow as pa
    edge_rows = pa.concat_tables(
        [pq.read_table(os.path.join(out, f))
         for f in meta.get("files", [meta["file"]])])
    assert adj.num_rows == len(set(edge_rows["subj"].to_pylist()))
    assert sum(len(e) for e in adj["edges"].to_pylist()) == edge_rows.num_rows
    # spot-check one subject round-trips
    subj = adj["subj"][0].as_py()
    got = sorted((d["pred"], d["obj"]) for d in adj["edges"][0].as_py())
    want = sorted((p.as_py(), o.as_py())
                  for s, p, o in zip(edge_rows["subj"], edge_rows["pred"],
                                     edge_rows["obj"]) if s.as_py() == subj)
    assert got == want


def test_resume_refuses_different_source(sf_tag, tmp_path):
    """Resuming into an output dir committed from a DIFFERENT input must
    raise (hash buckets would silently drop the new input's rows)."""
    import pytest

    from rkts_migration_ray.pipelines import kg, materialize

    out = str(tmp_path / "srcguard")
    ds = kg.structural_ds(sf_tag, include_quarantine=True)
    materialize.write_graph(ds, out, n_buckets=4, resume=False,
                            source="/input/v1")
    with pytest.raises(ValueError, match="resume refused"):
        materialize.write_graph(ds, out, n_buckets=4, resume=True,
                                source="/input/v2")
    # same source resumes fine (all buckets skipped)
    m = materialize.write_graph(ds, out, n_buckets=4, resume=True,
                                source="/input/v1")
    assert m["skipped"].all()


def test_resume_refuses_changed_hash_function(sf_tag, tmp_path):
    """A committed manifest whose hash-function fingerprint differs from the
    current one must refuse resume (a polars upgrade changing hash(seed=0)
    would silently drop rows newly routed into committed buckets); legacy
    manifests without the fingerprint are tolerated."""
    import json
    import os

    import pytest

    from rkts_migration_ray.pipelines import kg, materialize
    from rkts_migration_ray.state import manifest as mf

    out = str(tmp_path / "fpguard")
    ds = kg.structural_ds(sf_tag, include_quarantine=True)
    materialize.write_graph(ds, out, n_buckets=4, resume=False,
                            source="/input/v1")
    names = [n for n in os.listdir(out) if n.endswith(mf.MANIFEST_SUFFIX)]
    p = os.path.join(out, sorted(names)[0])
    with open(p) as f:
        meta = json.load(f)
    assert meta["hash_fp"]  # fingerprint recorded at commit
    tampered = dict(meta, hash_fp="deadbeefdeadbeef")
    with open(p, "w") as f:
        json.dump(tampered, f)
    with pytest.raises(ValueError, match="bucket-hash function"):
        materialize.write_graph(ds, out, n_buckets=4, resume=True,
                                source="/input/v1")
    # legacy manifest (pre-fingerprint): tolerated, bucket still skipped
    legacy = {k: v for k, v in meta.items() if k != "hash_fp"}
    with open(p, "w") as f:
        json.dump(legacy, f)
    m = materialize.write_graph(ds, out, n_buckets=4, resume=True,
                                source="/input/v1")
    assert m["skipped"].all()


def test_sharded_resume_rewrites_truncated_fragment(sf_tag, tmp_path):
    """A bucket file damaged AFTER its manifest committed (truncated footer)
    must fail manifest verification on resume and be rewritten — this is the
    parquet-sink twin of the .nt truncation test."""
    out = str(tmp_path / "g")
    m1 = materialize.write_graph(kg.structural_ds(sf_tag, True), out,
                                 n_buckets=8, resume=False)
    total = int(m1["rows"].sum())
    sums = dict(zip(m1["bucket"], m1["checksum"]))
    victim = os.path.join(out, "bucket=00003", "part.parquet")
    with open(victim, "r+b") as fh:
        fh.truncate(10)
    m2 = materialize.write_graph(kg.structural_ds(sf_tag, True), out,
                                 n_buckets=8, resume=True)
    assert int(m2["rows"].sum()) == total
    assert dict(zip(m2["bucket"], m2["checksum"])) == sums
    assert 3 not in set(m2[m2["skipped"]]["bucket"])  # damaged bucket re-ran
    df = materialize.read_graph(out).to_pandas()
    assert len(df) == total


def _graph_table(n: int = 400, graphs: int = 20, version: str = "v1") -> pa.Table:
    return pa.table({
        "subj": [f"s:{i}" for i in range(n)],
        "pred": ["p:v"] * n,
        "obj": [f"o:{version}{i}" for i in range(n)],
        "obj_lang": [""] * n,
        "obj_dt": [""] * n,
        "graph": [f"g:{i % graphs}" for i in range(n)],
    })


def test_full_rewrite_and_resume_bucket_count(tmp_path):
    """resume=False replaces the whole graph: a rewrite with fewer buckets
    leaves none of the old ones, and a rewrite after an update leaves no
    generation to apply again. Files that are not graph state survive.
    resume=True refuses a graph of another bucket count, and a resumed
    bucket rewrite keeps the generation fragments an update put there."""
    import ray.data as rd

    t = _graph_table()
    out = str(tmp_path / "g")
    materialize.write_graph(rd.from_arrow(t), out, n_buckets=16, resume=False)
    with open(os.path.join(out, "notes.txt"), "w") as f:
        f.write("not graph state")
    m = materialize.write_graph(rd.from_arrow(t), out, n_buckets=4,
                                resume=False)
    assert int(m["rows"].sum()) == t.num_rows
    assert sorted(mf.committed_buckets(out)) == [0, 1, 2, 3]
    assert materialize.read_graph(out).count() == t.num_rows

    delta = _graph_table(28, graphs=1, version="v2")  # graph g:0, 28 rows
    materialize.update_graph(out, rd.from_arrow(delta), ["g:0"], n_buckets=4)
    assert materialize.read_graph(out).count() == t.num_rows - 20 + 28
    materialize.write_graph(rd.from_arrow(t), out, n_buckets=4, resume=False)
    assert materialize.generation_files(out) == []
    assert materialize.read_graph(out).count() == t.num_rows
    assert os.path.exists(os.path.join(out, "notes.txt"))

    for n in (2, 16):
        with pytest.raises(ValueError, match=f"n_buckets={n}"):
            materialize.write_graph(rd.from_arrow(t), out, n_buckets=n,
                                    resume=True)

    materialize.update_graph(out, rd.from_arrow(delta), ["g:0"], n_buckets=4)
    bucket = int(materialize.generation_files(out)[0]["fragments"][0]["bucket"])
    with open(os.path.join(out, f"bucket={bucket:05d}", "part.parquet"),
              "r+b") as fh:
        fh.truncate(10)
    m = materialize.write_graph(rd.from_arrow(t), out, n_buckets=4,
                                resume=True)
    assert not m[m["bucket"] == bucket]["skipped"].any()
    want = pa.concat_tables(
        [t.filter(pc.not_equal(t["graph"], "g:0")), delta])
    got = materialize.read_graph(out).to_pandas()
    assert sorted(map(tuple, got[t.column_names].values.tolist())) == \
        sorted(map(tuple, want.to_pandas().values.tolist()))
