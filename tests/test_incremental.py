"""Incremental graph updates: LSM generations + graph tombstones.

The reference has no incremental story (rerun everything, utils.php:844-850
rewrites every TTL); at 100 TB a re-migrated slice must not force a
full-graph rewrite. Covers: base write -> update -> reconciled read ->
crash-window invisibility -> compaction -> post-compaction update (the
generation counter must respect the compacted_gen watermark)."""

import os

import pandas as pd
import pyarrow as pa
import pytest

from rkts_migration_ray.config import TRIPLE_COLUMNS
from rkts_migration_ray.pipelines import materialize
from rkts_migration_ray.state import manifest as mf


def _table(rows) -> pa.Table:
    """rows: list of (subj, pred, obj, graph) -> triple table."""
    n = len(rows)
    return pa.table({
        "subj": pa.array([r[0] for r in rows], pa.string()),
        "pred": pa.array([r[1] for r in rows], pa.string()),
        "obj": pa.array([r[2] for r in rows], pa.string()),
        "obj_lang": pa.array([""] * n, pa.string()),
        "obj_dt": pa.array([""] * n, pa.string()),
        "graph": pa.array([r[3] for r in rows], pa.string()),
    })


def _triples(rows):
    """rows: list of (subj, pred, obj, graph) -> triple Dataset."""
    import ray.data as rd

    return rd.from_arrow(_table(rows))


def _rows(graph, version, n=20):
    return [(f"s:{graph}{i}", "p:v", f"o:{version}{i}", f"g:{graph}")
            for i in range(n)]


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(TRIPLE_COLUMNS)
    return df[cols].sort_values(cols, kind="stable").reset_index(drop=True)


def _read(out_dir) -> pd.DataFrame:
    return _norm(materialize.read_graph(out_dir).to_pandas())


@pytest.fixture()
def base_graph(tmp_path):
    out = str(tmp_path / "g")
    base = _rows("A", "v1") + _rows("B", "v1") + _rows("C", "v1")
    materialize.write_graph(_triples(base), out, n_buckets=8, resume=False)
    return out, base


def test_update_and_reconciled_read(base_graph):
    out, base = base_graph
    # replace graph B (fewer rows, new values) and add graph D
    delta = _rows("B", "v2", n=15) + _rows("D", "v1")
    meta = materialize.update_graph(out, _triples(delta),
                                    superseded_graphs=["g:B"], n_buckets=8)
    assert meta["gen"] == 1 and meta["superseded"] == ["g:B"]
    want = [r for r in base if r[3] != "g:B"] + delta
    pd.testing.assert_frame_equal(_read(out), _norm(
        _triples(want).to_pandas()))
    # unreconciled read still sees every live file's rows (base B included)
    raw = materialize.read_graph(out, reconcile=False).to_pandas()
    assert len(raw) == len(base) + len(delta)


def test_crashed_update_is_invisible_and_rerun_idempotent(base_graph):
    out, base = base_graph
    delta = _rows("B", "v2")
    # crash AFTER fragments, BEFORE the gen-file rename (the commit point):
    # simulate by writing fragments under the gen-1 tag with no gen json
    materialize.write_fragments(_triples(delta), out, 8, "g0001")
    assert _read(out).equals(_norm(_triples(base).to_pandas()))
    assert materialize.generation_files(out) == []
    # rerunning the update rewrites the identical content-addressed files
    def frags():
        return {f for b in os.listdir(out)
                if os.path.isdir(os.path.join(out, b))
                for f in os.listdir(os.path.join(out, b))
                if f.startswith("frag-g0001")}

    frag_names = frags()
    materialize.update_graph(out, _triples(delta), ["g:B"], n_buckets=8)
    frag_names2 = frags()
    assert frag_names2 == frag_names  # no orphans, no duplicates
    want = [r for r in base if r[3] != "g:B"] + delta
    pd.testing.assert_frame_equal(_read(out), _norm(_triples(want).to_pandas()))


def test_compact_graph_folds_generations(base_graph):
    out, base = base_graph
    delta = _rows("B", "v2", n=15) + _rows("D", "v1")
    materialize.update_graph(out, _triples(delta), ["g:B"], n_buckets=8)
    want = _read(out)  # reconciled view before compaction
    summary = materialize.compact_graph(out)
    assert not summary.empty and not summary["skipped"].any()
    # generation layer fully retired; watermark advanced on every bucket
    assert materialize.generation_files(out) == []
    assert not os.listdir(os.path.join(out, materialize.GEN_DIRNAME))
    done = mf.committed_buckets(out)
    assert all(int(m["compacted_gen"]) == 1 for m in done.values())
    assert all(len(m["files"]) == 1 for m in done.values())
    # physical rows == reconciled rows (tombstoned rows dropped on disk)
    assert int(summary["rows"].sum()) == len(want)
    pd.testing.assert_frame_equal(_read(out), want)


def test_update_after_compaction_respects_watermark(base_graph):
    """A generation number must never be reused after compaction retires the
    gen files: compacted_gen watermarks would make reused-gen fragments read
    as already-folded (silently invisible rows)."""
    out, base = base_graph
    materialize.update_graph(out, _triples(_rows("D", "v1")), [], n_buckets=8)
    materialize.compact_graph(out)
    # second update: supersede D with D', pure-delete C
    delta2 = _rows("D", "v2", n=10)
    meta2 = materialize.update_graph(out, _triples(delta2),
                                     ["g:D", "g:C"], n_buckets=8)
    assert meta2["gen"] == 2  # NOT 1 — hwm includes compacted_gen
    want = [r for r in base if r[3] not in ("g:B", "g:C", "g:D")] \
        + _rows("B", "v1") + delta2
    pd.testing.assert_frame_equal(_read(out), _norm(_triples(want).to_pandas()))
    # second compaction folds gen 2; read unchanged
    pre = _read(out)
    materialize.compact_graph(out)
    done = mf.committed_buckets(out)
    assert all(int(m["compacted_gen"]) == 2 for m in done.values())
    pd.testing.assert_frame_equal(_read(out), pre)


def test_kg_incremental_equals_from_scratch(sf_tag):
    """End-to-end: base write + slice re-migration (tombstones + delta)
    reconciles to exactly the from-scratch graph."""
    from rkts_migration_ray.pipelines import kg

    inc = _norm(kg.kg_incremental_ds(sf_tag).to_pandas())
    full = _norm(kg.kg_triples_ds(sf_tag).to_pandas())
    pd.testing.assert_frame_equal(inc, full)


def test_update_refuses_bad_base(tmp_path, base_graph):
    with pytest.raises(ValueError, match="no committed base graph"):
        materialize.update_graph(str(tmp_path / "empty"),
                                 _triples(_rows("A", "v1")), [], n_buckets=8)
    out, _ = base_graph
    with pytest.raises(ValueError, match="n_buckets"):
        materialize.update_graph(out, _triples(_rows("A", "v1")), [],
                                 n_buckets=4)


def _replay(base_rows, gens) -> list[tuple]:
    """The tombstone rule replayed with pyarrow, apart from the engine: a
    row written at generation g (the base is 0) is live iff no generation
    newer than g supersedes its graph."""
    import pyarrow.compute as pc

    live = []
    for g, rows in [(0, base_rows)] + [(g, d) for g, d, _ in gens]:
        dead = pa.array([gr for h, _, sup in gens if h > g for gr in sup],
                        pa.string())
        t = _table(rows)
        live += t.filter(pc.invert(pc.is_in(t["graph"], value_set=dead))) \
            .select(TRIPLE_COLUMNS).to_pylist()
    return sorted(tuple(r.values()) for r in live)


def test_read_graph_over_generations_matches_tombstone_replay(tmp_path):
    """The reconciled read over a base plus three generations: graph B is
    superseded by generations 1 and 3, generation 2 deletes A and adds a
    graph in a bucket the base never wrote. The read equals a pyarrow
    replay of the tombstone rule as a multiset, before and after
    compaction. It is one read operator (no Union, no all-to-all), and its
    schema is known without executing it."""
    from rkts_migration_ray.functions.arrowutils import hash_bucket

    out = str(tmp_path / "g")
    n_buckets = 64
    base = _rows("A", "v1", n=4) + _rows("B", "v1", n=4) + _rows("C", "v1", n=4)
    materialize.write_graph(_triples(base), out, n_buckets=n_buckets,
                            resume=False)
    written = set(mf.committed_buckets(out))
    fresh = next(f"s:E{i}" for i in range(1000) if int(hash_bucket(
        pa.array([f"s:E{i}"]), n_buckets)[0].as_py()) not in written)
    gens = [(1, _rows("B", "v2", n=3) + _rows("D", "v1", n=3), ["g:B"]),
            (2, [(fresh, "p:v", "o:new", "g:E")], ["g:A"]),
            (3, _rows("B", "v3", n=2), ["g:B"])]
    for g, delta, sup in gens:
        meta = materialize.update_graph(out, _triples(delta), sup,
                                        n_buckets=n_buckets)
        assert meta["gen"] == g
    assert any(int(f["bucket"]) not in written
               for f in materialize.generation_files(out)[1]["fragments"])

    want = _replay(base, gens)
    ds = materialize.read_graph(out)
    assert ds.schema(fetch_if_missing=False).names == TRIPLE_COLUMNS
    ops, stack = [], [ds._plan._logical_plan.dag]
    while stack:
        op = stack.pop()
        ops.append(op.name)
        stack.extend(op.input_dependencies)
    assert ops == ["ReadReconciledGraph"], ops
    assert _multiset(ds) == want
    assert {r[5] for r in want} == {"g:B", "g:C", "g:D", "g:E"}

    materialize.compact_graph(out)
    assert _multiset(materialize.read_graph(out)) == want


def _multiset(ds) -> list[tuple]:
    return sorted(tuple(r) for r in ds.to_pandas()[TRIPLE_COLUMNS]
                  .itertuples(index=False))


def test_read_graph_unreconciled_and_empty(tmp_path, base_graph):
    """reconcile=False reads every live file's rows, tombstoned ones too;
    a missing or empty graph directory reads as zero typed rows."""
    out, base = base_graph
    delta = _rows("B", "v2", n=15)
    materialize.update_graph(out, _triples(delta), ["g:B"], n_buckets=8)
    raw = _norm(materialize.read_graph(out, reconcile=False).to_pandas())
    pd.testing.assert_frame_equal(raw, _norm(_table(base + delta).to_pandas()))

    os.makedirs(tmp_path / "empty")
    for d in (tmp_path / "empty", tmp_path / "missing"):
        ds = materialize.read_graph(str(d))
        assert ds.count() == 0
        schema = ds.schema().base_schema
        assert schema.names == TRIPLE_COLUMNS
        assert all(f.type == pa.string() for f in schema)
