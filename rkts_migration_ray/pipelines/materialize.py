"""Graph materialization: bucket-partitioned graph files + manifests + resume.

W1/W2/W5 analog (SURVEY.md §2.2): instead of one Turtle file per subject
(utils.php:844-850) and one global append-only N-Quads fd (utils.php:833-840),
the triple Dataset is hash-partitioned by subject into ``n_buckets``
directories-of-one-file (Parquet edge tables or N-Triples text), each
committed atomically with a lineage manifest (state/manifest.py).
Blank-node renaming (Nquads.php:182-200) is unnecessary: minted ids are
already deterministic content hashes (M7).

Two writers: ``write_graph`` is the one full-graph sink, and
``write_fragments`` the map-only delta writer of ``update_graph``
(generations, below).

Resume semantics: a rerun lists committed buckets first and drops their rows
right after the bucket-assignment map — upstream stages still stream, but no
committed partition is rewritten.

Performance notes: the bucket write is one range-partitioned sort on the
bucket id (arrowutils.range_exchange: ``min(n_buckets, 2 × CPU)`` evenly
spaced bucket ranges fixed up front, so no sampling pass and no
coalescing repartition before it); each write task gets whole buckets and
writes them one after another, in **pyarrow** batch format — pandas boxing
of millions of string rows cost ~4.5s/task at sf0.1/32cpu; Arrow-native
slicing + write is ~10× cheaper.
"""

from __future__ import annotations

import os
import re
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..config import TRIPLE_COLUMNS
from ..functions.arrowutils import cluster_cpus, hash_bucket, range_exchange
from ..state import manifest as mf


def add_bucket(batch: pa.Table, n_buckets: int) -> pa.Table:
    return batch.append_column("bucket", hash_bucket(batch["subj"], n_buckets))


WRITTEN_SCHEMA = pa.schema([("bucket", pa.int32()), ("rows", pa.int64()),
                            ("checksum", pa.string()), ("skipped", pa.bool_())])

GRAPH_FORMATS = ("parquet", "nt")
_GRAPH_ENTRY = re.compile(r"bucket=\d+(\.manifest\.json)?")


def _clear_graph(out_dir: str) -> None:
    """Remove the graph state this module owns in ``out_dir`` (bucket dirs,
    bucket manifests, the generation dir) and nothing else."""
    if not os.path.isdir(out_dir):
        return
    for name in os.listdir(out_dir):
        p = os.path.join(out_dir, name)
        if name == GEN_DIRNAME or _GRAPH_ENTRY.fullmatch(name):
            if os.path.isdir(p):
                shutil.rmtree(p)
            else:
                os.remove(p)


def _assert_bucket_count(done: dict, n_buckets: int, what: str) -> None:
    """Committed buckets were hashed into ``n_buckets`` ranges, or rows would
    land in the wrong bucket (skipped on resume, or read twice after an
    update). Manifests from before the recorded count are judged by id."""
    counts = {m.get("n_buckets") for m in done.values()} - {None, n_buckets}
    if counts or (done and max(done) >= n_buckets):
        raise ValueError(
            f"{what}: the committed buckets (highest id {max(done)}, recorded "
            f"counts {sorted(counts)}) do not fit n_buckets={n_buckets}; use "
            f"the graph's bucket count, or resume=False (full rewrite)")


def _commit_bucket_file(out_dir: str, bucket: int, fname: str, write,
                       meta: dict, keep=frozenset()) -> None:
    """Write ``bucket=K/<fname>`` through ``write(tmp_path)`` and a rename,
    commit ``meta`` (listing that one file) as the bucket's manifest, then
    delete the bucket's other data files: nothing lists them now, except the
    generation fragments named in ``keep``. Until the manifest is renamed
    in, the bucket reads as before."""
    rel = os.path.join(f"bucket={bucket:05d}", fname)
    final = os.path.join(out_dir, rel)
    os.makedirs(os.path.dirname(final), exist_ok=True)
    tmp = f"{final}.tmp.{os.getpid()}"
    write(tmp)
    os.rename(tmp, final)
    mf.write_manifest(out_dir, bucket, dict(meta, file=rel, files=[rel]))
    bdir = os.path.dirname(final)
    for name in os.listdir(bdir):
        if (name != fname and name.startswith(("frag-", "part"))
                and os.path.join(bdir, name) not in keep):
            os.remove(os.path.join(bdir, name))


def write_graph(triples_ds, out_dir: str, n_buckets: int = 64,
                resume: bool = True, source: str = "",
                fmt: str = "parquet") -> pd.DataFrame:
    """Write a triple Dataset → out_dir/bucket=K/part.<fmt> + manifests, as
    ONE execution: a range exchange on the subject-hash bucket, each task
    writing whole buckets. ``fmt="parquet"`` writes edge tables;
    ``fmt="nt"`` writes N-Triples text (W2), whose manifest records the
    file size (text has no footer to verify) and whose checksum is taken
    over the triple rows, so it equals the Parquet twin's.

    ``resume=True`` skips the verified committed buckets (refusing another
    source, hash function, bucket count or format); ``resume=False`` first
    removes the graph state in ``out_dir``: buckets, manifests, generations.
    Returns the (small) manifest summary DataFrame."""
    if fmt not in GRAPH_FORMATS:
        raise ValueError(f"fmt must be one of {GRAPH_FORMATS}, not {fmt!r}")
    keep: frozenset = frozenset()
    if resume:
        done, gens = graph_state(out_dir)
        mf.assert_source_matches(done, source)
        _assert_bucket_count(done, n_buckets, "resume refused")
        other = sorted(b for b, m in done.items()
                       if not m["file"].endswith(f".{fmt}"))
        if other:
            raise ValueError(f"resume refused: buckets {other} are not "
                             f"{fmt!r} files; use resume=False")
        keep = frozenset(os.path.join(out_dir, fr["file"])
                         for g in gens for fr in g["fragments"])
    else:
        done = {}
        _clear_graph(out_dir)
    os.makedirs(out_dir, exist_ok=True)

    ds = triples_ds.map_batches(lambda t: add_bucket(t, n_buckets),
                                batch_format="pyarrow")
    if done:
        done_arr = pa.array(sorted(done), pa.int32())

        def drop_done(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            return t.filter(pc.invert(pc.is_in(t["bucket"], value_set=done_arr)))

        ds = ds.map_batches(drop_done, batch_format="pyarrow")

    def write_bucket(t: pa.Table) -> dict:
        bucket = int(t["bucket"][0].as_py())
        table = t.select(TRIPLE_COLUMNS)
        meta = {"bucket": bucket, "rows": int(table.num_rows),
                "checksum": mf.content_checksum(table, TRIPLE_COLUMNS),
                "source": source, "n_buckets": n_buckets}
        if fmt == "nt":
            from ..functions.ntriples import lines_table

            payload = ("\n".join(lines_table(table)["line"].to_pylist())
                       + "\n").encode()
            meta["sizes"] = [len(payload)]

            def write(p):
                with open(p, "wb") as f:
                    f.write(payload)
        else:
            def write(p):
                pq.write_table(table, p)
        _commit_bucket_file(out_dir, bucket, f"part.{fmt}", write, meta, keep)
        return {"bucket": bucket, "rows": meta["rows"],
                "checksum": meta["checksum"], "skipped": False}

    def write_buckets(t: pa.Table) -> pa.Table:
        # the block holds whole buckets, sorted by bucket
        b = t["bucket"].to_numpy()
        cuts = [0, *(np.flatnonzero(np.diff(b)) + 1).tolist(), len(b)]
        return pa.Table.from_pylist(
            [write_bucket(t.slice(lo, hi - lo)) for lo, hi in zip(cuts, cuts[1:])],
            schema=WRITTEN_SCHEMA)

    written = range_exchange(ds, "bucket", n_buckets, write_buckets,
                             WRITTEN_SCHEMA).to_pandas()
    skipped = pd.DataFrame({
        "bucket": pd.Series(list(done), dtype="int32"),
        "rows": pd.Series([m["rows"] for m in done.values()], dtype="int64"),
        "checksum": [m["checksum"] for m in done.values()],
        "skipped": [True] * len(done),
    })
    return (pd.concat([written, skipped], ignore_index=True)
            .sort_values("bucket").reset_index(drop=True))


def write_graph_streams(streams: dict, out_dir: str, n_buckets: int = 64,
                        resume: bool = True, source: str = "") -> pd.DataFrame:
    """write_graph over the union of a dict of triple streams."""
    first, *rest = streams.values()
    return write_graph(first.union(*rest) if rest else first, out_dir,
                       n_buckets, resume, source)


def write_fragments(triples_ds, out_dir: str, n_buckets: int,
                    stream_tag: str) -> pd.DataFrame:
    """Map-only fragment write of a graph delta (no shuffle): each block
    writes one content-addressed ``frag-<tag>-<checksum>.parquet`` per
    bucket it touches. Returns the small per-fragment metadata frame, which
    update_graph commits as one generation file."""
    os.makedirs(out_dir, exist_ok=True)

    def write_frags(t: pa.Table) -> pa.Table:
        t = add_bucket(t, n_buckets)
        out = {"bucket": [], "rows": [], "checksum": [], "file": []}
        buckets = t["bucket"].to_numpy()
        order = np.argsort(buckets, kind="stable")
        sorted_t = t.take(pa.array(order))
        sb = sorted_t["bucket"].to_numpy()
        edges = np.concatenate([[0], np.nonzero(np.diff(sb))[0] + 1, [len(sb)]])
        for i in range(len(edges) - 1):
            lo, hi = int(edges[i]), int(edges[i + 1])
            b = int(sb[lo])
            frag = sorted_t.slice(lo, hi - lo).select(TRIPLE_COLUMNS)
            csum = mf.content_checksum(frag, TRIPLE_COLUMNS)
            bdir = os.path.join(out_dir, f"bucket={b:05d}")
            os.makedirs(bdir, exist_ok=True)
            fname = f"frag-{stream_tag}-{csum}.parquet"
            final = os.path.join(bdir, fname)
            tmp = final + f".tmp.{os.getpid()}"
            pq.write_table(frag, tmp)
            os.rename(tmp, final)
            out["bucket"].append(b)
            out["rows"].append(hi - lo)
            out["checksum"].append(csum)
            out["file"].append(os.path.join(f"bucket={b:05d}", fname))
        return pa.table({"bucket": pa.array(out["bucket"], pa.int32()),
                         "rows": pa.array(out["rows"], pa.int64()),
                         "checksum": pa.array(out["checksum"], pa.string()),
                         "file": pa.array(out["file"], pa.string())})

    return (triples_ds.map_batches(write_frags, batch_format="pyarrow")
            .to_pandas())


def write_bucket_adjacency(out_dir: str, bucket: int) -> str:
    """Build the bucket's ADJACENCY table (north-star 'adjacency + edge
    tables'): one row per subject with its edges as a list<struct(pred, obj,
    obj_lang, obj_dt, graph)>, written as ``adjacency.parquet`` next to the
    bucket's edge file. Subject-hash bucketing guarantees every row of a
    subject is in this bucket, so the build is bucket-local (per-bucket,
    embarrassingly parallel across buckets). Atomic via tmp+rename; derived
    data, so resume just rebuilds it."""
    meta = mf.committed_buckets(out_dir).get(bucket)
    if meta is None:
        raise ValueError(f"bucket {bucket} has no committed manifest")
    files = [os.path.join(out_dir, f) for f in meta.get("files", [meta["file"]])]
    t = pa.concat_tables([pq.read_table(f) for f in files]).combine_chunks()
    # Arrow offsets build (round-2 verdict #8): the former
    # groupby(subj).apply(to_dict('records')) was per-row Python — measured
    # 72.2 s vs 1.3 s (incl. the write) on a 932k-edge bucket, with
    # byte-identical adjacency.parquet on the fixture.
    t = t.sort_by([("subj", "ascending"), ("pred", "ascending"),
                   ("obj", "ascending")])  # stable, nulls last — as before
    edge_cols = ["pred", "obj", "obj_lang", "obj_dt", "graph"]
    subj = t["subj"].combine_chunks()
    s = subj.to_numpy(zero_copy_only=False)
    change = np.flatnonzero(s[1:] != s[:-1]) + 1
    offsets = np.concatenate(([0], change, [len(s)]))
    edges = pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()),
        pa.StructArray.from_arrays(
            [pc.fill_null(t[c].combine_chunks(), "") for c in edge_cols],
            names=edge_cols))
    adj = pa.table({
        "subj": subj.take(pa.array(offsets[:-1], pa.int64())),
        "edges": edges,
    })
    bdir = os.path.join(out_dir, f"bucket={bucket:05d}")
    final = os.path.join(bdir, "adjacency.parquet")
    tmp = final + f".tmp.{os.getpid()}"
    pq.write_table(adj, tmp)
    os.rename(tmp, final)
    return final


# ---------------------------------------------------------------------------
# incremental updates: LSM-style generations + graph tombstones
#
# The reference has no incremental story (rerun everything); at 100 TB a
# re-migrated slice of conversations must NOT force a full-graph rewrite.
# Model (classic LSM): the base graph is generation 0 (the per-bucket
# manifests); each update appends content-addressed delta fragments at
# generation N plus ONE atomically-renamed commit file
# (_gen/gen-N.json) that simultaneously publishes the fragments and
# tombstones the superseded graphs. Readers reconcile: a row from a
# generation-g file is dead iff some tombstone on its graph has
# generation > g. Compaction folds generations back into the bucket
# manifests, one bucket at a time (each bucket independently crash-safe
# via a compacted_gen watermark in its manifest).
# ---------------------------------------------------------------------------

GEN_DIRNAME = "_gen"


def _gen_path(out_dir: str, gen: int) -> str:
    return os.path.join(out_dir, GEN_DIRNAME, f"gen-{gen:04d}.json")


def generation_files(out_dir: str, done: dict | None = None) -> list[dict]:
    """Committed generation files, ascending. A generation is committed iff
    its json exists (the rename IS the commit point) and every fragment it
    lists still exists — except fragments already folded into their
    bucket's manifest (compacted_gen >= gen), which compaction may have
    removed. ``done`` is the committed-bucket listing to judge that by
    (listed here when not given)."""
    import json

    gdir = os.path.join(out_dir, GEN_DIRNAME)
    if not os.path.isdir(gdir):
        return []
    if done is None:
        done = mf.committed_buckets(out_dir)
    out = []
    for name in sorted(os.listdir(gdir)):
        if not (name.startswith("gen-") and name.endswith(".json")):
            continue
        try:
            with open(os.path.join(gdir, name)) as f:
                meta = json.load(f)
        except json.JSONDecodeError:
            continue
        ok = True
        for fr in meta["fragments"]:
            cg = int(done.get(int(fr["bucket"]), {}).get("compacted_gen", 0))
            if cg >= int(meta["gen"]):
                continue  # folded into the bucket manifest already
            if not os.path.exists(os.path.join(out_dir, fr["file"])):
                ok = False
                break
        if ok:
            out.append(meta)
    return out


def graph_state(out_dir: str) -> tuple[dict, list[dict]]:
    """One listing of a graph's persisted state: (committed buckets,
    committed generation files). Each listing reads every bucket manifest
    and data-file footer, so a read or an update lists once and passes the
    snapshot on."""
    done = mf.committed_buckets(out_dir)
    return done, generation_files(out_dir, done)


def graph_tombstones(out_dir: str, gens: list[dict] | None = None) -> dict:
    """graph uri -> highest generation that superseded it (over ``gens``,
    listed here when not given)."""
    tomb: dict[str, int] = {}
    for g in (generation_files(out_dir) if gens is None else gens):
        for gr in g.get("superseded", []):
            tomb[gr] = max(tomb.get(gr, 0), int(g["gen"]))
    return tomb


def update_graph(out_dir: str, delta_triples_ds, superseded_graphs,
                 n_buckets: int = 64, source: str = "") -> dict:
    """Apply a delta (re-extracted / new conversations) to a committed
    graph WITHOUT rewriting it: ingest cost is proportional to the DELTA,
    not the corpus.

    Contract: ``delta_triples_ds`` holds every triple derived from the
    conversations being replaced or added; ``superseded_graphs`` lists the
    graph uris whose OLD triples must disappear (a graph present in both
    the base and the delta MUST be listed, or reads double-count it).
    Streams derived per-conversation (structural, mentions, conv windows)
    re-extract exactly; globally-derived streams (the entity merge) must
    be re-derived by the caller if the delta changes them.

    Mechanics: content-addressed fragment writes (map-only, same
    write_fragments path as the base graph — rerunning a crashed update
    rewrites the identical files), then ONE tmp+rename of
    _gen/gen-N.json as the single commit point publishing fragments +
    tombstones together. Before the rename, readers see the old graph
    exactly; after it, the new one — no window of loss or duplication.
    Refuses on a bucket-hash fingerprint mismatch (same silent-row-drop
    hazard as resume, state/manifest.py:82)."""
    import json

    done, gens = graph_state(out_dir)
    if not done:
        raise ValueError(f"update_graph: no committed base graph in {out_dir}")
    mf.assert_source_matches(done, "")  # hash-fp check only
    _assert_bucket_count(done, n_buckets, "update_graph")
    # next generation = 1 + the high-water mark across BOTH live gen files
    # and the buckets' compacted_gen watermarks: compaction retires gen
    # files, and reusing a retired number would make the new fragments
    # read as already-folded (invisible)
    hwm = max([int(g["gen"]) for g in gens]
              + [int(m.get("compacted_gen", 0)) for m in done.values()]
              + [0])
    gen = hwm + 1

    frag_meta = write_fragments(delta_triples_ds, out_dir, n_buckets,
                                f"g{gen:04d}")
    frags = ([] if "bucket" not in frag_meta.columns else [
        {"bucket": int(r.bucket), "file": r.file, "rows": int(r.rows),
         "checksum": r.checksum}
        for r in frag_meta.itertuples()])
    from ..functions.arrowutils import hash_fingerprint

    meta = {"gen": gen, "fragments": sorted(frags, key=lambda d: d["file"]),
            "superseded": sorted(set(superseded_graphs)),
            "n_buckets": n_buckets, "source": source,
            "hash_fp": hash_fingerprint()}
    os.makedirs(os.path.join(out_dir, GEN_DIRNAME), exist_ok=True)
    p = _gen_path(out_dir, gen)
    tmp = p + f".tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.rename(tmp, p)  # commit point
    return meta


def _live_paths_by_gen(out_dir: str, done: dict,
                       gens: list[dict]) -> dict[int, list[str]]:
    """generation -> file paths whose rows are governed by that generation
    (base/compacted bucket files govern at the bucket's compacted_gen), from
    one ``graph_state`` snapshot."""
    by_gen: dict[int, list[str]] = {}
    for b, meta in done.items():
        cg = int(meta.get("compacted_gen", 0))
        by_gen.setdefault(cg, []).extend(
            os.path.join(out_dir, f)
            for f in meta.get("files", [meta["file"]]))
    for g in gens:
        for fr in g["fragments"]:
            cg = int(done.get(int(fr["bucket"]), {}).get("compacted_gen", 0))
            if int(g["gen"]) > cg:  # not yet folded into the bucket file
                by_gen.setdefault(int(g["gen"]), []).append(
                    os.path.join(out_dir, fr["file"]))
    return {g: sorted(ps) for g, ps in by_gen.items() if ps}


def _reconciled_source(files: list[tuple[str, pa.Array]]):
    """A ``ray.data.Datasource`` over (file, dead graphs) pairs: each read
    task reads its files one at a time (``pq.read_table``, TRIPLE_COLUMNS
    only) and drops the rows whose graph is in that file's dead set, so the
    filter runs below the union of the generations and memory stays bounded
    by one file. Its schema is the first file's footer, so Ray knows it
    without running the read."""
    from ray.data.block import BlockMetadata
    from ray.data.datasource import Datasource, ReadTask

    footer = pq.read_schema(files[0][0])
    schema = pa.schema([footer.field(c) for c in TRIPLE_COLUMNS])

    def read_files(part):
        for path, dead in part:
            t = pq.read_table(path, columns=TRIPLE_COLUMNS)
            if len(dead):
                t = t.filter(pc.invert(pc.is_in(t["graph"], value_set=dead)))
            if t.num_rows:
                yield t.replace_schema_metadata(None)

    class ReconciledGraph(Datasource):
        def estimate_inmemory_data_size(self):
            return None

        def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
            n = max(1, min(len(files), parallelism))
            return [ReadTask(
                lambda part=files[i::n]: read_files(part),
                BlockMetadata(num_rows=None, size_bytes=None,
                              input_files=[p for p, _ in files[i::n]],
                              exec_stats=None),
                schema=schema) for i in range(n)]

    return ReconciledGraph()


def read_graph(out_dir: str, reconcile: bool = True):
    """Read a committed graph back as a Dataset — manifest- and
    generation-listed files only (anything else is stale garbage from an
    interrupted run). With updates present, rows are reconciled against the
    graph tombstones: a row from a generation-g file is dropped iff a
    tombstone on its graph has generation > g.

    The state (buckets, generations, tombstones) is listed once, when this
    is CALLED: a generation committed after the call is not in the
    Dataset. The read is one lazy, streaming Datasource (_reconciled_source)
    over the live files, each carrying the tombstoned graphs newer than its
    generation, in min(files, 2 × cluster CPUs) read tasks: no union, no
    shuffle, and a schema known without executing the plan."""
    import ray.data as rd

    done, gens = graph_state(out_dir)
    by_gen = _live_paths_by_gen(out_dir, done, gens)
    if not by_gen:
        return rd.from_arrow(pa.table(
            {c: pa.array([], pa.string()) for c in TRIPLE_COLUMNS}))
    tomb = graph_tombstones(out_dir, gens) if reconcile else {}
    files = []
    for g, paths in sorted(by_gen.items()):
        dead = pa.array(sorted(k for k, v in tomb.items() if v > g),
                        pa.string())
        files.extend((p, dead) for p in paths)
    return rd.read_datasource(
        _reconciled_source(files),
        override_num_blocks=min(len(files), 2 * cluster_cpus()))


def compact_graph(out_dir: str) -> pd.DataFrame:
    """Fold every generation into the per-bucket manifests: physically drop
    tombstoned rows, merge delta fragments into one file per bucket, then
    retire the generation files. Per-bucket and embarrassingly parallel
    (Ray tasks; no data touches the driver), and each bucket is
    INDEPENDENTLY crash-safe: its manifest's compacted_gen watermark makes
    readers ignore the generations it already folded, so a compaction
    interrupted halfway leaves every bucket readable and exact. The
    generation files (and the fragments they list) are deleted only once
    EVERY bucket's watermark has passed them."""
    import json

    import ray

    done, gens = graph_state(out_dir)
    if not gens:
        return pd.DataFrame(columns=["bucket", "rows", "checksum"])
    target_gen = max(int(g["gen"]) for g in gens)
    tomb = graph_tombstones(out_dir, gens)
    frag_by_bucket: dict[int, list[tuple[int, str]]] = {}
    for g in gens:
        for fr in g["fragments"]:
            frag_by_bucket.setdefault(int(fr["bucket"]), []).append(
                (int(g["gen"]), fr["file"]))
    # new conversations can land in buckets the base never wrote
    all_buckets = sorted(set(done) | set(frag_by_bucket))

    @ray.remote(num_cpus=1)
    def compact_one(b: int) -> dict:
        meta = done.get(b)
        cg = int(meta.get("compacted_gen", 0)) if meta else 0
        if cg >= target_gen:
            return {"bucket": b, "rows": int(meta["rows"]),
                    "checksum": meta["checksum"], "skipped": True}
        tiers: list[tuple[int, list[str]]] = []
        if meta:
            tiers.append((cg, [os.path.join(out_dir, f)
                               for f in meta.get("files", [meta["file"]])]))
        for gnum, f in frag_by_bucket.get(b, []):
            if gnum > cg:
                tiers.append((gnum, [os.path.join(out_dir, f)]))
        tables = []
        for gnum, paths in tiers:
            dead = pa.array([k for k, v in tomb.items() if v > gnum],
                            pa.string())
            for p in paths:
                t = pq.read_table(p)
                if len(dead):
                    t = t.filter(pc.invert(
                        pc.is_in(t["graph"], value_set=dead)))
                tables.append(t)
        merged = pa.concat_tables(tables) if tables else pa.table(
            {c: pa.array([], pa.string()) for c in TRIPLE_COLUMNS})
        new_meta = dict(meta or {"bucket": b, "source": ""},
                        rows=int(merged.num_rows),
                        checksum=mf.content_checksum(merged, TRIPLE_COLUMNS),
                        compacted_gen=target_gen)
        new_meta.pop("sizes", None)
        # the bucket's folded data files are deleted once this commits
        _commit_bucket_file(out_dir, b, f"part-c{target_gen:04d}.parquet",
                           lambda p: pq.write_table(merged, p), new_meta)
        return {"bucket": b, "rows": new_meta["rows"],
                "checksum": new_meta["checksum"], "skipped": False}

    rows = ray.get([compact_one.remote(b) for b in all_buckets])
    # every bucket passed target_gen -> the generation layer is retired
    now_done = mf.committed_buckets(out_dir)
    if all(int(now_done[b].get("compacted_gen", 0)) >= target_gen
           for b in all_buckets):
        for g in gens:
            p = _gen_path(out_dir, int(g["gen"]))
            if os.path.exists(p):
                os.remove(p)
    return (pd.DataFrame(rows).sort_values("bucket")
            .reset_index(drop=True))
