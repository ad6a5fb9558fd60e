"""The flagship KG-construction DAG (SURVEY.md §3.1 re-expressed).

    read_parquet(transcripts)
      → map_batches(extract_features)        # stateless, zero-copy Arrow
      ├→ map_batches(structural_triples)     # no shuffle
      ├→ range_exchange(conv bucket) → conv_bucket_triples  # shuffle #1
      └→ explode mentions → MentionLinker tasks (broadcast gazetteer)
           ├→ mention triples               # no shuffle
           └→ entity partial-dedup → range_exchange(entity bucket)  # shuffle #2
              → merge + EntityEmitter in the same task (broadcast props)
      → union of all triple streams

Each shuffle is one range_exchange (functions/arrowutils.py): a sort on the
hash-bucket key with evenly spaced key ranges fixed up front (no
sampling pass, no repartition), then one UDF call per range of buckets.

Every UDF runs as a stateless task that reads the broadcast lookups through
``ray.put`` refs, so the whole graph is one Ray Data execution with no actor
pools (an actor pool sized past the cluster's slots waits on actors that
cannot start). Conv-keyed shuffles size their key range from the input's
row count (``conv_buckets``).

Replaces the reference's sequential two-pass driver (migrate.php:101-152) and
its cross-pass mutable globals (ST4/ST5/ST6) with explicit Dataset edges.
All minted ids are content-hashes (M7), so every stage is pure/idempotent —
retries and resume are safe by construction.
"""

from __future__ import annotations

import pyarrow.compute as pc

from ..config import DEFAULT_CONFIG, PipelineConfig
from ..functions.arrowutils import from_pandas_clean, range_exchange
from ..sources import readers
from ..stages.convgroup import (
    CONV_GROUP_COLUMNS,
    conv_bucket_triples,
    conv_buckets,
    conv_exchange,
)
from ..stages.creators import TRIPLE_SCHEMA
from ..stages.extract import (
    extract_features,
    location_triples,
    structural_and_location_triples,
    structural_triples,
)
from ..stages.linking import (
    EntityEmitter,
    MentionLinker,
    dedup_entities,
    entity_buckets,
    entity_rows,
    mention_triples,
)

TRANSCRIPT_COLUMNS = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]


def features_ds(sf_dir: str, columns: list[str] | None = None,
                include_chaploc: bool = False):
    ds = readers.read_transcripts(sf_dir, columns=columns or TRANSCRIPT_COLUMNS)
    return ds.map_batches(extract_features, batch_format="pyarrow",
                          fn_kwargs={"include_chaploc": include_chaploc},
                          zero_copy_batch=True)


LOC_OUT_COLUMNS = [
    "conv_id", "turn_idx", "kind", "valid", "section", "bvolname", "evolname",
    "bvolnum", "evolnum", "bpagenum", "bpageside", "blinenum",
    "epagenum", "epageside", "elinenum",
]


def locations_ds(sf_dir: str):
    """Parsed location structs (M3/M4): one row per turn carrying a loc marker."""

    def project(t):
        t = t.filter(pc.is_valid(t["loc_kind"]))
        cols = {"conv_id": t["conv_id"], "turn_idx": t["turn_idx"],
                "kind": t["loc_kind"], "valid": t["loc_valid"]}
        for k in ("section", "bvolname", "evolname", "bvolnum", "evolnum",
                  "bpagenum", "bpageside", "blinenum", "epagenum", "epageside",
                  "elinenum"):
            cols[k] = t["loc_" + k]
        import pyarrow as pa

        return pa.table(cols)

    return features_ds(sf_dir).map_batches(project, batch_format="pyarrow")


def creator_events_ds(sf_dir: str):
    """Creator role/event triples (tag_to_event_role,
    editionxmltottl.php:5-19 + the commented consumer :118-142). Kept OUT of
    kg_triples: the reference's consumer is dead code, so emitting these in
    the headline stream would break triple-set parity. Map-only."""
    from ..stages.creators import creator_event_triples

    return (readers.read_transcripts(sf_dir, columns=["conv_id", "turn_idx", "text"])
            .map_batches(creator_event_triples, batch_format="pyarrow",
                         zero_copy_batch=True))


def chap_locations_ds(sf_dir: str):
    """Parsed chapter-location markers (M3 bampo/chapter dialect,
    utils.php:707-746): one row per chl{}/chls{} marker with the parsed
    grammar fields, cidx ordinal, dialect kind, validity and the
    (non-chemdo-only) whitelist violation. Map-only over the transcript
    read — no shuffle."""
    from ..stages.extract import chap_loc_rows

    return (readers.read_transcripts(sf_dir, columns=["conv_id", "turn_idx", "text"])
            .map_batches(chap_loc_rows, batch_format="pyarrow",
                         zero_copy_batch=True))


def structural_ds(sf_dir: str, include_quarantine: bool = False):
    ds = features_ds(sf_dir, include_chaploc=include_quarantine).map_batches(
        structural_triples, batch_format="pyarrow", zero_copy_batch=True)
    if not include_quarantine:
        ds = ds.map_batches(
            lambda t: t.filter(pc.invert(pc.equal(t["graph"], "G:quarantine"))),
            batch_format="pyarrow")
    return ds


def _conv_stage(sf_dir: str, feats, cfg: PipelineConfig):
    """Shuffle #1 (key: conv-hash bucket) + vectorized per-conv windows.
    Fan-out resolved ONCE on the driver, from the input's row count."""
    return conv_exchange(
        feats.select_columns(CONV_GROUP_COLUMNS), conv_buckets(sf_dir),
        lambda df: conv_bucket_triples(
            df, one_title_per_lang=cfg.one_title_per_lang,
            migrate_chapters=cfg.migrate_chapters),
        TRIPLE_SCHEMA)


def conv_triples_ds(sf_dir: str, cfg: PipelineConfig = DEFAULT_CONFIG):
    return _conv_stage(sf_dir, features_ds(sf_dir), cfg)


def reproduction_triples_ds(sf_dir: str, cfg: PipelineConfig = DEFAULT_CONFIG):
    """Reproduction instances (editions_to_ttl, editionxmltottl.php:408-416).

    bdrc target: one tr:Instance node per (root instance, reproduction id) —
    the once-per-RID loop at :410-412 — each carrying tr:script /
    tr:printMethod from config (:392-393) and rdfs:seeAlso back to the
    canonical resource (:395). Non-bdrc target: the canonical resource emits
    one rdfs:seeAlso per reproduction id instead (:397-399).

    Scale shape: distinct conv ids via per-batch unique → hash-bucket groupby
    (bounded fan-out, vectorized per-bucket dedup; never one group per conv),
    then a map-only cross-product with the config's reproduction list —
    fan-out × len(reproductions), no further shuffle."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..config import (
        P_PRINT_METHOD,
        P_SCRIPT,
        P_SEE_ALSO,
        P_TYPE,
        T_INSTANCE,
    )
    from ..functions.arrowutils import from_pandas_clean, hash_bucket, scale_buckets

    nb = scale_buckets(floor=16, per_cpu=2)
    rids = list(cfg.reproductions)
    bdrc = cfg.target == "bdrc"

    def partial(t: pa.Table) -> pa.Table:
        convs = pc.unique(t["conv_id"])
        return pa.table({"conv_id": convs, "bucket": hash_bucket(convs, nb)})

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        convs = df["conv_id"].drop_duplicates().to_numpy(dtype=object)
        conv_rep = np.repeat(convs, len(rids))
        rid_rep = np.tile(np.array(rids, dtype=object), len(convs))
        inst = np.char.add(np.char.add(np.char.add(
            "I:", conv_rep.astype(str)), "."), rid_rep.astype(str)).astype(object)
        canon = np.char.add("C:", conv_rep.astype(str)).astype(object)
        graph = np.char.add("G:", conv_rep.astype(str)).astype(object)
        if bdrc:
            blocks = [
                {"subj": inst, "pred": P_TYPE, "obj": T_INSTANCE},
                {"subj": inst, "pred": P_SCRIPT, "obj": cfg.script},
                {"subj": inst, "pred": P_PRINT_METHOD, "obj": cfg.print_method},
                {"subj": inst, "pred": P_SEE_ALSO, "obj": canon},
            ]
        else:
            blocks = [{"subj": canon, "pred": P_SEE_ALSO, "obj": inst}]
        frames = []
        for b in blocks:
            n = len(conv_rep)
            frames.append(pd.DataFrame({
                "subj": b["subj"],
                "pred": np.repeat(b["pred"], n).astype(object),
                "obj": (b["obj"] if isinstance(b["obj"], np.ndarray)
                        else np.repeat(b["obj"], n).astype(object)),
                "obj_lang": np.repeat("", n).astype(object),
                "obj_dt": np.repeat("", n).astype(object),
                "graph": graph,
            }))
        return pd.concat(frames, ignore_index=True)

    return (readers.read_transcripts(sf_dir, columns=["conv_id"])
            .map_batches(partial, batch_format="pyarrow")
            .groupby("bucket")
            .map_groups(emit, batch_format="pandas"))


ROLES = ["user", "assistant", "tool", "system"]


def role_pivot_ds(sf_dir: str):
    """Grouped pivot (A6 analog, ≈ the correspondence pivot of
    extractList.php:25-62): per conversation, turn counts spread across one
    column per role. Bucketed shuffle + vectorized crosstab per bucket."""
    import pandas as pd
    import pyarrow as pa

    schema = pa.schema([("conv_id", pa.string())]
                       + [("n_" + r, pa.int64()) for r in ROLES]
                       + [("n_total", pa.int64())])

    def pivot(df: pd.DataFrame) -> pd.DataFrame:
        ct = pd.crosstab(df["conv_id"], df["role"])
        out = pd.DataFrame({"conv_id": ct.index.to_numpy(dtype=object)})
        for r in ROLES:
            out["n_" + r] = (ct[r].to_numpy("int64") if r in ct.columns
                             else 0)
        out["n_total"] = sum(out["n_" + r] for r in ROLES)
        return out

    return conv_exchange(
        readers.read_transcripts(sf_dir, columns=["conv_id", "role"]),
        conv_buckets(sf_dir), pivot, schema)


def conv_flatten_ds(sf_dir: str):
    """Conversation → one SFT-style training document: turns sorted by
    turn_idx (the north-rule's per-turn-text-equality-under-stable-turn-
    ordering invariant, made the product), each rendered as
    ``role[tool]: text`` and newline-joined. This is the transcript analog
    of the reference's per-resource serialization (utils.php:844-850: all of
    a resource's triples gathered into one file) — here all of a
    conversation's turns gathered into one training row.

    Scale shape: conv_id-bucketed shuffle (same fan-out as conv windows),
    then a vectorized per-bucket sort + groupby join — no driver
    materialization; ties beyond turn_idx are broken by (role, text) so the
    output is deterministic even against a malformed duplicate-turn input."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..functions.arrowutils import from_pandas_clean

    schema = pa.schema([("conv_id", pa.string()), ("n_turns", pa.int64()),
                        ("n_chars", pa.int64()), ("doc", pa.string())])

    def flatten(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["conv_id", "turn_idx", "role", "text"],
                            kind="stable")
        role = df["role"].fillna("").astype(str)
        tool = df["tool"].fillna("").astype(str)
        text = df["text"].fillna("").astype(str)
        line = np.where(tool.to_numpy() != "",
                        role + "[" + tool + "]: " + text,
                        role + ": " + text)
        g = (pd.DataFrame({"conv_id": df["conv_id"], "line": line})
             .groupby("conv_id", sort=False)["line"])
        agg = g.agg(n_turns="size", doc="\n".join).reset_index()
        return from_pandas_clean(pd.DataFrame({
            "conv_id": agg["conv_id"],
            "n_turns": agg["n_turns"].astype("int64"),
            "n_chars": agg["doc"].str.len().astype("int64"),
            "doc": agg["doc"]}), schema=schema)

    return conv_exchange(
        readers.read_transcripts(
            sf_dir, columns=["conv_id", "turn_idx", "role", "text", "tool"]),
        conv_buckets(sf_dir), flatten, schema)


SFT_CONTEXT_TURNS = 4


def sft_examples_ds(sf_dir: str, k: int = SFT_CONTEXT_TURNS):
    """SFT example extraction: one training example per ASSISTANT turn —
    the up-to-``k`` preceding turns rendered ``role: text`` as the context,
    the assistant text as the target. The per-turn-text-equality-under-
    stable-turn-ordering invariant again, now as the supervised-pair
    product.

    Scale shape: the same conv-bucketed shuffle as every per-conversation
    stage; inside a bucket each conversation is sorted once and its sliding
    windows joined locally (window size is a constant, conversations are
    bounded — no cross-conv state, no second shuffle)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..functions.arrowutils import from_pandas_clean

    schema = pa.schema([("conv_id", pa.string()), ("turn_idx", pa.int64()),
                        ("n_context_turns", pa.int64()),
                        ("context", pa.string()), ("target", pa.string())])

    def examples(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["conv_id", "turn_idx", "role", "text"],
                            kind="stable")
        out = {"conv_id": [], "turn_idx": [], "n_context_turns": [],
               "context": [], "target": []}
        for conv, g in df.groupby("conv_id", sort=False):
            # fillna like conv_flatten: a null role must render '' (and the
            # SQL twin COALESCEs), never the Python literal 'None'
            roles = g["role"].fillna("").to_numpy(dtype=object)
            texts = g["text"].fillna("").to_numpy(dtype=object)
            idxs = g["turn_idx"].to_numpy()
            lines = [f"{r}: {t}" for r, t in zip(roles, texts)]
            for i in np.nonzero(roles == "assistant")[0]:
                lo = max(0, i - k)
                out["conv_id"].append(conv)
                out["turn_idx"].append(int(idxs[i]))
                out["n_context_turns"].append(i - lo)
                out["context"].append("\n".join(lines[lo:i]))
                out["target"].append(texts[i])
        return from_pandas_clean(pd.DataFrame({
            "conv_id": pd.Series(out["conv_id"], dtype="object"),
            "turn_idx": pd.Series(out["turn_idx"], dtype="int64"),
            "n_context_turns": pd.Series(out["n_context_turns"],
                                         dtype="int64"),
            "context": pd.Series(out["context"], dtype="object"),
            "target": pd.Series(out["target"], dtype="object")}),
            schema=schema)

    return conv_exchange(
        readers.read_transcripts(
            sf_dir, columns=["conv_id", "turn_idx", "role", "text"]),
        conv_buckets(sf_dir), examples, schema)


def cooccurrence_ds(sf_dir: str, linked=None):
    """Entity co-occurrence graph: for every entity pair, the number of
    conversations that mention both — the relation-DISCOVERY primitive a KG
    pipeline runs after linking (candidate edges for a later typed-relation
    pass; the reference's analog is the cross-record KTMapping parallels).

    ``linked`` lets a caller that already ran (and checkpointed) the linker
    feed its (conv_id, entity_uri) stream in instead of running the
    explode+link stage a second time (kg_pmi_ds does this).

    Scale shape: (conv, entity) rows are made DISTINCT per batch before the
    conv-bucket shuffle (combiner), pairs are generated per conversation —
    quadratic only in one conversation's distinct gazetteer entities, which
    is bounded by conversation length, never by corpus size — and pre-summed
    inside each conv bucket; the final per-pair sum co-groups on a PAIR-HASH
    bucket so a globally hot pair spreads across tasks no worse than any
    other key."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..functions.arrowutils import hash_bucket, scale_buckets

    npair_buckets = scale_buckets(32, 2)
    pair_schema = pa.schema([("e1", pa.string()), ("e2", pa.string()),
                             ("n", pa.int64()), ("pbucket", pa.int32())])

    def batch_distinct(t: pa.Table) -> pa.Table:
        return t.group_by(["conv_id", "entity_uri"]).aggregate([])

    def conv_pairs(df: pd.DataFrame) -> pa.Table:
        d = df[["conv_id", "entity_uri"]].drop_duplicates()
        es1, es2 = [], []
        for _, g in d.groupby("conv_id", sort=False):
            ents = np.sort(g["entity_uri"].to_numpy(dtype=object))
            if len(ents) < 2:
                continue
            i, j = np.triu_indices(len(ents), 1)
            es1.append(ents[i])
            es2.append(ents[j])
        if not es1:
            return pair_schema.empty_table()
        pr = pd.DataFrame({"e1": np.concatenate(es1),
                           "e2": np.concatenate(es2)})
        agg = pr.groupby(["e1", "e2"], sort=False).size().reset_index(name="n")
        key = pa.array((agg["e1"] + "\x1f" + agg["e2"]).to_numpy(dtype=object),
                       pa.string())
        return pa.table({"e1": pa.array(agg["e1"], pa.string()),
                         "e2": pa.array(agg["e2"], pa.string()),
                         "n": pa.array(agg["n"].to_numpy("int64")),
                         "pbucket": hash_bucket(key, npair_buckets)})

    def pair_sum(df: pd.DataFrame) -> pd.DataFrame:
        agg = df.groupby(["e1", "e2"], sort=False)["n"].sum().reset_index()
        return agg.rename(columns={"n": "n_convs"})

    if linked is None:
        linked = linked_mentions_ds(sf_dir)
    pairs = conv_exchange(
        linked.select_columns(["conv_id", "entity_uri"])
        .map_batches(batch_distinct, batch_format="pyarrow"),
        conv_buckets(sf_dir), conv_pairs, pair_schema)
    return range_exchange(
        pairs, "pbucket", npair_buckets, pair_sum,
        pa.schema([("e1", pa.string()), ("e2", pa.string()),
                   ("n_convs", pa.int64())]), "pandas")


def location_nodes_ds(sf_dir: str):
    """ContentLocation facet nodes + typed edges (M12 analog) — no shuffle."""
    return features_ds(sf_dir).map_batches(location_triples,
                                           batch_format="pyarrow",
                                           zero_copy_batch=True)


def _broadcast_lookups(sf_dir: str):
    import ray

    gaz_ref = ray.put(readers.load_gazetteer(sf_dir))
    alias_ref = ray.put(readers.load_alias_closure(sf_dir))
    props_ref = ray.put(readers.load_props(sf_dir))
    return gaz_ref, alias_ref, props_ref


def _linked(feats, gaz_ref, alias_ref):
    """Fused explode+link (exact per-turn dedup inside the linker call — a
    turn's mention rows never straddle a batch boundary). Stateless tasks,
    as in _entity_emit_fn: each builds its MentionLinker from the broadcast
    refs, so linking has no actor pool to start."""

    def link(batch):
        return MentionLinker(gaz_ref=gaz_ref, alias_ref=alias_ref,
                             explode=True)(batch)

    return (feats.select_columns(["conv_id", "turn_idx", "mentions"])
            .map_batches(link, batch_format="pyarrow"))


def linked_mentions_ds(sf_dir: str):
    gaz_ref, alias_ref, _ = _broadcast_lookups(sf_dir)
    return _linked(features_ds(sf_dir), gaz_ref, alias_ref)


def mention_triples_ds(sf_dir: str):
    return linked_mentions_ds(sf_dir).map_batches(
        mention_triples, batch_format="pyarrow")


def entity_triples_ds(sf_dir: str, include_quarantine: bool = True,
                      cfg: PipelineConfig = DEFAULT_CONFIG):
    """Canonicalization merge: distinct entities (combiner + groupby) then
    enrichment edges from the broadcast props map (J3/J4 + ST5→groupby)."""
    gaz_ref, alias_ref, props_ref = _broadcast_lookups(sf_dir)
    out = _entities(_linked(features_ds(sf_dir), gaz_ref, alias_ref),
                    props_ref, cfg)
    if not include_quarantine:
        out = out.map_batches(
            lambda t: t.filter(pc.invert(pc.equal(t["graph"], "G:quarantine"))),
            batch_format="pyarrow")
    return out


def _entity_emit_fn(props_ref, cfg: PipelineConfig = DEFAULT_CONFIG):
    """Stateless-task wrapper around EntityEmitter (ray.get of the broadcast
    props dict is ~ms per task; plasma caches the object per node)."""

    def emit(batch):
        return EntityEmitter(props_ref=props_ref, cfg=cfg)(batch)

    return emit


def _entities(linked, props_ref, cfg: PipelineConfig):
    """Shuffle #2: the combiner's entity rows co-grouped on their entity-hash
    bucket, merged to one row per entity and emitted in the same task."""
    nb = entity_buckets()
    emit = _entity_emit_fn(props_ref, cfg)
    return range_exchange(
        linked.map_batches(entity_rows, fn_kwargs={"n_buckets": nb},
                           batch_format="pyarrow"),
        "ebucket", nb, lambda df: emit(from_pandas_clean(dedup_entities(df))),
        TRIPLE_SCHEMA, "pandas")


_CKPT_ROOT: str | None = None


def _session_ckpt_root() -> str:
    """Lazily create ONE checkpoint scratch dir per driver process; each
    call gets a fresh subdirectory, all removed at exit."""
    global _CKPT_ROOT
    import atexit
    import os
    import shutil
    import tempfile

    if _CKPT_ROOT is None or not os.path.isdir(_CKPT_ROOT):
        _CKPT_ROOT = tempfile.mkdtemp(prefix="graft_ckpt_")
        atexit.register(shutil.rmtree, _CKPT_ROOT, ignore_errors=True)
    return tempfile.mkdtemp(dir=_CKPT_ROOT)


def _checkpoint(ds, path: str):
    """Materialize a stage boundary as Parquet and re-read it.

    This is the engine's DAG-edge mechanism (SURVEY.md §2.9/§3.4): a stage
    output consumed by several downstream branches is written once and
    streamed back per branch instead of recomputing the subtree per consumer
    (and it doubles as a coarse checkpoint for resume)."""
    import ray.data as rd

    ds.write_parquet(path)
    return rd.read_parquet(path)


def kg_bundle(sf_dir: str, cfg: PipelineConfig = DEFAULT_CONFIG) -> dict:
    """All triple streams, as lazy Datasets; every UDF runs as a stateless
    task (no actor pools), so any mix of streams can share one execution
    at any slot count. kg_triples_ds unions them, and materialize.write_graph
    writes that union as one execution.

    Shared subtrees (extraction; explode+link) are recomputed per consuming
    branch: they are stateless+deterministic, fully parallel, and measurably
    cheaper than a write-barrier + re-read (a checkpoint serializes the DAG
    and adds an extra executor round)."""
    # only the structloc branch consumes the chap-loc quarantine columns;
    # the conv/mention branches skip those extra regex passes
    feats = features_ds(sf_dir)
    feats_cl = features_ds(sf_dir, include_chaploc=True)

    # fused structural+ContentLocation stream: ONE read+extract pass instead
    # of two parallel branches each recomputing the subtree
    structloc = feats_cl.map_batches(structural_and_location_triples,
                                     batch_format="pyarrow", zero_copy_batch=True)
    conv = _conv_stage(sf_dir, feats, cfg)

    gaz_ref, alias_ref, props_ref = _broadcast_lookups(sf_dir)
    linked = _linked(feats, gaz_ref, alias_ref)
    return {"structloc": structloc, "conv": conv,
            "mentions": linked.map_batches(mention_triples,
                                           batch_format="pyarrow"),
            "entities": _entities(linked, props_ref, cfg)}


def quarantine_ds(sf_dir: str):
    """The error channel (W6): invalid_loc / invalid_volname /
    invalid_chap_loc / self-loop rows. Chapter-location quarantine rides the
    structloc stream (emitted by structural_triples), so no extra scan."""

    def only_q(t):
        return t.filter(pc.equal(t["graph"], "G:quarantine"))

    b = kg_bundle(sf_dir)
    return (b["structloc"].map_batches(only_q, batch_format="pyarrow")
            .union(b["entities"].map_batches(only_q, batch_format="pyarrow")))


def kg_triples_ds(sf_dir: str, cfg: PipelineConfig = DEFAULT_CONFIG):
    """Full graph: structural ∪ locations ∪ conv-window ∪ mentions ∪
    entities (plus the quarantine graph, separated only by its graph name).

    One lazy Dataset, so a consumer runs the whole graph as ONE execution:
    no checkpoint barrier and no actor pool (linking and entity emission are
    stateless tasks over the broadcast refs)."""
    b = kg_bundle(sf_dir, cfg)
    return b["structloc"].union(b["conv"], b["mentions"], b["entities"])


def image_numbers_ds(sf_dir: str, concurrency: int = 4):
    """Folio→image-number resolution over the parsed locations stream
    (utils.php:351-404 wired as an actor pool with the ST3 LRU-1 volume
    cache; see stages/imgnum.py). Side-less (simple-dialect) rows return the
    folio unchanged; volumes with pagination side files resolve through the
    get_json_full index; the rest take the arithmetic path with first-folio
    overrides."""
    import pyarrow as pa

    from .. import fixtures
    from ..stages.imgnum import ImageNumberResolver

    fixtures.ensure_fixture(sf_dir)

    def prep(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.fill_null(t["valid"], False),
                    pc.and_(pc.is_valid(t["bpagenum"]),
                            pc.is_valid(t["bvolnum"])))
        t = t.filter(m)
        return pa.table({
            "conv_id": t["conv_id"], "turn_idx": t["turn_idx"],
            "bvolnum": t["bvolnum"], "folio": t["bpagenum"],
            "side": t["bpageside"],
        })

    return (locations_ds(sf_dir)
            .map_batches(prep, batch_format="pyarrow")
            .map_batches(ImageNumberResolver, batch_format="pyarrow",
                         fn_constructor_kwargs={
                             "pag_path": fixtures.aux_path(sf_dir, "pagination"),
                             "img_path": fixtures.aux_path(sf_dir, "image_list")},
                         concurrency=(1, concurrency)))


def ntriples_lines_ds(sf_dir: str, cfg: PipelineConfig = DEFAULT_CONFIG):
    """Full graph serialized to N-Triples lines (W2 analog: the global.nt
    stream of utils.php:833-840, escaping per Nquads.php:52-124). Map-only on
    top of kg_triples_ds; the text SINK (one .nt file + manifest per bucket)
    is materialize.write_graph(..., fmt="nt")."""
    from ..functions.ntriples import lines_table

    return kg_triples_ds(sf_dir, cfg).map_batches(
        lines_table, batch_format="pyarrow", zero_copy_batch=True)


def turtle_lines_ds(sf_dir: str, cfg: PipelineConfig = DEFAULT_CONFIG):
    """Full graph serialized to Turtle subject blocks — the reference's
    actual per-resource output format (editionxmltottl.php/kernelxmltottl.php
    write .ttl per record; the engine emits one canonical predicate-grouped
    line per subject):

        <subj> <p1> o1 , o2 ; <p2> o3 .

    Canonical ordering (predicate term ascending; object terms ascending
    within a predicate; duplicate triples preserved) makes the serialization
    DETERMINISTIC and byte-comparable — the SQL twin rebuilds the same line
    with nested ORDER BY string_agg. Term grammar (escaping, @lang/^^dt,
    OBJ_URI_PREDS resource test) is shared verbatim with the N-Triples
    writer (functions/ntriples.term_columns).

    Scale shape: per-batch term formatting is vectorized Arrow (zero-copy);
    the only shuffle is the subject groupby (subject groups are bounded by
    a resource's own edge count); per-group assembly is one pandas sort +
    join, proportional to the group."""
    import pandas as pd
    import pyarrow as pa

    from ..functions.ntriples import term_columns

    def term_rows(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        if t.num_rows == 0:
            return pa.table({"subj": pa.array([], pa.string()),
                             "pred_t": pa.array([], pa.string()),
                             "obj_t": pa.array([], pa.string())})
        subj_t, pred_t, obj_t = term_columns(t)
        # group key is the formatted subject term (1:1 with subj)
        return pa.table({"subj": subj_t, "pred_t": pred_t, "obj_t": obj_t})

    turtle_schema = pa.schema([("subj", pa.string()), ("line", pa.string())])

    def assemble(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["pred_t", "obj_t"], kind="stable")
        parts = [f"{p} {' , '.join(g['obj_t'])}"
                 for p, g in df.groupby("pred_t", sort=False)]
        subj = df["subj"].iloc[0]
        return pa.Table.from_pydict(
            {"subj": [subj], "line": [f"{subj} {' ; '.join(parts)} ."]},
            schema=turtle_schema)

    return (kg_triples_ds(sf_dir, cfg)
            .map_batches(term_rows, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby("subj").map_groups(assemble, batch_format="pandas"))


def nquads_lines_ds(sf_dir: str, cfg: PipelineConfig = DEFAULT_CONFIG):
    """Full graph serialized to N-Quads lines (the reference's named-graph
    output: Nquads.php:192-197 if-branch appends the graph term): same
    map-only serializer with with_graph=True."""
    from ..functions.ntriples import lines_table

    return kg_triples_ds(sf_dir, cfg).map_batches(
        lambda t: lines_table(t, with_graph=True),
        batch_format="pyarrow", zero_copy_batch=True)


def kg_incremental_ds(sf_dir: str, cfg: PipelineConfig = DEFAULT_CONFIG,
                      n_buckets: int = 16):
    """Incremental re-migration, driven end-to-end (the reference's only
    update story is a full rerun — utils.php:844-850 rewrites every TTL;
    at 100 TB a re-migrated slice must cost O(delta), not O(corpus)).

    Scenario: the full graph is committed as the base (materialize
    manifests = generation 0); a deterministic ~20% slice of graphs
    (md5(graph) % 5 == 0 — hash-library-independent, so the slice is
    stable across polars versions) is then 're-migrated': its triples are
    re-derived and applied via materialize.update_graph, which appends
    delta fragments plus ONE atomically-renamed generation file that
    tombstones the superseded graphs. The reconciled read_graph must
    equal the from-scratch graph EXACTLY (idempotent re-migration) —
    checked against the kg_triples oracle."""
    import hashlib

    import pyarrow as pa

    from . import materialize

    out = _session_ckpt_root()  # fresh subdir per invocation, reaped at exit
    materialize.write_graph(kg_triples_ds(sf_dir, cfg), out,
                            n_buckets=n_buckets, resume=False)
    base = materialize.read_graph(out)
    # the tombstone list is per-graph metadata, not data: small by design
    sl = sorted(g for g in base.unique("graph")
                if int(hashlib.md5(g.encode()).hexdigest(), 16) % 5 == 0)
    sl_arr = pa.array(sl, pa.string())
    # 're-extraction' of the slice: identical content, sourced from the
    # committed base (cheaper than a second kg_triples execution; content
    # is byte-identical either way because minted ids are deterministic)
    delta = materialize.read_graph(out).map_batches(
        lambda t: t.filter(pc.is_in(t["graph"], value_set=sl_arr)),
        batch_format="pyarrow")
    materialize.update_graph(out, delta, sl, n_buckets=n_buckets)
    return materialize.read_graph(out)


def kg_adjacency_ds(sf_dir: str, cfg: PipelineConfig = DEFAULT_CONFIG):
    """Adjacency view of the graph: one row per SUBJECT with its edge count
    and a deterministic digest of its sorted edge list (the scalar query/
    oracle surface of the adjacency-table sink,
    materialize.write_bucket_adjacency — the north-star's 'adjacency + edge
    tables'). Subjects are grouped via the same subject-hash bucketing the
    writer uses (all rows of a subject land in one bucket, so the per-bucket
    pandas groupby is exact and no global sort is needed)."""
    import hashlib

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..functions.arrowutils import hash_bucket, scale_buckets

    nb = scale_buckets(floor=64, per_cpu=2)
    US, RS = "\x1f", "\x1e"

    def prep(t: pa.Table) -> pa.Table:
        cols = [pc.fill_null(t[c], "") for c in
                ("pred", "obj", "obj_lang", "obj_dt", "graph")]
        edge = pc.binary_join_element_wise(*cols, US)
        return pa.table({"abucket": hash_bucket(t["subj"].combine_chunks(), nb),
                         "subj": t["subj"], "edge": edge})

    def adjacency(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.sort_values(["subj", "edge"], kind="stable")
             .groupby("subj", sort=False)["edge"])
        agg = g.agg(n_edges="size", joined=RS.join).reset_index()
        return pd.DataFrame({
            "subj": agg["subj"],
            "n_edges": agg["n_edges"].astype("int64"),
            "edges_md5": [hashlib.md5(s.encode()).hexdigest()
                          for s in agg["joined"]],
        })

    return (kg_triples_ds(sf_dir, cfg)
            .map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("abucket")
            .map_groups(adjacency, batch_format="pandas"))


def kg_pred_stats_ds(sf_dir: str, cfg: PipelineConfig = DEFAULT_CONFIG):
    """Per-predicate triple counts — the schema-profile primitive over the
    emitted graph (what a downstream consumer checks before loading).

    Scale shape: each batch ships its PARTIAL per-predicate counts (bounded
    by the predicate vocabulary, a few dozen rows per block, never the
    triple count), so the groupby-sum shuffle is trivially small."""
    import numpy as np
    import pyarrow as pa

    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        pred = np.asarray(t["pred"], dtype=object).astype(str)
        p, c = np.unique(pred, return_counts=True)
        return pa.table({"pred": pa.array(p, pa.string()),
                         "n_triples": pa.array(c.astype(np.int64))})

    return (kg_triples_ds(sf_dir, cfg)
            .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("pred")
            .aggregate(Sum("n_triples", alias_name="n_triples")))


def kg_pred_cardinality_ds(sf_dir: str, cfg: PipelineConfig = DEFAULT_CONFIG,
                           triples=None):
    """Per-predicate cardinality audit: triple count, distinct subjects,
    distinct objects, max triples per subject, and the derived
    is-functional flag (max fan-out 1) — the schema-constraint profile a KG
    consumer checks before assuming a predicate is single-valued (the
    reference's analog is the one-title-per-lang and duplicate-expression
    policies, kernelxmltottl.php:5-34, enforced per record at emit time).

    EXACT distincts, one pass over the triple stream and ONE wide shuffle:
    each batch emits its distinct (pred, side, key) partials (side 0 =
    subject, 1 = object) with counts, the groupby(pred, side, key) sums
    them (key-spread — a hot predicate's pairs scatter across the
    keyspace), and the per-predicate rollup is map-side combined down to
    one row per (pred, block) before the final tiny groupby(pred)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Max, Sum

    from ..functions.arrowutils import from_pandas_clean

    def pair_partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({"pred": np.asarray(t["pred"], dtype=object),
                           "subj": np.asarray(t["subj"], dtype=object),
                           "obj": np.asarray(t["obj"], dtype=object)})
        s = (df.groupby(["pred", "subj"], as_index=False).size()
             .rename(columns={"subj": "key"}))
        s["side"] = np.int64(0)
        o = (df.groupby(["pred", "obj"], as_index=False).size()
             .rename(columns={"obj": "key"}))
        o["side"] = np.int64(1)
        out = pd.concat([s, o], ignore_index=True)
        return from_pandas_clean(pd.DataFrame({
            "pred": out["pred"], "side": out["side"], "key": out["key"],
            "c": out["size"].astype("int64")}))

    if triples is None:
        triples = kg_triples_ds(sf_dir, cfg)
    pairs = (triples
             .map_batches(pair_partial, batch_format="pyarrow",
                          zero_copy_batch=True)
             .groupby(["pred", "side", "key"])
             .aggregate(Sum("c", alias_name="c")))

    def rollup_partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        sub = df[df["side"] == 0]
        obj = df[df["side"] == 1]
        g = sub.groupby("pred")["c"].agg(n_triples="sum", n_subjects="size",
                                         max_per_subject="max")
        go = obj.groupby("pred")["c"].agg(n_objects="size")
        out = g.join(go, how="outer").fillna(0).reset_index()
        return from_pandas_clean(pd.DataFrame({
            "pred": out["pred"],
            "n_triples": out["n_triples"].astype("int64"),
            "n_subjects": out["n_subjects"].astype("int64"),
            "n_objects": out["n_objects"].astype("int64"),
            "max_per_subject": out["max_per_subject"].astype("int64")}))

    agg = (pairs.map_batches(rollup_partial, batch_format="pyarrow")
           .groupby("pred")
           .aggregate(Sum("n_triples", alias_name="n_triples"),
                      Sum("n_subjects", alias_name="n_subjects"),
                      Sum("n_objects", alias_name="n_objects"),
                      Max("max_per_subject", alias_name="max_per_subject")))

    def finish(t: pa.Table) -> pa.Table:
        return t.append_column(
            "is_functional",
            pc.cast(pc.equal(t["max_per_subject"], 1), pa.int64()))

    return agg.map_batches(finish, batch_format="pyarrow")


def kg_degrees_ds(sf_dir: str, cfg: PipelineConfig = DEFAULT_CONFIG):
    """Graph degree table: per node, out-degree (rows with the node as
    subject) and in-degree (rows with the node as a RESOURCE object — the
    OBJ_URI_PREDS predicates; literals don't create nodes). Two partial
    counts per batch enter one groupby — the degree-distribution primitive
    of graph analytics over the emitted triple set."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ray.data.aggregate import Sum

    from ..functions.ntriples import OBJ_URI_PREDS

    uri_preds = pa.array(sorted(OBJ_URI_PREDS), pa.string())

    def partial(t: pa.Table) -> pa.Table:
        subj = np.asarray(t["subj"], dtype=object)
        s_nodes, s_counts = np.unique(subj.astype(str), return_counts=True)
        is_uri = np.asarray(pc.is_in(t["pred"].combine_chunks(),
                                     value_set=uri_preds))
        obj = np.asarray(t["obj"], dtype=object)[is_uri]
        o_nodes, o_counts = (np.unique(obj.astype(str), return_counts=True)
                             if len(obj) else (np.array([], object),
                                               np.array([], np.int64)))
        return pa.table({
            "node": pa.array(np.concatenate([s_nodes, o_nodes]), pa.string()),
            "out_deg": pa.array(np.concatenate(
                [s_counts, np.zeros(len(o_nodes))]).astype(np.int64)),
            "in_deg": pa.array(np.concatenate(
                [np.zeros(len(s_nodes)), o_counts]).astype(np.int64)),
        })

    return (kg_triples_ds(sf_dir, cfg)
            .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("node")
            .aggregate(Sum("out_deg", alias_name="out_deg"),
                       Sum("in_deg", alias_name="in_deg")))


def kg_degree_histogram_ds(sf_dir: str,
                           cfg: PipelineConfig = DEFAULT_CONFIG):
    """Degree-distribution histogram over the emitted graph: (total degree
    → node count) — the one-glance skew profile (power-law tail = the hub
    entities every shuffle in this engine salts or buckets around).

    Scale shape: rides kg_degrees (its groupby is the only wide step);
    each batch of the degree table collapses to (degree, n) partials —
    bounded by the batch's distinct-degree count — before a tiny
    groupby-sum over the degree vocabulary."""
    import numpy as np
    import pyarrow as pa
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        tot = pc.add(pc.cast(t["out_deg"], pa.int64()),
                     pc.cast(t["in_deg"], pa.int64()))
        d, c = np.unique(np.asarray(tot), return_counts=True)
        return pa.table({"degree": pa.array(d.astype(np.int64)),
                         "n_nodes": pa.array(c.astype(np.int64))})

    return (kg_degrees_ds(sf_dir, cfg)
            .map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby("degree")
            .aggregate(Sum("n_nodes", alias_name="n_nodes")))


KCORE_K = 4
KCORE_MAX_ITERS = 24   # must not exceed the oracle's unrolled peel rounds


def kg_kcore_ds(sf_dir: str, k: int = KCORE_K,
                max_iters: int = KCORE_MAX_ITERS,
                cfg: PipelineConfig = DEFAULT_CONFIG):
    """k-core decomposition of the undirected resource graph (distinct
    subj—obj URI edges): iteratively peel nodes with fewer than ``k``
    living neighbors until a fixpoint; output every core member with its
    degree INSIDE the core — the densest-substructure filter used to
    separate structurally-embedded entities from peripheral ones (and the
    classic iterative-peeling workload beyond one-shot aggregates).

    Scale shape: DISTINCT undirected edges are derived once (in-batch
    lo/hi canonicalization → salted exact distinct) and materialized with
    a hash bucket per endpoint. Each peel round is TWO tagged co-groups:
    (1) edges meet the alive set on the SOURCE bucket — every edge whose
    source still lives forwards one vote to its target; (2) votes meet
    the alive set on the TARGET bucket — an in-bucket count per living
    target yields its degree among living neighbors — then deg >= k
    filters the next alive set. Payload per round: one row per live edge
    + one per node; the alive vector is materialized per round (bounded
    lineage). Convergence is a driver-side SCALAR — peeling is monotone
    (alive only shrinks), so an unchanged COUNT is an unchanged SET.
    Exhausting max_iters RAISES (the SQL twin unrolls exactly
    KCORE_MAX_ITERS peels, so a silently-unconverged result could
    diverge from it; fixture peel depth is 7)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..functions.arrowutils import hash_bucket, scale_buckets
    from ..functions.ntriples import OBJ_URI_PREDS

    nb = scale_buckets(floor=16, per_cpu=2)
    uri_preds = pa.array(sorted(OBJ_URI_PREDS), pa.string())

    def pair_rows(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_in(t["pred"].combine_chunks(),
                                value_set=uri_preds),
                       pc.not_equal(t["subj"], t["obj"]))
        t = t.filter(keep)
        s = np.asarray(t["subj"], dtype=object).astype(str)
        o = np.asarray(t["obj"], dtype=object).astype(str)
        fwd = s < o
        df = pd.DataFrame({"lo": np.where(fwd, s, o),
                           "hi": np.where(fwd, o, s)})
        df = df.drop_duplicates()
        return pa.table({"lo": pa.array(df["lo"], pa.string()),
                         "hi": pa.array(df["hi"], pa.string())})

    from ray.data.aggregate import Count

    # exact distinct pairs via the vectorized sort-aggregate (a per-key
    # map_groups here would loop Python once per distinct edge)
    import os as _os

    ckpt = _session_ckpt_root()
    pairs = (kg_triples_ds(sf_dir, cfg)
             .map_batches(pair_rows, batch_format="pyarrow",
                          zero_copy_batch=True)
             .groupby(["lo", "hi"]).aggregate(Count())
             .select_columns(["lo", "hi"]))

    def sym(t: pa.Table) -> pa.Table:
        lo = pc.cast(t["lo"].combine_chunks(), pa.string())
        hi = pc.cast(t["hi"].combine_chunks(), pa.string())
        src = pa.concat_arrays([lo, hi])
        dst = pa.concat_arrays([hi, lo])
        return pa.table({"kb": hash_bucket(src, nb), "src": src, "dst": dst})

    # parquet checkpoint (not .materialize()): each round's plan references
    # edges AND the previous alive vector — with in-memory materialize the
    # embedded logical plans nest and grow exponentially across rounds
    # (observed as 4× wall growth per round then a driver stack overflow);
    # a write-and-re-read boundary makes every round's plan flat
    edges = _checkpoint(pairs.map_batches(sym, batch_format="pyarrow"),
                        _os.path.join(ckpt, "kcore_edges"))

    def e_tag(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({"kb": t["kb"], "tag": pa.array(np.zeros(n, np.int8)),
                         "key": t["src"], "dst": t["dst"]})

    def a_tag_src(t: pa.Table) -> pa.Table:
        node = t["node"].combine_chunks()
        n = t.num_rows
        return pa.table({"kb": hash_bucket(node, nb),
                         "tag": pa.array(np.ones(n, np.int8)),
                         "key": node, "dst": pa.nulls(n, pa.string())})

    def fwd_votes(df: pd.DataFrame) -> pa.Table:
        living = set(df.loc[df["tag"] == 1, "key"])
        e = df.loc[df["tag"] == 0]
        m = e[e["key"].isin(living)]
        dst = pa.array(m["dst"].to_numpy(dtype=object), pa.string())
        return pa.table({"kb": hash_bucket(dst, nb),
                         "tag": pa.array(np.zeros(len(m), np.int8)),
                         "key": dst})

    def count_bucket(df: pd.DataFrame) -> pd.DataFrame:
        living = set(df.loc[df["tag"] == 1, "key"])
        v = df.loc[df["tag"] == 0, "key"]
        c = v[v.isin(living)].value_counts()
        return pd.DataFrame({"node": c.index.astype(str),
                             "deg_in_core": pd.Series(c.to_numpy(),
                                                      dtype="int64")})

    def all_dst_votes(t: pa.Table) -> pa.Table:
        dst = t["dst"].combine_chunks()
        return pa.table({"kb": hash_bucket(dst, nb),
                         "tag": pa.array(np.zeros(t.num_rows, np.int8)),
                         "key": dst})

    def all_nodes_tag(t: pa.Table) -> pa.Table:
        node = t["src"].combine_chunks()
        return pa.table({"kb": t["kb"],
                         "tag": pa.array(np.ones(t.num_rows, np.int8)),
                         "key": node})

    alive = None   # None = every node (round 1)
    n_alive = -1
    converged = False
    for _it in range(max_iters):
        if alive is None:
            votes = edges.map_batches(all_dst_votes, batch_format="pyarrow")
            # every node is alive: its own src rows put it in the alive set
            tags = edges.map_batches(all_nodes_tag, batch_format="pyarrow")
        else:
            votes = (edges.map_batches(e_tag, batch_format="pyarrow")
                     .union(alive.map_batches(a_tag_src,
                                              batch_format="pyarrow"))
                     .groupby("kb")
                     .map_groups(fwd_votes, batch_format="pandas"))
            tags = alive.map_batches(a_tag_src, batch_format="pyarrow") \
                        .map_batches(lambda t: t.select(["kb", "tag", "key"]),
                                     batch_format="pyarrow")
        deg = (votes.union(tags)
               .groupby("kb")
               .map_groups(count_bucket, batch_format="pandas"))
        nxt = _checkpoint(
            deg.map_batches(
                lambda t: t.filter(pc.greater_equal(t["deg_in_core"], k)),
                batch_format="pyarrow"),
            _os.path.join(ckpt, f"kcore_alive_{_it}"))
        cur = nxt.count()
        if cur == n_alive:
            converged = True
            alive = nxt
            break
        n_alive = cur
        alive = nxt.map_batches(
            lambda t: pa.table({"node": t["node"]}), batch_format="pyarrow")
    if not converged:
        raise RuntimeError(
            f"kg_kcore: peeling did not reach a fixpoint within "
            f"max_iters={max_iters} rounds (the SQL twin unrolls exactly "
            f"that many peels); raise max_iters")
    return alive


PR_SCALE = 10 ** 12   # ranks as integer micro-units: exact, order-independent
PR_ITERS = 5


def kg_pagerank_ds(sf_dir: str, iters: int = PR_ITERS,
                   cfg: PipelineConfig = DEFAULT_CONFIG):
    """Fixed-iteration PageRank over the emitted resource graph (edges =
    OBJ_URI_PREDS triples, nodes = edge endpoints) — the canonical iterative
    graph-analytics op next to the connected-components machinery.

    EXACT by construction: ranks live in integer micro-units (×10^12) and
    every step is integer arithmetic — r0 = SCALE // N, per-edge
    contribution (r_src * 85) // (100 * outdeg_src), next rank =
    (15 * SCALE) // (100 * N) + Σ contributions. Integer sums are
    associative, so the distributed result is bit-equal to the SQL twin
    regardless of summation order — the trick that lets an ITERATIVE
    floating-point-native algorithm pass a hash-exact oracle gate. Dangling
    mass is dropped (spec'd identically on both sides).

    Scale shape: a matrix-vector multiply per iteration, as two vectorized
    hash-bucket co-groups — (1) ranks join edges on hash(src) (outdeg was
    attached in-bucket at setup: a bucket holds every edge of its sources),
    emit (dst, contrib); (2) contribs + a zero row per node co-group on
    hash(node), vectorized per-bucket sum. The edge set is materialized
    once with its bucket ids; each round ships one int64 per edge plus one
    per node, and the new rank vector is CHECKPOINTED to Parquet and
    re-read (_checkpoint): on this Ray version, .materialize() of a
    union-rooted plan re-executes the whole chain per downstream consumer
    (measured: per-iteration wall doubled every round, 6→42 s at
    sf0.01/8 cpus), while the parquet round-trip keeps iterations flat
    (~4.5 s) and stays distributed — the rank vector never visits the
    driver."""
    import os

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..functions.arrowutils import (from_pandas_clean, hash_bucket,
                                        scale_buckets)
    from ..functions.ntriples import OBJ_URI_PREDS

    nb = scale_buckets(floor=16, per_cpu=2)
    uri_preds = pa.array(sorted(OBJ_URI_PREDS), pa.string())

    def edge_rows(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["pred"].combine_chunks(), value_set=uri_preds)
        t = t.filter(keep)
        src = pc.cast(t["subj"].combine_chunks(), pa.string())
        dst = pc.cast(t["obj"].combine_chunks(), pa.string())
        return pa.table({"kbucket": hash_bucket(src, nb),
                         "src": src, "dst": dst})

    def add_outdeg(df: pd.DataFrame) -> pa.Table:
        # hash(src) co-location ⇒ a bucket holds EVERY edge of its sources,
        # so out-degree is an in-bucket transform, not a separate join
        od = df.groupby("src")["dst"].transform("size").astype("int64")
        return pa.table({"kbucket": pa.array(df["kbucket"].to_numpy("int32")),
                         "src": pa.array(df["src"], pa.string()),
                         "dst": pa.array(df["dst"], pa.string()),
                         "outdeg": pa.array(od.to_numpy("int64"))})

    edges = (kg_triples_ds(sf_dir, cfg)
             .map_batches(edge_rows, batch_format="pyarrow",
                          zero_copy_batch=True)
             .groupby("kbucket")
             .map_groups(add_outdeg, batch_format="pandas")
             .materialize())

    def node_rows(t: pa.Table) -> pa.Table:
        both = pa.concat_arrays([t["src"].combine_chunks(),
                                 t["dst"].combine_chunks()])
        both = pc.unique(both)
        return pa.table({"nbucket": hash_bucket(both, nb), "node": both})

    def uniq_nodes(df: pd.DataFrame) -> pa.Table:
        u = df["node"].unique()
        return pa.table({"nbucket": pa.array(
            np.full(len(u), df["nbucket"].iloc[0], np.int32)),
            "node": pa.array(u, pa.string())})

    nodes = (edges.map_batches(node_rows, batch_format="pyarrow")
             .groupby("nbucket")
             .map_groups(uniq_nodes, batch_format="pandas")
             .materialize())
    n_nodes = nodes.count()
    if n_nodes == 0:
        import ray.data as rd

        return rd.from_arrow(pa.table({"node": pa.array([], pa.string()),
                                       "pagerank": pa.array([], pa.int64())}))
    r0 = PR_SCALE // n_nodes
    base = (15 * PR_SCALE) // (100 * n_nodes)

    ranks = nodes.map_batches(
        lambda t: pa.table({"nbucket": t["nbucket"], "node": t["node"],
                            "r": pa.array(np.full(t.num_rows, r0, np.int64))}),
        batch_format="pyarrow").materialize()
    ckpt_dir = _session_ckpt_root()

    def e_tag(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({"kbucket": t["kbucket"],
                         "tag": pa.array(np.zeros(n, np.int8)),
                         "key": t["src"], "dst": t["dst"],
                         "outdeg": t["outdeg"],
                         "r": pa.array(np.zeros(n, np.int64))})

    def r_tag(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({"kbucket": t["nbucket"],  # same hash, same nb
                         "tag": pa.array(np.ones(n, np.int8)),
                         "key": t["node"], "dst": pa.nulls(n, pa.string()),
                         "outdeg": pa.array(np.zeros(n, np.int64)),
                         "r": t["r"]})

    def contrib_bucket(df: pd.DataFrame) -> pa.Table:
        e = df[df["tag"] == 0]
        rr = df[df["tag"] == 1][["key", "r"]]
        m = e[["key", "dst", "outdeg"]].merge(rr, on="key", how="left")
        r = m["r"].fillna(0).astype("int64").to_numpy()
        c = (r * 85) // (100 * m["outdeg"].to_numpy("int64"))
        return pa.table({
            "nbucket": hash_bucket(pa.array(m["dst"], pa.string()), nb),
            "node": pa.array(m["dst"], pa.string()),
            "c": pa.array(c.astype("int64"))})

    def sum_bucket(df: pd.DataFrame) -> pa.Table:
        agg = df.groupby("node", as_index=False)["c"].sum()
        return pa.table({
            "nbucket": pa.array(np.full(len(agg), df["nbucket"].iloc[0],
                                        np.int32)),
            "node": pa.array(agg["node"], pa.string()),
            "r": pa.array(base + agg["c"].to_numpy("int64"))})

    zeros = nodes.map_batches(
        lambda t: pa.table({"nbucket": t["nbucket"], "node": t["node"],
                            "c": pa.array(np.zeros(t.num_rows, np.int64))}),
        batch_format="pyarrow").materialize()

    tagged_edges = edges.map_batches(e_tag, batch_format="pyarrow")
    for it in range(iters):
        contribs = (tagged_edges
                    .union(ranks.map_batches(r_tag, batch_format="pyarrow"))
                    .groupby("kbucket")
                    .map_groups(contrib_bucket, batch_format="pandas"))
        ranks = _checkpoint(
            contribs.union(zeros)
            .groupby("nbucket")
            .map_groups(sum_bucket, batch_format="pandas"),
            os.path.join(ckpt_dir, f"pr_iter_{it}"))

    return ranks.map_batches(
        lambda t: pa.table({"node": t["node"],
                            "pagerank": pc.cast(t["r"], pa.int64())}),
        batch_format="pyarrow")


HITS_ITERS = 3
HITS_SCALE = 10 ** 12


def kg_hits_ds(sf_dir: str, iters: int = HITS_ITERS,
               cfg: PipelineConfig = DEFAULT_CONFIG):
    """Fixed-iteration HITS (hubs & authorities) over the directed resource
    graph — the second classic eigenvector-style centrality next to
    kg_pagerank, separating nodes that POINT AT important things (hubs:
    conversations, sections) from nodes POINTED AT (authorities: entities,
    locations).

    EXACT by construction, like kg_pagerank: scores are int64, every
    half-step is sum-over-neighbors (associative) followed by one scalar
    renormalization a_i = raw_i // max(max_raw // SCALE, 1) — integer
    division by an exact global Max, which keeps magnitudes ~SCALE so an
    in-degree-10^6 hub can't overflow int64 (raw ≤ indeg·SCALE ≈ 10^18),
    while staying bit-reproducible regardless of summation order. The SQL
    twin unrolls the same iterations.

    Scale shape: the edge table is materialized ONCE with BOTH endpoint
    hash-buckets attached; each half-iteration is one tagged co-group
    (vector joins edges on the shared bucket key — no driver round-trip for
    the vector) + one bucketed sum + one scalar Max; vectors are
    checkpointed to Parquet per half-step (the kg_pagerank lesson: bounded
    lineage, distributed, never on the driver)."""
    import os

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..functions.arrowutils import hash_bucket, scale_buckets
    from ..functions.ntriples import OBJ_URI_PREDS

    nb = scale_buckets(floor=16, per_cpu=2)
    uri_preds = pa.array(sorted(OBJ_URI_PREDS), pa.string())

    def edge_rows(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["pred"].combine_chunks(), value_set=uri_preds)
        t = t.filter(keep)
        src = pc.cast(t["subj"].combine_chunks(), pa.string())
        dst = pc.cast(t["obj"].combine_chunks(), pa.string())
        return pa.table({"sbucket": hash_bucket(src, nb),
                         "dbucket": hash_bucket(dst, nb),
                         "src": src, "dst": dst})

    edges = (kg_triples_ds(sf_dir, cfg)
             .map_batches(edge_rows, batch_format="pyarrow",
                          zero_copy_batch=True)
             .materialize())

    empty = pa.table({"node": pa.array([], pa.string()),
                      "hub": pa.array([], pa.int64()),
                      "authority": pa.array([], pa.int64())})
    if edges.count() == 0:
        import ray.data as rd

        return rd.from_arrow(empty)

    def node_rows(t: pa.Table) -> pa.Table:
        both = pc.unique(pa.concat_arrays([t["src"].combine_chunks(),
                                           t["dst"].combine_chunks()]))
        return pa.table({"nbucket": hash_bucket(both, nb), "node": both})

    def uniq_nodes(df: pd.DataFrame) -> pa.Table:
        u = df["node"].unique()
        return pa.table({"nbucket": pa.array(
            np.full(len(u), df["nbucket"].iloc[0], np.int32)),
            "node": pa.array(u, pa.string())})

    nodes = (edges.map_batches(node_rows, batch_format="pyarrow")
             .groupby("nbucket").map_groups(uniq_nodes,
                                            batch_format="pandas")
             .materialize())
    ckpt = _session_ckpt_root()

    def tag_edges(bucket_col: str, key_col: str, other_col: str):
        def f(t: pa.Table) -> pa.Table:
            n = t.num_rows
            return pa.table({"kbucket": t[bucket_col],
                             "tag": pa.array(np.zeros(n, np.int8)),
                             "key": t[key_col], "other": t[other_col],
                             "r": pa.array(np.zeros(n, np.int64))})
        return f

    def tag_vec(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({"kbucket": t["nbucket"],
                         "tag": pa.array(np.ones(n, np.int8)),
                         "key": t["node"], "other": pa.nulls(n, pa.string()),
                         "r": t["r"]})

    def flow_bucket(df: pd.DataFrame) -> pa.Table:
        e = df[df["tag"] == 0][["key", "other"]]
        v = df[df["tag"] == 1][["key", "r"]]
        m = e.merge(v, on="key", how="left")
        other = pa.array(m["other"], pa.string())
        return pa.table({
            "nbucket": hash_bucket(other, nb), "node": other,
            "c": pa.array(m["r"].fillna(0).astype("int64").to_numpy())})

    def sum_bucket(df: pd.DataFrame) -> pa.Table:
        agg = df.groupby("node", as_index=False)["c"].sum()
        return pa.table({
            "nbucket": pa.array(np.full(len(agg), df["nbucket"].iloc[0],
                                        np.int32)),
            "node": pa.array(agg["node"], pa.string()),
            "r": pa.array(agg["c"].to_numpy("int64"))})

    def half_step(vec, edges_tagger, path: str):
        raw = _checkpoint(
            edges.map_batches(edges_tagger, batch_format="pyarrow")
            .union(vec.map_batches(tag_vec, batch_format="pyarrow"))
            .groupby("kbucket").map_groups(flow_bucket,
                                           batch_format="pandas")
            .groupby("nbucket").map_groups(sum_bucket,
                                           batch_format="pandas"),
            path)
        mx = raw.max("r")
        g = max(int(mx) // HITS_SCALE, 1) if mx is not None else 1
        return raw.map_batches(
            lambda t: pa.table({"nbucket": t["nbucket"], "node": t["node"],
                                "r": pc.divide(pc.cast(t["r"], pa.int64()),
                                               g)}),
            batch_format="pyarrow")

    h = nodes.map_batches(
        lambda t: pa.table({"nbucket": t["nbucket"], "node": t["node"],
                            "r": pa.array(np.full(t.num_rows, HITS_SCALE,
                                                  np.int64))}),
        batch_format="pyarrow")
    a = None
    for it in range(iters):
        # authority: mass flows src → dst (join h on src, land on dst)
        a = half_step(h, tag_edges("sbucket", "src", "dst"),
                      os.path.join(ckpt, f"hits_a_{it}"))
        # hub: mass flows dst → src (join a on dst, land on src)
        h = half_step(a, tag_edges("dbucket", "dst", "src"),
                      os.path.join(ckpt, f"hits_h_{it}"))

    def out_tag(col: str, tag: int):
        def f(t: pa.Table) -> pa.Table:
            return pa.table({"nbucket": t["nbucket"], "node": t["node"],
                             "tag": pa.array(np.full(t.num_rows, tag,
                                                     np.int8)),
                             "r": pc.cast(t[col], pa.int64())})
        return f

    def finish(df: pd.DataFrame) -> pa.Table:
        base = df[df["tag"] == 0][["node"]].drop_duplicates()
        hh = df[df["tag"] == 1].groupby("node")["r"].sum()
        aa = df[df["tag"] == 2].groupby("node")["r"].sum()
        return pa.table({
            "node": pa.array(base["node"], pa.string()),
            "hub": pa.array(base["node"].map(hh).fillna(0)
                            .astype("int64").to_numpy()),
            "authority": pa.array(base["node"].map(aa).fillna(0)
                                  .astype("int64").to_numpy())})

    zeros = nodes.map_batches(
        lambda t: pa.table({"nbucket": t["nbucket"], "node": t["node"],
                            "tag": pa.array(np.zeros(t.num_rows, np.int8)),
                            "r": pa.array(np.zeros(t.num_rows, np.int64))}),
        batch_format="pyarrow")
    return (zeros
            .union(h.map_batches(out_tag("r", 1), batch_format="pyarrow"))
            .union(a.map_batches(out_tag("r", 2), batch_format="pyarrow"))
            .groupby("nbucket")
            .map_groups(finish, batch_format="pandas"))


def kg_pred_paths_ds(sf_dir: str,
                     cfg: PipelineConfig = DEFAULT_CONFIG):
    """2-hop predicate-path census: for every ordered predicate pair
    (p1, p2), the number of paths a -p1-> m -p2-> b (first hop restricted
    to resource-valued predicates so m is a node) — the schema-usage
    profile behind SPARQL property-path planning and join-selectivity
    estimates, next to kg_pred_cardinality and kg_inverse_preds.

    Scale shape — paths are COUNTED, never materialized: both sides
    pre-aggregate to (mid-node, pred, n) per batch (pred-vocabulary ×
    nodes bounded), one mid-node-hash tagged co-group computes
    Σ_m n1(m,p1)·n2(m,p2) as in-bucket partials (one row per (p1, p2) per
    bucket), and the final groupby sums a pred²-vocabulary-sized stream. A
    celebrity mid-node contributes one multiplication, not n1·n2 rows."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..functions.arrowutils import hash_bucket, scale_buckets
    from ..functions.ntriples import OBJ_URI_PREDS
    from ray.data.aggregate import Sum

    nb = scale_buckets(floor=16, per_cpu=2)
    uri_preds = pa.array(sorted(OBJ_URI_PREDS), pa.string())

    def partials(t: pa.Table) -> pa.Table:
        # side 0: edges INTO the mid node (m = obj, resource-valued preds);
        # side 1: edges OUT of the mid node (m = subj, any pred)
        keep = pc.is_in(t["pred"].combine_chunks(), value_set=uri_preds)
        t1 = t.filter(keep)
        df1 = pd.DataFrame({"m": t1["obj"].to_pandas(),
                            "pred": t1["pred"].to_pandas()})
        g1 = df1.groupby(["m", "pred"], as_index=False).size()
        df2 = pd.DataFrame({"m": t["subj"].to_pandas(),
                            "pred": t["pred"].to_pandas()})
        g2 = df2.groupby(["m", "pred"], as_index=False).size()
        m = pa.array(pd.concat([g1["m"], g2["m"]]), pa.string())
        return pa.table({
            "kbucket": hash_bucket(m, nb), "m": m,
            "side": pa.array(np.concatenate(
                [np.zeros(len(g1), np.int8), np.ones(len(g2), np.int8)])),
            "pred": pa.array(pd.concat([g1["pred"], g2["pred"]]),
                             pa.string()),
            "n": pa.array(np.concatenate(
                [g1["size"].to_numpy("int64"),
                 g2["size"].to_numpy("int64")]))})

    def cross_bucket(df: pd.DataFrame) -> pa.Table:
        # complete per-(m, side, pred) counts in-bucket, then per-m outer
        # product of side-0 × side-1 pred vectors
        g = df.groupby(["m", "side", "pred"], as_index=False)["n"].sum()
        a = g[g["side"] == 0]
        b = g[g["side"] == 1]
        m = a.merge(b, on="m", suffixes=("1", "2"))
        if not len(m):
            return pa.table({"p1": pa.array([], pa.string()),
                             "p2": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        m["n"] = m["n1"].to_numpy("int64") * m["n2"].to_numpy("int64")
        out = m.groupby(["pred1", "pred2"], as_index=False)["n"].sum()
        return pa.table({"p1": pa.array(out["pred1"], pa.string()),
                         "p2": pa.array(out["pred2"], pa.string()),
                         "n": pa.array(out["n"].to_numpy("int64"))})

    return (kg_triples_ds(sf_dir, cfg)
            .map_batches(partials, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby("kbucket")
            .map_groups(cross_bucket, batch_format="pandas")
            .groupby(["p1", "p2"])
            .aggregate(Sum("n", alias_name="n_paths"))
            .map_batches(lambda t: pa.table({
                "p1": t["p1"], "p2": t["p2"],
                "n_paths": pc.cast(t["n_paths"], pa.int64())}),
                batch_format="pyarrow"))


NS_FANOUT_1 = 4   # hop-1 sample size per seed
NS_FANOUT_2 = 2   # hop-2 sample size per frontier node
NS_SEED_PREFIX = "C:"   # conversation roots seed the sampled subgraphs


def kg_neighbor_sample_ds(sf_dir: str,
                          cfg: PipelineConfig = DEFAULT_CONFIG):
    """GraphSAGE-style 2-hop neighbor sampling over the symmetric resource
    graph: for every conversation-root seed, keep the md5-lowest
    NS_FANOUT_1 neighbors, then each sampled node's md5-lowest NS_FANOUT_2
    neighbors — the deterministic minibatch-subgraph generator GNN training
    reads, with one row per sampled edge (seed, hop, src, dst, rank).

    Content-addressed sampling (rank by md5(src|dst), ties by dst — the
    kg_walks discipline): no RNG state, reproducible across runs, shards
    and cluster sizes, and replayable in SQL via row_number() over the
    same ordering.

    Scale shape: the ranked adjacency is built ONCE — symmetric distinct
    edges bucketed by hash(src) (a bucket holds EVERY edge of its sources,
    so dedup + md5 ranking + fanout truncation are in-bucket transforms;
    only rank ≤ max fanout rows survive, capping it at fanout·|V| rows) —
    then hop 2 is a single tagged co-group joining the hop-1 frontier to
    the ranked adjacency on the node hash. Nothing corpus-sized ever
    reaches the driver."""
    import hashlib
    import os

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..functions.arrowutils import hash_bucket, scale_buckets
    from ..functions.ntriples import OBJ_URI_PREDS

    nb = scale_buckets(floor=16, per_cpu=2)
    uri_preds = pa.array(sorted(OBJ_URI_PREDS), pa.string())

    def edge_rows(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["pred"].combine_chunks(), value_set=uri_preds)
        t = t.filter(keep)
        subj = pc.cast(t["subj"].combine_chunks(), pa.string())
        obj = pc.cast(t["obj"].combine_chunks(), pa.string())
        src = pa.concat_arrays([subj, obj])
        dst = pa.concat_arrays([obj, subj])
        return pa.table({"kbucket": hash_bucket(src, nb),
                         "src": src, "dst": dst})

    def rank_bucket(df: pd.DataFrame) -> pa.Table:
        df = df.drop_duplicates(["src", "dst"])
        score = [hashlib.md5(f"{s}|{d}".encode()).hexdigest()
                 for s, d in zip(df["src"], df["dst"])]
        df = df.assign(score=score).sort_values(
            ["src", "score", "dst"], kind="stable")
        rank = df.groupby("src", sort=False).cumcount() + 1
        keep = rank <= NS_FANOUT_1
        return pa.table({
            "kbucket": pa.array(df.loc[keep, "kbucket"].to_numpy("int32")),
            "src": pa.array(df.loc[keep, "src"], pa.string()),
            "dst": pa.array(df.loc[keep, "dst"], pa.string()),
            "rank": pa.array(rank[keep].to_numpy("int64"))})

    ranked = (kg_triples_ds(sf_dir, cfg)
              .map_batches(edge_rows, batch_format="pyarrow",
                           zero_copy_batch=True)
              .groupby("kbucket")
              .map_groups(rank_bucket, batch_format="pandas")
              .materialize())

    def hop1_rows(t: pa.Table) -> pa.Table:
        keep = pc.starts_with(t["src"].combine_chunks(), NS_SEED_PREFIX)
        t = t.filter(keep)
        n = t.num_rows
        return pa.table({"seed": t["src"],
                         "hop": pa.array(np.ones(n, np.int64)),
                         "src": t["src"], "dst": t["dst"],
                         "rank": pc.cast(t["rank"], pa.int64())})

    hop1 = ranked.map_batches(hop1_rows, batch_format="pyarrow")

    # tagged co-group: hop-1 frontier keyed by its dst joins the ranked
    # adjacency (rank <= NS_FANOUT_2) keyed by its src, on the shared
    # node-hash bucket
    def f_tag(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({"kbucket": hash_bucket(t["dst"].combine_chunks(),
                                                nb),
                         "tag": pa.array(np.zeros(n, np.int8)),
                         "key": t["dst"], "seed": t["seed"],
                         "dst": pa.nulls(n, pa.string()),
                         "rank": pa.array(np.zeros(n, np.int64))})

    def a_tag(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["rank"], NS_FANOUT_2))
        n = t.num_rows
        return pa.table({"kbucket": t["kbucket"],
                         "tag": pa.array(np.ones(n, np.int8)),
                         "key": t["src"],
                         "seed": pa.nulls(n, pa.string()),
                         "dst": t["dst"],
                         "rank": pc.cast(t["rank"], pa.int64())})

    def hop2_bucket(df: pd.DataFrame) -> pa.Table:
        f = df[df["tag"] == 0][["key", "seed"]]
        a = df[df["tag"] == 1][["key", "dst", "rank"]]
        m = f.merge(a, on="key", how="inner")
        n = len(m)
        return pa.table({"seed": pa.array(m["seed"], pa.string()),
                         "hop": pa.array(np.full(n, 2, np.int64)),
                         "src": pa.array(m["key"], pa.string()),
                         "dst": pa.array(m["dst"], pa.string()),
                         "rank": pa.array(m["rank"].to_numpy("int64"))})

    hop2 = (hop1.map_batches(f_tag, batch_format="pyarrow")
            .union(ranked.map_batches(a_tag, batch_format="pyarrow"))
            .groupby("kbucket")
            .map_groups(hop2_bucket, batch_format="pandas"))
    return hop1.union(hop2)


def _oriented_adjacency(edges, nb: int):
    """Degree-attached, degree-ordered oriented adjacency — the shared
    front half of kg_triangles_ds and kg_adamic_adar_ds. `edges` contract:
    distinct undirected edges, e1 < e2, no self-loops. Returns oriented
    rows (src, dst, deg_src, deg_dst) with every undirected edge directed
    from its lower (degree, node) endpoint to the higher — each triangle
    is then found exactly once at its minimum corner, and the wedge set is
    bounded by O(m^1.5) regardless of hub skew. Stages: per-batch partial
    degree counts → groupby-sum; two tagged co-groups attach degrees to
    both endpoints."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from ..functions.arrowutils import from_pandas_clean, hash_bucket

    def explode(t: pa.Table) -> pa.Table:
        node = pa.concat_arrays([t["e1"].combine_chunks(),
                                 t["e2"].combine_chunks()])
        nbr = pa.concat_arrays([t["e2"].combine_chunks(),
                                t["e1"].combine_chunks()])
        return pa.table({"node": node, "nbr": nbr})

    adj = edges.map_batches(explode, batch_format="pyarrow").materialize()

    def deg_partial(t: pa.Table) -> pa.Table:
        vc = t.group_by("node").aggregate([("node", "count")])
        return pa.table({"node": vc["node"],
                         "d": pc.cast(vc["node_count"], pa.int64())})

    deg = (adj.map_batches(deg_partial, batch_format="pyarrow")
           .groupby("node").aggregate(Sum("d", alias_name="d")))

    # tagged co-group #1: deg of the 'node' endpoint
    def tag_adj_node(t: pa.Table) -> pa.Table:
        return pa.table({"kb": hash_bucket(t["node"].combine_chunks(), nb),
                         "key": t["node"], "nbr": t["nbr"],
                         "d": pa.nulls(t.num_rows, pa.int64())})

    def tag_deg(t: pa.Table) -> pa.Table:
        return pa.table({"kb": hash_bucket(t["node"].combine_chunks(), nb),
                         "key": t["node"],
                         "nbr": pa.nulls(t.num_rows, pa.string()),
                         "d": t["d"]})

    def attach_node_deg(df: pd.DataFrame) -> pa.Table:
        d = df.loc[df["d"].notna(), ["key", "d"]]
        a = df.loc[df["nbr"].notna(), ["key", "nbr"]]
        m = a.merge(d, on="key", how="left")
        return from_pandas_clean(pd.DataFrame({
            "node": m["key"], "nbr": m["nbr"],
            "deg_node": m["d"].astype("int64")}))

    adj_d = (adj.map_batches(tag_adj_node, batch_format="pyarrow")
             .union(deg.map_batches(tag_deg, batch_format="pyarrow"))
             .groupby("kb").map_groups(attach_node_deg,
                                       batch_format="pandas"))

    # tagged co-group #2: deg of the 'nbr' endpoint, keyed on nbr
    def tag_adj_nbr(t: pa.Table) -> pa.Table:
        return pa.table({"kb": hash_bucket(t["nbr"].combine_chunks(), nb),
                         "key": t["nbr"], "node": t["node"],
                         "deg_node": t["deg_node"],
                         "d": pa.nulls(t.num_rows, pa.int64())})

    def tag_deg2(t: pa.Table) -> pa.Table:
        return pa.table({"kb": hash_bucket(t["node"].combine_chunks(), nb),
                         "key": t["node"],
                         "node": pa.nulls(t.num_rows, pa.string()),
                         "deg_node": pa.nulls(t.num_rows, pa.int64()),
                         "d": t["d"]})

    def attach_nbr_deg(df: pd.DataFrame) -> pa.Table:
        d = df.loc[df["d"].notna(), ["key", "d"]]
        a = df.loc[df["node"].notna(), ["key", "node", "deg_node"]]
        m = a.merge(d, on="key", how="left")
        dn = m["deg_node"].astype("int64")
        db = m["d"].astype("int64")
        # orient low (deg, node) → high; strict, so each undirected edge
        # survives exactly once (ties broken by node id, never equal here)
        keep = (dn < db) | ((dn == db) & (m["node"] < m["key"]))
        m = m[keep]
        return from_pandas_clean(pd.DataFrame({
            "src": m["node"], "dst": m["key"],
            "deg_src": m["deg_node"].astype("int64"),
            "deg_dst": m["d"].astype("int64")}))

    return (adj_d.map_batches(tag_adj_nbr, batch_format="pyarrow")
            .union(deg.map_batches(tag_deg2, batch_format="pyarrow"))
            .groupby("kb").map_groups(attach_nbr_deg,
                                      batch_format="pandas")
            .materialize())


def kg_triangles_ds(sf_dir: str, edges=None):
    """Per-entity triangle participation counts over the entity
    co-occurrence graph — the community/cohesion primitive next to
    cooccurrence_ds (the resource graph itself is hierarchical and
    triangle-free; the co-occurrence graph is dense: ~191k triangles over
    9k edges at sf0.001).

    Scale shape: the classic degree-ordered orientation
    (_oriented_adjacency), then — all hash-bucket co-groups, no driver
    materialization, no broadcast of anything node- or edge-sized:
      3. wedges per oriented source (bucket holds a source's whole
         out-adjacency; neighbors sorted by (deg, node), pairs via
         triu indices);
      4. wedge ∩ edge on a PAIR-HASH bucket (tagged union), matched wedges
         emit their three corners pre-aggregated per bucket;
      5. final per-entity sum (map-side combined)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from ..functions.arrowutils import hash_bucket, scale_buckets

    nb = scale_buckets(32, 2)
    SEP = "\x1f"

    if edges is None:
        edges = (cooccurrence_ds(sf_dir)
                 .select_columns(["e1", "e2"]))
    oriented = _oriented_adjacency(edges, nb)

    # wedges: bucket on hash(src) holds a source's whole out-adjacency
    def tag_src(t: pa.Table) -> pa.Table:
        return pa.table({"sb": hash_bucket(t["src"].combine_chunks(), nb),
                         "src": t["src"], "dst": t["dst"],
                         "deg_dst": t["deg_dst"]})

    def wedge_rows(df: pd.DataFrame) -> pa.Table:
        us, vs, ws = [], [], []
        for u, g in df.groupby("src", sort=False):
            if len(g) < 2:
                continue
            g = g.sort_values(["deg_dst", "dst"], kind="stable")
            nbrs = g["dst"].to_numpy(dtype=object)
            i, j = np.triu_indices(len(nbrs), 1)
            us.append(np.full(len(i), u, dtype=object))
            vs.append(nbrs[i])
            ws.append(nbrs[j])
        if not us:
            return pa.table({"pb": pa.array([], pa.int64()),
                             "v": pa.array([], pa.string()),
                             "w": pa.array([], pa.string()),
                             "u": pa.array([], pa.string())})
        u_a = pa.array(np.concatenate(us), pa.string())
        v_a = pa.array(np.concatenate(vs), pa.string())
        w_a = pa.array(np.concatenate(ws), pa.string())
        key = pc.binary_join_element_wise(v_a, w_a, SEP)
        return pa.table({"pb": pc.cast(hash_bucket(key, nb), pa.int64()),
                         "v": v_a, "w": w_a, "u": u_a})

    wedges = (oriented.map_batches(tag_src, batch_format="pyarrow")
              .groupby("sb").map_groups(wedge_rows, batch_format="pandas"))

    def tag_edge_probe(t: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(
            pc.cast(t["src"], pa.string()), pc.cast(t["dst"], pa.string()),
            SEP)
        return pa.table({"pb": pc.cast(hash_bucket(key.combine_chunks(), nb),
                                       pa.int64()),
                         "v": t["src"], "w": t["dst"],
                         "u": pa.nulls(t.num_rows, pa.string())})

    def match_bucket(df: pd.DataFrame) -> pa.Table:
        # vectorized hash semi-join (C speed) — a Python membership loop
        # here would walk tens of millions of wedge rows at sf0.01
        probe = df.loc[df["u"].isna(), ["v", "w"]]
        wd = df.loc[df["u"].notna(), ["u", "v", "w"]]
        hit = wd.merge(probe, on=["v", "w"], how="inner")
        corners = pd.concat([hit["u"], hit["v"], hit["w"]])
        vc = corners.value_counts()
        return pa.table({"entity": pa.array(vc.index.to_numpy(dtype=object),
                                            pa.string()),
                         "n": pa.array(vc.to_numpy("int64"))})

    return (wedges
            .union(oriented.map_batches(tag_edge_probe,
                                        batch_format="pyarrow"))
            .groupby("pb").map_groups(match_bucket, batch_format="pandas")
            .groupby("entity")
            .aggregate(Sum("n", alias_name="n_triangles")))


def kg_entity_growth_ds(sf_dir: str):
    """Entity-introduction growth curve: per UTC day, how many entities
    were mentioned for the FIRST time, plus the running cumulative — the
    graph-growth telemetry an incremental KG build plots to see whether
    the corpus is still discovering new entities or has saturated.

    EXACT: builds on kg_entity_lifespan_ds's first_ts_us (itself an exact
    min-reduce); day = first_ts_us // 86400e6 (floor; timestamps are
    positive epoch micros), per-day counts are an integer groupby, and the
    cumulative is computed in ONE final group over the DAY table — bounded
    by the corpus timespan in days, not by its size, so the single-group
    step is a deliberate small-side pass, not a driver collect of data."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    US_PER_DAY = 86_400_000_000

    def day_rows(t: pa.Table) -> pa.Table:
        d = pc.divide(pc.cast(t["first_ts_us"], pa.int64()),
                      pa.scalar(US_PER_DAY, pa.int64()))
        return pa.table({"day": d,
                         "n": pa.array(np.ones(t.num_rows, np.int64))})

    per_day = (kg_entity_lifespan_ds(sf_dir)
               .map_batches(day_rows, batch_format="pyarrow")
               .groupby("day").aggregate(Sum("n", alias_name="n_new")))

    def cum(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("day", kind="stable")
        return pd.DataFrame({
            "day": df["day"].to_numpy("int64"),
            "n_new_entities": df["n_new"].to_numpy("int64"),
            "cum_entities": df["n_new"].cumsum().to_numpy("int64")})

    return (per_day
            .map_batches(lambda t: t.append_column(
                "g", pa.array(np.zeros(t.num_rows, np.int8))),
                batch_format="pyarrow")
            .groupby("g").map_groups(cum, batch_format="pandas"))


def kg_clustering_coef_ds(sf_dir: str):
    """Per-entity local clustering coefficient over the co-occurrence
    graph: cc = 2·triangles / (deg·(deg−1)) in integer ppm — the cohesion
    score that separates entities whose neighbors form a community from
    hub entities bridging unrelated conversations (the per-node reading of
    kg_triangles).

    EXACT: cc_ppm = (2·10⁶·T) // (d·(d−1)) — one integer division; nodes
    with deg < 2 report 0. The edge list is computed ONCE and shared by
    the degree count and the triangle pass.

    Scale shape: degrees are per-batch partial counts over the distinct
    pair stream → groupby-sum; triangles ride kg_triangles_ds's
    wedge-bounded machinery; the two meet in one entity-hash tagged
    co-group."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from ..functions.arrowutils import hash_bucket, scale_buckets

    nb = scale_buckets(floor=16, per_cpu=2)
    edges = cooccurrence_ds(sf_dir).materialize()

    def deg_partial(t: pa.Table) -> pa.Table:
        both = pa.concat_arrays([t["e1"].combine_chunks(),
                                 t["e2"].combine_chunks()])
        df = pd.DataFrame({"entity": both.to_pandas()})
        g = df.groupby("entity", as_index=False).size()
        return pa.table({"entity": pa.array(g["entity"], pa.string()),
                         "deg": pa.array(g["size"].to_numpy("int64"))})

    degrees = (edges.map_batches(deg_partial, batch_format="pyarrow")
               .groupby("entity").aggregate(Sum("deg", alias_name="deg")))

    def d_tag(t: pa.Table) -> pa.Table:
        ent = pc.cast(t["entity"].combine_chunks(), pa.string())
        n = t.num_rows
        return pa.table({"kbucket": hash_bucket(ent, nb),
                         "tag": pa.array(np.zeros(n, np.int8)),
                         "entity": ent,
                         "v": pc.cast(t["deg"], pa.int64())})

    def t_tag(t: pa.Table) -> pa.Table:
        ent = pc.cast(t["entity"].combine_chunks(), pa.string())
        n = t.num_rows
        return pa.table({"kbucket": hash_bucket(ent, nb),
                         "tag": pa.array(np.ones(n, np.int8)),
                         "entity": ent,
                         "v": pc.cast(t["n_triangles"], pa.int64())})

    def combine(df: pd.DataFrame) -> pa.Table:
        d = df[df["tag"] == 0][["entity", "v"]].rename(columns={"v": "deg"})
        tr = df[df["tag"] == 1][["entity", "v"]].rename(
            columns={"v": "tri"})
        m = d.merge(tr, on="entity", how="left")
        deg = m["deg"].to_numpy("int64")
        tri = m["tri"].fillna(0).astype("int64").to_numpy()
        den = deg * (deg - 1)
        cc = np.where(den > 0, (2_000_000 * tri) // np.maximum(den, 1), 0)
        return pa.table({"entity": pa.array(m["entity"], pa.string()),
                         "degree": pa.array(deg),
                         "n_triangles": pa.array(tri),
                         "cc_ppm": pa.array(cc.astype(np.int64))})

    tri = kg_triangles_ds(sf_dir, edges=edges)
    return (degrees.map_batches(d_tag, batch_format="pyarrow")
            .union(tri.map_batches(t_tag, batch_format="pyarrow"))
            .groupby("kbucket")
            .map_groups(combine, batch_format="pandas"))


def kg_entity_cards_ds(sf_dir: str):
    """Per-entity serving card — the denormalized profile row a KG lookup
    service materializes: temporal footprint (first/last mention,
    conv/turn counts from kg_entity_lifespan), co-occurrence degree, and
    the strongest neighbor (kg_neighbors_topk rank 1) — one table, ready
    to serve, derived from the same exact pipelines the per-facet queries
    expose.

    Scale shape: lifespan / degree-partials / top-1-neighbor are three
    entity-keyed streams meeting in ONE entity-hash tagged co-group;
    entities with no co-occurrence edge get degree 0 and an empty
    neighbor (spec'd identically in the twin)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from ..functions.arrowutils import hash_bucket, scale_buckets

    nb = scale_buckets(floor=16, per_cpu=2)
    edges = cooccurrence_ds(sf_dir).materialize()

    def deg_partial(t: pa.Table) -> pa.Table:
        both = pa.concat_arrays([t["e1"].combine_chunks(),
                                 t["e2"].combine_chunks()])
        g = pd.DataFrame({"entity": both.to_pandas()}).groupby(
            "entity", as_index=False).size()
        return pa.table({"entity": pa.array(g["entity"], pa.string()),
                         "deg": pa.array(g["size"].to_numpy("int64"))})

    degrees = (edges.map_batches(deg_partial, batch_format="pyarrow")
               .groupby("entity").aggregate(Sum("deg", alias_name="deg")))

    def l_tag(t: pa.Table) -> pa.Table:
        ent = pc.cast(t["entity_uri"].combine_chunks(), pa.string())
        n = t.num_rows
        return pa.table({"kbucket": hash_bucket(ent, nb),
                         "tag": pa.array(np.zeros(n, np.int8)),
                         "entity_uri": ent,
                         "n_convs": pc.cast(t["n_convs"], pa.int64()),
                         "n_turns": pc.cast(t["n_turns"], pa.int64()),
                         "first_ts_us": pc.cast(t["first_ts_us"],
                                                pa.int64()),
                         "last_ts_us": pc.cast(t["last_ts_us"],
                                               pa.int64()),
                         "deg": pa.array(np.zeros(n, np.int64)),
                         "nbr": pa.nulls(n, pa.string()),
                         "nbr_n": pa.array(np.zeros(n, np.int64))})

    def d_tag(t: pa.Table) -> pa.Table:
        ent = pc.cast(t["entity"].combine_chunks(), pa.string())
        n = t.num_rows
        z = pa.array(np.zeros(n, np.int64))
        return pa.table({"kbucket": hash_bucket(ent, nb),
                         "tag": pa.array(np.ones(n, np.int8)),
                         "entity_uri": ent, "n_convs": z, "n_turns": z,
                         "first_ts_us": z, "last_ts_us": z,
                         "deg": pc.cast(t["deg"], pa.int64()),
                         "nbr": pa.nulls(n, pa.string()),
                         "nbr_n": z})

    def t_tag(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["rank"], 1))
        ent = pc.cast(t["entity_uri"].combine_chunks(), pa.string())
        n = t.num_rows
        z = pa.array(np.zeros(n, np.int64))
        return pa.table({"kbucket": hash_bucket(ent, nb),
                         "tag": pa.array(np.full(n, 2, np.int8)),
                         "entity_uri": ent, "n_convs": z, "n_turns": z,
                         "first_ts_us": z, "last_ts_us": z, "deg": z,
                         "nbr": pc.cast(t["neighbor_uri"], pa.string()),
                         "nbr_n": pc.cast(t["n_convs"], pa.int64())})

    def combine(df: pd.DataFrame) -> pa.Table:
        base = df[df["tag"] == 0][["entity_uri", "n_convs", "n_turns",
                                   "first_ts_us", "last_ts_us"]]
        dd = df[df["tag"] == 1][["entity_uri", "deg"]]
        tt = df[df["tag"] == 2][["entity_uri", "nbr", "nbr_n"]]
        m = base.merge(dd, on="entity_uri", how="left").merge(
            tt, on="entity_uri", how="left")
        return pa.table({
            "entity_uri": pa.array(m["entity_uri"], pa.string()),
            "n_convs": pa.array(m["n_convs"].to_numpy("int64")),
            "n_turns": pa.array(m["n_turns"].to_numpy("int64")),
            "first_ts_us": pa.array(m["first_ts_us"].to_numpy("int64")),
            "last_ts_us": pa.array(m["last_ts_us"].to_numpy("int64")),
            "degree": pa.array(m["deg"].fillna(0).astype("int64")
                               .to_numpy()),
            "top_neighbor": pa.array(m["nbr"].fillna(""), pa.string()),
            "top_neighbor_convs": pa.array(
                m["nbr_n"].fillna(0).astype("int64").to_numpy())})

    return (kg_entity_lifespan_ds(sf_dir)
            .map_batches(l_tag, batch_format="pyarrow")
            .union(degrees.map_batches(d_tag, batch_format="pyarrow"))
            .union(kg_neighbors_topk_ds(sf_dir)
                   .map_batches(t_tag, batch_format="pyarrow"))
            .groupby("kbucket")
            .map_groups(combine, batch_format="pandas"))


def kg_assortativity_ds(sf_dir: str):
    """Degree assortativity of the co-occurrence graph — the Pearson
    correlation of endpoint degrees over all directed edge orientations
    (Newman 2002): positive ⇒ hubs attach to hubs (community cores),
    negative ⇒ hub-and-spoke. One summary row with the EXACT integer
    moments (n, Σx, Σxy, Σx²; the symmetric orientation makes y-moments
    equal x-moments) plus r evaluated once in a fixed double expression
    with libm sqrt, rounded to 6 — the single scalar op, so the value is
    bit-reproducible.

    Scale shape: degrees via per-batch partial counts → groupby-sum; each
    directed edge picks up its endpoint degrees through two entity-hash
    tagged co-groups (the kg_pagerank outdeg discipline — a bucket holds
    every edge of its keyed endpoint); moments are per-batch integer
    partials into one constant-key sum."""
    import math

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from ..functions.arrowutils import hash_bucket, scale_buckets

    nb = scale_buckets(floor=16, per_cpu=2)
    edges = cooccurrence_ds(sf_dir).materialize()

    def deg_partial(t: pa.Table) -> pa.Table:
        both = pa.concat_arrays([t["e1"].combine_chunks(),
                                 t["e2"].combine_chunks()])
        g = pd.DataFrame({"entity": both.to_pandas()}).groupby(
            "entity", as_index=False).size()
        return pa.table({"entity": pa.array(g["entity"], pa.string()),
                         "deg": pa.array(g["size"].to_numpy("int64"))})

    degrees = (edges.map_batches(deg_partial, batch_format="pyarrow")
               .groupby("entity").aggregate(Sum("deg", alias_name="deg"))
               .materialize())

    def e_sym(t: pa.Table) -> pa.Table:
        x = pa.concat_arrays([t["e1"].combine_chunks(),
                              t["e2"].combine_chunks()])
        y = pa.concat_arrays([t["e2"].combine_chunks(),
                              t["e1"].combine_chunks()])
        n = len(x)
        return pa.table({"kbucket": hash_bucket(x, nb),
                         "tag": pa.array(np.zeros(n, np.int8)),
                         "key": x, "other": y,
                         "deg": pa.array(np.zeros(n, np.int64))})

    def d_tag(t: pa.Table) -> pa.Table:
        ent = pc.cast(t["entity"].combine_chunks(), pa.string())
        n = t.num_rows
        return pa.table({"kbucket": hash_bucket(ent, nb),
                         "tag": pa.array(np.ones(n, np.int8)),
                         "key": ent, "other": pa.nulls(n, pa.string()),
                         "deg": pc.cast(t["deg"], pa.int64())})

    def attach_x(df: pd.DataFrame) -> pa.Table:
        e = df[df["tag"] == 0][["key", "other"]]
        d = df[df["tag"] == 1][["key", "deg"]]
        m = e.merge(d, on="key", how="left")
        other = pa.array(m["other"], pa.string())
        return pa.table({"kbucket": hash_bucket(other, nb),
                         "tag": pa.array(np.zeros(len(m), np.int8)),
                         "key": other,
                         "other": pa.array(m["key"], pa.string()),
                         "deg": pa.array(m["deg"].fillna(0)
                                         .astype("int64").to_numpy())})

    def moments(df: pd.DataFrame) -> pa.Table:
        e = df[df["tag"] == 0][["key", "deg"]].rename(
            columns={"deg": "dx"})
        d = df[df["tag"] == 1][["key", "deg"]].rename(
            columns={"deg": "dy"})
        m = e.merge(d, on="key", how="left")
        dx = m["dx"].to_numpy("int64")
        dy = m["dy"].fillna(0).astype("int64").to_numpy()
        return pa.table({
            "k": pa.array([0], pa.int32()),
            "n": pa.array([len(m)], pa.int64()),
            "sx": pa.array([int(dx.sum())], pa.int64()),
            "sy": pa.array([int(dy.sum())], pa.int64()),
            "sxy": pa.array([int((dx * dy).sum())], pa.int64()),
            "sx2": pa.array([int((dx * dx).sum())], pa.int64()),
            "sy2": pa.array([int((dy * dy).sum())], pa.int64())})

    def finish(df: pd.DataFrame) -> pa.Table:
        n = int(df["n"].sum()); sx = int(df["sx"].sum())
        sy = int(df["sy"].sum()); sxy = int(df["sxy"].sum())
        sx2 = int(df["sx2"].sum()); sy2 = int(df["sy2"].sum())
        num = float(n) * float(sxy) - float(sx) * float(sy)
        vx = float(n) * float(sx2) - float(sx) * float(sx)
        vy = float(n) * float(sy2) - float(sy) * float(sy)
        r = num / math.sqrt(vx * vy) if vx > 0 and vy > 0 else 0.0
        from ..functions.arrowutils import round_half_away

        return pa.table({
            "n_dir_edges": pa.array([n], pa.int64()),
            "sum_deg": pa.array([sx], pa.int64()),
            "sum_prod": pa.array([sxy], pa.int64()),
            "sum_sq": pa.array([sx2], pa.int64()),
            "assortativity": pa.array(round_half_away(np.array([r])))})

    # x-degrees attach on the first-endpoint bucket, then the stream
    # rebuckets on the second endpoint to pick up y-degrees
    with_x = (edges.map_batches(e_sym, batch_format="pyarrow")
              .union(degrees.map_batches(d_tag, batch_format="pyarrow"))
              .groupby("kbucket")
              .map_groups(attach_x, batch_format="pandas"))
    return (with_x
            .union(degrees.map_batches(d_tag, batch_format="pyarrow"))
            .groupby("kbucket")
            .map_groups(moments, batch_format="pandas")
            .groupby("k")
            .map_groups(finish, batch_format="pandas"))


def kg_adamic_adar_ds(sf_dir: str, edges=None):
    """Adamic–Adar link strength for every co-occurrence edge:
    AA(a,b) = Σ over common neighbors z of 1/ln(deg z) — the classic
    link-prediction / edge-confidence score (here scored on EXISTING edges
    as a tie-strength signal next to kg_pmi; restricting to existing edges
    is what keeps the op wedge-bounded — scoring arbitrary non-edges would
    be the all-pairs shape this engine rejects).

    EXACT: each node's weight 1/ln(deg) is quantized ONCE to int64 micros
    (round-half-away; every triangle corner has deg ≥ 2 so ln > 0); an
    edge's AA is the integer sum of its common neighbors' weights —
    order-independent, hash-matching the SQL twin's triangle-join.

    Scale shape: every triangle {a,b,c} is discovered exactly once via the
    degree-ordered orientation (shared _oriented_adjacency front half +
    the kg_triangles wedge∩edge pair-hash co-group, O(m^1.5) wedges), and
    contributes THREE rows — weight(c) to edge (a,b), weight(b) to (a,c),
    weight(a) to (b,c) — pre-aggregated per bucket; a zero stream from the
    edge list completes triangle-free edges; final (e1, e2) integer
    groupby-sum. Degrees ride the oriented rows, so no extra join."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from ..functions.arrowutils import hash_bucket, scale_buckets

    nb = scale_buckets(32, 2)
    SEP = "\x1f"

    if edges is None:
        edges = (cooccurrence_ds(sf_dir)
                 .select_columns(["e1", "e2"]))
    edges = edges.materialize()  # feeds orientation AND the zero stream
    oriented = _oriented_adjacency(edges, nb)

    def w_micro(deg: np.ndarray) -> np.ndarray:
        return np.floor(1e6 / np.log(deg.astype("float64")) + 0.5).astype(
            "int64")

    def tag_src(t: pa.Table) -> pa.Table:
        return pa.table({"sb": hash_bucket(t["src"].combine_chunks(), nb),
                         "src": t["src"], "dst": t["dst"],
                         "deg_src": t["deg_src"], "deg_dst": t["deg_dst"]})

    wedge_schema = pa.schema([
        ("pb", pa.int64()), ("v", pa.string()), ("w", pa.string()),
        ("u", pa.string()), ("du", pa.int64()), ("dv", pa.int64()),
        ("dw", pa.int64())])

    def wedge_rows(df: pd.DataFrame) -> pa.Table:
        us, vs, ws, dus, dvs, dws = [], [], [], [], [], []
        for u, g in df.groupby("src", sort=False):
            if len(g) < 2:
                continue
            g = g.sort_values(["deg_dst", "dst"], kind="stable")
            nbrs = g["dst"].to_numpy(dtype=object)
            degs = g["deg_dst"].to_numpy("int64")
            du = int(g["deg_src"].iloc[0])
            i, j = np.triu_indices(len(nbrs), 1)
            us.append(np.full(len(i), u, dtype=object))
            vs.append(nbrs[i])
            ws.append(nbrs[j])
            dus.append(np.full(len(i), du, dtype="int64"))
            dvs.append(degs[i])
            dws.append(degs[j])
        if not us:
            return pa.Table.from_pydict(
                {k: [] for k in wedge_schema.names}, schema=wedge_schema)
        v_a = pa.array(np.concatenate(vs), pa.string())
        w_a = pa.array(np.concatenate(ws), pa.string())
        key = pc.binary_join_element_wise(v_a, w_a, SEP)
        return pa.Table.from_pydict({
            "pb": np.asarray(hash_bucket(key, nb), dtype="int64"),
            "v": np.concatenate(vs), "w": np.concatenate(ws),
            "u": np.concatenate(us), "du": np.concatenate(dus),
            "dv": np.concatenate(dvs), "dw": np.concatenate(dws),
        }, schema=wedge_schema)

    wedges = (oriented.map_batches(tag_src, batch_format="pyarrow")
              .groupby("sb").map_groups(wedge_rows, batch_format="pandas"))

    def tag_edge_probe(t: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(
            pc.cast(t["src"], pa.string()), pc.cast(t["dst"], pa.string()),
            SEP)
        n = t.num_rows
        return pa.table({"pb": pc.cast(hash_bucket(key.combine_chunks(), nb),
                                       pa.int64()),
                         "v": t["src"], "w": t["dst"],
                         "u": pa.nulls(n, pa.string()),
                         "du": pa.nulls(n, pa.int64()),
                         "dv": pa.nulls(n, pa.int64()),
                         "dw": pa.nulls(n, pa.int64())})

    out_schema = pa.schema([("e1", pa.string()), ("e2", pa.string()),
                            ("aa_micro", pa.int64())])

    def match_bucket(df: pd.DataFrame) -> pa.Table:
        probe = df.loc[df["u"].isna(), ["v", "w"]]
        wd = df.loc[df["u"].notna()]
        hit = wd.merge(probe, on=["v", "w"], how="inner")
        if not len(hit):
            return pa.Table.from_pydict(
                {k: [] for k in out_schema.names}, schema=out_schema)
        u = hit["u"].to_numpy(object)
        v = hit["v"].to_numpy(object)
        w = hit["w"].to_numpy(object)
        wu = w_micro(hit["du"].to_numpy("int64"))
        wv = w_micro(hit["dv"].to_numpy("int64"))
        ww = w_micro(hit["dw"].to_numpy("int64"))
        # triangle {u,v,w}: each corner's weight credits the OPPOSITE edge
        x = np.concatenate([np.minimum(v, w), np.minimum(u, w),
                            np.minimum(u, v)])
        y = np.concatenate([np.maximum(v, w), np.maximum(u, w),
                            np.maximum(u, v)])
        s = np.concatenate([wu, wv, ww])
        agg = (pd.DataFrame({"e1": x, "e2": y, "s": s})
               .groupby(["e1", "e2"], as_index=False)["s"].sum())
        return pa.Table.from_pydict({
            "e1": agg["e1"].to_numpy(object),
            "e2": agg["e2"].to_numpy(object),
            "aa_micro": agg["s"].to_numpy("int64")}, schema=out_schema)

    def zero_rows(t: pa.Table) -> pa.Table:
        return pa.table({"e1": t["e1"], "e2": t["e2"],
                         "aa_micro": pa.array(
                             np.zeros(t.num_rows, np.int64))})

    zeros = edges.map_batches(zero_rows, batch_format="pyarrow")

    return (wedges
            .union(oriented.map_batches(tag_edge_probe,
                                        batch_format="pyarrow"))
            .groupby("pb").map_groups(match_bucket, batch_format="pandas")
            .union(zeros)
            .groupby(["e1", "e2"])
            .aggregate(Sum("aa_micro", alias_name="aa_micro")))


KG_WALK_LEN = 4  # hops per walk (positions 0..KG_WALK_LEN emitted)


def kg_walks_ds(sf_dir: str, walk_len: int = KG_WALK_LEN,
                edges=None):
    """Deterministic md5-addressed random walks over the entity
    co-occurrence graph — one walk per node, the DeepWalk/node2vec-style
    corpus generator for graph-embedding training data. At node u on step
    i of walk w the next hop is sorted_neighbors(u)[md5("w|i|u") % deg(u)]:
    content-addressed, so walks are reproducible across runs, resumable
    shards and cluster sizes (no RNG state anywhere — the same discipline
    as M7's minted ids), and the DuckDB twin replays every hop exactly via
    row_number()-ordered neighbor lists.

    Scale shape: the symmetric adjacency (node, nbr) is materialized ONCE;
    each of the walk_len steps is one tagged co-group on a node-hash
    bucket between adjacency and the frontier (one row per live walk), so
    per-step shuffle payload is |E| + |V| rows and the md5 hop loop runs
    over FRONTIER rows only (|V| per step — never corpus-sized). Every
    node in the symmetric adjacency has deg >= 1, so walks never dead-end
    and output is exactly |V| x (walk_len + 1) rows. On a multi-node
    cluster the adjacency side would be hash-partitioned once and reused
    across steps; Ray Data re-ships it per step, bounded by the small
    constant walk_len."""
    import hashlib

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..functions.arrowutils import (from_pandas_clean, hash_bucket,
                                        scale_buckets)

    nb = scale_buckets(32, 2)
    if edges is None:
        edges = cooccurrence_ds(sf_dir)

    def explode_sym(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": pa.concat_arrays([t["e1"].combine_chunks(),
                                      t["e2"].combine_chunks()]),
            "nbr": pa.concat_arrays([t["e2"].combine_chunks(),
                                     t["e1"].combine_chunks()])})

    adj = edges.map_batches(explode_sym, batch_format="pyarrow").materialize()

    def node_distinct(t: pa.Table) -> pa.Table:
        d = t.group_by("node").aggregate([])
        return pa.table({"kb": hash_bucket(d["node"].combine_chunks(), nb),
                         "node": d["node"]})

    def start_walks(df: pd.DataFrame) -> pa.Table:
        nodes = df["node"].drop_duplicates()
        return from_pandas_clean(pd.DataFrame({
            "walk_id": nodes, "cur": nodes}))

    frontiers = [(adj.map_batches(node_distinct, batch_format="pyarrow")
                  .groupby("kb").map_groups(start_walks,
                                            batch_format="pandas")
                  .materialize())]

    def tag_adj(t: pa.Table) -> pa.Table:
        return pa.table({"kb": hash_bucket(t["node"].combine_chunks(), nb),
                         "key": t["node"], "nbr": t["nbr"],
                         "walk_id": pa.nulls(t.num_rows, pa.string())})

    def tag_frontier(t: pa.Table) -> pa.Table:
        return pa.table({"kb": hash_bucket(t["cur"].combine_chunks(), nb),
                         "key": t["cur"],
                         "nbr": pa.nulls(t.num_rows, pa.string()),
                         "walk_id": t["walk_id"]})

    empty_frontier = pa.schema([("walk_id", pa.string()),
                                ("cur", pa.string())])

    def make_hop(step: int):
        def hop(df: pd.DataFrame) -> pa.Table:
            f = df.loc[df["walk_id"].notna(), ["walk_id", "key"]]
            if not len(f):
                return pa.Table.from_pydict({"walk_id": [], "cur": []},
                                            schema=empty_frontier)
            a = df.loc[df["walk_id"].isna(), ["key", "nbr"]]
            nbrs = {k: np.sort(g["nbr"].to_numpy(dtype=object))
                    for k, g in a.groupby("key", sort=False)}
            outw, outc = [], []
            for wid, cur in zip(f["walk_id"], f["key"]):
                ns = nbrs[cur]  # loud KeyError if a walk ever dead-ends
                h = hashlib.md5(f"{wid}|{step}|{cur}".encode()).hexdigest()
                outw.append(wid)
                outc.append(ns[int(h[:15], 16) % len(ns)])
            return pa.Table.from_pydict({"walk_id": outw, "cur": outc},
                                        schema=empty_frontier)
        return hop

    for i in range(walk_len):
        frontiers.append(
            (adj.map_batches(tag_adj, batch_format="pyarrow")
             .union(frontiers[-1].map_batches(tag_frontier,
                                              batch_format="pyarrow"))
             .groupby("kb").map_groups(make_hop(i), batch_format="pandas")
             .materialize()))

    def stamp(step: int):
        def f(t: pa.Table) -> pa.Table:
            return pa.table({"walk_id": t["walk_id"],
                             "step": pa.array(
                                 np.full(t.num_rows, step, np.int64)),
                             "node": t["cur"]})
        return f

    out = frontiers[0].map_batches(stamp(0), batch_format="pyarrow")
    for i in range(1, walk_len + 1):
        out = out.union(frontiers[i].map_batches(stamp(i),
                                                 batch_format="pyarrow"))
    return out


WALK_PAIR_WINDOW = 2  # skip-gram context radius over walk positions


def kg_walk_pairs_ds(sf_dir: str, window: int = WALK_PAIR_WINDOW,
                     walks=None):
    """Skip-gram (center, context) training pairs from the deterministic
    walk corpus — the pair stream a graph-embedding trainer (DeepWalk /
    node2vec word2vec step) consumes; counted so repeated co-visits weight
    the pair. Composes kg_walks_ds (pass ``walks`` to reuse a checkpointed
    corpus).

    Scale shape: walk rows bucket on hash(walk_id) — a walk's walk_len+1
    positions land in one group, so pair generation is a per-bucket merge
    bounded by walk_len², never cross-walk; per-bucket partial counts then
    one groupby(center, context) sum."""
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from ..functions.arrowutils import hash_bucket, scale_buckets

    nb = scale_buckets(32, 2)
    if walks is None:
        walks = kg_walks_ds(sf_dir)

    def tag(t: pa.Table) -> pa.Table:
        return pa.table({"wb": hash_bucket(t["walk_id"].combine_chunks(), nb),
                         "walk_id": t["walk_id"], "step": t["step"],
                         "node": t["node"]})

    pair_schema = pa.schema([("center", pa.string()),
                             ("context", pa.string()), ("n", pa.int64())])

    def bucket_pairs(df: pd.DataFrame) -> pa.Table:
        d = df[["walk_id", "step", "node"]]
        m = d.merge(d, on="walk_id", suffixes=("_a", "_b"))
        gap = (m["step_a"] - m["step_b"]).abs()
        m = m[(gap >= 1) & (gap <= window)]
        agg = (m.groupby(["node_a", "node_b"], sort=False)
               .size().reset_index(name="n"))
        return pa.Table.from_pydict(
            {"center": agg["node_a"], "context": agg["node_b"],
             "n": agg["n"].astype("int64")}, schema=pair_schema)

    return (walks.map_batches(tag, batch_format="pyarrow")
            .groupby("wb").map_groups(bucket_pairs, batch_format="pandas")
            .groupby(["center", "context"])
            .aggregate(Sum("n", alias_name="n")))


ALIAS_EDIT_MAX = 2  # Levenshtein radius of the alias-candidate join


def _alias_vocab_ds(sf_dir: str, nb: int):
    """Globally DISTINCT mention surface forms (the alias vocabulary):
    per-batch distinct → alias-hash bucket co-group dedup. Everything
    downstream of this is vocabulary-sized, not corpus-sized."""
    import pandas as pd
    import pyarrow as pa

    from ..functions.arrowutils import hash_bucket
    from ..stages.extract import explode_mentions

    feats = (features_ds(sf_dir, columns=["conv_id", "turn_idx", "text",
                                          "role", "tool", "ts"])
             .select_columns(["conv_id", "turn_idx", "mentions"]))

    def batch_aliases(t: pa.Table) -> pa.Table:
        m = explode_mentions(t)
        if m.num_rows == 0:
            return pa.Table.from_pydict(
                {"ab": [], "alias": []},
                schema=pa.schema([("ab", pa.int64()), ("alias", pa.string())]))
        d = m.select(["alias"]).group_by("alias").aggregate([])
        return pa.table({"ab": hash_bucket(d["alias"].combine_chunks(), nb),
                         "alias": d["alias"]})

    def dedup(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates("alias")[["alias"]]

    return (feats.map_batches(batch_aliases, batch_format="pyarrow")
            .groupby("ab").map_groups(dedup, batch_format="pandas"))


def kg_alias_pairs_ds(sf_dir: str, max_dist: int = ALIAS_EDIT_MAX):
    """Gazetteer-expansion candidates: every pair of DISTINCT mention
    surface forms within Levenshtein distance <= max_dist — the alias-
    discovery pass a KG pipeline runs to catch misspelled/variant sigla
    the curated alias maps (rkts.yaml:38-113, J1/J2) don't list yet.

    EXACT without all-pairs, via the symmetric-delete (SymSpell)
    neighborhood join: lev(a, b) <= d implies the <= d-deletion
    neighborhoods of a and b intersect, so exploding each alias's
    deletion variants and co-grouping on the variant surfaces every
    qualifying pair as a candidate; ONE exact DP verification per
    deduplicated candidate then removes the (few) over-generated pairs.

    Scale shape: everything downstream of the first distinct is
    VOCABULARY-sized, not corpus-sized. Variants explode <=
    1 + L + L(L-1)/2 rows per alias (alias lengths are bounded);
    quadratic pair generation happens only within one variant's alias
    list (aliases sharing a 2-deletion core — the blocking key), and
    candidates are deduplicated on a pair-hash bucket before the DP."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..functions.arrowutils import hash_bucket, scale_buckets

    nb = scale_buckets(32, 2)
    vocab = _alias_vocab_ds(sf_dir, nb)

    def del_variants(s: str, d: int) -> set[str]:
        cur = {s}
        out = {s}
        for _ in range(d):
            cur = {t[:i] + t[i + 1:] for t in cur for i in range(len(t))}
            out |= cur
        return out

    var_schema = pa.schema([("vb", pa.int64()), ("variant", pa.string()),
                            ("alias", pa.string())])

    def explode_variants(t: pa.Table) -> pa.Table:
        aliases = t["alias"].to_pylist()
        vs, als = [], []
        for a in aliases:
            for v in del_variants(a, max_dist):
                vs.append(v)
                als.append(a)
        t = pa.Table.from_pydict({"variant": vs, "alias": als},
                                 schema=pa.schema([("variant", pa.string()),
                                                   ("alias", pa.string())]))
        return pa.Table.from_pydict(
            {"vb": hash_bucket(t["variant"].combine_chunks(), nb),
             "variant": t["variant"], "alias": t["alias"]},
            schema=var_schema)

    pair_schema = pa.schema([("pb", pa.int64()), ("a1", pa.string()),
                             ("a2", pa.string())])

    def variant_pairs(df: pd.DataFrame) -> pa.Table:
        o1, o2 = [], []
        for _, g in df.groupby("variant", sort=False):
            als = np.sort(g["alias"].drop_duplicates().to_numpy(dtype=object))
            if len(als) < 2:
                continue
            i, j = np.triu_indices(len(als), 1)
            o1.append(als[i])
            o2.append(als[j])
        if not o1:
            return pa.Table.from_pydict({"pb": [], "a1": [], "a2": []},
                                        schema=pair_schema)
        pr = pd.DataFrame({"a1": np.concatenate(o1),
                           "a2": np.concatenate(o2)}).drop_duplicates()
        key = pa.array((pr["a1"] + "\x1f" + pr["a2"]).to_numpy(dtype=object),
                       pa.string())
        return pa.Table.from_pydict(
            {"pb": hash_bucket(key, nb), "a1": pr["a1"], "a2": pr["a2"]},
            schema=pair_schema)

    def lev(a: str, b: str) -> int:
        if len(a) < len(b):
            a, b = b, a
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            cur = [i]
            for j, cb in enumerate(b, 1):
                cur.append(min(prev[j] + 1, cur[-1] + 1,
                               prev[j - 1] + (ca != cb)))
            prev = cur
        return prev[-1]

    out_schema = pa.schema([("a1", pa.string()), ("a2", pa.string()),
                            ("dist", pa.int64())])

    def verify(df: pd.DataFrame) -> pa.Table:
        pr = df[["a1", "a2"]].drop_duplicates()
        ds = [lev(x, y) for x, y in zip(pr["a1"], pr["a2"])]
        keep = pd.Series(ds, index=pr.index) <= max_dist
        return pa.Table.from_pydict(
            {"a1": pr["a1"][keep], "a2": pr["a2"][keep],
             "dist": pd.Series(ds, index=pr.index)[keep].astype("int64")},
            schema=out_schema)

    return (vocab.map_batches(explode_variants, batch_format="pyarrow")
            .groupby("vb").map_groups(variant_pairs, batch_format="pandas")
            .groupby("pb").map_groups(verify, batch_format="pandas"))


def kg_alias_clusters_ds(sf_dir: str, max_iters: int = 32, pairs=None):
    """Alias resolution: connected components over the kg_alias_pairs
    edit-distance graph, plus a canonical representative (min alias) per
    cluster — the data-derived gazetteer-expansion table an ER pass feeds
    back into the broadcast alias maps (the curated KTMapping/redirect
    maps, rkts.yaml:38-113 / kernelxmltottl.php:255-270, are the
    hand-maintained version of exactly this table). Singleton aliases
    (no near-miss within the edit radius) keep their own cluster, so the
    output covers the WHOLE vocabulary.

    EXACT, same machinery as kg_components_ds: component id = min 60-bit
    md5 over members, min-label propagation with one tagged co-group +
    min-reduce per round (shared _tagged_min_step), label vector
    checkpointed between rounds, convergence certified by the exact
    big-int label sum, and exhausting max_iters RAISES (no silent caps).

    Scale shape: the whole op is VOCABULARY-sized (the alias universe is
    the ST2 gazetteer bound, orders of magnitude below the corpus); the
    representative join is one groupby over the final cluster table."""
    import hashlib
    import os

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Min

    from ..functions.arrowutils import (from_pandas_clean, hash_bucket,
                                        scale_buckets)

    nb = scale_buckets(floor=16, per_cpu=2)
    if pairs is None:
        pairs = kg_alias_pairs_ds(sf_dir)
    vocab = _alias_vocab_ds(sf_dir, nb)

    def sym(t: pa.Table) -> pa.Table:
        a = pc.cast(t["a1"].combine_chunks(), pa.string())
        b = pc.cast(t["a2"].combine_chunks(), pa.string())
        src = pa.concat_arrays([a, b])
        dst = pa.concat_arrays([b, a])
        return pa.table({"kb": hash_bucket(src, nb), "src": src, "dst": dst})

    edges = pairs.map_batches(sym, batch_format="pyarrow").materialize()

    def init_labels(t: pa.Table) -> pa.Table:
        als = t["alias"].to_pylist()
        lbl = np.fromiter(
            (int(hashlib.md5(a.encode()).hexdigest()[:15], 16) for a in als),
            dtype="int64", count=len(als))
        return pa.table({"node": pa.array(als, pa.string()),
                         "lbl": pa.array(lbl)})

    labels = _checkpoint(
        vocab.map_batches(init_labels, batch_format="pyarrow"),
        os.path.join(_session_ckpt_root(), "alias_cc_init"))
    prev_sum = _exact_i64_sum(labels, "lbl")

    converged = False
    for it in range(max_iters):
        labels = _checkpoint(
            _tagged_min_step(edges, labels, nb, val="lbl", bump=0),
            os.path.join(_session_ckpt_root(), f"alias_cc_{it}"))
        cur_sum = _exact_i64_sum(labels, "lbl")
        if cur_sum == prev_sum:
            converged = True
            break
        prev_sum = cur_sum
    if not converged:
        raise RuntimeError(
            f"kg_alias_clusters: min-label propagation did not reach a "
            f"fixpoint within max_iters={max_iters} rounds; raise max_iters")

    def lbl_bucket(t: pa.Table) -> pa.Table:
        # lb = lbl % nb (labels are non-negative 60-bit ints)
        q = pc.divide(t["lbl"], pa.scalar(nb, pa.int64()))
        lb = pc.subtract(t["lbl"], pc.multiply(q, pa.scalar(nb, pa.int64())))
        return t.append_column("lb", pc.cast(lb, pa.int64()))

    def attach_rep(df: pd.DataFrame) -> pa.Table:
        rep = df.groupby("lbl", sort=False)["node"].transform("min")
        return from_pandas_clean(pd.DataFrame({
            "alias": df["node"],
            "component": df["lbl"].astype("int64"),
            "rep_alias": rep}))

    return (labels.map_batches(lbl_bucket, batch_format="pyarrow")
            .groupby("lb").map_groups(attach_rep, batch_format="pandas"))


# transcript markup families (fixtures.py:20-28 grammar; the reference's
# analogs are the inline markers editionxmltottl.php/kernelxmltottl.php
# parse out of catalog text). Order is irrelevant: no pattern's match can
# produce another's (loc{ never matches inside locs{ — next char differs).
MARKER_PATTERNS = (
    r"ttl\[\w+\]\{[^}]*\}",     # titles
    r"cr\[[^\]]*\]\{[^}]*\}",   # creators
    r"chls\{[^}]*\}",           # chapter locations, chemdo dialect
    r"chl\{[^}]*\}",            # chapter locations, bampo/chap dialect
    r"locs\{[^}]*\}",           # simple-dialect locations
    r"loc\{[^}]*\}",            # full-dialect locations
    r"sec\{[^}]*\}",            # section rollovers
    r"@\[[^\]]*\]",             # entity mentions
)


def conv_clean_text_ds(sf_dir: str):
    """Markup-stripped per-turn training text: every inline marker family
    removed, whitespace collapsed, plus the removed-marker count — the
    clean-text EXPORT step a training pipeline runs on an annotated corpus
    before packing (conv_flatten/sft_examples keep the markers because the
    KG passes need them; this is the text a tokenizer should see).

    Pure map over Arrow string kernels (count_substring_regex /
    replace_substring_regex — RE2, the same engine as the DuckDB twin), no
    shuffle, no Python in the row path."""
    import numpy as np
    import pyarrow as pa

    def clean(t: pa.Table) -> pa.Table:
        text = t["text"].combine_chunks()
        text = pc.if_else(pc.is_valid(text), text, pa.scalar("", pa.string()))
        # counts over the ORIGINAL text (families never overlap there);
        # replacements run sequentially afterwards
        n = pa.array(np.zeros(len(text), np.int64))
        for pat in MARKER_PATTERNS:
            n = pc.add(n, pc.cast(pc.count_substring_regex(text, pat),
                                  pa.int64()))
        for pat in MARKER_PATTERNS:
            text = pc.replace_substring_regex(text, pat, "")
        text = pc.utf8_trim_whitespace(
            pc.replace_substring_regex(text, r"\s+", " "))
        return pa.table({"conv_id": t["conv_id"],
                         "turn_idx": pc.cast(t["turn_idx"], pa.int64()),
                         "clean_text": text, "n_markers": n})

    return readers.read_transcripts(
        sf_dir, columns=["conv_id", "turn_idx", "text"]).map_batches(
            clean, batch_format="pyarrow", zero_copy_batch=True)


# sensitive-span families for the PII-scrubber pair below. The first three
# are the standard PII surface of a web-corpus pipeline (exercised by unit
# tests; the synthetic corpus contains none by construction); the identifier
# families are the fixture's own "sensitive ids" — entity mentions and
# location/chapter refs (fixtures.py:20-28), the rKTs analog of user
# identifiers. Patterns are RE2-compatible AND Rust-regex-compatible (no
# backrefs/lookaround), so polars extract_all and the DuckDB twin agree;
# each family is extracted from the ORIGINAL text independently, so family
# order and overlap cannot change any family's match stream.
PII_PATTERNS = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"),
    ("ipv4", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"),
    ("phone", r"\+\d{1,3}[ -]\d{3}[ -]\d{4}"),
    ("entity_id", r"@\[[^\]]*\]"),
    ("location_ref", r"locs?\{[^}]*\}"),
    ("chapter_ref", r"chls?\{[^}]*\}"),
)


def conv_pii_spans_ds(sf_dir: str):
    """Typed sensitive-span extraction (the audit table a PII scrubber
    emits before redacting): one row per (turn, family, match ordinal)
    with the matched span text, in document order. Pure per-batch map —
    polars extract_all (vectorized Rust regex) + explode, no Python in
    the row path, no shuffle; match_idx is batch-local-safe because a
    turn's rows never straddle a batch (each input row IS one turn)."""
    import polars as pl

    def spans(t) -> "pa.Table":
        import pyarrow as pa

        df = pl.from_arrow(t).with_columns(
            pl.col("text").fill_null(""),
            pl.col("turn_idx").cast(pl.Int64))
        outs = []
        for fam, pat in PII_PATTERNS:
            e = (df.select(
                    "conv_id", "turn_idx",
                    pl.col("text").str.extract_all(pat).alias("span"))
                 .explode("span").drop_nulls("span"))
            outs.append(e.with_columns(
                pl.lit(fam).alias("family"),
                pl.int_range(pl.len()).over(["conv_id", "turn_idx"])
                  .alias("match_idx"))
                .select("conv_id", "turn_idx", "family", "match_idx", "span"))
        out = pl.concat(outs)
        return out.to_arrow().cast(pa.schema([
            ("conv_id", pa.string()), ("turn_idx", pa.int64()),
            ("family", pa.string()), ("match_idx", pa.int64()),
            ("span", pa.string())]))

    return readers.read_transcripts(
        sf_dir, columns=["conv_id", "turn_idx", "text"]).map_batches(
            spans, batch_format="pyarrow", zero_copy_batch=True)


def conv_pii_redact_ds(sf_dir: str):
    """Redacted per-turn text: every sensitive span replaced by a typed
    `<FAMILY>` placeholder (redaction, not deletion — downstream training
    keeps the discourse shape), plus the total replaced-span count.
    Counts are taken per family on the ORIGINAL text, replacements run
    sequentially in PII_PATTERNS order (families don't overlap on real
    matches, so the order is a tie-break, not a semantic). Pure Arrow
    RE2 kernel map like conv_clean_text_ds — no shuffle."""
    import numpy as np
    import pyarrow as pa

    def redact(t: pa.Table) -> pa.Table:
        text = t["text"].combine_chunks()
        text = pc.if_else(pc.is_valid(text), text, pa.scalar("", pa.string()))
        n = pa.array(np.zeros(len(text), np.int64))
        for _, pat in PII_PATTERNS:
            n = pc.add(n, pc.cast(pc.count_substring_regex(text, pat),
                                  pa.int64()))
        for fam, pat in PII_PATTERNS:
            text = pc.replace_substring_regex(
                text, pat, "<" + fam.upper() + ">")
        return pa.table({"conv_id": t["conv_id"],
                         "turn_idx": pc.cast(t["turn_idx"], pa.int64()),
                         "redacted_text": text, "n_redacted": n})

    return readers.read_transcripts(
        sf_dir, columns=["conv_id", "turn_idx", "text"]).map_batches(
            redact, batch_format="pyarrow", zero_copy_batch=True)


KHOP_K = 4          # BFS depth bound
KHOP_SEED_PREFIX = "C:"   # conversation root nodes seed the frontier


def _tagged_min_step(edges, labels, nb: int, val: str, bump: int):
    """ONE label-propagation round, the skeleton shared by kg_khop_ds
    (val='dist', bump=1 — BFS relax) and kg_components_ds (val='lbl',
    bump=0 — min-label propagation): edges (kb, src, dst) tagged 0 union
    the current label vector tagged 1 → bucket co-group where every edge
    forwards its source's value (+bump) to its target → groupby(node)
    min-reduce. Payload per round: one int64 per node + one per edge."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Min

    from ..functions.arrowutils import hash_bucket

    def e_tag(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({"kb": t["kb"], "tag": pa.array(np.zeros(n, np.int8)),
                         "key": t["src"], "dst": t["dst"],
                         val: pa.array(np.zeros(n, np.int64))})

    def l_tag(t: pa.Table) -> pa.Table:
        node = t["node"].combine_chunks()
        n = t.num_rows
        return pa.table({"kb": hash_bucket(node, nb),
                         "tag": pa.array(np.ones(n, np.int8)),
                         "key": node, "dst": pa.nulls(n, pa.string()),
                         val: t[val]})

    def relax_bucket(df: pd.DataFrame) -> pd.DataFrame:
        lab = df.loc[df["tag"] == 1, ["key", val]]
        e = df.loc[df["tag"] == 0, ["key", "dst"]]
        m = e.merge(lab, on="key", how="inner")
        return pd.DataFrame({
            "node": pd.concat([lab["key"], m["dst"]], ignore_index=True),
            val: pd.concat([lab[val], m[val] + bump],
                           ignore_index=True).astype("int64")})

    return (edges.map_batches(e_tag, batch_format="pyarrow")
            .union(labels.map_batches(l_tag, batch_format="pyarrow"))
            .groupby("kb").map_groups(relax_bucket, batch_format="pandas")
            .groupby("node").aggregate(Min(val, alias_name=val)))


def _exact_i64_sum(ds, col: str):
    """EXACT sum of a non-negative int64 column as a Python big int: the
    hi/lo 30-bit halves are summed separately (neither can wrap int64 below
    ~2³³ rows) and recombined driver-side — used for convergence scalars
    over 60-bit label values, where a plain int64 sum would wrap and make
    the monotone-decrease argument silently false."""
    import pyarrow as pa
    from ray.data.aggregate import Sum

    parts = ds.map_batches(
        lambda t: pa.table({
            "hi": pc.shift_right(pc.cast(t[col], pa.int64()), 30),
            "lo": pc.bit_wise_and(pc.cast(t[col], pa.int64()),
                                  (1 << 30) - 1)}),
        batch_format="pyarrow")
    agg = parts.aggregate(Sum("hi"), Sum("lo"))
    if not agg or agg.get("sum(hi)") is None:
        return 0
    return int(agg["sum(hi)"]) * (1 << 30) + int(agg["sum(lo)"])


def kg_khop_ds(sf_dir: str, k: int = KHOP_K,
               cfg: PipelineConfig = DEFAULT_CONFIG):
    """K-hop BFS over the (undirected) resource graph: min distance ≤ ``k``
    from any conversation root node — the bounded-depth reachability
    primitive (impact radius / neighborhood extraction) next to
    kg_pagerank's fixed-iteration ranking.

    EXACT and bounded: distances are integers, the depth bound makes both
    sides finite, and min-reduce is order-independent, so the distributed
    result hash-matches the depth-limited recursive-CTE twin.

    Scale shape (same skeleton as kg_pagerank): the symmetric edge set is
    bucketed on hash(src) and materialized once; each of the k rounds is
    ONE tagged co-group (current labels join edges in-bucket, emitting
    dist+1 candidates) followed by a min-reduce groupby(node), with the
    label vector CHECKPOINTED to Parquet between rounds (materialize() of
    a union-rooted plan re-executes per consumer on this Ray version).
    Payload per round: one int64 per discovered node + one per edge whose
    source is discovered."""
    import os

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Min

    from ..functions.arrowutils import hash_bucket, scale_buckets
    from ..functions.ntriples import OBJ_URI_PREDS

    nb = scale_buckets(floor=16, per_cpu=2)
    uri_preds = pa.array(sorted(OBJ_URI_PREDS), pa.string())

    def edge_rows(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["pred"].combine_chunks(), value_set=uri_preds)
        t = t.filter(keep)
        a = pc.cast(t["subj"].combine_chunks(), pa.string())
        b = pc.cast(t["obj"].combine_chunks(), pa.string())
        src = pa.concat_arrays([a, b])
        dst = pa.concat_arrays([b, a])
        return pa.table({"kb": hash_bucket(src, nb), "src": src, "dst": dst})

    edges = (kg_triples_ds(sf_dir, cfg)
             .map_batches(edge_rows, batch_format="pyarrow",
                          zero_copy_batch=True)
             .materialize())

    def seed_rows(t: pa.Table) -> pa.Table:
        both = pc.unique(pa.concat_arrays([t["src"].combine_chunks(),
                                           t["dst"].combine_chunks()]))
        seeds = both.filter(pc.starts_with(both, KHOP_SEED_PREFIX))
        return pa.table({"node": seeds,
                         "dist": pa.array(np.zeros(len(seeds), np.int64))})

    labels = (edges.map_batches(seed_rows, batch_format="pyarrow")
              .groupby("node").aggregate(Min("dist", alias_name="dist"))
              .materialize())
    ckpt_dir = _session_ckpt_root()

    for it in range(k):
        labels = _checkpoint(
            _tagged_min_step(edges, labels, nb, val="dist", bump=1),
            os.path.join(ckpt_dir, f"khop_{it}"))

    return labels.map_batches(
        lambda t: pa.table({"node": t["node"],
                            "dist": pc.cast(t["dist"], pa.int64())})
        .filter(pc.less_equal(pc.cast(t["dist"], pa.int64()),
                              pa.scalar(k, pa.int64()))),
        batch_format="pyarrow")


ANC_MAX_ROUNDS = 6  # doubling: reachable depth 2^6 = 64 levels


def kg_ancestors_ds(sf_dir: str, cfg: PipelineConfig = DEFAULT_CONFIG,
                    max_rounds: int = ANC_MAX_ROUNDS):
    """Ancestor closure of the ``tr:partOf`` hierarchy: every
    (node, anc, depth) pair reachable by following partOf edges upward —
    the transitive-closure primitive behind "which root does this part
    ultimately belong to" rollups. The reference walks this chain
    per-record inside nested loops (editionxmltottl.php:21-289 resolves
    each text's section→volume→edition containment one parent at a time);
    here the whole closure is data-parallel.

    EXACT via pointer DOUBLING: the path set P starts as the direct
    edges (depth 1); each round unions P with P⋈P (x.anc = y.node →
    (x.node, y.anc, x.depth + y.depth)) and min-reduces on (node, anc).
    Reachable depth doubles per round, so a hierarchy of depth d closes
    in ceil(log2 d) rounds — not d rounds like naive relaxation. partOf
    is single-parent (validated: one edge per subject), so each
    (node, anc) pair has a unique depth and the min-reduce is pure dedup.

    Scale shape: each round is ONE tagged co-group on hash(join key)
    (extend side keyed by its anc, base side keyed by its node) plus a
    (node, anc) dedup groupby, CHECKPOINTED to Parquet so the iterative
    plan never re-executes upstream rounds; payload is three scalars per
    path row (n·d rows total). Convergence is an exact row-count
    fixpoint; exhausting ``max_rounds`` raises (no silent caps)."""
    import os

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Min

    from ..functions.arrowutils import hash_bucket, scale_buckets

    nb = scale_buckets(floor=16, per_cpu=2)

    def edge_rows(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["pred"].combine_chunks(),
                              pa.scalar("tr:partOf")))
        return pa.table({
            "node": pc.cast(t["subj"].combine_chunks(), pa.string()),
            "anc": pc.cast(t["obj"].combine_chunks(), pa.string()),
            "depth": pa.array(np.ones(t.num_rows, np.int64))})

    ckpt_dir = _session_ckpt_root()
    paths = _checkpoint(
        kg_triples_ds(sf_dir, cfg)
        .map_batches(edge_rows, batch_format="pyarrow",
                     zero_copy_batch=True),
        os.path.join(ckpt_dir, "anc_0"))
    n_prev = paths.count()

    # tagged co-group: tag 0 = extend side keyed by anc (its ancestor chain
    # continues where some base row starts), tag 1 = base side keyed by node
    def x_tag(t: pa.Table) -> pa.Table:
        key = t["anc"].combine_chunks()
        return pa.table({"kb": hash_bucket(key, nb),
                         "tag": pa.array(np.zeros(t.num_rows, np.int8)),
                         "key": key, "a": t["node"], "d": t["depth"]})

    def y_tag(t: pa.Table) -> pa.Table:
        key = t["node"].combine_chunks()
        return pa.table({"kb": hash_bucket(key, nb),
                         "tag": pa.array(np.ones(t.num_rows, np.int8)),
                         "key": key, "a": t["anc"], "d": t["depth"]})

    anc_schema = pa.schema([("node", pa.string()), ("anc", pa.string()),
                            ("depth", pa.int64())])

    def relax(df: pd.DataFrame) -> pa.Table:
        x = df.loc[df["tag"] == 0, ["key", "a", "d"]]
        y = df.loc[df["tag"] == 1, ["key", "a", "d"]]
        m = x.merge(y, on="key", suffixes=("_x", "_y"))
        # Arrow output so the union with the Arrow-typed base never mixes
        # block types (and empty groups carry the schema)
        return pa.Table.from_pydict(
            {"node": m["a_x"], "anc": m["a_y"],
             "depth": (m["d_x"] + m["d_y"]).astype("int64")},
            schema=anc_schema)

    for it in range(1, max_rounds + 1):
        joined = (paths.map_batches(x_tag, batch_format="pyarrow")
                  .union(paths.map_batches(y_tag, batch_format="pyarrow"))
                  .groupby("kb").map_groups(relax, batch_format="pandas"))
        paths = _checkpoint(
            paths.union(joined)
            .groupby(["node", "anc"])
            .aggregate(Min("depth", alias_name="depth")),
            os.path.join(ckpt_dir, f"anc_{it}"))
        n_cur = paths.count()
        if n_cur == n_prev:
            break
        n_prev = n_cur
    else:
        raise RuntimeError(
            f"kg_ancestors did not reach the closure fixpoint within "
            f"max_rounds={max_rounds} doubling rounds (hierarchy depth "
            f"> {2 ** max_rounds}); raise max_rounds")

    return paths.map_batches(
        lambda t: pa.table({"node": t["node"], "anc": t["anc"],
                            "depth": pc.cast(t["depth"], pa.int64())}),
        batch_format="pyarrow")


NEG_BUCKETS = 64  # FIXED pool-bucket count: results are cluster-size independent


def kg_negative_samples_ds(sf_dir: str, cfg: PipelineConfig = DEFAULT_CONFIG):
    """Deterministic negative sampling over the resource graph: ONE
    corrupted (subj, pred, neg_obj) per positive resource-valued edge —
    the training-pair generator a TransE/DistMult-style KG-embedding job
    consumes next to the positive triples.

    Deterministic and EXACT: the replacement entity is addressed by a
    two-level md5 scheme — a triple hashes to pool bucket
    md5(s␟p␟o)[:15] % 64 and index md5(s␟p␟o)[16:31] % |bucket| into that
    bucket's SORTED distinct-node list; the SQL twin rebuilds the same
    (bucket, rank) address with substr(md5(..)) + row_number. Collisions
    with the true object are kept and flagged (is_self), never re-rolled —
    re-rolling would make the sample depend on iteration order.

    Scale shape: the entity pool is NEVER broadcast and the corpus never
    globally sorted — pool rows (per-batch-deduped) and triple rows meet
    in ONE tagged co-group on the fixed 64-bucket key, where the bucket's
    pool is deduped/sorted locally (bucket-bounded: |nodes|/64 rows) and
    the lookup is a vectorized take. A triple whose bucket holds no pool
    node is dropped (inner-join semantics, matching the twin); with the
    pool drawn from the same edges, every bucket is populated at any
    realistic scale."""
    import hashlib

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..functions.ntriples import OBJ_URI_PREDS

    uri_preds = pa.array(sorted(OBJ_URI_PREDS), pa.string())
    NB = NEG_BUCKETS

    tag_schema = pa.schema([
        ("nb", pa.int64()), ("tag", pa.int8()), ("subj", pa.string()),
        ("pred", pa.string()), ("obj", pa.string()), ("ih", pa.int64()),
        ("node", pa.string())])

    def tagged_rows(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["pred"].combine_chunks(),
                              value_set=uri_preds))
        df = t.select(["subj", "pred", "obj"]).to_pandas()
        hx = [hashlib.md5(f"{a}\x1f{b}\x1f{c}".encode()).hexdigest()
              for a, b, c in zip(df["subj"], df["pred"], df["obj"])]
        nb_t = np.array([int(h[:15], 16) % NB for h in hx], dtype=np.int64)
        ih = np.array([int(h[16:31], 16) for h in hx], dtype=np.int64)
        nodes = pd.unique(pd.concat([df["subj"], df["obj"]],
                                    ignore_index=True))
        nb_p = np.array([int(hashlib.md5(x.encode()).hexdigest()[:15], 16)
                         % NB for x in nodes], dtype=np.int64)
        nt, npl = len(df), len(nodes)
        return pa.Table.from_pydict({
            "nb": np.concatenate([nb_t, nb_p]),
            "tag": np.concatenate([np.ones(nt, np.int8),
                                   np.zeros(npl, np.int8)]),
            "subj": np.concatenate([df["subj"].to_numpy(object),
                                    np.full(npl, "", object)]),
            "pred": np.concatenate([df["pred"].to_numpy(object),
                                    np.full(npl, "", object)]),
            "obj": np.concatenate([df["obj"].to_numpy(object),
                                   np.full(npl, "", object)]),
            "ih": np.concatenate([ih, np.zeros(npl, np.int64)]),
            "node": np.concatenate([np.full(nt, "", object), nodes]),
        }, schema=tag_schema)

    out_schema = pa.schema([
        ("subj", pa.string()), ("pred", pa.string()), ("obj", pa.string()),
        ("neg_obj", pa.string()), ("is_self", pa.int64())])

    def corrupt(df: pd.DataFrame) -> pa.Table:
        pool = np.unique(df.loc[df["tag"] == 0, "node"].to_numpy(object))
        trip = df[df["tag"] == 1]
        if not len(pool) or not len(trip):
            return pa.Table.from_pydict(
                {k: [] for k in out_schema.names}, schema=out_schema)
        neg = pool[trip["ih"].to_numpy("int64") % len(pool)]
        obj = trip["obj"].to_numpy(object)
        return pa.Table.from_pydict({
            "subj": trip["subj"].to_numpy(object),
            "pred": trip["pred"].to_numpy(object), "obj": obj,
            "neg_obj": neg,
            "is_self": (neg == obj).astype("int64")}, schema=out_schema)

    return (kg_triples_ds(sf_dir, cfg)
            .map_batches(tagged_rows, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby("nb").map_groups(corrupt, batch_format="pandas"))


def _mention_ts_union(sf_dir: str, nb: int):
    """Tagged union feeding the conv-bucket co-group shared by
    kg_entity_lifespan_ds and kg_pair_formation_ds: linked mention rows
    (tag 0: conv, turn, entity) ∪ the pruned transcript stream (tag 1:
    conv, turn, ts as int64 epoch MICROS — cast in Arrow BEFORE any pandas
    conversion, which would silently switch the unit to nanos)."""
    import numpy as np
    import pyarrow as pa

    from ..functions.arrowutils import hash_bucket

    def m_tag(t: pa.Table) -> pa.Table:
        conv = pc.cast(t["conv_id"].combine_chunks(), pa.string())
        n = t.num_rows
        return pa.table({
            "cb": hash_bucket(conv, nb),
            "tag": pa.array(np.zeros(n, np.int8)),
            "conv_id": conv,
            "turn_idx": pc.cast(t["turn_idx"], pa.int64()),
            "entity_uri": pc.cast(t["entity_uri"].combine_chunks(),
                                  pa.string()),
            "ts_us": pa.nulls(n, pa.int64()),
        })

    def t_tag(t: pa.Table) -> pa.Table:
        conv = pc.cast(t["conv_id"].combine_chunks(), pa.string())
        n = t.num_rows
        return pa.table({
            "cb": hash_bucket(conv, nb),
            "tag": pa.array(np.ones(n, np.int8)),
            "conv_id": conv,
            "turn_idx": pc.cast(t["turn_idx"], pa.int64()),
            "entity_uri": pa.nulls(n, pa.string()),
            "ts_us": pc.cast(t["ts"], pa.int64()),
        })

    linked = linked_mentions_ds(sf_dir).select_columns(
        ["conv_id", "turn_idx", "entity_uri"])
    ts = readers.read_transcripts(sf_dir, columns=["conv_id", "turn_idx",
                                                   "ts"])
    return (linked.map_batches(m_tag, batch_format="pyarrow")
            .union(ts.map_batches(t_tag, batch_format="pyarrow",
                                  zero_copy_batch=True)))


def _mention_ts_join(df):
    """Inside one conv bucket: join the tagged halves back into
    (conv_id, turn_idx, entity_uri, ts_us) mention rows with int64 micros."""
    m = df.loc[df["tag"] == 0, ["conv_id", "turn_idx", "entity_uri"]]
    ts = df.loc[df["tag"] == 1, ["conv_id", "turn_idx", "ts_us"]].copy()
    ts["ts_us"] = ts["ts_us"].astype("int64")  # NaN-free after the split
    return m.merge(ts, on=["conv_id", "turn_idx"], how="inner")


def kg_entity_lifespan_ds(sf_dir: str):
    """Per-entity temporal profile over the mention stream: first/last
    mention timestamp (epoch micros), distinct-conversation count, and
    mention-turn count — the freshness/coverage signal a KG build feeds to
    entity ranking and staleness pruning (the reference's analog is the
    per-work instance census ST4 builds across the edition pass,
    migrate.php:99 + editionxmltottl.php:49-53, with `ts` as the engine's
    temporal axis per the input_hint schema).

    EXACT: min/max/count over integers (epoch micros), order-independent.

    Scale shape: the linked mention rows (conv_id, turn_idx, entity_uri —
    already deduped per turn inside the linker call) meet the pruned
    (conv_id, turn_idx, ts) stream in ONE tagged co-group on a
    CONV-HASH-BUCKET key; because every row of a conversation lands in its
    conv's bucket, the per-(entity, conv) partial computed inside the bucket
    is globally complete — the final groupby(entity_uri) then ships ONE row
    per (entity, conv), never per mention. A hub entity spreads over its
    conversations in the first exchange, so key skew cannot concentrate
    mention rows into one task."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Max, Min, Sum

    from ..functions.arrowutils import from_pandas_clean, scale_buckets

    nb = scale_buckets(floor=16, per_cpu=2)

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        j = _mention_ts_join(df)
        g = (j.groupby(["entity_uri", "conv_id"], sort=False)["ts_us"]
             .agg(first_ts_us="min", last_ts_us="max", n_turns="size")
             .reset_index())
        return from_pandas_clean(pd.DataFrame({
            "entity_uri": g["entity_uri"],
            "first_ts_us": g["first_ts_us"].astype("int64"),
            "last_ts_us": g["last_ts_us"].astype("int64"),
            "n_turns": g["n_turns"].astype("int64"),
            "n_convs": pd.Series(np.ones(len(g), np.int64)),
        }))

    agg = (_mention_ts_union(sf_dir, nb)
           .groupby("cb").map_groups(per_bucket, batch_format="pandas")
           .groupby("entity_uri")
           .aggregate(Sum("n_convs", alias_name="n_convs"),
                      Sum("n_turns", alias_name="n_turns"),
                      Min("first_ts_us", alias_name="first_ts_us"),
                      Max("last_ts_us", alias_name="last_ts_us")))
    return agg.map_batches(
        lambda t: pa.table({
            "entity_uri": t["entity_uri"],
            "n_convs": pc.cast(t["n_convs"], pa.int64()),
            "n_turns": pc.cast(t["n_turns"], pa.int64()),
            "first_ts_us": pc.cast(t["first_ts_us"], pa.int64()),
            "last_ts_us": pc.cast(t["last_ts_us"], pa.int64())}),
        batch_format="pyarrow")


def kg_components_ds(sf_dir: str, max_iters: int = 32):
    """Connected components over the entity co-occurrence graph — the
    entity-clustering step after relation discovery (the KG-side analog of
    docs.dedup_clusters_ds; the reference's KTMapping alias merging J1/J2 is
    the 1-hop special case of this transitive closure).

    Component id = min 60-bit md5 of the member URIs, the repo's standard
    SQL-replicable hash (collision odds ~n²/2⁶¹ — negligible, and the oracle
    applies the SAME hash, so parity is exact regardless).

    Scale shape (same skeleton as kg_khop, plus the dedup_clusters
    convergence loop): symmetric edges bucketed on hash(src) and
    materialized once; each round is ONE tagged co-group (labels meet edges
    in-bucket, each edge forwards its source's label to its target) followed
    by a min-reduce groupby(node), the label vector checkpointed to Parquet
    between rounds (both via the shared _tagged_min_step). Convergence is a
    driver-side SCALAR — sum(lbl) strictly decreases until fixpoint (labels
    only ever decrease under min-reduce), computed as an EXACT Python big
    int via _exact_i64_sum (a plain int64 sum of 60-bit labels wraps and
    voids the monotonicity argument) — and exhausting max_iters RAISES (no
    silent caps). Rounds needed = graph diameter; payload per round = one
    int64 per node + one per edge."""
    import hashlib
    import os

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Min

    from ..functions.arrowutils import hash_bucket, scale_buckets

    nb = scale_buckets(floor=16, per_cpu=2)

    def sym(t: pa.Table) -> pa.Table:
        a = pc.cast(t["e1"].combine_chunks(), pa.string())
        b = pc.cast(t["e2"].combine_chunks(), pa.string())
        src = pa.concat_arrays([a, b])
        dst = pa.concat_arrays([b, a])
        return pa.table({"kb": hash_bucket(src, nb), "src": src, "dst": dst})

    edges = (cooccurrence_ds(sf_dir)
             .select_columns(["e1", "e2"])
             .map_batches(sym, batch_format="pyarrow")
             .materialize())

    def init_labels(t: pa.Table) -> pa.Table:
        # hash each DISTINCT uri once per batch (per-row md5 of both edge
        # endpoints would hash a hub ~2× its degree), then map
        src = pd.Series(t["src"].to_pylist(), dtype=object)
        dst = pd.Series(t["dst"].to_pylist(), dtype=object)
        uniq = pd.unique(pd.concat([src, dst], ignore_index=True))
        hmap = {s: int(hashlib.md5(s.encode()).hexdigest()[:15], 16)
                for s in uniq}
        hs = src.map(hmap).to_numpy(dtype="int64")
        hd = dst.map(hmap).to_numpy(dtype="int64")
        # seed = min(h(self), h(neighbor)) per edge row — saves one round
        return pa.table({"node": t["src"],
                         "lbl": pa.array(np.minimum(hs, hd))})

    labels = _checkpoint(
        edges.map_batches(init_labels, batch_format="pyarrow")
        .groupby("node").aggregate(Min("lbl", alias_name="lbl")),
        os.path.join(_session_ckpt_root(), "comp_init"))
    prev_sum = _exact_i64_sum(labels, "lbl")

    converged = False
    for it in range(max_iters):
        labels = _checkpoint(
            _tagged_min_step(edges, labels, nb, val="lbl", bump=0),
            os.path.join(_session_ckpt_root(), f"comp_{it}"))
        cur_sum = _exact_i64_sum(labels, "lbl")
        if cur_sum == prev_sum:
            converged = True
            break
        prev_sum = cur_sum
    if not converged:
        raise RuntimeError(
            f"kg_components: min-label propagation did not reach a fixpoint "
            f"within max_iters={max_iters} rounds; raise max_iters")

    return labels.map_batches(
        lambda t: pa.table({"entity_uri": t["node"],
                            "component": pc.cast(t["lbl"], pa.int64())}),
        batch_format="pyarrow")


def kg_pmi_ds(sf_dir: str):
    """Pointwise mutual information per co-occurring entity pair —
    pmi = ln(n_ab·N / (n_a·n_b)) over conversation counts — the association
    score that separates systematically-related entity pairs from pairs
    that merely share popular conversations (relation-strength ranking on
    top of kg_cooccurrence's raw counts).

    Float parity: DuckDB's ``ln`` is libm-exact, numpy's vectorized log is
    not (≈20% of values differ in the last ulp), so the score uses scalar
    ``math.log`` per pair; ``round_half_away`` then matches SQL round().

    Scale shape: per-entity conversation counts are a conv-bucket co-group
    (distinct-per-conv complete in-bucket, one (entity, n) partial per
    bucket) → tiny groupby(entity) sum; the resulting entity-count table is
    BOUNDED BY THE ALIAS VOCABULARY (the same bound as the ST2 gazetteer
    broadcast), so it ships driver → ray.put → per-batch dict lookup, and
    the pair stream is scored in one map — no pair-side shuffle at all.
    N (distinct conversations) is one tiny aggregate. The linker runs ONCE:
    its (conv, entity) stream is checkpointed and feeds both the entity
    counts and the co-occurrence pair build (linking is the dominant stage
    at scale — paying it twice doubled this query's wall)."""
    import math
    import os

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray
    from ray.data.aggregate import Sum

    from ..functions.arrowutils import (from_pandas_clean, hash_bucket,
                                        round_half_away, scale_buckets)

    nb = scale_buckets(floor=16, per_cpu=2)
    linked = _checkpoint(
        linked_mentions_ds(sf_dir)
        .select_columns(["conv_id", "entity_uri"]),
        os.path.join(_session_ckpt_root(), "pmi_linked"))

    # N: exact distinct-conversation count (per-batch unique combiner →
    # one row per (conv, block) into the count shuffle)
    n_convs = (readers.read_transcripts(sf_dir, columns=["conv_id"])
               .map_batches(lambda t: pa.table(
                   {"conv_id": pc.unique(t["conv_id"].combine_chunks())}),
                   batch_format="pyarrow", zero_copy_batch=True)
               .groupby("conv_id").count().count())

    def tag_bucket(t: pa.Table) -> pa.Table:
        conv = pc.cast(t["conv_id"].combine_chunks(), pa.string())
        return pa.table({"cb": hash_bucket(conv, nb), "conv_id": conv,
                         "entity_uri": t["entity_uri"]})

    def count_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = (df[["conv_id", "entity_uri"]].drop_duplicates()
             .groupby("entity_uri", sort=False).size())
        return pd.DataFrame({"entity_uri": g.index.to_numpy(dtype=object),
                             "n": g.to_numpy(dtype="int64")})

    ecnt = (linked
            .map_batches(tag_bucket, batch_format="pyarrow")
            .groupby("cb").map_groups(count_bucket, batch_format="pandas")
            .groupby("entity_uri").aggregate(Sum("n", alias_name="n"))
            ).to_pandas()
    ecnt_ref = ray.put(dict(zip(ecnt["entity_uri"], ecnt["n"].astype(int))))
    n_f = float(n_convs)

    def score(t: pa.Table) -> pa.Table:
        # stateless task + ray.get of the broadcast dict (~ms; plasma caches
        # the object per node) — an actor pool would wait for slots a small
        # cluster may not have (observed executor wedge at num_cpus=4)
        n_by_ent = ray.get(ecnt_ref)
        df = t.to_pandas()
        na = df["e1"].map(n_by_ent).to_numpy(dtype="int64")
        nb_ = df["e2"].map(n_by_ent).to_numpy(dtype="int64")
        nab = df["n_convs"].to_numpy(dtype="int64")
        pmi = np.fromiter(
            (math.log((float(c) * n_f) / float(x * y))
             for c, x, y in zip(nab, na, nb_)),
            dtype=np.float64, count=len(df))
        return from_pandas_clean(pd.DataFrame({
            "e1": df["e1"], "e2": df["e2"],
            "n_convs": nab, "pmi": round_half_away(pmi)}))

    return cooccurrence_ds(sf_dir, linked=linked).map_batches(
        score, batch_format="pyarrow")


def kg_pair_formation_ds(sf_dir: str):
    """Temporal edge formation: for every co-occurring entity pair, the
    earliest moment BOTH had been mentioned inside one conversation —
    formed_ts_us = min over shared convs of greatest(first-mention(a),
    first-mention(b)) — plus the shared-conv count (which must equal
    kg_cooccurrence's n_convs, a built-in cross-check). This is the
    edge-dating primitive a temporal KG needs to order relation discovery.

    EXACT: min/max over epoch-micros integers, order-independent.

    Scale shape: ONE conv-bucket tagged co-group does everything local to a
    conversation — the per-(entity, conv) first-mention reduce is complete
    in-bucket (a conv never straddles buckets), and pair generation is
    quadratic only in one conversation's distinct entities (the same bound
    kg_cooccurrence accepts). The only global shuffle is the final
    groupby(e1, e2) min/sum over one row per (pair, conv)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Min, Sum

    from ..functions.arrowutils import from_pandas_clean, scale_buckets

    nb = scale_buckets(floor=16, per_cpu=2)

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        j = _mention_ts_join(df)
        f = (j.groupby(["conv_id", "entity_uri"], sort=False)["ts_us"]
             .min().reset_index())
        e1s, e2s, fs = [], [], []
        for _, g in f.groupby("conv_id", sort=False):
            n = len(g)
            if n < 2:
                continue
            g = g.sort_values("entity_uri")
            ents = g["entity_uri"].to_numpy(dtype=object)
            fv = g["ts_us"].to_numpy(dtype="int64")
            ia, ib = np.triu_indices(n, k=1)
            e1s.append(ents[ia])
            e2s.append(ents[ib])
            fs.append(np.maximum(fv[ia], fv[ib]))
        if not e1s:
            return from_pandas_clean(pd.DataFrame({
                "e1": pd.Series(dtype="object"),
                "e2": pd.Series(dtype="object"),
                "formed": pd.Series(dtype="int64"),
                "one": pd.Series(dtype="int64")}))
        out = pd.DataFrame({"e1": np.concatenate(e1s),
                            "e2": np.concatenate(e2s),
                            "formed": np.concatenate(fs)})
        out["one"] = np.int64(1)
        return from_pandas_clean(out)

    agg = (_mention_ts_union(sf_dir, nb)
           .groupby("cb").map_groups(per_bucket, batch_format="pandas")
           .groupby(["e1", "e2"])
           .aggregate(Min("formed", alias_name="formed_ts_us"),
                      Sum("one", alias_name="n_convs")))
    return agg.map_batches(
        lambda t: pa.table({
            "e1": t["e1"], "e2": t["e2"],
            "formed_ts_us": pc.cast(t["formed_ts_us"], pa.int64()),
            "n_convs": pc.cast(t["n_convs"], pa.int64())}),
        batch_format="pyarrow")


def conv_summary_ds(sf_dir: str):
    """Extractive conversation summary: the most entity-DENSE turn per
    conversation (distinct linked entities; ties broken by earliest
    turn_idx) — the deterministic 'conv-has-summary' analog of the
    reference's title policy (kernelxmltottl.php:5-34 picks the FIRST
    title per language; here the pick is content-scored instead of
    first-wins). Conversations with no linked mentions have no summary
    row, exactly as works without titles get no title node.

    Scale shape: linked mention rows are already globally distinct per
    (conv, turn, entity) — the fused linker dedups within the turn and a
    turn never straddles a batch — so per-turn entity counts are a
    map-side-combined groupby; the per-conv argmax co-groups on a
    conv-hash bucket (one row per mentioning TURN, not per mention)."""
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from ..functions.arrowutils import from_pandas_clean

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = (df.groupby(["conv_id", "turn_idx"], sort=False)
             .size().reset_index(name="n"))
        g["n"] = g["n"].astype("int64")
        return from_pandas_clean(g)

    per_turn = (linked_mentions_ds(sf_dir)
                .select_columns(["conv_id", "turn_idx"])
                .map_batches(partial, batch_format="pyarrow")
                .groupby(["conv_id", "turn_idx"])
                .aggregate(Sum("n", alias_name="n")))

    out_schema = pa.schema([("conv_id", pa.string()),
                            ("turn_idx", pa.int64()),
                            ("n_entities", pa.int64())])

    def argmax(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["conv_id", "n", "turn_idx"],
                            ascending=[True, False, True], kind="stable")
        top = df.groupby("conv_id", sort=False).head(1)
        return top.rename(columns={"n": "n_entities"})

    return conv_exchange(per_turn, conv_buckets(sf_dir), argmax, out_schema)


def conv_tool_stats_ds(sf_dir: str):
    """Per-tool usage census over the transcript stream: call count,
    distinct-conversation count and first/last call time (epoch micros) for
    every non-empty `tool` value — the agent-invoked-tool axis of the
    input_hint schema as an aggregate product (the reference analog is the
    per-edition volume census exportvolumemap.php:11-59 derives by scanning
    the catalog).

    Scale shape: per-batch partial (tool, conv, n, min, max) rows (Arrow
    int64 micros BEFORE pandas — datetime64[ns] would silently change the
    unit) → map-side-combined groupby(tool, conv) → tiny groupby(tool).
    The second shuffle ships one row per (tool, conv); tool-name skew is
    bounded by the tool vocabulary."""
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Max, Min, Sum

    from ..functions.arrowutils import from_pandas_clean

    def partial(t: pa.Table) -> pa.Table:
        t = t.set_column(t.schema.get_field_index("ts"), "ts_us",
                         pc.cast(t["ts"], pa.int64()))
        df = t.to_pandas()
        df = df[df["tool"].notna() & (df["tool"] != "")]
        if len(df) == 0:
            return pa.table({"tool": pa.array([], pa.string()),
                             "conv_id": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64()),
                             "f": pa.array([], pa.int64()),
                             "l": pa.array([], pa.int64())})
        g = (df.groupby(["tool", "conv_id"], sort=False)["ts_us"]
             .agg(n="size", f="min", l="max").reset_index())
        g["n"] = g["n"].astype("int64")
        return from_pandas_clean(g)

    per_conv = (readers.read_transcripts(sf_dir,
                                         columns=["conv_id", "tool", "ts"])
                .map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True)
                .groupby(["tool", "conv_id"])
                .aggregate(Sum("n", alias_name="n"),
                           Min("f", alias_name="f"),
                           Max("l", alias_name="l")))

    def add_one(t: pa.Table) -> pa.Table:
        import numpy as np

        return t.append_column("one", pa.array(np.ones(t.num_rows,
                                                       np.int64)))

    agg = (per_conv.map_batches(add_one, batch_format="pyarrow")
           .groupby("tool")
           .aggregate(Sum("one", alias_name="n_convs"),
                      Sum("n", alias_name="n_calls"),
                      Min("f", alias_name="first_ts_us"),
                      Max("l", alias_name="last_ts_us")))
    return agg.map_batches(
        lambda t: pa.table({
            "tool": t["tool"],
            "n_convs": pc.cast(t["n_convs"], pa.int64()),
            "n_calls": pc.cast(t["n_calls"], pa.int64()),
            "first_ts_us": pc.cast(t["first_ts_us"], pa.int64()),
            "last_ts_us": pc.cast(t["last_ts_us"], pa.int64())}),
        batch_format="pyarrow")


def kg_inverse_preds_ds(sf_dir: str, cfg: PipelineConfig = DEFAULT_CONFIG,
                        triples=None):
    """Inverse/symmetric predicate discovery: for every ordered predicate
    pair (pred_a, pred_b), the number of distinct triple pairs
    (a, pred_a, b) ∧ (b, pred_b, a) with a ≠ b — the 2-cycle census a KG
    schema pass runs to propose owl:inverseOf / symmetric-property axioms
    (the reference's analog is the paired partOf/reproductionOf edges the
    edition pass emits in both directions, editionxmltottl.php:397-416).

    Scale shape: every triple is keyed by its CANONICAL UNORDERED node
    pair (min(s,o) ⊕ max(s,o)) with a direction bit, so both triples of
    any 2-cycle land in the same pair-hash bucket; in-bucket the distinct
    cut (duplicates of a triple share its pair key — globally exact with
    no extra shuffle), the dir0 × dir1 merge per pair and the per-(pa,pb)
    partial counts are all vectorized, and only the tiny
    predicate-pair-vocabulary groupby-sum leaves the bucket."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from ..functions.arrowutils import (from_pandas_clean, hash_bucket,
                                        scale_buckets)

    nb = scale_buckets(floor=16, per_cpu=2)
    SEP = "\x1f"

    def tag(t: pa.Table) -> pa.Table:
        s = pc.cast(t["subj"].combine_chunks(), pa.string())
        o = pc.cast(t["obj"].combine_chunks(), pa.string())
        keep = pc.not_equal(s, o)
        s, o = pc.filter(s, keep), pc.filter(o, keep)
        pred = pc.filter(pc.cast(t["pred"].combine_chunks(), pa.string()),
                         keep)
        lt = pc.less(s, o)
        k = pc.binary_join_element_wise(
            pc.if_else(lt, s, o), pc.if_else(lt, o, s), SEP)
        return pa.table({"kb": hash_bucket(k, nb), "k": k,
                         "dir": pc.cast(pc.invert(lt), pa.int8()),
                         "pred": pred})

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["k", "dir", "pred"])
        a = df.loc[df["dir"] == 0, ["k", "pred"]].rename(
            columns={"pred": "p"})
        b = df.loc[df["dir"] == 1, ["k", "pred"]].rename(
            columns={"pred": "q"})
        m = a.merge(b, on="k")
        both = pd.concat([
            m[["p", "q"]].rename(columns={"p": "pred_a", "q": "pred_b"}),
            m[["q", "p"]].rename(columns={"q": "pred_a", "p": "pred_b"})],
            ignore_index=True)
        g = both.groupby(["pred_a", "pred_b"], as_index=False).size()
        return from_pandas_clean(pd.DataFrame({
            "pred_a": g["pred_a"], "pred_b": g["pred_b"],
            "n_pairs": g["size"].astype("int64")}))

    if triples is None:
        triples = kg_triples_ds(sf_dir, cfg)
    return (triples
            .select_columns(["subj", "pred", "obj"])
            .map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("kb").map_groups(per_bucket, batch_format="pandas")
            .groupby(["pred_a", "pred_b"])
            .aggregate(Sum("n_pairs", alias_name="n_pairs")))


def conv_turn_gaps_ds(sf_dir: str):
    """Per-conversation temporal profile over the turn stream: turn count,
    wall duration and the max / lower-median inter-turn gap (epoch micros)
    — the latency shape a transcript pipeline reports next to
    conv_tool_stats (reference analog: the per-volume pagination-order
    audit M18 runs, migrate-bvm.py:58-76, with `ts` as the temporal axis).
    Conversations with a single turn have no gaps and are excluded; the
    median is the LOWER median (the ⌈n/2⌉-th smallest gap) — stated
    identically in the SQL twin.

    Scale shape: everything is conv-local, so ONE conv-hash-bucket shuffle
    of the pruned (conv, turn, ts-as-int64) stream; all per-conv math is
    vectorized inside the bucket (sorted diff + transform/cumcount median
    pick — no Python loop over conversations). Arrow int64 micros BEFORE
    pandas (datetime64[ns] would silently change the unit)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..functions.arrowutils import (from_pandas_clean, hash_bucket,
                                        scale_buckets)

    nb = scale_buckets(floor=16, per_cpu=2)

    def tag(t: pa.Table) -> pa.Table:
        conv = pc.cast(t["conv_id"].combine_chunks(), pa.string())
        return pa.table({"cb": hash_bucket(conv, nb), "conv_id": conv,
                         "turn_idx": pc.cast(t["turn_idx"], pa.int64()),
                         "ts_us": pc.cast(t["ts"], pa.int64())})

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["conv_id", "turn_idx"], kind="stable")
        conv = df["conv_id"].to_numpy()
        ts = df["ts_us"].to_numpy("int64")
        first = np.empty(len(df), dtype=bool)
        first[0] = True
        first[1:] = conv[1:] != conv[:-1]
        gap = np.empty(len(df), np.int64)
        gap[0] = 0
        gap[1:] = ts[1:] - ts[:-1]
        stats = (df.groupby("conv_id", sort=False)["ts_us"]
                 .agg(n_turns="size", lo="min", hi="max"))
        stats = stats[stats["n_turns"] >= 2]
        g = (pd.DataFrame({"conv_id": conv[~first], "gap": gap[~first]})
             .sort_values(["conv_id", "gap"], kind="stable"))
        grp = g.groupby("conv_id", sort=False)["gap"]
        n = grp.transform("size").to_numpy("int64")
        pos = grp.cumcount().to_numpy("int64")
        med = g.loc[pos == (n + 1) // 2 - 1].set_index("conv_id")["gap"]
        mx = grp.max()
        out = stats.join(med.rename("median_gap_us")).join(
            mx.rename("max_gap_us")).reset_index()
        return from_pandas_clean(pd.DataFrame({
            "conv_id": out["conv_id"],
            "n_turns": out["n_turns"].astype("int64"),
            "duration_us": (out["hi"] - out["lo"]).astype("int64"),
            "max_gap_us": out["max_gap_us"].astype("int64"),
            "median_gap_us": out["median_gap_us"].astype("int64")}))

    return (readers.read_transcripts(sf_dir,
                                     columns=["conv_id", "turn_idx", "ts"])
            .map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("cb").map_groups(per_bucket, batch_format="pandas"))


def conv_role_transitions_ds(sf_dir: str):
    """Role-transition (Markov bigram) census over the turn stream: for
    every consecutive turn pair within a conversation, (role_from, role_to)
    with its corpus-wide count and distinct-conversation count — the
    dialogue-structure profile (speaker-alternation health) a transcript
    pipeline reports before training on turn order (reference analog: the
    section state-machine transitions ST8 walks, with roles as states).

    Scale shape: transitions are conv-local → one conv-hash-bucket shuffle
    of the pruned (conv, turn, role) stream; in-bucket vectorized shift +
    per-(pair, conv) partial counts; the final groupby ships one row per
    (pair, conv) — bounded by the role-vocabulary × conversations, and the
    tiny pair vocabulary cannot skew a task because the partial is
    combined per bucket first."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from ..functions.arrowutils import (from_pandas_clean, hash_bucket,
                                        scale_buckets)

    nb = scale_buckets(floor=16, per_cpu=2)

    def tag(t: pa.Table) -> pa.Table:
        conv = pc.cast(t["conv_id"].combine_chunks(), pa.string())
        role = pc.fill_null(pc.cast(t["role"].combine_chunks(),
                                    pa.string()), "")
        return pa.table({"cb": hash_bucket(conv, nb), "conv_id": conv,
                         "turn_idx": pc.cast(t["turn_idx"], pa.int64()),
                         "role": role})

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["conv_id", "turn_idx"], kind="stable")
        conv = df["conv_id"].to_numpy()
        role = df["role"].to_numpy()
        same = np.empty(len(df), dtype=bool)
        if len(df):
            same[0] = False
            same[1:] = conv[1:] == conv[:-1]
        prev = np.roll(role, 1)
        # a conversation lives wholly in this bucket, so the per-pair
        # partial (transition sum + distinct-conv count) is already
        # globally correct per bucket — only a tiny pair-keyed sum remains
        g = (pd.DataFrame({"conv_id": conv[same],
                           "role_from": prev[same], "role_to": role[same]})
             .groupby(["role_from", "role_to"])
             .agg(n_transitions=("conv_id", "size"),
                  n_convs=("conv_id", "nunique"))
             .reset_index())
        g["n_transitions"] = g["n_transitions"].astype("int64")
        g["n_convs"] = g["n_convs"].astype("int64")
        return from_pandas_clean(g)

    agg = (readers.read_transcripts(
               sf_dir, columns=["conv_id", "turn_idx", "role"])
           .map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
           .groupby("cb").map_groups(per_bucket, batch_format="pandas")
           .groupby(["role_from", "role_to"])
           .aggregate(Sum("n_transitions", alias_name="n_transitions"),
                      Sum("n_convs", alias_name="n_convs")))
    return agg.map_batches(
        lambda t: pa.table({
            "role_from": t["role_from"], "role_to": t["role_to"],
            "n_transitions": pc.cast(t["n_transitions"], pa.int64()),
            "n_convs": pc.cast(t["n_convs"], pa.int64())}),
        batch_format="pyarrow")


CONTEXT_BUDGET_TOKENS = 256


def conv_context_budget_ds(sf_dir: str, budget: int = CONTEXT_BUDGET_TOKENS):
    """Context-window planning table: per conversation, total tokens
    (same [a-z]+ grammar as the docs ops), turns, whether the whole
    conversation fits the ``budget``, the excess beyond it, and how many
    budget-sized windows a naive packer needs (ceil division) — the
    capacity report that sizes an SFT packing run before it starts.

    Scale shape: per-batch (conv, tokens, turns) partials → one conv-keyed
    groupby-sum; all comparisons integer."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        text = pc.fill_null(pc.cast(t["text"].combine_chunks(),
                                    pa.string()), "")
        ntok = np.asarray(pc.cast(pc.count_substring_regex(
            pc.utf8_lower(text), "[a-z]+"), pa.int64()))
        df = pd.DataFrame({"conv_id": t["conv_id"].to_pandas(),
                           "ntok": ntok})
        g = df.groupby("conv_id", as_index=False).agg(
            n_tokens=("ntok", "sum"), n_turns=("ntok", "size"))
        return pa.table({
            "conv_id": pa.array(g["conv_id"], pa.string()),
            "n_tokens": pa.array(g["n_tokens"].to_numpy("int64")),
            "n_turns": pa.array(g["n_turns"].to_numpy("int64"))})

    def flags(t: pa.Table) -> pa.Table:
        n = np.asarray(pc.cast(t["n_tokens"], pa.int64()))
        return pa.table({
            "conv_id": t["conv_id"],
            "n_turns": pc.cast(t["n_turns"], pa.int64()),
            "n_tokens": pa.array(n),
            "fits": pa.array(n <= budget),
            "excess_tokens": pa.array(np.maximum(n - budget, 0)),
            "n_windows": pa.array(-(-n // budget))})

    return (readers.read_transcripts(sf_dir, columns=["conv_id", "text"])
            .map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby("conv_id")
            .aggregate(Sum("n_tokens", alias_name="n_tokens"),
                       Sum("n_turns", alias_name="n_turns"))
            .map_batches(flags, batch_format="pyarrow"))


def conv_topic_shift_ds(sf_dir: str):
    """Dialogue-coherence profile: for every pair of consecutive turns
    that BOTH mention entities, the Jaccard overlap of their distinct
    entity sets — low values mark topic shifts, the segmentation signal a
    long-conversation chunker uses to cut context windows at natural
    boundaries (the conversational reading of kg_neighbor_jaccard).

    Scale shape: the linked (conv, turn, entity) stream — deduped per
    batch — shuffles ONCE on the conv hash (a conversation's turns
    co-locate); per-bucket vectorized pandas computes per-turn set sizes
    and consecutive-turn intersections; jaccard is the round-6 double of
    exact integer counts."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..functions.arrowutils import (hash_bucket, round_half_away,
                                        scale_buckets)

    nb = scale_buckets(floor=16, per_cpu=2)

    def tag(t: pa.Table) -> pa.Table:
        df = (t.to_pandas()[["conv_id", "turn_idx", "entity_uri"]]
              .drop_duplicates())
        conv = pa.array(df["conv_id"], pa.string())
        return pa.table({"cb": hash_bucket(conv, nb), "conv_id": conv,
                         "turn_idx": pa.array(
                             df["turn_idx"].to_numpy("int64")),
                         "entity_uri": pa.array(df["entity_uri"],
                                                pa.string())})

    def shifts(df: pd.DataFrame) -> pa.Table:
        df = df.drop_duplicates(["conv_id", "turn_idx", "entity_uri"])
        out = {"conv_id": [], "turn_idx": [], "n_a": [], "n_b": [],
               "n_overlap": []}
        for conv, g in df.groupby("conv_id", sort=False):
            sets = {i: set(s["entity_uri"])
                    for i, s in g.groupby("turn_idx")}
            for i in sorted(sets):
                if i + 1 not in sets:
                    continue
                a, b = sets[i], sets[i + 1]
                out["conv_id"].append(conv)
                out["turn_idx"].append(i)
                out["n_a"].append(len(a))
                out["n_b"].append(len(b))
                out["n_overlap"].append(len(a & b))
        na = np.asarray(out["n_a"], np.int64)
        nb_ = np.asarray(out["n_b"], np.int64)
        ov = np.asarray(out["n_overlap"], np.int64)
        union = np.maximum(na + nb_ - ov, 1)
        return pa.table({
            "conv_id": pa.array(out["conv_id"], pa.string()),
            "turn_idx": pa.array(np.asarray(out["turn_idx"], np.int64)),
            "n_a": pa.array(na), "n_b": pa.array(nb_),
            "n_overlap": pa.array(ov),
            "jaccard": pa.array(round_half_away(ov / union))})

    return (linked_mentions_ds(sf_dir)
            .select_columns(["conv_id", "turn_idx", "entity_uri"])
            .map_batches(tag, batch_format="pyarrow")
            .groupby("cb")
            .map_groups(shifts, batch_format="pandas"))


def conv_speaker_stats_ds(sf_dir: str):
    """Per-role speaker profile over the whole corpus: turn count,
    distinct conversations, token count (same [a-z]+ grammar as the docs
    ops), total characters, and mean turn length in integer ppm — the
    one-glance who-talks-how-much table a conversation-data report leads
    with.

    Scale shape: pure per-batch partials — (role, conv) distinct pairs and
    per-role sums both combined in-batch — then one role-keyed groupby
    over rows bounded by roles × blocks (+ roles × convs for the distinct
    leg, shipped as 24-byte rows)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        role = pc.fill_null(pc.cast(t["role"].combine_chunks(),
                                    pa.string()), "")
        text = pc.fill_null(pc.cast(t["text"].combine_chunks(),
                                    pa.string()), "")
        ntok = np.asarray(pc.cast(pc.count_substring_regex(
            pc.utf8_lower(text), "[a-z]+"), pa.int64()))
        nchr = np.asarray(pc.cast(pc.utf8_length(text), pa.int64()))
        df = pd.DataFrame({"role": role.to_pandas(),
                           "conv_id": t["conv_id"].to_pandas(),
                           "ntok": ntok, "nchr": nchr})
        g = df.groupby("role", as_index=False).agg(
            n_turns=("ntok", "size"), n_tokens=("ntok", "sum"),
            n_chars=("nchr", "sum"))
        d = df[["role", "conv_id"]].drop_duplicates()
        return pa.table({
            "role": pa.array(pd.concat([g["role"], d["role"]]), pa.string()),
            "conv_id": pa.array(
                [""] * len(g) + d["conv_id"].tolist(), pa.string()),
            "n_turns": pa.array(np.concatenate(
                [g["n_turns"].to_numpy("int64"),
                 np.zeros(len(d), np.int64)])),
            "n_tokens": pa.array(np.concatenate(
                [g["n_tokens"].to_numpy("int64"),
                 np.zeros(len(d), np.int64)])),
            "n_chars": pa.array(np.concatenate(
                [g["n_chars"].to_numpy("int64"),
                 np.zeros(len(d), np.int64)]))})

    def finalize(df: pd.DataFrame) -> pa.Table:
        role = df["role"].iloc[0]
        sums = df[df["conv_id"] == ""]
        nconvs = df.loc[df["conv_id"] != "", "conv_id"].nunique()
        nt = int(sums["n_turns"].sum())
        tok = int(sums["n_tokens"].sum())
        ch = int(sums["n_chars"].sum())
        return pa.table({
            "role": pa.array([role], pa.string()),
            "n_turns": pa.array([nt], pa.int64()),
            "n_convs": pa.array([int(nconvs)], pa.int64()),
            "n_tokens": pa.array([tok], pa.int64()),
            "n_chars": pa.array([ch], pa.int64()),
            "mean_tokens_ppm": pa.array(
                [tok * 1_000_000 // max(nt, 1)], pa.int64())})

    return (readers.read_transcripts(
                sf_dir, columns=["conv_id", "turn_idx", "role", "text"])
            .map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby("role")
            .map_groups(finalize, batch_format="pandas"))


def conv_dialog_acts_ds(sf_dir: str):
    """Per-conversation dialog-act profile: how many turns are questions
    (trailing '?' or an interrogative first word), commands (imperative
    first word) or statements — the structure signal an SFT-data triage
    uses to balance instruction-following vs declarative conversations.
    Lexicons live in functions.text (DIALOG_Q_WORDS / DIALOG_C_WORDS) and
    are inlined verbatim into the SQL twin.

    Scale shape: pure per-batch partial counts keyed by conv_id (a conv's
    turns may span blocks) → one conv-keyed groupby Sum; shuffle rows are
    bounded by convs × blocks, 40 bytes each — the text never moves."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from ..functions.text import DIALOG_C_WORDS, DIALOG_Q_WORDS

    def partial(t: pa.Table) -> pa.Table:
        text = pc.fill_null(pc.cast(t["text"].combine_chunks(),
                                    pa.string()), "")
        s = text.to_pandas()
        # [ \t\r\n] not \s: Python \s is Unicode-aware while the DuckDB
        # twin's RE2 \s is ASCII-only — a turn ending '?' + NBSP would
        # classify differently. Both sides pin the same ASCII class.
        isq = s.str.contains(r"\?[ \t\r\n]*$", regex=True, na=False)
        first = (s.str.extract(r"([A-Za-z]+)", expand=False)
                 .fillna("").str.lower())
        q = (isq | first.isin(DIALOG_Q_WORDS)).to_numpy()
        c = (~q) & first.isin(DIALOG_C_WORDS).to_numpy()
        df = pd.DataFrame({"conv_id": t["conv_id"].to_pandas(),
                           "n_question": q.astype("int64"),
                           "n_command": c.astype("int64")})
        g = df.groupby("conv_id", as_index=False).agg(
            n_question=("n_question", "sum"), n_command=("n_command", "sum"),
            n_turns=("n_question", "size"))
        g["n_statement"] = g["n_turns"] - g["n_question"] - g["n_command"]
        return pa.table({
            "conv_id": pa.array(g["conv_id"], pa.string()),
            "n_question": pa.array(g["n_question"].to_numpy("int64")),
            "n_command": pa.array(g["n_command"].to_numpy("int64")),
            "n_statement": pa.array(g["n_statement"].to_numpy("int64")),
            "n_turns": pa.array(g["n_turns"].to_numpy("int64"))})

    return (readers.read_transcripts(sf_dir, columns=["conv_id", "text"])
            .map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby("conv_id")
            .aggregate(Sum("n_question", alias_name="n_question"),
                       Sum("n_command", alias_name="n_command"),
                       Sum("n_statement", alias_name="n_statement"),
                       Sum("n_turns", alias_name="n_turns")))


DPO_BUCKETS = 64   # fixed (the SQL twin inlines it): rejected-sampling
                   # rotation group — NOT a scale knob, pairs stay exact
                   # at any cluster size


def sft_dpo_pairs_ds(sf_dir: str):
    """Preference-pair (DPO/RLHF-style) dataset construction from the turn
    stream: every assistant turn directly answering a user turn becomes
    (prompt, chosen); `rejected` is the chosen text of the NEXT pair in a
    deterministic md5-ordered rotation within a fixed md5 bucket (circular,
    so every pair gets a rejected partner from an unrelated conversation) —
    the standard "mismatched response" negative a preference-tuning
    pipeline synthesizes when only positive demonstrations exist.

    Content-addressed like kg_walks/kg_neighbor_sample: no RNG, stable
    across runs, shards and cluster sizes; DPO_BUCKETS is FIXED (not
    CPU-scaled) because the rotation order is part of the op's spec.

    Scale shape: two bucket shuffles — (1) conv-hash co-group pairs each
    assistant turn with its preceding user turn (conv-local, vectorized
    shift); (2) md5-bucket co-group rotates chosen texts (each bucket ~
    1/64 of pairs; rotation is a vectorized np.roll). Text crosses the
    wire once per stage; nothing reaches the driver."""
    import hashlib

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..functions.arrowutils import hash_bucket, scale_buckets

    nb = scale_buckets(floor=16, per_cpu=2)

    def tag(t: pa.Table) -> pa.Table:
        conv = pc.cast(t["conv_id"].combine_chunks(), pa.string())
        return pa.table({"cb": hash_bucket(conv, nb), "conv_id": conv,
                         "turn_idx": pc.cast(t["turn_idx"], pa.int64()),
                         "role": pc.fill_null(pc.cast(
                             t["role"].combine_chunks(), pa.string()), ""),
                         "text": pc.fill_null(pc.cast(
                             t["text"].combine_chunks(), pa.string()), "")})

    def pair_bucket(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["conv_id", "turn_idx"], kind="stable")
        conv = df["conv_id"].to_numpy()
        idx = df["turn_idx"].to_numpy("int64")
        role = df["role"].to_numpy()
        text = df["text"].to_numpy()
        ok = np.zeros(len(df), dtype=bool)
        if len(df) > 1:
            ok[1:] = ((conv[1:] == conv[:-1]) & (role[1:] == "assistant")
                      & (role[:-1] == "user") & (idx[1:] == idx[:-1] + 1))
        prompt = np.roll(text, 1)
        sel = np.nonzero(ok)[0]
        mdk = [hashlib.md5(f"{c}|{i}".encode()).hexdigest()
               for c, i in zip(conv[sel], idx[sel])]
        bk = np.array([int(m[:15], 16) % DPO_BUCKETS for m in mdk],
                      dtype=np.int32)
        return pa.table({"bucket": pa.array(bk),
                         "mdk": pa.array(mdk, pa.string()),
                         "conv_id": pa.array(conv[sel], pa.string()),
                         "turn_idx": pa.array(idx[sel]),
                         "prompt": pa.array(prompt[sel], pa.string()),
                         "chosen": pa.array(text[sel], pa.string())})

    def rotate_bucket(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["mdk", "conv_id", "turn_idx"], kind="stable")
        rejected = np.roll(df["chosen"].to_numpy(), -1)
        return pa.table({
            "conv_id": pa.array(df["conv_id"], pa.string()),
            "turn_idx": pa.array(df["turn_idx"].to_numpy("int64")),
            "prompt": pa.array(df["prompt"], pa.string()),
            "chosen": pa.array(df["chosen"], pa.string()),
            "rejected": pa.array(rejected, pa.string())})

    return (readers.read_transcripts(
                sf_dir, columns=["conv_id", "turn_idx", "role", "text"])
            .map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("cb")
            .map_groups(pair_bucket, batch_format="pandas")
            .groupby("bucket")
            .map_groups(rotate_bucket, batch_format="pandas"))


NEIGHBOR_TOPK = 5


def kg_neighbors_topk_ds(sf_dir: str, k: int = NEIGHBOR_TOPK):
    """Top-k strongest co-occurrence neighbors per entity (ties broken by
    neighbor URI) — the per-node adjacency shortlist a KG serves for
    related-entity lookups.

    Scale shape: the symmetric (entity, neighbor, n) stream is cut by a
    PER-BATCH top-k combiner before the shuffle — top-k by (n DESC,
    neighbor ASC) is a monoid, so at most k rows per (entity, block) move —
    then one entity-hash-bucket co-group finalizes each entity's list with
    a vectorized sort. A hub entity ships k rows per block, never its full
    neighbor list."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..functions.arrowutils import (from_pandas_clean, hash_bucket,
                                        scale_buckets)

    nb = scale_buckets(floor=16, per_cpu=2)

    def topk_partial(df: pd.DataFrame) -> pd.DataFrame:
        return (df.sort_values(["entity_uri", "n_convs", "neighbor_uri"],
                               ascending=[True, False, True], kind="stable")
                .groupby("entity_uri", sort=False).head(k))

    def sym_topk(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        s = pd.DataFrame({
            "entity_uri": pd.concat([df["e1"], df["e2"]], ignore_index=True),
            "neighbor_uri": pd.concat([df["e2"], df["e1"]],
                                      ignore_index=True),
            "n_convs": pd.concat([df["n_convs"], df["n_convs"]],
                                 ignore_index=True).astype("int64")})
        s = topk_partial(s)
        s["eb"] = hash_bucket(pa.array(s["entity_uri"], pa.string()),
                              nb).to_numpy(zero_copy_only=False)
        return from_pandas_clean(s)

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        out = topk_partial(df.drop(columns=["eb"]))
        out["rank"] = (out.groupby("entity_uri", sort=False).cumcount()
                       .to_numpy(dtype="int64") + 1)
        return out

    return (cooccurrence_ds(sf_dir)
            .map_batches(sym_topk, batch_format="pyarrow")
            .groupby("eb").map_groups(finalize, batch_format="pandas"))


NEIGHBOR_JACCARD_THRESHOLD = 0.8   # alias-candidate similarity bar


def kg_neighbor_jaccard_ds(sf_dir: str,
                           threshold: float = NEIGHBOR_JACCARD_THRESHOLD,
                           edges=None):
    """Entity-resolution candidates by NEIGHBORHOOD Jaccard over the
    co-occurrence graph: every entity pair whose neighbor sets overlap with
    Jaccard ≥ ``threshold`` — structural-equivalence alias detection, the
    canonicalization signal a KG build runs after linking (the reference's
    analog is the cross-sigla KTMapping parallels the PHP dedup pass merges,
    J1/J2). EXACT — no sampling, no sketches.

    Scale shape: PREFIX FILTERING APPLIED TO NEIGHBOR SETS (the same
    All-Pairs bound as dedup_prefix_pairs, with a neighbor's DEGREE playing
    the document-frequency role). Global token order = (deg(nbr) ASC, nbr) —
    a node's prefix is its ≈(1−τ)·deg RAREST neighbors, so a hub neighbor
    (the stopword of this universe) almost never keys a candidate group and
    cannot concentrate the inverted-index shuffle. Stages, all hash-bucket
    co-groups: degree count (map-side combined) → degree attach keyed on
    nbr → per-node prefix cut (vectorized cumcount inside node-hash
    buckets) → candidates per prefix-neighbor group → pair dedup in
    pair-hash buckets → ONE exact verify per pair (neighbor sets meet pair
    memberships in a node-keyed tagged co-group — no driver
    materialization, mirroring _minhash_verify_cogroup)."""
    import math

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from ..functions.arrowutils import (from_pandas_clean, hash_bucket,
                                        scale_buckets)

    nb = scale_buckets(floor=16, per_cpu=2)

    if edges is None:
        edges = (cooccurrence_ds(sf_dir)
                 .select_columns(["e1", "e2"]))
    # `edges` contract: distinct undirected edges, e1 < e2, no self-loops

    def explode(t: pa.Table) -> pa.Table:
        node = pa.concat_arrays([t["e1"].combine_chunks(),
                                 t["e2"].combine_chunks()])
        nbr = pa.concat_arrays([t["e2"].combine_chunks(),
                                t["e1"].combine_chunks()])
        return pa.table({"node": node, "nbr": nbr})

    adj = edges.map_batches(explode, batch_format="pyarrow").materialize()

    def deg_partial(t: pa.Table) -> pa.Table:
        vc = t.group_by("node").aggregate([("node", "count")])
        return pa.table({"node": vc["node"],
                         "d": pc.cast(vc["node_count"], pa.int64())})

    deg = (adj.map_batches(deg_partial, batch_format="pyarrow")
           .groupby("node").aggregate(Sum("d", alias_name="d")))

    # tagged co-group: attach deg(nbr) to each adjacency row, keyed on nbr
    def tag_adj(t: pa.Table) -> pa.Table:
        return pa.table({"kb": hash_bucket(t["nbr"].combine_chunks(), nb),
                         "key": t["nbr"], "node": t["node"],
                         "d": pa.nulls(t.num_rows, pa.int64())})

    def tag_deg(t: pa.Table) -> pa.Table:
        return pa.table({"kb": hash_bucket(t["node"].combine_chunks(), nb),
                         "key": t["node"],
                         "node": pa.nulls(t.num_rows, pa.string()),
                         "d": t["d"]})

    def attach_deg(df: pd.DataFrame) -> pd.DataFrame:
        d = df.loc[df["d"].notna(), ["key", "d"]]
        a = df.loc[df["node"].notna(), ["key", "node"]]
        m = a.merge(d, on="key", how="left")
        return pd.DataFrame({"node": m["node"], "nbr": m["key"],
                             "deg_nbr": m["d"].astype("int64")})

    # materialized: consumed by BOTH the prefix chain and the verify
    # co-group — without this the degree attach would execute twice
    adj_d = (adj.map_batches(tag_adj, batch_format="pyarrow")
             .union(deg.map_batches(tag_deg, batch_format="pyarrow"))
             .groupby("kb").map_groups(attach_deg, batch_format="pandas")
             .materialize())

    # per-node prefix cut, vectorized inside node-hash buckets
    def tag_node_bucket(t: pa.Table) -> pa.Table:
        return t.append_column(
            "kb2", hash_bucket(t["node"].combine_chunks(), nb))

    def prefix_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["node", "deg_nbr", "nbr"], kind="stable")
        g = df.groupby("node", sort=False)
        m = g["nbr"].transform("size").to_numpy("int64")
        pos = g.cumcount().to_numpy("int64")
        p = m - np.ceil(threshold * m).astype("int64") + 1
        keep = pos < p
        return pd.DataFrame({"tok": df["nbr"].to_numpy()[keep],
                             "node": df["node"].to_numpy()[keep]})

    prefixes = (adj_d.map_batches(tag_node_bucket, batch_format="pyarrow")
                .groupby("kb2").map_groups(prefix_bucket,
                                           batch_format="pandas"))

    # candidates per prefix-neighbor group; pair dedup in pair-hash buckets
    SEP = "\x1f"

    def tag_tok_bucket(t: pa.Table) -> pa.Table:
        return t.append_column(
            "tb", hash_bucket(t["tok"].combine_chunks(), nb))

    def pairs_bucket(df: pd.DataFrame) -> pd.DataFrame:
        e1s, e2s = [], []
        for _, g in df.groupby("tok", sort=False):
            ids = np.sort(g["node"].unique())
            if len(ids) < 2:
                continue
            ii, jj = np.triu_indices(len(ids), k=1)
            e1s.append(ids[ii])
            e2s.append(ids[jj])
        if not e1s:
            return pd.DataFrame({"e1": pd.Series(dtype="object"),
                                 "e2": pd.Series(dtype="object")})
        return pd.DataFrame({"e1": np.concatenate(e1s),
                             "e2": np.concatenate(e2s)})

    def dedup_bucket(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(["e1", "e2"])[["e1", "e2"]]

    def tag_pair_bucket(t: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(
            pc.cast(t["e1"].combine_chunks(), pa.string()),
            pc.cast(t["e2"].combine_chunks(), pa.string()), SEP)
        return t.append_column("pb", hash_bucket(key, nb))

    cand = (prefixes.map_batches(tag_tok_bucket, batch_format="pyarrow")
            .groupby("tb").map_groups(pairs_bucket, batch_format="pandas")
            .map_batches(tag_pair_bucket, batch_format="pyarrow")
            .groupby("pb").map_groups(dedup_bucket, batch_format="pandas"))

    # verify: neighbor sets meet pair memberships, keyed on node
    def memb_rows(t: pa.Table) -> pa.Table:
        e1 = t["e1"].combine_chunks()
        e2 = t["e2"].combine_chunks()
        n = t.num_rows
        return pa.table({
            "key": pa.concat_arrays([e1, e2]),
            "mate": pa.concat_arrays([e2, e1]),
            "side": pa.array(np.repeat([0, 1], n).astype(np.int64)),
            "nbr": pa.nulls(2 * n, pa.string())})

    def adj_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({"key": t["node"], "mate": pa.nulls(n, pa.string()),
                         "side": pa.array(np.full(n, -1, np.int64)),
                         "nbr": t["nbr"]})

    def tag_key_bucket(t: pa.Table) -> pa.Table:
        return t.append_column(
            "vb", hash_bucket(t["key"].combine_chunks(), nb))

    def attach_nbrs(df: pd.DataFrame) -> pd.DataFrame:
        out = {"e1": [], "e2": [], "nbrs": []}
        for key, g in df.groupby("key", sort=False):
            memb = g[g["side"] >= 0]
            if len(memb) == 0:
                continue
            nset = np.sort(g.loc[g["side"] < 0, "nbr"].to_numpy())
            side = memb["side"].to_numpy("int64")
            mate = memb["mate"].to_numpy()
            out["e1"].extend(np.where(side == 0, key, mate))
            out["e2"].extend(np.where(side == 0, mate, key))
            out["nbrs"].extend([nset] * len(memb))
        return pd.DataFrame(out, columns=["e1", "e2", "nbrs"])

    def tag_out_pair(df: pd.DataFrame) -> pd.DataFrame:
        # pair-hash bucket so the final verify is one vectorized task per
        # bucket, not one Ray group per pair (a 173k-pair sf0.01 run spent
        # its wall on per-group scheduling: 74 s → 45 s at 8 cpus)
        key = pa.array((df["e1"].astype(str) + SEP
                        + df["e2"].astype(str)).to_numpy(dtype=object),
                       pa.string())
        df = df.copy()
        df["pb2"] = hash_bucket(key, nb).to_numpy(zero_copy_only=False)
        return df

    def verify_bucket(df: pd.DataFrame) -> pd.DataFrame:
        out = {"e1": [], "e2": [], "n_common": [], "jaccard": []}
        for (e1, e2), g in df.groupby(["e1", "e2"], sort=False):
            if len(g) != 2:
                continue
            sa = set(np.asarray(g["nbrs"].iloc[0]).tolist())
            sb = set(np.asarray(g["nbrs"].iloc[1]).tolist())
            i = len(sa & sb)
            u = len(sa | sb)
            jac = round(i / u, 6) if u else 0.0
            if jac < threshold:
                continue
            out["e1"].append(e1)
            out["e2"].append(e2)
            out["n_common"].append(i)
            out["jaccard"].append(jac)
        return from_pandas_clean(
            pd.DataFrame(out),
            schema=pa.schema([("e1", pa.string()), ("e2", pa.string()),
                              ("n_common", pa.int64()),
                              ("jaccard", pa.float64())]))

    memb = cand.map_batches(memb_rows, batch_format="pyarrow")
    return (memb.union(adj_d.map_batches(adj_rows, batch_format="pyarrow"))
            .map_batches(tag_key_bucket, batch_format="pyarrow")
            .groupby("vb").map_groups(attach_nbrs, batch_format="pandas")
            .map_batches(tag_out_pair, batch_format="pandas")
            .groupby("pb2").map_groups(verify_bucket,
                                       batch_format="pandas"))


def kg_dangling_refs_ds(sf_dir: str, cfg: PipelineConfig = DEFAULT_CONFIG):
    """Referential-integrity audit over the emitted graph: every URI that
    appears as the OBJECT of a resource-valued predicate but never as a
    SUBJECT, with its reference count — the dangling-edge report a KG build
    publishes next to kg_validate (reference analog: the authorized-section
    and self-pointer checks that feed report_error, utils.php:558-560,
    kernelxmltottl.php:41-42).

    Scale shape: ONE pass over the triple stream emits, per batch, its
    distinct subjects (tagged 0) and its per-object partial ref counts
    (tagged 1); one uri-hash-bucket co-group then drops objects whose
    subject row exists and sums the rest — the shuffle carries one row per
    (uri, block), never per triple."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from ..functions.arrowutils import hash_bucket, scale_buckets
    from ..functions.ntriples import OBJ_URI_PREDS

    nb = scale_buckets(floor=16, per_cpu=2)
    uri_preds = pa.array(sorted(OBJ_URI_PREDS), pa.string())

    def tag_rows(t: pa.Table) -> pa.Table:
        subj = pc.unique(pc.cast(t["subj"].combine_chunks(), pa.string()))
        keep = pc.is_in(t["pred"].combine_chunks(), value_set=uri_preds)
        objs = pc.cast(t.filter(keep)["obj"].combine_chunks(), pa.string())
        vc = pc.value_counts(objs)
        obj_u = vc.field("values")
        obj_n = pc.cast(vc.field("counts"), pa.int64())
        node = pa.concat_arrays([subj, obj_u])
        n = pa.concat_arrays([
            pa.nulls(len(subj), pa.int64()).fill_null(0), obj_n])
        tag = pa.concat_arrays([
            pa.array(np.zeros(len(subj), np.int8)),
            pa.array(np.ones(len(obj_u), np.int8))])
        return pa.table({"ub": hash_bucket(node, nb), "tag": tag,
                         "node": node, "n": n})

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        subs = set(df.loc[df["tag"] == 0, "node"])
        refs = df.loc[df["tag"] == 1, ["node", "n"]]
        refs = refs[~refs["node"].isin(subs)]
        g = refs.groupby("node", sort=False)["n"].sum().reset_index()
        return pd.DataFrame({"node": g["node"],
                             "n_refs": g["n"].astype("int64")})

    return (kg_triples_ds(sf_dir, cfg)
            .map_batches(tag_rows, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby("ub").map_groups(per_bucket, batch_format="pandas")
            .map_batches(
                lambda t: pa.table({"node": t["node"],
                                    "n_refs": pc.cast(t["n_refs"],
                                                      pa.int64())}),
                batch_format="pyarrow"))


def conv_tool_retries_ds(sf_dir: str, min_run: int = 2):
    """Agent retry-loop detector (gaps-and-islands): within each
    conversation's ordered TOOL-CALL subsequence, maximal runs of
    consecutive calls to the SAME tool, kept when the run has ≥ ``min_run``
    calls — the "agent stuck re-invoking search" audit a transcript
    pipeline runs before training on agentic traces (reference analog: the
    consecutive-duplicate image-name scan migrate-bvm.py:131-150, with
    tools as the repeated-value axis). Non-tool turns between two calls do
    NOT break a run: the island is over the filtered call sequence,
    mirrored exactly by the SQL twin's two-row_number difference.

    Scale shape: runs are conv-local → ONE conv-hash-bucket shuffle of the
    pruned (conv, turn, tool) rows WHERE tool ≠ '' (the filter happens
    map-side, before the shuffle); in-bucket vectorized island ids
    (change-flag cumsum), no Python loop over conversations."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..functions.arrowutils import (from_pandas_clean, hash_bucket,
                                        scale_buckets)

    nb = scale_buckets(floor=16, per_cpu=2)

    def tag(t: pa.Table) -> pa.Table:
        conv = pc.cast(t["conv_id"].combine_chunks(), pa.string())
        tool = pc.fill_null(pc.cast(t["tool"].combine_chunks(),
                                    pa.string()), "")
        keep = pc.not_equal(tool, "")
        sub = pa.table({"cb": hash_bucket(conv, nb), "conv_id": conv,
                        "turn_idx": pc.cast(t["turn_idx"], pa.int64()),
                        "tool": tool}).filter(keep)
        return sub

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["conv_id", "turn_idx"], kind="stable")
        conv = df["conv_id"].to_numpy()
        tool = df["tool"].to_numpy()
        new = np.ones(len(df), dtype=bool)
        if len(df):
            new[1:] = (conv[1:] != conv[:-1]) | (tool[1:] != tool[:-1])
        isl = np.cumsum(new)
        g = (pd.DataFrame({"conv_id": conv, "tool": tool, "isl": isl,
                           "turn_idx": df["turn_idx"].to_numpy("int64")})
             .groupby(["conv_id", "tool", "isl"], sort=False)
             .agg(start_turn=("turn_idx", "min"),
                  end_turn=("turn_idx", "max"),
                  n_calls=("turn_idx", "size"))
             .reset_index())
        g = g[g["n_calls"] >= min_run]
        return from_pandas_clean(pd.DataFrame({
            "conv_id": g["conv_id"], "tool": g["tool"],
            "start_turn": g["start_turn"].astype("int64"),
            "end_turn": g["end_turn"].astype("int64"),
            "n_calls": g["n_calls"].astype("int64")}))

    return (readers.read_transcripts(
                sf_dir, columns=["conv_id", "turn_idx", "tool"])
            .map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("cb").map_groups(per_bucket, batch_format="pandas"))


# marker literal → output column; counts are NON-OVERLAPPING substring
# occurrences ('loc{' and 'locs{' are disjoint literals, likewise
# 'chl{'/'chls{'), so both engines can count by plain substring arithmetic
MARKER_COLUMNS = (("sec{", "n_sec"), ("ttl[", "n_ttl"), ("loc{", "n_loc"),
                  ("locs{", "n_locs"), ("chap{", "n_chap"),
                  ("chl{", "n_chl"), ("chls{", "n_chls"),
                  ("cr[", "n_cr"), ("@[", "n_mention"))


def conv_marker_profile_ds(sf_dir: str):
    """Per-conversation markup-density profile: how many of each structured
    marker (section starts, titles, locations in both dialects, chapters,
    chapter locations, creators, entity mentions) a conversation carries,
    plus its turn count — the corpus census that predicts extractor load
    per conversation before the full KG pass runs (reference analog: the
    per-record marker walks editionxmltottl.php:21-289 do implicitly; here
    the census is its own cheap pass).

    Scale shape: pure map-side work — pc.count_substring per literal
    (vectorized Arrow kernel, zero-copy) pre-aggregated per conv WITHIN the
    batch, then one conv-keyed groupby-sum over rows bounded by
    (convs-per-batch × batches), never the turn count."""
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from ..functions.arrowutils import from_pandas_clean

    def partial(t: pa.Table) -> pa.Table:
        conv = pc.cast(t["conv_id"].combine_chunks(), pa.string())
        txt = pc.fill_null(pc.cast(t["text"].combine_chunks(),
                                   pa.string()), "")
        d = {"conv_id": conv.to_pandas()}
        d["n_turns"] = 1
        for lit, col in MARKER_COLUMNS:
            d[col] = pc.count_substring(txt, lit).to_numpy(
                zero_copy_only=False).astype("int64")
        df = pd.DataFrame(d)
        g = df.groupby("conv_id", sort=False, as_index=False).sum()
        return from_pandas_clean(g)

    cols = ["n_turns"] + [c for _, c in MARKER_COLUMNS]
    agg = (readers.read_transcripts(sf_dir, columns=["conv_id", "text"])
           .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
           .groupby("conv_id")
           .aggregate(*[Sum(c, alias_name=c) for c in cols]))
    return agg.map_batches(
        lambda t: pa.table({"conv_id": t["conv_id"],
                            **{c: pc.cast(t[c], pa.int64()) for c in cols}}),
        batch_format="pyarrow")


def conv_tool_chains_ds(sf_dir: str):
    """Tool-invocation bigram mining: for every conversation, the ordered
    sequence of TOOL calls (non-tool turns skipped, order = turn_idx), and
    for each successive pair (t1 → t2) the corpus-wide count plus
    distinct-conversation count — the agent-behavior transition profile
    (retry loops, browse→python funnels) a trajectory pipeline reports
    before imitation training. Differs from conv_role_transitions in that
    the chain skips intervening non-tool turns: t1 → t2 means "next tool
    used", not "next turn".

    Scale shape: rows are PRUNED to tool turns before the one conv-hash
    bucket shuffle (tool turns are a minority of the stream — the shuffle
    ships only what the op needs); in-bucket vectorized sort + shift builds
    the successive-pair list, partials collapse per (pair, conv) in-bucket,
    and the final sum ships one row per (pair, conv), bounded by
    |tools|² × conversations."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from ..functions.arrowutils import (from_pandas_clean, hash_bucket,
                                        scale_buckets)

    nb = scale_buckets(floor=16, per_cpu=2)

    def tag(t: pa.Table) -> pa.Table:
        conv = pc.cast(t["conv_id"].combine_chunks(), pa.string())
        tool = pc.fill_null(pc.cast(t["tool"].combine_chunks(),
                                    pa.string()), "")
        keep = pc.not_equal(tool, "")
        sub = pa.table({"conv_id": conv, "tool": tool,
                        "turn_idx": pc.cast(t["turn_idx"], pa.int64())}
                       ).filter(keep)
        return sub.append_column(
            "cb", hash_bucket(sub["conv_id"].combine_chunks(), nb))

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["conv_id", "turn_idx"], kind="stable")
        conv = df["conv_id"].to_numpy()
        tool = df["tool"].to_numpy()
        same = np.empty(len(df), dtype=bool)
        if len(df):
            same[0] = False
            same[1:] = conv[1:] == conv[:-1]
        prev = np.roll(tool, 1)
        g = (pd.DataFrame({"conv_id": conv[same], "t1": prev[same],
                           "t2": tool[same]})
             .groupby(["t1", "t2", "conv_id"], sort=False)
             .size().reset_index(name="n"))
        out = (g.groupby(["t1", "t2"], sort=False)
               .agg(n_pairs=("n", "sum"), n_convs=("conv_id", "nunique"))
               .reset_index())
        return from_pandas_clean(pd.DataFrame({
            "t1": out["t1"], "t2": out["t2"],
            "n_pairs": out["n_pairs"].astype("int64"),
            "n_convs": out["n_convs"].astype("int64")}))

    return (readers.read_transcripts(
                sf_dir, columns=["conv_id", "turn_idx", "tool"])
            .map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("cb")
            .map_groups(per_bucket, batch_format="pandas")
            .groupby(["t1", "t2"])
            .aggregate(Sum("n_pairs", alias_name="n_pairs"),
                       Sum("n_convs", alias_name="n_convs")))


FORGET_MOD = 10   # forget convs where md5(conv_id) % FORGET_MOD == 0 (~10%)


def kg_forget_ds(sf_dir: str, mod: int = FORGET_MOD):
    """Right-to-be-forgotten retraction census — given a forget-set of
    conversations (deterministic md5(conv_id) % mod == 0 selector standing
    in for a deletion request list), compute per (graph_class, pred) how
    many triples must be RETRACTED from the published graph:

      1. every triple in a forgotten conversation's named graph;
      2. every quarantine row whose subject turn belongs to a forgotten
         conversation (error side-channels hold user data too);
      3. the ENTITY CASCADE: shared-graph entity triples retract only when
         the entity becomes ORPHANED — every `tr:mentions` edge pointing at
         it came from forgotten conversations (a gazetteer entity mentioned
         by any surviving conversation must stay); facet nodes hanging off
         an orphaned entity (N:… objects of its triples) retract with it.

    Dangling obj-side references to orphaned entities are the incremental
    pipeline's compaction concern (kg_incremental tombstones), not this
    census — documented, not silently skipped.

    Scale shape: the forget flag is DERIVED per row from provenance (the
    graph / subject URI carries conv_id — no forget-list broadcast or
    join); direct retractions are map-side count partials; orphan
    detection is one groupby over mention edges (entity-vocabulary sized);
    the cascade resolves through two subject-hash tagged co-groups against
    the entity-graph rows (corpus-sized sides, never broadcast). The
    classified triple stream is materialized ONCE and fans out to all
    three consumers."""
    import hashlib

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from ..functions.arrowutils import (from_pandas_clean, hash_bucket,
                                        scale_buckets)

    nb = scale_buckets(floor=16, per_cpu=2)

    def classify(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        graph = df["graph"].astype(str)
        is_conv = graph.str.startswith("G:conv")
        is_q = graph == "G:quarantine"
        subjs = df["subj"].astype(str)
        # quarantine rows with a turn subject (U:conv-…/NNNNN) belong to a
        # conversation; entity-level quarantine (e.g. q:prop_self_loop on
        # an ENT: subject) is not conversation user data — never forgotten
        qconv = np.where(subjs.str.contains("/", regex=False),
                         subjs.str.slice(2).str.split("/").str[0], "")
        conv = pd.Series(np.where(is_conv, graph.str.slice(2),
                                  np.where(is_q, qconv, "")),
                         index=df.index)
        memo: dict[str, bool] = {}

        def fget(c: str) -> bool:
            if not c:
                return False
            v = memo.get(c)
            if v is None:
                v = int(hashlib.md5(c.encode()).hexdigest()[:15],
                        16) % mod == 0
                memo[c] = v
            return v

        return from_pandas_clean(pd.DataFrame({
            "graph_class": np.where(is_conv, "conv",
                                    np.where(is_q, "quarantine",
                                             "entities")),
            "pred": df["pred"], "subj": df["subj"], "obj": df["obj"],
            "forgotten": pd.Series([fget(c) for c in conv],
                                   dtype="bool", index=df.index)}))

    tri = (kg_triples_ds(sf_dir)
           .map_batches(classify, batch_format="pyarrow",
                        zero_copy_batch=True)
           .materialize())

    def direct_partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df[df["forgotten"] & (df["graph_class"] != "entities")]
        g = (df.groupby(["graph_class", "pred"], sort=False)
             .size().reset_index(name="n"))
        g["n"] = g["n"].astype("int64")
        return from_pandas_clean(g)

    direct = tri.map_batches(direct_partial, batch_format="pyarrow")

    def mention_partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df[(df["graph_class"] == "conv") & (df["pred"] == "tr:mentions")]
        g = (df.assign(surv=(~df["forgotten"]).astype("int64"))
             .groupby("obj", sort=False)["surv"].sum().reset_index()
             .rename(columns={"obj": "ent"}))
        g["surv"] = g["surv"].astype("int64")
        return from_pandas_clean(g)

    orphans = (tri.map_batches(mention_partial, batch_format="pyarrow")
               .groupby("ent").aggregate(Sum("surv", alias_name="surv"))
               .filter(lambda r: r["surv"] == 0))

    def ent_tag(t: pa.Table) -> pa.Table:
        sub = t.filter(pc.equal(t["graph_class"], "entities"))
        key = sub["subj"].combine_chunks()
        n = len(sub)
        return pa.table({
            "kbucket": hash_bucket(pc.cast(key, pa.string()), nb),
            "tag": pa.array(np.zeros(n, np.int8)),
            "key": pc.cast(key, pa.string()),
            "pred": pc.cast(sub["pred"], pa.string()),
            "obj": pc.cast(sub["obj"], pa.string())})

    def key_tag(col: str):
        def f(t: pa.Table) -> pa.Table:
            key = pc.cast(t[col].combine_chunks(), pa.string())
            n = len(t)
            return pa.table({
                "kbucket": hash_bucket(key, nb),
                "tag": pa.array(np.ones(n, np.int8)),
                "key": key,
                "pred": pa.array([""] * n, pa.string()),
                "obj": pa.array([""] * n, pa.string())})
        return f

    def cascade(df: pd.DataFrame) -> pd.DataFrame:
        hit = set(df.loc[df["tag"] == 1, "key"])
        rows = df[(df["tag"] == 0) & df["key"].isin(hit)]
        g = (rows.groupby("pred", sort=False).size().reset_index(name="n"))
        g.insert(0, "graph_class", "entities")
        g["key"] = ""
        facets = rows.loc[rows["obj"].str.startswith("N:"), "obj"]
        f = pd.DataFrame({"graph_class": "_facet",
                          "pred": "", "n": 1,
                          "key": facets.to_numpy()})
        out = pd.concat([g, f], ignore_index=True)
        out["n"] = out["n"].astype("int64")
        return pa.table({
            "graph_class": pa.array(out["graph_class"].astype(str).tolist(),
                                    pa.string()),
            "pred": pa.array(out["pred"].astype(str).tolist(), pa.string()),
            "n": pa.array(out["n"].to_numpy("int64")),
            "key": pa.array(out["key"].astype(str).tolist(), pa.string())})

    ent_rows = tri.map_batches(ent_tag, batch_format="pyarrow")
    # step1 feeds BOTH the count stream and the facet-key stream — without
    # materialize the union+co-group plan would re-execute per consumer
    # (measured 85 s → 70 s for the whole op at sf0.01/32 cpus; the rest
    # is fixed per-stage executor overhead across the op's small shuffles)
    step1 = (ent_rows
             .union(orphans.map_batches(key_tag("ent"),
                                        batch_format="pyarrow"))
             .groupby("kbucket")
             .map_groups(cascade, batch_format="pandas")
             .materialize())

    # split step1: entity-retraction counts pass through; facet keys feed
    # the second co-group against the same entity rows
    counts1 = (step1.filter(lambda r: r["graph_class"] != "_facet")
               .map_batches(lambda t: t.select(["graph_class", "pred", "n"]),
                            batch_format="pyarrow"))
    facet_keys = (step1.filter(lambda r: r["graph_class"] == "_facet")
                  .map_batches(lambda t: t.select(["key"]),
                               batch_format="pyarrow"))

    def cascade2(df: pd.DataFrame) -> pa.Table:
        hit = set(df.loc[df["tag"] == 1, "key"])
        rows = df[(df["tag"] == 0) & df["key"].isin(hit)]
        g = rows.groupby("pred", sort=False).size().reset_index(name="n")
        return pa.table({
            "graph_class": pa.array(["entities"] * len(g), pa.string()),
            "pred": pa.array(g["pred"].astype(str).tolist(), pa.string()),
            "n": pa.array(g["n"].to_numpy("int64"))})

    counts2 = (ent_rows
               .union(facet_keys.map_batches(key_tag("key"),
                                             batch_format="pyarrow"))
               .groupby("kbucket")
               .map_groups(cascade2, batch_format="pandas"))

    return (direct.union(counts1).union(counts2)
            .groupby(["graph_class", "pred"])
            .aggregate(Sum("n", alias_name="n_retract")))


def conv_tool_latency_ds(sf_dir: str):
    """Per-tool execution-latency proxy: for every tool turn, the gap to
    the conversation's NEXT turn (of any role — the earliest moment the
    transcript proves the call had returned), aggregated per tool as call
    count, total/min/max gap in exact epoch micros — the agent-telemetry
    table an operator reads next to conv_tool_retries before deciding
    which tools need timeouts. Tool turns that end their conversation have
    no successor and are counted separately (n_tail) rather than silently
    dropped.

    Scale shape: one conv-hash bucket shuffle of the pruned (conv, turn,
    tool, ts) stream (successor lookup is conv-local); in-bucket
    vectorized sort + shift; per-tool partials collapse in-bucket so the
    final sum ships one row per (bucket, tool) — tool-vocabulary bounded."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Max, Min, Sum

    from ..functions.arrowutils import (from_pandas_clean, hash_bucket,
                                        scale_buckets)

    nb = scale_buckets(floor=16, per_cpu=2)

    def tag(t: pa.Table) -> pa.Table:
        conv = pc.cast(t["conv_id"].combine_chunks(), pa.string())
        tool = pc.fill_null(pc.cast(t["tool"].combine_chunks(),
                                    pa.string()), "")
        return pa.table({"cb": hash_bucket(conv, nb), "conv_id": conv,
                         "turn_idx": pc.cast(t["turn_idx"], pa.int64()),
                         "tool": tool,
                         "ts_us": pc.cast(t["ts"], pa.int64())})

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["conv_id", "turn_idx"], kind="stable")
        conv = df["conv_id"].to_numpy()
        ts = df["ts_us"].to_numpy()
        nxt = np.roll(ts, -1)
        same = np.empty(len(df), dtype=bool)
        if len(df):
            same[-1] = False
            same[:-1] = conv[1:] == conv[:-1]
        rows = pd.DataFrame({"tool": df["tool"].to_numpy(),
                             "gap": np.where(same, nxt - ts, 0),
                             "has_next": same})
        rows = rows[rows["tool"] != ""]
        g = rows.groupby("tool", as_index=False).agg(
            n_calls=("gap", "size"),
            n_tail=("has_next", lambda s: int((~s).sum())),
            sum_gap_us=("gap", "sum"))
        mg = rows[rows["has_next"]].groupby("tool", as_index=False).agg(
            min_gap_us=("gap", "min"), max_gap_us=("gap", "max"))
        g = g.merge(mg, on="tool", how="left")
        big = np.int64(np.iinfo(np.int64).max)
        # sentinel assignment must NOT round-trip through float64:
        # fillna(int64max) on a float column rounds to 2^63 and the int64
        # cast overflows to int64 MIN — which then WINS the global Min
        # merge whenever any bucket has a tail-only tool (fired at
        # fan-out ≥ 64; found by the round-5 full-suite run)
        no_timed = g["min_gap_us"].isna()
        g["min_gap_us"] = g["min_gap_us"].fillna(0).astype("int64")
        g.loc[no_timed, "min_gap_us"] = big
        g["max_gap_us"] = g["max_gap_us"].fillna(-1).astype("int64")
        for c in ("n_calls", "n_tail", "sum_gap_us"):
            g[c] = g[c].astype("int64")
        return g

    def finish(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        big = np.iinfo(np.int64).max
        n_timed = (df["n_calls"] - df["n_tail"]).astype("int64")
        mn = df["min_gap_us"].to_numpy("int64")
        mx = df["max_gap_us"].to_numpy("int64")
        # -1 for "no timed call": big is the partial sentinel; int64 MIN is
        # the float64-coerced image of that sentinel (or of a null injected
        # by a mixed/empty-schema block upstream) — normalize both so the
        # sentinel can never masquerade as a real minimum
        neg = np.iinfo(np.int64).min
        return pa.table({
            "tool": pa.array(df["tool"].astype(str).tolist(), pa.string()),
            "n_calls": pa.array(df["n_calls"].to_numpy("int64")),
            "n_tail": pa.array(df["n_tail"].to_numpy("int64")),
            "sum_gap_us": pa.array(df["sum_gap_us"].to_numpy("int64")),
            "min_gap_us": pa.array(np.where((mn == big) | (mn == neg),
                                            -1, mn).astype("int64")),
            "max_gap_us": pa.array(mx.astype("int64")),
            "n_timed": pa.array(n_timed.to_numpy())})

    return (readers.read_transcripts(
                sf_dir, columns=["conv_id", "turn_idx", "tool", "ts"])
            .map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("cb")
            .map_groups(per_bucket, batch_format="pandas")
            .groupby("tool")
            .aggregate(Sum("n_calls", alias_name="n_calls"),
                       Sum("n_tail", alias_name="n_tail"),
                       Sum("sum_gap_us", alias_name="sum_gap_us"),
                       Min("min_gap_us", alias_name="min_gap_us"),
                       Max("max_gap_us", alias_name="max_gap_us"))
            .map_batches(finish, batch_format="pyarrow"))
