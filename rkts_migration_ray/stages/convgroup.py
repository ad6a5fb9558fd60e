"""Per-conversation ordered windows: hierarchy indices, section rollup, titles.

Semantics mirrored from the reference (SURVEY.md §2.6/§2.4):
- partIndex: dense sibling index within the enclosing section
  (countValues('bdo:hasPart')+1, editionxmltottl.php:192-195)
- partTreeIndex: zero-padded path 'SS.PPPP' (editionxmltottl.php:171,196)
- section rollover on marker change (ST8 state machine,
  editionxmltottl.php:150-206) with begin-loc from the first item and end-loc
  from the last (utils.php:447-488) — computed *before* emission, eliminating
  the reference's mutate-after-emit patch (utils.php:472-487)
- ordered-distinct volume letters per section (volumeMap accumulation,
  editionxmltottl.php:360-376, exportvolumemap.php:11-59)
- per-conv title dedup, case/separator-insensitive (kernelxmltottl.php:205-227)

Execution shape: conversations are hash-bucketed (hash(conv_id) % B) and
co-grouped by one range-partitioned sort on that bucket (conv_exchange) —
each call holds MANY whole conversations, and all window math inside is
vectorized pandas groupby over them (per-conversation map_groups costs ~ms
of Python per group, which dominates wall time at 10^6+ conversations;
bucketing amortizes it while preserving exact per-conv semantics, since a
call always holds every turn of its conversations). In-call order is
explicit (sort by conv_id, turn_idx), never block-arrival order.

Fan-out B is sized from the data (conv_buckets): about
TURNS_PER_CONV_BUCKET turns per bucket, at least two buckets per CPU slot,
capped at scale_buckets(N_CONV_BUCKETS, 8). A fixed 256-way floor cost one
pandas call per group even when the input held only ~150 conversations
(2 k turns: ~5 s of UDF time, against well under 1 s at 4 buckets). B never
changes the output, only how the same conversations are grouped.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..config import (
    DT_INT,
    P_BEGIN_LOC,
    P_END_LOC,
    P_HAS_PART,
    P_HAS_TITLE,
    P_IN_SECTION,
    P_LABEL,
    P_PART_INDEX,
    P_PART_OF,
    P_SECTION_NAME,
    P_SECTION_VOLS,
    P_TREE_INDEX,
    P_TURN_COUNT,
    P_TYPE,
    T_CHAPTER,
    T_CONV,
    T_SECTION,
    TRIPLE_COLUMNS,
)
from ..functions.arrowutils import (
    cluster_cpus,
    from_pandas_clean,
    hash_bucket,
    range_exchange,
    scale_buckets,
)
from ..functions.minting import mint_node_array

CONV_GROUP_COLUMNS = [
    "conv_id", "turn_idx", "sec", "loc_valid", "loc_body", "loc_bvolname",
    "title_bcp", "title_label", "title_key", "chap_label",
]

N_CONV_BUCKETS = 256  # fan-out cap up to 32 CPUs; 8 per CPU beyond
TURNS_PER_CONV_BUCKET = 2_000


def conv_buckets(sf_dir: str | None = None) -> int:
    """Conv shuffle fan-out, the one rule for every conv-keyed shuffle:
    ceil(turns / TURNS_PER_CONV_BUCKET), at least 2 × the cluster's CPU
    slots, at most scale_buckets(N_CONV_BUCKETS, 8). The turn count comes
    from the Parquet footers of ``sf_dir``'s transcripts; without
    ``sf_dir`` the cap applies. (sf0.1, 600 k turns, at 32 CPUs: 256.)"""
    cap = scale_buckets(floor=N_CONV_BUCKETS, per_cpu=8)
    if sf_dir is None:
        return cap
    from ..sources.readers import transcript_rows

    want = -(-transcript_rows(sf_dir) // TURNS_PER_CONV_BUCKET)
    return min(cap, max(2 * cluster_cpus(), want))


def add_conv_bucket(batch: pa.Table, n_buckets: int | None = None) -> pa.Table:
    n = n_buckets if n_buckets is not None else conv_buckets()
    return batch.append_column("conv_bucket", hash_bucket(batch["conv_id"], n))


def conv_exchange(ds, n_buckets: int, fn, schema: pa.Schema):
    """Co-group ``ds`` by conversation: hash ``conv_id`` into ``n_buckets``
    (conv_buckets) and range_exchange on that bucket, so each ``fn`` call
    gets a pandas frame with every turn of each conversation in it (many
    conversations per call)."""
    return range_exchange(
        ds.map_batches(add_conv_bucket, fn_kwargs={"n_buckets": n_buckets},
                       batch_format="pyarrow"),
        "conv_bucket", n_buckets, fn, schema, "pandas")


def _mint_series(facet: str, local: pd.Series, content: pd.Series) -> pd.Series:
    # Arrow-kernel concat + batched sha (mint_node_array); only the sha256
    # itself is a C-loop — identical output to the scalar mint_node
    arr = mint_node_array(
        facet,
        pa.array(local.to_numpy(dtype=object), pa.string()),
        pa.array(content.to_numpy(dtype=object), pa.string()))
    return pd.Series(arr.to_numpy(zero_copy_only=False),
                     index=local.index, dtype=object)


def conv_bucket_triples(df: pd.DataFrame, one_title_per_lang: bool = False,
                        migrate_chapters: bool = True) -> pa.Table:
    """One bucket of whole conversations (arbitrary arrival order) →
    window-derived triples. All per-conv windows vectorized over the bucket."""
    df = df.sort_values(["conv_id", "turn_idx"], kind="stable").reset_index(drop=True)
    conv = df["conv_id"]
    turn_uris = "U:" + conv + "/" + df["turn_idx"].astype(int).astype(str).str.zfill(5)
    graph = "G:" + conv

    sec_flag = df["sec"].notna()
    sec_ord = sec_flag.groupby(conv, sort=False).cumsum()
    pos = df.groupby([conv, sec_ord], sort=False).cumcount() + 1
    tree = sec_ord.astype(str).str.zfill(2) + "." + pos.astype(str).str.zfill(4)

    frames: list[pd.DataFrame] = []

    def col(v):
        # positional semantics everywhere: Series/Index → plain object array
        if isinstance(v, (pd.Series, pd.Index)):
            return v.to_numpy(dtype=object)
        return v if isinstance(v, str) else np.asarray(v, dtype=object)

    def emit(subj, pred, obj, lang="", dt="", g=None):
        frames.append(pd.DataFrame({
            "subj": col(subj), "pred": col(pred), "obj": col(obj),
            "obj_lang": col(lang), "obj_dt": col(dt), "graph": col(g)}))

    emit(turn_uris, P_PART_INDEX, pos.astype(str), "", DT_INT, graph)
    emit(turn_uris, P_TREE_INDEX, tree, "", "", graph)

    sizes = df.groupby(conv, sort=False).size()
    conv_ids = sizes.index.to_numpy(dtype=object)
    emit("C:" + sizes.index, P_TYPE, T_CONV, "", "", "G:" + sizes.index)
    emit("C:" + sizes.index, P_TURN_COUNT,
         sizes.astype(str).to_numpy(dtype=object), "", DT_INT, "G:" + sizes.index)

    # ---- sections -----------------------------------------------------------
    insec_mask = sec_ord > 0
    if insec_mask.any():
        sec_name = df["sec"].groupby(conv, sort=False).ffill()
        insec = pd.DataFrame({
            "conv_id": conv[insec_mask], "sec_ord": sec_ord[insec_mask],
            "sec_name": sec_name[insec_mask], "turn_uri": turn_uris[insec_mask],
            "graph": graph[insec_mask],
            "loc_valid": df["loc_valid"][insec_mask].fillna(False),
            "loc_body": df["loc_body"][insec_mask],
            "bvolname": df["loc_bvolname"][insec_mask],
        })
        keys = ["conv_id", "sec_ord"]
        secs = insec.groupby(keys, sort=False).agg(
            name=("sec_name", "first"), graph=("graph", "first")).reset_index()
        secs["sec_uri"] = _mint_series("SE", secs["conv_id"], secs["name"])
        locs = insec[insec["loc_valid"] & insec["loc_body"].notna()]
        bl = locs.groupby(keys, sort=False)["loc_body"].agg(["first", "last"])
        secs = secs.merge(bl.reset_index(), on=keys, how="left")
        v = insec[insec["bvolname"].notna()].drop_duplicates(keys + ["bvolname"])
        vols = (v.groupby(keys, sort=False)["bvolname"].agg(" ".join)
                .rename("vols").reset_index())
        secs = secs.merge(vols, on=keys, how="left")

        emit(secs["sec_uri"], P_TYPE, T_SECTION, "", "", secs["graph"])
        emit(secs["sec_uri"], P_SECTION_NAME, secs["name"], "", "", secs["graph"])
        with_b = secs[secs["first"].notna()]
        emit(with_b["sec_uri"], P_BEGIN_LOC, with_b["first"], "", "", with_b["graph"])
        emit(with_b["sec_uri"], P_END_LOC, with_b["last"], "", "", with_b["graph"])
        with_v = secs[secs["vols"].notna()]
        emit(with_v["sec_uri"], P_SECTION_VOLS, with_v["vols"], "", "", with_v["graph"])
        edges = insec.merge(secs[keys + ["sec_uri"]], on=keys)
        emit(edges["turn_uri"], P_IN_SECTION, edges["sec_uri"], "", "", edges["graph"])

    # ---- chapters: 3rd hierarchy level SS.PPPP.CC ---------------------------
    # (editionxmltottl.php:219-255: chapter node under its text part with
    # partIndex = per-part chapter ordinal, partTreeIndex = parent.'%02d',
    # hasPart edge from the part; label already normalized at extraction)
    # migrateChapters=false breaks out of the reference's chapter loop
    # (editionxmltottl.php:220) — the whole hierarchy level disappears
    has_ch = df["chap_label"].map(len).astype(int) > 0
    if migrate_chapters and has_ch.any():
        cc = pd.DataFrame({
            "conv_id": conv[has_ch], "turn_uri": turn_uris[has_ch],
            "graph": graph[has_ch], "tree": tree[has_ch],
            "label": df["chap_label"][has_ch],
        }).explode("label").dropna(subset=["label"])
        cc["cidx"] = cc.groupby(level=0).cumcount() + 1
        ctree = cc["tree"] + "." + cc["cidx"].astype(str).str.zfill(2)
        curi = _mint_series("CH", cc["conv_id"], ctree + "|" + cc["label"])
        emit(curi, P_TYPE, T_CHAPTER, "", "", cc["graph"])
        emit(curi, P_PART_OF, cc["turn_uri"], "", "", cc["graph"])
        emit(curi, P_PART_INDEX, cc["cidx"].astype(str), "", DT_INT, cc["graph"])
        emit(curi, P_TREE_INDEX, ctree, "", "", cc["graph"])
        emit(curi, P_LABEL, cc["label"], "bo-x-ewts", "", cc["graph"])
        emit(cc["turn_uri"], P_HAS_PART, curi, "", "", cc["graph"])

    # ---- titles (first occurrence per conv × lang × dedup-key) --------------
    has_titles = df["title_bcp"].map(len).astype(int) > 0
    if has_titles.any():
        tt = (df.loc[has_titles,
                     ["conv_id", "turn_idx", "title_bcp", "title_label", "title_key"]]
              .explode(["title_bcp", "title_label", "title_key"])
              .dropna(subset=["title_bcp"]))
        subset = (["conv_id", "title_bcp"] if one_title_per_lang
                  else ["conv_id", "title_bcp", "title_key"])
        tt = tt.drop_duplicates(subset=subset, keep="first")
        t_uri = _mint_series("TT", tt["conv_id"],
                             tt["title_bcp"] + "|" + tt["title_label"])
        emit("C:" + tt["conv_id"], P_HAS_TITLE, t_uri, "", "", "G:" + tt["conv_id"])
        emit(t_uri, P_LABEL, tt["title_label"], tt["title_bcp"], "",
             "G:" + tt["conv_id"])

    out = pd.concat(frames, ignore_index=True)
    for c in ("pred", "obj_lang", "obj_dt"):
        out[c] = out[c].astype(object)
    return from_pandas_clean(out[TRIPLE_COLUMNS], schema=pa.schema(
        [(c, pa.string()) for c in TRIPLE_COLUMNS]))


def conv_group_triples(df: pd.DataFrame, one_title_per_lang: bool = False,
                       migrate_chapters: bool = True) -> pd.DataFrame:
    """Single-conversation reference implementation (used by unit tests and as
    the readable specification of conv_bucket_triples)."""
    return conv_bucket_triples(df, one_title_per_lang, migrate_chapters).to_pandas()
