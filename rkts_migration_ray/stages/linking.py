"""Entity linking: stateless tasks over a broadcast gazetteer.

≈ the reference's gazetteer hit / minted miss logic (id_to_url_abstract,
utils.php:68-97 + get_abstract_mapping utils.php:872-897) and the alias
canonicalization maps (KTMapping / SameTextDifferentTranslation / redirects,
rkts.yaml:38-113, utils.php:102-109, kernelxmltottl.php:255-270).

The gazetteer / alias-closure / props dicts are ray.put ONCE on the driver
(ST2 in SURVEY.md §2.4) and fetched by ref when MentionLinker / EntityEmitter
is built inside each task (pipelines/kg.py wraps both as plain functions) —
broadcast small-side lookup, never a shuffle join, never re-shipped with the
batches. No actor pool: a pool must start before its stage can run, and one
sized past the cluster's CPU slots waits on actors that cannot start.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.arrowutils import from_pandas_clean
from ..config import (
    DEFAULT_CONFIG,
    DT_BOOL,
    GRAPH_ENTITIES,
    OBJ_LANG_INC,
    P_GENRE,
    P_IDENTIFIED_BY,
    P_IS_ABOUT,
    P_IS_ROOT,
    P_LABEL,
    P_LANGUAGE,
    P_MENTIONS,
    P_PARALLELS,
    P_PREF_LABEL,
    P_TYPE,
    P_VALUE,
    RULE_SELF_LOOP,
    T_ENTITY,
    T_WORK,
    TRIPLE_COLUMNS,
    PipelineConfig,
)

GRAPH_QUARANTINE = "G:quarantine"

LINKED_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("turn_idx", pa.int32()), ("alias", pa.string()),
    ("entity_uri", pa.string()), ("final_id", pa.string()),
    ("curated", pa.bool_()),
])


def _mint_entity_uris(aliases: pd.Series) -> pd.Series:
    """Minted miss path: 'N:EN<sha6>_<alias>' (bnode_url, utils.php:7-15).
    Unique aliases hashed once per batch, then mapped back."""
    uniq = aliases.unique()
    sha = hashlib.sha256
    table = {a: f"N:EN{sha(a.encode()).hexdigest()[:6].upper()}_{a}" for a in uniq}
    return aliases.map(table)


class MentionLinker:
    """Linking UDF: (conv_id, turn_idx, alias) → + entity_uri/final_id/curated.

    Built from refs (``gaz_ref``/``alias_ref``, inside a Ray task) or from
    the dicts themselves (``gaz``/``alias_closure``, in-process callers).

    With ``explode=True`` the batch is the raw feature rows (one row per turn,
    ``mentions`` list column): explode → link → exact per-turn dedup of
    (conv_id, turn_idx, entity_uri) happen inside ONE call, so two aliases of
    a turn resolving to one entity can never survive as duplicate rows — even
    when Ray re-batches or splits blocks between operators (round-1 advice:
    the previous per-batch drop_duplicates in mention_triples was only exact
    if a turn's exploded rows never straddled a block boundary)."""

    def __init__(self, gaz_ref=None, alias_ref=None, gaz=None, alias_closure=None,
                 explode: bool = False):
        import ray

        self.gaz = gaz if gaz is not None else ray.get(gaz_ref)
        self.closure = alias_closure if alias_closure is not None else ray.get(alias_ref)
        self.explode = explode

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.explode:
            from .extract import explode_mentions

            batch = explode_mentions(batch)
        df = batch.to_pandas()
        if len(df) == 0:
            return LINKED_SCHEMA.empty_table()
        canon = df["alias"].map(self.gaz)
        final = canon.map(self.closure).fillna(canon)
        curated = canon.notna()
        minted = _mint_entity_uris(df["alias"][~curated]) if (~curated).any() else pd.Series(dtype=object)
        uri = pd.Series(np.empty(len(df), dtype=object), index=df.index)
        uri[curated] = "ENT:" + final[curated]
        uri[~curated] = minted
        out = df.assign(entity_uri=uri, final_id=final.where(curated, None),
                        curated=curated)
        if self.explode:
            # exact: every row of a turn is inside this batch (see class doc)
            out = out.drop_duplicates(["conv_id", "turn_idx", "entity_uri"])
        return from_pandas_clean(out[LINKED_SCHEMA.names], schema=LINKED_SCHEMA)


def mention_triples(batch: pa.Table) -> pa.Table:
    """(turn, tr:mentions, entity) — deduped per turn after linking (two
    aliases resolving to one canonical yield one edge; ≈ A5 seen-sets)."""
    df = batch.to_pandas()[["conv_id", "turn_idx", "entity_uri"]].drop_duplicates()
    turn = "U:" + df["conv_id"] + "/" + df["turn_idx"].astype(int).astype(str).str.zfill(5)
    out = pd.DataFrame({
        "subj": turn, "pred": P_MENTIONS, "obj": df["entity_uri"],
        "obj_lang": "", "obj_dt": "", "graph": "G:" + df["conv_id"],
    })
    return from_pandas_clean(out[TRIPLE_COLUMNS])


N_ENTITY_BUCKETS = 64  # local floor; entity_buckets() scales with cluster CPUs


def entity_buckets() -> int:
    from ..functions.arrowutils import scale_buckets

    return scale_buckets(floor=N_ENTITY_BUCKETS, per_cpu=2)


def entity_rows(batch: pa.Table, n_buckets: int = N_ENTITY_BUCKETS) -> pa.Table:
    """Partial dedup: distinct (entity_uri, curated, final_id, alias) per batch.
    This is the combiner before the canonical-merge groupby — head entities
    (≈ P7326 skew) collapse to ≤1 row per batch here, bounding group sizes.
    'ebucket' (hash(uri) % n) is the shuffle key: the merge groups whole hash
    buckets, not individual entities (per-group Python overhead amortized)."""
    from ..functions.arrowutils import hash_bucket

    df = batch.to_pandas()
    df["alias"] = df["alias"].where(~df["curated"], None)
    cols = df[["entity_uri", "curated", "final_id", "alias"]].drop_duplicates("entity_uri")
    eb = hash_bucket(pa.array(cols["entity_uri"], pa.string()), n_buckets)
    cols = cols.assign(ebucket=eb.to_numpy(zero_copy_only=False))
    return from_pandas_clean(cols)


def dedup_entities(df: pd.DataFrame) -> pd.DataFrame:
    """Final canonical-merge dedup within one entity-hash bucket (exact: a
    bucket holds every partial row of its entities)."""
    return df.drop_duplicates("entity_uri").drop(columns=["ebucket"])


class EntityEmitter:
    """Distinct-entity stream → entity triples + props enrichment edges.

    ≈ add_props (kernelxmltottl.php:36-47): 'ab' → workIsAbout, 'ge' →
    workGenre, self-pointer → error channel (kernelxmltottl.php:41-42).

    Behavior flags (PipelineConfig ≈ rkts.yaml:1,35-36):
    - ``use_abstract`` (≈ useAbstract, kernelxmltottl.php:114-144): curated
      entities fan out an abstract tr:Work node — entity→parallels→abstract
      (:116), abstract typed Work/LangInc/isRoot (:127-130) and
      abstract→parallels→entity (:140). bdrc target only (:114 ``$bdrc &&``);
      the sa-x-iast prefLabel copy (:131-136) has no analog because the
      entity stream carries no title literals (titles live in the conv
      stream).
    - ``catalogue_numbering_scheme`` (≈ the scheme inside
      'bdr:RefrKTs'.$edition, kernelxmltottl.php:154-159): every curated
      entity gets an identifier node — entity→identifiedBy→idnode,
      idnode rdf:value=final_id, idnode rdf:type tr:Ref<scheme>.
    - ``use_skos_labels`` (rkts.yaml:35, unread in PHP; natural semantics of
      the skos family at kernelxmltottl.php:219-223): minted-entity labels
      emit skos:prefLabel instead of rdfs:label."""

    def __init__(self, props_ref=None, props=None,
                 cfg: PipelineConfig = DEFAULT_CONFIG):
        import ray

        self.props = props if props is not None else ray.get(props_ref)
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        frames: list[pd.DataFrame] = []
        cfg = self.cfg

        def block(subj, pred, obj, graph=GRAPH_ENTITIES, lang="", dt=""):
            frames.append(pd.DataFrame({
                "subj": np.asarray(subj, dtype=object), "pred": pred,
                "obj": np.asarray(obj, dtype=object),
                "obj_lang": lang, "obj_dt": dt, "graph": graph}))

        block(df["entity_uri"], P_TYPE, np.repeat(T_ENTITY, len(df)))
        nc = df[~df["curated"]]
        if len(nc):
            block(nc["entity_uri"],
                  P_PREF_LABEL if cfg.use_skos_labels else P_LABEL,
                  nc["alias"])
        cu = df[df["curated"]]
        if len(cu):
            fid = cu["final_id"].astype(str)
            if cfg.use_abstract and cfg.target == "bdrc":
                # abstract Work node per curated entity (kernelxmltottl.php:
                # 114-144); ABS: ≈ id_to_url_abstract %GID (utils.php:68-82)
                abs_uri = ("ABS:" + fid).to_numpy(dtype=object)
                ent = cu["entity_uri"].to_numpy(dtype=object)
                block(ent, P_PARALLELS, abs_uri)
                block(abs_uri, P_TYPE, np.repeat(T_WORK, len(cu)))
                block(abs_uri, P_LANGUAGE, np.repeat(OBJ_LANG_INC, len(cu)))
                block(abs_uri, P_IS_ROOT, np.repeat("true", len(cu)), dt=DT_BOOL)
                block(abs_uri, P_PARALLELS, ent)
            # identifier node (kernelxmltottl.php:154-159; bnode_url minting
            # ≈ utils.php:7-15, same shape as the minted-entity path above)
            sha = hashlib.sha256
            id_uri = np.fromiter(
                (f"N:ID{sha(f.encode()).hexdigest()[:6].upper()}_{f}"
                 for f in fid),
                dtype=object, count=len(cu))
            block(cu["entity_uri"], P_IDENTIFIED_BY, id_uri)
            block(id_uri, P_VALUE, fid.to_numpy(dtype=object))
            block(id_uri, P_TYPE,
                  np.repeat(f"tr:Ref{cfg.catalogue_numbering_scheme}", len(cu)))
        if len(cu):
            pr = (cu[["entity_uri", "final_id"]]
                  .assign(pt=cu["final_id"].map(
                      lambda f: self.props.get(f) or None))
                  .dropna(subset=["pt"]).explode("pt"))
            if len(pr):
                pr = pr.assign(prop=[p[0] for p in pr["pt"]],
                               target=[p[1] for p in pr["pt"]])
                loop = pr["target"] == pr["final_id"]
                good = pr[~loop]
                if len(good):
                    block(good["entity_uri"],
                          np.where(good["prop"] == "ab", P_IS_ABOUT, P_GENRE),
                          "ENT:" + good["target"])
                bad = pr[loop]
                if len(bad):
                    block(bad["entity_uri"], "q:" + RULE_SELF_LOOP,
                          bad["target"], graph=GRAPH_QUARANTINE)
        out = pd.concat(frames, ignore_index=True)
        for c in ("pred", "obj_lang", "obj_dt", "graph"):
            out[c] = out[c].astype(object)
        return from_pandas_clean(out[TRIPLE_COLUMNS], schema=pa.schema(
            [(c, pa.string()) for c in TRIPLE_COLUMNS]))
