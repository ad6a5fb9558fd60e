"""End-to-end pipeline properties at sf0.001 (FIXTURES.md §6):

1. oracle parity (the driver's gate, local edition) for fast queries;
2. determinism — two runs, identical triple multiset;
3. permutation invariance — the fixture is written in shuffled arrival order,
   and block order is nondeterministic across runs, so (2) over the union
   pipeline exercises it; additionally an explicitly re-shuffled input;
4. resume — materialize, delete some buckets, re-run, identical output.
"""

import os
import shutil

import duckdb
import pandas as pd
import pytest

from rkts_migration_ray import oracles
from rkts_migration_ray.pipelines import kg, materialize
from rkts_migration_ray.state import manifest as mf


def norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


@pytest.mark.parametrize("name", ["kg_structural", "kg_conv_triples",
                                  "kg_locations", "kg_validate",
                                  "conv_flatten", "kg_cooccurrence",
                                  "sft_examples", "kg_pagerank",
                                  "conv_clean_text", "kg_khop",
                                  "kg_entity_lifespan", "kg_components",
                                  "kg_pmi", "kg_pair_formation",
                                  "conv_tool_stats", "kg_neighbors_topk",
                                  "kg_dangling_refs", "kg_ancestors",
                                  "kg_turtle", "kg_negative_samples",
                                  "kg_adamic_adar", "kg_entity_growth",
                                  "kg_walks", "kg_alias_pairs",
                                  "kg_alias_clusters", "kg_walk_pairs",
                                  "conv_summary", "conv_pii_spans",
                                  "conv_pii_redact", "kg_hits", "sft_dpo_pairs",
                                  "kg_neighbor_sample", "kg_pred_paths",
                                  "kg_clustering_coef", "conv_speaker_stats",
                                  "kg_assortativity", "conv_topic_shift",
                                  "kg_entity_cards", "conv_context_budget",
                                  "conv_tool_retries",
                                  "conv_marker_profile"])
def test_oracle_parity(sf_tag, name):
    import __ray_entry__ as e

    ray_df = e.queries()[name](sf_tag).to_pandas()
    sql_df = duckdb.sql(oracles.kg_oracle_sql(sf_tag)[name]).df()
    a, b = norm(ray_df), norm(sql_df)
    assert len(a) == len(b)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_ancestors_matches_chain_walk(sf_tag):
    """Independent cross-check for the pointer-doubling closure: walk each
    node's parent chain sequentially in Python and compare the full
    (node, anc, depth) set."""
    triples = kg.kg_triples_ds(sf_tag).to_pandas()
    e = triples[triples["pred"] == "tr:partOf"]
    parent = dict(zip(e["subj"], e["obj"]))
    want = set()
    for n in parent:
        a, d = n, 0
        while a in parent:
            a = parent[a]
            d += 1
            want.add((n, a, d))
    got = kg.kg_ancestors_ds(sf_tag).to_pandas()
    assert set(map(tuple, got[["node", "anc", "depth"]].values.tolist())) == want
    assert len(got) == len(want)  # no duplicate path rows


def test_walks_match_single_process_replay(sf_tag):
    """Independent cross-check: replay every md5-addressed walk
    single-process from the co-occurrence edge list and compare the full
    (walk_id, step, node) set."""
    import hashlib

    import numpy as np

    pairs = kg.cooccurrence_ds(sf_tag).to_pandas()
    nbrs: dict = {}
    for a, b in zip(pairs["e1"], pairs["e2"]):
        nbrs.setdefault(a, set()).add(b)
        nbrs.setdefault(b, set()).add(a)
    nbrs = {k: np.sort(np.array(sorted(v), dtype=object))
            for k, v in nbrs.items()}
    want = set()
    for start in nbrs:
        cur = start
        want.add((start, 0, start))
        for i in range(kg.KG_WALK_LEN):
            h = hashlib.md5(f"{start}|{i}|{cur}".encode()).hexdigest()
            cur = nbrs[cur][int(h[:15], 16) % len(nbrs[cur])]
            want.add((start, i + 1, cur))
    got = kg.kg_walks_ds(sf_tag).to_pandas()
    assert set(map(tuple,
                   got[["walk_id", "step", "node"]].values.tolist())) == want
    assert len(got) == len(want) == len(nbrs) * (kg.KG_WALK_LEN + 1)


def test_walk_pairs_match_walk_replay(sf_tag):
    """Independent cross-check: regenerate skip-gram pairs from the walk
    table with a plain dict loop and compare counts."""
    walks = kg.kg_walks_ds(sf_tag).to_pandas()
    want: dict = {}
    for _, g in walks.groupby("walk_id", sort=False):
        g = g.sort_values("step")
        nodes = g["node"].tolist()
        for i, a in enumerate(nodes):
            for j, b in enumerate(nodes):
                if 1 <= abs(i - j) <= kg.WALK_PAIR_WINDOW:
                    want[(a, b)] = want.get((a, b), 0) + 1
    got = kg.kg_walk_pairs_ds(sf_tag).to_pandas()
    assert {(c, x): int(n) for c, x, n in
            got[["center", "context", "n"]].itertuples(index=False)} == want


def test_alias_pairs_match_brute_force(sf_tag):
    """Completeness check for the SymSpell deletion-neighborhood join:
    brute-force O(V^2) Levenshtein over the distinct alias vocabulary must
    yield exactly the same (a1, a2, dist) set — i.e. the blocking key
    never loses a qualifying pair and verification removes every
    over-generated one."""
    import itertools

    import ray

    feats = kg.features_ds(sf_tag).select_columns(
        ["conv_id", "turn_idx", "mentions"])
    aliases = sorted({a for row in ray.get(feats.to_arrow_refs())
                      for ms in row["mentions"].to_pylist() if ms
                      for a in ms})

    def lev(a, b):
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

    want = {(x, y, lev(x, y)) for x, y in itertools.combinations(aliases, 2)
            if lev(x, y) <= kg.ALIAS_EDIT_MAX}
    got = kg.kg_alias_pairs_ds(sf_tag).to_pandas()
    assert set(map(tuple, got[["a1", "a2", "dist"]].values.tolist())) == want
    assert len(got) == len(want)


def test_alias_clusters_match_union_find(sf_tag):
    """Independent cross-check: single-process union-find over the alias
    pair list must give the same partition, representative and min-md5
    component id (singletons included)."""
    import hashlib

    pairs = kg.kg_alias_pairs_ds(sf_tag).to_pandas()
    clusters = kg.kg_alias_clusters_ds(sf_tag).to_pandas()
    parent: dict = {a: a for a in clusters["alias"]}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["a1"], pairs["a2"]):
        parent[find(a)] = find(b)
    groups: dict = {}
    for a in parent:
        groups.setdefault(find(a), []).append(a)
    want = {}
    for mem in groups.values():
        rep = min(mem)
        comp = min(int(hashlib.md5(m.encode()).hexdigest()[:15], 16)
                   for m in mem)
        for m in mem:
            want[m] = (comp, rep)
    got = {a: (int(c), r) for a, c, r in
           clusters[["alias", "component", "rep_alias"]].itertuples(
               index=False)}
    assert got == want


def test_entity_growth_matches_lifespan_cumsum(sf_tag):
    """Independent cross-check: the growth curve must be exactly the
    per-day histogram + running sum of the lifespan stage's first_ts_us
    (computed here with pandas on the collected small table)."""
    life = kg.kg_entity_lifespan_ds(sf_tag).to_pandas()
    days = (life["first_ts_us"].astype("int64") // 86_400_000_000)
    want = days.value_counts().sort_index()
    got = kg.kg_entity_growth_ds(sf_tag).to_pandas().sort_values(
        "day").reset_index(drop=True)
    assert got["day"].tolist() == want.index.tolist()
    assert got["n_new_entities"].tolist() == want.tolist()
    assert got["cum_entities"].tolist() == want.cumsum().tolist()
    assert int(got["cum_entities"].iloc[-1]) == len(life)


def test_determinism_two_runs(sf_tag):
    a = norm(kg.conv_triples_ds(sf_tag).to_pandas())
    b = norm(kg.conv_triples_ds(sf_tag).to_pandas())
    pd.testing.assert_frame_equal(a, b)


def test_permutation_invariance(sf_tag, tmp_path):
    """Shuffle the input rows; the triple multiset must not change (the
    reference depends on document order — editionxmltottl.php:432-435 — the
    engine must not)."""
    import pyarrow.parquet as pq

    from rkts_migration_ray import fixtures

    src = fixtures.transcripts_path(sf_tag)
    t = pq.read_table(src)
    perm = t.take(pa_indices(t.num_rows, seed=7))
    alt_tag = "sfperm"
    alt_dir = fixtures.fixture_dir(alt_tag)
    os.makedirs(os.path.join(alt_dir, "transcripts"), exist_ok=True)
    pq.write_table(perm, os.path.join(alt_dir, "transcripts", "part-0000.parquet"))
    for aux in ("gazetteer", "alias_map", "entity_props"):
        shutil.copy(fixtures.aux_path(sf_tag, aux), fixtures.aux_path(alt_tag, aux))
    open(os.path.join(alt_dir, "_DONE"), "w").write(
        '{"version": %d}' % fixtures.FIXTURE_VERSION)
    try:
        a = norm(kg.conv_triples_ds(sf_tag).to_pandas())
        b = norm(kg.conv_triples_ds(alt_tag).to_pandas())
        pd.testing.assert_frame_equal(a, b)
    finally:
        shutil.rmtree(alt_dir, ignore_errors=True)


def pa_indices(n, seed):
    import numpy as np
    import pyarrow as pa

    return pa.array(np.random.default_rng(seed).permutation(n))


def test_materialize_resume(sf_tag, tmp_path):
    out = str(tmp_path / "graph")
    ds = kg.structural_ds(sf_tag, include_quarantine=True)
    m1 = materialize.write_graph(ds, out, n_buckets=8, resume=False)
    assert not m1["skipped"].any()
    total1 = int(m1["rows"].sum())
    sums1 = dict(zip(m1["bucket"], m1["checksum"]))

    # delete two buckets (simulate a partial failure), then resume
    for b in [2, 5]:
        shutil.rmtree(os.path.join(out, f"bucket={b:05d}"))
        os.remove(mf.manifest_path(out, b))
    ds2 = kg.structural_ds(sf_tag, include_quarantine=True)
    m2 = materialize.write_graph(ds2, out, n_buckets=8, resume=True)
    assert int(m2["rows"].sum()) == total1
    assert set(m2[m2["skipped"]]["bucket"]) == set(m1["bucket"]) - {2, 5}
    assert dict(zip(m2["bucket"], m2["checksum"])) == sums1  # content identical


def test_entity_canonicalization(sf_tag):
    """Alias chains flatten to terminal ids; curated entities carry props."""
    df = kg.entity_triples_ds(sf_tag).to_pandas()
    # no intermediate alias targets remain as subjects of curated entities
    from rkts_migration_ray.sources import readers

    closure = readers.load_alias_closure(sf_tag)
    non_terminal = {f"ENT:{src}" for src in closure}
    assert not (df["subj"].isin(non_terminal)).any()
    # self-loops quarantined, not emitted as edges
    q = df[df["graph"] == "G:quarantine"]
    assert (q["pred"] == "q:prop_self_loop").all()
    edges = df[df["pred"].isin(["tr:workIsAbout", "tr:workGenre"])]
    assert not (edges["subj"] == edges["obj"]).any()


def test_reproductions_non_bdrc_branch(sf_tag):
    """Flag-flipped reproduction semantics (editionxmltottl.php:408-416):
    bdrc emits 4 triples per (conv, rid); non-bdrc emits one rdfs:seeAlso per
    rid FROM the canonical resource — the :397-399 else-branch."""
    from rkts_migration_ray.config import DEFAULT_CONFIG, PipelineConfig

    bdrc = kg.reproduction_triples_ds(sf_tag).to_pandas()
    rkts_cfg = PipelineConfig(target="rkts")
    rkts = kg.reproduction_triples_ds(sf_tag, rkts_cfg).to_pandas()
    n_rids = len(DEFAULT_CONFIG.reproductions)
    n_convs = bdrc["graph"].nunique()
    assert len(bdrc) == 4 * n_rids * n_convs
    assert len(rkts) == n_rids * n_convs
    assert (rkts["pred"] == "rdfs:seeAlso").all()
    assert rkts["subj"].str.startswith("C:").all()
    assert rkts["obj"].str.startswith("I:").all()
    # bdrc seeAlso points the other way: instance -> canonical
    sa = bdrc[bdrc["pred"] == "rdfs:seeAlso"]
    assert sa["subj"].str.startswith("I:").all()
    assert sa["obj"].str.startswith("C:").all()
    assert set(bdrc.loc[bdrc["pred"] == "tr:script", "obj"]) == {
        DEFAULT_CONFIG.script}


def test_sft_examples_window_semantics(sf_tag):
    """Each example's context is exactly the ≤4 turns preceding the
    assistant turn, in turn order, and the target is the turn's own text."""
    import duckdb

    from rkts_migration_ray import fixtures
    from rkts_migration_ray.pipelines import kg

    out = kg.sft_examples_ds(sf_tag).to_pandas()
    con = duckdb.connect()
    tr = fixtures.transcripts_glob(sf_tag)
    full = con.execute(
        f"""SELECT conv_id, list(role ORDER BY turn_idx) AS roles,
                   list(text ORDER BY turn_idx) AS texts,
                   list(turn_idx ORDER BY turn_idx) AS idxs
            FROM read_parquet('{tr}') GROUP BY conv_id""").df()
    full = full.set_index("conv_id")
    sample = out.sort_values(["conv_id", "turn_idx"]).head(60)
    for _, r in sample.iterrows():
        roles = full.loc[r["conv_id"], "roles"]
        texts = full.loc[r["conv_id"], "texts"]
        idxs = list(full.loc[r["conv_id"], "idxs"])
        i = idxs.index(r["turn_idx"])
        assert roles[i] == "assistant"
        assert r["target"] == texts[i]
        lo = max(0, i - 4)
        want = "\n".join(f"{ro}: {tx}" for ro, tx in
                         zip(roles[lo:i], texts[lo:i]))
        assert r["context"] == want
        assert r["n_context_turns"] == i - lo


def test_sft_examples_null_role(sf_tag, monkeypatch):
    """A NULL role in a context turn renders as an empty speaker tag
    (fillna, like conv_flatten) — never the Python literal 'None' — and the
    turn still counts toward n_context_turns, matching the SQL twin's
    COALESCE(role, '')."""
    import pandas as pd
    import ray.data as rd

    from rkts_migration_ray.pipelines import kg
    from rkts_migration_ray.sources import readers

    df = pd.DataFrame({
        "conv_id": ["c1"] * 3,
        "turn_idx": pd.Series([0, 1, 2], dtype="int64"),
        "role": pd.Series(["user", None, "assistant"], dtype="object"),
        "text": pd.Series(["hi", "interjection", "answer"], dtype="object"),
    })
    monkeypatch.setattr(readers, "read_transcripts",
                        lambda sf, columns=None: rd.from_pandas(df))
    out = kg.sft_examples_ds(sf_tag).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert r["n_context_turns"] == 2
    assert r["context"] == "user: hi\n: interjection"
    assert "None" not in r["context"]
    assert r["target"] == "answer"


def test_csv_file_sinks_roundtrip(sf_tag, tmp_path):
    """Round-3 verdict fix #7: the reference's CSV exports
    (extractList.php:47-85 correspondence pivot, exportlocations.php:12-79
    locations dump) as actual FILE sinks — write via Dataset.write_csv,
    re-read, and get the identical table back."""
    import ray.data as rd

    from rkts_migration_ray.pipelines import kg

    for name, fn in (("role_pivot", kg.role_pivot_ds),
                     ("locations", kg.locations_ds)):
        out = str(tmp_path / name)
        ds = fn(sf_tag)
        want = ds.to_pandas()
        ds.write_csv(out)
        got = rd.read_csv(out).to_pandas()
        assert len(got) == len(want) > 0
        cols = sorted(want.columns)

        def norm(df):
            df = df[cols].copy()
            # CSV has no NULL-vs-empty-string distinction and re-infers
            # dtypes on read; normalize both sides the same way
            for c in cols:
                if df[c].dtype == object:
                    df[c] = df[c].fillna("").astype(str)
            df = df.astype({c: str(t) for c, t in want.dtypes.items()
                            if t != object})
            return (df.sort_values(cols, kind="stable")
                    .reset_index(drop=True))

        w, g = norm(want), norm(got)
        assert w.equals(g), f"{name} CSV round-trip mismatch"
