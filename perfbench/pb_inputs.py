"""Seeded benchmark inputs and the expected results of every output check.

Everything here is a pure function of the seed and is cached under the
benchmark's work directory, so a second run with the same seed generates
nothing. The engine only ever sees the generated files:

- a transcript tier in the package's fixture grammar, written as its own
  tier (tag ``sfpb<version>-<turns>-s<seed>``) under ``fixtures.FIXTURE_ROOT``;
- a document + embedding directory (``documents.parquet`` with planted
  near-duplicate families, ``embeddings.parquet`` with clustered vectors);
- the expected results, keyed by a content hash of the input files: the
  DuckDB ``kg_triples`` twin's triples and the DuckDB
  ``dedup_minhash_pairs`` twin's from-scratch pairs.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from pb_checks import TRIPLE_COLUMNS

VERSION = 2          # bump when generation changes: cached inputs are named by it
N_TURNS = 2_000      # transcript turns of the tier (see README: why this size)
MAX_CONV_TURNS = 100
N_DOCS = 500         # documents, ~40 % of them in near-duplicate families
N_VECS = 400         # embedding vectors
DIM = 32             # embedding width
N_CLUSTERS = 16      # embedding clusters


def _atomic_write_table(table: pa.Table, path: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    pq.write_table(table, tmp)
    os.replace(tmp, path)


def files_digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(os.path.basename(p).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def transcript_tier(fixtures, seed: int) -> str:
    """Generate (once) the seeded tier with the package's own fixture
    generator; returns its tag. ``fixtures.FIXTURE_ROOT`` must already point
    into the work directory.

    The generator gives ~0.2 % of conversations 800-1600 turns, so at this
    size about a quarter of seeds would hold one such conversation and
    overshoot the turn count by up to 80 % (and halve the conversation
    count). To keep the work the same for every seed, the generator seed is
    the first of ``seed * 1000 + j`` whose tier has no conversation longer
    than MAX_CONV_TURNS; the choice is a pure function of ``seed``. Seeds on
    which the generator itself raises (its conversation-length draws can
    fall short of the turn target on small tiers) are skipped too."""
    import glob
    import shutil

    tag = f"sfpb{VERSION}-{N_TURNS}-s{seed}"
    fixtures.N_TURNS_BY_TAG[tag] = N_TURNS
    marker = os.path.join(fixtures.fixture_dir(tag), "_PERFBENCH")
    if os.path.exists(marker):
        return tag
    saved = fixtures.SEED
    try:
        for j in range(100):
            for d in [fixtures.fixture_dir(tag)] + glob.glob(
                    fixtures.fixture_dir(tag) + ".tmp.*"):
                shutil.rmtree(d, ignore_errors=True)
            fixtures.SEED = seed * 1000 + j
            try:
                fixtures.ensure_fixture(tag)
            except ValueError:
                continue
            conv = pq.read_table(fixtures.transcripts_path(tag), columns=["conv_id"])
            if conv.group_by("conv_id").aggregate([]).num_rows and max(
                    conv["conv_id"].value_counts().field("counts").to_pylist()
            ) <= MAX_CONV_TURNS:
                write_meta(marker, {"seed": seed, "generator_seed": fixtures.SEED})
                return tag
    finally:
        fixtures.SEED = saved
    raise RuntimeError(f"no tier without long conversations for seed {seed}")


def tier_files(fixtures, tag: str) -> list[str]:
    tdir = fixtures.transcripts_path(tag)
    parts = [os.path.join(tdir, f) for f in sorted(os.listdir(tdir))
             if f.endswith(".parquet")]
    aux = [fixtures.aux_path(tag, n)
           for n in ("gazetteer", "alias_map", "entity_props")]
    return parts + aux


def _vocab(rng: np.random.Generator, n: int) -> list[str]:
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words = set()
    while len(words) < n:
        words.add("".join(rng.choice(letters, size=int(rng.integers(3, 9)))))
    return sorted(words)


def docs_dir(work: str, seed: int) -> str:
    """Generate (once) documents.parquet + embeddings.parquet for the seed."""
    out = os.path.join(work, f"docs{VERSION}-{N_DOCS}x{N_VECS}-s{seed}")
    done = os.path.join(out, "_DONE")
    if os.path.exists(done):
        return out
    os.makedirs(out, exist_ok=True)
    rng = np.random.default_rng([seed, 1])
    vocab = np.array(_vocab(rng, 3000), dtype=object)

    texts: list[str] = []
    while len(texts) < int(N_DOCS * 0.4):  # near-duplicate families
        root = rng.choice(vocab, size=int(rng.integers(40, 120)))
        texts.append(" ".join(root))
        for _ in range(int(rng.integers(1, 5))):
            v = root.copy()
            hit = rng.random(len(v)) < rng.uniform(0.03, 0.45)
            v[hit] = rng.choice(vocab, size=int(hit.sum()))
            texts.append(" ".join(v))
    texts = texts[:int(N_DOCS * 0.4)]
    while len(texts) < N_DOCS:  # unrelated documents
        texts.append(" ".join(rng.choice(vocab, size=int(rng.integers(40, 120)))))
    order = rng.permutation(N_DOCS)  # family members land in every batch
    text_col = [texts[i] for i in order]
    _atomic_write_table(pa.table({
        "doc_id": pa.array(np.arange(N_DOCS), pa.int64()),
        "text": pa.array(text_col, pa.string()),
        "lang": pa.array(["en"] * N_DOCS, pa.string()),
        "source": pa.array([f"src{i % 3}" for i in range(N_DOCS)], pa.string()),
        "n_chars": pa.array([len(t) for t in text_col], pa.int64()),
    }), os.path.join(out, "documents.parquet"))

    centers = rng.normal(size=(N_CLUSTERS, DIM))
    label = rng.integers(0, N_CLUSTERS, size=N_VECS)
    emb = (centers[label] + 0.35 * rng.normal(size=(N_VECS, DIM))).astype(np.float32)
    _atomic_write_table(pa.table({
        "vec_id": pa.array(np.arange(N_VECS), pa.int64()),
        "embedding": pa.array(list(emb), pa.list_(pa.float32())),
        "label": pa.array(label.astype(np.int32), pa.int32()),
    }), os.path.join(out, "embeddings.parquet"))
    with open(done, "w") as f:
        f.write("ok")
    return out


# --------------------------------------------------------------------------
# expected results (DuckDB twins), cached by input content hash
# --------------------------------------------------------------------------


def _oracle_dir(work: str) -> str:
    d = os.path.join(work, "oracle")
    os.makedirs(d, exist_ok=True)
    return d


def expected_triples(work: str, fixtures, oracles, tag: str) -> pa.Table:
    """The DuckDB ``kg_triples`` twin's rows for the tier (one thread)."""
    key = files_digest(tier_files(fixtures, tag))
    path = os.path.join(_oracle_dir(work), f"triples-{key}.parquet")
    if not os.path.exists(path):
        import duckdb

        con = duckdb.connect()
        con.execute("SET threads=1")
        sql = oracles.kg_oracle_sql(tag)["kg_triples"]
        cols = ", ".join(f"CAST({c} AS VARCHAR) AS {c}" for c in TRIPLE_COLUMNS)
        _atomic_write_table(con.sql(f"SELECT {cols} FROM ({sql})").arrow(), path)
        con.close()
    return pq.read_table(path)


def expected_pairs(work: str, oracles, ddir: str) -> pa.Table:
    """The DuckDB ``dedup_minhash_pairs`` twin's from-scratch pair set."""
    key = files_digest([os.path.join(ddir, "documents.parquet")])
    path = os.path.join(_oracle_dir(work), f"pairs-{key}.parquet")
    if not os.path.exists(path):
        import duckdb

        con = duckdb.connect()
        con.execute("SET threads=1")
        docs = os.path.join(ddir, "documents.parquet")
        con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{docs}')")
        sql = oracles.doc_rel_oracle_sql()["dedup_minhash_pairs"]
        _atomic_write_table(con.sql(sql).arrow(), path)
        con.close()
    return pq.read_table(path)


def write_meta(path: str, meta: dict) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, path)
