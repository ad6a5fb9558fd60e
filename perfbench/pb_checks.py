"""Output checks against results computed apart from the engine.

Graph outputs are compared as multisets: row count plus an order-insensitive
hash (the sum of DuckDB's per-row ``hash`` over all six triple columns).
Files are found through the manifests and generation files themselves,
parsed here, not through the engine's readers. Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

TRIPLE_COLUMNS = ["subj", "pred", "obj", "obj_lang", "obj_dt", "graph"]
_CAST = ", ".join(f"CAST({c} AS VARCHAR)" for c in TRIPLE_COLUMNS)
N_BANDS = 16


def _duck():
    import duckdb

    con = duckdb.connect()
    con.execute("SET threads=1")
    return con


def multiset_of_table(t: pa.Table) -> tuple[int, str]:
    con = _duck()
    con.register("t", t.select(TRIPLE_COLUMNS))
    n, h = con.sql(f"SELECT count(*), coalesce(sum(hash({_CAST})), 0)::VARCHAR "
                   "FROM t").fetchone()
    con.close()
    return int(n), h


def _file_list(paths: list[str]) -> str:
    return "[" + ", ".join("'" + p.replace("'", "''") + "'" for p in paths) + "]"


def multiset_of_files(paths: list[str]) -> tuple[int, str]:
    if not paths:
        return 0, "0"
    con = _duck()
    n, h = con.sql(f"SELECT count(*), coalesce(sum(hash({_CAST})), 0)::VARCHAR "
                   f"FROM read_parquet({_file_list(paths)})").fetchone()
    con.close()
    return int(n), h


def manifest_files(out_dir: str) -> list[str]:
    """Data files listed by the per-bucket manifests (bucket=K.manifest.json)."""
    files = []
    for m in sorted(glob.glob(os.path.join(out_dir, "bucket=*.manifest.json"))):
        with open(m) as f:
            meta = json.load(f)
        files += [os.path.join(out_dir, p) for p in meta.get("files", [meta["file"]])]
    return files


def compare(what: str, got: tuple[int, str], want: tuple[int, str]) -> list[str]:
    if got == want:
        return []
    return [f"{what}: got {got[0]} rows (hash {got[1]}), "
            f"expected {want[0]} rows (hash {want[1]})"]


def check_graph_files(out_dir: str, want: tuple[int, str]) -> list[str]:
    """The manifest-listed files hold exactly ``want``, and every subject
    lies in exactly one bucket."""
    files = manifest_files(out_dir)
    missing = [f for f in files if not os.path.exists(f)]
    if missing:
        return [f"{len(missing)} manifest-listed file(s) missing, "
                f"e.g. {os.path.relpath(missing[0], out_dir)}"]
    problems = compare("graph files", multiset_of_files(files), want)
    con = _duck()
    split = con.sql(
        "SELECT count(*) FROM (SELECT subj FROM read_parquet("
        f"{_file_list(files)}, filename=true) GROUP BY subj HAVING "
        "count(DISTINCT regexp_extract(filename, 'bucket=([0-9]+)', 1)) > 1)"
    ).fetchone()[0]
    con.close()
    if split:
        problems.append(f"{split} subject(s) span more than one bucket")
    return problems


# --------------------------------------------------------------------------
# update: the tombstone rule, replayed on the base and delta rows
# --------------------------------------------------------------------------


def replay(base: pa.Table, gens: list[tuple[int, pa.Table, list[str]]]) -> pa.Table:
    """Live rows after ``gens`` = [(gen, delta rows, superseded graphs)]: a
    row of generation g is dead iff its graph has a tombstone newer than g
    (the base is generation 0)."""
    tomb: dict[str, int] = {}
    for g, _, sup in gens:
        for graph in sup:
            tomb[graph] = max(tomb.get(graph, 0), g)
    parts = []
    for g, rows in [(0, base)] + [(g, d) for g, d, _ in gens]:
        dead = pa.array([k for k, v in tomb.items() if v > g], pa.string())
        parts.append(rows.select(TRIPLE_COLUMNS).filter(
            pc.invert(pc.is_in(rows["graph"], value_set=dead))))
    return pa.concat_tables(parts)


# --------------------------------------------------------------------------
# ingest: dedup pairs, exact top-k, index integrity
# --------------------------------------------------------------------------


def expected_dedup(pairs: pa.Table, delta: set, indexed: set) -> set:
    a = pairs["doc_a"].to_numpy()
    b = pairs["doc_b"].to_numpy()
    j = pairs["jaccard"].to_numpy()
    out = set()
    for x, y, s in zip(a, b, j):
        if x in delta and y in indexed:
            out.add((int(x), int(y), round(float(s), 6)))
        elif y in delta and x in indexed:
            out.add((int(y), int(x), round(float(s), 6)))
    return out


def check_dedup(got, pairs: pa.Table, delta: set, indexed: set) -> list[str]:
    want = expected_dedup(pairs, delta, indexed)
    have = {(int(d), int(b), round(float(s), 6)) for d, b, s in
            zip(got["delta_id"], got["base_id"], got["jaccard"])}
    if have == want and len(got) == len(want):
        return []
    return [f"dedup pairs: {len(have - want)} unexpected, {len(want - have)} "
            f"missing, {len(got)} rows for {len(have)} distinct (want {len(want)})"]


def check_topk(got, emb: np.ndarray, delta: np.ndarray, indexed: np.ndarray,
               k: int = 10, tol: float = 1e-6) -> list[str]:
    """Exact cosine top-k by float64 brute force. Ties are allowed to
    reorder: the check compares the similarity at each rank and verifies
    every reported neighbour's true similarity."""
    en = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    sims = en[delta] @ en[indexed].T
    pos = {int(v): i for i, v in enumerate(indexed)}
    rows = {int(d): [] for d in delta}
    for d, b, r, s in zip(got["delta_id"], got["base_id"], got["rank"], got["cos_sim"]):
        if int(d) not in rows:
            return [f"top-k: row for id {int(d)} that is not in the batch"]
        rows[int(d)].append((int(r), int(b), float(s)))
    kk = min(k, len(indexed))
    for qi, d in enumerate(delta):
        have = sorted(rows[int(d)])
        want = np.sort(sims[qi])[::-1][:kk]
        if [r for r, _, _ in have] != list(range(1, kk + 1)):
            return [f"top-k: id {int(d)} has ranks {[r for r, _, _ in have]}"]
        nbrs = [b for _, b, _ in have]
        if len(set(nbrs)) != kk or any(b not in pos for b in nbrs):
            return [f"top-k: id {int(d)} neighbours not distinct indexed ids"]
        for (_, b, s), w in zip(have, want):
            if abs(s - w) > tol or abs(sims[qi, pos[b]] - s) > tol:
                return [f"top-k: id {int(d)} neighbour {b} sim {s:.6f}, "
                        f"expected {w:.6f}"]
    return []


def _generation_files(idx: str, part: str) -> list[str]:
    gens = [g for g in sorted(glob.glob(os.path.join(idx, "gen-*")))
            if ".tmp." not in os.path.basename(g)
            and os.path.exists(os.path.join(g, "_DONE"))]
    return [f for g in gens for f in
            sorted(glob.glob(os.path.join(g, f"{part}=*", "*.parquet")))]


def check_band_index(idx: str, indexed: set) -> list[str]:
    """Every indexed document has each of its 16 bands exactly once."""
    import pyarrow.parquet as pq

    files = _generation_files(idx, "hb")
    t = pa.concat_tables([pq.read_table(f, columns=["doc_id", "band"]) for f in files])
    key = t["doc_id"].to_numpy() * N_BANDS + t["band"].to_numpy()
    problems = []
    if len(np.unique(key)) != len(key):
        problems.append(f"band index: {len(key) - len(np.unique(key))} duplicate rows")
    if set(np.unique(t["doc_id"].to_numpy()).tolist()) != indexed \
            or len(np.unique(key)) != N_BANDS * len(indexed):
        problems.append("band index: indexed documents differ from the expected set")
    return problems


def check_ivf_index(idx: str, indexed: set) -> list[str]:
    """Every indexed vector is present exactly once."""
    import pyarrow.parquet as pq

    files = _generation_files(idx, "list_id")
    ids = np.concatenate([pq.read_table(f, columns=["vec_id"])["vec_id"].to_numpy()
                          for f in files])
    if len(ids) != len(np.unique(ids)):
        return [f"ivf index: {len(ids) - len(np.unique(ids))} duplicate vectors"]
    if set(ids.tolist()) != indexed:
        return ["ivf index: indexed vectors differ from the expected set"]
    return []


def dir_bytes(path: str) -> int:
    total = 0
    for d, _, files in os.walk(path):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(d, f))
            except OSError:
                pass
    return total


def count_files(path: str, suffix: str = ".parquet") -> int:
    return sum(f.endswith(suffix) for _, _, files in os.walk(path) for f in files)
