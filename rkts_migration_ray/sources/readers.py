"""Sources: transcript Dataset reader + small-side lookup loaders.

The lookup tables are the reference's CSV/YAML hash maps (S4/S5/S9 in
SURVEY.md §2.1) re-expressed as driver-side loads that are broadcast ONCE via
ray.put and fetched by ref inside each stateless linker task — plasma keeps
one copy per node, nothing is re-shipped with the batches, and nothing is
shuffled (all reference joins are broadcast-small-side lookups,
SURVEY.md §2.5).
"""

from __future__ import annotations

import pyarrow.parquet as pq

from .. import fixtures
from ..functions.arrowutils import cluster_cpus


def _transcript_files(sf_dir: str) -> list[str]:
    import glob

    path = fixtures.transcripts_path(sf_dir)
    return glob.glob(path if "*" in path else path.rstrip("/") + "/*.parquet")


def transcript_rows(sf_dir: str) -> int:
    """Transcript row count from the Parquet footers (reads no data)."""
    fixtures.ensure_fixture(sf_dir)
    return sum(pq.ParquetFile(f).metadata.num_rows
               for f in _transcript_files(sf_dir))


def read_transcripts(sf_dir: str, columns: list[str] | None = None):
    """ray.data.read_parquet over the transcripts table, columns pruned.

    Replaces the per-catalog simplexml_load_file loop (migrate.php:101-152)
    with file/row-group-parallel columnar reads.

    When the FILE count would cap read parallelism below ~4 tasks/CPU (the
    single-node fixture is 16 files; a real 100 TB corpus has orders of
    magnitude more files than CPUs, making this a no-op), split reads down
    to row-group granularity via override_num_blocks — measured 50.7 s →
    27.4 s for the map-only stream at 32 CPUs on sf1."""
    import ray.data as rd

    path = fixtures.transcripts_path(sf_dir)
    fixtures.ensure_fixture(sf_dir)
    kwargs = {}
    files = _transcript_files(sf_dir)
    target = 4 * cluster_cpus()
    if files and len(files) < target:
        row_groups = pq.ParquetFile(files[0]).metadata.num_row_groups * len(files)
        blocks = min(target, row_groups)
        if blocks > len(files):
            kwargs["override_num_blocks"] = blocks
    return rd.read_parquet(path, columns=columns, **kwargs)


def load_gazetteer(sf_dir: str) -> dict[str, str]:
    """alias → canonical id; rows whose canonical contains '?' are dropped,
    mirroring get_abstract_mapping (utils.php:872-897, drop at :884)."""
    fixtures.ensure_fixture(sf_dir)
    t = pq.read_table(fixtures.aux_path(sf_dir, "gazetteer"))
    out = {}
    for alias, canon in zip(t["alias"].to_pylist(), t["canonical_id"].to_pylist()):
        if "?" not in canon:
            out[alias] = canon
    return out


def load_alias_closure(sf_dir: str) -> dict[str, str]:
    """from_id → terminal to_id with chains flattened (a→b, b→c ⇒ a→c).

    Re-expresses the KTMapping / SameTextDifferentTranslation / <now>-redirect
    maps (rkts.yaml:38-113; kernelxmltottl.php:255-270; applied at
    utils.php:102-109) as one driver-side flattened dict (maps are tiny)."""
    fixtures.ensure_fixture(sf_dir)
    t = pq.read_table(fixtures.aux_path(sf_dir, "alias_map"))
    direct = dict(zip(t["from_id"].to_pylist(), t["to_id"].to_pylist()))
    flat = {}
    for src in direct:
        seen = {src}
        cur = direct[src]
        while cur in direct and cur not in seen:  # chains are short DAGs
            seen.add(cur)
            cur = direct[cur]
        flat[src] = cur
    return flat


def load_props(sf_dir: str) -> dict[str, list[tuple[str, str]]]:
    """entity_id → [(prop, object_id)…] ≈ get_rkts_props (utils.php:852-870)."""
    fixtures.ensure_fixture(sf_dir)
    t = pq.read_table(fixtures.aux_path(sf_dir, "entity_props"))
    out: dict[str, list[tuple[str, str]]] = {}
    for e, p, o in zip(t["entity_id"].to_pylist(), t["prop"].to_pylist(),
                       t["object_id"].to_pylist()):
        out.setdefault(e, []).append((p, o))
    return out
