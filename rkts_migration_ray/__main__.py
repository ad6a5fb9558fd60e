"""CLI entry point (S1 analog of migrate.php:16-61's GetOpt driver).

    python -m rkts_migration_ray run      --sf sf0.001 --out /tmp/graph [--buckets 64] [--no-resume]
    python -m rkts_migration_ray validate --sf sf0.001
    python -m rkts_migration_ray query    --name text_tfidf --sf sf0.01 [--out /tmp/x] [--csv] [--list]
    python -m rkts_migration_ray ingest   --kind dedup|embed --sf sf0.001 --index /tmp/idx --gen batch1 [--out x.parquet] [--compact]
    python -m rkts_migration_ray bench    --sf sf0.01

Owns its Ray session (the only places allowed to: CLI, bench.py, tests),
started only once a command is about to run a dataset: ``query --list``,
a missing ``--name`` and an unknown query name answer without Ray.
"""

from __future__ import annotations

import argparse
import json
import sys


def _query_registry() -> dict:
    """The query registry of the repo-root driver contract file, loaded by
    path so the CLI needs no sys.path assumptions. Starts no Ray."""
    import importlib.util
    import os

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "__ray_entry__", os.path.join(root, "__ray_entry__.py"))
    entry = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(entry)
    return entry.queries()


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="rkts_migration_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run", help="full KG pipeline → partitioned graph")
    run.add_argument("--sf", default="sf0.001")
    run.add_argument("--out", required=True)
    run.add_argument("--buckets", type=int, default=64)
    run.add_argument("--no-resume", action="store_true")
    run.add_argument("--num-cpus", type=int, default=None)
    run.add_argument("--format", choices=["parquet", "nt"], default="parquet",
                     help="graph sink: one Parquet edge table or N-Triples "
                          "text file per bucket (same manifests/resume)")

    cur = sub.add_parser("curate", help="curation verdict → kept corpus as "
                                        "hash-partitioned Parquet")
    cur.add_argument("--sf", default="sf0.001")
    cur.add_argument("--out", required=True)
    cur.add_argument("--buckets", type=int, default=None,
                     help="partition count (default: CPU-scaled)")
    cur.add_argument("--num-cpus", type=int, default=None)

    val = sub.add_parser("validate", help="transcript invariant validation")
    val.add_argument("--sf", default="sf0.001")
    val.add_argument("--num-cpus", type=int, default=None)

    ing = sub.add_parser(
        "ingest", help="one generational ingest step: probe the arriving "
                       "batch (doc/vec id %% mod == rem) against the "
                       "persisted index, report matches, fold the batch in")
    ing.add_argument("--kind", choices=["dedup", "embed"], required=True)
    ing.add_argument("--sf", default="sf0.001")
    ing.add_argument("--index", required=True,
                     help="index root dir; an empty one is initialized with "
                          "a gen-base of the NON-delta rows")
    ing.add_argument("--delta-mod", type=int, default=10)
    ing.add_argument("--delta-rem", type=int, default=0)
    ing.add_argument("--gen", required=True,
                     help="generation name for this batch (sortable, unique)")
    ing.add_argument("--out", default=None,
                     help="Parquet path for the match frame (omit = count)")
    ing.add_argument("--compact", action="store_true",
                     help="run LSM compaction after the ingest")
    ing.add_argument("--num-cpus", type=int, default=None)

    qry = sub.add_parser("query", help="run any driver query "
                                       "(__ray_entry__.queries()) by name")
    qry.add_argument("--name", default=None)
    qry.add_argument("--sf", default="sf0.001")
    qry.add_argument("--out", default=None,
                     help="Parquet output path (omit = print row count only)")
    qry.add_argument("--csv", action="store_true",
                     help="write --out as CSV instead of Parquet — the "
                          "extractList.php:47-85 / exportlocations.php:12-79 "
                          "standalone-export analog (e.g. --name "
                          "kg_role_pivot or kg_locations)")
    qry.add_argument("--list", action="store_true", dest="list_only",
                     help="ignore --name and list available query names")
    qry.add_argument("--num-cpus", type=int, default=None)

    args = p.parse_args(argv)

    if args.cmd == "query":
        registry = _query_registry()
        if args.list_only:
            print(json.dumps(sorted(registry)))
            return 0
        if args.name is None:
            qry.error("--name is required unless --list is given")
        if args.name not in registry:
            print(json.dumps({"error": f"unknown query {args.name!r}",
                              "available": sorted(registry)}))
            return 2

    import ray

    ray.init(address="local", num_cpus=args.num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    try:
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        if args.cmd == "run":
            from .pipelines import kg, materialize

            manifest = materialize.write_graph(
                kg.kg_triples_ds(args.sf), args.out, n_buckets=args.buckets,
                resume=not args.no_resume, fmt=args.format)
            print(json.dumps({
                "buckets": int(len(manifest)),
                "rows": int(manifest["rows"].sum()),
                "skipped": int(manifest["skipped"].sum()),
                "out": args.out,
            }))
        elif args.cmd == "curate":
            from .pipelines import docs

            ds = docs.curated_corpus_ds(args.sf, n_buckets=args.buckets)
            # overwrite = idempotent re-runs (append would duplicate rows
            # next to a failed run's partial files); the dir-per-bucket
            # layout lets downstream consumers read/retry per partition
            ds = ds.materialize()
            ds.write_parquet(args.out, partition_cols=["part"],
                             mode="overwrite")
            print(json.dumps({"rows": int(ds.count()), "out": args.out}))
        elif args.cmd == "ingest":
            from .pipelines import docs

            m, r = args.delta_mod, args.delta_rem % args.delta_mod

            def delta(ids):
                return ids % m == r

            def base(ids):
                return ids % m != r

            if args.kind == "dedup":
                if not docs._band_generations(args.index):
                    docs.append_band_generation(args.index, args.sf, base,
                                                "base")
                res = docs.dedup_ingest(args.sf, args.index, delta, args.gen)
            else:
                docs.ensure_ivf_index_at(args.index, args.sf, base)
                res = docs.embed_ingest(args.sf, args.index, delta, args.gen)
            if args.compact:
                docs.compact_generations(args.index)
            if args.out:
                res.to_parquet(args.out, index=False)
            print(json.dumps({
                "kind": args.kind, "matches": int(len(res)),
                "generations": len(docs._band_generations(args.index)),
                "out": args.out}))
        elif args.cmd == "query":
            res = registry[args.name](args.sf)
            import pandas as pd
            import pyarrow as pa_
            import ray.data as rd

            if isinstance(res, rd.Dataset):
                if args.out:
                    # materialize once: the write would otherwise run the
                    # lineage and the following count() would run it again
                    res = res.materialize()
                    if args.csv:
                        res.write_csv(args.out)
                    else:
                        res.write_parquet(args.out)
                n = res.count()
            else:
                tbl = (pa_.Table.from_pandas(res, preserve_index=False)
                       if isinstance(res, pd.DataFrame) else res)
                n = tbl.num_rows
                if args.out:
                    if args.csv:
                        import pyarrow.csv as pcsv_

                        pcsv_.write_csv(tbl, args.out)
                    else:
                        import pyarrow.parquet as pq_

                        pq_.write_table(tbl, args.out)
            print(json.dumps({"query": args.name, "rows": int(n),
                              "out": args.out}))
        elif args.cmd == "validate":
            from .sources import readers
            from .stages.convgroup import conv_buckets
            from .stages.validate import validate_transcripts

            df = validate_transcripts(readers.read_transcripts(args.sf),
                                      conv_buckets(args.sf)).to_pandas()
            bad = df[~(df["dense"] & df["ts_monotone"])]
            print(json.dumps({"conversations": int(len(df)),
                              "violations": int(len(bad))}))
            return 1 if len(bad) else 0
        return 0
    finally:
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
