"""Memory-pressure resilience probe (round-4 verdict ask #5).

The 100-TB posture claims streaming execution with backpressure: the object
store spills rather than the pipeline OOMing, and output is unaffected. This
probe EVIDENCES that on the headline materialize — run it twice in fresh
processes, once with the default object store and once with a deliberately
undersized one, and compare the per-bucket ORDER-INSENSITIVE content
checksums the lineage manifests already record:

    python tools/spill_probe.py --obj-store-gb 60 --sf sf1 --cpus 32
    python tools/spill_probe.py --obj-store-gb 1  --sf sf1 --cpus 32

Each run prints ONE JSON line: wall, triples, per-run spill/restore counters
parsed from Ray's memory summary, the number of committed buckets, and a
combined checksum fingerprint (sorted (bucket, rows, checksum) tuples →
sha256) — identical fingerprints across the two runs IS the parity proof.
Results are recorded in BASELINE.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import sys
import time


def _spill_counters(session_dir: str) -> dict:
    """Parse cumulative 'Spilled X MiB, Y objects' / 'Restored ...' progress
    lines from the session's raylet log (the grpc-backed memory_summary API
    is unavailable in this sandbox). The raylet logs these monotonically —
    take the LAST occurrence; 0s mean no spilling happened."""
    out = {"spilled_mb": 0.0, "spilled_objects": 0,
           "restored_mb": 0.0, "restored_objects": 0}
    log = os.path.join(session_dir, "logs", "raylet.out")
    try:
        with open(log, errors="replace") as f:
            s = f.read()
    except OSError as exc:
        return {"spill_summary_error": str(exc)}
    for m in re.finditer(r"Spilled ([\d.]+) MiB, (\d+) objects", s):
        out["spilled_mb"] = float(m.group(1))
        out["spilled_objects"] = int(m.group(2))
    for m in re.finditer(r"Restored ([\d.]+) MiB, (\d+) objects", s):
        out["restored_mb"] = float(m.group(1))
        out["restored_objects"] = int(m.group(2))
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--obj-store-gb", type=float, default=60.0)
    ap.add_argument("--sf", default="sf1")
    ap.add_argument("--cpus", type=int, default=32)
    ap.add_argument("--out", default=None,
                    help="output dir (default /tmp/graft_spill_out/<sf>-<gb>)")
    args = ap.parse_args()

    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import ray

    from rkts_migration_ray import fixtures
    from rkts_migration_ray.pipelines import kg, materialize

    fixtures.ensure_fixture(args.sf)
    out_dir = args.out or f"/tmp/graft_spill_out/{args.sf}-{args.obj_store_gb:g}gb"
    shutil.rmtree(out_dir, ignore_errors=True)

    caps = {"POLARS_MAX_THREADS": "1", "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1"}
    for k, v in caps.items():
        os.environ.setdefault(k, v)
    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
             logging_level="ERROR",
             object_store_memory=int(args.obj_store_gb * 1e9),
             runtime_env={"env_vars": caps})
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    t0 = time.perf_counter()
    manifest = materialize.write_graph(
        kg.kg_triples_ds(args.sf), out_dir, n_buckets=64, resume=False,
        source=fixtures.transcripts_path(args.sf))
    wall = time.perf_counter() - t0
    session_dir = ray._private.worker.global_worker.node.get_session_dir_path()
    counters = _spill_counters(session_dir)
    ray.shutdown()

    from probe_common import manifest_fingerprint

    n_buckets, fp = manifest_fingerprint(out_dir)

    print(json.dumps({
        "obj_store_gb": args.obj_store_gb, "sf": args.sf,
        "num_cpus": args.cpus, "wall_sec": round(wall, 2),
        "n_triples": int(manifest["rows"].sum()),
        "buckets": n_buckets, "manifest_fingerprint": fp, **counters}))


if __name__ == "__main__":
    main()
