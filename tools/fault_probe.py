"""Worker-failure resilience probe (companion to spill_probe.py).

A 256-node cluster loses workers routinely; Ray's task retry + lineage
reconstruction is the mechanism that makes the streaming headline survive
it. This probe EVIDENCES that on a single box: run the headline materialize
while SIGKILLing live Ray Data worker processes mid-flight, then compare
the lineage manifests' fingerprint against a clean run of the same input.

    python tools/fault_probe.py --sf sf0.1 --cpus 16 --kills 3

Only processes whose command line starts with 'ray::' and contains a data
operator marker (MapBatches/ReadParquet/Sort/reduce) are targeted — never
the raylet/GCS (killing those is node loss, out of scope for one box).
Prints one JSON line with wall, kill log, and the manifest fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import threading
import time


def _worker_pids() -> list[int]:
    pids = []
    me = os.getpid()
    for p in os.listdir("/proc"):
        if not p.isdigit() or int(p) == me:
            continue
        try:
            with open(f"/proc/{p}/cmdline", "rb") as f:
                cmd = f.read().replace(b"\x00", b" ").decode(errors="replace")
        except OSError:
            continue
        if cmd.startswith("ray::") and any(
                m in cmd for m in ("MapBatches", "ReadParquet", "Sort",
                                   "reduce", "map")):
            pids.append(int(p))
    return pids


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", default="sf0.1")
    ap.add_argument("--cpus", type=int, default=16)
    ap.add_argument("--kills", type=int, default=3)
    ap.add_argument("--first-kill-sec", type=float, default=3.0)
    ap.add_argument("--kill-every-sec", type=float, default=3.0)
    args = ap.parse_args()

    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import ray

    from rkts_migration_ray import fixtures
    from rkts_migration_ray.pipelines import kg, materialize

    fixtures.ensure_fixture(args.sf)
    out_dir = f"/tmp/graft_fault_out/{args.sf}-kill{args.kills}"
    shutil.rmtree(out_dir, ignore_errors=True)

    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    kill_log: list[dict] = []
    stop = threading.Event()

    def killer():
        time.sleep(args.first_kill_sec)
        done = 0
        while done < args.kills and not stop.is_set():
            pids = _worker_pids()
            if pids:
                pid = pids[done % len(pids)]
                try:
                    os.kill(pid, signal.SIGKILL)
                    kill_log.append({"t": round(time.perf_counter() - t0, 2),
                                     "pid": pid})
                    done += 1
                except OSError:
                    pass
            stop.wait(args.kill_every_sec)

    t0 = time.perf_counter()
    th = threading.Thread(target=killer, daemon=True)
    th.start()
    manifest = materialize.write_graph(
        kg.kg_triples_ds(args.sf), out_dir, n_buckets=64, resume=False,
        source=fixtures.transcripts_path(args.sf))
    wall = time.perf_counter() - t0
    stop.set()
    ray.shutdown()

    from probe_common import manifest_fingerprint

    n_buckets, fp = manifest_fingerprint(out_dir)
    print(json.dumps({
        "sf": args.sf, "num_cpus": args.cpus, "wall_sec": round(wall, 2),
        "n_triples": int(manifest["rows"].sum()), "buckets": n_buckets,
        "kills": kill_log, "manifest_fingerprint": fp}))


if __name__ == "__main__":
    main()
