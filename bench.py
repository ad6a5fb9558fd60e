"""Benchmark harness (driver contract: ONE JSON line on stdout).

Headline: the flagship KG pipeline (transcripts → full triple Dataset →
bucket-partitioned Parquet) over the deterministic fixture tier matching
$GRAFT_SF_DIR (default /root/testdata/sf0.1 → 600k turns). Per-query timings
for the component pipelines are reported under "queries".

    python bench.py              # single run at RAY_GRAFT_CPUS (default 32)
    python bench.py --scaling    # fresh paired runs at N and 4N CPUs
                                 # (GRAFT_SCALING_LO, default 4) + scaling
                                 # efficiency (sandbox stand-in for the
                                 # north rule's N vs 4N node clusters)

Fixture generation is done (and cached) BEFORE timing; one untimed warm read
precedes the timed section so the page cache is hot at both CPU levels.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time


def run_bench(num_cpus: int) -> dict:
    import ray

    from rkts_migration_ray import fixtures

    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    tag = fixtures.tag_of(sf_dir)
    fixtures.ensure_fixture(tag)

    obj_store = int(float(os.environ.get("RAY_GRAFT_OBJ_STORE_GB", "60")) * 1e9)
    # polars (our hash kernel AND Ray's polars-backed sort), Arrow's CPU
    # thread pool (take/sort/parquet kernels — sized via OMP_NUM_THREADS),
    # and OpenBLAS all size their pools from the HOST's core count, not
    # Ray's num_cpus — at num_cpus=8 on a 32-core host every worker silently
    # borrows idle cores and corrupts the scaling measurement. Cap them for
    # honest 1-core-per-worker accounting (workers inherit via runtime_env).
    caps = {"POLARS_MAX_THREADS": "1", "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1"}
    for k, v in caps.items():
        os.environ.setdefault(k, v)
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR",
             object_store_memory=obj_store,
             runtime_env={"env_vars": caps})
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    from rkts_migration_ray.pipelines import kg, materialize

    # untimed warm-up: page cache + Ray worker-process spawn/import (cold
    # workers cost ~5 s per CPU level — the rule measures steady-state
    # throughput, and a real cluster's workers are warm)
    import pyarrow.parquet as pq

    import ray.data as rd

    n_turns = 0
    tdir = fixtures.transcripts_path(tag)
    for f in os.listdir(tdir):
        if not f.endswith(".parquet"):
            continue
        p = os.path.join(tdir, f)
        n_turns += pq.ParquetFile(p).metadata.num_rows
        # real untimed DATA read (raw bytes → page cache hot, no decode
        # cost) so the first timed run never pays cold-cache I/O — the
        # docstring's warm-read claim holds again (round-2 advice)
        with open(p, "rb") as fh:
            while fh.read(1 << 24):
                pass
    (rd.range(10_000, override_num_blocks=num_cpus * 2)
     .map_batches(lambda t: t, batch_format="pyarrow").count())

    timings: dict[str, float] = {}

    def timed(name: str, fn):
        t0 = time.perf_counter()
        out = fn()
        timings[name] = round(time.perf_counter() - t0, 3)
        return out

    if not os.environ.get("GRAFT_HEADLINE_ONLY"):
        timed("kg_structural", lambda: kg.structural_ds(tag, include_quarantine=True).count())
        timed("kg_conv_triples", lambda: kg.conv_triples_ds(tag).count())
        timed("kg_mentions", lambda: kg.mention_triples_ds(tag).count())
        timed("kg_entities", lambda: kg.entity_triples_ds(tag).count())

        # the dedup chain's end-to-end wall (banding → LSH → exact verify)
        # is tracked per round since the round-5 kernel batching
        from rkts_migration_ray.pipelines import docs as docs_pl

        def _mh():
            r = docs_pl.minhash_pairs_ds(tag)
            return len(r) if hasattr(r, "__len__") else r.count()

        timed("dedup_minhash_pairs", _mh)

    out_dir = f"/tmp/graft_bench_out/{tag}-{num_cpus}"
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    # the CLI `run` path: the whole graph as one execution
    manifest = materialize.write_graph(
        kg.kg_triples_ds(tag), out_dir, n_buckets=64, resume=False,
        source=fixtures.transcripts_path(tag))
    headline = time.perf_counter() - t0
    n_triples = int(manifest["rows"].sum())
    timings["kg_triples_materialize"] = round(headline, 3)

    ray.shutdown()
    return {
        "metric": "kg_triples_end_to_end",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": timings,
        "sf": tag,
        "num_cpus": num_cpus,
        "n_turns": int(n_turns),
        "n_triples": n_triples,
        "triples_per_sec": round(n_triples / headline, 1),
    }


def _proc_stat() -> tuple[int, int]:
    """(busy, total) jiffies across all host CPUs from /proc/stat line 1."""
    with open("/proc/stat") as f:
        parts = [int(x) for x in f.readline().split()[1:]]
    # fields: user nice system idle iowait irq softirq steal guest guest_nice;
    # guest/guest_nice are already folded into user/nice by the kernel, so
    # summing them would double-count VM time and overstate busy and total
    parts = parts[:8]
    idle = parts[3] + (parts[4] if len(parts) > 4 else 0)  # idle + iowait
    total = sum(parts)
    return total - idle, total


def run_fresh(num_cpus: int) -> dict:
    env = dict(os.environ, RAY_GRAFT_CPUS=str(num_cpus))
    b0, t0 = _proc_stat()
    out = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env,
                         capture_output=True, text=True, check=True,
                         cwd=os.path.dirname(os.path.abspath(__file__)))
    b1, t1 = _proc_stat()
    # each run writes several GB of graph; force writeback to
    # COMPLETE before the next timed run so one run's dirty pages don't
    # stall the next one's I/O (observed as isolated 1.5× wall-time spikes)
    subprocess.run(["sync"], check=False)
    time.sleep(5)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    # host-wide busy fraction over the whole subprocess (warm-up included) —
    # the epoch-drift evidence the round-2 verdict asked to attach: a pair
    # whose two halves show very different host_busy ran in different epochs
    res["host_busy"] = round((b1 - b0) / max(1, t1 - t0), 3)
    return res


def main() -> None:
    if "--scaling" in sys.argv:
        # scaling evidence runs on a larger tier (default 6M turns) where
        # compute dominates Ray's fixed coordination overhead — at 600k turns
        # the job is overhead-bound and no parallelism level can help it
        scaling_tag = os.environ.get("GRAFT_SCALING_TAG", "sf1")
        from rkts_migration_ray import fixtures

        fixtures.ensure_fixture(scaling_tag)  # generate once, outside timing
        os.environ["GRAFT_SF_DIR"] = f"/root/testdata/{scaling_tag}"
        os.environ["GRAFT_HEADLINE_ONLY"] = "1"
        trials = int(os.environ.get("GRAFT_SCALING_TRIALS", "3"))
        # N vs 4N parallelism levels (GRAFT_SCALING_LO, ×4). The rule's N vs
        # 4N NODES is emulated with CPU counts on one box; at high core
        # counts a single node adds DRAM/object-store contention that real
        # added NODES would not see, so lower (lo, hi) pairs are the more
        # faithful stand-in — both levels are reported in BASELINE.md.
        lo_cpus = int(os.environ.get("GRAFT_SCALING_LO", "4"))
        hi_cpus = lo_cpus * 4
        # PAIRED protocol: this shared host drifts between slow/fast epochs
        # (observed T_8 spread up to 1.8× across runs of identical binaries,
        # while within-pair spread is far smaller). Running the 8- and
        # 32-CPU jobs back-to-back per trial and taking the MEDIAN of the
        # per-pair efficiencies cancels the epoch drift instead of letting
        # independent best-of-N minima land in different epochs.
        # INTERLEAVED A/B ordering (round-2 verdict #3): alternate lo-first /
        # hi-first per pair so a monotone host-epoch trend cancels across the
        # pair set instead of consistently flattering one level.
        pairs = []
        for i in range(trials):
            if i % 2 == 0:
                lo = run_fresh(lo_cpus)
                hi = run_fresh(hi_cpus)
            else:
                hi = run_fresh(hi_cpus)
                lo = run_fresh(lo_cpus)
            pairs.append((lo, hi,
                          (hi["triples_per_sec"] / lo["triples_per_sec"])
                          / (hi_cpus / lo_cpus)))
        effs = sorted(p[2] for p in pairs)
        med = effs[len(effs) // 2] if len(effs) % 2 else (
            (effs[len(effs) // 2 - 1] + effs[len(effs) // 2]) / 2)
        best = max(pairs, key=lambda p: p[2])
        print(json.dumps({
            "metric": "scaling_efficiency",
            "value": round(med, 3),
            "unit": "ratio",
            "queries": {f"sec_{lo_cpus}": best[0]["value"],
                        f"sec_{hi_cpus}": best[1]["value"]},
            "sf": best[0]["sf"],
            "num_cpus": hi_cpus,
            "throughput_lo": best[0]["triples_per_sec"],
            "throughput_hi": best[1]["triples_per_sec"],
            "cpus": [lo_cpus, hi_cpus],
            "pair_efficiencies": [round(p[2], 3) for p in pairs],
            "trials": {f"sec_{lo_cpus}": [p[0]["value"] for p in pairs],
                       f"sec_{hi_cpus}": [p[1]["value"] for p in pairs]},
            "host_busy": {f"cpus_{lo_cpus}": [p[0].get("host_busy") for p in pairs],
                          f"cpus_{hi_cpus}": [p[1].get("host_busy") for p in pairs]},
        }))
        return
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    print(json.dumps(run_bench(num_cpus)))


if __name__ == "__main__":
    main()
