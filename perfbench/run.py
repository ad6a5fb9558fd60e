"""Benchmark of the rkts_migration_ray engine: two workloads (build: the CLI
run; store: graph updates plus the dedup and vector ingest services) on
seeded inputs, every output checked against results computed apart from
the engine.

    python3 perfbench/run.py --workload build --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Run it from the root of a checkout. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` runs the traced mode and reports the
per-layer metrics (spans are written to .pb/trace-<workload>-s<seed>.json).
The engine always runs with 2 Ray CPU slots; see README.md for why.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
NUM_CPUS = 2
OBJECT_STORE_BYTES = 512 * 1024 * 1024
OP_DEADLINE_S = 90.0    # one operation; an executor wedge fails here
RUN_BUDGET_S = 150.0    # no new round starts after this much process time
RAY_TMP_MAX = 38        # longer Ray temp paths overflow the socket-path limit


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def configure_env(root: str, work: str) -> str:
    """Keep every file the engine, Ray and the CLI write inside the work
    directory; make the engine importable in Ray workers. Returns Ray's temp
    dir, which the run deletes at exit (runs in one checkout are sequential:
    they share the work directory)."""
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    ray_tmp = os.path.join(work, "r")
    if len(ray_tmp) > RAY_TMP_MAX:
        ray_tmp = tempfile.mkdtemp(prefix="pb", dir="/tmp")
    os.makedirs(ray_tmp, exist_ok=True)
    os.environ["RAY_TMPDIR"] = ray_tmp
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [root, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    # one thread per Ray slot: the host's pools must not borrow other cores
    for k in ("POLARS_MAX_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        os.environ.setdefault(k, "1")
    return ray_tmp


def _warm_worker() -> int:
    import rkts_migration_ray.pipelines.docs  # noqa: F401
    import rkts_migration_ray.pipelines.kg  # noqa: F401
    import rkts_migration_ray.pipelines.materialize  # noqa: F401

    return os.getpid()


def bring_up(inputs: list[str]) -> float:
    """Start Ray with NUM_CPUS slots, warm both workers, verify the inputs."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    t0 = time.perf_counter()
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR", object_store_memory=OBJECT_STORE_BYTES)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    warm = ray.remote(num_cpus=1)(_warm_worker)
    ray.get([warm.remote() for _ in range(NUM_CPUS)])
    rd.range(64, override_num_blocks=NUM_CPUS).map_batches(
        lambda t: t, batch_format="pyarrow").materialize()
    for p in inputs:
        if pq.ParquetFile(p).metadata.num_rows <= 0:
            raise RuntimeError(f"input {p} is empty")
    return time.perf_counter() - t0


class Runner:
    """Runs rounds of a workload's operations with deadlines and accounting."""

    def __init__(self, workload, t_start: float):
        self.w = workload
        self.t_start = t_start
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rounds: list[dict] = []
        self.wedged = False

    def run_round(self, tracer=None) -> bool:
        """One whole round; False if an operation failed (the rest of the
        round then counts as failed too and no further round starts)."""
        from pb_proc import DeadlineExceeded, Meter, call_with_deadline

        ops = self.w.ops()
        wall = cpu = 0.0
        peak = 0
        for i, op in enumerate(ops):
            self.attempted += 1
            meter = Meter().start()
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = call_with_deadline(op.call, OP_DEADLINE_S)
                else:
                    with tracer.span(op.layer, op.name):
                        result = call_with_deadline(op.call, OP_DEADLINE_S)
            except Exception as e:
                meter.stop()
                self.failed += len(ops) - i
                self.attempted += len(ops) - i - 1
                self.wedged = isinstance(e, DeadlineExceeded)
                log(f"{op.name} failed, ending the run:\n{traceback.format_exc()}")
                return False
            dt = time.perf_counter() - t0
            meter.stop()
            wall += dt
            cpu += meter.cpu_s
            peak = max(peak, meter.peak_rss)
            log(f"{op.name}: {dt:.2f} s")
            try:
                found = op.check(result)
            except Exception:
                found = [f"{op.name}: check raised {traceback.format_exc(limit=3)}"]
            if found:
                log(f"{op.name}: WRONG OUTPUT: {found}")
                self.problems += found
        self.rounds.append({"wall_s": wall, "cpu_s": cpu, "peak_rss": peak,
                            "rows": self.w.round_rows(),
                            "bytes": self.w.round_bytes()})
        log(f"round {len(self.rounds)}: {wall:.2f} s wall, {cpu:.2f} s cpu, "
            f"{peak / 2**20:.0f} MB peak")
        return True

    def run(self, seconds: float) -> None:
        t0 = time.perf_counter()
        while self.run_round():
            last = self.rounds[-1]["wall_s"]
            now = time.perf_counter()
            if (now - t0 + last > seconds
                    or now - self.t_start + last > RUN_BUDGET_S):
                break

    def end_to_end(self, setup_s: float) -> dict:
        med = lambda k: statistics.median(r[k] for r in self.rounds)  # noqa: E731
        return {
            "wall_s": {"value": med("wall_s"), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "rows_per_s": {"value": statistics.median(
                r["rows"] / r["wall_s"] for r in self.rounds), "unit": "rows/s"},
            "cpu_s": {"value": med("cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": med("peak_rss") / 2**20, "unit": "MB"},
            "bytes_written": {"value": med("bytes"), "unit": "bytes"},
        }


def shutdown(ray_tmp: str) -> None:
    """Stop Ray, then kill and wait for every process this run started,
    including Ray helpers that the raylet's exit re-parented to init."""
    from pb_proc import descendants, kill_tree

    started = descendants(os.getpid())
    try:
        import ray

        if ray.is_initialized():
            ray.shutdown()
    finally:
        left = kill_tree(started)
        if left:
            log(f"processes still present after kill: {left}")
        shutil.rmtree(ray_tmp, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=["build", "store"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true",
                   help="corrupt one output of each kind; every check must fail")
    args = p.parse_args(argv)
    if not args.self_test and not args.workload:
        p.error("--workload is required")

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "rkts_migration_ray")):
        log(f"no rkts_migration_ray package in {root}: run from a checkout root")
        return 2
    work = os.path.join(root, ".pb")
    ray_tmp = configure_env(root, work)
    sys.path[:0] = [root, HERE]
    from rkts_migration_ray import fixtures  # noqa: E402

    import pb_proc
    import pb_workloads as W

    fixtures.FIXTURE_ROOT = os.path.join(work, "fixtures")
    import_s = pb_proc.process_age_s()
    t_proc0 = time.perf_counter() - import_s  # process start, perf_counter clock
    try:
        if args.self_test:
            import pb_selftest

            return pb_selftest.main(W.Ctx(root, work, args.seed), bring_up)
        t0 = time.perf_counter()
        workload = W.WORKLOADS[args.workload](W.Ctx(root, work, args.seed))
        log(f"inputs ready in {time.perf_counter() - t0:.2f} s")
        if args.trace:
            import pb_trace

            result, wedged = pb_trace.traced_run(workload, bring_up, Runner, t_proc0)
        else:
            setup_s = import_s + bring_up(workload.inputs)
            log(f"setup: {setup_s:.2f} s")
            workload.prepare_with_ray()
            runner = Runner(workload, t_proc0)
            runner.run(args.seconds)
            wedged = runner.wedged
            if runner.rounds and not runner.problems:
                import pb_trace

                pb_trace.record_untraced(workload, runner.rounds[0]["wall_s"])
            result = {"correct": not runner.problems,
                      "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": runner.end_to_end(setup_s) if runner.rounds else {}}
        print(json.dumps(result), flush=True)
        if wedged:  # the wedged execution cannot be joined: end the process
            pb_proc.kill_tree(pb_proc.descendants(os.getpid()))
            shutil.rmtree(ray_tmp, ignore_errors=True)
            os._exit(0)
        return 0 if result["metrics"] else 1
    finally:
        shutdown(ray_tmp)


if __name__ == "__main__":
    sys.exit(main())
