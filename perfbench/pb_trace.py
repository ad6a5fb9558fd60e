"""Traced mode: spans around each call into the engine's modules, timed from
outside, and the per-layer metrics.

Spans are kept in memory and written when the run ends to
``.pb/trace-<workload>-s<seed>.json``: each records its layer, call, start,
end and parent span, from which self time per layer is derived. Calls are
spanned by wrapping the engine's module-level functions in this process
(never inside Ray workers). A function that no longer exists is listed under
"missing" and its metrics read 0; nothing crashes.

A traced run does one traced round and then one probe per layer on the
seed's inputs, so every traced run reports every per-layer metric. The
tracing overhead is the traced round's wall minus the first round's wall of
the last untraced run of the same workload in this checkout (the inputs of
every seed have the same size); with no such run, the traced run first does
an untraced round itself. A probe that would start too late to end before
TRACE_BUDGET_S is skipped (listed under "skipped", metrics 0), so a traced
run ends within the 180 s run limit even on a slow host.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import threading
import time
import traceback

import pyarrow as pa
import pyarrow.parquet as pq

import pb_checks as C
import pb_inputs as I
import pb_workloads as W
from pb_proc import DeadlineExceeded, Meter, call_with_deadline

NUM_CPUS = 2
PROBE_DEADLINE_S = 90.0
TRACE_BUDGET_S = 165.0   # process time by which the last probe must end
# seconds each probe took on a slow hour of this host (2 slots)
PROBE_ESTIMATE_S = {"sources": 3, "functions": 3, "stages": 5, "kg": 55,
                    "materialize": 15, "manifest": 2, "docs": 20, "cli": 15}

PER_LAYER = [
    "sources.read_s", "sources.lookups_s",
    "functions.mint_rows_per_s", "functions.hash_bucket_rows_per_s",
    "functions.shingle_docs_per_s", "functions.minhash_docs_per_s",
    "stages.extract_rows_per_s", "stages.structural_rows_per_s",
    "stages.link_rows_per_s", "stages.conv_rows_per_s", "stages.entity_rows_per_s",
    "kg.structloc_s", "kg.conv_s", "kg.mentions_s", "kg.entities_s",
    "kg.extract_passes", "kg.udf_s", "kg.sched_s", "kg.spilled_bytes", "kg.busy_frac",
    "materialize.write_s", "materialize.files", "materialize.bytes_per_triple",
    "materialize.update_s", "materialize.read_s", "materialize.compact_s",
    "materialize.read_amplification",
    "manifest.verify_s", "manifest.checksum_rows_per_s",
    "docs.band_s", "docs.dedup_probe_s", "docs.embed_probe_s", "docs.compact_s",
    "docs.index_bytes", "docs.verify_yield",
    "cli.noop_s",
    "self.sources_s", "self.functions_s", "self.stages_s", "self.kg_s",
    "self.materialize_s", "self.manifest_s", "self.docs_s", "self.cli_s",
    "trace.overhead_s",
]
UNITS = {"rows_per_s": "rows/s", "docs_per_s": "docs/s", "_s": "s",
         "files": "count", "extract_passes": "count", "spilled_bytes": "bytes",
         "index_bytes": "bytes", "bytes_per_triple": "bytes",
         "busy_frac": "ratio", "read_amplification": "ratio", "verify_yield": "ratio"}

# entry points spanned by wrapping in this process; none is referenced by
# a closure that Ray ships to workers
WRAPPED = {
    "rkts_migration_ray.__main__": ("cli", ["main"]),
    "rkts_migration_ray.sources.readers": ("sources", [
        "read_transcripts", "load_gazetteer", "load_alias_closure", "load_props"]),
    "rkts_migration_ray.pipelines.kg": ("kg", [
        "kg_triples_ds", "kg_bundle", "_broadcast_lookups", "_checkpoint"]),
    "rkts_migration_ray.pipelines.materialize": ("materialize", [
        "write_graph", "write_graph_streams", "write_fragments", "commit_manifests",
        "update_graph",
        "read_graph", "compact_graph", "generation_files", "graph_tombstones"]),
    "rkts_migration_ray.state.manifest": ("manifest", [
        "committed_buckets", "assert_source_matches", "write_manifest",
        "content_checksum"]),
    "rkts_migration_ray.pipelines.docs": ("docs", [
        "dedup_ingest", "_dedup_probe", "append_band_generation", "embed_ingest",
        "_ivf_probe_topk", "append_ivf_generation", "ensure_ivf_index_at",
        "compact_generations"]),
}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def span(self, layer: str, call: str):
        tracer = self

        class _Span:
            def __enter__(self):
                with tracer._lock:
                    self.rec = {"id": len(tracer.spans), "layer": layer, "call": call,
                                "parent": tracer._stack[-1] if tracer._stack else None,
                                "start": time.perf_counter() - tracer.t0, "end": None}
                    tracer.spans.append(self.rec)
                    tracer._stack.append(self.rec["id"])
                return self.rec

            def __exit__(self, *exc):
                with tracer._lock:
                    self.rec["end"] = time.perf_counter() - tracer.t0
                    if tracer._stack and tracer._stack[-1] == self.rec["id"]:
                        tracer._stack.pop()
                return False

        return _Span()

    def install(self) -> None:
        loaded = [m for n, m in sys.modules.items()
                  if n.startswith("rkts_migration_ray") and m is not None]
        for modname, (layer, names) in WRAPPED.items():
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.missing.append(modname)
                continue
            for name in names:
                orig = getattr(mod, name, None)
                if orig is None:
                    self.missing.append(f"{modname}.{name}")
                    continue
                wrapper = self._wrap(layer, name, orig)
                for m in loaded + [mod]:
                    if getattr(m, name, None) is orig:
                        self._patched.append((m, name, orig))
                        setattr(m, name, wrapper)

    def uninstall(self) -> None:
        for m, name, orig in reversed(self._patched):
            setattr(m, name, orig)
        self._patched.clear()

    def _wrap(self, layer: str, name: str, fn):
        def wrapper(*a, **k):
            with self.span(layer, name):
                return fn(*a, **k)
        wrapper.__wrapped__ = fn
        return wrapper

    def duration(self, rec: dict) -> float:
        return (rec["end"] or rec["start"]) - rec["start"]

    def self_times(self) -> dict[str, float]:
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + self.duration(s)
        out: dict[str, float] = {}
        for s in self.spans:
            own = max(0.0, self.duration(s) - child.get(s["id"], 0.0))
            out[s["layer"]] = out.get(s["layer"], 0.0) + own
        return out

    def children(self, rec: dict, call: str) -> float:
        return sum(self.duration(s) for s in self.spans
                   if s["parent"] == rec["id"] and s["call"] == call)


def _num(x) -> float:
    if isinstance(x, dict):
        return float(x.get("sum", 0.0) or 0.0)
    return float(x or 0.0)


def operator_stats(ds) -> dict:
    """Ray Data per-operator stats of an executed dataset: one summary per
    operator chain, walked through ``parents``. The schedule time and the
    dataset's spilled bytes are the execution's own (every parent summary
    repeats them)."""
    top = ds._get_stats_summary()
    ops, stack = [], [top]
    while stack:
        s = stack.pop()
        extra = getattr(s, "extra_metrics", None) or {}
        for op in s.operators_stats:
            ops.append({"operator": op.operator_name,
                        "wall_s": _num(op.wall_time), "cpu_s": _num(op.cpu_time),
                        "udf_s": _num(op.udf_time), "rows": _num(op.output_num_rows),
                        "bytes": _num(op.output_size_bytes),
                        "spilled": float(extra.get("obj_store_mem_spilled", 0) or 0)})
        stack.extend(s.parents)
    return {"operators": ops,
            "schedule_s": float(top.streaming_exec_schedule_s or 0.0),
            "spilled_bytes": float(top.dataset_bytes_spilled or 0.0)}


def rate(fn, n: int, min_s: float = 0.2) -> float:
    """Items per second of ``fn`` over ``n`` items, repeated for >= min_s."""
    reps, t0 = 0, time.perf_counter()
    while True:
        fn()
        reps += 1
        dt = time.perf_counter() - t0
        if dt >= min_s:
            return n * reps / dt


class Probes:
    """One probe per layer on the seed's inputs; each is spanned."""

    def __init__(self, ctx: W.Ctx, tracer: Tracer, metrics: dict):
        from rkts_migration_ray import fixtures, oracles

        self.ctx, self.tr, self.m = ctx, tracer, metrics
        self.tag = I.transcript_tier(fixtures, ctx.seed)
        self.base = I.expected_triples(ctx.work, fixtures, oracles, self.tag)
        self.ddir = I.docs_dir(ctx.work, ctx.seed)
        self.scratch = os.path.join(ctx.work, "run", "probe")
        self.stats: dict[str, dict] = {}
        self.failed: list[str] = []
        self.skipped: list[str] = []
        self.wedged = False

    def all(self, t_start: float) -> None:
        """Run every probe; a failed one leaves its metrics at 0, a wedged
        one (past its deadline) also skips the probes after it, and a probe
        that would end after TRACE_BUDGET_S of process time is skipped."""
        W._fresh(self.scratch)
        for name, estimate in PROBE_ESTIMATE_S.items():
            late = time.perf_counter() - t_start + estimate > TRACE_BUDGET_S
            if self.wedged or late:
                self.skipped.append(name)
                continue
            try:
                call_with_deadline(getattr(self, name), PROBE_DEADLINE_S)
            except Exception as e:
                self.failed.append(name)
                self.wedged = isinstance(e, DeadlineExceeded)
                print(f"[perfbench] probe {name} failed (metrics read 0):\n"
                      f"{traceback.format_exc(limit=4)}", file=sys.stderr, flush=True)

    def timed(self, layer: str, call: str, fn):
        with self.tr.span(layer, call) as rec:
            out = fn()
        return out, self.tr.duration(rec)

    def sources(self) -> None:
        from rkts_migration_ray.sources import readers

        ds, self.m["sources.read_s"] = self.timed(
            "sources", "read_transcripts.materialize",
            lambda: readers.read_transcripts(self.tag).materialize())
        self.stats["sources.read"] = operator_stats(ds)
        _, self.m["sources.lookups_s"] = self.timed("sources", "lookups", lambda: (
            readers.load_gazetteer(self.tag), readers.load_alias_closure(self.tag),
            readers.load_props(self.tag)))

    def _turns(self) -> pa.Table:
        from rkts_migration_ray import fixtures

        return pq.read_table(fixtures.transcripts_path(self.tag))

    def functions(self) -> None:
        from rkts_migration_ray.functions import arrowutils, minting
        from rkts_migration_ray.functions import text as T

        turns = self._turns()
        texts = pq.read_table(os.path.join(self.ddir, "documents.parquet"),
                              columns=["text"])["text"].to_pylist()
        a, b = T.minhash_params(64)
        sh = T.batch_shingle_hashes(texts)
        with self.tr.span("functions", "kernels"):
            self.m["functions.mint_rows_per_s"] = rate(
                lambda: minting.mint_node_array("W", turns["conv_id"], turns["text"]),
                turns.num_rows)
            self.m["functions.hash_bucket_rows_per_s"] = rate(
                lambda: arrowutils.hash_bucket(self.base["subj"], W.N_BUCKETS),
                self.base.num_rows)
            self.m["functions.shingle_docs_per_s"] = rate(
                lambda: T.batch_shingle_hashes(texts), len(texts))
            self.m["functions.minhash_docs_per_s"] = rate(
                lambda: T.batch_minhash_signatures(sh, a, b), len(texts))

    def stages(self) -> None:
        from rkts_migration_ray.sources import readers
        from rkts_migration_ray.stages import convgroup, extract, linking

        turns = self._turns()
        n = turns.num_rows
        gaz, alias = readers.load_gazetteer(self.tag), readers.load_alias_closure(self.tag)
        props = readers.load_props(self.tag)
        feats = extract.extract_features(turns)
        linker = linking.MentionLinker(gaz=gaz, alias_closure=alias, explode=True)
        ment = feats.select(["conv_id", "turn_idx", "mentions"])
        linked = linker(ment)
        conv_in = convgroup.add_conv_bucket(
            feats.select(convgroup.CONV_GROUP_COLUMNS)).to_pandas()
        emitter = linking.EntityEmitter(props=props)

        def entities():
            ents = linking.dedup_entities(linking.entity_rows(linked).to_pandas())
            return emitter(pa.Table.from_pandas(ents, preserve_index=False))

        with self.tr.span("stages", "udfs"):
            self.m["stages.extract_rows_per_s"] = rate(
                lambda: extract.extract_features(turns), n)
            self.m["stages.structural_rows_per_s"] = rate(
                lambda: extract.structural_triples(feats), n)
            self.m["stages.link_rows_per_s"] = rate(lambda: linker(ment), n)
            self.m["stages.conv_rows_per_s"] = rate(
                lambda: convgroup.conv_bucket_triples(conv_in), n)
            self.m["stages.entity_rows_per_s"] = rate(entities, linked.num_rows)

    def kg(self) -> None:
        from rkts_migration_ray.pipelines import kg

        bundle = kg.kg_bundle(self.tag)
        meter = Meter().start()
        wall = udf = sched = spilled = 0.0
        passes = 0
        for stream in ("structloc", "conv", "mentions", "entities"):
            ds, dt = self.timed("kg", f"{stream}.materialize",
                                lambda s=stream: bundle[s].materialize())
            self.m[f"kg.{stream}_s"] = dt
            wall += dt
            st = operator_stats(ds)
            self.stats[f"kg.{stream}"] = st
            udf += sum(o["udf_s"] for o in st["operators"])
            sched += st["schedule_s"]
            spilled += st["spilled_bytes"] + sum(o["spilled"] for o in st["operators"])
            passes += sum("extract_features" in o["operator"] for o in st["operators"])
        meter.stop()
        self.m.update({"kg.udf_s": udf, "kg.sched_s": sched, "kg.spilled_bytes": spilled,
                       "kg.extract_passes": float(passes),
                       "kg.busy_frac": meter.cpu_s / (wall * NUM_CPUS)})

    def materialize(self) -> None:
        import ray.data as rd

        from rkts_migration_ray.pipelines import materialize

        out = os.path.join(self.scratch, "graph")
        _, self.m["materialize.write_s"] = self.timed(
            "materialize", "write_graph", lambda: materialize.write_graph(
                rd.from_arrow(self.base), out, n_buckets=W.N_BUCKETS, resume=False))
        self.m["materialize.files"] = C.count_files(out)
        self.m["materialize.bytes_per_triple"] = C.dir_bytes(out) / self.base.num_rows
        g, delta, sup = W.plan_updates(self.base, self.ctx.seed)[0]
        _, self.m["materialize.update_s"] = self.timed(
            "materialize", "update_graph", lambda: materialize.update_graph(
                out, rd.from_arrow(delta), sup, n_buckets=W.N_BUCKETS))
        live, self.m["materialize.read_s"] = self.timed(
            "materialize", "read_graph", lambda: W.collect(materialize.read_graph(out)))
        scanned = self.base.num_rows + delta.num_rows
        self.m["materialize.read_amplification"] = scanned / max(1, live.num_rows)
        _, self.m["materialize.compact_s"] = self.timed(
            "materialize", "compact_graph", lambda: materialize.compact_graph(out))

    def manifest(self) -> None:
        from rkts_migration_ray.state import manifest as mf

        out = os.path.join(self.scratch, "graph")
        _, self.m["manifest.verify_s"] = self.timed(
            "manifest", "committed_buckets", lambda: mf.committed_buckets(out))
        with self.tr.span("manifest", "content_checksum"):
            self.m["manifest.checksum_rows_per_s"] = rate(
                lambda: mf.content_checksum(self.base, C.TRIPLE_COLUMNS),
                self.base.num_rows)

    def docs(self) -> None:
        from rkts_migration_ray.pipelines import docs

        band = os.path.join(self.scratch, "band")
        ivf = os.path.join(self.scratch, "ivf")
        base_mask = lambda ids: ids % 10 >= 3  # noqa: E731
        batch_mask = lambda ids: ids % 10 == 0  # noqa: E731
        _, self.m["docs.band_s"] = self.timed(
            "docs", "append_band_generation",
            lambda: docs.append_band_generation(band, self.ddir, base_mask, "base"))
        with self.tr.span("docs", "dedup_ingest") as rec:
            got = docs.dedup_ingest(self.ddir, band, batch_mask, "b0")
        self.m["docs.dedup_probe_s"] = (self.tr.duration(rec)
                                        - self.tr.children(rec, "append_band_generation"))
        cand = _band_candidates(band)
        self.m["docs.verify_yield"] = len(got) / max(1, cand)
        self.timed("docs", "ensure_ivf_index_at",
                   lambda: docs.ensure_ivf_index_at(ivf, self.ddir, base_mask))
        with self.tr.span("docs", "embed_ingest") as rec:
            docs.embed_ingest(self.ddir, ivf, batch_mask, "b0")
        self.m["docs.embed_probe_s"] = (self.tr.duration(rec)
                                        - self.tr.children(rec, "append_ivf_generation"))
        _, self.m["docs.compact_s"] = self.timed(
            "docs", "compact_generations",
            lambda: (docs.compact_generations(band), docs.compact_generations(ivf)))
        self.m["docs.index_bytes"] = C.dir_bytes(band) + C.dir_bytes(ivf)

    def cli(self) -> None:
        argv = [sys.executable, "-m", "rkts_migration_ray", "query", "--list",
                "--num-cpus", str(NUM_CPUS)]
        with self.tr.span("cli", "query --list") as rec:
            subprocess.run(argv, cwd=self.ctx.root, check=True, timeout=120,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.m["cli.noop_s"] = self.tr.duration(rec)


def _band_candidates(band: str) -> int:
    """Distinct (batch doc, base doc) pairs sharing a band bucket, read from
    the index generations the probe used (gen-base) and appended (gen-b0)."""
    import pandas as pd

    def rows(gen: str) -> pd.DataFrame:
        files = [os.path.join(d, f) for d, _, fs in os.walk(os.path.join(band, gen))
                 for f in fs if f.endswith(".parquet")]
        return pd.concat([pq.read_table(f, columns=["band", "band_hash", "doc_id"])
                          .to_pandas() for f in files], ignore_index=True)

    m = rows("gen-b0").merge(rows("gen-base"), on=["band", "band_hash"])
    return len(m[["doc_id_x", "doc_id_y"]].drop_duplicates())


def traced_run(workload, bring_up, runner_cls, t_start: float) -> tuple[dict, bool]:
    """Returns the result object and whether an operation or probe wedged."""
    from rkts_migration_ray import fixtures

    probe_tag = I.transcript_tier(fixtures, workload.ctx.seed)
    inputs = I.tier_files(fixtures, probe_tag) + [
        os.path.join(I.docs_dir(workload.ctx.work, workload.ctx.seed), f)
        for f in ("documents.parquet", "embeddings.parquet")]
    setup = bring_up(inputs)
    workload.prepare_with_ray()
    metrics = {name: 0.0 for name in PER_LAYER}
    tracer = Tracer()
    plain = runner_cls(workload, t_start)
    plain_wall = _untraced_wall(workload)
    if plain_wall is None and plain.run_round():
        plain_wall = plain.rounds[-1]["wall_s"]
    traced = runner_cls(workload, t_start)
    probes = Probes(workload.ctx, tracer, metrics)
    tracer.install()
    try:
        if not plain.wedged and traced.run_round(tracer):
            probes.all(t_start)
    finally:
        tracer.uninstall()
    walls = [plain_wall, traced.rounds[-1]["wall_s"] if traced.rounds else None]
    if None not in walls:
        metrics["trace.overhead_s"] = walls[1] - walls[0]
    selfs = tracer.self_times()
    for layer in ("sources", "functions", "stages", "kg", "materialize",
                  "manifest", "docs", "cli"):
        metrics[f"self.{layer}_s"] = selfs.get(layer, 0.0)
    path = os.path.join(workload.ctx.work,
                        f"trace-{workload.name}-s{workload.ctx.seed}.json")
    with open(path, "w") as f:
        json.dump({"workload": workload.name, "seed": workload.ctx.seed,
                   "setup_s": setup, "round_walls_s": walls,
                   "self_s": selfs, "missing": tracer.missing,
                   "failed_probes": probes.failed, "skipped_probes": probes.skipped,
                   "untraced_wall_s": plain_wall, "spans": tracer.spans,
                   "ray_data": probes.stats, "metrics": metrics}, f, indent=1)
    _print_table(selfs, tracer, probes, path)
    problems = plain.problems + traced.problems
    return ({"correct": not problems,
             "attempted": plain.attempted + traced.attempted,
             "failed": plain.failed + traced.failed,
             "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}},
            plain.wedged or traced.wedged or probes.wedged)


def _untraced_path(workload) -> str:
    return os.path.join(workload.ctx.work, f"untraced-{workload.name}.json")


def record_untraced(workload, wall_s: float) -> None:
    """Keep the first round's wall of an untraced run for the traced run."""
    with open(_untraced_path(workload), "w") as f:
        json.dump({"seed": workload.ctx.seed, "wall_s": wall_s}, f)


def _untraced_wall(workload) -> float | None:
    try:
        with open(_untraced_path(workload)) as f:
            return float(json.load(f)["wall_s"])
    except (OSError, ValueError, KeyError):
        return None


def _print_table(selfs: dict, tracer: Tracer, probes: Probes, path: str) -> None:
    lines = [f"[perfbench] self time per layer (s), spans in {path}:"]
    for layer, s in sorted(selfs.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:12s} {s:8.3f}")
    if tracer.missing:
        lines.append(f"  missing: {', '.join(tracer.missing)}")
    if probes.skipped or probes.failed:
        lines.append(f"  probes skipped: {probes.skipped}, failed: {probes.failed}")
    print("\n".join(lines), file=sys.stderr, flush=True)

