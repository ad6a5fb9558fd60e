"""The workloads. Each prepares its inputs (untimed), then yields the
operations of one round; a round resets its output directory first, so
every round runs the same operations on the same state.

``build`` is the CLI ``run``. ``store`` runs the two generational stores
back to back in one round: graph updates (``Update``) and the dedup and
vector ingest services (``Ingest``). They are one workload, not two, because
the benchmark's whole pass (4 + 22 runs per workload) must fit in 57
minutes on this host and a run of either alone was too noisy at one round.

An operation is ``Op(name, layer, call, check)``: ``call()`` is timed,
``check(result)`` runs outside the timing and returns a list of problems.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import pb_checks as C
import pb_inputs as I

N_BUCKETS = 64
N_UPDATE_GENS = 3
UPDATE_FRACTION = 0.05


@dataclass
class Op:
    name: str
    layer: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]] = lambda _result: []


@dataclass
class Ctx:
    root: str      # checkout root (holds the engine package)
    work: str      # the benchmark's own work directory inside the checkout
    seed: int


def run_cli(argv: list[str]) -> str:
    """Call the package CLI in-process on the benchmark's Ray session.
    ``main()`` shuts Ray down on exit; that call is suppressed here so the
    warm session survives. Returns what the CLI printed."""
    import ray

    from rkts_migration_ray import __main__ as cli

    real = ray.shutdown
    ray.shutdown = lambda *a, **k: None
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    finally:
        ray.shutdown = real
    if rc != 0:
        raise RuntimeError(f"CLI {argv[0]} exited {rc}: {buf.getvalue()[-300:]}")
    return buf.getvalue()


def collect(ds) -> pa.Table:
    import ray

    refs = ds.to_arrow_refs()
    tables = [t for t in ray.get(refs) if t.num_rows]
    return (pa.concat_tables(tables, promote_options="default") if tables
            else pa.table({c: pa.array([], pa.string()) for c in C.TRIPLE_COLUMNS}))


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


class Build:
    """CLI ``run`` (Parquet sink, 64 buckets, --no-resume) on the tier."""

    name = "build"

    def __init__(self, ctx: Ctx):
        from rkts_migration_ray import fixtures, oracles

        self.ctx = ctx
        self.tag = I.transcript_tier(fixtures, ctx.seed)
        self.inputs = I.tier_files(fixtures, self.tag)
        self.expected = C.multiset_of_table(
            I.expected_triples(ctx.work, fixtures, oracles, self.tag))
        self.out = os.path.join(ctx.work, "run", "graph")
        self.rows = 0

    def prepare_with_ray(self) -> None:
        pass

    def ops(self) -> list[Op]:
        _fresh(self.out)
        argv = ["run", "--sf", self.tag, "--out", self.out, "--buckets",
                str(N_BUCKETS), "--no-resume", "--num-cpus", "2"]

        def check(printed: str) -> list[str]:
            self.rows = int(json.loads(printed.strip().splitlines()[-1])["rows"])
            return C.check_graph_files(self.out, self.expected)

        return [Op("cli.run", "cli", lambda: run_cli(argv), check)]

    def round_rows(self) -> int:
        return self.rows

    def round_bytes(self) -> int:
        return C.dir_bytes(self.out)


class Update:
    """update_graph generations on a committed base graph, each followed by a
    reconciled read; then compact_graph and a final read."""

    def __init__(self, ctx: Ctx):
        from rkts_migration_ray import fixtures, oracles

        self.ctx = ctx
        self.tag = I.transcript_tier(fixtures, ctx.seed)
        self.inputs = I.tier_files(fixtures, self.tag)
        self.base = I.expected_triples(ctx.work, fixtures, oracles, self.tag)
        self.base_dir = os.path.join(ctx.work, f"base-graph-{self.tag}")
        self.out = os.path.join(ctx.work, "run", "graph")
        self.gens = plan_updates(self.base, ctx.seed)
        self.expect = [C.multiset_of_table(C.replay(self.base, self.gens[:g]))
                       for g in range(N_UPDATE_GENS + 1)]
        self.rows = 0

    def prepare_with_ray(self) -> None:
        """Commit the base graph (once per seed) with the engine's headline
        sink, ``write_graph_streams``: ROADMAP.md item C keeps it and removes
        the sort-based ``write_graph``."""
        if os.path.isdir(self.base_dir):
            return
        import ray.data as rd

        from rkts_migration_ray.pipelines import materialize

        tmp = _fresh(f"{self.base_dir}.tmp.{os.getpid()}")
        materialize.write_graph_streams({"base": rd.from_arrow(self.base)}, tmp,
                                        n_buckets=N_BUCKETS, resume=False)
        os.rename(tmp, self.base_dir)

    def ops(self) -> list[Op]:
        from rkts_migration_ray.pipelines import materialize

        import ray.data as rd

        _fresh(self.out)
        shutil.copytree(self.base_dir, self.out)
        self.rows = 0
        out = self.out
        ops = []
        for g, delta, sup in self.gens:
            def update(delta=delta, sup=sup):
                materialize.update_graph(out, rd.from_arrow(delta), sup,
                                         n_buckets=N_BUCKETS)
                self.rows += delta.num_rows
            ops.append(Op(f"update_graph.g{g}", "materialize", update))
            ops.append(Op(f"read_graph.g{g}", "materialize",
                          lambda: collect(materialize.read_graph(out)),
                          self._check_read(self.expect[g])))
        ops.append(Op("compact_graph", "materialize",
                      lambda: materialize.compact_graph(out),
                      lambda _r: C.check_graph_files(out, self.expect[-1])))
        ops.append(Op("read_graph.final", "materialize",
                      lambda: collect(materialize.read_graph(out)),
                      self._check_read(self.expect[-1])))
        return ops

    def _check_read(self, want):
        def check(table: pa.Table) -> list[str]:
            self.rows += table.num_rows
            return C.compare("reconciled read", C.multiset_of_table(table), want)
        return check

    def round_rows(self) -> int:
        return self.rows

    def round_bytes(self) -> int:
        return C.dir_bytes(self.out)


def plan_updates(base: pa.Table, seed: int) -> list[tuple[int, pa.Table, list[str]]]:
    """Seeded generations: each supersedes ~5 % of the conversation graphs.
    The replacement rows are the graph's live rows with every third object
    changed and every seventh row dropped (a re-extracted conversation)."""
    rng = np.random.default_rng([seed, 2])
    graphs = sorted(g for g in pc.unique(base["graph"]).to_pylist()
                    if g.startswith("G:conv-"))
    k = max(1, round(UPDATE_FRACTION * len(graphs)))
    gens: list[tuple[int, pa.Table, list[str]]] = []
    for g in range(1, N_UPDATE_GENS + 1):
        sup = sorted(rng.choice(graphs, size=k, replace=False).tolist())
        live = C.replay(base, gens)
        rows = live.filter(pc.is_in(live["graph"], value_set=pa.array(sup)))
        i = np.arange(rows.num_rows)
        obj = np.asarray(rows["obj"].to_pylist(), dtype=object)
        obj[i % 3 == 0] = [f"{o}~v{g}" for o in obj[i % 3 == 0]]
        rows = rows.set_column(rows.schema.get_field_index("obj"), "obj",
                               pa.array(obj, pa.string()))
        gens.append((g, rows.filter(pa.array(i % 7 != 1)), sup))
    return gens


class Ingest:
    """Dedup and vector ingest services: base generation, two arriving
    batches of each kind, compaction, then one more batch of each kind."""

    def __init__(self, ctx: Ctx):
        from rkts_migration_ray import oracles

        self.ctx = ctx
        self.ddir = I.docs_dir(ctx.work, ctx.seed)
        self.inputs = [os.path.join(self.ddir, "documents.parquet"),
                       os.path.join(self.ddir, "embeddings.parquet")]
        self.pairs = I.expected_pairs(ctx.work, oracles, self.ddir)
        self.emb = np.array(pq.read_table(self.inputs[1], columns=["embedding"])
                            ["embedding"].to_pylist(), dtype=np.float64)
        self.band = os.path.join(ctx.work, "run", "band-index")
        self.ivf = os.path.join(ctx.work, "run", "ivf-index")

    def ops(self) -> list[Op]:
        from rkts_migration_ray.pipelines import docs

        _fresh(self.band)
        _fresh(self.ivf)
        d, band, ivf = self.ddir, self.band, self.ivf
        base_mask = lambda ids: ids % 10 >= 3  # noqa: E731 (shipped to workers)
        doc_ids, vec_ids = np.arange(I.N_DOCS), np.arange(I.N_VECS)
        docs_in = set(doc_ids[doc_ids % 10 >= 3].tolist())
        vecs_in = set(vec_ids[vec_ids % 10 >= 3].tolist())
        ops = [
            Op("band.base", "docs",
               lambda: docs.append_band_generation(band, d, base_mask, "base"),
               lambda _r, s=set(docs_in): C.check_band_index(band, s)),
            Op("ivf.base", "docs",
               lambda: docs.ensure_ivf_index_at(ivf, d, base_mask),
               lambda _r, s=set(vecs_in): C.check_ivf_index(ivf, s)),
        ]
        for r in (0, 1, None, 2):  # None: compact both indexes
            if r is None:
                ops.append(Op("band.compact", "docs",
                              lambda: docs.compact_generations(band),
                              lambda _r, s=set(docs_in): C.check_band_index(band, s)))
                ops.append(Op("ivf.compact", "docs",
                              lambda: docs.compact_generations(ivf),
                              lambda _r, s=set(vecs_in): C.check_ivf_index(ivf, s)))
                continue
            mask = lambda ids, r=r: ids % 10 == r  # noqa: E731
            bdocs = set(doc_ids[doc_ids % 10 == r].tolist())
            bvecs = vec_ids[vec_ids % 10 == r]
            ops.append(Op(f"dedup_ingest.b{r}", "docs",
                          lambda mask=mask, r=r: docs.dedup_ingest(d, band, mask, f"b{r}"),
                          self._check_dedup(bdocs, set(docs_in))))
            ops.append(Op(f"embed_ingest.b{r}", "docs",
                          lambda mask=mask, r=r: docs.embed_ingest(d, ivf, mask, f"b{r}"),
                          self._check_embed(bvecs, np.array(sorted(vecs_in)))))
            docs_in |= bdocs
            vecs_in |= set(bvecs.tolist())
        return ops

    def _check_dedup(self, batch: set, indexed: set):
        def check(got) -> list[str]:
            return (C.check_dedup(got, self.pairs, batch, indexed)
                    + C.check_band_index(self.band, indexed | batch))
        return check

    def _check_embed(self, batch: np.ndarray, indexed: np.ndarray):
        def check(got) -> list[str]:
            return (C.check_topk(got, self.emb, batch, indexed)
                    + C.check_ivf_index(self.ivf, set(indexed.tolist())
                                        | set(batch.tolist())))
        return check

    def round_rows(self) -> int:
        return I.N_DOCS + I.N_VECS  # base + every batch, of both kinds

    def round_bytes(self) -> int:
        return C.dir_bytes(self.band) + C.dir_bytes(self.ivf)


class Store:
    """Update's operations, then Ingest's, in one round."""

    name = "store"

    def __init__(self, ctx: Ctx):
        self.ctx = ctx
        self.update, self.ingest = Update(ctx), Ingest(ctx)
        self.inputs = self.update.inputs + self.ingest.inputs

    def prepare_with_ray(self) -> None:
        self.update.prepare_with_ray()

    def ops(self) -> list[Op]:
        return self.update.ops() + self.ingest.ops()

    def round_rows(self) -> int:
        return self.update.round_rows() + self.ingest.round_rows()

    def round_bytes(self) -> int:
        return self.update.round_bytes() + self.ingest.round_bytes()


WORKLOADS = {w.name: w for w in (Build, Store)}
