"""Self-test of the output checks: run each workload's operations once on
correct state (every check must pass), then corrupt one output of each kind
and show that the check catches it:

- build:  a deleted fragment (one manifest-listed bucket file removed);
- update: a dropped tombstone (one graph removed from a generation's
          superseded list, so its old rows come back on read);
- ingest: a duplicated index generation (a batch generation copied under a
          second name, in both the band and the IVF index).

Prints one line per case and returns 0 only if every corruption was caught.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import sys

import numpy as np

import pb_checks as C
import pb_workloads as W


def _run_ops(ops: list, upto: int | None = None) -> list[str]:
    problems: list[str] = []
    for op in ops[:upto]:
        problems += op.check(op.call())
    return problems


def main(ctx: W.Ctx, bring_up) -> int:
    build, update, ingest = W.Build(ctx), W.Update(ctx), W.Ingest(ctx)
    bring_up(build.inputs + ingest.inputs)
    update.prepare_with_ray()
    cases = []

    clean = _run_ops(build.ops())
    victim = C.manifest_files(build.out)[0]
    os.remove(victim)
    cases.append(("build: deleted fragment", clean,
                  C.check_graph_files(build.out, build.expected)))

    ops = update.ops()
    clean = _run_ops(ops, 2)  # update_graph.g1 + its reconciled read
    gen_file = sorted(glob.glob(os.path.join(update.out, "_gen", "gen-*.json")))[0]
    with open(gen_file) as f:
        meta = json.load(f)
    meta["superseded"] = meta["superseded"][1:]
    with open(gen_file, "w") as f:
        json.dump(meta, f)
    cases.append(("store, graph updates: dropped tombstone", clean,
                  ops[1].check(ops[1].call())))

    ops = ingest.ops()
    clean = _run_ops(ops, 4)  # both bases + the first batch of each kind
    for idx in (ingest.band, ingest.ivf):
        shutil.copytree(os.path.join(idx, "gen-b0"), os.path.join(idx, "gen-b0copy"))
    caught = (C.check_band_index(ingest.band, _indexed(W.I.N_DOCS))
              + C.check_ivf_index(ingest.ivf, _indexed(W.I.N_VECS))
              + ops[5].check(ops[5].call()))  # embed_ingest.b1 sees doubled vectors
    cases.append(("store, ingest services: duplicated index generation", clean, caught))

    ok = True
    for name, clean, caught in cases:
        good = not clean and bool(caught)
        ok &= good
        print(f"{'PASS' if good else 'FAIL'} {name}: clean={clean or 'ok'} "
              f"corrupted={caught[:2] or 'NOT CAUGHT'}", file=sys.stderr, flush=True)
    print(json.dumps({"self_test": "pass" if ok else "fail",
                      "cases": [c[0] for c in cases]}), flush=True)
    return 0 if ok else 1


def _indexed(n: int) -> set:
    """Ids in the index after the base and the first batch (id % 10 == 0)."""
    ids = np.arange(n)
    return set(ids[(ids % 10 >= 3) | (ids % 10 == 0)].tolist())
