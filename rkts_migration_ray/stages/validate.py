"""Transcript invariant validation — the sort-within-conv_id stage.

Enforces the north rule's per-row invariant ("per-turn text equality under
stable turn ordering") plus the reference's monotonicity checks
(exportlocations.php:48-62: evolnum ≥ bvolnum, volume order; migrate-bvm.py
:243-260 duplicate/ordering validation) transposed to transcripts:

per conversation (sorted by turn_idx):
- turn_idx values are dense 0..n-1 and unique;
- ts is strictly monotone increasing in turn order;
- re-sorting any arrival permutation yields the same text sequence, which
  holds iff turn_idx is unique (checked) — the validation output is stable
  across input permutations.

Output: one row per conversation with boolean verdicts. Shuffle shape matches
the conv stage: hash-bucketed conv groups, vectorized aggregation inside.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..functions.arrowutils import from_pandas_clean
from .convgroup import conv_exchange

VALIDATE_COLUMNS = ["conv_id", "n_turns", "n_distinct", "max_idx", "dense", "ts_monotone"]

VALIDATE_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("n_turns", pa.int64()), ("n_distinct", pa.int64()),
    ("max_idx", pa.int64()), ("dense", pa.bool_()), ("ts_monotone", pa.bool_()),
])


def validate_bucket(df: pd.DataFrame) -> pa.Table:
    df = df.sort_values(["conv_id", "turn_idx"], kind="stable").reset_index(drop=True)
    conv = df["conv_id"]
    g = df.groupby(conv, sort=False)
    n = g.size()
    nd = g["turn_idx"].nunique()
    mx = g["turn_idx"].max().astype("int64")
    mn = g["turn_idx"].min().astype("int64")
    ts = df["ts"].astype("int64")
    prev = ts.groupby(conv, sort=False).shift(1)
    ok = prev.isna() | (ts > prev)
    mono = ok.groupby(conv, sort=False).all()
    out = pd.DataFrame({
        "conv_id": n.index.to_numpy(dtype=object),
        "n_turns": n.to_numpy("int64"),
        "n_distinct": nd.to_numpy("int64"),
        "max_idx": mx.to_numpy("int64"),
        "dense": ((nd.to_numpy("int64") == n.to_numpy("int64"))
                  & (mx.to_numpy("int64") == n.to_numpy("int64") - 1)
                  & (mn.to_numpy("int64") == 0)),
        "ts_monotone": mono.to_numpy(bool),
    })
    return from_pandas_clean(out[VALIDATE_COLUMNS], schema=VALIDATE_SCHEMA)


def validate_transcripts(ds, n_buckets: int):
    """Per-conversation validation — the same exchange as the conv-window
    stage (callers pass its fan-out, convgroup.conv_buckets); each call
    holds whole conversations."""
    return conv_exchange(ds, n_buckets, validate_bucket, VALIDATE_SCHEMA)


def validate_conv(df: pd.DataFrame) -> pd.DataFrame:
    """Single-conversation reference implementation (tests)."""
    return validate_bucket(df).to_pandas()
