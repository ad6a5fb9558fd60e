"""range_exchange: one range-partitioned sort on a bucket key in [0, n),
then one fn call per block, each block holding whole key ranges."""

import uuid

import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from rkts_migration_ray.functions.arrowutils import cluster_cpus, range_exchange

OUT = pa.schema([("call", pa.string()), ("k", pa.int32()), ("v", pa.int64())])


def _blocks(ds) -> list[pa.Table]:
    return ray.get(ds.to_arrow_refs())


def _input(keys: np.ndarray) -> tuple:
    vals = np.arange(len(keys), dtype=np.int64)
    ds = rd.from_arrow([pa.table({"k": keys[i::5].astype(np.int32),
                                  "v": vals[i::5]}) for i in range(5)])
    return ds, sorted(zip(keys.tolist(), vals.tolist()))


@pytest.mark.parametrize("n_keys", [1, 3, 64, 257])
def test_range_exchange_cogroups_every_key_once(n_keys):
    def tag_call(t: pa.Table) -> pa.Table:
        """Every row of one fn call gets the same fresh call id."""
        return t.append_column("call", pa.array([uuid.uuid4().hex] * t.num_rows))

    keys = np.random.default_rng(n_keys).integers(0, n_keys, 3000)
    ds, want = _input(keys)
    blocks = _blocks(range_exchange(ds, "k", n_keys, tag_call, OUT))
    # one block per key range (n_keys=1 still needs a boundary: 2 ranges)
    assert len(blocks) == max(2, min(n_keys, 2 * cluster_cpus()))
    assert all(b.schema == OUT for b in blocks)
    got = pa.concat_tables(blocks)
    assert sorted(zip(got["k"].to_pylist(), got["v"].to_pylist())) == want
    per_key = got.group_by("k").aggregate([("call", "count_distinct")])
    assert set(per_key["call_count_distinct"].to_pylist()) == {1}
    # a call holds a contiguous key range, sorted by key
    for b in blocks:
        assert np.all(np.diff(b["k"].to_numpy()) >= 0)


def test_range_exchange_empty_partitions_are_typed():
    """Rows in one key only: every other partition gives the typed empty
    table; pandas batches see the same rows."""
    ds, want = _input(np.zeros(100, dtype=np.int64))
    blocks = _blocks(range_exchange(ds, "k", 64,
                                    lambda df: df.assign(call="x"), OUT,
                                    "pandas"))
    assert len(blocks) == min(64, 2 * cluster_cpus())
    assert all(b.schema == OUT for b in blocks)
    assert [b.num_rows for b in blocks] == [100] + [0] * (len(blocks) - 1)
    got = pa.concat_tables(blocks)
    assert sorted(zip(got["k"].to_pylist(), got["v"].to_pylist())) == want


def test_range_exchange_empty_input_calls_nothing():
    def fn(t):
        raise AssertionError("fn called on an empty input")

    empty = rd.from_arrow(pa.table({"k": pa.array([], pa.int32()),
                                    "v": pa.array([], pa.int64())}))
    blocks = _blocks(range_exchange(empty, "k", 64, fn, OUT))
    assert sum(b.num_rows for b in blocks) == 0
