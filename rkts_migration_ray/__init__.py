"""rkts_migration_ray — a Ray-Data-native knowledge-graph construction engine.

From-scratch re-expression of the query/data-processing capabilities of
buda-base/rKTs-migration (reference at /root/reference, cited by file:line in
docstrings) over Parquet transcript tables
(conv_id, turn_idx, role, text, tool, ts), built Ray-Data-first:

    read_parquet → map_batches (zero-copy Arrow extraction)
                 → groupby(conv_id).map_groups (ordering/hierarchy windows)
                 → entity linking as stateless tasks (broadcast gazetteer)
                 → salted groupby canonicalization merge
                 → bucket-partitioned Parquet with lineage manifests.

Nothing in this package calls ray.init()/ray.shutdown(); sessions are owned by
bench.py / the test fixture / the driver.
"""

__version__ = "0.1.0"
