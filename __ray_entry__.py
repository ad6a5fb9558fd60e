"""Driver contract for the graft builder (Ray Data target).

The driver calls ray.init() itself before importing this module; nothing here
(or in rkts_migration_ray) calls ray.init()/ray.shutdown().

- entry(): flagship KG pipeline (transcripts → triples) on the sf0.001-scale
  deterministic fixture; returns the triple Dataset.
- queries(): one callable per implemented pipeline (SURVEY.md §2 coverage +
  the training-data operator suite); each takes sf_dir and returns a Dataset /
  DataFrame / Table.
- oracle_sql(): DuckDB twins. KG queries read the deterministic transcript
  fixture parquet (generated idempotently at import so the oracle can run in
  any order relative to the Ray side); documents/embeddings/relational
  queries reference the driver's pre-registered views by name. Queries with
  no oracle entry (approximate LSH/IVF KNN, stubbed multimodal codec) get
  the rows-only check.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from rkts_migration_ray import fixtures, oracles
from rkts_migration_ray.pipelines import bvm, docs, kg, relational
from rkts_migration_ray.sources import readers
from rkts_migration_ray.stages import multimodal
from rkts_migration_ray.stages.convgroup import conv_buckets
from rkts_migration_ray.stages.validate import validate_transcripts

# the driver compares at sf0.01; make sure the oracle's parquet exists even if
# the SQL runs before any queries() callable (generation is cheap + cached)
fixtures.ensure_fixture("sf0.01")
fixtures.ensure_fixture("sf0.001")

MEDIA_DIR = "/tmp/graft_fixtures/media"


def entry() -> Any:
    """Flagship pipeline on the sf0.001-scale fixture; driver checks rows>=0."""
    return kg.kg_triples_ds("sf0.001")


def _mm_decode(sf_dir: str) -> Any:
    path = multimodal.ensure_media_fixture(MEDIA_DIR)
    # sha column stays in the stage (unit-tested); the query surface drops it
    # because this DuckDB build has no BLOB sha256 for the oracle twin.
    # use_real_codec=False: the fixture payloads are stub-encoded (GRFT
    # header), so the auto-bound PIL path must never engage here
    return (multimodal.decode_media_ds(path, use_real_codec=False)
            .drop_columns(["payload_sha"]))


def _mm_stats(sf_dir: str) -> Any:
    path = multimodal.ensure_media_fixture(MEDIA_DIR)
    return multimodal.media_stats_ds(path, use_real_codec=False)


def _mm_resize(sf_dir: str) -> Any:
    path = multimodal.ensure_media_fixture(MEDIA_DIR)
    return (multimodal.resize_media_ds(path, use_real_codec=False)
            .drop_columns(["payload"]))


def _mm_frames(sf_dir: str) -> Any:
    path = multimodal.ensure_media_fixture(MEDIA_DIR)
    return multimodal.frame_sample_ds(path)


def _mm_embed(sf_dir: str) -> Any:
    # query surface flattens the list<float> to (media_id, dim_idx, value)
    # scalar rows so the driver's value-hash compare is well-defined
    path = multimodal.ensure_media_fixture(MEDIA_DIR)
    return multimodal.embed_flat_ds(path)


def _mm_phash(sf_dir: str) -> Any:
    path = multimodal.ensure_media_fixture(MEDIA_DIR)
    return multimodal.phash_media_ds(path)


def _mm_phash_dups(sf_dir: str) -> Any:
    path = multimodal.ensure_media_fixture(MEDIA_DIR)
    return multimodal.phash_dups_ds(path)


def _mm_scene_cuts(sf_dir: str) -> Any:
    path = multimodal.ensure_media_fixture(MEDIA_DIR)
    return multimodal.scene_cuts_ds(path)


def _mm_silence_segments(sf_dir: str) -> Any:
    path = multimodal.ensure_media_fixture(MEDIA_DIR)
    return multimodal.silence_segments_ds(path)


def _driver_history(*, root: str | None = None,
                    before: int | None = None
                    ) -> dict[str, tuple[int, bool]]:
    """Per-query driver-gate history from the committed CORRECTNESS_r*.json
    files: name -> (last round with a driver row, whether ANY of those rows
    was a real oracle compare rather than the rows-only 'no_oracle' check).

    root: directory holding the CORRECTNESS files (default: this module's
    directory). before: keep only rounds < before, i.e. the history that
    round `before`'s sample was drawn from (default: every round)."""
    import glob
    import json
    import os
    import re

    if root is None:
        root = os.path.dirname(os.path.abspath(__file__))
    hist: dict[str, tuple[int, bool]] = {}
    for path in sorted(glob.glob(os.path.join(root, "CORRECTNESS_r*.json"))):
        m = re.search(r"CORRECTNESS_r(\d+)\.json$", path)
        rnd = int(m.group(1)) if m else 0
        if before is not None and rnd >= before:
            continue
        try:
            with open(path) as f:
                rows = json.load(f)
        except (OSError, json.JSONDecodeError):
            continue
        # tolerate a legacy/partial file shape (a bare list of sampled
        # names): a malformed CORRECTNESS file must degrade the rotation,
        # never make queries() unenumerable
        items = (rows.items() if isinstance(rows, dict)
                 else [(n, None) for n in rows] if isinstance(rows, list)
                 else [])
        for name, row in items:
            if not isinstance(name, str):
                continue
            last, ever = hist.get(name, (0, False))
            compared = isinstance(row, dict) and row.get("err") != "no_oracle"
            hist[name] = (max(last, rnd), ever or compared)
    return hist


def oracle_names() -> frozenset[str]:
    """Names that have an exact DuckDB twin. PURE string assembly — unlike
    oracle_sql() this never generates the media fixture (round-4 advice:
    enumerating queries() must be side-effect-free and must not be able to
    fail on fixture IO), so the mm_* twins are keyed on the path the
    fixture WILL have, not on its existence."""
    import os

    names = set(oracles.kg_oracle_sql("sf0.01"))
    names |= set(oracles.bvm_oracle_sql("sf0.01"))
    names |= set(oracles.doc_rel_oracle_sql())
    names |= set(oracles.mm_oracle_sql(
        os.path.join(MEDIA_DIR, "media.parquet")))
    return frozenset(names)


def _gate_order(base_names: list[str],
                hist: dict[str, tuple[int, bool]],
                with_oracle: frozenset[str]) -> list[str]:
    """Deterministic gate ordering (the driver samples the FIRST 50):

    1. fresh-oracle   — never driver-sampled, exact twin exists
    2. oracle-upgraded — sampled before its twin existed (every driver row
       so far says 'no_oracle') but an exact twin exists NOW: re-enters
       ahead of base order so it finally earns a hash-match row (r4 ask)
    3. fresh-rows-only — never sampled, no twin (rows-only check)
    4. checked        — least-recently-checked first, so once the fresh
       tiers drain (r6) the gate automatically starts REFRESHING stale
       rows oldest-first and every green row stays ≲4 rounds old (r4 ask)

    Ties everywhere keep the stable _base_queries() order, so the sample
    is reproducible from the committed CORRECTNESS files alone."""
    fresh_oracle = [n for n in base_names
                    if n not in hist and n in with_oracle]
    upgraded = [n for n in base_names
                if n in hist and not hist[n][1] and n in with_oracle]
    fresh_rows = [n for n in base_names
                  if n not in hist and n not in with_oracle]
    checked = [n for n in base_names
               if n in hist and (hist[n][1] or n not in with_oracle)]
    checked.sort(key=lambda n: hist[n][0])  # stable → ties keep base order
    return fresh_oracle + upgraded + fresh_rows + checked


def queries() -> dict[str, Callable[[str], Any]]:
    """The driver's correctness gate samples the FIRST 50 entries in dict
    order, so the order IS the gate coverage policy — see _gate_order for
    the tier rules. Rotation arithmetic at 198 entries / 50 per round:
    rounds 1-3 hand-picked 138 distinct samples, round 4+ auto-rotates; the
    round-5 sample is the last 50 never-checked exact-oracle entries, round
    6 drains the remaining fresh + oracle-upgraded + rows-only tail, and
    from round 7 on the gate re-samples the least-recently-checked rows."""
    base = _base_queries()
    order = _gate_order(list(base), _driver_history(), oracle_names())
    return {name: base[name] for name in order}


def _base_queries() -> dict[str, Callable[[str], Any]]:
    return {
        # --- KG construction (the reference's capability surface) ---------
        "kg_structural": lambda sf: kg.structural_ds(sf, include_quarantine=False),
        "kg_conv_triples": kg.conv_triples_ds,
        "kg_mentions": kg.mention_triples_ds,
        "kg_entities": lambda sf: kg.entity_triples_ds(sf, include_quarantine=False),
        "kg_quarantine": kg.quarantine_ds,
        "kg_location_nodes": kg.location_nodes_ds,
        "kg_locations": kg.locations_ds,
        "kg_chap_locations": kg.chap_locations_ds,
        "kg_creator_events": kg.creator_events_ds,
        "kg_role_pivot": kg.role_pivot_ds,
        "conv_flatten": kg.conv_flatten_ds,
        "kg_cooccurrence": kg.cooccurrence_ds,
        "sft_examples": kg.sft_examples_ds,
        "kg_validate": lambda sf: validate_transcripts(
            readers.read_transcripts(sf), conv_buckets(sf)),
        "kg_triples": kg.kg_triples_ds,
        "kg_ntriples": kg.ntriples_lines_ds,
        "kg_nquads": kg.nquads_lines_ds,
        "kg_turtle": kg.turtle_lines_ds,
        "kg_incremental": kg.kg_incremental_ds,
        "kg_forget": kg.kg_forget_ds,                      # GDPR retraction
        "kg_adjacency": kg.kg_adjacency_ds,
        "kg_degrees": kg.kg_degrees_ds,
        "kg_degree_histogram": kg.kg_degree_histogram_ds,
        "kg_pagerank": kg.kg_pagerank_ds,
        "kg_kcore": kg.kg_kcore_ds,
        "kg_hits": kg.kg_hits_ds,
        "kg_neighbor_sample": kg.kg_neighbor_sample_ds,
        "kg_pred_paths": kg.kg_pred_paths_ds,
        "kg_triangles": kg.kg_triangles_ds,
        "kg_clustering_coef": kg.kg_clustering_coef_ds,
        "kg_assortativity": kg.kg_assortativity_ds,
        "kg_adamic_adar": kg.kg_adamic_adar_ds,
        "kg_walks": kg.kg_walks_ds,
        "kg_walk_pairs": kg.kg_walk_pairs_ds,
        "kg_alias_pairs": kg.kg_alias_pairs_ds,
        "kg_alias_clusters": kg.kg_alias_clusters_ds,
        "conv_clean_text": kg.conv_clean_text_ds,
        "sft_dpo_pairs": kg.sft_dpo_pairs_ds,
        "conv_speaker_stats": kg.conv_speaker_stats_ds,
        "conv_topic_shift": kg.conv_topic_shift_ds,
        "conv_context_budget": kg.conv_context_budget_ds,
        "conv_dialog_acts": kg.conv_dialog_acts_ds,
        "conv_pii_spans": kg.conv_pii_spans_ds,
        "conv_pii_redact": kg.conv_pii_redact_ds,
        "kg_khop": kg.kg_khop_ds,
        "kg_ancestors": kg.kg_ancestors_ds,
        "kg_negative_samples": kg.kg_negative_samples_ds,
        "kg_entity_lifespan": kg.kg_entity_lifespan_ds,
        "kg_entity_cards": kg.kg_entity_cards_ds,
        "kg_entity_growth": kg.kg_entity_growth_ds,
        "kg_components": kg.kg_components_ds,
        "kg_pmi": kg.kg_pmi_ds,
        "kg_pair_formation": kg.kg_pair_formation_ds,
        "conv_summary": kg.conv_summary_ds,
        "conv_tool_stats": kg.conv_tool_stats_ds,
        "conv_turn_gaps": kg.conv_turn_gaps_ds,
        "conv_role_transitions": kg.conv_role_transitions_ds,
        "conv_tool_chains": kg.conv_tool_chains_ds,        # tool bigrams
        "conv_tool_latency": kg.conv_tool_latency_ds,      # exec-gap proxy
        "conv_tool_retries": kg.conv_tool_retries_ds,
        "conv_marker_profile": kg.conv_marker_profile_ds,
        "kg_neighbors_topk": kg.kg_neighbors_topk_ds,
        "kg_neighbor_jaccard": kg.kg_neighbor_jaccard_ds,
        "kg_pred_cardinality": kg.kg_pred_cardinality_ds,
        "kg_inverse_preds": kg.kg_inverse_preds_ds,
        "kg_dangling_refs": kg.kg_dangling_refs_ds,
        "kg_pred_stats": kg.kg_pred_stats_ds,
        "kg_image_numbers": kg.image_numbers_ds,
        "kg_reproductions": kg.reproduction_triples_ds,
        # --- BVM reconciliation (migrate-bvm.py:189-356) --------------------
        "bvm_manifests": bvm.bvm_manifests_ds,
        "bvm_quarantine": bvm.bvm_quarantine_ds,
        # --- training-data ops: dedup --------------------------------------
        "dedup_exact": docs.dedup_exact_ds,
        "dedup_charset_pairs": docs.charset_pairs_ds,
        "dedup_ngram_pairs": docs.ngram_pairs_ds,
        "dedup_embed_pairs": docs.embed_pairs_ds,
        "dedup_minhash_pairs": docs.minhash_pairs_ds,      # oracle (md5 MinHash)
        "dedup_incremental": docs.dedup_incremental_ds,    # O(delta) ingest
        "dedup_source_matrix": docs.dedup_source_matrix_ds,
        "dedup_prefix_pairs": docs.prefix_pairs_ds,
        "dedup_minhash_eval": docs.dedup_minhash_eval_ds,  # recall audit
        "dedup_cluster_stats": docs.dedup_cluster_stats_ds,
        "minhash_signatures": docs.minhash_signatures_ds,  # oracle (md5 MinHash)
        "dedup_simhash": docs.simhash_ds,                  # oracle (md5 SimHash)
        "dedup_simhash_pairs": docs.simhash_pairs_ds,      # banded Hamming ≤ 3
        # --- training-data ops: text analysis -------------------------------
        "text_stats": docs.text_stats_ds,
        "text_repetition": docs.text_repetition_ds,
        "text_gopher_quality": docs.text_gopher_quality_ds,
        "docs_mixture_weights": docs.docs_mixture_weights_ds,
        "text_collocations": docs.text_collocations_ds,
        "text_winnowing": docs.text_winnowing_ds,
        "text_winnow_pairs": docs.text_winnow_pairs_ds,
        "dedup_containment_pairs": docs.dedup_containment_pairs_ds,
        "dedup_edit_pairs": docs.dedup_edit_pairs_ds,      # PassJoin + banded DP
        "dedup_edit_clusters": lambda sf: docs.dedup_clusters_ds(
            sf, pair_source="edit"),
        "sample_bootstrap": docs.sample_bootstrap_ds,
        "sample_coreset": docs.sample_coreset_ds,          # k-center greedy
        "docs_source_divergence": docs.docs_source_divergence_ds,
        "docs_k_anonymity": docs.docs_k_anonymity_ds,
        "docs_dp_counts": docs.docs_dp_counts_ds,
        "text_unigram_logprob": docs.unigram_logprob_ds,
        "text_dup_spans": docs.dup_spans_ds,
        "text_contamination": docs.contamination_ds,
        "text_bloom_contamination": docs.bloom_contamination_ds,
        "text_vocab": docs.text_vocab_ds,
        "text_entropy": docs.text_entropy_ds,
        "text_bigram_lm": docs.bigram_lm_ds,
        "text_bigram_score": docs.bigram_score_ds,
        "sample_weighted": docs.sample_weighted_ds,
        "split_assign": docs.split_assign_ds,
        "split_leakage": docs.split_leakage_ds,
        "text_langid": docs.langid_ds,
        "text_langid_eval": docs.langid_eval_ds,
        "text_gram_novelty": docs.text_gram_novelty_ds,
        "text_guess_lt": docs.guess_lt_ds,
        "doc_fingerprint": lambda sf: docs.fingerprint_ds(sf).drop_columns(["sketch"]),
        # --- training-data ops: corpus curation -----------------------------
        "text_clean": docs.text_clean_ds,
        "doc_chunks": docs.doc_chunks_ds,
        "sample_stratified": docs.sample_stratified_ds,
        "sample_group_topk": docs.sample_group_topk_ds,
        "pack_sequences": docs.pack_sequences_ds,
        "text_quality_bins": docs.quality_bins_ds,
        "docs_curriculum_order": docs.docs_curriculum_order_ds,
        "docs_datasheet": docs.docs_datasheet_ds,
        "text_para_dedup": docs.para_dedup_ds,
        "text_heavy_hitters": docs.heavy_hitters_ds,
        "docs_profile": docs.docs_profile_ds,
        "sample_token_budget": docs.sample_token_budget_ds,
        "dedup_clusters": docs.dedup_clusters_ds,
        "dedup_simhash_clusters": lambda sf: docs.dedup_clusters_ds(
            sf, pair_source="simhash"),
        "dedup_embed_clusters": lambda sf: docs.dedup_clusters_ds(
            sf, pair_source="embed").map_batches(
                lambda t: t.select(["doc_id", "component"]).rename_columns(
                    ["vec_id", "component"]),
                batch_format="pyarrow"),
        "dedup_survivors": docs.dedup_survivors_ds,
        "docs_dedup_gain": docs.docs_dedup_gain_ds,        # token-weighted
        "docs_curated": docs.docs_curated_ds,
        # drop the writer's partition column: bucket count scales with the
        # cluster, and driver results must be cluster-size independent
        "docs_curated_corpus": lambda sf: docs.curated_corpus_ds(sf)
            .drop_columns(["part"]),
        "text_tfidf": docs.tfidf_top_term_ds,
        "text_postings": docs.text_postings_ds,
        "text_bm25": docs.bm25_topk_ds,
        "text_hash_features": docs.hash_features_ds,
        "text_bpe_tokens": docs.bpe_token_stats_ds,
        "text_bpe_merges": docs.bpe_merge_candidates_ds,
        "text_distinct_sketch": docs.distinct_sketch_ds,
        # --- similarity search ----------------------------------------------
        "embed_quantize": docs.embed_quantize_ds,
        "embed_quantize_eval": docs.embed_quantize_eval_ds,  # recall@k audit
        "embed_kmeans": docs.embed_kmeans_ds,
        "embed_pca_scatter": docs.embed_pca_scatter_ds,
        "embed_centroid_sim": docs.embed_centroid_sim_ds,
        "embed_pca_project": docs.embed_pca_project_ds,  # rows-only (eigh)
        "knn_brute": docs.knn_brute_ds,
        "knn_filtered": docs.knn_filtered_ds,              # label pre-filter
        "knn_graph": docs.knn_graph_ds,
        "embed_outliers": docs.embed_outliers_ds,
        "embed_label_prop": docs.embed_label_prop_ds,
        "knn_graph_ivf": lambda sf: docs.knn_graph_ds(     # rows-only (approx)
            sf, n_probe=docs.KNN_GRAPH_N_PROBE),
        "knn_lsh": docs.knn_lsh_ds,                        # rows-only (approx)
        "knn_ivf": docs.knn_ivf_ds,                        # rows-only (approx)
        "embed_ingest": docs.embed_ingest_ds,              # oracle (exact brute)
        # --- relational surface ---------------------------------------------
        "rel_pricing_summary": relational.pricing_summary_ds,
        "rel_top_customers": relational.top_customers_ds,
        "rel_events_window": relational.events_window_ds,
        "rel_events_late": relational.events_late_ds,      # watermark panes
        "rel_events_window_users": relational.events_window_users_ds,
        "rel_events_rolling": relational.events_rolling_ds,
        "rel_revenue_rollup": relational.revenue_rollup_ds,
        "rel_revenue_cube": relational.revenue_cube_ds,
        "rel_events_lead_lag": relational.events_lead_lag_ds,
        "rel_events_gap_quantiles": relational.events_gap_quantiles_ds,
        "rel_events_intervals": relational.events_intervals_ds,
        "rel_bloom_semi_join": relational.bloom_semi_join_ds,
        "rel_orders_above_avg": relational.orders_above_avg_ds,
        "rel_events_sliding": relational.events_sliding_ds,
        "rel_events_funnel": relational.events_funnel_ds,
        "rel_events_retention": relational.events_retention_ds,
        "rel_events_zscore": relational.events_zscore_ds,
        "rel_basket_pairs": relational.basket_pairs_ds,
        "rel_basket_triples": relational.basket_triples_ds,  # A-Priori rd 2
        "rel_events_wau": relational.events_wau_ds,
        "text_compress_ratio": docs.compress_ratio_ds,  # rows-only: no SQL DEFLATE; exact pytest
        "docs_jsonl_roundtrip": docs.jsonl_roundtrip_ds,
        "rel_events_sessions": relational.events_sessions_ds,
        "rel_events_asof": relational.events_asof_ds,
        "rel_events_range": relational.events_range_join_ds,
        "rel_orders_by_nation": relational.orders_by_nation_ds,
        "rel_lineitem_supplier": relational.lineitem_supplier_ds,
        "rel_customers_no_orders": relational.customers_no_orders_ds,
        "rel_order_ranks": relational.order_ranks_ds,
        "rel_order_percentiles": relational.order_percentiles_ds,
        "rel_quantity_median": relational.quantity_median_ds,
        "rel_quantity_quartiles": relational.quantity_quartiles_ds,
        "rel_quantity_mode": relational.quantity_mode_ds,
        "rel_region_part_revenue": relational.region_part_revenue_ds,
        # --- multimodal plumbing (stubbed codec) ----------------------------
        "mm_decode": _mm_decode,                           # oracle (byte math)
        "mm_media_stats": _mm_stats,                       # oracle (byte math)
        "mm_resize": _mm_resize,                           # oracle (byte math)
        "mm_frames": _mm_frames,                           # oracle (byte math)
        "mm_embed": _mm_embed,                             # oracle (md5-of-hex)
        "mm_phash": _mm_phash,                             # oracle (byte math)
        "mm_phash_dups": _mm_phash_dups,                   # oracle (byte math)
        "mm_scene_cuts": _mm_scene_cuts,                   # oracle (byte math)
        "mm_silence_segments": _mm_silence_segments,       # oracle (byte math)
    }


def oracle_sql() -> dict[str, str]:
    out = oracles.kg_oracle_sql("sf0.01")
    out.update(oracles.bvm_oracle_sql("sf0.01"))
    out.update(oracles.doc_rel_oracle_sql())
    out.update(oracles.mm_oracle_sql(
        multimodal.ensure_media_fixture(MEDIA_DIR)))
    return out
