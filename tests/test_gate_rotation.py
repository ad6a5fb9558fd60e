"""Driver-gate rotation policy (__ray_entry__._gate_order and friends).

The driver samples the FIRST 50 entries of queries() dict order, so the
ordering function IS the coverage policy: these tests pin the tier rules
(fresh-oracle → oracle-upgraded → fresh-rows-only → least-recently-checked)
against synthetic histories, plus the side-effect-freedom of enumeration
(round-4 advice: queries() used to call oracle_sql(), which generated the
media fixture on import of the query list).

The integration tests replay the committed CORRECTNESS_r*.json rounds:
round N's sample is the first 50 of the order computed from rounds < N
(_driver_history(before=N)), so each test is pinned to the round it
describes and committing a later round's file cannot change its answer.
Rounds 1-3 were hand-picked and are not replayed. The replay uses today's
query list and oracle set, which is what round 4 on were drawn from.
"""

import glob
import json
import os
import re
import shutil

import __ray_entry__ as e

ROOT = os.path.dirname(os.path.abspath(e.__file__))


def _order(base, hist, orc):
    return e._gate_order(base, hist, frozenset(orc))


def test_fresh_oracle_tier_leads_in_base_order():
    base = ["a", "b", "c", "d"]
    hist = {"b": (2, True)}
    assert _order(base, hist, {"a", "b", "c", "d"}) == ["a", "c", "d", "b"]


def test_oracle_upgraded_reenters_ahead_of_checked():
    # u was sampled round 1 but only ever as a rows-only 'no_oracle' check;
    # now that it has an exact twin it outranks every already-compared name
    # (and fresh-rows-only names), but not fresh-oracle names.
    base = ["fresh_o", "u", "fresh_r", "old"]
    hist = {"u": (1, False), "old": (3, True)}
    assert _order(base, hist, {"fresh_o", "u", "old"}) == \
        ["fresh_o", "u", "fresh_r", "old"]


def test_upgraded_requires_an_oracle_now():
    # rows-only history + still no oracle → plain checked tier
    base = ["x", "y"]
    hist = {"x": (1, False)}
    assert _order(base, hist, set()) == ["y", "x"]


def test_checked_tier_is_least_recently_checked_first():
    base = ["a", "b", "c", "d"]
    hist = {"a": (4, True), "b": (1, True), "c": (2, True), "d": (1, True)}
    # no fresh names left (the r7+ regime): oldest round first, ties in
    # base order → b, d (round 1), c (round 2), a (round 4)
    assert _order(base, hist, set(base)) == ["b", "d", "c", "a"]


def _rounds(root):
    """round number -> path of that round's CORRECTNESS file under root."""
    out = {}
    for path in glob.glob(os.path.join(root, "CORRECTNESS_r*.json")):
        m = re.search(r"CORRECTNESS_r(\d+)\.json$", path)
        if m:
            out[int(m.group(1))] = path
    return out


def _sample(root, rnd):
    """The 50 names the gate order puts first given the rounds < rnd."""
    hist = e._driver_history(root=root, before=rnd)
    return e._gate_order(list(e._base_queries()), hist, e.oracle_names())[:50]


def test_round5_sample_is_50_fresh_oracle_rows(root=None):
    """Integration against the committed CORRECTNESS files: the round-5
    driver sample (drawn from rounds 1-4) must be 50 never-checked entries
    that ALL have exact twins."""
    names = _sample(root, 5)
    hist = e._driver_history(root=root, before=5)
    orc = e.oracle_names()
    assert len(names) == 50
    assert all(n not in hist for n in names)
    assert all(n in orc for n in names)


def test_upgraded_entries_queue_behind_fresh_oracle(root=None):
    """mm_decode / mm_media_stats were driver-sampled in round 1 before
    their byte-math oracles existed; in the round-6 order (drawn from
    rounds 1-5) they must sit between the fresh tiers and the checked tail
    so round 6 finally hash-checks them."""
    hist = e._driver_history(root=root, before=6)
    orc = e.oracle_names()
    names = e._gate_order(list(e._base_queries()), hist, orc)
    fresh_oracle = [n for n in names if n not in hist and n in orc]
    for n in ("mm_decode", "mm_media_stats"):
        assert hist[n][1] is False  # only rows-only rows so far
        assert n in orc
        # after every fresh-oracle name, before every properly-compared name
        assert names.index(n) > max(names.index(f) for f in fresh_oracle)
        compared = [m for m in names if m in hist and hist[m][1]]
        assert names.index(n) < min(names.index(m) for m in compared)


def test_committed_rounds_replay_the_gate_order(root=None):
    """Every auto-rotated round (4 on) sampled exactly the first 50 of the
    order computed from the rounds before it, in that order."""
    rounds = _rounds(root or ROOT)
    assert {4, 5} <= set(rounds)
    for rnd in sorted(r for r in rounds if r >= 4):
        with open(rounds[rnd]) as f:
            assert list(json.load(f)) == _sample(root, rnd), rnd


def test_replay_survives_a_new_round(tmp_path):
    """Committing the next round's file (built as the driver would, from
    the first 50 of the current order) keeps every replayed round intact."""
    for path in _rounds(ROOT).values():
        shutil.copy(path, tmp_path)
    root = str(tmp_path)
    nxt = max(_rounds(root)) + 1
    orc = e.oracle_names()
    rows = {n: {"err": None if n in orc else "no_oracle"}
            for n in _sample(root, nxt)}
    (tmp_path / f"CORRECTNESS_r{nxt:02d}.json").write_text(json.dumps(rows))
    assert nxt in _rounds(root)
    test_committed_rounds_replay_the_gate_order(root)
    test_round5_sample_is_50_fresh_oracle_rows(root)
    test_upgraded_entries_queue_behind_fresh_oracle(root)


def test_enumeration_is_side_effect_free(monkeypatch):
    """queries() / oracle_names() must not generate the media fixture (or
    any fixture): break the generator and enumeration must still work."""
    from rkts_migration_ray.stages import multimodal

    def boom(*a, **k):
        raise AssertionError("fixture generation ran during enumeration")

    monkeypatch.setattr(multimodal, "ensure_media_fixture", boom)
    monkeypatch.setattr(e.fixtures, "ensure_fixture", boom)
    assert len(e.oracle_names()) >= 190
    assert len(e.queries()) >= 198


def test_queries_is_a_permutation_of_base():
    base = e._base_queries()
    out = e.queries()
    assert set(out) == set(base) and len(out) == len(base)
    for name, fn in out.items():
        assert callable(fn)
