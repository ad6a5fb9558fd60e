"""N-Triples serializer: escaping goldens (Nquads.php:52-124 semantics),
line assembly, and the .nt text sink with manifest resume."""

import glob
import os

import pyarrow as pa

from rkts_migration_ray.functions import ntriples
from rkts_migration_ray.pipelines import kg, materialize
from rkts_migration_ray.state import manifest as mf


def test_escape_goldens():
    # branch-for-branch goldens against escapedChar (Nquads.php:97-124)
    assert ntriples.escape_ntriples("plain") == "plain"
    assert ntriples.escape_ntriples('say "hi"') == 'say \\"hi\\"'
    assert ntriples.escape_ntriples("a\\b") == "a\\\\b"
    assert ntriples.escape_ntriples("a\tb\nc\rd") == "a\\tb\\nc\\rd"
    assert ntriples.escape_ntriples("\x00\x08") == "\\u0000\\u0008"
    assert ntriples.escape_ntriples("\x0b\x0c") == "\\u000B\\u000C"
    assert ntriples.escape_ntriples("\x0e\x1f") == "\\u000E\\u001F"
    # >= 0x5D and non-ASCII pass through raw (the else-'all' branch)
    assert ntriples.escape_ntriples("ཀ་ü€'}~") == "ཀ་ü€'}~"


def test_escape_array_matches_scalar():
    vals = ["plain", 'q"uote', "back\\slash", "tab\there", "mixed\n\"\\\t",
            "ཀ་ü", "", "\x01"]
    got = ntriples.escape_array(pa.array(vals, pa.string())).to_pylist()
    assert got == [ntriples.escape_ntriples(v) for v in vals]


def test_lines_table_assembly():
    t = pa.table({
        "subj": ["U:c1/00000", "U:c1/00000", "U:c1/00000", "_:b0"],
        "pred": ["rdf:type", "tr:role", "tr:atTimeUs", "rdfs:label"],
        "obj": ["tr:Turn", "user", "123", 'v"al'],
        "obj_lang": ["", "", "", "en"],
        "obj_dt": ["", "", "xsd:long", ""],
        "graph": ["G:c1"] * 4,
    })
    lines = ntriples.lines_table(t)["line"].to_pylist()
    assert lines[0] == "<U:c1/00000> <rdf:type> <tr:Turn> ."
    assert lines[1] == '<U:c1/00000> <tr:role> "user" .'
    assert lines[2] == '<U:c1/00000> <tr:atTimeUs> "123"^^<xsd:long> .'
    # blank-node subject serializes bare; literal escaped + lang tag
    assert lines[3] == '_:b0 <rdfs:label> "v\\"al"@en .'
    quads = ntriples.lines_table(t, with_graph=True)["line"].to_pylist()
    assert quads[0] == "<U:c1/00000> <rdf:type> <tr:Turn> <G:c1> ."


def test_nt_sink_roundtrip_and_resume(sf_tag, tmp_path):
    out = str(tmp_path / "nt")
    m1 = materialize.write_graph(kg.kg_triples_ds(sf_tag), out, n_buckets=8,
                                 resume=False, fmt="nt")
    total = int(m1["rows"].sum())
    assert total > 0
    # line count across committed .nt files == manifest row total
    n_lines = 0
    for meta in mf.committed_buckets(out).values():
        assert meta["files"] == [os.path.join(f"bucket={meta['bucket']:05d}",
                                              "part.nt")]
        for f in meta["files"]:
            with open(os.path.join(out, f), "rb") as fh:
                n_lines += fh.read().count(b"\n")
    assert n_lines == total
    # triples-count parity with the Parquet twin
    assert total == kg.kg_triples_ds(sf_tag).count()
    # every line ends with ' .' and starts with '<'
    some = open(glob.glob(out + "/bucket=*/part.nt")[0]).read().splitlines()
    assert all(s.endswith(" .") and s.startswith("<") for s in some)
    # resume: truncate one bucket file -> bucket rewritten, totals stable
    with open(out + "/bucket=00003/part.nt", "r+b") as fh:
        fh.truncate(10)
    assert 3 not in mf.committed_buckets(out)
    m2 = materialize.write_graph(kg.kg_triples_ds(sf_tag), out, n_buckets=8,
                                 resume=True, fmt="nt")
    assert int(m2["rows"].sum()) == total
    assert dict(zip(m1["bucket"], m1["checksum"])) == \
        dict(zip(m2["bucket"], m2["checksum"]))
    assert 3 not in set(m2[m2["skipped"]]["bucket"])
