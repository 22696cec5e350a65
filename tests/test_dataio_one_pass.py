"""EMB-TSV read in one pass: the same sets and the same errors as the
per-line parser, and an exact save/load round trip."""

import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langrec import dataio
from langrec.dataio import EmbeddingSet, ParseError, load_embeddings, save_embeddings


def per_line_outcome(path):
    """The per-line parser's verdict: ("set", EmbeddingSet) or ("error", message)."""
    try:
        header_dim, body = dataio._read_emb_tsv(path)
        return "set", dataio._parse_rows_one_by_one(path, body, header_dim)
    except ParseError as exc:
        return "error", str(exc)


def load_outcome(path):
    try:
        return "set", load_embeddings(path)
    except ParseError as exc:
        return "error", str(exc)


def same_bits(a: EmbeddingSet, b: EmbeddingSet) -> bool:
    """Equal labels and bit-identical vectors (so -0.0 differs from 0.0)."""
    return (
        a.sample_ids == b.sample_ids
        and a.languages == b.languages
        and a.datasets == b.datasets
        and a.vectors.shape == b.vectors.shape
        and bool(np.all(a.vectors.view(np.int64) == b.vectors.view(np.int64)))
    )


def assert_same_outcome(path):
    got, want = load_outcome(path), per_line_outcome(path)
    assert got[0] == want[0], (got, want)
    if got[0] == "set":
        assert same_bits(got[1], want[1])
    else:
        assert got[1] == want[1]
    return got


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.797e308, -1.797e308,
           np.finfo(np.float64).max, -np.finfo(np.float64).max, 1.0 / 3.0]
finite = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    dims=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    data=st.data(),
)
def test_round_trip_bit_exact(tmp_path_factory, dims, data):
    n, dim = dims
    values = data.draw(st.lists(finite, min_size=n * dim, max_size=n * dim))
    es = EmbeddingSet(
        [f"s{i}" for i in range(n)],
        [f"l{i % 2}" for i in range(n)],
        ["d0"] * n,
        np.array(values, dtype=np.float64).reshape(n, dim),
    )
    path = tmp_path_factory.mktemp("rt") / "e.tsv"
    save_embeddings(es, path)
    header_dim, body = dataio._read_emb_tsv(path)
    fast = dataio._parse_rows_at_once(body, header_dim)
    assert fast is not None, "a saved file must not need the per-line parser"
    assert same_bits(fast, es)
    assert same_bits(load_embeddings(path), es)


# file text -> the line the error names, or the vectors of an accepted file
MALFORMED = {
    "three-fields": ("#dim=2\na\tx\td\t1 2\nb\tx\t1 2\n", 3),
    "five-fields": ("#dim=2\na\tx\td\t1 2\nb\tx\td\te\t1 2\n", 3),
    "nan": ("#dim=2\na\tx\td\t1 2\nb\tx\td\tnan 2\n", 3),
    "inf": ("#dim=2\na\tx\td\t1 2\nb\tx\td\t2 -inf\n", 3),
    "overflow-to-inf": ("#dim=1\na\tx\td\t1e400\n", 2),
    "header-says-more": ("#dim=3\na\tx\td\t1 2\n", 2),
    "header-says-fewer": ("#dim=1\na\tx\td\t1 2\n", 2),
    "later-row-short": ("#dim=2\na\tx\td\t1 2\nb\tx\td\t1\n", 3),
    "blank-float-field": ("#dim=2\na\tx\td\t1 2\nb\tx\td\t \n", 3),
    "hash-in-field": ("#dim=2\na\tx\td\t1 #2\n", 2),
    "trailing-comment": ("#dim=2\na\tx\td\t1 2 #3\n", 2),
    "duplicate-id": ("#dim=1\na\tx\td\t1\na\ty\td\t2\n", 3),
    "blank-lines-keep-numbering": ("#dim=1\n\na\tx\td\t1\n\n  \nb\tx\td\tz\n", 6),
    "earlier-nan-before-later-shape": (
        "#dim=2\na\tx\td\t1 2\nb\tx\td\tnan 2\nc\tx\td\t1 2 3\n", 3
    ),
    "earlier-shape-before-later-word": (
        "#dim=2\na\tx\td\t1 2\nb\tx\td\t1\nc\tx\td\tw 2\n", 3
    ),
    "earlier-duplicate-before-later-fields": (
        "#dim=1\na\tx\td\t1\na\tx\td\t2\nb\tx\t3\n", 3
    ),
    "underscore-accepted": ("#dim=2\na\tx\td\t1_0 2\n", [[10.0, 2.0]]),
    "no-break-space-accepted": ("#dim=2\na\tx\td\t1\u00a02\n", [[1.0, 2.0]]),
    "arabic-digit-accepted": ("#dim=2\na\tx\td\t\u0661 2\n", [[1.0, 2.0]]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_file_gets_the_per_line_verdict(tmp_path, case):
    text, expected = MALFORMED[case]
    path = tmp_path / "e.tsv"
    path.write_text(text, encoding="utf-8")
    kind, result = assert_same_outcome(path)
    if isinstance(expected, int):
        assert kind == "error" and re.search(rf"at line {expected}\b", result), result
    else:
        assert kind == "set" and result.vectors.tolist() == expected


TOKENS = ["0", "1.5", "-2", "1e3", "1_0", "nan", "inf", "#", "x", "", "\u0661", "1e400", "5e-324"]
SEPARATORS = [" ", "  ", "\u00a0", "\u3000", "\t", " \t "]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    header_dim=st.integers(1, 3),
    rows=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c", "d", "e"]),
            st.lists(st.sampled_from(TOKENS), max_size=4),
            st.lists(st.sampled_from(SEPARATORS), min_size=4, max_size=4),
            st.booleans(),
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_one_pass_agrees_with_per_line_parser(tmp_path_factory, header_dim, rows):
    lines = [f"#dim={header_dim}"]
    for sid, tokens, seps, blank_before in rows:
        if blank_before:
            lines.append("")
        floats = "".join(t + seps[i % len(seps)] for i, t in enumerate(tokens)).rstrip(" ")
        lines.append(f"{sid}\tlang\tset\t{floats}")
    path = tmp_path_factory.mktemp("diff") / "e.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert_same_outcome(path)


def test_bad_label_rejected_before_the_file_is_touched(tmp_path):
    path = tmp_path / "e.tsv"
    path.write_text("keep me", encoding="utf-8")
    es = EmbeddingSet(["a", "b"], ["x", "y\tz"], ["d", "d"], np.zeros((2, 1)))
    with pytest.raises(ValueError, match="tab or newline"):
        save_embeddings(es, path)
    assert path.read_text(encoding="utf-8") == "keep me"


def test_every_line_break_in_a_label_rejected(tmp_path):
    # load_embeddings splits the file at every break str.splitlines knows,
    # not only at "\n", so a label holding any of them would not load back.
    breaks = [c for c in map(chr, range(sys.maxunicode + 1)) if len(f"a{c}b".splitlines()) > 1]
    assert {"\n", "\r", "\x0b", "\x85", "\u2028"} <= set(breaks)
    path = tmp_path / "e.tsv"
    for char in breaks:
        for column in range(3):
            labels = [["s0", "l0", "d0"], ["s1", "l1", "d0"]]
            labels[1][column] = f"a{char}b"
            es = EmbeddingSet(*zip(*labels), np.zeros((2, 1)))
            with pytest.raises(ValueError, match="tab or newline"):
                save_embeddings(es, path)
            assert not path.exists()
