import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langrec.dataio import (
    EmbeddingSet,
    ParseError,
    balance_weights,
    generate_trials,
    group_rows,
    load_embeddings,
    per_language_means,
    save_embeddings,
    trial_index,
)


def assert_same_set(a, b):
    """a and b hold the same rows: equal ids, languages, datasets and
    vectors. EmbeddingSet itself compares by identity."""
    assert (a.sample_ids, a.languages, a.datasets) == (b.sample_ids, b.languages, b.datasets)
    assert a.vectors.shape == b.vectors.shape
    assert np.array_equal(a.vectors, b.vectors)


def make_set(rows):
    """rows: list of (sample_id, language, dataset, vector)."""
    ids, langs, sets, vecs = zip(*rows)
    return EmbeddingSet(ids, langs, sets, np.array(vecs, dtype=float))


class TestEmbeddingSet:
    def test_basic_invariants(self):
        es = make_set([("a", "x", "d", [1.0, 2.0]), ("b", "y", "d", [3.0, 4.0])])
        assert es.dim == 2 and len(es) == 2
        assert es.language_inventory() == ("x", "y")

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_set([("a", "x", "d", [1.0]), ("a", "y", "d", [2.0])])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            make_set([("a", "x", "d", [np.nan])])

    def test_vectors_read_only(self):
        es = make_set([("a", "x", "d", [1.0, 2.0])])
        with pytest.raises(ValueError):
            es.vectors[0, 0] = 9.0

    @staticmethod
    def labelled(vectors):
        n = len(vectors)
        return EmbeddingSet([f"s{i}" for i in range(n)], ["x"] * n, ["d"] * n, vectors)

    def test_owned_c_ordered_float64_array_is_adopted(self):
        X = np.arange(12.0).reshape(3, 4).copy()
        es = self.labelled(X)
        assert np.shares_memory(es.vectors, X)
        assert not X.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            X[0, 0] = 9.0

    @pytest.mark.parametrize(
        "make",
        [
            lambda X: X[1:],
            lambda X: X.astype(np.float32),
            lambda X: np.asfortranarray(X),
            lambda X: X.tolist(),
        ],
        ids=["view", "float32", "fortran", "list"],
    )
    def test_anything_else_is_copied_to_a_c_ordered_array(self, make):
        X = np.arange(12.0).reshape(4, 3).copy()
        given = make(X)
        es = self.labelled(given)
        assert es.vectors.dtype == np.float64 and es.vectors.flags.c_contiguous
        assert not np.shares_memory(es.vectors, X)
        assert np.array_equal(es.vectors, np.asarray(given, dtype=np.float64))
        assert X.flags.writeable
        if isinstance(given, np.ndarray) and given.base is None:
            assert given.flags.writeable

    def test_writing_through_the_base_of_a_view_leaves_the_set_alone(self):
        base = np.arange(12.0).reshape(4, 3)
        es = self.labelled(base[1:3])
        base[...] = -1.0
        assert np.array_equal(es.vectors, np.arange(3.0, 9.0).reshape(2, 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [(0, 0), (2, 1), (4, 2)])
    def test_a_non_finite_value_anywhere_is_rejected(self, bad, at):
        X = np.arange(15.0).reshape(5, 3) - 7.0
        X[at] = bad
        with pytest.raises(ValueError, match="finite"):
            self.labelled(X)
        assert X.flags.writeable


class TestEmbTsv:
    def test_two_rows(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("#dim=3\na\tx\td\t1 2 3\nb\ty\td\t4 5 6\n")
        es = load_embeddings(p)
        assert len(es) == 2 and es.dim == 3
        assert np.allclose(es.vectors[1], [4, 5, 6])

    def test_dimension_mismatch_names_line(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("#dim=3\na\tx\td\t1 2 3\nb\ty\td\t4 5 6 7\n")
        with pytest.raises(ParseError, match="dimension mismatch at line 3"):
            load_embeddings(p)

    def test_header_only_is_empty_set(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("#dim=3\n")
        with pytest.raises(ParseError, match="empty set"):
            load_embeddings(p)

    def test_non_numeric_names_line(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("#dim=2\na\tx\td\t1 oops\n")
        with pytest.raises(ParseError, match="line 2"):
            load_embeddings(p)

    def test_duplicate_id_names_line(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("#dim=1\na\tx\td\t1\na\tx\td\t2\n")
        with pytest.raises(ParseError, match="line 3"):
            load_embeddings(p)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        es = EmbeddingSet(
            [f"s{i}" for i in range(20)],
            ["lang_a" if i % 2 else "lang_b" for i in range(20)],
            ["d0"] * 20,
            rng.standard_normal((20, 5)) * np.pi,
        )
        p = tmp_path / "rt.tsv"
        save_embeddings(es, p)
        loaded = load_embeddings(p)
        assert_same_set(loaded, es)  # bit-exact vectors via 17 significant digits

    def test_unicode_labels_preserved(self, tmp_path):
        es = make_set([("a", "español", "dät", [1.5])])
        p = tmp_path / "u.tsv"
        save_embeddings(es, p)
        loaded = load_embeddings(p)
        assert loaded.languages == ("español",)
        assert loaded.datasets == ("dät",)

    def test_save_empty_rejected(self, tmp_path):
        es = EmbeddingSet([], [], [], np.empty((0, 3)))
        with pytest.raises(ValueError, match="empty"):
            save_embeddings(es, tmp_path / "x.tsv")


class TestGenerateTrials:
    def test_counts_and_targets(self):
        es = make_set(
            [("1", "a", "d", [0.0]), ("2", "a", "d", [1.0]), ("3", "b", "d", [2.0])]
        )
        ts = generate_trials(es, ["a", "b"])
        assert len(ts) == 6
        assert ts.is_target.sum() == 3

    def test_out_of_set_only_nontargets(self):
        es = make_set([("1", "c", "d", [0.0])])
        ts = generate_trials(es, ["a", "b"])
        assert len(ts) == 2 and ts.is_target.sum() == 0

    def test_single_detector_single_target(self):
        es = make_set([("1", "a", "d", [0.0])])
        ts = generate_trials(es, ["a"])
        assert len(ts) == 1 and ts.is_target.sum() == 1

    def test_trial_count_identity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(1, 30))
            langs = [f"l{rng.integers(0, 5)}" for _ in range(n)]
            es = EmbeddingSet(
                [f"s{i}" for i in range(n)], langs, ["d"] * n, rng.standard_normal((n, 2))
            )
            dets = [f"l{i}" for i in range(3)]
            ts = generate_trials(es, dets)
            assert len(ts) == n * len(dets)
            assert ts.is_target.sum() == sum(1 for l in langs if l in dets)


class TestTrialIndex:
    def _set(self):
        return make_set(
            [("s0", "a", "d", [0.0]), ("s1", "b", "d", [1.0]), ("s2", "c", "d", [2.0])]
        )

    def test_sample_major_order_of_generate_trials(self):
        es = self._set()
        dets = ("b", "c", "a", "z")
        ts = generate_trials(es, dets)
        rows, cols = trial_index(es, ts, dets)
        assert np.array_equal(rows, np.repeat(np.arange(3), 4))
        assert np.array_equal(cols, np.tile(np.arange(4), 3))
        # A score matrix in another detector order is read by label.
        S = np.arange(12.0).reshape(3, 4)
        order = ("z", "a", "c", "b")
        rows2, cols2 = trial_index(es, ts, order)
        permuted = S[:, [dets.index(lab) for lab in order]]
        assert np.array_equal(permuted[rows2, cols2], S[rows, cols])

    def test_unknown_sample_named(self):
        ts = generate_trials(self._set(), ("a", "b"))
        other = make_set([("s0", "a", "d", [0.0]), ("s1", "b", "d", [1.0])])
        with pytest.raises(ValueError, match="sample_id 's2'"):
            trial_index(other, ts, ("a", "b"))

    def test_unknown_detector_named(self):
        es = self._set()
        ts = generate_trials(es, ("a", "b"))
        with pytest.raises(ValueError, match="detector 'b'"):
            trial_index(es, ts, ("a", "c"))


class TestPerLanguageMeans:
    def test_plain_mean(self):
        es = make_set([("1", "a", "d", [0.0, 0.0]), ("2", "a", "d", [2.0, 0.0])])
        means = per_language_means(es)
        assert np.allclose(means["a"], [1.0, 0.0])

    def test_weighted_mean(self):
        es = make_set([("1", "a", "d", [0.0, 0.0]), ("2", "a", "d", [2.0, 0.0])])
        means = per_language_means(es, weights=np.array([1.0, 3.0]))
        assert np.allclose(means["a"], [1.5, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_non_finite_or_zero_weight_rejected(self, bad):
        es = make_set([("1", "a", "d", [0.0, 0.0]), ("2", "a", "d", [2.0, 0.0])])
        with pytest.raises(ValueError, match="weights must be finite and positive"):
            per_language_means(es, weights=np.array([1.0, bad]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        st.lists(st.text(alphabet="abAB19", max_size=3), max_size=40),
        st.lists(st.integers(-20, 20), max_size=40),
        st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from("xy1")), max_size=40),
    )
)
def test_group_rows_partitions_rows_by_sorted_label(labels):
    classes, rows = group_rows(labels)
    assert classes == tuple(sorted(set(labels)))
    assert len(rows) == len(classes)
    assert sorted(i for r in rows for i in r.tolist()) == list(range(len(labels)))
    for cls, r in zip(classes, rows):
        assert np.all(np.diff(r) > 0)
        assert all(labels[i] == cls for i in r)


class TestBalanceWeights:
    def test_group_of_four(self):
        es = make_set([(f"s{i}", "a", "d", [0.0]) for i in range(4)])
        assert np.allclose(balance_weights(es), 0.25)

    def test_two_groups(self):
        es = make_set(
            [("1", "a", "d", [0.0]), ("2", "b", "d", [0.0]), ("3", "b", "d", [0.0])]
        )
        assert np.allclose(balance_weights(es), [1.0, 0.5, 0.5])

    def test_single_record(self):
        es = make_set([("1", "a", "d", [0.0])])
        assert np.allclose(balance_weights(es), [1.0])
