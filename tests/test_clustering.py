import json

import numpy as np
import pytest

from langrec.clustering import (
    ClusterMap,
    MergeStep,
    agglomerate,
    cluster_map_from_doc,
    cluster_map_to_json,
    cluster_priors,
    linkage_merges,
    plda_distance_matrix,
)
from langrec.plda import PldaModel
from langrec.preproc import AffinePreproc


def brute_force_average_linkage(labels, dist, threshold):
    """Oracle: naive UPGMA recomputing all cross-pair averages each step."""
    clusters = [frozenset([l]) for l in labels]
    pos = {l: i for i, l in enumerate(labels)}

    def avg(a, b):
        return float(np.mean([dist[pos[x], pos[y]] for x in a for y in b]))

    while len(clusters) > 1:
        cands = []
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                cands.append((avg(clusters[i], clusters[j]),
                              tuple(sorted((min(clusters[i]), min(clusters[j])))), i, j))
        d, _, i, j = min(cands)
        if d > threshold:
            break
        merged = clusters[i] | clusters[j]
        clusters = [c for k, c in enumerate(clusters) if k not in (i, j)] + [merged]
    return {frozenset(c) for c in clusters}


def reference_linkage_merges(labels, dist):
    """Oracle: the merge sequence recomputing every cluster-pair linkage at
    every merge, with the surviving cluster's members first."""
    clusters = [[i] for i in range(len(labels))]

    def name(members):
        return min(labels[i] for i in members)

    merges = []
    while len(clusters) > 1:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                d = float(np.mean(dist[np.ix_(clusters[i], clusters[j])]))
                key = (d, tuple(sorted((name(clusters[i]), name(clusters[j])))))
                if best is None or key < best[0]:
                    best = (key, i, j)
        (d, pair), i, j = best
        merges.append(MergeStep(step=len(merges), left=pair[0], right=pair[1], distance=d))
        merged = clusters[i] + clusters[j]
        clusters = [c for k, c in enumerate(clusters) if k not in (i, j)] + [merged]
    return merges


def random_distance_matrix(rng, n):
    D = rng.uniform(0.5, 20.0, size=(n, n))
    D = 0.5 * (D + D.T)
    np.fill_diagonal(D, -np.inf)
    return D


class TestDistanceMatrix:
    def _setup(self, seed=0, d=3):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((d, d))
        model = PldaModel(
            mu=rng.standard_normal(d),
            B_prec=A @ A.T / d + 0.5 * np.eye(d),
            W=np.eye(d) * 2.0,
        )
        preproc = AffinePreproc(A=np.eye(d), b=np.zeros(d))
        return rng, model, preproc

    def test_identical_means_are_minimum(self):
        rng, model, preproc = self._setup()
        means = {f"l{i}": rng.standard_normal(3) for i in range(4)}
        means["l1"] = means["l0"].copy()
        langs, D = plda_distance_matrix(means, model, preproc)
        off = D[~np.eye(len(langs), dtype=bool)]
        i, j = langs.index("l0"), langs.index("l1")
        assert D[i, j] == off.min()

    def test_symmetric(self):
        rng, model, preproc = self._setup(seed=1)
        means = {f"l{i}": rng.standard_normal(3) for i in range(5)}
        _, D = plda_distance_matrix(means, model, preproc)
        off = ~np.eye(5, dtype=bool)
        assert np.abs(D[off] - D.T[off]).max() < 1e-12

    def test_two_languages(self):
        rng, model, preproc = self._setup(seed=2)
        means = {"a": rng.standard_normal(3), "b": rng.standard_normal(3)}
        langs, D = plda_distance_matrix(means, model, preproc)
        assert D.shape == (2, 2)
        assert np.isfinite(D[0, 1]) and np.isneginf(D[0, 0])

    def test_single_language_rejected(self):
        rng, model, preproc = self._setup(seed=3)
        with pytest.raises(ValueError, match="at least 2"):
            plda_distance_matrix({"a": rng.standard_normal(3)}, model, preproc)


class TestAgglomerate:
    def test_four_point_fixture(self):
        labels = ["a", "b", "c", "d"]
        D = np.full((4, 4), 100.0)
        D[0, 1] = D[1, 0] = 1.0
        D[2, 3] = D[3, 2] = 1.0
        np.fill_diagonal(D, -np.inf)
        cmap = agglomerate(labels, D, threshold=10.0)
        assert cmap.cluster_languages == {"a": ("a", "b"), "c": ("c", "d")}
        assert brute_force_average_linkage(labels, D, 10.0) == {
            frozenset(v) for v in cmap.cluster_languages.values()
        }

    def test_threshold_below_minimum_all_singletons(self):
        rng = np.random.default_rng(4)
        D = random_distance_matrix(rng, 6)
        labels = [f"l{i}" for i in range(6)]
        cmap = agglomerate(labels, D, threshold=0.0)
        assert cmap.n_clusters() == 6

    def test_threshold_infinity_single_cluster(self):
        rng = np.random.default_rng(5)
        D = random_distance_matrix(rng, 6)
        labels = [f"l{i}" for i in range(6)]
        cmap = agglomerate(labels, D, threshold=np.inf)
        assert cmap.n_clusters() == 1

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            labels = [f"l{i}" for i in range(n)]
            D = random_distance_matrix(rng, n)
            thr = float(rng.uniform(0.5, 20.0))
            cmap = agglomerate(labels, D, thr)
            assert brute_force_average_linkage(labels, D, thr) == {
                frozenset(v) for v in cmap.cluster_languages.values()
            }

    def test_merge_distances_monotone(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(3, 10))
            D = random_distance_matrix(rng, n)
            merges = linkage_merges([f"l{i}" for i in range(n)], D)
            dists = [m.distance for m in merges]
            assert all(b >= a - 1e-12 for a, b in zip(dists, dists[1:]))

    def test_threshold_coarsening(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(3, 10))
            labels = [f"l{i}" for i in range(n)]
            D = random_distance_matrix(rng, n)
            t1, t2 = sorted(rng.uniform(0.5, 20.0, size=2))
            fine = agglomerate(labels, D, t1)
            coarse = agglomerate(labels, D, t2)
            for members in fine.cluster_languages.values():
                targets = {coarse.assignment[l] for l in members}
                assert len(targets) == 1

    def test_merges_bit_identical_to_reference(self):
        rng = np.random.default_rng(12)
        for trial in range(30):
            n = int(rng.integers(2, 16))
            labels = [f"l{i:02d}" for i in rng.permutation(n)]
            D = random_distance_matrix(rng, n)
            if trial % 2:  # coarse values: ties between linkages and tie-breaks by name
                D = np.round(D / 5.0)
                np.fill_diagonal(D, -np.inf)
            assert linkage_merges(labels, D) == reference_linkage_merges(labels, D)

    def test_deterministic_with_ties(self):
        labels = ["b", "a", "d", "c"]
        D = np.full((4, 4), 1.0)
        np.fill_diagonal(D, -np.inf)
        m1 = agglomerate(labels, D, 0.5)
        m2 = agglomerate(labels, D, 0.5)
        assert m1 == m2
        merges = linkage_merges(labels, D)
        assert (merges[0].left, merges[0].right) == ("a", "b")


class TestClusterPriors:
    def test_ten_languages_cluster_of_three(self):
        clusters = {"a": ("a", "b", "c")}
        for i in range(7):
            clusters[f"s{i}"] = (f"s{i}",)
        cmap = cluster_priors(clusters)
        assert abs(cmap.p_c["a"] - 0.3) < 1e-15
        assert abs(cmap.p_l_given_c["b"] - 1.0 / 3.0) < 1e-15

    def test_all_singletons(self):
        cmap = cluster_priors({f"l{i}": (f"l{i}",) for i in range(5)})
        assert all(abs(p - 0.2) < 1e-15 for p in cmap.p_c.values())
        assert all(p == 1.0 for p in cmap.p_l_given_c.values())

    def test_single_cluster(self):
        cmap = cluster_priors({"a": ("a", "b", "c")})
        assert cmap.p_c["a"] == 1.0

    @pytest.mark.parametrize(
        "clusters, message",
        [
            ({"a": ("a", "b"), "c": ("b", "c")}, "'b' appears in cluster 'a' and again in 'c'"),
            ({"a": ("a", "a")}, "'a' appears in cluster 'a' and again in 'a'"),
            ({"a": ("a",), "b": ()}, "cluster 'b' is empty"),
            ({}, "empty partition"),
        ],
        ids=["language_in_two_clusters", "language_twice_in_one_cluster", "empty_cluster",
             "no_clusters"],
    )
    def test_invalid_partition_rejected(self, clusters, message):
        with pytest.raises(ValueError, match=message):
            ClusterMap(clusters)

    def test_derived_fields(self):
        cmap = ClusterMap({"c": ["d", "c"], "a": ("b", "a", "e")}, threshold=2.0)
        assert cmap.cluster_languages == {"a": ("a", "b", "e"), "c": ("c", "d")}
        assert cmap.cluster_names == ("a", "c")
        assert cmap.assignment == {"a": "a", "b": "a", "e": "a", "c": "c", "d": "c"}
        assert cmap.p_c == {"a": 3 / 5, "c": 2 / 5}
        assert cmap.p_l_given_c == {"a": 1 / 3, "b": 1 / 3, "e": 1 / 3, "c": 0.5, "d": 0.5}
        assert cmap.threshold == 2.0


class TestClusterMapJson:
    def test_round_trip(self):
        cmap = cluster_priors({"a": ("a", "b"), "c": ("c",)}, threshold=3.5)
        text = cluster_map_to_json(cmap)
        loaded = cluster_map_from_doc(json.loads(text))
        assert loaded == cmap
