import math

import numpy as np
import pytest

from langrec.backend import (
    FlatBackend,
    GenerativeBackend,
    fit_generative_backend,
    init_from_generative,
)
from langrec.clustering import cluster_priors
from langrec.dataio import EmbeddingSet, balance_weights
from langrec.hier import combine_llr, init_hier, prior_odds
from langrec.modelio import ModelFormatError, model_from_doc, model_to_doc
from langrec.plda import EnrollmentStats, PairScoreParams, approx_llr, to_pair_params
from langrec.preproc import AffinePreproc


def synthetic_set(rng, lang_means, n_per=40, sigma=0.2, n_datasets=1, prefix="s"):
    ids, langs, dsets, vecs = [], [], [], []
    for lang, mean in lang_means.items():
        for k in range(n_datasets):
            for i in range(n_per):
                ids.append(f"{prefix}_{lang}_d{k}_{i}")
                langs.append(lang)
                dsets.append(f"d{k}")
                vecs.append(mean + sigma * rng.standard_normal(len(mean)))
    return EmbeddingSet(ids, langs, dsets, np.vstack(vecs))


def separated_means(rng, n_langs, dim, spread=5.0):
    return {f"l{i}": spread * rng.standard_normal(dim) for i in range(n_langs)}


class TestInitFromGenerative:
    def test_init_matches_generative_approx_scores(self):
        rng = np.random.default_rng(0)
        train = synthetic_set(rng, separated_means(rng, 5, 8), n_per=30)
        weights = balance_weights(train)
        backend = init_from_generative(train, weights, out_dim=4)

        # Independent route: preprocess, EM, convert, mean-enrollment score.
        from langrec.backend import fit_generative

        preproc, model, labels = fit_generative(train, weights, 4)
        params = to_pair_params(model)
        U = preproc.transform(train.vectors)
        labels_arr = np.array(labels, dtype=object)
        test = synthetic_set(rng, separated_means(rng, 2, 8), n_per=3, prefix="t")
        scores = backend.score_matrix(test.vectors)
        for j, lang in enumerate(backend.detector_labels):
            enroll = U[labels_arr == lang]
            for i in range(len(test)):
                u = preproc.transform(test.vectors[i][None, :])[0]
                expected = approx_llr(params, enroll, u)
                assert abs(scores[i, j] - expected) < 1e-10

    def test_detector_count_and_rank_bound(self):
        rng = np.random.default_rng(1)
        train = synthetic_set(rng, separated_means(rng, 4, 6), n_per=20)
        backend = init_from_generative(train, None, out_dim=3)
        assert backend.n_detectors == 4
        with pytest.raises(ValueError, match="rank bound"):
            init_from_generative(train, None, out_dim=4)


class TestScoreAll:
    def test_own_detector_wins_on_separated_data(self):
        rng = np.random.default_rng(2)
        means = separated_means(rng, 5, 8, spread=5.0)
        train = synthetic_set(rng, means, n_per=40, sigma=0.3)
        backend = init_from_generative(train, None, out_dim=4)
        for lang, mean in means.items():
            scores = backend.score_matrix(mean[None])[0]
            best = backend.detector_labels[int(np.argmax(scores))]
            assert best == lang

    def test_zero_params_zero_scores(self):
        rng = np.random.default_rng(3)
        p = AffinePreproc(A=np.eye(3), b=np.zeros(3))
        backend = FlatBackend(
            preproc=p,
            params=PairScoreParams(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(3), 0.0),
            detector_labels=("a", "b"),
            detectors=rng.standard_normal((2, 3)),
        )
        assert np.all(backend.score_matrix(rng.standard_normal(3)[None])[0] == 0.0)

    def test_pure_function(self):
        rng = np.random.default_rng(4)
        train = synthetic_set(rng, separated_means(rng, 3, 5), n_per=20)
        backend = init_from_generative(train, None, out_dim=2)
        x = rng.standard_normal(5)
        assert np.array_equal(backend.score_matrix(x[None])[0], backend.score_matrix(x[None])[0])

    def test_detector_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        train = synthetic_set(rng, separated_means(rng, 4, 6), n_per=20)
        backend = init_from_generative(train, None, out_dim=3)
        perm = [2, 0, 3, 1]
        permuted = FlatBackend(
            preproc=backend.preproc,
            params=backend.params,
            detector_labels=tuple(backend.detector_labels[i] for i in perm),
            detectors=backend.detectors[perm],
        )
        x = rng.standard_normal(6)
        assert np.allclose(permuted.score_matrix(x[None])[0], backend.score_matrix(x[None])[0][perm])


class TestGenerativeBackend:
    def test_exact_beats_nothing_and_is_finite(self):
        rng = np.random.default_rng(6)
        train = synthetic_set(rng, separated_means(rng, 4, 6), n_per=25)
        backend = fit_generative_backend(train, balance_weights(train), out_dim=3)
        scores = backend.score_matrix(train.vectors[:10])
        assert scores.shape == (10, 4)
        assert np.all(np.isfinite(scores))

    def test_own_detector_wins(self):
        rng = np.random.default_rng(7)
        means = separated_means(rng, 4, 6)
        train = synthetic_set(rng, means, n_per=30, sigma=0.3)
        backend = fit_generative_backend(train, None, out_dim=3)
        for lang, mean in means.items():
            scores = backend.score_matrix(mean[None])[0]
            assert backend.detector_labels[int(np.argmax(scores))] == lang


class TestGenerativeBackendChecks:
    @pytest.fixture(scope="class")
    def backend(self):
        rng = np.random.default_rng(8)
        train = synthetic_set(rng, separated_means(rng, 3, 5), n_per=15)
        return fit_generative_backend(train, None, out_dim=2)

    def rebuild(self, backend, labels=None, counts=None, sums=None, preproc=None):
        e = backend.enroll
        return GenerativeBackend(
            preproc=backend.preproc if preproc is None else preproc,
            model=backend.model,
            detector_labels=backend.detector_labels if labels is None else labels,
            enroll=EnrollmentStats(
                counts=e.counts if counts is None else counts,
                sums=e.sums if sums is None else sums,
            ),
        )

    def test_valid_parts_accepted(self, backend):
        assert self.rebuild(backend).n_detectors == 3

    def test_duplicate_labels(self, backend):
        with pytest.raises(ValueError, match="unique"):
            self.rebuild(backend, labels=("l0", "l1", "l0"))

    def test_fewer_labels_than_enrollment_rows(self, backend):
        with pytest.raises(ValueError, match="enrollment statistics"):
            self.rebuild(backend, labels=backend.detector_labels[:2])

    def test_sums_of_wrong_dimension(self, backend):
        with pytest.raises(ValueError, match="enrollment statistics"):
            self.rebuild(backend, sums=np.zeros((3, 3)))

    def test_count_below_one(self, backend):
        with pytest.raises(ValueError, match="at least 1"):
            self.rebuild(backend, counts=np.array([4.0, 0.0, 5.0]))

    def test_preproc_dimension_disagrees_with_model(self, backend):
        wider = AffinePreproc(A=np.eye(3, 5), b=np.zeros(3))
        with pytest.raises(ValueError, match="dimension disagrees"):
            self.rebuild(backend, preproc=wider)

    def test_model_file_with_inconsistent_parts_is_format_error(self, backend):
        doc = model_to_doc(backend)
        doc["enroll"][0]["sum"] = doc["enroll"][0]["sum"][:1]
        with pytest.raises(ModelFormatError, match="malformed plda model file"):
            model_from_doc(doc)
        doc = model_to_doc(backend)
        doc["enroll"][2]["n"] = 0
        with pytest.raises(ModelFormatError, match="at least 1"):
            model_from_doc(doc)


def eq5_combination_oracle(L_c, L_lc, P_c, P_lc):
    """Independent oracle: rebuild posteriors/priors from the odds and apply
    the posterior/prior odds-ratio definition directly."""
    O_c = math.exp(L_c) * P_c
    O_lc = math.exp(L_lc) * P_lc
    p_c_w = O_c / (1 + O_c)
    p_lc_w = O_lc / (1 + O_lc)
    p_c = P_c / (1 + P_c)
    p_lc = P_lc / (1 + P_lc)
    posterior_odds = (p_lc_w * p_c_w) / ((1 - p_lc_w) * p_c_w + (1 - p_c_w))
    prior_odds_l = (p_lc * p_c) / ((1 - p_lc) * p_c + (1 - p_c))
    return math.log(posterior_odds / prior_odds_l)


class TestCombineLlr:
    def test_uniform_zero_case(self):
        assert combine_llr(0.0, 0.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_known_value(self):
        got = combine_llr(2.0, 1.0, 1.0, 1.0)
        expected = math.log(math.exp(3) / (math.exp(2) + math.exp(1) + 1) * 3)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(1.691, abs=1e-3)

    def test_matches_eq5_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            L_c, L_lc = rng.uniform(-5, 5, size=2)
            P_c = prior_odds(float(rng.uniform(0.05, 0.95)))
            P_lc = prior_odds(float(rng.uniform(0.05, 0.95)))
            got = combine_llr(L_c, L_lc, P_c, P_lc)
            assert got == pytest.approx(eq5_combination_oracle(L_c, L_lc, P_c, P_lc), abs=1e-10)

    def test_singleton_reduction_exact(self):
        for L_lc in (-3.0, 0.0, 17.0):
            assert combine_llr(1.25, L_lc, 0.5, math.inf) == 1.25

    def test_singleton_is_large_odds_limit(self):
        approx = combine_llr(1.25, 2.0, 0.5, 1e12)
        assert approx == pytest.approx(1.25, abs=1e-9)

    def test_monotone_in_each_argument(self):
        grid = np.linspace(-20, 20, 41)
        P_c, P_lc = prior_odds(0.3), prior_odds(0.5)
        for fixed in (-7.0, 0.0, 7.0):
            asc_c = [combine_llr(v, fixed, P_c, P_lc) for v in grid]
            asc_lc = [combine_llr(fixed, v, P_c, P_lc) for v in grid]
            assert all(b > a for a, b in zip(asc_c, asc_c[1:]))
            assert all(b > a for a, b in zip(asc_lc, asc_lc[1:]))

    def test_stable_for_huge_scores(self):
        for L in (-700.0, 700.0):
            v = combine_llr(L, -L, 1.0, 1.0)
            assert np.isfinite(v)

    def test_invalid_priors(self):
        with pytest.raises(ValueError):
            combine_llr(0.0, 0.0, -1.0, 1.0)


class TestInitHier:
    def _clustered_data(self, rng, dim=8, n_per=30):
        lang_means = {}
        for cname in ("a", "b", "c"):
            center = 6 * rng.standard_normal(dim)
            for j in range(2):
                lang_means[f"{cname}{j}"] = center + rng.standard_normal(dim)
        train = synthetic_set(rng, lang_means, n_per=n_per, sigma=0.4)
        cmap = cluster_priors(
            {"a0": ("a0", "a1"), "b0": ("b0", "b1"), "c0": ("c0", "c1")}
        )
        return train, cmap, lang_means

    def test_shift_is_average_of_language_means(self):
        rng = np.random.default_rng(9)
        train, cmap, _ = self._clustered_data(rng)
        backend = init_hier(train, cmap, None, out_dim1=2, out_dim2=3)
        from langrec.dataio import per_language_means

        means = per_language_means(train)
        expected = 0.5 * (means["a0"] + means["a1"])
        ci = backend.stage1.detector_labels.index("a0")
        assert np.allclose(backend.shifts[ci], expected, atol=1e-12)

    def test_stage1_detector_count(self):
        rng = np.random.default_rng(10)
        train, cmap, _ = self._clustered_data(rng)
        backend = init_hier(train, cmap, None, 2, 3)
        assert len(backend.stage1.detector_labels) == 3
        assert len(backend.stage2.detector_labels) == 6

    def test_all_singletons_degenerate(self):
        rng = np.random.default_rng(11)
        train, _, lang_means = self._clustered_data(rng)
        singletons = cluster_priors({l: (l,) for l in lang_means})
        with pytest.raises(ValueError, match="degenerate"):
            init_hier(train, singletons, None, 2, 1)

    def test_rank_bounds(self):
        rng = np.random.default_rng(12)
        train, cmap, _ = self._clustered_data(rng)
        with pytest.raises(ValueError, match="out_dim1"):
            init_hier(train, cmap, None, 3, 3)
        with pytest.raises(ValueError, match="out_dim2"):
            init_hier(train, cmap, None, 2, 4)

    def test_stage_outputs_match_generative_counterparts(self):
        rng = np.random.default_rng(13)
        train, cmap, _ = self._clustered_data(rng)
        weights = balance_weights(train)
        backend = init_hier(train, cmap, weights, 2, 3)

        clusters = [cmap.assignment[l] for l in train.languages]
        flat_clusters = init_from_generative(train, weights, 2, class_labels=clusters)
        X = train.vectors[:13]
        assert np.allclose(
            backend.stage1.score_matrix(X), flat_clusters.score_matrix(X), atol=1e-10
        )

    def test_score_monotone_in_conditional_score(self):
        rng = np.random.default_rng(14)
        train, cmap, _ = self._clustered_data(rng)
        backend = init_hier(train, cmap, None, 2, 3)
        x = train.vectors[0]
        L_c, L_lc = backend.stage_scores(x[None, :])
        from langrec.hier import combine_matrix

        base = combine_matrix(L_c, L_lc, backend.combine)[0]
        bumped = combine_matrix(L_c, L_lc + 0.5, backend.combine)[0]
        assert np.all(bumped > base)

    def test_other_cluster_shift_does_not_leak(self):
        rng = np.random.default_rng(15)
        train, cmap, _ = self._clustered_data(rng)
        backend = init_hier(train, cmap, None, 2, 3)
        x = train.vectors[3]
        before = backend.score_matrix(x[None])[0]
        ci_other = backend.stage1.detector_labels.index("b0")
        backend.shifts[ci_other] = backend.shifts[ci_other] + 10.0
        after = backend.score_matrix(x[None])[0]
        a_cols = [backend.detector_labels.index(l) for l in ("a0", "a1")]
        assert np.allclose(before[a_cols], after[a_cols])

    def test_prior_odds_round_trip(self):
        rng = np.random.default_rng(16)
        train, _, _ = self._clustered_data(rng)
        cmap = cluster_priors({"a0": ("a0", "a1"), "b0": ("b0", "b1", "c0"), "c1": ("c1",)})
        backend = init_hier(train, cmap, None, 2, 3)
        info, labels = backend.combine, backend.stage2.detector_labels
        assert [labels[j] for j in info.cond] == [l for l in labels if l != "c1"]
        for k, j in enumerate(info.cond):
            p_c = cmap.p_c[cmap.assignment[labels[j]]]
            p_lc = cmap.p_l_given_c[labels[j]]
            assert abs(info.P_c[k] - p_c / (1 - p_c)) < 1e-12
            assert abs(info.P_lc[k] - p_lc / (1 - p_lc)) < 1e-12

    def test_zero_stage_scores_give_zero_output(self):
        # Uniform two-cluster/two-language map with all stage scores zero.
        idx = np.array([0, 1], dtype=np.intp)
        P = np.array([prior_odds(0.5), prior_odds(0.5)])
        from langrec.hier import HierCombineInfo, combine_matrix

        info = HierCombineInfo(idx, idx, P, P, idx, idx[:, None], idx)
        out, _, _ = combine_matrix(np.zeros((3, 2)), np.zeros((3, 2)), info)
        assert np.allclose(out, 0.0, atol=1e-14)
