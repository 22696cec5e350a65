import dataclasses
import math
from collections.abc import Mapping

import numpy as np
import pytest

from langrec.backend import (
    FlatBackend,
    GenerativeBackend,
    fit_generative_backend,
    generative_fit,
    init_from_generative,
)
from langrec.clustering import cluster_priors
from langrec.dataio import EmbeddingSet, balance_weights, generate_trials
from langrec.hier import combine_llr, init_hier, prior_odds
from langrec.modelio import ModelFormatError, model_from_doc, model_to_doc
from langrec.plda import EnrollmentStats, approx_llr, to_pair_params
from langrec.preproc import AffinePreproc
from langrec.synth import ComparisonResult
from langrec.training import Checkpoint, TrainResult, adam_init, get_params


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


class TestGenerativeFit:
    def test_one_fit_builds_both_backends_bit_identically(self):
        rng = np.random.default_rng(3)
        train = synthetic_set(rng, separated_means(rng, 4, 6), n_per=20)
        weights = balance_weights(train)
        fit = generative_fit(train, weights, 3, em_iters=10)
        probe = rng.standard_normal((5, 6))
        plda = fit_generative_backend(train, weights, 3, em_iters=10)
        flat = init_from_generative(train, weights, 3, em_iters=10)
        assert np.array_equal(fit.generative_backend().score_matrix(probe), plda.score_matrix(probe))
        assert np.array_equal(fit.flat_backend().score_matrix(probe), flat.score_matrix(probe))

    def test_flat_backend_is_new_on_every_call(self):
        rng = np.random.default_rng(4)
        train = synthetic_set(rng, separated_means(rng, 3, 5), n_per=15)
        fit = generative_fit(train, None, em_iters=5)
        first, second = fit.flat_backend(), fit.flat_backend()
        assert first is not second
        assert first.detectors is not second.detectors and first.params is not second.params
        assert np.array_equal(first.detectors, second.detectors)


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
        zero = {"Lambda": np.zeros((3, 3)), "Gamma": np.zeros((3, 3)), "c": np.zeros(3), "k": 0.0}
        theta = {"A": np.eye(3), "b": np.zeros(3), **zero, "detectors": rng.standard_normal((2, 3))}
        backend = FlatBackend(("a", "b"), theta)
        assert np.all(backend.score_matrix(rng.standard_normal(3)[None])[0] == 0.0)

    def test_parameters_need_exactly_the_flat_keys(self):
        rng = np.random.default_rng(3)
        train = synthetic_set(rng, separated_means(rng, 3, 5), n_per=15)
        backend = init_from_generative(train, None, out_dim=2)
        theta = backend.theta
        missing = {key: p for key, p in theta.items() if key != "c"}
        for bad in (missing, {**theta, "shifts": theta["c"]}):
            with pytest.raises(ValueError, match="keyed"):
                FlatBackend(backend.detector_labels, bad)

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
            tuple(backend.detector_labels[i] for i in perm),
            {**backend.theta, "detectors": backend.detectors[perm]},
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
        x = train.vectors[0][None, :]
        base = backend.score_matrix(x)
        # A larger stage-2 offset k raises every conditional score by 0.5.
        s2 = backend.stage2
        s2 = dataclasses.replace(s2, theta={**s2.theta, "k": s2.params.k + 0.5})
        backend = dataclasses.replace(backend, stage2=s2)
        assert np.all(backend.score_matrix(x) > base)

    def test_other_cluster_shift_does_not_leak(self):
        rng = np.random.default_rng(15)
        train, cmap, _ = self._clustered_data(rng)
        backend = init_hier(train, cmap, None, 2, 3)
        x = train.vectors[3]
        before = backend.score_matrix(x[None])[0]
        ci_other = backend.stage1.detector_labels.index("b0")
        shifts = backend.shifts.copy()
        shifts[ci_other] += 10.0
        backend = dataclasses.replace(backend, shifts=shifts)
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

        info = HierCombineInfo(idx, idx, P, P, idx, idx)
        out, _, _ = combine_matrix(np.zeros((3, 2)), np.zeros((3, 2)), info)
        assert np.allclose(out, 0.0, atol=1e-14)


def fresh_copy(backend):
    """A backend newly built from the same parts, with tables of its own."""
    if hasattr(backend, "stage1"):
        return type(backend)(
            stage1=fresh_copy(backend.stage1),
            stage2=fresh_copy(backend.stage2),
            shifts=backend.shifts,
            cluster_map=backend.cluster_map,
        )
    return dataclasses.replace(backend)


class TestTablesFollowParameters:
    """Backends are immutable values whose scoring tables are built with them.
    No field can be assigned and no parameter array written in place; a
    backend made from another with some parts replaced scores like one built
    fresh from its parts, and the other's scores do not move."""

    def _hier(self, seed):
        rng = np.random.default_rng(seed)
        train, cmap, _ = TestInitHier()._clustered_data(rng)
        backend = init_hier(train, cmap, None, 2, 3)
        return backend, train.vectors[:9]

    def _generative(self, seed):
        rng = np.random.default_rng(seed)
        train = synthetic_set(rng, separated_means(rng, 3, 5), n_per=15)
        return fit_generative_backend(train, None, out_dim=2), train

    def test_every_field_refuses_assignment(self):
        hier, _ = self._hier(40)
        generative, _ = self._generative(41)
        for backend in (hier, hier.stage2, generative):
            names = [f.name for f in dataclasses.fields(backend)]
            assert "tables" in names or "tables2" in names
            for name in names:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(backend, name, getattr(backend, name))
        for stage in (hier.stage1, hier.stage2):
            with pytest.raises(TypeError):
                stage.theta["k"] = 0.0
            with pytest.raises(TypeError):
                del stage.theta["A"]

    def _check(self, backend, X, change):
        """`change` returns a new backend; it must score like one built fresh
        from its parts, differ from the old one, and leave the old one as it
        was."""
        before = backend.score_matrix(X).tobytes()
        changed = change(backend)
        got = changed.score_matrix(X).tobytes()
        assert got == fresh_copy(changed).score_matrix(X).tobytes()
        assert got != before
        assert backend.score_matrix(X).tobytes() == before

    @staticmethod
    def _scaled_params(backend):
        from langrec.training import get_params, with_params

        return with_params(backend, {k: p * 1.01 for k, p in get_params(backend).items()})

    @classmethod
    def _flat_changes(cls):
        replace = dataclasses.replace

        def changed(parts):
            return lambda flat: replace(flat, theta={**flat.theta, **parts(flat)})

        return (
            cls._scaled_params,
            changed(lambda flat: {"k": 3.0}),
            changed(lambda flat: {"b": np.zeros_like(flat.theta["b"])}),
            changed(lambda flat: {"detectors": flat.detectors * 2.0}),
            changed(lambda flat: {"detectors": flat.detectors[::-1]}),
        )

    def test_hier_assignments(self):
        replace = dataclasses.replace
        hier, X = self._hier(42)

        def in_stage2(change):
            return lambda b: replace(b, stage2=change(b.stage2))

        for change in self._flat_changes():
            self._check(hier, X, in_stage2(change))
        self._check(hier, X, self._scaled_params)
        self._check(hier, X, lambda b: replace(b, shifts=b.shifts + 0.5))

    def test_flat_assignments(self):
        hier, X = self._hier(42)
        for change in self._flat_changes():
            self._check(hier.stage2, X, change)

    def test_generative_assignments(self):
        replace = dataclasses.replace
        generative, train = self._generative(43)
        X = train.vectors[:9]
        other = fit_generative_backend(train, balance_weights(train), out_dim=2)
        e = generative.enroll
        self._check(generative, X, lambda b: replace(b, model=other.model))
        self._check(
            generative,
            X,
            lambda b: replace(b, enroll=EnrollmentStats(2.0 * e.counts, 2.0 * e.sums)),
        )

    def test_generative_in_place_writes_raise(self):
        rng = np.random.default_rng(53)
        train = synthetic_set(rng, separated_means(rng, 3, 5), n_per=15)
        backend = fit_generative_backend(train, None, out_dim=2)
        backend.score_matrix(train.vectors[:3])
        m, e = backend.model, backend.enroll
        for a in (e.counts, e.sums, m.mu, m.B_prec, m.W, m.psi, m.T):
            with pytest.raises(ValueError, match="read-only"):
                a[0] += 1.0
        with pytest.raises(AttributeError):
            backend.tables = None

    def test_in_place_writes_raise(self):
        """Every parameter array refuses writes, and preproc, params and
        detectors are views of the stage's theta, not copies of it."""
        backend, X = self._hier(51)
        backend.score_matrix(X)
        for stage in (backend.stage1, backend.stage2):
            theta, pre, par = stage.theta, stage.preproc, stage.params
            views = {"A": pre.A, "b": pre.b, "Lambda": par.Lambda, "Gamma": par.Gamma,
                     "c": par.c, "detectors": stage.detectors}
            for key, view in views.items():
                assert np.shares_memory(view, theta[key]), key
            assert theta["k"] == par.k
            for a in (*theta.values(), *views.values()):
                with pytest.raises(ValueError, match="read-only"):
                    a[...] += 1.0
        with pytest.raises(ValueError, match="read-only"):
            backend.shifts[1] += 1


def _equal_copy(value):
    """value with every array copied: a distinct object with equal contents."""
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, Mapping):
        return {k: _equal_copy(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_equal_copy(v) for v in value]
    if dataclasses.is_dataclass(value):
        parts = {f.name: getattr(value, f.name) for f in dataclasses.fields(value) if f.init}
        return dataclasses.replace(value, **{k: _equal_copy(v) for k, v in parts.items()})
    return value


@pytest.fixture(scope="module")
def array_holders():
    """One instance of each dataclass that holds arrays, by class name."""
    rng = np.random.default_rng(61)
    train, cmap, _ = TestInitHier()._clustered_data(rng, n_per=10)
    flat = init_from_generative(train, None, out_dim=3)
    gen = fit_generative_backend(train, None, out_dim=3, em_iters=3)
    hier = init_hier(train, cmap, None, 2, 3, em_iters=3)
    trials = generate_trials(train, flat.detector_labels)
    params = get_params(flat)
    cp = Checkpoint(0, 0, 0.0, float("nan"), (1.0,), params)
    instances = [
        flat, gen, hier, hier.combine, flat.preproc, gen.model, flat.params, gen.enroll,
        gen.tables, trials, adam_init(params), cp, TrainResult(flat, [cp], 1.0, 0, 0),
        ComparisonResult({}, cmap, {"plda": gen.score_matrix(train.vectors)}, trials),
    ]
    return {type(x).__name__: x for x in instances}


@pytest.mark.parametrize(
    "name",
    [
        "FlatBackend", "GenerativeBackend", "HierBackend", "HierCombineInfo", "AffinePreproc",
        "PldaModel", "PairScoreParams", "EnrollmentStats", "ExactLlrTables", "TrialSet",
        "AdamState", "Checkpoint", "TrainResult", "ComparisonResult",
    ],
)
def test_array_holders_compare_and_hash_by_identity(array_holders, name):
    x = array_holders[name]
    twin = _equal_copy(x)
    assert twin is not x and type(twin) is type(x)
    assert not (x == twin)
    assert x != twin
    assert x == x
    assert hash(x) == hash(x) != hash(twin)
