import math

import numpy as np
import pytest

from langrec.clustering import cluster_priors
from langrec.dataio import EmbeddingSet, generate_trials
from langrec.metrics import (
    MetricReport,
    actual_dcf,
    bayes_threshold,
    bootstrap_ci,
    eer,
    evaluate,
    min_dcf,
    subset_trials,
)


def brute_force_min_dcf(tar, non, p_target=0.1, c_miss=1.0, c_fa=1.0):
    """Oracle: evaluate the cost at a dense set of candidate thresholds."""
    cands = [-np.inf, np.inf]
    s = np.unique(np.concatenate([tar, non]))
    cands += list((s[:-1] + s[1:]) / 2.0)
    cands += list(s)  # thresholds exactly at scores (ties reject)
    best = np.inf
    for thr in cands:
        pmiss = np.mean(tar <= thr)
        pfa = np.mean(non > thr)
        best = min(best, c_miss * p_target * pmiss + c_fa * (1 - p_target) * pfa)
    return best / min(c_miss * p_target, c_fa * (1 - p_target))


def brute_force_eer(tar, non):
    """Oracle: sweep thresholds, interpolate the Pmiss-Pfa sign change."""
    s = np.unique(np.concatenate([tar, non]))
    cands = [-np.inf] + list((s[:-1] + s[1:]) / 2.0) + [np.inf]
    pts = [(np.mean(tar <= t), np.mean(non > t)) for t in cands]
    for (pm0, pf0), (pm1, pf1) in zip(pts, pts[1:]):
        d0, d1 = pm0 - pf0, pm1 - pf1
        if d0 < 0 <= d1:
            if d1 == d0:
                return pm1
            t = -d0 / (d1 - d0)
            return pm0 + t * (pm1 - pm0)
    return pts[-1][0]


class TestBayesThreshold:
    def test_standard_operating_point(self):
        assert bayes_threshold(0.1, 1, 1) == pytest.approx(math.log(9.0), abs=1e-12)

    def test_even_prior(self):
        assert bayes_threshold(0.5, 1, 1) == 0.0

    def test_cost_cancels_prior(self):
        assert bayes_threshold(0.1, 9, 1) == pytest.approx(0.0, abs=1e-12)

    def test_threshold_minimizes_cost_on_dense_grid(self):
        # Sweep oracle: for calibrated LLR scores sampled densely, no other
        # threshold achieves a lower cost than the Bayes one.
        rng = np.random.default_rng(0)
        p_target, c_miss, c_fa = 0.1, 1.0, 1.0
        llrs = np.linspace(-8, 8, 2001)
        # Simulate via importance of the LLR definition: targets have
        # density p(s|tar) proportional to sigmoid'(s) e^{s/2} style; a
        # simpler check uses Gaussian class scores with matched LLR.
        tar = rng.normal(1.0, 1.0, 4000)
        non = rng.normal(-1.0, 1.0, 4000)
        # LLR of these Gaussians is 2x the raw score; calibrate accordingly.
        tar_llr, non_llr = 2.0 * tar, 2.0 * non
        thr = bayes_threshold(p_target, c_miss, c_fa)
        best_cost, best_thr = np.inf, None
        for t in llrs:
            cost = c_miss * p_target * np.mean(tar_llr <= t) + c_fa * (
                1 - p_target
            ) * np.mean(non_llr > t)
            if cost < best_cost:
                best_cost, best_thr = cost, t
        at_bayes = c_miss * p_target * np.mean(tar_llr <= thr) + c_fa * (
            1 - p_target
        ) * np.mean(non_llr > thr)
        assert at_bayes <= best_cost * 1.05 + 1e-4


class TestActualDcf:
    def test_separated_scores_zero_cost(self):
        scores = np.array([3.0, 2.5, 1.0, 2.0])
        tgt = np.array([True, True, False, False])
        pmiss, pfa, dcf = actual_dcf(scores, tgt)
        assert (pmiss, pfa, dcf) == (0.0, 0.0, 0.0)

    def test_all_zero_scores_is_exactly_one(self):
        scores = np.zeros(50)
        tgt = np.zeros(50, dtype=bool)
        tgt[:5] = True
        pmiss, pfa, dcf = actual_dcf(scores, tgt)
        assert (pmiss, pfa) == (1.0, 0.0)
        assert dcf == pytest.approx(1.0, abs=1e-15)

    def test_inverted_scores_cost_ten(self):
        _, _, dcf = actual_dcf(np.array([2.0, 3.0]), np.array([True, False]))
        assert dcf == pytest.approx(10.0, abs=1e-12)

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            actual_dcf(np.array([1.0, 2.0]), np.array([True, True]))


class TestMinDcf:
    def test_separated_is_zero(self):
        scores = np.array([5.0, 4.0, 1.0, 0.0])
        tgt = np.array([True, True, False, False])
        assert min_dcf(scores, tgt) == 0.0

    def test_identical_distributions(self):
        scores = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
        tgt = np.array([True, True, True, False, False, False])
        assert min_dcf(scores, tgt) == pytest.approx(1.0, abs=1e-12)

    def test_never_exceeds_actual_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            scores = rng.standard_normal(n)
            tgt = np.zeros(n, dtype=bool)
            tgt[rng.integers(0, n)] = True
            if tgt.all() or not tgt.any():
                continue
            assert min_dcf(scores, tgt) <= actual_dcf(scores, tgt)[2] + 1e-12

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            tar = rng.standard_normal(int(rng.integers(1, 20))) + 1
            non = rng.standard_normal(int(rng.integers(1, 20)))
            scores = np.concatenate([tar, non])
            tgt = np.concatenate([np.ones(tar.size, bool), np.zeros(non.size, bool)])
            assert min_dcf(scores, tgt) == pytest.approx(
                brute_force_min_dcf(tar, non), abs=1e-12
            )

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.standard_normal(60)
        tgt = rng.random(60) < 0.3
        # Strictly increasing maps, affine and not, keep every ROC point.
        for transform in (
            lambda s: s + 1.0,
            lambda s: 2.5 * s - 3.0,
            np.exp,
            lambda s: s**3,
        ):
            moved = transform(scores)
            assert min_dcf(moved, tgt) == pytest.approx(min_dcf(scores, tgt), abs=1e-12)
            assert eer(moved, tgt) == pytest.approx(eer(scores, tgt), abs=1e-12)
        shifted = scores + 1.0
        # The actual DCF is threshold-sensitive and generally changes.
        base = actual_dcf(scores, tgt)[2]
        moved = actual_dcf(shifted, tgt)[2]
        assert base != moved


class TestEer:
    def test_separated(self):
        assert eer(np.array([2.0, 3.0, 0.0, 1.0]), np.array([True, True, False, False])) == 0.0

    def test_interleaved_half(self):
        scores = np.array([0.0, 2.0, 1.0, 3.0])
        tgt = np.array([True, True, False, False])
        assert eer(scores, tgt) == pytest.approx(0.5, abs=1e-12)

    def test_label_swap_negation_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            scores = rng.standard_normal(40)
            tgt = rng.random(40) < 0.4
            if tgt.all() or not tgt.any():
                continue
            a = eer(scores, tgt)
            b = eer(-scores, ~tgt)
            assert a == pytest.approx(b, abs=1e-12)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            tar = rng.standard_normal(int(rng.integers(2, 25))) + 0.7
            non = rng.standard_normal(int(rng.integers(2, 25)))
            scores = np.concatenate([tar, non])
            tgt = np.concatenate([np.ones(tar.size, bool), np.zeros(non.size, bool)])
            assert eer(scores, tgt) == pytest.approx(brute_force_eer(tar, non), abs=1e-12)


class TestEvaluate:
    def test_report_fields(self):
        rng = np.random.default_rng(6)
        scores = np.concatenate([rng.normal(2, 1, 30), rng.normal(-2, 1, 100)])
        tgt = np.concatenate([np.ones(30, bool), np.zeros(100, bool)])
        rep = evaluate(scores, tgt)
        assert rep.n_target == 30 and rep.n_nontarget == 100
        assert rep.min_dcf_norm <= rep.actual_dcf_norm
        assert 0.0 <= rep.eer <= 1.0
        doc = rep.to_dict()
        assert MetricReport.from_dict(doc) == rep
        assert set(doc) == {
            "pmiss", "pfa", "actual_dcf_norm", "min_dcf_norm", "eer",
            "n_target", "n_nontarget", "ci_low", "ci_high",
        }


def toy_trials():
    es = EmbeddingSet(
        ["s1", "s2", "s3"],
        ["a", "b", "c"],
        ["d"] * 3,
        np.zeros((3, 2)),
    )
    return es, generate_trials(es, ["a", "b", "c"])


class TestSubsetTrials:
    def test_filters_both_sides(self):
        es, trials = toy_trials()
        cmap = cluster_priors({"a": ("a", "b"), "c": ("c",)})
        langs = dict(zip(es.sample_ids, es.languages))
        sub, mask = subset_trials(trials, langs, cmap, "a")
        assert len(sub) == 4
        assert sub.n_target == 2
        assert set(sub.detector_languages) == {"a", "b"}
        assert mask.sum() == 4

    def test_singleton_cluster_rejected(self):
        es, trials = toy_trials()
        cmap = cluster_priors({"a": ("a", "b"), "c": ("c",)})
        langs = dict(zip(es.sample_ids, es.languages))
        with pytest.raises(ValueError, match="fewer than 2"):
            subset_trials(trials, langs, cmap, "c")

    def test_mask_aligns_with_scores(self):
        es, trials = toy_trials()
        cmap = cluster_priors({"a": ("a", "b"), "c": ("c",)})
        langs = dict(zip(es.sample_ids, es.languages))
        sub, mask = subset_trials(trials, langs, cmap, "a")
        scores = np.arange(len(trials), dtype=float)
        assert list(scores[mask]) == [0.0, 1.0, 3.0, 4.0]


def reference_bootstrap_ci(scores, trials, n_boot, seed, p_target=0.1, max_redraws=10):
    """The per-replicate loop bootstrap_ci replaced: it concatenates the
    trials of every drawn sample. Returns the interval and the number of
    redraws it made."""
    ids = sorted(set(trials.sample_ids))
    trial_idx = {sid: [] for sid in ids}
    for i, sid in enumerate(trials.sample_ids):
        trial_idx[sid].append(i)
    values, redraws = [], 0
    for rep in range(n_boot):
        rng = np.random.default_rng([seed, rep])
        for attempt in range(max_redraws + 1):
            draw = rng.integers(0, len(ids), size=len(ids))
            idx = np.concatenate([trial_idx[ids[i]] for i in draw])
            tgt = trials.is_target[idx]
            if tgt.any() and not tgt.all():
                break
            redraws += 1
        else:
            raise ValueError("degenerate")
        values.append(actual_dcf(scores[idx], tgt, p_target)[2])
    values.sort()
    lo = values[max(1, math.ceil(0.025 * n_boot)) - 1]
    hi = values[math.ceil(0.975 * n_boot) - 1]
    return (lo, hi), redraws


class TestBootstrap:
    def _scored_trials(self, rng, n_samples=40, sep=4.0):
        langs = [f"l{i % 4}" for i in range(n_samples)]
        es = EmbeddingSet(
            [f"s{i}" for i in range(n_samples)], langs, ["d"] * n_samples,
            rng.standard_normal((n_samples, 2)),
        )
        trials = generate_trials(es, ["l0", "l1", "l2", "l3"])
        scores = np.where(trials.is_target, sep + rng.standard_normal(len(trials)),
                          -sep + rng.standard_normal(len(trials)))
        return scores, trials

    def test_separated_gives_zero_interval(self):
        rng = np.random.default_rng(7)
        scores, trials = self._scored_trials(rng, sep=50.0)
        low, high = bootstrap_ci(scores, trials, n_boot=100, seed=0)
        assert (low, high) == (0.0, 0.0)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        scores, trials = self._scored_trials(rng, sep=1.0)
        a = bootstrap_ci(scores, trials, n_boot=200, seed=5)
        b = bootstrap_ci(scores, trials, n_boot=200, seed=5)
        assert a == b

    def test_ordered_interval(self):
        rng = np.random.default_rng(9)
        scores, trials = self._scored_trials(rng, sep=0.5)
        low, high = bootstrap_ci(scores, trials, n_boot=300, seed=1)
        assert low <= high

    def test_convergence_smoke(self):
        rng = np.random.default_rng(10)
        scores, trials = self._scored_trials(rng, sep=1.5)
        a = bootstrap_ci(scores, trials, n_boot=1000, seed=2)
        b = bootstrap_ci(scores, trials, n_boot=4000, seed=2)
        assert abs(a[0] - b[0]) < 0.05 and abs(a[1] - b[1]) < 0.05

    def test_all_nontarget_trials_exhaust_redraws(self):
        es = EmbeddingSet(["s1", "s2"], ["x", "y"], ["d"] * 2, np.zeros((2, 2)))
        trials = generate_trials(es, ["a", "b"])  # out-of-set: no targets at all
        with pytest.raises(ValueError, match="degenerate"):
            bootstrap_ci(np.zeros(len(trials)), trials, n_boot=5, seed=0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 11])
    def test_matches_reference_loop(self, seed):
        # Scores straddle the Bayes threshold, so replicates see misses and
        # false alarms alike.
        rng = np.random.default_rng(100 + seed)
        scores, trials = self._scored_trials(rng, sep=1.0)
        scores += bayes_threshold(0.1)
        want, _ = reference_bootstrap_ci(scores, trials, n_boot=200, seed=seed)
        assert bootstrap_ci(scores, trials, n_boot=200, seed=seed) == want

    @pytest.mark.parametrize("seed", [0, 4, 9])
    def test_matches_reference_loop_through_redraws(self, seed):
        # Two of six samples bring the only target trials, so about one
        # draw in eleven has no target and is drawn again.
        langs = ["l0", "l1", "x", "x", "x", "x"]
        es = EmbeddingSet([f"s{i}" for i in range(6)], langs, ["d"] * 6, np.zeros((6, 2)))
        trials = generate_trials(es, ["l0", "l1", "l2"])
        rng = np.random.default_rng(seed)
        scores = np.where(trials.is_target, 2.5, 0.0) + 2.0 * rng.standard_normal(len(trials))
        want, redraws = reference_bootstrap_ci(scores, trials, n_boot=300, seed=seed)
        assert redraws > 0
        assert bootstrap_ci(scores, trials, n_boot=300, seed=seed) == want
