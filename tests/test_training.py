import copy
import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import langrec.training
from langrec.backend import FlatBackend, init_from_generative
from langrec.clustering import cluster_priors
from langrec.dataio import (
    EmbeddingSet, balance_weights, generate_trials, group_rows, trial_index,
)
import langrec.hier
from langrec.hier import EXP_FLOOR, HierBackend, init_hier
from langrec.metrics import actual_dcf
from langrec.synth import SynthConfig, generate
from langrec.training import (
    TrainConfig,
    _bce_loss_grad,
    _softplus,
    adam_init,
    adam_step,
    flat_loss_grads,
    get_params,
    hier_loss_grads,
    multi_seed_train,
    sample_batch,
    train,
    trial_bce,
    with_params,
)

from test_backend import synthetic_set, separated_means


def random_symmetric(rng, d, scale=0.3):
    M = scale * rng.standard_normal((d, d))
    return 0.5 * (M + M.T)


def random_flat_params(rng, in_dim, out_dim, n_det):
    return {
        "A": rng.standard_normal((out_dim, in_dim)) * 0.5,
        "b": rng.standard_normal(out_dim) * 0.1,
        "Lambda": random_symmetric(rng, out_dim),
        "Gamma": random_symmetric(rng, out_dim),
        "c": rng.standard_normal(out_dim) * 0.3,
        "k": np.array(rng.standard_normal() * 0.3),
        "detectors": rng.standard_normal((n_det, out_dim)),
    }


def finite_difference_check(loss_fn, params, h=1e-5, floor=1e-4):
    """Central finite differences against the analytic gradient, per entry.

    Returns the maximum relative error over all parameter groups.
    """
    _, grads = loss_fn(params)
    worst = 0.0
    for key in params:
        p = params[key]
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            ix = it.multi_index
            orig = p[ix]
            p[ix] = orig + h
            lp, _ = loss_fn(params)
            p[ix] = orig - h
            lm, _ = loss_fn(params)
            p[ix] = orig
            fd = (lp - lm) / (2.0 * h)
            an = grads[key][ix]
            err = abs(an - fd) / max(abs(an), abs(fd), floor)
            worst = max(worst, err)
            it.iternext()
    return worst


def bce_loss(scores, label_idx, pi):
    """The loss of training._bce_loss_grad alone."""
    return _bce_loss_grad(scores, label_idx, pi)[0]


class TestBceLoss:
    def test_single_sample_two_detectors_half_pi(self):
        scores = np.zeros((1, 2))
        loss = bce_loss(scores, np.array([0]), pi=0.5)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_perfect_separation_zero_loss(self):
        scores = np.full((4, 3), -1e4)
        scores[np.arange(4), [0, 1, 2, 0]] = 1e4
        loss = bce_loss(scores, np.array([0, 1, 2, 0]), pi=0.3)
        assert loss < 1e-12

    def test_offset_cancellation(self):
        pi = 0.07
        scores = np.full((5, 4), -math.log(pi / (1.0 - pi)))
        loss = bce_loss(scores, np.array([0, 1, 2, 3, 0]), pi=pi)
        assert loss == pytest.approx(math.log(2.0), rel=1e-12)

    def test_detector_reordering_invariance(self):
        rng = np.random.default_rng(0)
        scores = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, size=6)
        perm = np.array([2, 0, 3, 1])
        inv = np.argsort(perm)
        loss1 = bce_loss(scores, labels, 0.1)
        loss2 = bce_loss(scores[:, perm], inv[labels], 0.1)
        assert loss1 == pytest.approx(loss2, rel=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            bce_loss(np.zeros((2, 3)), np.array([0, 3]), 0.1)

    def test_trial_bce_matches_batch_form(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal((8, 5))
        labels = rng.integers(0, 5, size=8)
        tar = np.zeros_like(scores, dtype=bool)
        tar[np.arange(8), labels] = True
        assert trial_bce(scores.ravel(), tar.ravel(), 0.2) == pytest.approx(
            bce_loss(scores, labels, 0.2), rel=1e-12
        )


def reference_bce_loss_grad(scores, label_idx, pi):
    """The loss and gradient with full N x L log q and a masked sigmoid."""
    n, L = scores.shape
    a = scores + math.log(pi / (1.0 - pi))
    rows = np.arange(n)
    P, N = float(n), float(n * (L - 1))
    log_1mq = -_softplus(a)
    log_q = -_softplus(-a)
    loss = -(pi / P) * log_q[rows, label_idx].sum()
    loss -= ((1.0 - pi) / N) * (log_1mq.sum() - log_1mq[rows, label_idx].sum())
    q = np.empty_like(a)
    pos = a >= 0
    q[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ex = np.exp(a[~pos])
    q[~pos] = ex / (1.0 + ex)
    G = ((1.0 - pi) / N) * q
    G[rows, label_idx] = -(pi / P) * (1.0 - q[rows, label_idx])
    return float(loss), G


def pinned_bce_cases():
    """200 (scores, labels, pi) cases at score scales 1, 30 and 900."""
    rng = np.random.default_rng(11)
    for case in range(200):
        n, L = int(rng.integers(1, 40)), int(rng.integers(2, 12))
        scale = (1.0, 30.0, 900.0)[case % 3]
        scores = scale * rng.standard_normal((n, L))
        scores[rng.random((n, L)) < 0.1] = 0.0
        labels = rng.integers(0, L, size=n)
        pi = float(rng.uniform(0.001, 0.999))
        yield scores, labels, pi


def test_bce_loss_grad_is_bit_identical_to_reference():
    """Bit for bit wherever the exp argument -|a| is above EXP_FLOOR. Below it
    q saturates: where the reference's q is a tiny positive number (a
    negative trial with a < 0) G is exactly 0, and every other entry is the
    reference's. The loss takes softplus from the same exp, so it may move by
    a few ulps."""
    for scores, labels, pi in pinned_bce_cases():
        loss, G = _bce_loss_grad(scores, labels, pi)
        want_loss, want_G = reference_bce_loss_grad(scores, labels, pi)
        assert abs(loss - want_loss) <= 4 * np.spacing(want_loss)
        a = scores + math.log(pi / (1.0 - pi))
        zeroed = (-np.abs(a) <= EXP_FLOOR) & (a < 0)
        zeroed[np.arange(len(labels)), labels] = False
        assert np.all(G[zeroed] == 0.0)
        assert G[~zeroed].tobytes() == want_G[~zeroed].tobytes()


def test_bce_gradient_has_no_subnormal_entry():
    for scores, labels, pi in pinned_bce_cases():
        G = _bce_loss_grad(scores, labels, pi)[1]
        assert not np.any((G != 0.0) & (np.abs(G) < np.finfo(float).tiny))


def counted_reference_bce_loss_grad(scores, label_idx, pi, counts):
    """_bce_loss_grad as first written, with row counts: softplus by
    logaddexp for log q and log(1 - q), and q from an unfloored exp."""
    n, L = scores.shape
    w = np.asarray(counts, dtype=np.float64)
    a = scores + math.log(pi / (1.0 - pi))
    rows = np.arange(n)
    P = float(w.sum())
    N = P * (L - 1)
    log_1mq = -_softplus(a)
    loss = -(pi / P) * (-_softplus(-a[rows, label_idx]) * w).sum()
    loss -= ((1.0 - pi) / N) * (
        (log_1mq * w[:, None]).sum() - (log_1mq[rows, label_idx] * w).sum()
    )
    e = np.exp(-np.abs(a))
    q = np.where(a >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    G = ((1.0 - pi) / N) * q
    G[rows, label_idx] = -(pi / P) * (1.0 - q[rows, label_idx])
    G *= w[:, None]
    return float(loss), G


def test_exponent_floor_changes_no_gradient_of_a_generative_init_batch(monkeypatch):
    """The distinct rows of the first 2048-row batch drawn from
    SynthConfig(seed=3), with their counts, at the generative initialisation.
    Most of the hierarchical BCE's exp arguments lie below EXP_FLOOR there,
    and the unfloored gradient has subnormal entries. With the unfloored BCE
    and combination patched in, every gradient of the flat and the
    hierarchical step (alpha 0 and 0.3) is the same, bit for bit."""
    from test_hier_properties import unfloored_combination

    def combination(L_c, L_lc, info):
        S, e_c, e_lc, total = unfloored_combination(L_c, L_lc, info)
        return S, np.stack((e_c, e_lc)), total

    train_set, _, _, truth = generate(SynthConfig(seed=3))
    weights = balance_weights(train_set)
    flat = init_from_generative(train_set, weights, len(truth.languages) - 1)
    hier = init_hier(train_set, truth, weights)
    assert flat.detector_labels == hier.detector_labels
    groups = group_rows(zip(train_set.languages, train_set.datasets))[1]
    idx = sample_batch(groups, 2048, np.random.default_rng(0))
    idx, counts = np.unique(idx, return_counts=True)
    pos = {lab: j for j, lab in enumerate(flat.detector_labels)}
    X = train_set.vectors[idx]
    y = np.array([pos[lab] for lab in train_set.languages])[idx]
    a = hier.score_matrix(X) + math.log(0.01 / 0.99)
    assert np.mean(-np.abs(a) <= EXP_FLOOR) > 0.5

    steps = [partial(flat_loss_grads, get_params(flat), X, y, 0.01, counts)]
    steps += [
        partial(hier_loss_grads, get_params(hier), hier.combine, X, y, 0.01, alpha, counts)
        for alpha in (0.0, 0.3)
    ]
    got = [step()[1] for step in steps]
    monkeypatch.setattr(langrec.training, "_bce_loss_grad", counted_reference_bce_loss_grad)
    monkeypatch.setattr(langrec.hier, "combine_matrix", combination)
    for grads, step in zip(got, steps):
        want = step()[1]
        assert list(grads) == list(want)
        for key, g in want.items():
            assert grads[key].tobytes() == g.tobytes(), key


class TestCombinedLoss:
    """hier_loss_grads's loss is (1 - alpha) times the language BCE of the
    backend's own scores plus alpha times the cluster BCE of its stage-1
    scores. The backend has a singleton cluster."""

    def _check(self, alpha):
        rng = np.random.default_rng(2)
        backend = build_hier_backend(rng, singleton=True)
        X = rng.standard_normal((12, 8))
        y = rng.integers(0, 3, size=12)
        loss, _ = hier_loss_grads(get_params(backend), backend.combine, X, y, 0.1, alpha)
        cluster_y = backend.combine.lang_cluster_idx[y]
        expected = (1.0 - alpha) * bce_loss(backend.score_matrix(X), y, 0.1)
        expected += alpha * bce_loss(backend.stage1.score_matrix(X), cluster_y, 0.1)
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_alpha_zero(self):
        self._check(0.0)

    def test_alpha_one(self):
        self._check(1.0)

    def test_alpha_half_is_mean(self):
        self._check(0.5)


class TestGradientsFlat:
    def test_finite_difference_small_model(self):
        rng = np.random.default_rng(3)
        in_dim, out_dim, n_lang, batch = 8, 3, 4, 16
        params = random_flat_params(rng, in_dim, out_dim, n_lang)
        X = rng.standard_normal((batch, in_dim))
        y = rng.integers(0, n_lang, size=batch)

        def loss_fn(p):
            return flat_loss_grads(p, X, y, pi=0.1)

        assert finite_difference_check(loss_fn, params) <= 1e-4

    def test_k_gradient_matches_global_offset_derivative(self):
        rng = np.random.default_rng(4)
        params = random_flat_params(rng, 6, 3, 4)
        X = rng.standard_normal((12, 6))
        y = rng.integers(0, 4, size=12)
        _, grads = flat_loss_grads(params, X, y, pi=0.1)
        delta = 1e-6

        def loss_with_offset(d):
            p = dict(params)
            p["k"] = params["k"] + d
            loss, _ = flat_loss_grads(p, X, y, pi=0.1)
            return loss

        directional = (loss_with_offset(delta) - loss_with_offset(-delta)) / (2 * delta)
        assert grads["k"] == pytest.approx(directional, rel=1e-6)

    def test_saturated_scores_zero_gradient(self):
        # Detectors and inputs on +-e1 with a huge Lambda: scores +-500,
        # sigmoid saturates exactly, so every gradient vanishes.
        params = {
            "A": np.eye(2),
            "b": np.zeros(2),
            "Lambda": 250.0 * np.eye(2),
            "Gamma": np.zeros((2, 2)),
            "c": np.zeros(2),
            "k": np.array(0.0),
            "detectors": np.array([[1.0, 0.0], [-1.0, 0.0]]),
        }
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
        y = np.array([0, 1, 0])
        _, grads = flat_loss_grads(params, X, y, pi=0.2)
        for g in grads.values():
            assert np.linalg.norm(np.atleast_1d(g)) < 1e-12


def build_hier_backend(rng, in_dim=8, out1=3, out2=3, singleton=False):
    """Hand-built 2-cluster hierarchical backend with random parameters."""
    if singleton:
        cmap = cluster_priors({"a0": ("a0", "a1"), "b0": ("b0",)})
    else:
        cmap = cluster_priors({"a0": ("a0", "a1"), "b0": ("b0", "b1")})
    langs = cmap.languages
    clusters = cmap.cluster_names
    stage1 = FlatBackend(clusters, random_flat_params(rng, in_dim, out1, len(clusters)))
    stage2 = FlatBackend(langs, random_flat_params(rng, in_dim, out2, len(langs)))
    shifts = rng.standard_normal((len(clusters), in_dim)) * 0.5
    return HierBackend(stage1=stage1, stage2=stage2, shifts=shifts, cluster_map=cmap)


class TestParameterDicts:
    """get_params and with_params convert between a backend and the training
    engine's parameter dictionary without changing a bit."""

    @staticmethod
    def backends():
        rng = np.random.default_rng(31)
        flat = FlatBackend(("w", "x", "y", "z"), random_flat_params(rng, 8, 3, 4))
        return flat, build_hier_backend(rng)

    def test_round_trip_is_bit_identical(self):
        for backend in self.backends():
            params = {key: 1.5 * p for key, p in get_params(backend).items()}
            got = get_params(with_params(backend, params))
            assert list(got) == list(params)
            for key, p in params.items():
                assert np.asarray(p).dtype == got[key].dtype == np.float64
                assert np.asarray(p).shape == got[key].shape, key
                assert np.asarray(p).tobytes() == got[key].tobytes(), key

    def test_copies_are_writable_and_share_no_memory(self):
        for backend in self.backends():
            stages = (backend.stage1, backend.stage2) if hasattr(backend, "stage1") else (backend,)
            stored = [p for stage in stages for p in stage.theta.values()]
            stored += [backend.shifts] if hasattr(backend, "shifts") else []
            params = get_params(backend)
            assert len(params) == len(stored)
            for key, p in params.items():
                assert p.flags.writeable, key
                assert not any(np.shares_memory(p, q) for q in stored), key


class TestGradientsHier:
    def test_finite_difference_two_cluster_model(self):
        rng = np.random.default_rng(6)
        backend = build_hier_backend(rng)
        info = backend.combine
        params = get_params(backend)
        X = rng.standard_normal((12, 8))
        y = rng.integers(0, 4, size=12)

        def loss_fn(p):
            return hier_loss_grads(p, info, X, y, pi=0.1, alpha=0.3)

        assert finite_difference_check(loss_fn, params) <= 1e-4

    def test_finite_difference_with_singleton_cluster(self):
        rng = np.random.default_rng(7)
        backend = build_hier_backend(rng, singleton=True)
        info = backend.combine
        params = get_params(backend)
        X = rng.standard_normal((10, 8))
        y = rng.integers(0, 3, size=10)

        def loss_fn(p):
            return hier_loss_grads(p, info, X, y, pi=0.1, alpha=0.0)

        assert finite_difference_check(loss_fn, params) <= 1e-4

    def test_hier_forward_matches_score_matrix(self):
        rng = np.random.default_rng(8)
        backend = build_hier_backend(rng)
        info = backend.combine
        params = get_params(backend)
        X = rng.standard_normal((5, 8))
        S = backend.score_matrix(X)
        y = np.zeros(5, dtype=np.intp)
        loss, _ = hier_loss_grads(params, info, X, y, pi=0.1, alpha=0.0)
        assert loss == bce_loss(S, y, 0.1)

    def test_row_at_singleton_shift_scores_and_trains(self):
        # With stage2.b = 0 a row equal to the singleton cluster's shift has a
        # zero stage-2 input there. That language has no stage 2, so the row
        # still scores its cluster score and still trains.
        rng = np.random.default_rng(10)
        backend = build_hier_backend(rng, singleton=True)
        theta2 = {**backend.stage2.theta, "b": np.zeros_like(backend.stage2.theta["b"])}
        backend = dataclasses.replace(
            backend, stage2=dataclasses.replace(backend.stage2, theta=theta2)
        )
        ci = backend.stage1.detector_labels.index("b0")
        X = np.vstack([backend.shifts[ci], rng.standard_normal((3, 8))])
        S = backend.score_matrix(X)
        assert np.all(np.isfinite(S))
        j = backend.detector_labels.index("b0")
        assert np.array_equal(S[:, j], backend.stage1.score_matrix(X)[:, ci])
        y = np.array([j, 0, 1, j])
        loss, _ = hier_loss_grads(get_params(backend), backend.combine, X, y, 0.1, 0.3)
        assert np.isfinite(loss)

    def test_alpha_on_flat_backend_rejected(self):
        rng = np.random.default_rng(9)
        train_set = synthetic_set(rng, separated_means(rng, 3, 6), n_per=15)
        backend = init_from_generative(train_set, None, out_dim=2)
        cfg = TrainConfig(alpha=0.5)
        with pytest.raises(ValueError, match="hierarchical"):
            train(backend, train_set, [], cfg)

    def test_no_dev_set_rejected(self):
        rng = np.random.default_rng(9)
        train_set = synthetic_set(rng, separated_means(rng, 3, 6), n_per=15)
        backend = init_from_generative(train_set, None, out_dim=2)
        with pytest.raises(ValueError, match="dev set"):
            train(backend, train_set, [], TestTrainLoop.CFG)


def test_flat_forward_matches_score_matrix():
    rng = np.random.default_rng(8)
    params = random_flat_params(rng, 8, 3, 4)
    X = rng.standard_normal((5, 8))
    S = FlatBackend(("w", "x", "y", "z"), params).score_matrix(X)
    y = np.arange(5) % 4
    loss, _ = flat_loss_grads(params, X, y, pi=0.1)
    assert loss == bce_loss(S, y, 0.1)


def zero_norm_row(A, b, shift=0.0):
    """The row x with A (x - shift) + b = 0, which has no direction to keep."""
    return shift - np.linalg.pinv(A) @ b


class TestDegenerateRow:
    """A row that length normalisation cannot scale is bad data when scoring
    (ValueError) and a divergence when training (FloatingPointError)."""

    def test_flat(self):
        rng = np.random.default_rng(30)
        params = random_flat_params(rng, 4, 2, 3)
        X = np.vstack([rng.standard_normal((2, 4)), zero_norm_row(params["A"], params["b"])])
        with pytest.raises(ValueError, match="degenerate embedding"):
            FlatBackend(("x", "y", "z"), params).score_matrix(X)
        with pytest.raises(FloatingPointError, match="degenerate embedding"):
            flat_loss_grads(params, X, np.array([0, 1, 2]), 0.1)

    @pytest.mark.parametrize("stage", ["stage1.", "stage2."])
    def test_hier(self, stage):
        rng = np.random.default_rng(31)
        backend = build_hier_backend(rng)
        params = get_params(backend)
        shift = backend.shifts[backend.combine.blocks[0]] if stage == "stage2." else 0.0
        x0 = zero_norm_row(params[stage + "A"], params[stage + "b"], shift)
        X = np.vstack([rng.standard_normal((2, 8)), x0])
        with pytest.raises(ValueError, match="degenerate embedding"):
            backend.score_matrix(X)
        with pytest.raises(FloatingPointError, match="degenerate embedding"):
            hier_loss_grads(params, backend.combine, X, np.array([0, 1, 2]), 0.1, 0.0)


def adam_step_per_group(params, grads, state, lr):
    """Reference for adam_step: the update one parameter group at a time,
    with the moments in state["m"] and state["v"] kept per group and the
    step count in state["t"]."""
    state["t"] += 1
    b1, b2 = langrec.training.ADAM_BETA1, langrec.training.ADAM_BETA2
    out = {}
    for key, p in params.items():
        g = grads[key]
        state["m"][key] = b1 * state["m"][key] + (1.0 - b1) * g
        state["v"][key] = b2 * state["v"][key] + (1.0 - b2) * g * g
        m_hat = state["m"][key] / (1.0 - b1 ** state["t"])
        v_hat = state["v"][key] / (1.0 - b2 ** state["t"])
        new = p - lr * m_hat / (np.sqrt(v_hat) + langrec.training.ADAM_EPS)
        if key.split(".")[-1] in ("Lambda", "Gamma") and new.ndim == 2:
            new = 0.5 * (new + new.T)
        out[key] = new
    return out


def sample_batch_per_group(groups, batch_size, rng):
    """Reference for sample_batch: one bounded draw call per group with a
    non-zero quota, in permutation order."""
    G = len(groups)
    q = -(-batch_size // G)
    excess = q * G - batch_size
    perm = rng.permutation(G)
    parts = []
    for pos, gi in enumerate(perm):
        quota = q - 1 if pos >= G - excess else q
        if quota == 0:
            continue
        members = groups[gi]
        parts.append(members[rng.integers(0, len(members), size=quota)])
    return np.concatenate(parts)


class TestAdam:
    def test_inputs_unchanged(self):
        # Checkpoints keep adam_step's dictionaries without copying them.
        rng = np.random.default_rng(11)
        params = {"Lambda": random_symmetric(rng, 3), "k": np.array(0.5)}
        grads = {"Lambda": rng.standard_normal((3, 3)), "k": np.array(-1.0)}
        before = copy.deepcopy((params, grads))
        state = adam_init(params)
        for _ in range(3):
            new = adam_step(params, grads, state, lr=0.01)
            assert all(new[key] is not params[key] for key in params)
        for old, now in zip(before, (params, grads)):
            assert old.keys() == now.keys()
            assert all(np.array_equal(old[key], now[key]) for key in old)

    def test_first_step_is_signed_lr(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        grads = {"w": np.array([0.5, -0.25, 1e-3])}
        state = adam_init(params)
        new = adam_step(params, grads, state, lr=0.01)
        step = new["w"] - params["w"]
        assert np.allclose(step, -0.01 * np.sign(grads["w"]), atol=1e-4)

    def test_zero_gradient_no_change(self):
        params = {"w": np.array([1.0, 2.0])}
        state = adam_init(params)
        new = adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
        assert np.array_equal(new["w"], params["w"])

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        params = {"Lambda": random_symmetric(rng, 3), "w": rng.standard_normal(4)}
        grads = {"Lambda": rng.standard_normal((3, 3)), "w": rng.standard_normal(4)}
        outs = []
        for _ in range(2):
            state = adam_init(params)
            p = dict(params)
            for _ in range(5):
                p = adam_step(p, grads, state, lr=0.01)
            outs.append(p)
        assert np.array_equal(outs[0]["Lambda"], outs[1]["Lambda"])
        assert np.array_equal(outs[0]["w"], outs[1]["w"])

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), lr=st.sampled_from([1e-5, 5e-4, 1e-3, 0.1]))
    def test_matches_the_per_group_update(self, seed, lr):
        # 0-d, 1-d and 2-d groups, Lambda and Gamma with and without a
        # stage prefix, and a 1-d "Gamma" that is not symmetrised.
        rng = np.random.default_rng(seed)
        params = {
            "stage1.A": rng.standard_normal((3, 5)),
            "stage1.Lambda": random_symmetric(rng, 3),
            "stage1.k": np.array(rng.standard_normal()),
            "Gamma": random_symmetric(rng, 4),
            "shifts": rng.standard_normal((2, 5)),
            "c": rng.standard_normal(4),
            "x.Gamma": rng.standard_normal(3),
        }
        state = adam_init(params)
        ref_state = {"m": {k: np.zeros_like(p) for k, p in params.items()}, "t": 0}
        ref_state["v"] = {k: np.zeros_like(p) for k, p in params.items()}
        p, ref = params, params
        for _ in range(5):
            grads = {
                key: rng.standard_normal(np.shape(value)) * 10.0 ** rng.integers(-6, 3)
                for key, value in params.items()
            }
            new = adam_step(p, grads, state, lr)
            ref = adam_step_per_group(ref, grads, ref_state, lr)
            assert list(new) == list(params)
            for key, want in ref.items():
                assert new[key].shape == np.shape(want), key
                assert new[key].tobytes() == np.asarray(want).tobytes(), key
                for old in (p[key], grads[key]):
                    assert not np.shares_memory(new[key], old), key
            p = new

    def test_rejects_other_parameter_groups(self):
        params = {"w": np.zeros(2), "k": np.array(0.0)}
        state = adam_init(params)
        with pytest.raises(ValueError, match="parameter groups"):
            adam_step({"w": np.zeros(2)}, {"w": np.zeros(2)}, state, lr=0.1)
        with pytest.raises(KeyError):
            adam_step({"w": np.zeros(2), "b": np.zeros(1)}, params, state, lr=0.1)

    def test_symmetrizes_lambda_gamma(self):
        params = {"Lambda": np.zeros((2, 2)), "Gamma": np.zeros((2, 2))}
        grads = {
            "Lambda": np.array([[0.0, 1.0], [0.0, 0.0]]),
            "Gamma": np.array([[0.0, 0.0], [2.0, 0.0]]),
        }
        state = adam_init(params)
        new = adam_step(params, grads, state, lr=0.1)
        assert np.allclose(new["Lambda"], new["Lambda"].T)
        assert np.allclose(new["Gamma"], new["Gamma"].T)


class TestSampleBatch:
    def _grouped_set(self, rng, n_groups=4, per=20):
        rows = []
        for g in range(n_groups):
            for i in range(per):
                rows.append((f"g{g}_{i}", f"l{g % 2}", f"d{g // 2}", rng.standard_normal(2)))
        ids, langs, dsets, vecs = zip(*rows)
        return EmbeddingSet(ids, langs, dsets, np.vstack(vecs))

    @staticmethod
    def _groups(es):
        return group_rows(zip(es.languages, es.datasets))[1]

    def test_even_quota(self):
        rng = np.random.default_rng(11)
        es = self._grouped_set(rng)
        idx = sample_batch(self._groups(es), 8, np.random.default_rng(0))
        assert len(idx) == 8
        keys = [(es.languages[i], es.datasets[i]) for i in idx]
        for key in set(keys):
            assert keys.count(key) == 2

    def test_truncated_quota(self):
        rng = np.random.default_rng(12)
        es = self._grouped_set(rng)
        idx = sample_batch(self._groups(es), 10, np.random.default_rng(1))
        assert len(idx) == 10
        keys = [(es.languages[i], es.datasets[i]) for i in idx]
        counts = sorted((keys.count(k) for k in set(keys)), reverse=True)
        assert counts == [3, 3, 2, 2]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        sizes=st.lists(
            st.one_of(st.just(1), st.integers(1, 300)), min_size=1, max_size=40
        ),
        batch=st.sampled_from(["below", "equal", "above", "large"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_one_draw_call_per_group(self, sizes, batch, seed):
        # Some quotas are 0 when the batch is smaller than the group count,
        # and an excess is trimmed whenever it is not a multiple of it.
        rng = np.random.default_rng(seed)
        G = len(sizes)
        batch_size = {
            "below": max(1, G - 1 - int(rng.integers(0, G))),
            "equal": G,
            "above": G + 1 + int(rng.integers(0, 3 * G)),
            "large": int(rng.integers(1000, 3000)),
        }[batch]
        order = rng.permutation(sum(sizes))
        groups = np.split(order, np.cumsum(sizes)[:-1])
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = sample_batch(groups, batch_size, got_rng)
            want = sample_batch_per_group(groups, batch_size, want_rng)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(13)
        es = self._grouped_set(rng)
        a = sample_batch(self._groups(es), 16, np.random.default_rng(7))
        b = sample_batch(self._groups(es), 16, np.random.default_rng(7))
        assert np.array_equal(a, b)


def small_training_problem(seed=0, n_lang=4, dim=6, spread=4.0):
    rng = np.random.default_rng(seed)
    means = separated_means(rng, n_lang, dim, spread=spread)
    train_set = synthetic_set(rng, means, n_per=30, sigma=0.5, prefix="tr")
    dev_set = synthetic_set(rng, means, n_per=10, sigma=0.5, prefix="dev")
    backend = init_from_generative(train_set, None, out_dim=n_lang - 1)
    trials = generate_trials(dev_set, backend.detector_labels)
    return train_set, dev_set, trials, backend


class TestTrainLoop:
    CFG = TrainConfig(
        batch_size=64,
        pi=0.1,
        stages=((40, 1e-3),),
        finetune=(10, 1e-4),
        checkpoint_every=10,
    )

    def test_returned_backend_shares_no_array_with_the_log(self):
        # Checkpoints hold Adam's arrays uncopied; the returned backend copies.
        train_set, dev_set, trials, backend = small_training_problem()
        result = train(backend, train_set, [(dev_set, trials)], self.CFG, seed=0)
        b = result.backend
        held = [b.preproc.A, b.preproc.b, b.params.c, b.detectors]
        logged = [p for cp in result.log for p in cp.params.values()]
        assert not any(np.shares_memory(h, p) for h in held for p in logged)

    def test_returned_model_not_worse_than_init(self):
        train_set, dev_set, trials, backend = small_training_problem()
        result = train(backend, train_set, [(dev_set, trials)], self.CFG, seed=0)
        init_dev = result.log[0].avg_dev
        assert result.best_avg_dev <= init_dev

    def test_deterministic_log(self):
        from langrec.training import format_training_log

        logs = []
        for _ in range(2):
            train_set, dev_set, trials, backend = small_training_problem()
            result = train(backend, train_set, [(dev_set, trials)], self.CFG, seed=3)
            logs.append(format_training_log(result.log))
        assert logs[0] == logs[1]

    def test_dcf_selection_restores_lowest_actual_dcf(self):
        # Overlapping languages, so the dev DCF moves between checkpoints.
        train_set, dev_set, trials, backend = small_training_problem(spread=1.0)
        cfg = dataclasses.replace(self.CFG, select_metric="dcf")
        result = train(backend, train_set, [(dev_set, trials)], cfg, seed=0)
        rows, cols = trial_index(dev_set, trials, backend.detector_labels)
        dev_scores = []
        for cp in result.log:
            dev_scores.append(with_params(result.backend, cp.params).score_matrix(dev_set.vectors))
            assert cp.dev_losses == (actual_dcf(dev_scores[-1][rows, cols], trials.is_target)[2],)
        best = min(result.log, key=lambda c: (c.avg_dev, c.index))
        assert best.avg_dev < result.log[0].avg_dev
        assert result.best_index == best.index
        assert np.array_equal(result.backend.score_matrix(dev_set.vectors), dev_scores[best.index])

    def test_loss_halves_on_separable_data(self):
        # Separable languages with a strong dataset shift: the single-Gaussian
        # within-class assumption of the generative init is wrong, so
        # discriminative training has headroom.
        rng = np.random.default_rng(1)
        dim = 6
        lang_means = {f"l{i}": 4.0 * rng.standard_normal(dim) for i in range(4)}
        shifts = [2.0 * rng.standard_normal(dim) for _ in range(2)]

        def build(prefix, n_per):
            ids, langs, dsets, vecs = [], [], [], []
            for lang, mean in lang_means.items():
                for k, shift in enumerate(shifts):
                    for i in range(n_per):
                        ids.append(f"{prefix}_{lang}_d{k}_{i}")
                        langs.append(lang)
                        dsets.append(f"d{k}")
                        vecs.append(mean + shift + 0.4 * rng.standard_normal(dim))
            return EmbeddingSet(ids, langs, dsets, np.vstack(vecs))

        train_set, dev_set = build("tr", 25), build("dev", 8)
        backend = init_from_generative(train_set, None, out_dim=3)
        trials = generate_trials(dev_set, backend.detector_labels)
        cfg = TrainConfig(
            batch_size=128,
            pi=0.1,
            stages=((300, 1e-3),),
            finetune=(30, 1e-5),
            checkpoint_every=50,
        )
        result = train(backend, train_set, [(dev_set, trials)], cfg, seed=0)
        assert result.best_avg_dev < 0.5 * result.log[0].avg_dev

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_falls_back_to_best_checkpoint(self, caplog):
        # Finite but huge parameters whose composed scores overflow to +inf,
        # mimicking blown-up training: the first batch aborts on the init
        # checkpoint.
        train_set, dev_set, trials, backend = small_training_problem()
        params = get_params(backend)
        params["Lambda"] = np.zeros_like(params["Lambda"])
        params["Gamma"] = 1e200 * np.eye(params["Gamma"].shape[0])
        params["detectors"] = 1e100 * np.ones_like(params["detectors"])
        backend = with_params(backend, params)
        with caplog.at_level("WARNING"):
            result = train(backend, train_set, [(dev_set, trials)], self.CFG, seed=0)
        assert result.diverged
        assert result.best_index == 0
        assert len(result.log) == 1
        assert any("diverged" in r.message for r in caplog.records)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_names_the_problem(self):
        rng = np.random.default_rng(20)
        params = random_flat_params(rng, 4, 2, 3)
        params["k"] = np.array(np.nan)
        X = rng.standard_normal((6, 4))
        y = rng.integers(0, 3, size=6)
        with pytest.raises(FloatingPointError, match="non-finite loss"):
            flat_loss_grads(params, X, y, 0.1)
        from langrec.training import _check_finite

        with pytest.raises(FloatingPointError, match="parameter group 'A'"):
            _check_finite(0.5, {"A": np.array([np.inf])})
        grads = {"A": np.zeros((2, 3)), "b": np.array([0.0, np.nan]), "k": np.array(np.inf)}
        with pytest.raises(FloatingPointError, match="parameter group 'b'"):
            _check_finite(0.5, grads)
        _check_finite(0.5, {"A": np.zeros((2, 3)), "k": np.array(1.0)})

    def test_unknown_training_language_rejected(self):
        train_set, dev_set, trials, backend = small_training_problem()
        bad = FlatBackend(tuple(f"other{i}" for i in range(backend.n_detectors)), backend.theta)
        with pytest.raises(ValueError, match="without a detector"):
            train(bad, train_set, [(dev_set, trials)], self.CFG)


class TestSchedule:
    """Two stages and a fine-tune, a checkpoint every 2 batches and at the
    end of each stage."""

    A, B, C = 1e-3, 2e-3, 1e-4
    CFG = TrainConfig(
        batch_size=32, pi=0.1, stages=((5, A), (3, B)), finetune=(2, C), checkpoint_every=2
    )

    @staticmethod
    def script_dev_losses(monkeypatch, losses):
        """Checkpoint i gets the dev loss losses[i]."""
        it = iter(losses)
        monkeypatch.setattr(langrec.training, "dev_evaluator", lambda *a: lambda b: (next(it),))

    def test_checkpoint_positions_and_learning_rates(self):
        train_set, dev_set, trials, backend = small_training_problem()
        log = train(backend, train_set, [(dev_set, trials)], self.CFG).log
        A, B, C = self.A, self.B, self.C
        assert [cp.index for cp in log] == list(range(7))
        assert [cp.batches_seen for cp in log] == [0, 2, 4, 5, 6, 8, 10]
        assert [cp.lr for cp in log] == [0.0, A, A, A, B, B, C]

    def test_finetune_starts_from_the_best_checkpoint(self, monkeypatch):
        # Checkpoint 2 is best; stage 2 still continues from stage 1's last
        # parameters (checkpoint 3), and the fine-tune from checkpoint 2's.
        self.script_dev_losses(monkeypatch, [5.0, 4.0, 1.0, 3.0, 2.0, 6.0, 7.0])
        starts = []

        def spy(params):
            starts.append(params)
            return adam_init(params)

        monkeypatch.setattr(langrec.training, "adam_init", spy)
        train_set, dev_set, trials, backend = small_training_problem()
        result = train(backend, train_set, [(dev_set, trials)], self.CFG)
        log = result.log
        assert len(starts) == 3
        assert starts[1] is log[3].params
        assert starts[2] is log[2].params
        assert result.best_index == 2 and not result.diverged

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_in_finetune_returns_the_best_stage_checkpoint(self, monkeypatch, caplog):
        # A huge fine-tune rate: its first step blows the parameters up and
        # its second batch has a non-finite loss.
        self.script_dev_losses(monkeypatch, [5.0, 4.0, 3.0, 1.0, 2.0, 6.0])
        train_set, dev_set, trials, backend = small_training_problem()
        cfg = dataclasses.replace(self.CFG, finetune=(2, 1e150))
        with caplog.at_level("WARNING"):
            result = train(backend, train_set, [(dev_set, trials)], cfg)
        assert result.diverged
        assert any("diverged" in r.message for r in caplog.records)
        assert [cp.batches_seen for cp in result.log] == [0, 2, 4, 5, 6, 8]
        assert result.best_index == 3 and result.best_avg_dev == 1.0
        got = get_params(result.backend)
        assert all(np.array_equal(got[k], p) for k, p in result.log[3].params.items())


class TestMultiSeed:
    def test_single_seed_equals_train(self):
        cfg = TrainConfig(
            batch_size=64, pi=0.1, stages=((20, 1e-3),), finetune=(5, 1e-4),
            checkpoint_every=10, seeds=(4,),
        )
        train_set, dev_set, trials, backend = small_training_problem()
        r1 = train(backend, train_set, [(dev_set, trials)], cfg, seed=4)
        r2 = multi_seed_train(backend, train_set, [(dev_set, trials)], cfg)
        assert r2.seed == 4
        assert r2.best_avg_dev == pytest.approx(r1.best_avg_dev, rel=1e-12)

    def test_duplicate_seeds_collapse(self):
        cfg = TrainConfig(
            batch_size=64, pi=0.1, stages=((10, 1e-3),), finetune=(2, 1e-4),
            checkpoint_every=5, seeds=(2, 2, 2),
        )
        train_set, dev_set, trials, backend = small_training_problem()
        r = multi_seed_train(backend, train_set, [(dev_set, trials)], cfg)
        assert r.seed == 2

    def test_winner_minimizes_dev(self):
        cfg = TrainConfig(
            batch_size=64, pi=0.1, stages=((15, 1e-3),), finetune=(2, 1e-4),
            checkpoint_every=5, seeds=(0, 1, 2),
        )
        train_set, dev_set, trials, backend = small_training_problem()
        results = [
            train(backend, train_set, [(dev_set, trials)], cfg, seed=s) for s in cfg.seeds
        ]
        best = multi_seed_train(backend, train_set, [(dev_set, trials)], cfg)
        assert best.best_avg_dev == min(r.best_avg_dev for r in results)

    def test_training_leaves_its_backend_as_it_was(self):
        from langrec.hier import init_hier
        from test_backend import TestInitHier

        cfg = TrainConfig(
            batch_size=64, pi=0.1, stages=((10, 1e-3),), finetune=(2, 1e-4),
            checkpoint_every=5, seeds=(0, 1),
        )
        rng = np.random.default_rng(21)
        train_set, cmap, means = TestInitHier()._clustered_data(rng)
        dev_set = synthetic_set(rng, means, n_per=10, sigma=0.4, prefix="dev")
        X = dev_set.vectors
        for backend in (
            init_from_generative(train_set, None, out_dim=3),
            init_hier(train_set, cmap, None, 2, 3),
        ):
            dev = [(dev_set, generate_trials(dev_set, backend.detector_labels))]
            before = backend.score_matrix(X).tobytes()
            log = train(backend, train_set, dev, cfg).log
            multi_seed_train(backend, train_set, dev, cfg)
            assert backend.score_matrix(X).tobytes() == before
            # Training moved its own parameters.
            assert any(np.any(p != log[0].params[k]) for k, p in log[-1].params.items())


class TestRowCounts:
    """A batch of distinct rows with counts is the batch that repeats each row
    that many times: the same loss and gradients up to rounding. train scores
    each distinct drawn row once, with its count."""

    @staticmethod
    def problem(rng, kind, n_rows):
        """(loss_grads(params, X, y, counts), params, X, y) on random params."""
        if kind == "flat":
            params = random_flat_params(rng, 8, 3, 4)
            n_det = 4

            def loss_grads(p, X, y, counts=None):
                return flat_loss_grads(p, X, y, 0.1, counts=counts)

        else:
            backend = build_hier_backend(rng, singleton=kind == "hier-singleton")
            params, info = get_params(backend), backend.combine
            alpha = 0.3 if kind == "hier" else 0.0
            n_det = backend.n_detectors

            def loss_grads(p, X, y, counts=None):
                return hier_loss_grads(p, info, X, y, 0.1, alpha, counts=counts)

        X = rng.standard_normal((n_rows, 8))
        return loss_grads, params, X, rng.integers(0, n_det, size=n_rows)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(["flat", "hier", "hier-singleton"]),
        counts=st.lists(st.integers(1, 5), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_counts_match_the_repeated_batch(self, kind, counts, seed):
        # "hier" has alpha = 0.3, so the cluster BCE is weighted too;
        # "hier-singleton" has alpha = 0 and a language without a stage 2.
        rng = np.random.default_rng(seed)
        loss_grads, params, X, y = self.problem(rng, kind, len(counts))
        counts = np.array(counts)
        order = rng.permutation(counts.sum())  # the repeats in drawn order
        rep = np.repeat(np.arange(len(counts)), counts)[order]
        want_loss, want = loss_grads(params, X[rep], y[rep])
        loss, got = loss_grads(params, X, y, counts)
        assert loss == pytest.approx(want_loss, rel=1e-12, abs=0.0)
        assert list(got) == list(want)
        for key, g in want.items():
            assert np.max(np.abs(got[key] - g)) <= 1e-12 * np.max(np.abs(g)), key

    def test_unit_counts_are_bit_identical_to_no_counts(self):
        for kind in ("flat", "hier"):
            loss_grads, params, X, y = self.problem(np.random.default_rng(40), kind, 9)
            want_loss, want = loss_grads(params, X, y)
            loss, got = loss_grads(params, X, y, np.ones(9, dtype=np.intp))
            assert loss == want_loss
            assert all(got[key].tobytes() == g.tobytes() for key, g in want.items())

    def test_finite_difference_with_counts(self):
        rng = np.random.default_rng(41)
        counts = np.array([3, 1, 2, 5, 1, 4, 2, 1])
        for kind in ("flat", "hier"):
            loss_grads, params, X, y = self.problem(rng, kind, len(counts))
            err = finite_difference_check(lambda p: loss_grads(p, X, y, counts), params)
            assert err <= 1e-4, kind

    def test_counts_must_match_the_rows(self):
        with pytest.raises(ValueError, match="one count per row"):
            _bce_loss_grad(np.zeros((3, 2)), np.array([0, 1, 0]), 0.1, counts=np.ones(2))

    @pytest.mark.parametrize("kind", ["flat", "hier"])
    def test_train_scores_each_drawn_row_once(self, monkeypatch, kind):
        if kind == "flat":
            train_set, dev_set, trials, backend = small_training_problem()
            dev = [(dev_set, trials)]
        else:
            from langrec.hier import init_hier
            from test_backend import TestInitHier

            rng = np.random.default_rng(21)
            train_set, cmap, means = TestInitHier()._clustered_data(rng)
            backend = init_hier(train_set, cmap, None, 2, 3)
            dev_set = synthetic_set(rng, means, n_per=10, sigma=0.4, prefix="dev")
            dev = [(dev_set, generate_trials(dev_set, backend.detector_labels))]
        drawn, seen = [], []

        def draw(*args):
            drawn.append(sample_batch(*args))
            return drawn[-1]

        name = f"{kind}_loss_grads"
        loss_grads = getattr(langrec.training, name)

        def spy(params, *args, X, label_idx, counts=None, **kwargs):
            seen.append((X, label_idx, counts))
            return loss_grads(params, *args, X=X, label_idx=label_idx, counts=counts, **kwargs)

        monkeypatch.setattr(langrec.training, "sample_batch", draw)
        monkeypatch.setattr(langrec.training, name, spy)
        cfg = TrainConfig(batch_size=64, pi=0.1, stages=((6, 1e-3),), finetune=(2, 1e-4))
        train(backend, train_set, dev, cfg)
        assert len(seen) == len(drawn) == 8
        labels = {lab: i for i, lab in enumerate(backend.detector_labels)}
        label_of = {tuple(x): labels[l] for x, l in zip(train_set.vectors, train_set.languages)}
        assert len(label_of) == len(train_set)  # rows are told apart by their vectors
        repeats = 0
        for idx, (X, y, counts) in zip(drawn, seen):
            assert counts is not None and counts.sum() == cfg.batch_size
            rows = [tuple(x) for x in X]
            assert len(set(rows)) == len(rows)
            assert list(y) == [label_of[r] for r in rows]
            assert sorted(np.repeat(rows, counts, axis=0).tolist()) == sorted(
                train_set.vectors[idx].tolist()
            )
            repeats += int(counts.max() > 1)
        assert repeats > 0
