import logging

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import multivariate_normal

from langrec import plda
from langrec.plda import (
    PairScoreParams,
    PldaModel,
    _chol_inverse,
    _chol_solve,
    _diagonal_basis,
    apply_llr_tables,
    approx_llr,
    em_train,
    enrollment_stats,
    exact_llr,
    exact_llr_tables,
    pair_score,
    pair_score_matrix,
    set_log_marginal,
    to_pair_params,
)

from test_preproc import _Messages

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def class_stats(X, labels, weights):
    classes = sorted(set(labels))
    labels = np.array(labels, dtype=object)
    masks = [labels == cls for cls in classes]
    n_l = np.array([weights[m].sum() for m in masks])
    f_l = np.vstack([weights[m] @ X[m] for m in masks])
    return masks, n_l, f_l


def chol_inverse(M):
    inv = scipy.linalg.cho_solve((np.linalg.cholesky(M), True), np.eye(M.shape[0]))
    return 0.5 * (inv + inv.T)


def chol_logdet(M):
    return 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(M)))))


def weighted_log_likelihood(model, X, labels, weights=None):
    """Reference for em_train's objective: the weighted marginal
    log-likelihood summed class by class, with one Cholesky per class."""
    n, d = X.shape
    weights = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    weights = weights * (n / weights.sum())
    masks, n_l, f_l = class_stats(X, labels, weights)
    B, W, mu = model.B_prec, model.W, model.mu
    Bmu = B @ mu
    xWx = np.einsum("ij,jk,ik->i", X, W, X)
    ll = 0.0
    for mask, n_j, f_j in zip(masks, n_l, f_l):
        Lam = B + n_j * W
        gamma = Bmu + W @ f_j
        ll += 0.5 * (
            -n_j * d * np.log(2.0 * np.pi)
            + n_j * chol_logdet(W)
            + chol_logdet(B)
            - chol_logdet(Lam)
            - float(mu @ Bmu)
            - float(weights[mask] @ xWx[mask])
            + float(gamma @ np.linalg.solve(Lam, gamma))
        )
    return ll


def reference_em(X, labels, weights, n_iters):
    """em_train's EM as a per-class loop: the moment initialisation from
    em_train itself, then n_iters iterations with a Cholesky solve per class."""
    model = em_train(X, labels, weights, n_iters=0)
    n = X.shape[0]
    weights = weights * (n / weights.sum())
    masks, n_l, f_l = class_stats(X, labels, weights)
    J, d = len(masks), X.shape[1]
    S_tot = (weights[:, None] * X).T @ X
    mu, B, W = model.mu, model.B_prec, model.W
    for _ in range(n_iters):
        y_hat = np.empty((J, d))
        y_cov = np.empty((J, d, d))
        for j in range(J):
            y_cov[j] = chol_inverse(B + n_l[j] * W)
            y_hat[j] = y_cov[j] @ (B @ mu + W @ f_l[j])
        mu = y_hat.mean(axis=0)
        Dy = y_hat - mu
        B_cov = (y_cov.sum(axis=0) + Dy.T @ Dy) / J
        W_cov = S_tot.copy()
        for j in range(J):
            cross = np.outer(f_l[j], y_hat[j])
            W_cov += -cross - cross.T + n_l[j] * (np.outer(y_hat[j], y_hat[j]) + y_cov[j])
        B, W = chol_inverse(B_cov), chol_inverse(W_cov / weights.sum())
    return PldaModel(mu=mu, B_prec=B, W=W)


def reference_pair_params(model):
    """to_pair_params through Cholesky inverses of B + W and B + 2W."""
    B, W, mu = model.B_prec, model.W, model.mu
    Q1_inv, Q2_inv = chol_inverse(B + W), chol_inverse(B + 2.0 * W)
    Bmu = B @ mu
    k = (
        -0.5 * chol_logdet(B)
        - 0.5 * chol_logdet(B + 2.0 * W)
        + chol_logdet(B + W)
        + 0.5 * float(mu @ Bmu)
        + 0.5 * float(Bmu @ Q2_inv @ Bmu)
        - float(Bmu @ Q1_inv @ Bmu)
    )
    return PairScoreParams(
        Lambda=0.5 * W @ Q2_inv @ W,
        Gamma=0.5 * W @ (Q2_inv - Q1_inv) @ W,
        c=W @ (Q2_inv - Q1_inv) @ Bmu,
        k=k,
    )


def integration_log_marginal_1d(mu, b_prec, w_prec, xs):
    """Oracle: numerical integration over the scalar latent y."""

    def integrand(y):
        val = np.exp(-0.5 * b_prec * (y - mu) ** 2) * np.sqrt(b_prec / (2 * np.pi))
        for x in xs:
            val *= np.exp(-0.5 * w_prec * (x - y) ** 2) * np.sqrt(w_prec / (2 * np.pi))
        return val

    total, _ = quad(integrand, -np.inf, np.inf)
    return np.log(total)


def random_model(rng, d):
    A = rng.standard_normal((d, d))
    B = A @ A.T / d + 0.4 * np.eye(d)
    C = rng.standard_normal((d, d))
    W = C @ C.T / d + 0.4 * np.eye(d)
    return PldaModel(mu=rng.standard_normal(d), B_prec=B, W=W)


class TestPldaModel:
    def test_non_positive_basis_eigenvalue_rejected(self):
        # B_prec passes Cholesky, but with condition number 1e18 its
        # diagonal-basis eigenvalues relative to W round to below zero.
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        B = Q @ np.diag([1e16, 1e-2, 1.0]) @ Q.T
        B = 0.5 * (B + B.T)
        np.linalg.cholesky(B)
        with pytest.raises(ValueError, match="diagonal-basis eigenvalue"):
            PldaModel(mu=np.zeros(3), B_prec=B, W=np.eye(3))


class TestSetLogMarginal:
    def test_unit_1d_fixture(self):
        m = PldaModel(mu=np.zeros(1), B_prec=np.eye(1), W=np.eye(1))
        got = set_log_marginal(m, np.array([[0.0]]))
        expected = -0.5 * np.log(2 * np.pi) - 0.5 * np.log(2.0)  # about -1.26551
        assert abs(got - expected) < 1e-12
        oracle = integration_log_marginal_1d(0.0, 1.0, 1.0, [0.0])
        assert abs(got - oracle) < 1e-9

    def test_matches_integration_random_1d(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            mu, b, w = rng.normal(), rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
            m = PldaModel(mu=np.array([mu]), B_prec=np.array([[b]]), W=np.array([[w]]))
            xs = rng.normal(size=rng.integers(1, 5))
            got = set_log_marginal(m, xs.reshape(-1, 1))
            assert abs(got - integration_log_marginal_1d(mu, b, w, xs)) < 1e-8

    def test_single_vector_is_analytic_marginal(self):
        rng = np.random.default_rng(2)
        for d in (1, 3, 6):
            m = random_model(rng, d)
            x = rng.standard_normal(d)
            cov = np.linalg.inv(m.B_prec) + np.linalg.inv(m.W)
            expected = multivariate_normal.logpdf(x, mean=m.mu, cov=cov)
            assert abs(set_log_marginal(m, x[None, :]) - expected) < 1e-9

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        m = random_model(rng, 4)
        X = rng.standard_normal((5, 4))
        a = set_log_marginal(m, X)
        b = set_log_marginal(m, X[::-1])
        assert abs(a - b) < 1e-10

    def test_point_prior_limit(self):
        # Huge between precision pins the latent at mu: the set marginal
        # degenerates to an independent within-class likelihood.
        rng = np.random.default_rng(4)
        d = 3
        m_base = random_model(rng, d)
        m = PldaModel(mu=m_base.mu, B_prec=1e8 * np.eye(d), W=m_base.W)
        X = rng.standard_normal((4, d))
        got = set_log_marginal(m, X)
        expected = sum(
            multivariate_normal.logpdf(x, mean=m.mu, cov=np.linalg.inv(m.W)) for x in X
        )
        assert abs(got - expected) < 1e-3


class TestExactLlr:
    def test_unit_1d_fixture(self):
        m = PldaModel(mu=np.zeros(1), B_prec=np.eye(1), W=np.eye(1))
        got = exact_llr(m, np.array([[0.0]]), np.array([0.0]))
        expected = np.log(2.0) - 0.5 * np.log(3.0)  # about 0.14384
        assert abs(got - expected) < 1e-12

    def test_matches_integration_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            mu, b, w = rng.normal(), rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
            m = PldaModel(mu=np.array([mu]), B_prec=np.array([[b]]), W=np.array([[w]]))
            enroll = rng.normal(size=rng.integers(1, 4))
            test = rng.normal()
            got = exact_llr(m, enroll.reshape(-1, 1), np.array([test]))
            oracle = (
                integration_log_marginal_1d(mu, b, w, list(enroll) + [test])
                - integration_log_marginal_1d(mu, b, w, enroll)
                - integration_log_marginal_1d(mu, b, w, [test])
            )
            assert abs(got - oracle) < 1e-7

    def test_swap_symmetry_single_enrollment(self):
        rng = np.random.default_rng(6)
        m = random_model(rng, 4)
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        assert abs(exact_llr(m, a[None], b) - exact_llr(m, b[None], a)) < 1e-10

    def test_more_consistent_evidence_scores_higher(self):
        rng = np.random.default_rng(7)
        m = random_model(rng, 3)
        v = rng.standard_normal(3)
        one = exact_llr(m, v[None], v)
        two = exact_llr(m, np.vstack([v, v]), v)
        assert two > one

    def test_matrix_scorer_matches_scalar(self):
        rng = np.random.default_rng(8)
        m = random_model(rng, 4)
        groups = [rng.standard_normal((int(rng.integers(1, 5)), 4)) for _ in range(3)]
        X = rng.standard_normal((6, 4))
        stats = enrollment_stats(groups)
        mat = apply_llr_tables(exact_llr_tables(m, stats), X)
        for i in range(6):
            for j, g in enumerate(groups):
                assert abs(mat[i, j] - exact_llr(m, g, X[i])) < 1e-9


class TestPairParams:
    def test_equivalence_with_exact_llr(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            m = random_model(rng, d)
            params = to_pair_params(m)
            w_l = rng.standard_normal(d)
            w = rng.standard_normal(d)
            expected = exact_llr(m, w_l[None], w)
            got = pair_score(params, w_l, w)
            assert abs(got - expected) <= 1e-8 * (1.0 + abs(expected))

    def test_zero_mean_gives_zero_c(self):
        rng = np.random.default_rng(10)
        m0 = random_model(rng, 3)
        m = PldaModel(mu=np.zeros(3), B_prec=m0.B_prec, W=m0.W)
        assert np.allclose(to_pair_params(m).c, 0.0, atol=1e-12)

    def test_lambda_scales_with_precisions(self):
        rng = np.random.default_rng(12)
        m = random_model(rng, 3)
        alpha = 2.5
        scaled = PldaModel(mu=m.mu, B_prec=alpha * m.B_prec, W=alpha * m.W)
        assert np.allclose(
            to_pair_params(scaled).Lambda, alpha * to_pair_params(m).Lambda, atol=1e-10
        )

    def test_pair_score_zero_params(self):
        p = PairScoreParams(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2), 0.0)
        assert pair_score(p, np.ones(2), np.ones(2)) == 0.0

    def test_pair_score_symmetry(self):
        rng = np.random.default_rng(13)
        m = random_model(rng, 4)
        p = to_pair_params(m)
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        assert abs(pair_score(p, a, b) - pair_score(p, b, a)) < 1e-12

    @SETTINGS
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_matches_cholesky_reference(self, d, seed):
        m = random_model(np.random.default_rng(seed), d)
        got, want = to_pair_params(m), reference_pair_params(m)
        scale = max(np.abs(want.Lambda).max(), np.abs(want.Gamma).max(),
                    np.abs(want.c).max(), abs(want.k))
        for name in ("Lambda", "Gamma", "c", "k"):
            assert np.abs(getattr(got, name) - getattr(want, name)).max() <= 1e-12 * scale, name

    def test_pair_score_matrix_matches_scalar(self):
        rng = np.random.default_rng(14)
        m = random_model(rng, 3)
        p = to_pair_params(m)
        dets = rng.standard_normal((4, 3))
        U = rng.standard_normal((5, 3))
        mat = pair_score_matrix(p, dets, U)
        for i in range(5):
            for j in range(4):
                assert abs(mat[i, j] - pair_score(p, dets[j], U[i])) < 1e-10


class TestApproxLlr:
    def test_single_vector_equals_pair_score(self):
        rng = np.random.default_rng(15)
        m = random_model(rng, 3)
        p = to_pair_params(m)
        v, t = rng.standard_normal(3), rng.standard_normal(3)
        assert approx_llr(p, v[None], t) == pair_score(p, v, t)

    def test_duplicate_enrollment_idempotent(self):
        rng = np.random.default_rng(16)
        m = random_model(rng, 3)
        p = to_pair_params(m)
        v, t = rng.standard_normal(3), rng.standard_normal(3)
        assert abs(approx_llr(p, np.vstack([v, v]), t) - approx_llr(p, v[None], t)) < 1e-12

    def test_differs_from_exact_for_multiple_enrollments(self):
        rng = np.random.default_rng(17)
        m = random_model(rng, 3)
        p = to_pair_params(m)
        enroll = rng.standard_normal((3, 3))
        t = rng.standard_normal(3)
        assert abs(approx_llr(p, enroll, t) - exact_llr(m, enroll, t)) > 1e-6


@st.composite
def single_point_classes(draw):
    """(X, labels, weights, bump): 2-5 classes in 1-4 dimensions whose rows
    are copies of one point per class (unit-norm points half of the time, as
    after length normalisation), in shuffled order, with positive weights
    over six decades. bump is 1 at one entry of a row whose class has at
    least 2 rows, and 0 elsewhere."""
    d = draw(st.integers(1, 4))
    sizes = [draw(st.integers(2, 5))] + draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.standard_normal((len(sizes), d))
    if draw(st.booleans()):
        points /= np.linalg.norm(points, axis=1, keepdims=True)
    order = rng.permutation(sum(sizes))
    labels = np.repeat(np.arange(len(sizes)), sizes)[order]
    weights = 10.0 ** rng.uniform(-3.0, 3.0, size=len(labels))
    bump = np.zeros((len(labels), d))
    bump[rng.choice(np.flatnonzero(np.array(sizes)[labels] > 1)), rng.integers(d)] = 1.0
    return points[labels], labels, weights, bump


class TestEmTrain:
    def _sample(self, rng, n_classes, n_per, d, between=1.0, within=1.0, mu=None):
        mu = np.zeros(d) if mu is None else mu
        X, labels = [], []
        for c in range(n_classes):
            y = mu + rng.standard_normal(d) * np.sqrt(between)
            X.append(y + rng.standard_normal((n_per, d)) * np.sqrt(within))
            labels += [f"c{c}"] * n_per
        return np.vstack(X), labels

    def test_recovers_known_1d_model(self):
        rng = np.random.default_rng(20)
        X, labels = self._sample(rng, 100, 100, 1)
        model = em_train(X, labels, n_iters=50)
        between_var = 1.0 / model.B_prec[0, 0]
        within_var = 1.0 / model.W[0, 0]
        assert abs(between_var - 1.0) < 0.15
        assert abs(within_var - 1.0) < 0.15

    def test_zero_iters_returns_moment_init(self):
        rng = np.random.default_rng(21)
        X, labels = self._sample(rng, 5, 30, 2)
        w = np.ones(len(labels))
        model = em_train(X, labels, w, n_iters=0)
        V = w.sum()
        assert np.allclose(model.mu, w @ X / V)
        # Within covariance: weighted average of per-class scatter.
        labels_arr = np.array(labels, dtype=object)
        W_cov = np.zeros((2, 2))
        for cls in sorted(set(labels)):
            mask = labels_arr == cls
            D = X[mask] - X[mask].mean(axis=0)
            W_cov += D.T @ D
        W_cov /= V
        assert np.allclose(np.linalg.inv(model.W), W_cov, atol=1e-8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        rng = np.random.default_rng(22)
        X, labels = self._sample(rng, 4, 20, 2)
        w = np.ones(len(labels))
        w[3] = bad
        with pytest.raises(ValueError, match="weights must be finite and positive"):
            em_train(X, labels, w, n_iters=2)

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(22)
        X, labels = self._sample(rng, 4, 20, 2)
        w = rng.uniform(0.5, 1.5, size=len(labels))
        m1 = em_train(X, labels, w, n_iters=10)
        m2 = em_train(X, labels, 2.0 * w, n_iters=10)
        assert np.allclose(m1.mu, m2.mu, atol=1e-10)
        assert np.allclose(m1.B_prec, m2.B_prec, atol=1e-10)
        assert np.allclose(m1.W, m2.W, atol=1e-10)

    def test_monotone_log_likelihood(self):
        rng = np.random.default_rng(23)
        for trial in range(5):
            d = int(rng.integers(1, 4))
            X, labels = self._sample(rng, 6, 15, d, between=2.0, within=0.5)
            w = rng.uniform(0.2, 2.0, size=len(labels))
            _, trace = em_train(X, labels, w, n_iters=30, tol=0.0, return_trace=True)
            trace = np.array(trace)
            assert np.all(np.diff(trace) >= -1e-8 * (1.0 + np.abs(trace[:-1])))

    def test_trace_matches_weighted_log_likelihood(self):
        rng = np.random.default_rng(24)
        X, labels = self._sample(rng, 4, 10, 2)
        w = rng.uniform(0.5, 1.5, size=len(labels))
        model, trace = em_train(X, labels, w, n_iters=7, tol=0.0, return_trace=True)
        assert abs(trace[-1] - weighted_log_likelihood(model, X, labels, w)) < 1e-8

    @SETTINGS
    @given(st.integers(1, 6), st.integers(0, 4), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_matches_per_class_reference(self, d, extra_classes, n_iters, seed):
        # Non-degenerate problems only: at least d + 1 classes, so that no
        # covariance needs a ridge.
        rng = np.random.default_rng(seed)
        X, labels = self._sample(rng, d + 1 + extra_classes, 6, d, between=2.0)
        w = rng.uniform(0.2, 2.0, size=len(labels))
        got, trace = em_train(X, labels, w, n_iters=n_iters, tol=0.0, return_trace=True)
        for it, ll in enumerate(trace, start=1):
            want = reference_em(X, labels, w, it)
            want_ll = weighted_log_likelihood(want, X, labels, w)
            assert abs(ll - want_ll) <= 1e-10 * abs(want_ll), it
        for name in ("mu", "B_prec", "W"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max(), name

    def test_two_classes_in_two_dims_fit_without_decrease(self):
        # No more classes than dimensions: the between-class covariance is
        # rank-deficient, and whether it is ridge-repaired must not depend on
        # the sign of roundoff (Cholesky failed on it only sometimes).
        rng = np.random.default_rng(25)
        X = np.vstack([rng.standard_normal((4, 2)) + rng.standard_normal(2) for _ in range(2)])
        model, trace = em_train(X, ["a"] * 4 + ["b"] * 4, n_iters=50, tol=0.0, return_trace=True)
        trace = np.array(trace)
        assert np.all(model.psi > 0.0)
        assert np.all(np.diff(trace) >= -1e-8 * (1.0 + np.abs(trace[:-1])))

    def test_reads_rows_only_through_class_statistics(self, monkeypatch):
        # The rows turn NaN once their class statistics are summed: a fit that
        # read them again would change. The total scatter is exactly symmetric.
        rng = np.random.default_rng(26)
        X, labels = self._sample(rng, 5, 20, 3)
        w = rng.uniform(0.5, 2.0, size=len(labels))
        want = em_train(X.copy(), labels, w, n_iters=3, tol=0.0)
        summed, log_likelihood, scatters = plda.class_stats, plda._log_likelihood, []

        def class_stats_then_erase(rows_of, rows, weights):
            stats = summed(rows_of, rows, weights)
            rows_of[...] = np.nan
            return stats

        def recording_log_likelihood(n_l, S_tot, *args):
            scatters.append(S_tot)
            return log_likelihood(n_l, S_tot, *args)

        monkeypatch.setattr(plda, "class_stats", class_stats_then_erase)
        monkeypatch.setattr(plda, "_log_likelihood", recording_log_likelihood)
        got = em_train(X, labels, w, n_iters=3, tol=0.0)
        assert np.isnan(X).all()
        for name in ("mu", "B_prec", "W"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert len(scatters) == 3 and all(np.array_equal(S, S.T) for S in scatters)

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).standard_normal((10, 2))
        with pytest.raises(ValueError, match="2 classes"):
            em_train(X, ["a"] * 10)

    def test_zero_within_scatter_fails_without_a_ridge_warning(self, caplog):
        # Every class is constant, so the within-class covariance is the zero
        # matrix: a trace-scaled ridge of 0 cannot repair it.
        X = np.array([[1.0], [1.0], [-1.0], [-1.0], [1.0]])
        with caplog.at_level("WARNING", logger="langrec.plda"):
            with pytest.raises(ValueError, match="within-class covariance is singular"):
                em_train(X, ["a", "a", "b", "b", "c"])
        assert not any("ridge" in r.message for r in caplog.records)

    @SETTINGS
    @given(single_point_classes())
    def test_single_point_classes_are_refused_by_exact_comparison(self, problem):
        # The within-class covariance is exactly zero. Summed in floating
        # point it can come out as roundoff of either sign, and a positive one
        # would be ridge-repaired into a fit: the rows decide, not the sums.
        X, labels, weights, bump = problem
        logger, handler = logging.getLogger("langrec.plda"), _Messages()
        logger.addHandler(handler)
        try:
            with pytest.raises(ValueError, match="^within-class covariance is singular: every "):
                em_train(X, labels, weights, n_iters=5)
        finally:
            logger.removeHandler(handler)
        assert not any("ridge" in m for m in handler.messages)
        try:
            em_train(X + bump, labels, weights, n_iters=5)
        except ValueError as exc:
            assert "single point" not in str(exc)

    def test_rank_deficient_within_scatter_is_ridge_repaired(self, caplog):
        # Within-class scatter only along the first axis: singular, positive trace.
        rng = np.random.default_rng(25)
        means = {"a": [0.0, 1.0], "b": [0.5, -1.0], "c": [-0.5, 0.25]}
        labels = [lab for lab in means for _ in range(6)]
        X = np.array([means[lab] for lab in labels])
        X[:, 0] += rng.standard_normal(len(labels))
        with caplog.at_level("WARNING", logger="langrec.plda"):
            em_train(X, labels, n_iters=0)
        assert any("ridge-repairing" in r.message for r in caplog.records)


def random_spd(rng, d):
    A = rng.standard_normal((d, d))
    M = A @ A.T / d + 0.1 * np.eye(d)
    return 0.5 * (M + M.T)


class TestLapackCalls:
    """EM's helpers hold to SciPy: _chol_solve is two
    scipy.linalg.solve_triangular calls, _chol_inverse one
    scipy.linalg.cho_solve call on the identity, and _diagonal_basis one
    scipy.linalg.eigh(B, W) call. They give SciPy's errors, and the same
    bits as the two triangular solves and eigh."""

    SIZES = range(1, 65)

    def test_chol_solve_matches_scipy(self):
        rng = np.random.default_rng(50)
        for d in self.SIZES:
            L = np.linalg.cholesky(random_spd(rng, d))
            for rhs in (np.eye(d), rng.standard_normal(d), rng.standard_normal((d, 3))):
                y = scipy.linalg.solve_triangular(L, rhs, lower=True)
                want = scipy.linalg.solve_triangular(L.T, y, lower=False)
                got = _chol_solve(L, rhs)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), d

    def test_chol_inverse_matches_two_triangular_solves(self):
        rng = np.random.default_rng(53)
        for d in self.SIZES:
            L = np.linalg.cholesky(random_spd(rng, d))
            y = scipy.linalg.solve_triangular(L, np.eye(d), lower=True)
            inv = scipy.linalg.solve_triangular(L.T, y, lower=False)
            assert _chol_inverse(L).tobytes() == (0.5 * (inv + inv.T)).tobytes(), d

    def test_diagonal_basis_matches_scipy(self):
        rng = np.random.default_rng(51)
        for d in self.SIZES:
            B, W = random_spd(rng, d), random_spd(rng, d)
            mu, f_l = rng.standard_normal(d), rng.standard_normal((4, d))
            psi, V = scipy.linalg.eigh(B, W)
            T = W @ V
            got = _diagonal_basis(B, W, mu, f_l)
            for a, b in zip(got, (psi, V, mu @ T, f_l @ T)):
                assert a.tobytes() == b.tobytes(), d
            model = PldaModel(mu=mu, B_prec=B, W=W)
            assert model.psi.tobytes() == psi.tobytes()
            assert model.T.tobytes() == T.tobytes()

    def test_non_positive_definite_w_raises_as_scipy_does(self):
        rng = np.random.default_rng(52)
        for d in (1, 3, 8):
            B = random_spd(rng, d)
            W = random_spd(rng, d)
            W[-1, -1] = -1.0
            with pytest.raises(np.linalg.LinAlgError) as want:
                scipy.linalg.eigh(B, W)
            with pytest.raises(np.linalg.LinAlgError) as got:
                _diagonal_basis(B, W, np.zeros(d), np.zeros((2, d)))
            assert str(got.value) == str(want.value)

    def test_non_finite_input_raises_as_scipy_does(self):
        L, B = np.eye(3), np.eye(3)
        bad = np.array([[1.0, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, np.nan]])
        with pytest.raises(ValueError) as want:
            scipy.linalg.solve_triangular(L, bad, lower=True)
        for args in ((L, bad), (bad, np.eye(3)), (L, bad[:, 1])):
            with pytest.raises(ValueError) as got:
                _chol_solve(*args)
            assert str(got.value) == str(want.value)
        for args in ((bad, B), (B, bad)):
            with pytest.raises(ValueError) as got:
                _diagonal_basis(*args, np.zeros(3), np.zeros((2, 3)))
            assert str(got.value) == str(want.value)
