"""Two-covariance PLDA.

The generative model places a latent class mean y ~ N(mu, B_prec^-1) and
observations x | y ~ N(y, W^-1), with B_prec and W the between- and
within-class precision matrices. This module trains the model by weighted
EM, evaluates the exact multi-enrollment log-likelihood ratio, and converts
the model into the four pairwise scoring parameters (Lambda, Gamma, c, k).

Batched exact scoring works in the basis that simultaneously diagonalises
the two precisions (Ioffe, ECCV 2006): there W = I and B_prec = diag(psi),
so every B_prec + nW is diagonal.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

logger = logging.getLogger(__name__)

_SYM_TOL = 1e-10
_RIDGE_SCALE = 1e-8
_LOG_2PI = np.log(2.0 * np.pi)


def _check_symmetric(M: np.ndarray, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square")
    scale = max(1.0, np.abs(M).max())
    if np.abs(M - M.T).max() > _SYM_TOL * scale:
        raise ValueError(f"{name} is not symmetric within {_SYM_TOL}")
    return 0.5 * (M + M.T)


def _cholesky_or_repair(M: np.ndarray, name: str) -> np.ndarray:
    """Cholesky factor of M, ridge-repairing near-singular input with a warning."""
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        ridge = _RIDGE_SCALE * np.trace(M) / M.shape[0]
        logger.warning("%s not positive definite; ridge-repairing with %.3g", name, ridge)
        try:
            return np.linalg.cholesky(M + ridge * np.eye(M.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"{name} is singular beyond ridge repair") from exc


def _chol_logdet(L: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diag(L))))


def _chol_solve(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    y = scipy.linalg.solve_triangular(L, rhs, lower=True)
    return scipy.linalg.solve_triangular(L.T, y, lower=False)


def _chol_inverse(L: np.ndarray) -> np.ndarray:
    inv = _chol_solve(L, np.eye(L.shape[0]))
    return 0.5 * (inv + inv.T)


@dataclass(frozen=True)
class PldaModel:
    """Two-covariance model: mean mu, between precision B_prec, within precision W."""

    mu: np.ndarray
    B_prec: np.ndarray
    W: np.ndarray
    # Derived diagonal basis: T' W^-1 T = I and T' B_prec^-1 T = diag(1 / psi),
    # so x -> T'x maps the model to W = I, B_prec = diag(psi).
    psi: np.ndarray = field(init=False, repr=False)
    T: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        B = _check_symmetric(self.B_prec, "B_prec")
        W = _check_symmetric(self.W, "W")
        if mu.ndim != 1 or B.shape != (mu.size, mu.size) or W.shape != B.shape:
            raise ValueError("mu, B_prec, W dimensions disagree")
        np.linalg.cholesky(B)
        np.linalg.cholesky(W)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "B_prec", B)
        object.__setattr__(self, "W", W)
        psi, V = scipy.linalg.eigh(B, W)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "T", W @ V)

    @property
    def dim(self) -> int:
        return self.mu.size


@dataclass(frozen=True)
class PairScoreParams:
    """Parameters of the single-enrollment pairwise score polynomial."""

    Lambda: np.ndarray
    Gamma: np.ndarray
    c: np.ndarray
    k: float

    def __post_init__(self):
        Lam = _check_symmetric(self.Lambda, "Lambda")
        Gam = _check_symmetric(self.Gamma, "Gamma")
        c = np.asarray(self.c, dtype=np.float64)
        if c.ndim != 1 or Lam.shape != (c.size, c.size) or Gam.shape != Lam.shape:
            raise ValueError("Lambda, Gamma, c dimensions disagree")
        if not (
            np.all(np.isfinite(Lam))
            and np.all(np.isfinite(Gam))
            and np.all(np.isfinite(c))
            and np.isfinite(self.k)
        ):
            raise ValueError("pair-score parameters must be finite")
        object.__setattr__(self, "Lambda", Lam)
        object.__setattr__(self, "Gamma", Gam)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "k", float(self.k))

    @property
    def dim(self) -> int:
        return self.c.size


def _class_stats(X, labels, weights):
    labels = np.array(list(labels), dtype=object)
    classes = sorted(set(labels))
    masks = [labels == cls for cls in classes]
    n_l = np.array([weights[m].sum() for m in masks])
    f_l = np.vstack([weights[m] @ X[m] for m in masks])
    return classes, masks, n_l, f_l


def em_train(
    X: np.ndarray,
    labels,
    weights: np.ndarray | None = None,
    n_iters: int = 50,
    tol: float = 1e-9,
    return_trace: bool = False,
):
    """Weighted EM for the two-covariance model.

    Weights act as fractional sample counts and are normalized to mean one,
    so uniformly rescaling all weights leaves the fit unchanged. The
    maximized objective is the weighted marginal log-likelihood
    sum_l log int N(y; mu, B^-1) prod_{i in l} N(x_i; y, W^-1)^{w_i} dy,
    which is non-decreasing over iterations. n_iters=0 returns the
    moment-based initialization (weighted global mean, weighted average
    within-class covariance, covariance of the weighted class means).
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    if weights is None:
        weights = np.ones(n)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n,) or np.any(weights <= 0):
        raise ValueError("weights must be positive, one per record")
    weights = weights * (n / weights.sum())

    classes, masks, n_l, f_l = _class_stats(X, labels, weights)
    if len(classes) < 2:
        raise ValueError("EM needs at least 2 classes")
    V = weights.sum()

    # Moment initialization.
    mu = weights @ X / V
    class_means = f_l / n_l[:, None]
    W_cov = np.zeros((d, d))
    for mask, mean_c in zip(masks, class_means):
        D = X[mask] - mean_c
        W_cov += (weights[mask][:, None] * D).T @ D
    W_cov /= V
    mbar = class_means.mean(axis=0)
    Dm = class_means - mbar
    B_cov = Dm.T @ Dm / len(classes)

    B = _chol_inverse(_cholesky_or_repair(B_cov, "between-class covariance"))
    W = _chol_inverse(_cholesky_or_repair(W_cov, "within-class covariance"))

    S_tot = (weights[:, None] * X).T @ X

    trace: list[float] = []
    prev_ll = None
    for it in range(n_iters):
        # E-step: Gaussian posterior over each class latent.
        Bmu = B @ mu
        y_hat = np.empty((len(classes), d))
        y_cov = np.empty((len(classes), d, d))
        for j in range(len(classes)):
            Lam = B + n_l[j] * W
            Lc = _cholesky_or_repair(Lam, "posterior precision")
            y_hat[j] = _chol_solve(Lc, Bmu + W @ f_l[j])
            y_cov[j] = _chol_inverse(Lc)

        # M-step.
        mu = y_hat.mean(axis=0)
        Dy = y_hat - mu
        B_cov = (y_cov.sum(axis=0) + Dy.T @ Dy) / len(classes)
        W_cov = S_tot.copy()
        for j in range(len(classes)):
            cross = np.outer(f_l[j], y_hat[j])
            W_cov += -cross - cross.T + n_l[j] * (np.outer(y_hat[j], y_hat[j]) + y_cov[j])
        W_cov /= V
        B = _chol_inverse(_cholesky_or_repair(B_cov, "between-class covariance"))
        W = _chol_inverse(_cholesky_or_repair(W_cov, "within-class covariance"))

        ll = _weighted_ll(X, masks, n_l, f_l, weights, mu, B, W)
        trace.append(ll)
        if prev_ll is not None:
            if ll < prev_ll - 1e-8 * (1.0 + abs(prev_ll)):
                logger.warning("EM log-likelihood decreased at iteration %d", it)
            if abs(ll - prev_ll) < tol * (1.0 + abs(prev_ll)):
                break
        prev_ll = ll

    model = PldaModel(mu=mu, B_prec=B, W=W)
    if return_trace:
        return model, trace
    return model


def _weighted_ll(X, masks, n_l, f_l, weights, mu, B, W):
    d = X.shape[1]
    Lw = np.linalg.cholesky(W)
    Lb = np.linalg.cholesky(B)
    logdet_W = _chol_logdet(Lw)
    logdet_B = _chol_logdet(Lb)
    Bmu = B @ mu
    mu_B_mu = float(mu @ Bmu)
    WX = X @ W
    xWx = np.einsum("ij,ij->i", WX, X)
    ll = 0.0
    for j, mask in enumerate(masks):
        Lam = B + n_l[j] * W
        Lc = np.linalg.cholesky(Lam)
        gamma = Bmu + W @ f_l[j]
        quad = float(gamma @ _chol_solve(Lc, gamma))
        sum_xWx = float(weights[mask] @ xWx[mask])
        ll += (
            -0.5 * n_l[j] * d * _LOG_2PI
            + 0.5 * n_l[j] * logdet_W
            + 0.5 * logdet_B
            - 0.5 * _chol_logdet(Lc)
            - 0.5 * (mu_B_mu + sum_xWx)
            + 0.5 * quad
        )
    return ll


def weighted_log_likelihood(
    model: PldaModel, X: np.ndarray, labels, weights: np.ndarray | None = None
) -> float:
    """Weighted marginal log-likelihood of the data under the model (weights
    normalized to mean one, matching em_train's objective)."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if weights is None:
        weights = np.ones(n)
    weights = np.asarray(weights, dtype=np.float64)
    weights = weights * (n / weights.sum())
    _, masks, n_l, f_l = _class_stats(X, labels, weights)
    return _weighted_ll(X, masks, n_l, f_l, weights, model.mu, model.B_prec, model.W)


def set_log_marginal(model: PldaModel, vectors: np.ndarray) -> float:
    """log integral N(y; mu, B^-1) prod_i N(x_i; y, W^-1) dy in closed form."""
    X = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    n, d = X.shape
    if n < 1:
        raise ValueError("need at least one vector")
    if d != model.dim:
        raise ValueError(f"expected dim {model.dim}, got {d}")
    B, W, mu = model.B_prec, model.W, model.mu
    Lw = np.linalg.cholesky(W)
    Lb = np.linalg.cholesky(B)
    Lam = B + n * W
    Lc = np.linalg.cholesky(Lam)
    gamma = B @ mu + W @ X.sum(axis=0)
    quad = float(gamma @ _chol_solve(Lc, gamma))
    sum_xWx = float(np.einsum("ij,jk,ik->", X, W, X))
    return (
        -0.5 * n * d * _LOG_2PI
        + 0.5 * n * _chol_logdet(Lw)
        + 0.5 * _chol_logdet(Lb)
        - 0.5 * _chol_logdet(Lc)
        - 0.5 * (float(mu @ B @ mu) + sum_xWx)
        + 0.5 * quad
    )


def exact_llr(model: PldaModel, enroll: np.ndarray, test: np.ndarray) -> float:
    """Exact detection LLR for an enrollment set against one test vector."""
    enroll = np.atleast_2d(np.asarray(enroll, dtype=np.float64))
    test = np.asarray(test, dtype=np.float64).reshape(1, -1)
    joint = np.vstack([enroll, test])
    return (
        set_log_marginal(model, joint)
        - set_log_marginal(model, enroll)
        - set_log_marginal(model, test)
    )


@dataclass(frozen=True)
class EnrollmentStats:
    """Per-detector sufficient statistics for vectorized exact scoring."""

    counts: np.ndarray  # (L,) sample counts
    sums: np.ndarray  # (L, d) vector sums
    sq_terms: np.ndarray  # (L,) sum_i x_i' W x_i; cancels out of the LLR


def enrollment_stats(model: PldaModel, groups: list[np.ndarray]) -> EnrollmentStats:
    counts = np.array([len(g) for g in groups], dtype=np.float64)
    if np.any(counts < 1):
        raise ValueError("every enrollment group needs at least one vector")
    sums = np.vstack([g.sum(axis=0) for g in groups])
    sq = np.array([float(np.einsum("ij,jk,ik->", g, model.W, g)) for g in groups])
    return EnrollmentStats(counts=counts, sums=sums, sq_terms=sq)


def exact_llr_matrix(
    model: PldaModel, stats: EnrollmentStats, X: np.ndarray
) -> np.ndarray:
    """Exact LLRs of every test row against every enrollment group: (N, L).

    In the diagonal basis (x~ = T'x, mu~ = T'mu, a_j = psi mu~ + T' sums_j,
    S_j the enrollment count) the LLR separates per component k into
    c_jk + x~_k G1_jk + x~_k^2 G2_jk, with
    G1_jk = a_jk / (psi_k + S_j + 1) - psi_k mu~_k / (psi_k + 1),
    G2_jk = -S_j / (2 (psi_k + 1) (psi_k + S_j + 1)) and
    2 c_jk = log(1 + 1/psi_k) - log(1 + 1/(psi_k + S_j))
             + psi_k mu~_k^2 / (psi_k + 1) - a_jk^2 / ((psi_k + S_j)(psi_k + S_j + 1)),
    so all detectors are scored by two matrix products. The 2 pi, log|W| and
    x'Wx terms cancel, so sq_terms is not needed.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    psi = model.psi
    mu_t = model.mu @ model.T
    psi_mu = psi * mu_t
    S = stats.counts[:, None]
    a = psi_mu + stats.sums @ model.T
    G1 = a / (psi + S + 1.0) - psi_mu / (psi + 1.0)
    G2 = -0.5 * S / ((psi + 1.0) * (psi + S + 1.0))
    const = 0.5 * np.sum(
        np.log1p(1.0 / psi)
        - np.log1p(1.0 / (psi + S))
        + psi_mu * mu_t / (psi + 1.0)
        - a * a / ((psi + S) * (psi + S + 1.0)),
        axis=1,
    )
    Xt = X @ model.T
    return Xt @ G1.T + (Xt * Xt) @ G2.T + const


def to_pair_params(model: PldaModel) -> PairScoreParams:
    """Convert (mu, B_prec, W) into the pairwise score parameters.

    Defined by the requirement that pair_score equals exact_llr for a
    single enrollment vector.
    """
    B, W, mu = model.B_prec, model.W, model.mu
    L1 = np.linalg.cholesky(B + W)  # Q1
    L2 = np.linalg.cholesky(B + 2.0 * W)  # Q2
    Q1_inv = _chol_inverse(L1)
    Q2_inv = _chol_inverse(L2)
    Lam = 0.5 * W @ Q2_inv @ W
    Gam = 0.5 * W @ (Q2_inv - Q1_inv) @ W
    Bmu = B @ mu
    c = W @ (Q2_inv - Q1_inv) @ Bmu
    k = (
        -0.5 * _chol_logdet(np.linalg.cholesky(B))
        - 0.5 * _chol_logdet(L2)
        + _chol_logdet(L1)
        + 0.5 * float(mu @ Bmu)
        + 0.5 * float(Bmu @ Q2_inv @ Bmu)
        - float(Bmu @ Q1_inv @ Bmu)
    )
    return PairScoreParams(
        Lambda=0.5 * (Lam + Lam.T), Gamma=0.5 * (Gam + Gam.T), c=c, k=k
    )


def pair_score(params: PairScoreParams, w_l: np.ndarray, w: np.ndarray) -> float:
    """2 w'Lambda w_l + w'Gamma w + w_l'Gamma w_l + w'c + w_l'c + k."""
    w_l = np.asarray(w_l, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    return float(
        2.0 * w @ params.Lambda @ w_l
        + w @ params.Gamma @ w
        + w_l @ params.Gamma @ w_l
        + w @ params.c
        + w_l @ params.c
        + params.k
    )


def pair_score_matrix(
    params: PairScoreParams, detectors: np.ndarray, U: np.ndarray
) -> np.ndarray:
    """Pairwise scores of every test row in U against every detector row: (N, L)."""
    U = np.atleast_2d(np.asarray(U, dtype=np.float64))
    detectors = np.atleast_2d(np.asarray(detectors, dtype=np.float64))
    cross = 2.0 * U @ params.Lambda @ detectors.T
    q_u = np.einsum("ij,jk,ik->i", U, params.Gamma, U)
    q_d = np.einsum("ij,jk,ik->i", detectors, params.Gamma, detectors)
    lin_u = U @ params.c
    lin_d = detectors @ params.c
    return cross + q_u[:, None] + q_d[None, :] + lin_u[:, None] + lin_d[None, :] + params.k


def approx_llr(params: PairScoreParams, enroll: np.ndarray, test: np.ndarray) -> float:
    """Mean-enrollment approximation: score the enrollment mean as a single vector."""
    enroll = np.atleast_2d(np.asarray(enroll, dtype=np.float64))
    if enroll.shape[0] < 1:
        raise ValueError("enrollment must be non-empty")
    return pair_score(params, enroll.mean(axis=0), test)
