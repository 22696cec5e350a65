"""Discriminative training engine.

Weighted binary cross-entropy over detection trials (every batch sample
against every detector), hand-derived reverse-mode gradients through the
pairwise score polynomial, the length normalization, and the hierarchical
log-domain combination, optimized with Adam over a staged schedule with
balanced batches and dev-based checkpoint selection.

The engine works on plain parameter dictionaries (see get_params) and
writes back into backend objects only at checkpoint boundaries.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .backend import FlatBackend
from .dataio import EmbeddingSet, TrialSet, group_indices, trial_index
from .hier import (
    HierBackend,
    HierCombineInfo,
    combine_matrix,
    shifted_projection,
    stage2_scores,
)
from .metrics import actual_dcf
from .plda import PairScoreParams, pair_score_matrix
from .preproc import AffinePreproc, LENGTH_NORM_EPS

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    """Schedule and loss configuration.

    The default schedule is a desk-scale reduction (10x) of the production
    one; production values (12000 and 3000 batches, 5 seeds) are expressed
    through the same fields. The final stage fine-tunes the best checkpoint
    selected on the dev metric.
    """

    batch_size: int = 2048
    pi: float = 0.01
    alpha: float = 0.0
    stages: tuple[tuple[int, float], ...] = ((1200, 5e-4), (300, 1e-3))
    finetune: tuple[int, float] = (100, 1e-5)
    seeds: tuple[int, ...] = (0,)
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    checkpoint_every: int = 250
    select_metric: str = "loss"  # "loss" or "dcf"

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 < self.pi < 1.0:
            raise ValueError("pi must be in (0, 1)")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        for n, lr in tuple(self.stages) + (tuple(self.finetune),):
            if n < 0 or lr <= 0:
                raise ValueError("stage batch counts must be >= 0 and rates > 0")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.select_metric not in ("loss", "dcf"):
            raise ValueError("select_metric must be 'loss' or 'dcf'")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")


# ---------------------------------------------------------------------------
# Loss


def _softplus(x):
    return np.logaddexp(0.0, x)


def bce_loss(scores: np.ndarray, label_idx: np.ndarray, pi: float) -> float:
    """Weighted binary cross-entropy over an (n, L) score batch.

    Each row contributes one positive trial (its label column) and L-1
    negative trials; positives are weighted pi / P and negatives
    (1 - pi) / N with P = n and N = n (L - 1). Scores are shifted by
    log(pi / (1 - pi)) before the sigmoid.
    """
    loss, _ = _bce_loss_grad(scores, label_idx, pi)
    return loss


def _bce_loss_grad(scores, label_idx, pi):
    scores = np.asarray(scores, dtype=np.float64)
    n, L = scores.shape
    if L < 2:
        raise ValueError("need at least 2 detectors")
    label_idx = np.asarray(label_idx, dtype=np.intp)
    if label_idx.shape != (n,) or label_idx.min() < 0 or label_idx.max() >= L:
        raise ValueError("label not in detectors")
    t0 = math.log(pi / (1.0 - pi))
    a = scores + t0
    rows = np.arange(n)
    P = float(n)
    N = float(n * (L - 1))
    log_1mq = -_softplus(a)
    loss = -(pi / P) * (-_softplus(-a[rows, label_idx])).sum()
    loss -= ((1.0 - pi) / N) * (log_1mq.sum() - log_1mq[rows, label_idx].sum())

    e = np.exp(-np.abs(a))  # q = sigmoid(a) without overflow on either side
    q = np.where(a >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    G = ((1.0 - pi) / N) * q
    G[rows, label_idx] = -(pi / P) * (1.0 - q[rows, label_idx])
    return float(loss), G


def trial_bce(scores: np.ndarray, is_target: np.ndarray, pi: float) -> float:
    """Weighted binary cross-entropy over an arbitrary flat trial list."""
    scores = np.asarray(scores, dtype=np.float64)
    is_target = np.asarray(is_target, dtype=bool)
    P = int(is_target.sum())
    N = int((~is_target).sum())
    if P == 0 or N == 0:
        raise ValueError("need at least one target and one non-target trial")
    t0 = math.log(pi / (1.0 - pi))
    a = scores + t0
    loss = (pi / P) * _softplus(-a[is_target]).sum()
    loss += ((1.0 - pi) / N) * _softplus(a[~is_target]).sum()
    return float(loss)


# ---------------------------------------------------------------------------
# Parameter dictionaries

SYMMETRIC_SUFFIXES = ("Lambda", "Gamma")


def _is_symmetric_key(key: str) -> bool:
    return key.split(".")[-1] in SYMMETRIC_SUFFIXES


def _flat_param_dict(backend: FlatBackend, prefix: str = "") -> dict[str, np.ndarray]:
    return {
        prefix + "A": backend.preproc.A.copy(),
        prefix + "b": backend.preproc.b.copy(),
        prefix + "Lambda": backend.params.Lambda.copy(),
        prefix + "Gamma": backend.params.Gamma.copy(),
        prefix + "c": backend.params.c.copy(),
        prefix + "k": np.array(backend.params.k, dtype=np.float64),
        prefix + "detectors": backend.detectors.copy(),
    }


def get_params(backend) -> dict[str, np.ndarray]:
    """Copy of every trainable parameter group, keyed by name."""
    if isinstance(backend, HierBackend):
        params = _flat_param_dict(backend.stage1, "stage1.")
        params.update(_flat_param_dict(backend.stage2, "stage2."))
        params["shifts"] = backend.shifts.copy()
        return params
    if isinstance(backend, FlatBackend):
        return _flat_param_dict(backend)
    raise TypeError(f"unsupported backend type {type(backend).__name__}")


def _set_flat_params(backend: FlatBackend, params, prefix: str = "") -> None:
    backend.preproc = AffinePreproc(
        A=params[prefix + "A"].copy(), b=params[prefix + "b"].copy()
    )
    backend.params = PairScoreParams(
        Lambda=params[prefix + "Lambda"].copy(),
        Gamma=params[prefix + "Gamma"].copy(),
        c=params[prefix + "c"].copy(),
        k=float(params[prefix + "k"]),
    )
    backend.detectors = params[prefix + "detectors"].copy()


def set_params(backend, params: dict[str, np.ndarray]) -> None:
    if isinstance(backend, HierBackend):
        _set_flat_params(backend.stage1, params, "stage1.")
        _set_flat_params(backend.stage2, params, "stage2.")
        backend.shifts = params["shifts"].copy()
    elif isinstance(backend, FlatBackend):
        _set_flat_params(backend, params)
    else:
        raise TypeError(f"unsupported backend type {type(backend).__name__}")


# ---------------------------------------------------------------------------
# Forward / reverse passes on parameter dictionaries


def _unit_rows(Z):
    """Length normalisation along the last axis, with the norms kept for the backward pass."""
    norms = np.linalg.norm(Z, axis=-1)
    if np.any(norms < LENGTH_NORM_EPS):
        raise FloatingPointError("degenerate embedding in batch (near-zero norm)")
    return Z / norms[..., None], norms


def _pair_params(params, prefix):
    """A stage's pair-score parameters, unchecked: finite-difference checks perturb
    Lambda and Gamma entry-wise, and divergence must surface as non-finite values."""
    return SimpleNamespace(
        Lambda=params[prefix + "Lambda"],
        Gamma=params[prefix + "Gamma"],
        c=params[prefix + "c"],
        k=float(params[prefix + "k"]),
    )


def _pair_backward(pair, detectors, U, G):
    """Gradients of sum(G * S) through the pairwise score matrix S.

    Leading axes stack independent blocks as in pair_score_matrix: U
    (..., N, d), detectors (..., L, d) and G (..., N, L). g_det and g_U keep
    the blocks; the parameter gradients sum over them, each as one product
    over the stacked rows. Exact for arbitrary (possibly asymmetric) stored
    Lambda/Gamma, which keeps entry-wise finite-difference checks honest.
    """
    row_sum = G.sum(axis=-1)
    col_sum = G.sum(axis=-2)
    Uf, Df = _stacked_rows(U), _stacked_rows(detectors)
    # sum_b (2 U_b' G_b) D_b: the blocks 2 U_b' G_b side by side times the stacked D_b.
    g_Lambda = _stacked_rows(_T(2.0 * _T(U) @ G)).T @ Df
    g_Gamma = _stacked_rows(U * row_sum[..., None]).T @ Uf + (
        _stacked_rows(detectors * col_sum[..., None]).T @ Df
    )
    g_c = Uf.T @ row_sum.ravel() + Df.T @ col_sum.ravel()
    g_k = np.array(G.sum())
    sym_G = pair.Gamma + pair.Gamma.T
    g_det = 2.0 * _T(G) @ U @ pair.Lambda + col_sum[..., None] * (detectors @ sym_G + pair.c)
    g_U = 2.0 * G @ detectors @ pair.Lambda.T + row_sum[..., None] * (U @ sym_G + pair.c)
    return g_Lambda, g_Gamma, g_c, g_k, g_det, g_U


def _T(M):
    """Every block of M transposed: its last two axes swapped."""
    return np.swapaxes(M, -1, -2)


def _stacked_rows(M):
    """The rows of every block of M (..., n, d) stacked into one (-1, d) matrix."""
    return M.reshape(-1, M.shape[-1])


def _lengthnorm_backward(g_U, U, norms):
    inner = np.einsum("ij,ij->i", g_U, U)
    return (g_U - inner[:, None] * U) / norms[:, None]


def _flat_stage_grads(params, prefix, X, G, U, norms):
    """Parameter gradients of one flat stage with input X and score gradient G."""
    dets = params[prefix + "detectors"]
    g_Lambda, g_Gamma, g_c, g_k, g_det, g_U = _pair_backward(
        _pair_params(params, prefix), dets, U, G
    )
    g_Z = _lengthnorm_backward(g_U, U, norms)
    return {
        prefix + "A": g_Z.T @ X,
        prefix + "b": g_Z.sum(axis=0),
        prefix + "Lambda": g_Lambda,
        prefix + "Gamma": g_Gamma,
        prefix + "c": g_c,
        prefix + "k": g_k,
        prefix + "detectors": g_det,
    }


def _flat_forward(params, prefix, X):
    U, norms = _unit_rows(X @ params[prefix + "A"].T + params[prefix + "b"])
    S = pair_score_matrix(_pair_params(params, prefix), params[prefix + "detectors"], U)
    return S, U, norms


def flat_loss_grads(params, X, label_idx, pi):
    """Loss and gradients for a flat backend given its parameter dict."""
    S, U, norms = _flat_forward(params, "", X)
    loss, G = _bce_loss_grad(S, label_idx, pi)
    grads = _flat_stage_grads(params, "", X, G, U, norms)
    _check_finite(loss, grads)
    return loss, grads


def hier_loss_grads(params, info: HierCombineInfo, X, label_idx, pi, alpha):
    """Loss and gradients for a hierarchical backend given its parameter dict.

    The forward pass is the scorer's: hier.shifted_projection projects X once
    for every block's shift, hier.stage2_scores scores the conditional
    columns of every block in one pass and hier.combine_matrix combines the
    two stages. The backward pass folds the shifts the same way as the
    projection: with r_b = g_Zb' 1, g_A = (sum_b g_Zb)' X - sum_b r_b s_b',
    g_b = sum_b r_b and g_s_b = -r_b A. Only the conditional columns carry a
    stage-2 gradient; every other column passes its gradient to its cluster.
    """
    shifts, A2 = params["shifts"], params["stage2.A"]

    S1, U1, norms1 = _flat_forward(params, "stage1.", X)

    U2, norms2 = _unit_rows(shifted_projection(A2, params["stage2.b"], shifts, X, info.blocks))
    pair2 = _pair_params(params, "stage2.")
    dets2 = params["stage2.detectors"]
    S, t_c, t_lc = combine_matrix(S1, stage2_scores(pair2, dets2, U2, info), info)

    loss_lan, G_lan = _bce_loss_grad(S, label_idx, pi)
    loss = (1.0 - alpha) * loss_lan
    G_lan *= 1.0 - alpha

    B, N, d2 = U2.shape
    m = info.pad_cols.shape[1]
    G2 = np.zeros((N, B * m))
    G2[:, info.pad_pos] = G_lan.take(info.cond, axis=1) * (1.0 - np.exp(t_lc))
    # Each score's derivative by its cluster score is 1 - e^t_c on the
    # conditional columns and 1 on the others. A cluster sums its languages'
    # gradients; formed cluster-major, so that the stage-1 backward sums each
    # cluster's gradient over contiguous memory.
    G_lan[:, info.cond] *= 1.0 - np.exp(t_c)
    G1 = (np.eye(len(shifts))[:, info.lang_cluster_idx] @ G_lan.T).T

    if alpha > 0.0:
        loss_clu, G_clu = _bce_loss_grad(S1, info.lang_cluster_idx[label_idx], pi)
        loss += alpha * loss_clu
        G1 += alpha * G_clu

    grads = _flat_stage_grads(params, "stage1.", X, G1, U1, norms1)

    # Stage 2 backpropagates through the padded (B, N, m) layout of
    # stage2_scores; the padded slots carry zero score gradient.
    g_Lambda, g_Gamma, g_c, g_k, g_det, g_U = _pair_backward(
        pair2, dets2[info.pad_cols], U2, G2.reshape(N, B, m).transpose(1, 0, 2)
    )
    g_Z2 = _lengthnorm_backward(
        _stacked_rows(g_U), _stacked_rows(U2), norms2.ravel()
    ).reshape(B, N, d2)
    r = g_Z2.sum(axis=1)  # (B, d2)
    g_dets2 = np.zeros_like(dets2)
    g_dets2[info.cond] = g_det.reshape(B * m, d2)[info.pad_pos]
    g_shifts = np.zeros_like(shifts)
    g_shifts[info.blocks] = -r @ A2
    grads.update(
        {
            "stage2.A": g_Z2.sum(axis=0).T @ X - r.T @ shifts[info.blocks],
            "stage2.b": r.sum(axis=0),
            "stage2.Lambda": g_Lambda,
            "stage2.Gamma": g_Gamma,
            "stage2.c": g_c,
            "stage2.k": g_k,
            "stage2.detectors": g_dets2,
            "shifts": g_shifts,
        }
    )

    _check_finite(loss, grads)
    return loss, grads


def _check_finite(loss, grads):
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite loss")
    for key, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in parameter group {key!r}")


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_init(params: dict[str, np.ndarray], config: TrainConfig) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
        beta1=config.beta1,
        beta2=config.beta2,
        eps=config.eps,
    )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> dict[str, np.ndarray]:
    """One bias-corrected Adam update; Lambda/Gamma re-symmetrized afterwards."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    out = {}
    for key, p in params.items():
        g = grads[key]
        state.m[key] = b1 * state.m[key] + (1.0 - b1) * g
        state.v[key] = b2 * state.v[key] + (1.0 - b2) * g * g
        m_hat = state.m[key] / (1.0 - b1 ** state.t)
        v_hat = state.v[key] / (1.0 - b2 ** state.t)
        new = p - lr * m_hat / (np.sqrt(v_hat) + state.eps)
        if _is_symmetric_key(key) and new.ndim == 2:
            new = 0.5 * (new + new.T)
        out[key] = new
    return out


# ---------------------------------------------------------------------------
# Batching


def sample_batch(
    train: EmbeddingSet, batch_size: int, rng: np.random.Generator
) -> np.ndarray:
    """Balanced batch indices: near-equal quotas per (language, dataset) group.

    The per-group quota is ceil(batch_size / #groups); the excess over
    batch_size is removed from the tail of a random group permutation, and
    samples are drawn with replacement within each group.
    """
    groups = list(group_indices(train).values())
    return _sample_from_groups(groups, batch_size, rng)


def _sample_from_groups(groups, batch_size, rng):
    G = len(groups)
    q = -(-batch_size // G)  # ceil
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


# ---------------------------------------------------------------------------
# Training loop


@dataclass
class Checkpoint:
    index: int
    batches_seen: int
    lr: float
    train_loss: float
    dev_losses: tuple[float, ...]
    params: dict[str, np.ndarray] = field(repr=False, default_factory=dict)

    @property
    def avg_dev(self) -> float:
        return float(np.mean(self.dev_losses))


@dataclass
class TrainResult:
    backend: object
    log: list[Checkpoint]
    best_avg_dev: float
    best_index: int
    seed: int
    diverged: bool = False


def _copy_params(params):
    return {k: p.copy() for k, p in params.items()}


def _dev_evaluator(backend, dev_sets: list[tuple[EmbeddingSet, TrialSet]], config):
    prepared = [
        (es, ts, *trial_index(es, ts, backend.detector_labels)) for es, ts in dev_sets
    ]

    if config.select_metric == "dcf":

        def metric(flat_scores, ts):
            return actual_dcf(flat_scores, ts.is_target)[2]

    else:

        def metric(flat_scores, ts):
            return trial_bce(flat_scores, ts.is_target, config.pi)

    def evaluate():
        losses = []
        for es, ts, rows, cols in prepared:
            S = backend.score_matrix(es.vectors)
            losses.append(metric(S[rows, cols], ts))
        return tuple(losses)

    return evaluate


def train(
    backend,
    train_set: EmbeddingSet,
    dev_sets: list[tuple[EmbeddingSet, TrialSet]],
    config: TrainConfig,
    seed: int = 0,
) -> TrainResult:
    """Staged discriminative training with dev-selected checkpointing.

    Runs the configured stages, checkpoints every `checkpoint_every`
    batches (and at stage ends), restores the best checkpoint by average
    dev metric, fine-tunes it, and returns the overall best checkpoint.
    A non-finite loss aborts training, falling back to the best checkpoint
    recorded so far.
    """
    det_pos = {lab: i for i, lab in enumerate(backend.detector_labels)}
    missing = sorted(set(train_set.languages) - set(det_pos))
    if missing:
        raise ValueError(f"training languages without a detector: {missing}")
    label_idx_all = np.array([det_pos[l] for l in train_set.languages], dtype=np.intp)
    groups = list(group_indices(train_set).values())
    evaluate_dev = _dev_evaluator(backend, dev_sets, config)

    is_hier = isinstance(backend, HierBackend)
    info = backend.combine if is_hier else None
    if config.alpha > 0.0 and not is_hier:
        raise ValueError("alpha > 0 requires a hierarchical backend")

    rng = np.random.default_rng(seed)
    params = get_params(backend)
    checkpoints: list[Checkpoint] = []

    def record(batches_seen, lr, train_loss):
        set_params(backend, params)
        checkpoints.append(
            Checkpoint(
                index=len(checkpoints),
                batches_seen=batches_seen,
                lr=lr,
                train_loss=train_loss,
                dev_losses=evaluate_dev(),
                params=_copy_params(params),
            )
        )

    record(0, 0.0, float("nan"))
    batches_seen = 0
    diverged = False

    def run_stage(n_batches, lr):
        nonlocal params, batches_seen, diverged
        state = adam_init(params, config)
        running: list[float] = []
        for b in range(n_batches):
            idx = _sample_from_groups(groups, config.batch_size, rng)
            X = train_set.vectors[idx]
            y = label_idx_all[idx]
            try:
                if is_hier:
                    loss, grads = hier_loss_grads(params, info, X, y, config.pi, config.alpha)
                else:
                    loss, grads = flat_loss_grads(params, X, y, config.pi)
            except FloatingPointError as exc:
                logger.warning("training diverged (%s); falling back to best checkpoint", exc)
                diverged = True
                return
            params = adam_step(params, grads, state, lr)
            running.append(loss)
            batches_seen += 1
            if batches_seen % config.checkpoint_every == 0 or b == n_batches - 1:
                record(batches_seen, lr, float(np.mean(running)))
                running = []

    for n_batches, lr in config.stages:
        run_stage(n_batches, lr)
        if diverged:
            break

    def best_checkpoint():
        return min(checkpoints, key=lambda c: (c.avg_dev, c.index))

    best = best_checkpoint()
    params = _copy_params(best.params)
    set_params(backend, params)

    n_ft, lr_ft = config.finetune
    if not diverged and n_ft > 0:
        run_stage(n_ft, lr_ft)

    best = best_checkpoint()
    set_params(backend, _copy_params(best.params))
    return TrainResult(
        backend=backend,
        log=checkpoints,
        best_avg_dev=best.avg_dev,
        best_index=best.index,
        seed=seed,
        diverged=diverged,
    )


def multi_seed_train(
    make_backend,
    train_set: EmbeddingSet,
    dev_sets: list[tuple[EmbeddingSet, TrialSet]],
    config: TrainConfig,
) -> TrainResult:
    """Run train() once per configured seed and keep the best dev result.

    Ties break toward the lowest seed; duplicate seeds are collapsed.
    """
    seen = set()
    seeds = [s for s in config.seeds if not (s in seen or seen.add(s))]
    results = []
    for seed in seeds:
        results.append(train(make_backend(), train_set, dev_sets, config, seed=seed))
    return min(results, key=lambda r: (r.best_avg_dev, r.seed))


def format_training_log(log: list[Checkpoint]) -> str:
    """TSV rendering: checkpoint, batches_seen, lr, train_loss, dev losses."""
    n_dev = len(log[0].dev_losses) if log else 0
    header = ["checkpoint", "batches_seen", "lr", "train_loss"]
    header += [f"dev_loss_{i + 1}" for i in range(n_dev)]
    header.append("avg_dev_loss")
    lines = ["\t".join(header)]
    for cp in log:
        row = [str(cp.index), str(cp.batches_seen), "%.9g" % cp.lr, "%.9g" % cp.train_loss]
        row += ["%.9g" % v for v in cp.dev_losses]
        row.append("%.9g" % cp.avg_dev)
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"
