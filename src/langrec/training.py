"""Discriminative training engine.

Weighted binary cross-entropy over detection trials (every batch sample
against every detector), hand-derived reverse-mode gradients through the
pairwise score polynomial, the length normalization, and the hierarchical
log-domain combination, optimized with Adam over a staged schedule with
balanced batches and dev-based checkpoint selection.

The engine works on dictionaries of parameter arrays keyed by get_params's
names: a flat stage's FLAT_KEYS, the keys of the mapping a FlatBackend keeps
as its only parameter store, prefixed "stage1." and "stage2." beside
"shifts" for a hierarchical backend. The loss functions read such a
dictionary unchecked, and with_params builds a backend on it. Adam never
writes in place, so checkpoints keep its dictionaries uncopied; only the
backend returned for the best one copies them.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .backend import FLAT_KEYS, FlatBackend, flat_forward
from .dataio import EmbeddingSet, TrialSet, check_count, group_rows, trial_index
from .hier import EXP_FLOOR, HierBackend, HierCombineInfo, hier_forward, stage2_tables
from .metrics import actual_dcf
from .plda import pair_tables

logger = logging.getLogger(__name__)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
    checkpoint_every: int = 250
    select_metric: str = "loss"  # "loss" or "dcf"

    def __post_init__(self):
        check_count("batch_size", self.batch_size, 1)
        if not 0.0 < self.pi < 1.0:
            raise ValueError("pi must be in (0, 1)")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        for n, lr in tuple(self.stages) + (tuple(self.finetune),):
            check_count("stage batch count", n)
            if not (math.isfinite(lr) and lr > 0):
                raise ValueError(f"learning rates must be finite and > 0, got {lr!r}")
        if not self.seeds:
            raise ValueError("need at least one seed")
        for seed in self.seeds:
            check_count("seed", seed)
        if self.select_metric not in ("loss", "dcf"):
            raise ValueError("select_metric must be 'loss' or 'dcf'")
        check_count("checkpoint_every", self.checkpoint_every, 1)


# ---------------------------------------------------------------------------
# Loss


def _softplus(x):
    return np.logaddexp(0.0, x)


def _bce_loss_grad(scores, label_idx, pi, counts=None):
    """Weighted binary cross-entropy over an (n, L) score batch, and its
    gradient by the scores.

    Each row contributes one positive trial (its label column) and L-1
    negative trials, counts[i] times for row i (once each by default), so a
    batch of distinct rows with counts is the batch that repeats them.
    Positives are weighted pi / P and negatives (1 - pi) / N with
    P = sum(counts) and N = P (L - 1). Scores are shifted by
    log(pi / (1 - pi)) before the sigmoid. With unit counts every weighting
    is a multiplication by 1.0, so the result is that of the unweighted sums.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n, L = scores.shape
    if L < 2:
        raise ValueError("need at least 2 detectors")
    label_idx = np.asarray(label_idx, dtype=np.intp)
    if label_idx.shape != (n,) or label_idx.min() < 0 or label_idx.max() >= L:
        raise ValueError("label not in detectors")
    w = np.ones(n) if counts is None else np.asarray(counts, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError("need one count per row")
    t0 = math.log(pi / (1.0 - pi))
    a = scores + t0
    rows = np.arange(n)
    a_lab = a[rows, label_idx]
    P = float(w.sum())
    N = P * (L - 1)
    # e = exp(-|a|), taken as 0 where -|a| <= EXP_FLOOR; everything below
    # derives from it. Clamp, exp and mask: numpy's masked exp is slower.
    e = np.abs(a)
    np.negative(e, e)
    above = e > EXP_FLOOR
    np.maximum(e, EXP_FLOOR, out=e)
    np.exp(e, e)
    e *= above
    e_lab = e[rows, label_idx]
    # log(1 - q) = -softplus(a) = -(max(a, 0) + log1p(e)), and at the labels
    # log q = -softplus(-a), which is log(1 - q) + a without its cancellation.
    log_1mq = np.maximum(a, 0.0)
    log_1mq += np.log1p(e)
    np.negative(log_1mq, log_1mq)
    log_q_lab = -(np.maximum(-a_lab, 0.0) + np.log1p(e_lab))
    loss = -(pi / P) * (log_q_lab * w).sum()
    loss -= ((1.0 - pi) / N) * (
        (log_1mq * w[:, None]).sum() - (log_1mq[rows, label_idx] * w).sum()
    )

    q = np.where(a >= 0, 1.0, e)  # q = sigmoid(a) without overflow on either side
    q /= 1.0 + e
    G = ((1.0 - pi) / N) * q
    G[rows, label_idx] = -(pi / P) * (1.0 - q[rows, label_idx])
    G *= w[:, None]
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


def get_params(backend) -> dict[str, np.ndarray]:
    """Writable copy of every trainable parameter group, keyed by name: a
    flat backend's FLAT_KEYS, or a hierarchical one's with the prefixes
    "stage1." and "stage2.", and "shifts"."""
    if isinstance(backend, HierBackend):
        params = {
            f"{name}.{key}": p.copy()
            for name in ("stage1", "stage2")
            for key, p in getattr(backend, name).theta.items()
        }
        params["shifts"] = backend.shifts.copy()
        return params
    if isinstance(backend, FlatBackend):
        return {key: p.copy() for key, p in backend.theta.items()}
    raise TypeError(f"unsupported backend type {type(backend).__name__}")


def with_params(backend, params: dict[str, np.ndarray]):
    """A new backend like backend, built on the arrays of params (get_params's
    keys) without copying them."""
    if isinstance(backend, HierBackend):
        return replace(
            backend,
            stage1=replace(backend.stage1, theta=_stage(params, "stage1.")),
            stage2=replace(backend.stage2, theta=_stage(params, "stage2.")),
            shifts=params["shifts"],
        )
    if isinstance(backend, FlatBackend):
        return replace(backend, theta=params)
    raise TypeError(f"unsupported backend type {type(backend).__name__}")


# ---------------------------------------------------------------------------
# Forward / reverse passes on parameter dictionaries


def _stage(params, prefix):
    """One flat stage's parameters (FLAT_KEYS) in params, unchecked:
    finite-difference checks perturb Lambda and Gamma entry-wise, and
    divergence must surface as non-finite values."""
    return {key: params[prefix + key] for key in FLAT_KEYS}


def _tables(theta):
    """pair_tables of one flat stage's parameters."""
    return pair_tables(theta["Lambda"], theta["Gamma"], theta["c"], theta["k"], theta["detectors"])


def _pair_backward(theta, U, G):
    """Gradients of sum(G * S) through the pairwise score matrix S of the rows
    U (N, d) against the detectors (L, d) of theta, G (N, L). Exact for
    arbitrary (possibly asymmetric) Lambda/Gamma, which keeps entry-wise
    finite-difference checks honest."""
    detectors, Lambda, c = theta["detectors"], theta["Lambda"], theta["c"]
    row_sum = G.sum(axis=1)
    col_sum = G.sum(axis=0)
    g_Lambda = 2.0 * U.T @ G @ detectors
    g_Gamma = (U * row_sum[:, None]).T @ U + (detectors * col_sum[:, None]).T @ detectors
    g_c = U.T @ row_sum + detectors.T @ col_sum
    g_k = np.array(G.sum())
    sym_G = theta["Gamma"] + theta["Gamma"].T
    g_det = 2.0 * G.T @ U @ Lambda + col_sum[:, None] * (detectors @ sym_G + c)
    g_U = 2.0 * G @ detectors @ Lambda.T + row_sum[:, None] * (U @ sym_G + c)
    return g_Lambda, g_Gamma, g_c, g_k, g_det, g_U


def _lengthnorm_backward(g_U, U, norms):
    inner = np.einsum("ij,ij->i", g_U, U)
    return (g_U - inner[:, None] * U) / norms[:, None]


def _flat_stage_grads(theta, prefix, X, G, U, norms):
    """Gradients of one flat stage (_stage) with input X and score gradient G."""
    g_Lambda, g_Gamma, g_c, g_k, g_det, g_U = _pair_backward(theta, U, G)
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


def flat_loss_grads(params, X, label_idx, pi, counts=None):
    """Loss and gradients for a flat backend given its parameter dict, with
    row i of X counted counts[i] times (_bce_loss_grad)."""
    S, U, norms = flat_forward(params, _tables(params), X)
    loss, G = _bce_loss_grad(S, label_idx, pi, counts)
    grads = _flat_stage_grads(params, "", X, G, U, norms)
    _check_finite(loss, grads)
    return loss, grads


def hier_loss_grads(params, info: HierCombineInfo, X, label_idx, pi, alpha, counts=None):
    """Loss and gradients for a hierarchical backend given its parameter dict,
    with row i of X counted counts[i] times in both the language and the
    cluster BCE (_bce_loss_grad).

    The forward pass is the scorer's, hier.hier_forward, on tables built
    from params. Only the conditional columns carry a stage-2 gradient;
    every other column passes its gradient to its cluster. Stage 2 is
    differentiated in the form hier.stage2_scores evaluates it: with
    D_nb = z_n - p_b, every sum over blocks or rows is an (N, B) or (N, K)
    product with Z or P, and the projected shifts p_b = A s_b collect
    -sum_n g_D_nb, so g_A gains sum_b g_p_b s_b' and g_s_b = A' g_p_b.
    """
    shifts = params["shifts"]
    theta1, theta2 = _stage(params, "stage1."), _stage(params, "stage2.")
    t1, t2 = _tables(theta1), stage2_tables(theta2, shifts, info)
    S, (S1, U1, norms1, parts2, e, total) = hier_forward(theta1, t1, t2, info, X)
    d_c, d_lc = 1.0 - e / total  # each score's derivatives by L_c and L_lc

    loss_lan, G_lan = _bce_loss_grad(S, label_idx, pi, counts)
    loss = (1.0 - alpha) * loss_lan
    G_lan *= 1.0 - alpha

    G2 = G_lan.take(info.cond, axis=1) * d_lc
    # Each score's derivative by its cluster score is d_c on the conditional
    # columns and 1 on the others. A cluster sums its languages' gradients;
    # formed cluster-major, so that the stage-1 backward sums each cluster's
    # gradient over contiguous memory.
    G_lan[:, info.cond] *= d_c
    G1 = (np.eye(len(shifts))[:, info.lang_cluster_idx] @ G_lan.T).T

    if alpha > 0.0:
        loss_clu, G_clu = _bce_loss_grad(S1, info.lang_cluster_idx[label_idx], pi, counts)
        loss += alpha * loss_clu
        G1 += alpha * G_clu

    grads = _flat_stage_grads(theta1, "stage1.", X, G1, U1, norms1)

    Z, n, cross, quad, lin = parts2
    P, W, c, block = t2.P, t2.pair.W, theta2["c"], info.cond_block
    in_block = np.eye(len(info.blocks))[block]  # (K, B)
    V = theta2["detectors"][info.cond]
    H = G2 / n[:, block]
    h, col, R = H.sum(axis=0), G2.sum(axis=0), G2 @ in_block
    w, r = R / n**2, R / n
    a = ((G2 * cross) @ in_block + R * (2.0 * quad + lin)) / n**2  # (g_u . u) / n^2
    # sum_b x_nb D_nb (N, d) and sum_n x_nb D_nb (B, d), for x = w and a
    w_rows, a_rows = (Z * x.sum(axis=1)[:, None] - x @ P for x in (w, a))
    w_blocks, a_blocks = (x.T @ Z - x.sum(axis=0)[:, None] * P for x in (w, a))
    sym_G = theta2["Gamma"] + theta2["Gamma"].T
    g_Z = H @ W.T + w_rows @ sym_G - a_rows + r.sum(axis=1)[:, None] * c
    g_P = a_blocks - w_blocks @ sym_G - r.sum(axis=0)[:, None] * c - in_block.T @ (h * W).T
    Y = Z.T @ H - P[block].T * h  # (d, K): sum_n H_nj D_nb for column j's block b
    g_dets2 = np.zeros_like(theta2["detectors"])
    g_dets2[info.cond] = 2.0 * Y.T @ theta2["Lambda"] + col[:, None] * (V @ sym_G + c)
    g_shifts = np.zeros_like(shifts)
    g_shifts[info.blocks] = g_P @ theta2["A"]
    grads.update(
        {
            "stage2.A": g_Z.T @ X + g_P.T @ shifts[info.blocks],
            "stage2.b": g_Z.sum(axis=0),
            "stage2.Lambda": 2.0 * Y @ V,
            "stage2.Gamma": w_rows.T @ Z - w_blocks.T @ P + (V * col[:, None]).T @ V,
            "stage2.c": Z.T @ r.sum(axis=1) - P.T @ r.sum(axis=0) + V.T @ col,
            "stage2.k": np.array(G2.sum()),
            "stage2.detectors": g_dets2,
            "shifts": g_shifts,
        }
    )

    _check_finite(loss, grads)
    return loss, grads


def _check_finite(loss, grads):
    """Raise FloatingPointError on a non-finite loss or gradient. One test
    covers every group; only a failure loops over them, to name the first
    non-finite one."""
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite loss")
    if np.isfinite(np.concatenate([g.ravel() for g in grads.values()])).all():
        return
    for key, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in parameter group {key!r}")


# ---------------------------------------------------------------------------
# Adam


@dataclass(eq=False)
class AdamState:
    """Adam's moments over every parameter group at once: m and v are flat
    vectors laid out as adam_init fixed it, group `keys[i]` of shape
    `shapes[i]` at `offsets[i]:offsets[i + 1]`."""

    m: np.ndarray
    v: np.ndarray
    keys: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]
    offsets: tuple[int, ...]
    t: int = 0


def adam_init(params: dict[str, np.ndarray]) -> AdamState:
    keys = tuple(params)
    shapes = tuple(np.shape(params[k]) for k in keys)
    offsets = (0, *np.cumsum([math.prod(shape) for shape in shapes]).tolist())
    return AdamState(np.zeros(offsets[-1]), np.zeros(offsets[-1]), keys, shapes, offsets)


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> dict[str, np.ndarray]:
    """One bias-corrected Adam update into a new vector (checkpoints rely on
    that), returned as views of it by group; Lambda/Gamma re-symmetrized
    afterwards. Each update runs once over every group, in adam_init's
    layout, so the result is that of an update group by group."""
    keys = state.keys
    if len(params) != len(keys):
        raise ValueError(f"expected the parameter groups {keys}, got {tuple(params)}")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    p = np.concatenate([params[key].ravel() for key in keys])
    g = np.concatenate([grads[key].ravel() for key in keys])
    state.m = b1 * state.m + (1.0 - b1) * g
    state.v = b2 * state.v + (1.0 - b2) * g * g
    m_hat = state.m / (1.0 - b1**state.t)
    v_hat = state.v / (1.0 - b2**state.t)
    new = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    out = {}
    for key, shape, start, stop in zip(keys, state.shapes, state.offsets, state.offsets[1:]):
        view = new[start:stop].reshape(shape)
        if key.split(".")[-1] in ("Lambda", "Gamma") and view.ndim == 2:
            view[...] = 0.5 * (view + view.T)
        out[key] = view
    return out


# ---------------------------------------------------------------------------
# Batching


def sample_batch(
    groups: list[np.ndarray], batch_size: int, rng: np.random.Generator
) -> np.ndarray:
    """Balanced batch indices: near-equal quotas per group of row positions
    (in training, the (language, dataset) groups).

    The per-group quota is ceil(batch_size / #groups); the excess over
    batch_size is removed from the tail of a random group permutation, and
    samples are drawn with replacement within each group.
    """
    G = len(groups)
    q = -(-batch_size // G)  # ceil
    excess = q * G - batch_size
    perm = rng.permutation(G)
    sizes = np.array([len(members) for members in groups])
    starts = np.cumsum(sizes) - sizes
    quotas = np.full(G, q)
    quotas[G - excess :] = q - 1
    # One bounded draw per sample, group after group in permutation order:
    # numpy draws an array of bounds element by element from the same stream
    # as one call per group would.
    draws = rng.integers(0, np.repeat(sizes[perm], quotas))
    return np.concatenate(groups)[np.repeat(starts[perm], quotas) + draws]


# ---------------------------------------------------------------------------
# Training loop


@dataclass(eq=False)
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


@dataclass(eq=False)
class TrainResult:
    backend: object
    log: list[Checkpoint]
    best_avg_dev: float
    best_index: int
    seed: int
    diverged: bool = False


def dev_evaluator(
    detector_labels,
    dev_sets: list[tuple[EmbeddingSet, TrialSet]],
    pi: float,
    select_metric: str = "loss",
):
    """evaluate(backend) -> one dev loss per dev set: the trial BCE at prior
    pi, or the actual DCF when select_metric is "dcf".

    The trial indices into each dev set's score matrix are built once, for
    backends whose detectors are detector_labels in that order.
    """
    detector_labels = tuple(detector_labels)
    prepared = [
        (es.vectors, ts.is_target, *trial_index(es, ts, detector_labels))
        for es, ts in dev_sets
    ]

    def metric(scores, is_target):
        if select_metric == "dcf":
            return actual_dcf(scores, is_target)[2]
        return trial_bce(scores, is_target, pi)

    def evaluate(backend):
        if backend.detector_labels != detector_labels:
            raise ValueError("backend detectors disagree with the dev trial index")
        return tuple(
            metric(backend.score_matrix(X)[rows, cols], is_target)
            for X, is_target, rows, cols in prepared
        )

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
    dev metric, fine-tunes it, and returns the overall best checkpoint as a
    new backend; the backend given is left as it is. A non-finite loss
    aborts training, falling back to the best checkpoint recorded so far.
    Each batch of sample_batch is trained on its distinct rows, each counted
    as often as it was drawn, which gives the loss and gradients of the
    batch as drawn up to rounding.
    """
    det_pos = {lab: i for i, lab in enumerate(backend.detector_labels)}
    missing = sorted(set(train_set.languages) - set(det_pos))
    if missing:
        raise ValueError(f"training languages without a detector: {missing}")
    n_negative = len(det_pos) - 1
    if config.batch_size * n_negative > 2**31:
        raise ValueError(
            f"batch_size {config.batch_size} with {len(det_pos)} detectors exceeds "
            f"2^31 negative trials per batch (the bound of hier.EXP_FLOOR); "
            f"use at most {2**31 // n_negative}"
        )
    label_idx_all = np.array([det_pos[l] for l in train_set.languages], dtype=np.intp)
    groups = group_rows(zip(train_set.languages, train_set.datasets))[1]
    n_rows = len(train_set)
    evaluate_dev = dev_evaluator(
        backend.detector_labels, dev_sets, config.pi, config.select_metric
    )
    if isinstance(backend, HierBackend):
        loss_grads = partial(
            hier_loss_grads, info=backend.combine, pi=config.pi, alpha=config.alpha
        )
    elif config.alpha > 0.0:
        raise ValueError("alpha > 0 requires a hierarchical backend")
    else:
        loss_grads = partial(flat_loss_grads, pi=config.pi)
    if not dev_sets:
        raise ValueError("training needs at least one dev set to select checkpoints on")

    rng = np.random.default_rng(seed)
    params = get_params(backend)
    dev_losses = evaluate_dev(with_params(backend, params))
    log = [Checkpoint(0, 0, 0.0, float("nan"), dev_losses, params)]
    best, batches_seen, diverged = log[0], 0, False
    for stage, (n_batches, lr) in enumerate((*config.stages, config.finetune)):
        if stage == len(config.stages):  # the fine-tune starts from the best checkpoint
            params = best.params
        state, running = adam_init(params), []
        for b in range(n_batches):
            counts = np.bincount(sample_batch(groups, config.batch_size, rng), minlength=n_rows)
            idx = np.flatnonzero(counts)
            counts = counts[idx]
            X, y = train_set.vectors[idx], label_idx_all[idx]
            try:
                loss, grads = loss_grads(params, X=X, label_idx=y, counts=counts)
            except FloatingPointError as exc:
                logger.warning("training diverged (%s); falling back to best checkpoint", exc)
                diverged = True
                break
            params = adam_step(params, grads, state, lr)
            running.append(loss)
            batches_seen += 1
            if batches_seen % config.checkpoint_every == 0 or b == n_batches - 1:
                train_loss = float(np.mean(running))
                dev_losses = evaluate_dev(with_params(backend, params))
                log.append(Checkpoint(len(log), batches_seen, lr, train_loss, dev_losses, params))
                best = min(best, log[-1], key=lambda c: (c.avg_dev, c.index))
                running = []
        if diverged:
            break

    return TrainResult(
        backend=with_params(backend, {k: p.copy() for k, p in best.params.items()}),
        log=log,
        best_avg_dev=best.avg_dev,
        best_index=best.index,
        seed=seed,
        diverged=diverged,
    )


def multi_seed_train(
    backend,
    train_set: EmbeddingSet,
    dev_sets: list[tuple[EmbeddingSet, TrialSet]],
    config: TrainConfig,
) -> TrainResult:
    """Run train() from backend once per configured seed and keep the best
    dev result.

    Ties break toward the lowest seed; duplicate seeds are collapsed.
    """
    results = [
        train(backend, train_set, dev_sets, config, seed=seed)
        for seed in dict.fromkeys(config.seeds)
    ]
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
