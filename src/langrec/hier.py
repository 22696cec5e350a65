"""Hierarchical backend.

A by-cluster flat stage produces cluster scores; a shared by-language
stage, fed with the embedding shifted by a per-cluster vector, produces
cluster-conditional scores. The per-language score combines the two
through posterior/prior odds in the log domain. Only the assignment of
languages to clusters is used; the sample's own cluster is never needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clustering import ClusterMap
from .dataio import EmbeddingSet, read_only
from .backend import FlatBackend, GenerativeFit, flat_forward, init_from_generative
from .plda import PairTables, em_train, pair_tables
from .preproc import lda, row_norms, unit_rows

# Exponent floor of the combination and of the training loss: an exponential
# whose argument is at or below it is taken as e^EXP_FLOOR (combine_matrix) or
# exactly 0 (the loss), so neither computes a subnormal or underflowing exp.
# On an AVX-512 Xeon core numpy's exp takes about 110 ns per element whose
# result is subnormal and 15 ns per one that underflows to 0, against 1 ns
# otherwise, and subnormal operands slow the BLAS products of the backward
# pass as well. Two conditions bound the floor:
# - e^EXP_FLOOR < 2^-106 (EXP_FLOOR < -73.5). Every combination total holds
#   an exact 1 and its other two terms are at most 1; a term below 2^-106
#   cannot change the rounded total, so the scores and 1 - e/total (which is
#   1 when e < 2^-54) are unchanged.
# - e^EXP_FLOOR (1 - pi) / N 2^-53 is normal for pi <= 0.999 and N <= 2^31
#   negative trials (EXP_FLOOR >= -643.3). That is the smallest nonzero
#   negative-trial gradient of the loss times one factor 1 - x, x a double
#   below 1 (such as 1 - e/total); at -600 a margin of 2^62 is left for the
#   others (1 - alpha, 1/2 from e / (1 + e)). So no gradient entry is subnormal.
#   A batch has N = batch_size (L - 1) negative trials for L detectors, and
#   training.train refuses a batch size with N above 2^31.
EXP_FLOOR = -600.0


def prior_odds(p: float) -> float:
    """p / (1 - p); +inf when p == 1 (singleton case)."""
    if not 0.0 < p <= 1.0:
        raise ValueError("prior must be in (0, 1]")
    if p == 1.0:
        return math.inf
    return p / (1.0 - p)


def combine_llr(L_c: float, L_lc: float, P_c: float, P_lc: float) -> float:
    """Combine cluster and cluster-conditional LLRs through the odds identity.

    Evaluated in the log domain. An infinite P_lc (singleton cluster,
    p(l|c) = 1) returns L_c exactly, the analytic limit; an infinite P_c
    symmetrically returns L_lc.
    """
    if not (P_c > 0.0 and P_lc > 0.0):
        raise ValueError("prior odds must be positive")
    if math.isinf(P_lc):
        return float(L_c)
    if math.isinf(P_c):
        return float(L_lc)
    a_c = L_c + math.log(P_c)
    a_lc = L_lc + math.log(P_lc)
    m = max(a_c, a_lc, 0.0)
    lse = m + math.log(math.exp(a_c - m) + math.exp(a_lc - m) + math.exp(-m))
    return L_c + L_lc + math.log(P_c + P_lc + 1.0) - lse


@dataclass(frozen=True, eq=False)
class HierCombineInfo:
    """Fixed combination tables of a hierarchical backend (not trained).

    lang_cluster_idx (L,) holds the stage-1 column of each language's
    cluster. A language alone in its cluster has p(l|c) = 1: its score is its
    cluster score and it has no stage 2. The other languages, cond (K,) in
    detector order, are the conditional columns; P_c and P_lc (K,) hold
    their cluster's prior odds and their prior odds within it, and log_P_c,
    log_P_lc and log_norm = log(P_c + P_lc + 1) the logarithms that
    combine_matrix adds. Stage 2 runs only on the blocks, the clusters of two
    or more languages: blocks (B,) holds their stage-1 columns, and
    cond_block (K,) the block of each conditional column, so
    blocks[cond_block] == lang_cluster_idx[cond].
    """

    lang_cluster_idx: np.ndarray
    cond: np.ndarray
    P_c: np.ndarray
    P_lc: np.ndarray
    blocks: np.ndarray
    cond_block: np.ndarray
    log_P_c: np.ndarray = field(init=False, repr=False)
    log_P_lc: np.ndarray = field(init=False, repr=False)
    log_norm: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "log_P_c", np.log(self.P_c))
        object.__setattr__(self, "log_P_lc", np.log(self.P_lc))
        object.__setattr__(self, "log_norm", np.log(self.P_c + self.P_lc + 1.0))

    @classmethod
    def from_backend(cls, backend: "HierBackend") -> "HierCombineInfo":
        return backend.combine


@dataclass(frozen=True, eq=False)
class Stage2Tables:
    """Per-model tables of the stage-2 conditional scores; see stage2_tables."""

    A: np.ndarray  # (d, D) stage-2 affine map
    b: np.ndarray  # (d,)
    pair: PairTables  # of the conditional columns' detectors v_j
    P: np.ndarray  # (B, d): A s for the shift s of each block
    P_Gamma: np.ndarray  # (B, d): P Gamma
    P_c: np.ndarray  # (B,): P c
    P_W: np.ndarray  # (K,): p_b' W_j for the block b of column j


def stage2_tables(theta2, shifts, info: HierCombineInfo) -> Stage2Tables:
    """The model side of stage2_scores, from the stage-2 parameters theta2
    (FLAT_KEYS, unchecked). All shifts are projected before the blocks are
    picked, so a block's tables do not depend on how many clusters are blocks."""
    A, Gamma, c = theta2["A"], theta2["Gamma"], theta2["c"]
    tables = pair_tables(theta2["Lambda"], Gamma, c, theta2["k"], theta2["detectors"][info.cond])
    P = (shifts @ A.T)[info.blocks]
    P_W = np.einsum("kd,dk->k", P[info.cond_block], tables.W)
    return Stage2Tables(A, theta2["b"], tables, P, P @ Gamma, P @ c, P_W)


def stage2_scores(t: Stage2Tables, info: HierCombineInfo, X):
    """Conditional scores (N, K) of the columns info.cond, each scoring the
    unit stage-2 input u = D_b / n_b of its block b, D_b = Z - P_b with
    Z = A x + b, and the backward pass's parts (Z, n (N, B),
    cross = 2 u'Lambda v_j (N, K), quad = u'Gamma u (N, B), lin = c'u (N, B)).

    D_b is formed only for n_b and D_b'Gamma D_b = D_b . (Z Gamma - P_b Gamma);
    the cross term is 2 (Z Lambda v_j - p_b'Lambda v_j) / n_b for all columns
    in one (N, K) product. Nothing is padded and no d x d product is per block.
    """
    pair = t.pair
    Z = X @ t.A.T + t.b
    D = Z[:, None, :] - t.P
    norms = row_norms(D)
    quad = (np.einsum("nbd,nd->nb", D, Z @ pair.Gamma) - np.einsum("nbd,bd->nb", D, t.P_Gamma))
    quad /= norms**2
    lin = ((Z @ pair.c)[:, None] - t.P_c) / norms
    cross = (Z @ pair.W - t.P_W) / norms[:, info.cond_block]
    S2 = cross + (quad + lin)[:, info.cond_block] + pair.const
    return S2, (Z, norms, cross, quad, lin)


@dataclass(frozen=True, eq=False)
class HierBackend:
    """Two flat stages, per-cluster shift vectors, and the cluster map.

    stage1 detectors are clusters; stage2 detectors are languages with
    parameters shared across clusters. shifts rows align with stage1
    detector order and live in raw embedding space, in a read-only array.
    The combination and stage-2 tables are built once, with the backend.
    """

    stage1: FlatBackend
    stage2: FlatBackend
    shifts: np.ndarray  # (C, D)
    cluster_map: ClusterMap
    combine: HierCombineInfo = field(init=False, repr=False)
    tables2: Stage2Tables = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "shifts", read_only(self.shifts))
        cmap = self.cluster_map
        if cmap.n_clusters() < 2:
            raise ValueError("a hierarchy needs at least 2 clusters")
        clusters = self.stage1.detector_labels
        if tuple(sorted(clusters)) != cmap.cluster_names:
            raise ValueError("stage1 detectors disagree with the cluster map")
        if tuple(sorted(self.stage2.detector_labels)) != cmap.languages:
            raise ValueError("stage2 detectors disagree with the cluster map languages")
        if self.shifts.shape != (len(clusters), self.stage1.preproc.in_dim):
            raise ValueError("shift matrix must be (#clusters, raw dim)")
        if not np.all(np.isfinite(self.shifts)):
            raise ValueError("shift vectors must be finite")
        if self.stage2.preproc.in_dim != self.stage1.preproc.in_dim:
            raise ValueError("stages disagree on raw input dimension")
        cluster_pos = {name: i for i, name in enumerate(clusters)}
        labels = self.stage2.detector_labels
        idx = np.array([cluster_pos[cmap.assignment[l]] for l in labels], dtype=np.intp)
        cond = np.array(
            [j for j, l in enumerate(labels) if cmap.p_l_given_c[l] < 1.0], dtype=np.intp
        )
        blocks, cond_block = np.unique(idx[cond], return_inverse=True)
        combine = HierCombineInfo(
            lang_cluster_idx=idx,
            cond=cond,
            P_c=np.array([prior_odds(cmap.p_c[cmap.assignment[labels[j]]]) for j in cond]),
            P_lc=np.array([prior_odds(cmap.p_l_given_c[labels[j]]) for j in cond]),
            blocks=blocks,
            cond_block=cond_block,
        )
        object.__setattr__(self, "combine", combine)
        object.__setattr__(self, "tables2", stage2_tables(self.stage2.theta, self.shifts, combine))

    @property
    def detector_labels(self) -> tuple[str, ...]:
        return self.stage2.detector_labels

    @property
    def n_detectors(self) -> int:
        return len(self.stage2.detector_labels)

    def score_matrix(self, X: np.ndarray) -> np.ndarray:
        s1 = self.stage1
        return hier_forward(s1.theta, s1.tables, self.tables2, self.combine, X)[0]


def hier_forward(theta1, tables1, stage2: Stage2Tables, info: HierCombineInfo, X):
    """The hierarchical forward pass of scoring and training, on stage 1's
    parameters theta1 and their pair_tables, and the stage2_tables. Returns the
    scores (N, L) and the backward pass's (S1, U1, norms1, parts2, e, total):
    flat_forward's outputs, stage2_scores's parts and combine_matrix's
    exponentials and totals."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    S1, U1, norms1 = flat_forward(theta1, tables1, X)
    S2, parts2 = stage2_scores(stage2, info, X)
    S, e, total = combine_matrix(S1, S2, info)
    return S, (S1, U1, norms1, parts2, e, total)


def combine_matrix(L_c, L_lc, info: HierCombineInfo):
    """Log-domain combination of (N, C) cluster and (N, K) conditional scores.

    Returns (scores (N, L), e (2, N, K), total (N, K)). With a_c and a_lc the
    log posterior-odds terms of the conditional columns and
    m = max(a_c, a_lc, 0), e stacks e^(a_c - m) and e^(a_lc - m), and total
    = e^(a_c - m) + e^(a_lc - m) + e^-m; the backward pass uses 1 - e / total.
    Exponent arguments below EXP_FLOOR are raised to it, which changes
    neither the scores nor 1 - e / total. A language alone in its cluster
    scores L_c exactly.
    """
    S = L_c.take(info.lang_cluster_idx, axis=1)
    Lc_cond = S.take(info.cond, axis=1)
    # One buffer for the three exponent arguments, written with positional
    # outputs: single-row scoring pays per ufunc call.
    E = np.empty((3, *L_lc.shape))
    a_c = np.add(Lc_cond, info.log_P_c, E[0])
    a_lc = np.add(L_lc, info.log_P_lc, E[1])
    m = np.maximum(np.maximum(a_c, a_lc), 0.0)
    np.subtract(a_c, m, a_c)
    np.subtract(a_lc, m, a_lc)
    neg_m = np.negative(m, E[2])
    np.maximum(E, EXP_FLOOR, out=E)
    np.exp(E, E)
    total = a_c + a_lc
    total += neg_m
    lse = np.log(total)
    lse += m
    S[:, info.cond] = Lc_cond + L_lc + info.log_norm - lse
    return S, E[:2], total


def init_hier(
    train: EmbeddingSet,
    cluster_map: ClusterMap,
    weights: np.ndarray | None,
    out_dim1: int | None = None,
    out_dim2: int | None = None,
    em_iters: int = 50,
) -> HierBackend:
    """Generative initialization of the hierarchical backend.

    Shift vectors are the average of the per-language mean embeddings in
    each cluster. Stage1 is initialized with clusters as class labels;
    stage2 on the shifted embeddings with languages as class labels. Both
    LDAs come from the per-language statistics that the training set keeps
    per weight vector (EmbeddingSet.class_stats).
    out_dim1 and out_dim2 default to their rank bounds, #clusters - 1 and
    #languages - #clusters (the between-class rank left after per-cluster
    centering), and may not exceed them.
    """
    langs = cluster_map.languages
    if tuple(train.language_inventory()) != langs:
        raise ValueError("cluster map languages disagree with the training set")
    C = cluster_map.n_clusters()
    L = len(langs)
    if L - C < 1:
        raise ValueError("hierarchy degenerate: every cluster is a singleton")
    if C < 2:
        raise ValueError("hierarchy degenerate: need at least 2 clusters")
    out_dim1 = C - 1 if out_dim1 is None else out_dim1
    out_dim2 = L - C if out_dim2 is None else out_dim2
    if out_dim1 > C - 1:
        raise ValueError(f"out_dim1 {out_dim1} exceeds rank bound #clusters-1 = {C - 1}")
    if out_dim2 > L - C:
        raise ValueError(
            f"out_dim2 {out_dim2} exceeds rank bound #languages-#clusters = {L - C}"
        )

    lang_stats = train.class_stats(train.languages, weights)[1]
    lang_means = dict(zip(langs, lang_stats.sums / lang_stats.counts[:, None]))
    cluster_names = cluster_map.cluster_names
    shifts = np.vstack(
        [
            np.mean([lang_means[l] for l in cluster_map.cluster_languages[name]], axis=0)
            for name in cluster_names
        ]
    )

    sample_clusters = [cluster_map.assignment[lang] for lang in train.languages]
    stage1 = init_from_generative(
        train, weights, out_dim1, class_labels=sample_clusters, em_iters=em_iters
    )

    # Stage 2 fits the shifted rows x - s_c without forming them: the shift
    # leaves each language's scatter as it is and moves its sum by n_l s_c.
    lang_cluster = np.searchsorted(cluster_names, [cluster_map.assignment[l] for l in langs])
    preproc2 = lda(langs, lang_stats.shifted(shifts[lang_cluster]), out_dim2)
    A2 = preproc2.A
    cluster_idx = np.searchsorted(cluster_names, sample_clusters)
    U2 = unit_rows(train.vectors @ A2.T - (shifts @ A2.T)[cluster_idx] + preproc2.b)[0]
    labels = list(train.languages)
    model2 = em_train(U2, labels, weights, n_iters=em_iters)
    stage2 = GenerativeFit(preproc2, model2, labels, U2).flat_backend()

    return HierBackend(stage1=stage1, stage2=stage2, shifts=shifts, cluster_map=cluster_map)
