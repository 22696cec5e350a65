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
from .dataio import EmbeddingSet, per_language_means
from .backend import FlatBackend, init_from_generative
from .plda import pair_score_matrix
from .preproc import length_normalize


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


@dataclass(frozen=True)
class HierCombineInfo:
    """Fixed combination tables of a hierarchical backend (not trained).

    The first five fields align with the stage-2 detectors: the stage-1
    column of each language's cluster, that cluster's prior odds, the
    language's prior odds within it (inf for a singleton cluster), the
    singleton flag and the language's slot (its position among its
    cluster's members). pad_cols (C, m), with m the largest cluster size and
    rows in stage-1 detector order, holds the stage-2 columns of each
    cluster's members, padded with column 0:
    pad_cols[lang_cluster_idx[j], lang_slot[j]] == j.
    """

    lang_cluster_idx: np.ndarray
    P_c: np.ndarray
    P_lc: np.ndarray
    singleton: np.ndarray
    lang_slot: np.ndarray
    pad_cols: np.ndarray

    @classmethod
    def from_backend(cls, backend: "HierBackend") -> "HierCombineInfo":
        return backend.combine


@dataclass
class HierBackend:
    """Two flat stages, per-cluster shift vectors, and the cluster map.

    stage1 detectors are clusters; stage2 detectors are languages with
    parameters shared across clusters. shifts rows align with stage1
    detector order and live in raw embedding space.
    """

    stage1: FlatBackend
    stage2: FlatBackend
    shifts: np.ndarray  # (C, D)
    cluster_map: ClusterMap
    combine: HierCombineInfo = field(init=False, repr=False)

    def __post_init__(self):
        self.shifts = np.asarray(self.shifts, dtype=np.float64)
        cmap = self.cluster_map
        clusters = self.stage1.detector_labels
        if tuple(sorted(clusters)) != cmap.cluster_names:
            raise ValueError("stage1 detectors disagree with the cluster map")
        if tuple(sorted(self.stage2.detector_labels)) != cmap.languages:
            raise ValueError("stage2 detectors disagree with the cluster map languages")
        if self.shifts.shape != (len(clusters), self.stage1.preproc.in_dim):
            raise ValueError("shift matrix must be (#clusters, raw dim)")
        if self.stage2.preproc.in_dim != self.stage1.preproc.in_dim:
            raise ValueError("stages disagree on raw input dimension")
        cluster_pos = {name: i for i, name in enumerate(clusters)}
        idx, slot, pc, plc, single = [], [], [], [], []
        for lang in self.stage2.detector_labels:
            cname = cmap.assignment[lang]
            idx.append(cluster_pos[cname])
            slot.append(cmap.cluster_languages[cname].index(lang))
            pc.append(prior_odds(cmap.p_c[cname]))
            p = cmap.p_l_given_c[lang]
            single.append(p == 1.0)
            plc.append(math.inf if p == 1.0 else prior_odds(p))
        idx, slot = np.array(idx, dtype=np.intp), np.array(slot, dtype=np.intp)
        pad_cols = np.zeros((len(clusters), np.bincount(idx).max()), dtype=np.intp)
        pad_cols[idx, slot] = np.arange(idx.size)
        self.combine = HierCombineInfo(
            lang_cluster_idx=idx,
            P_c=np.array(pc, dtype=np.float64),
            P_lc=np.array(plc, dtype=np.float64),
            singleton=np.array(single, dtype=bool),
            lang_slot=slot,
            pad_cols=pad_cols,
        )

    @property
    def detector_labels(self) -> tuple[str, ...]:
        return self.stage2.detector_labels

    @property
    def n_detectors(self) -> int:
        return len(self.stage2.detector_labels)

    def stage_scores(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(cluster scores (N, C), cluster-conditional language scores (N, L))."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        L_c = self.stage1.score_matrix(X)
        pre2 = self.stage2.preproc
        U2 = length_normalize(shifted_projection(pre2.A, pre2.b, self.shifts, X))
        return L_c, stage2_scores(self.stage2.params, self.stage2.detectors, U2, self.combine)

    def score_matrix(self, X: np.ndarray) -> np.ndarray:
        L_c, L_lc = self.stage_scores(X)
        return combine_matrix(L_c, L_lc, self.combine)[0]


def shifted_projection(A, b, shifts, X) -> np.ndarray:
    """Affine outputs A (x - s_c) + b of every row of X under every shift: (C, N, d).

    Evaluated as (A x + b) - A s_c, so the batch is projected once and each
    cluster subtracts one projected shift.
    """
    return (X @ A.T + b)[None, :, :] - (shifts @ A.T)[:, None, :]


def stage2_scores(params, detectors, U2, info: HierCombineInfo) -> np.ndarray:
    """Cluster-conditional scores (N, L): every language scores the
    length-normalised stage-2 rows U2[c] of its own cluster c (U2 is (C, N, d)).

    All clusters are scored in one pair_score_matrix pass against their
    padded detectors, (C, N, m); each language's column is then gathered
    from its cluster and slot.
    """
    S = pair_score_matrix(params, detectors[info.pad_cols], U2)
    return np.ascontiguousarray(S[info.lang_cluster_idx, :, info.lang_slot].T)


def combine_matrix(L_c, L_lc, info: HierCombineInfo):
    """Log-domain combination of (N, C) cluster and (N, L) conditional scores.

    Returns (scores (N, L), a_c - lse, a_lc - lse), where a_c and a_lc are
    the log posterior-odds terms and lse = log(e^a_c + e^a_lc + 1); the
    backward pass needs the last two. Every column is computed with
    log P_lc = 0 on singletons, whose scores are then L_c exactly.
    """
    single = info.singleton
    Lc_per_lang = L_c[:, info.lang_cluster_idx]
    P_lc = np.where(single, 0.0, info.P_lc)
    a_c = Lc_per_lang + np.log(info.P_c)[None, :]
    a_lc = L_lc + np.where(single, 0.0, np.log(info.P_lc))[None, :]
    m = np.maximum(np.maximum(a_c, a_lc), 0.0)
    lse = m + np.log(np.exp(a_c - m) + np.exp(a_lc - m) + np.exp(-m))
    S = Lc_per_lang + L_lc + np.log(info.P_c + P_lc + 1.0)[None, :] - lse
    S[:, single] = Lc_per_lang[:, single]
    return S, a_c - lse, a_lc - lse


def init_hier(
    train: EmbeddingSet,
    cluster_map: ClusterMap,
    weights: np.ndarray | None,
    out_dim1: int,
    out_dim2: int,
    em_iters: int = 50,
) -> HierBackend:
    """Generative initialization of the hierarchical backend.

    Shift vectors are the average of the per-language mean embeddings in
    each cluster. Stage1 is initialized with clusters as class labels;
    stage2 on the shifted embeddings with languages as class labels.
    Requires out_dim1 <= #clusters - 1 and out_dim2 <= #languages -
    #clusters (the between-class rank left after per-cluster centering).
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
    if out_dim1 > C - 1:
        raise ValueError(f"out_dim1 {out_dim1} exceeds rank bound #clusters-1 = {C - 1}")
    if out_dim2 > L - C:
        raise ValueError(
            f"out_dim2 {out_dim2} exceeds rank bound #languages-#clusters = {L - C}"
        )

    lang_means = per_language_means(train, weights)
    cluster_names = sorted(cluster_map.cluster_names)
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

    name_pos = {name: i for i, name in enumerate(cluster_names)}
    shift_rows = np.vstack([shifts[name_pos[c]] for c in sample_clusters])
    shifted = EmbeddingSet(
        train.sample_ids, train.languages, train.datasets, train.vectors - shift_rows
    )
    stage2 = init_from_generative(shifted, weights, out_dim2, em_iters=em_iters)

    return HierBackend(stage1=stage1, stage2=stage2, shifts=shifts, cluster_map=cluster_map)
