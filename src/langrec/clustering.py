"""Pre-training language clustering.

Per-language mean embeddings are compared with a PLDA pair score turned
into a distance (negated LLR), then grouped by average-linkage
agglomerative clustering cut at a distance threshold. Unclustered
languages remain singleton clusters. Each cluster is named after its
lexicographically smallest language, and ties between merge candidates are
broken by the lexicographically smallest cluster-name pair so the result
is fully deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .plda import PldaModel, pair_score_matrix, to_pair_params
from .preproc import AffinePreproc


@dataclass(frozen=True)
class MergeStep:
    step: int
    left: str
    right: str
    distance: float


@dataclass(frozen=True)
class ClusterMap:
    """Partition of languages into named clusters with detection priors.

    p_c is cluster size over total languages; p_l_given_c is uniform within
    the cluster.
    """

    assignment: dict[str, str]
    cluster_languages: dict[str, tuple[str, ...]]
    p_c: dict[str, float]
    p_l_given_c: dict[str, float]
    threshold: float | None = None

    def __post_init__(self):
        langs = sorted(self.assignment)
        covered = sorted(l for langs_c in self.cluster_languages.values() for l in langs_c)
        if langs != covered:
            raise ValueError("cluster_languages must partition the assigned languages")
        for name, members in self.cluster_languages.items():
            for lang in members:
                if self.assignment[lang] != name:
                    raise ValueError(f"assignment of {lang!r} disagrees with cluster {name!r}")
        if abs(sum(self.p_c.values()) - 1.0) > 1e-12:
            raise ValueError("cluster priors must sum to 1")
        for name, members in self.cluster_languages.items():
            if abs(sum(self.p_l_given_c[l] for l in members) - 1.0) > 1e-12:
                raise ValueError(f"conditional priors in cluster {name!r} must sum to 1")

    @property
    def languages(self) -> tuple[str, ...]:
        return tuple(sorted(self.assignment))

    @property
    def cluster_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.cluster_languages))

    def n_clusters(self) -> int:
        return len(self.cluster_languages)


def cluster_priors(
    cluster_languages: Mapping[str, Sequence[str]], threshold: float | None = None
) -> ClusterMap:
    """Build a ClusterMap with priors from a {name: languages} partition."""
    total = sum(len(m) for m in cluster_languages.values())
    if total == 0:
        raise ValueError("empty partition")
    assignment = {}
    clusters = {}
    p_c = {}
    p_lc = {}
    for name in sorted(cluster_languages):
        members = tuple(sorted(cluster_languages[name]))
        clusters[name] = members
        p_c[name] = len(members) / total
        for lang in members:
            assignment[lang] = name
            p_lc[lang] = 1.0 / len(members)
    return ClusterMap(
        assignment=assignment,
        cluster_languages=clusters,
        p_c=p_c,
        p_l_given_c=p_lc,
        threshold=threshold,
    )


def plda_distance_matrix(
    means: Mapping[str, np.ndarray], model: PldaModel, preproc: AffinePreproc
) -> tuple[list[str], np.ndarray]:
    """Negated pairwise PLDA scores between preprocessed language means.

    Returns the sorted language list and the symmetric distance matrix with
    a -inf sentinel on the (unused) diagonal.
    """
    langs = sorted(means)
    if len(langs) < 2:
        raise ValueError("need at least 2 languages")
    M = np.vstack([preproc.transform(np.asarray(means[l])[None, :])[0] for l in langs])
    params = to_pair_params(model)
    scores = pair_score_matrix(params, M, M)
    dist = -0.5 * (scores + scores.T)
    np.fill_diagonal(dist, -np.inf)
    return langs, dist


def linkage_merges(labels: Sequence[str], dist: np.ndarray) -> list[MergeStep]:
    """Full average-linkage merge sequence down to a single cluster.

    Linkage between clusters is the average of the original pairwise
    distances across them. Cluster names are their lexicographically
    smallest member.
    """
    labels = list(labels)
    n = len(labels)
    dist = np.asarray(dist, dtype=np.float64)
    if dist.shape != (n, n):
        raise ValueError("distance matrix shape disagrees with labels")
    if n >= 2:
        off = ~np.eye(n, dtype=bool)
        if np.abs(dist[off] - dist.T[off]).max() > 1e-12:
            raise ValueError("distance matrix must be symmetric")

    def linkage(a, b):
        return float(np.mean(dist[np.ix_(members[a], members[b])]))

    # Clusters by id, in merge-list order; link caches the linkage of every
    # pair (a, b) with a before b, so a merge computes only the new cluster's.
    members = {i: [i] for i in range(n)}
    names = dict(enumerate(labels))
    order = list(range(n))
    link = {(a, b): linkage(a, b) for i, a in enumerate(order) for b in order[i + 1 :]}
    merges = []
    while len(order) > 1:
        best = None
        for i, a in enumerate(order):
            for b in order[i + 1 :]:
                key = (link[a, b], tuple(sorted((names[a], names[b]))))
                if best is None or key < best[0]:
                    best = (key, a, b)
        (d, pair), a, b = best
        merges.append(MergeStep(step=len(merges), left=pair[0], right=pair[1], distance=d))
        new = len(members)
        members[new] = members[a] + members[b]
        names[new] = pair[0]
        order = [k for k in order if k not in (a, b)]
        link.update({(k, new): linkage(k, new) for k in order})
        order.append(new)
    return merges


def agglomerate(labels: Sequence[str], dist: np.ndarray, threshold: float) -> ClusterMap:
    """Average-linkage clustering cut where the smallest linkage exceeds threshold."""
    return cut_merges(labels, linkage_merges(labels, dist), threshold)


def cut_merges(labels: Sequence[str], merges: Sequence[MergeStep], threshold: float) -> ClusterMap:
    """The clusters of a linkage_merges sequence, applied up to the first merge
    whose distance exceeds threshold."""
    parent = {lab: lab for lab in labels}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for step in merges:
        if step.distance > threshold:
            break
        a, b = find(step.left), find(step.right)
        root = min(a, b)
        parent[a] = root
        parent[b] = root

    groups: dict[str, list[str]] = {}
    for lab in labels:
        groups.setdefault(find(lab), []).append(lab)
    return cluster_priors({name: tuple(sorted(m)) for name, m in groups.items()}, threshold)


def merges_to_tsv(merges: Sequence[MergeStep]) -> str:
    lines = ["step\tleft\tright\tdistance"]
    for m in merges:
        lines.append(f"{m.step}\t{m.left}\t{m.right}\t{'%.17g' % m.distance}")
    return "\n".join(lines) + "\n"


def cluster_map_to_json(cmap: ClusterMap) -> str:
    doc = {
        "clusters": {name: list(cmap.cluster_languages[name]) for name in cmap.cluster_names},
        "threshold": cmap.threshold,
    }
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def cluster_map_from_json(text: str) -> ClusterMap:
    doc = json.loads(text)
    if "clusters" not in doc:
        raise ValueError("cluster map JSON lacks 'clusters'")
    return cluster_priors(
        {name: tuple(langs) for name, langs in doc["clusters"].items()},
        doc.get("threshold"),
    )
