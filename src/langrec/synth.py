"""Hierarchical synthetic embeddings and the three-system comparison.

Cluster means are drawn around the origin, language means around their
cluster mean, dataset shifts shared per dataset, and samples around the
shifted language mean. The comparison trains a generative exact-scoring
backend, its discriminative counterpart, and the hierarchical variant on
identical data, then reports all-trial and within-cluster detection
metrics.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .backend import generative_fit
from .clustering import ClusterMap, cut_merges, linkage_merges, plda_distance_matrix
from .dataio import (
    EmbeddingSet,
    balance_weights,
    check_count,
    generate_trials,
    per_language_means,
    trial_index,
)
from .hier import HierBackend, init_hier
from .metrics import bootstrap_ci, evaluate, subset_trials
from .training import TrainConfig, dev_evaluator, multi_seed_train

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings; defaults are the desk-scale comparison setup.

    sigma_language is deliberately small relative to sigma_within: language
    mean separation grows with sqrt(2 * dim) while per-trial noise does
    not, and hard within-cluster trials need the two comparable.
    """

    dim: int = 64
    cluster_sizes: tuple[int, ...] = (3, 3, 2, 1, 1)
    sigma_cluster: float = 3.0
    sigma_language: float = 0.08
    sigma_within: float = 0.7
    n_datasets: int = 2
    sigma_dataset: float = 0.3
    n_train: int = 200
    n_dev: int = 40
    n_test: int = 40
    seed: int = 0

    def __post_init__(self):
        if not self.cluster_sizes:
            raise ValueError("cluster_sizes must be non-empty")
        for size in self.cluster_sizes:
            check_count("cluster size", size, 1)
        for name in ("dim", "n_datasets", "n_train", "n_dev", "n_test"):
            check_count(name, getattr(self, name), 1)
        check_count("seed", self.seed)
        for name in ("sigma_cluster", "sigma_language", "sigma_within", "sigma_dataset"):
            sigma = getattr(self, name)
            if not (math.isfinite(sigma) and sigma > 0):
                raise ValueError(f"{name} must be finite and > 0, got {sigma!r}")

    @property
    def languages(self) -> list[str]:
        return [
            f"c{i}_l{j}"
            for i, size in enumerate(self.cluster_sizes)
            for j in range(size)
        ]


def generate(config: SynthConfig) -> tuple[EmbeddingSet, EmbeddingSet, EmbeddingSet, ClusterMap]:
    """(train, dev, test, truth cluster map), all deterministic per seed."""
    rng = np.random.default_rng(config.seed)
    D = config.dim

    sizes = config.cluster_sizes
    cluster_means = config.sigma_cluster * rng.standard_normal((len(sizes), D))
    lang_means = cluster_means[np.repeat(np.arange(len(sizes)), sizes)]
    lang_means += config.sigma_language * rng.standard_normal(lang_means.shape)
    truth = {f"c{i}_l0": tuple(f"c{i}_l{j}" for j in range(n)) for i, n in enumerate(sizes)}
    dataset_shifts = config.sigma_dataset * rng.standard_normal((config.n_datasets, D))

    def build(split: str, n_per_language: int) -> EmbeddingSet:
        """The split's set, each (language, dataset) block drawn into its
        rows of one array: the set adopts that array, so the vectors exist
        once."""
        counts = [
            n_per_language // config.n_datasets
            + (1 if k < n_per_language % config.n_datasets else 0)
            for k in range(config.n_datasets)
        ]
        vectors = np.empty((len(config.languages) * n_per_language, D))
        ids, langs, dsets = [], [], []
        start = 0
        for lang, mean in zip(config.languages, lang_means):
            for k, count in enumerate(counts):
                block = vectors[start:start + count]
                start += count
                rng.standard_normal(out=block)
                block *= config.sigma_within
                block += mean + dataset_shifts[k]
                ids.extend(f"{split}_{lang}_d{k}_{i:04d}" for i in range(count))
                langs.extend([lang] * count)
                dsets.extend([f"d{k}"] * count)
        return EmbeddingSet(ids, langs, dsets, vectors)

    train = build("train", config.n_train)
    dev = build("dev", config.n_dev)
    test = build("test", config.n_test)
    return train, dev, test, ClusterMap(truth)


def tune_cluster_threshold(
    train: EmbeddingSet,
    dev_sets,
    weights,
    gen_backend,
    pi: float,
    em_iters: int = 50,
) -> tuple[float, ClusterMap]:
    """The threshold and cluster map of tune_hierarchy."""
    threshold, backend = tune_hierarchy(train, dev_sets, weights, gen_backend, pi, em_iters)
    return threshold, backend.cluster_map


def tune_hierarchy(
    train: EmbeddingSet,
    dev_sets,
    weights,
    gen_backend,
    pi: float,
    em_iters: int = 50,
) -> tuple[float, HierBackend]:
    """Pick the merge threshold whose hierarchy has the best dev loss at init,
    and return it with that hierarchy's initialised backend.

    Candidates come from the observed merge-distance sequence (one between
    every pair of consecutive merge distances, plus the extremes).
    Candidates whose hierarchy init_hier or EM refuses (ValueError) are
    skipped.
    """
    means = per_language_means(train)
    langs, dist = plda_distance_matrix(means, gen_backend.model, gen_backend.preproc)
    merges = linkage_merges(langs, dist)
    dists = [m.distance for m in merges]
    candidates = [dists[0] - 1.0]
    candidates += [0.5 * (a + b) for a, b in zip(dists, dists[1:]) if b > a]
    candidates.append(dists[-1] + 1.0)

    evaluate_dev = dev_evaluator(langs, dev_sets, pi)
    best = None
    for threshold in candidates:
        cmap = cut_merges(langs, merges, threshold)
        try:
            backend = init_hier(train, cmap, weights, em_iters=em_iters)
        except ValueError as exc:
            # init_hier refuses a map of one cluster or of singletons only,
            # and EM a stage whose classes are each a single point (a 1-D
            # stage of two clusters is +-1 under length normalization).
            logger.info("skipping threshold %.4g: %s", threshold, exc)
            continue
        loss = float(np.mean(evaluate_dev(backend)))
        if best is None or loss < best[0]:
            best = (loss, threshold, backend)
    if best is None:
        raise ValueError("no viable clustering threshold (degenerate hierarchy everywhere)")
    _, threshold, backend = best
    logger.info(
        "tuned cluster threshold %.4g (%d clusters)", threshold, backend.cluster_map.n_clusters()
    )
    return threshold, backend


@dataclass(eq=False)
class ComparisonResult:
    report: dict  # system -> subset -> MetricReport dict
    cluster_map: ClusterMap
    scores: dict = field(repr=False, default_factory=dict)  # system -> (N, L) array
    trials: object = None


def run_comparison(
    config: SynthConfig,
    train_config: TrainConfig,
    n_boot: int = 1000,
    bootstrap_seed: int = 0,
    em_iters: int = 50,
    out_dir=None,
) -> ComparisonResult:
    """Train and evaluate the generative, discriminative, and hierarchical
    backends on one synthetic draw.

    All three share the data and the balance weights; the generative model
    and the flat discriminative model's initialization come from one fit. Within-cluster
    subsets are reported for every tuned cluster with at least 2 languages.
    With out_dir set, writes report.json ({system -> subset -> report}) and
    one <system>.scores.tsv per system for score-distribution plots.
    """
    train_set, dev_set, test_set, _truth = generate(config)
    weights = balance_weights(train_set)

    generative = generative_fit(train_set, weights, em_iters=em_iters)
    plda_backend = generative.generative_backend()
    detectors = plda_backend.detector_labels
    dev_trials = generate_trials(dev_set, detectors)
    dev_sets = [(dev_set, dev_trials)]

    _, tuned = tune_hierarchy(
        train_set, dev_sets, weights, plda_backend, train_config.pi, em_iters=em_iters
    )
    cmap = tuned.cluster_map

    dplda = multi_seed_train(generative.flat_backend(), train_set, dev_sets, train_config).backend
    hdplda = multi_seed_train(tuned, train_set, dev_sets, train_config).backend

    trials = generate_trials(test_set, detectors)
    sample_langs = dict(zip(test_set.sample_ids, test_set.languages))
    cluster_subsets = {
        cname: subset_trials(trials, sample_langs, cmap, cname)
        for cname in cmap.cluster_names
        if len(cmap.cluster_languages[cname]) >= 2
    }
    systems = {"plda": plda_backend, "dplda": dplda, "hdplda": hdplda}
    report: dict[str, dict] = {}
    scores_by_system: dict[str, np.ndarray] = {}
    for name, backend in systems.items():
        rows, cols = trial_index(test_set, trials, backend.detector_labels)
        flat = backend.score_matrix(test_set.vectors)[rows, cols]
        scores_by_system[name] = flat
        rep = evaluate(flat, trials.is_target)
        rep.ci_low, rep.ci_high = bootstrap_ci(
            flat, trials, n_boot=n_boot, seed=bootstrap_seed
        )
        subsets = {"all": asdict(rep)}
        for cname, (sub, mask) in cluster_subsets.items():
            sub_rep = evaluate(flat[mask], sub.is_target)
            sub_rep.ci_low, sub_rep.ci_high = bootstrap_ci(
                flat[mask], sub, n_boot=n_boot, seed=bootstrap_seed
            )
            subsets[f"cluster:{cname}"] = asdict(sub_rep)
        report[name] = subsets

    result = ComparisonResult(
        report=report, cluster_map=cmap, scores=scores_by_system, trials=trials
    )
    if out_dir is not None:
        write_comparison(result, out_dir)
    return result


def write_comparison(result: ComparisonResult, out_dir) -> None:
    """report.json plus one raw per-trial score TSV per system."""
    import json
    from pathlib import Path

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(result.report, indent=2, sort_keys=True)
    (out_dir / "report.json").write_text(text + "\n", encoding="utf-8")
    trials = result.trials
    for name, flat in result.scores.items():
        lines = ["sample_id\tdetector\tis_target\tllr"]
        for i in range(len(trials)):
            lines.append(
                f"{trials.sample_ids[i]}\t{trials.detector_languages[i]}"
                f"\t{int(trials.is_target[i])}\t{'%.9g' % flat[i]}"
            )
        (out_dir / f"{name}.scores.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
