"""Embedding and trial-list handling.

EMB-TSV files carry one embedding per line (`sample_id  language  dataset
f1 f2 ... fD`, tab-separated, floats space-separated) after a `#dim=<D>`
header line. All sets are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

EMB_TSV_HEADER = "#dim="


class ParseError(ValueError):
    """An input file does not conform to its expected format."""


class EmbeddingSet:
    """Labelled collection of D-dimensional embedding vectors.

    Vectors are stored as a read-only (N, D) float64 array; sample ids must
    be unique and all vectors finite.
    """

    def __init__(
        self,
        sample_ids: Sequence[str],
        languages: Sequence[str],
        datasets: Sequence[str],
        vectors: np.ndarray,
    ):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError("vectors must be a 2-D (N, D) array")
        n, dim = vectors.shape
        if dim < 1:
            raise ValueError("embedding dimension must be >= 1")
        if not (len(sample_ids) == len(languages) == len(datasets) == n):
            raise ValueError("sample_ids, languages, datasets and vectors disagree in length")
        if not np.all(np.isfinite(vectors)):
            raise ValueError("embedding vectors must be finite (no NaN/Inf)")
        ids = tuple(str(s) for s in sample_ids)
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate sample_id in set")
        self.sample_ids = ids
        self.languages = tuple(str(s) for s in languages)
        self.datasets = tuple(str(s) for s in datasets)
        self.vectors = vectors.copy()
        self.vectors.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.sample_ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddingSet):
            return NotImplemented
        return (
            self.sample_ids == other.sample_ids
            and self.languages == other.languages
            and self.datasets == other.datasets
            and self.vectors.shape == other.vectors.shape
            and bool(np.all(self.vectors == other.vectors))
        )

    def language_inventory(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.languages)))

    def dataset_inventory(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.datasets)))


@dataclass(frozen=True)
class TrialSet:
    """Enumerated detection trials: one row per (sample, detector) pair."""

    sample_ids: tuple[str, ...]
    detector_languages: tuple[str, ...]
    is_target: np.ndarray
    detectors: tuple[str, ...]

    def __post_init__(self):
        tgt = np.asarray(self.is_target, dtype=bool)
        tgt.setflags(write=False)
        object.__setattr__(self, "is_target", tgt)
        if not (len(self.sample_ids) == len(self.detector_languages) == len(tgt)):
            raise ValueError("trial fields disagree in length")

    def __len__(self) -> int:
        return len(self.sample_ids)

    @property
    def n_target(self) -> int:
        return int(self.is_target.sum())

    @property
    def n_nontarget(self) -> int:
        return len(self) - self.n_target


def load_embeddings(path) -> EmbeddingSet:
    """Read an EMB-TSV file. Raises ParseError naming the offending line."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith(EMB_TSV_HEADER):
        raise ParseError(f"{path}: missing '#dim=<D>' header at line 1")
    try:
        header_dim = int(lines[0][len(EMB_TSV_HEADER):])
    except ValueError:
        raise ParseError(f"{path}: malformed header at line 1") from None
    if header_dim < 1:
        raise ParseError(f"{path}: header dimension must be >= 1")

    ids, langs, sets, rows = [], [], [], []
    seen = set()
    dim = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise ParseError(f"{path}: expected 4 tab-separated fields at line {lineno}")
        sid, lang, dset, floats = fields
        if sid in seen:
            raise ParseError(f"{path}: duplicate sample_id {sid!r} at line {lineno}")
        seen.add(sid)
        try:
            vec = np.array([float(tok) for tok in floats.split()], dtype=np.float64)
        except ValueError:
            raise ParseError(f"{path}: non-numeric value at line {lineno}") from None
        if dim is None:
            dim = len(vec)
            if dim != header_dim:
                raise ParseError(
                    f"{path}: dimension mismatch at line {lineno} "
                    f"(header says {header_dim}, row has {dim})"
                )
        elif len(vec) != dim:
            raise ParseError(f"{path}: dimension mismatch at line {lineno}")
        if not np.all(np.isfinite(vec)):
            raise ParseError(f"{path}: non-finite value at line {lineno}")
        ids.append(sid)
        langs.append(lang)
        sets.append(dset)
        rows.append(vec)
    if not rows:
        raise ParseError(f"{path}: empty set")
    return EmbeddingSet(ids, langs, sets, np.vstack(rows))


def save_embeddings(embeddings: EmbeddingSet, path) -> None:
    """Write an EMB-TSV file; floats at 17 significant digits (exact round-trip)."""
    if len(embeddings) == 0:
        raise ValueError("refusing to save an empty set")
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{EMB_TSV_HEADER}{embeddings.dim}\n")
        for sid, lang, dset, vector in zip(
            embeddings.sample_ids, embeddings.languages, embeddings.datasets, embeddings.vectors
        ):
            for field in (sid, lang, dset):
                if "\t" in field or "\n" in field:
                    raise ValueError(f"field {field!r} contains a tab or newline")
            floats = " ".join("%.17g" % v for v in vector)
            fh.write(f"{sid}\t{lang}\t{dset}\t{floats}\n")


def generate_trials(embeddings: EmbeddingSet, detectors: Sequence[str]) -> TrialSet:
    """Every sample against every detector; sample-major trial order.

    Out-of-set samples (language without a detector) contribute only
    non-target trials.
    """
    detectors = tuple(detectors)
    if not detectors:
        raise ValueError("detector list must be non-empty")
    if len(set(detectors)) != len(detectors):
        raise ValueError("duplicate detector language")
    n, L = len(embeddings), len(detectors)
    ids = []
    det = []
    for sid in embeddings.sample_ids:
        ids.extend([sid] * L)
        det.extend(detectors)
    langs = np.repeat(np.array(embeddings.languages, dtype=object), L)
    tgt = langs == np.tile(np.array(detectors, dtype=object), n)
    return TrialSet(tuple(ids), tuple(det), tgt.astype(bool), detectors)


def trial_index(
    embeddings: EmbeddingSet, trials: TrialSet, detector_labels: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of every trial in a score matrix over `embeddings` x
    `detector_labels`, so that S[rows, cols] lists the scores in trial order.

    Raises ValueError naming a trial sample or detector that has no row or
    column.
    """
    sample_pos = {sid: i for i, sid in enumerate(embeddings.sample_ids)}
    det_pos = {lab: j for j, lab in enumerate(detector_labels)}
    try:
        rows = np.array([sample_pos[sid] for sid in trials.sample_ids], dtype=np.intp)
    except KeyError as exc:
        raise ValueError(f"trial sample_id {exc.args[0]!r} is not in the embedding set") from None
    try:
        cols = np.array([det_pos[lab] for lab in trials.detector_languages], dtype=np.intp)
    except KeyError as exc:
        raise ValueError(f"trial detector {exc.args[0]!r} is not a detector label") from None
    return rows, cols


def per_language_means(
    embeddings: EmbeddingSet,
    weights: np.ndarray | None = None,
    languages: Sequence[str] | None = None,
) -> dict[str, np.ndarray]:
    """Weighted arithmetic mean vector per language (uniform if no weights)."""
    if weights is None:
        weights = np.ones(len(embeddings))
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(embeddings),):
        raise ValueError("weights must have one entry per record")
    if languages is None:
        languages = embeddings.language_inventory()
    lang_arr = np.array(embeddings.languages, dtype=object)
    means = {}
    for lang in languages:
        mask = lang_arr == lang
        if not mask.any():
            raise ValueError(f"no samples for language {lang!r}")
        w = weights[mask]
        total = w.sum()
        if total <= 0:
            raise ValueError(f"zero total weight for language {lang!r}")
        means[lang] = (w[:, None] * embeddings.vectors[mask]).sum(axis=0) / total
    return means


def balance_weights(embeddings: EmbeddingSet) -> np.ndarray:
    """Per-record weight 1 / count(language, dataset), unnormalized."""
    counts: dict[tuple[str, str], int] = {}
    keys = list(zip(embeddings.languages, embeddings.datasets))
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    return np.array([1.0 / counts[key] for key in keys], dtype=np.float64)


def group_indices(embeddings: EmbeddingSet) -> dict[tuple[str, str], np.ndarray]:
    """Record positions per (language, dataset) group, keys sorted."""
    groups: dict[tuple[str, str], list[int]] = {}
    for i in range(len(embeddings)):
        groups.setdefault((embeddings.languages[i], embeddings.datasets[i]), []).append(i)
    return {key: np.array(groups[key], dtype=np.intp) for key in sorted(groups)}
