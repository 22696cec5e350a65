"""Embedding and trial-list handling.

EMB-TSV files carry one embedding per line (`sample_id  language  dataset
f1 f2 ... fD`, tab-separated, floats space-separated) after a `#dim=<D>`
header line. All sets are immutable after construction.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

EMB_TSV_HEADER = "#dim="


class ParseError(ValueError):
    """An input file does not conform to its expected format."""


class EmbeddingSet:
    """Labelled collection of D-dimensional embedding vectors.

    Vectors are stored as a read-only (N, D) float64 array; sample ids must
    be unique and all vectors finite. The set keeps the per-language
    statistics of the last weight vector it was asked about (class_stats).
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
        self._kept_stats = None

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

    @cached_property
    def _language_rows(self) -> tuple[tuple[str, ...], list[np.ndarray], np.ndarray]:
        """group_rows of the languages, and the language index of every row."""
        languages, rows = group_rows(self.languages)
        return languages, rows, group_index(rows, len(self))

    def class_stats(self, labels, weights: np.ndarray | None) -> tuple[tuple, "ClassStats"]:
        """The classes of the per-row labels, sorted as group_rows sorts them,
        and their statistics under the weights.

        They are pooled from the statistics of each language, or of each
        (language, label) group where labels split a language. The
        per-language ones are computed once per weight vector: the set keeps
        them, keyed by the bytes of the weights, until other weights ask.
        """
        weights = check_weights(weights, len(self))
        labels = np.fromiter(labels, dtype=object)
        if labels.shape != (len(self),):
            raise ValueError("labels must have one entry per row")
        _, rows, index = self._language_rows
        atom_labels = labels[[r[0] for r in rows]]
        if np.all(labels == atom_labels[index]):
            key = weights.tobytes()
            if self._kept_stats is None or self._kept_stats[0] != key:
                self._kept_stats = (key, class_stats(self.vectors, rows, weights))
            atoms = self._kept_stats[1]
        else:
            pairs, rows = group_rows(zip(self.languages, labels))
            atom_labels = [c for _, c in pairs]
            atoms = class_stats(self.vectors, rows, weights)
        classes, members = group_rows(atom_labels)
        return classes, atoms.pooled(group_index(members, len(atom_labels)), len(classes))


@dataclass(frozen=True, eq=False)
class TrialSet:
    """Enumerated detection trials: one row per (sample, detector) pair."""

    sample_ids: tuple[str, ...]
    detector_languages: tuple[str, ...]
    is_target: np.ndarray

    def __post_init__(self):
        tgt = np.asarray(self.is_target, dtype=bool)
        tgt.setflags(write=False)
        object.__setattr__(self, "is_target", tgt)
        if not (len(self.sample_ids) == len(self.detector_languages) == len(tgt)):
            raise ValueError("trial fields disagree in length")

    def __len__(self) -> int:
        return len(self.sample_ids)


def load_embeddings(path) -> EmbeddingSet:
    """Read an EMB-TSV file. Raises ParseError naming the offending line.

    The float fields of all rows are parsed in one pass. If that pass or its
    checks reject the file, the per-line parser reads it again, and its
    verdict, the set or the error naming the first bad line, is the answer.
    """
    path = Path(path)
    header_dim, body = _read_emb_tsv(path)
    embeddings = _parse_rows_at_once(body, header_dim)
    if embeddings is None:
        embeddings = _parse_rows_one_by_one(path, body, header_dim)
    return embeddings


def read_text(path) -> str:
    """The text of a UTF-8 file with universal newlines, or ParseError naming
    the file if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from None


def _read_emb_tsv(path: Path) -> tuple[int, list[tuple[int, list[str]]]]:
    """The header dimension and the (line number, tab fields) of every
    non-blank line after the header."""
    lines = read_text(path).splitlines()
    if not lines or not lines[0].startswith(EMB_TSV_HEADER):
        raise ParseError(f"{path}: missing '#dim=<D>' header at line 1")
    try:
        header_dim = int(lines[0][len(EMB_TSV_HEADER):])
    except ValueError:
        raise ParseError(f"{path}: malformed header at line 1") from None
    if header_dim < 1:
        raise ParseError(f"{path}: header dimension must be >= 1")
    body = [
        (lineno, line.split("\t"))
        for lineno, line in enumerate(lines[1:], start=2)
        if line.strip()
    ]
    if not body:
        raise ParseError(f"{path}: empty set")
    return header_dim, body


def _parse_rows_at_once(body, header_dim: int) -> EmbeddingSet | None:
    """The set, with every float field parsed in one np.loadtxt call, or None
    if any row needs the per-line parser's verdict.

    np.loadtxt splits on the whitespace str.split() splits on and parses
    each number as float() does, but rejects what float() alone accepts
    (digit-group underscores, non-ASCII digits); comments=None keeps '#'
    from cutting a row short. So wherever this returns a set, the per-line
    parser returns the same one.
    """
    if any(len(fields) != 4 for _, fields in body):
        return None
    ids, langs, sets, floats = zip(*(fields for _, fields in body))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vectors = np.loadtxt(list(floats), dtype=np.float64, comments=None, ndmin=2)
        if vectors.shape != (len(ids), header_dim):
            return None
        return EmbeddingSet(ids, langs, sets, vectors)  # checks finiteness and unique ids
    except (ValueError, Warning):
        return None


def _parse_rows_one_by_one(path: Path, body, header_dim: int) -> EmbeddingSet:
    """The set, or ParseError naming the first offending line in file order."""
    ids, langs, sets, rows = [], [], [], []
    seen = set()
    dim = None
    for lineno, fields in body:
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
    return EmbeddingSet(ids, langs, sets, np.vstack(rows))


def save_embeddings(embeddings: EmbeddingSet, path) -> None:
    """Write an EMB-TSV file; floats at 17 significant digits (exact round-trip).

    The labels are checked before the file is opened. Rows are written one
    at a time through one format template: the text of the whole file, or
    all vectors as Python floats at once, would cost more memory than the
    array itself.
    """
    if len(embeddings) == 0:
        raise ValueError("refusing to save an empty set")
    labels = list(zip(embeddings.sample_ids, embeddings.languages, embeddings.datasets))
    for fields in labels:
        for field in fields:
            # load_embeddings splits lines at every break str.splitlines knows.
            if "\t" in field or len((field + ".").splitlines()) > 1:
                raise ValueError(f"field {field!r} contains a tab or newline")
    row_format = "%s\t%s\t%s\t" + " ".join(["%.17g"] * embeddings.dim) + "\n"
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{EMB_TSV_HEADER}{embeddings.dim}\n")
        for fields, vector in zip(labels, embeddings.vectors):
            fh.write(row_format % (*fields, *vector.tolist()))


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
    return TrialSet(tuple(ids), tuple(det), tgt.astype(bool))


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
    embeddings: EmbeddingSet, weights: np.ndarray | None = None
) -> dict[str, np.ndarray]:
    """Weighted arithmetic mean vector per language (uniform if no weights)."""
    weights = check_weights(weights, len(embeddings))
    means = {}
    for lang, rows in zip(*group_rows(embeddings.languages)):
        w = weights[rows]
        means[lang] = (w[:, None] * embeddings.vectors[rows]).sum(axis=0) / w.sum()
    return means


def read_only(a) -> np.ndarray:
    """a as a float64 array that refuses in-place writes; an array that
    already is float64 is frozen itself, not copied."""
    a = np.asarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


def check_count(name: str, value, minimum: int = 0) -> None:
    """ValueError unless value is an integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_weights(weights: np.ndarray | None, n: int) -> np.ndarray:
    """Per-record weights as a float array: all ones for None, otherwise one
    finite positive weight for each of the n records, or ValueError."""
    if weights is None:
        return np.ones(n)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n,):
        raise ValueError("weights must have one entry per record")
    if not np.all(np.isfinite(weights) & (weights > 0)):
        raise ValueError("weights must be finite and positive")
    return weights


def balance_weights(embeddings: EmbeddingSet) -> np.ndarray:
    """Per-record weight 1 / count(language, dataset), unnormalized."""
    weights = np.empty(len(embeddings))
    for rows in group_rows(zip(embeddings.languages, embeddings.datasets))[1]:
        weights[rows] = 1.0 / len(rows)
    return weights


def group_rows(labels) -> tuple[tuple, list[np.ndarray]]:
    """The distinct labels, sorted as the objects they are (integers as
    integers, tuples element by element), and the ascending positions of the
    rows that carry each."""
    labels = np.fromiter(labels, dtype=object)
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    cuts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    rows = np.split(order, cuts) if order.size else []
    return tuple(labels[r[0]] for r in rows), rows


class ClassStats(NamedTuple):
    """Weighted statistics of C classes of d-dimensional rows."""

    counts: np.ndarray  # (C,) weighted counts n
    sums: np.ndarray  # (C, d) weighted sums f
    sizes: np.ndarray  # (C,) row counts
    scatter: np.ndarray  # (d, d) within-class scatter, summed over the classes

    def pooled(self, owner: np.ndarray, n_classes: int) -> "ClassStats":
        """The statistics of n_classes unions of these classes, class a going
        to union owner[a]. A union's scatter is the sum of its classes' plus
        sum_a n_a (m_a - m)(m_a - m)' over their means m_a about its mean m."""
        counts, sums = np.zeros(n_classes), np.zeros((n_classes, self.sums.shape[1]))
        sizes = np.zeros(n_classes, dtype=np.intp)
        np.add.at(counts, owner, self.counts)
        np.add.at(sums, owner, self.sums)
        np.add.at(sizes, owner, self.sizes)
        D = self.sums / self.counts[:, None] - (sums / counts[:, None])[owner]
        return ClassStats(counts, sums, sizes, self.scatter + (self.counts[:, None] * D).T @ D)

    def shifted(self, shifts: np.ndarray) -> "ClassStats":
        """The statistics after every row of class a moves by -shifts[a]:
        the sums become f_a - n_a s_a and the scatter is unchanged."""
        return self._replace(sums=self.sums - self.counts[:, None] * shifts)


def group_index(rows: list[np.ndarray], n: int) -> np.ndarray:
    """The group of each of n rows, given the rows of each group."""
    index = np.empty(n, dtype=np.intp)
    for i, r in enumerate(rows):
        index[r] = i
    return index


def class_stats(X: np.ndarray, rows: list[np.ndarray], weights: np.ndarray) -> ClassStats:
    """The ClassStats of the classes `rows`, summed one class at a time:
    unlike one product over all rows, that keeps the scatter independent of
    the BLAS thread count."""
    if sum(r.size for r in rows) != len(X):
        raise ValueError("labels must have one entry per row")
    counts = np.array([weights[r].sum() for r in rows])
    sums = np.vstack([weights[r] @ X[r] for r in rows])
    scatter = np.zeros((X.shape[1], X.shape[1]))
    for r, mean in zip(rows, sums / counts[:, None]):
        D = X[r] - mean
        scatter += (weights[r][:, None] * D).T @ D
    sizes = np.array([r.size for r in rows], dtype=np.intp)
    return ClassStats(counts, sums, sizes, scatter)
