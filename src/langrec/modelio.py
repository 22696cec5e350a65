"""Model file serialization.

One JSON document per model, format_version "2". The kind field selects
the sections: "plda" stores the generative model plus per-language
enrollment statistics, "dplda" a flat pairwise backend, "hdplda" the two
stages, shifts, and the cluster map. Files are written as compact JSON on
one line (json's C encoder, which an indent would turn off); any layout
loads. Floats round-trip exactly through JSON (shortest-repr encoding), so
a saved and reloaded model scores bit-identically. Version "1" files still
load: they differ only in a per-language "sq_term" of plda files, which
cancels out of the score and is ignored.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .backend import FLAT_KEYS, FlatBackend, GenerativeBackend
from .clustering import cluster_map_from_doc, cluster_map_to_doc
from .hier import HierBackend
from .plda import EnrollmentStats, PldaModel
from .preproc import AffinePreproc

FORMAT_VERSION = "2"


class ModelFormatError(ValueError):
    """Model file is not JSON, is missing sections, has an unknown kind, or
    holds parts that disagree with each other (shapes, dimensions, labels)."""


def _preproc_doc(p: AffinePreproc) -> dict:
    return {"A": p.A.tolist(), "b": p.b.tolist()}


def _flat_doc(backend: FlatBackend) -> dict:
    theta = backend.theta
    return {
        "preproc": _preproc_doc(backend.preproc),
        "params": {key: theta[key].tolist() for key in ("Lambda", "Gamma", "c", "k")},
        "detectors": [
            {"label": lab, "vector": vec.tolist()}
            for lab, vec in zip(backend.detector_labels, backend.detectors)
        ],
    }


def _flat_from(doc: dict) -> FlatBackend:
    dets, pre, par = doc["detectors"], doc["preproc"], doc["params"]
    arrays = (pre["A"], pre["b"], par["Lambda"], par["Gamma"], par["c"], float(par["k"]),
              [d["vector"] for d in dets])
    theta = {key: np.array(a) for key, a in zip(FLAT_KEYS, arrays)}
    return FlatBackend(tuple(d["label"] for d in dets), theta)


def model_to_doc(backend, train_config=None, seed=None) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "train_config_used": train_config,
        "seed": seed,
    }
    if isinstance(backend, GenerativeBackend):
        doc["kind"] = "plda"
        doc["preproc"] = _preproc_doc(backend.preproc)
        doc["plda"] = {
            "mu": backend.model.mu.tolist(),
            "B_prec": backend.model.B_prec.tolist(),
            "W": backend.model.W.tolist(),
        }
        doc["enroll"] = [
            {
                "language": lab,
                "n": backend.enroll.counts[i],
                "sum": backend.enroll.sums[i].tolist(),
            }
            for i, lab in enumerate(backend.detector_labels)
        ]
    elif isinstance(backend, HierBackend):
        doc["kind"] = "hdplda"
        doc["stage1"] = _flat_doc(backend.stage1)
        doc["stage2"] = _flat_doc(backend.stage2)
        doc["shifts"] = {
            name: backend.shifts[i].tolist()
            for i, name in enumerate(backend.stage1.detector_labels)
        }
        doc["cluster_map"] = cluster_map_to_doc(backend.cluster_map)
    elif isinstance(backend, FlatBackend):
        doc["kind"] = "dplda"
        doc.update(_flat_doc(backend))
    else:
        raise TypeError(f"unsupported backend type {type(backend).__name__}")
    return doc


def model_from_doc(doc: dict):
    if not isinstance(doc, dict):
        raise ModelFormatError("model file must hold one JSON object")
    if doc.get("format_version") not in ("1", FORMAT_VERSION):
        raise ModelFormatError(f"unsupported format_version {doc.get('format_version')!r}")
    kind = doc.get("kind")
    if kind not in ("plda", "dplda", "hdplda"):
        raise ModelFormatError(f"unknown model kind {kind!r}")
    try:
        return _backend_from_doc(doc, kind)
    except KeyError as exc:
        raise ModelFormatError(f"{kind} model file is missing section {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed {kind} model file: {exc}") from exc


def _backend_from_doc(doc: dict, kind: str):
    if kind == "plda":
        model = PldaModel(
            mu=np.array(doc["plda"]["mu"]),
            B_prec=np.array(doc["plda"]["B_prec"]),
            W=np.array(doc["plda"]["W"]),
        )
        enroll, pre = doc["enroll"], doc["preproc"]
        return GenerativeBackend(
            preproc=AffinePreproc(A=np.array(pre["A"]), b=np.array(pre["b"])),
            model=model,
            detector_labels=tuple(e["language"] for e in enroll),
            enroll=EnrollmentStats(
                counts=np.array([e["n"] for e in enroll], dtype=np.float64),
                sums=np.array([e["sum"] for e in enroll]),
            ),
        )
    if kind == "dplda":
        return _flat_from(doc)
    stage1 = _flat_from(doc["stage1"])  # kind == "hdplda"
    cmap = cluster_map_from_doc(doc["cluster_map"])
    shifts = np.array([doc["shifts"][name] for name in stage1.detector_labels])
    return HierBackend(
        stage1=stage1,
        stage2=_flat_from(doc["stage2"]),
        shifts=shifts,
        cluster_map=cmap,
    )


def save_model(path, backend, train_config=None, seed=None) -> None:
    doc = model_to_doc(backend, train_config=train_config, seed=seed)
    text = json.dumps(doc, sort_keys=True, ensure_ascii=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_model(path):
    """Returns (backend, metadata dict with train_config_used and seed)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"model file {path} is not valid JSON: {exc}") from None
    backend = model_from_doc(doc)
    meta = {
        "kind": doc["kind"],
        "train_config_used": doc.get("train_config_used"),
        "seed": doc.get("seed"),
    }
    return backend, meta
