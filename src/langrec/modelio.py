"""Model file serialization.

One JSON document per model, format_version "1". The kind field selects
the sections: "plda" stores the generative model plus per-language
enrollment statistics, "dplda" a flat pairwise backend, "hdplda" the two
stages, shifts, and the cluster map. Floats round-trip exactly through
JSON (shortest-repr encoding), so a saved and reloaded model scores
bit-identically.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .backend import FlatBackend, GenerativeBackend
from .clustering import cluster_map_from_json, cluster_map_to_json
from .hier import HierBackend
from .plda import EnrollmentStats, PairScoreParams, PldaModel
from .preproc import AffinePreproc

FORMAT_VERSION = "1"


class ModelFormatError(ValueError):
    """Model file is missing sections, has an unknown kind, or holds parts
    that disagree with each other (shapes, dimensions, duplicate labels)."""


def _preproc_doc(p: AffinePreproc) -> dict:
    return {"A": p.A.tolist(), "b": p.b.tolist()}


def _preproc_from(doc: dict) -> AffinePreproc:
    return AffinePreproc(A=np.array(doc["A"]), b=np.array(doc["b"]))


def _params_doc(p: PairScoreParams) -> dict:
    return {
        "Lambda": p.Lambda.tolist(),
        "Gamma": p.Gamma.tolist(),
        "c": p.c.tolist(),
        "k": p.k,
    }


def _params_from(doc: dict) -> PairScoreParams:
    return PairScoreParams(
        Lambda=np.array(doc["Lambda"]),
        Gamma=np.array(doc["Gamma"]),
        c=np.array(doc["c"]),
        k=float(doc["k"]),
    )


def _flat_doc(backend: FlatBackend) -> dict:
    return {
        "preproc": _preproc_doc(backend.preproc),
        "params": _params_doc(backend.params),
        "detectors": [
            {"label": lab, "vector": vec.tolist()}
            for lab, vec in zip(backend.detector_labels, backend.detectors)
        ],
    }


def _flat_from(doc: dict) -> FlatBackend:
    dets = doc["detectors"]
    return FlatBackend(
        preproc=_preproc_from(doc["preproc"]),
        params=_params_from(doc["params"]),
        detector_labels=tuple(d["label"] for d in dets),
        detectors=np.array([d["vector"] for d in dets]),
    )


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
                "sq_term": backend.enroll.sq_terms[i],
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
        doc["cluster_map"] = json.loads(cluster_map_to_json(backend.cluster_map))
    elif isinstance(backend, FlatBackend):
        doc["kind"] = "dplda"
        doc.update(_flat_doc(backend))
    else:
        raise TypeError(f"unsupported backend type {type(backend).__name__}")
    return doc


def model_from_doc(doc: dict):
    if not isinstance(doc, dict):
        raise ModelFormatError("model file must hold one JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format_version {doc.get('format_version')!r}")
    kind = doc.get("kind")
    if kind not in ("plda", "dplda", "hdplda"):
        raise ModelFormatError(f"unknown model kind {kind!r}")
    try:
        return _backend_from_doc(doc, kind)
    except KeyError as exc:
        raise ModelFormatError(f"{kind} model file is missing section {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed {kind} model file: {exc}") from exc


def _backend_from_doc(doc: dict, kind: str):
    if kind == "plda":
        model = PldaModel(
            mu=np.array(doc["plda"]["mu"]),
            B_prec=np.array(doc["plda"]["B_prec"]),
            W=np.array(doc["plda"]["W"]),
        )
        enroll = doc["enroll"]
        return GenerativeBackend(
            preproc=_preproc_from(doc["preproc"]),
            model=model,
            detector_labels=tuple(e["language"] for e in enroll),
            enroll=EnrollmentStats(
                counts=np.array([e["n"] for e in enroll], dtype=np.float64),
                sums=np.array([e["sum"] for e in enroll]),
                sq_terms=np.array([e["sq_term"] for e in enroll], dtype=np.float64),
            ),
        )
    if kind == "dplda":
        return _flat_from(doc)
    stage1 = _flat_from(doc["stage1"])  # kind == "hdplda"
    cmap = cluster_map_from_json(json.dumps(doc["cluster_map"]))
    shifts = np.array([doc["shifts"][name] for name in stage1.detector_labels])
    return HierBackend(
        stage1=stage1,
        stage2=_flat_from(doc["stage2"]),
        shifts=shifts,
        cluster_map=cmap,
    )


def save_model(path, backend, train_config=None, seed=None) -> None:
    doc = model_to_doc(backend, train_config=train_config, seed=seed)
    text = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_model(path):
    """Returns (backend, metadata dict with train_config_used and seed)."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    backend = model_from_doc(doc)
    meta = {
        "kind": doc["kind"],
        "train_config_used": doc.get("train_config_used"),
        "seed": doc.get("seed"),
    }
    return backend, meta
