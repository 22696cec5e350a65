"""Property test of the model file round trip.

save_model followed by load_model must give back every array bit for bit,
and the reloaded model must score bit-identically, for random backends of
each kind. Hierarchical backends always include a singleton cluster.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from langrec.backend import GenerativeBackend
from langrec.hier import HierBackend
from langrec.modelio import load_model, model_from_doc, model_to_doc, save_model
from langrec.plda import EnrollmentStats
from langrec.preproc import AffinePreproc

from test_hier_properties import hier_problems, random_stage
from test_plda import random_model

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def plda_backends(draw):
    d = draw(st.integers(1, 6))
    in_dim = draw(st.integers(d, 10))
    n_det = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(1, 20, size=n_det).astype(np.float64)
    backend = GenerativeBackend(
        preproc=AffinePreproc(
            A=rng.standard_normal((d, in_dim)), b=0.3 * rng.standard_normal(d)
        ),
        model=random_model(rng, d),
        detector_labels=tuple(f"l{j}" for j in range(n_det)),
        enroll=EnrollmentStats(
            counts=counts,
            sums=counts[:, None] * rng.standard_normal((n_det, d)),
        ),
    )
    return backend, rng.standard_normal((draw(st.integers(1, 6)), in_dim))


@st.composite
def dplda_backends(draw):
    in_dim = draw(st.integers(1, 10))
    out_dim = draw(st.integers(1, in_dim))
    n_det = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = tuple(f"l{j}" for j in range(n_det))
    backend = random_stage(rng, labels, in_dim, out_dim)
    return backend, rng.standard_normal((draw(st.integers(1, 6)), in_dim))


def arrays(backend) -> dict:
    """Every stored or derived array of a backend, keyed by name."""
    if isinstance(backend, GenerativeBackend):
        m, e, t = backend.model, backend.enroll, backend.tables
        return {
            "A": backend.preproc.A, "b": backend.preproc.b, "mu": m.mu,
            "B_prec": m.B_prec, "W": m.W, "psi": m.psi, "T": m.T,
            "counts": e.counts, "sums": e.sums,
            "tables.T": t.T, "tables.G1": t.G1, "tables.G2": t.G2, "tables.const": t.const,
        }
    if isinstance(backend, HierBackend):
        out = {"shifts": backend.shifts}
        for stage in ("stage1", "stage2"):
            out.update({f"{stage}.{k}": v for k, v in arrays(getattr(backend, stage)).items()})
        info = backend.combine
        out.update(
            {"lang_cluster_idx": info.lang_cluster_idx, "cond": info.cond, "P_c": info.P_c,
             "P_lc": info.P_lc, "blocks": info.blocks, "pad_cols": info.pad_cols,
             "pad_pos": info.pad_pos}
        )
        return out
    p = backend.params
    return {
        "A": backend.preproc.A, "b": backend.preproc.b, "Lambda": p.Lambda,
        "Gamma": p.Gamma, "c": p.c, "k": np.array(p.k), "detectors": backend.detectors,
    }


def bits(a: np.ndarray):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def check_round_trip(backend, X):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(path, backend)
        loaded, _ = load_model(path)
    assert type(loaded) is type(backend)
    assert loaded.detector_labels == backend.detector_labels
    want, got = arrays(backend), arrays(loaded)
    assert got.keys() == want.keys()
    for key in want:
        assert bits(got[key]) == bits(want[key]), key
    assert bits(loaded.score_matrix(X)) == bits(backend.score_matrix(X))
    if isinstance(backend, HierBackend):
        assert loaded.cluster_map == backend.cluster_map


@SETTINGS
@given(plda_backends())
def test_plda_round_trip_is_bit_identical(problem):
    check_round_trip(*problem)


@SETTINGS
@given(plda_backends())
def test_plda_version_1_document_scores_bit_identically(problem):
    """A format_version "1" plda document, which also stores each language's
    sq_term, loads and scores exactly like the current document."""
    backend, X = problem
    doc = model_to_doc(backend)
    doc["format_version"] = "1"
    rng = np.random.default_rng(len(X))
    for entry in doc["enroll"]:
        entry["sq_term"] = float(rng.random() * entry["n"])
    loaded = model_from_doc(doc)
    assert bits(loaded.score_matrix(X)) == bits(backend.score_matrix(X))


@SETTINGS
@given(dplda_backends())
def test_dplda_round_trip_is_bit_identical(problem):
    check_round_trip(*problem)


@SETTINGS
@given(hier_problems())
def test_hdplda_round_trip_is_bit_identical(problem):
    backend, X, _ = problem
    assert len(backend.combine.cond) < backend.n_detectors
    check_round_trip(backend, X)
