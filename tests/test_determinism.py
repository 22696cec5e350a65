"""Fitted and trained scores do not depend on the number of BLAS threads.

Each run is a fresh interpreter, because OpenBLAS reads its thread count
once, when numpy is first imported.

All three models are fitted inside each run, and both discriminative
models are trained there too; those runs check that training moved the
scores, so that the hash is of a trained model. Class statistics are
summed class by class, and the statistics of a class made of several
languages (a cluster) are pooled from those of its languages, so no BLAS
product runs over all rows of the training set (2000 x 64 here) or of a
cluster (400 and 600 rows): products that large can split differently at
different thread counts. Each class adds its scatter by one rank-k update,
which keeps the 512-d language and cluster statistics of 12 000 rows
invariant too, and exactly symmetric. EM reads its rows only through those
statistics, taking its mean and total scatter from them, so an EM fit on
12 000 rows of 59-d is invariant as well. The 512-d generative fits still
vary with the thread count, only through the LAPACK Cholesky factor (the
blocked potrf) that lda takes of the total scatter.
"""

import os
import subprocess
import sys
from pathlib import Path

import langrec

PLDA_SCRIPT = """
import hashlib
from langrec.backend import fit_generative_backend
from langrec.dataio import balance_weights
from langrec.synth import SynthConfig, generate

train_set, _, test_set, _ = generate(SynthConfig(seed=5))
L = len(train_set.language_inventory())
backend = fit_generative_backend(train_set, balance_weights(train_set), L - 1)
print(hashlib.sha256(backend.score_matrix(test_set.vectors).tobytes()).hexdigest())
"""

DPLDA_SCRIPT = """
import hashlib
from langrec.backend import init_from_generative
from langrec.dataio import balance_weights, generate_trials
from langrec.synth import SynthConfig, generate
from langrec.training import TrainConfig, train

train_set, dev_set, test_set, _ = generate(SynthConfig(seed=5))
weights = balance_weights(train_set)
L = len(train_set.language_inventory())
backend = init_from_generative(train_set, weights, L - 1)
dev_sets = [(dev_set, generate_trials(dev_set, backend.detector_labels))]
config = TrainConfig(stages=((40, 5e-4),), finetune=(10, 1e-5), checkpoint_every=20)
trained = train(backend, train_set, dev_sets, config).backend
scores = trained.score_matrix(test_set.vectors)
assert (scores != backend.score_matrix(test_set.vectors)).any(), "training left the scores"
print(hashlib.sha256(scores.tobytes()).hexdigest())
"""

HDPLDA_SCRIPT = """
import hashlib
from langrec.dataio import balance_weights, generate_trials
from langrec.hier import init_hier
from langrec.synth import SynthConfig, generate
from langrec.training import TrainConfig, train

train_set, dev_set, test_set, truth = generate(SynthConfig(seed=5))
backend = init_hier(train_set, truth, balance_weights(train_set))
dev_sets = [(dev_set, generate_trials(dev_set, backend.detector_labels))]
config = TrainConfig(
    alpha=0.3, stages=((40, 5e-4),), finetune=(10, 1e-5), checkpoint_every=20
)
trained = train(backend, train_set, dev_sets, config).backend
X = test_set.vectors
assert (trained.score_matrix(X) != backend.score_matrix(X)).any(), "training left the scores"
scores = [trained.score_matrix(X)]
scores += [trained.score_matrix(X[i : i + 1]) for i in range(0, len(test_set), 37)]
print(hashlib.sha256(b"".join(s.tobytes() for s in scores)).hexdigest())
"""


STATS_SCRIPT = """
import hashlib
import numpy as np
from langrec.dataio import balance_weights
from langrec.synth import SynthConfig, generate

config = SynthConfig(dim=512, cluster_sizes=(6,) * 10, n_train=200, n_dev=1, n_test=1, seed=3)
train_set, _, _, truth = generate(config)
weights = balance_weights(train_set)
clusters = [truth.assignment[lang] for lang in train_set.languages]
digest = hashlib.sha256()
for labels in (train_set.languages, clusters):
    stats = train_set.class_stats(labels, weights)[1]
    assert np.array_equal(stats.scatter, stats.scatter.T), "scatter not exactly symmetric"
    for a in (stats.counts, stats.sums, stats.sizes, stats.scatter):
        digest.update(a.tobytes())
print(digest.hexdigest())
"""

EM_SCRIPT = """
import hashlib
import numpy as np
from langrec.plda import em_train

rng = np.random.default_rng(26)
labels = np.repeat(np.arange(60), 200)
X = rng.standard_normal((60, 59))[labels] + 0.5 * rng.standard_normal((12000, 59))
X /= np.linalg.norm(X, axis=1, keepdims=True)
weights = rng.uniform(0.5, 2.0, 12000)
digest = hashlib.sha256()
for n_iters in (0, 5):
    model = em_train(X, labels, weights, n_iters=n_iters, tol=0.0)
    for a in (model.mu, model.B_prec, model.W):
        digest.update(a.tobytes())
print(digest.hexdigest())
"""


def score_hash(script: str, threads: int, *args: str) -> str:
    src = str(Path(langrec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_plda_scores_identical_with_one_and_two_blas_threads():
    assert score_hash(PLDA_SCRIPT, 1) == score_hash(PLDA_SCRIPT, 2)


def test_dplda_scores_identical_with_one_and_two_blas_threads():
    assert score_hash(DPLDA_SCRIPT, 1) == score_hash(DPLDA_SCRIPT, 2)


def test_hdplda_scores_identical_with_one_and_two_blas_threads():
    assert score_hash(HDPLDA_SCRIPT, 1) == score_hash(HDPLDA_SCRIPT, 2)


def test_512d_class_statistics_identical_with_one_and_two_blas_threads():
    assert score_hash(STATS_SCRIPT, 1) == score_hash(STATS_SCRIPT, 2)


def test_em_fit_identical_with_one_and_two_blas_threads():
    assert score_hash(EM_SCRIPT, 1) == score_hash(EM_SCRIPT, 2)
