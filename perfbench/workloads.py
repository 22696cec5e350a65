"""The benchmark's workloads.

Every workload builds its inputs from the seed, sets up, and then runs tasks
in a closed loop with one caller. A task is a sequence of operations (one
`run_comparison`, one CLI command or one scoring call); each operation is
timed on its own and its output is checked. An operation that raises, exits
non-zero or fails its check counts as failed.

Two scales: "full" is what the benchmark measures, "tiny" is the smoke test
and the warm-up that set-up runs before timing.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import KINDS

# Relative tolerances of the output checks.
SINGLE_VS_BATCH_RTOL = 1e-12
SCALAR_REFERENCE_RTOL = 1e-9
# min DCF may exceed actual DCF by rounding when both land on the same
# partition; langrec.metrics.MetricReport allows the same slack.
DCF_ORDER_ATOL = 1e-12
# The warm-up in set-up runs on fixed tiny inputs, so set-up time does not
# depend on the seed.
WARMUP_SEED = 0


class CheckFailed(Exception):
    """An operation's output is wrong."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    label: str
    seconds: float
    ok: bool


@dataclass
class Task:
    ops: list[Op] = field(default_factory=list)
    min_dcf: dict = field(default_factory=dict)  # kind -> normalized min DCF
    problems: list[str] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)

    def run(self, tracer, label: str, call, check=None):
        """Time one operation, then check its result outside the timing."""
        tracer.begin_op()
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # the operation failed; record and go on
            self.ops.append(Op(label, time.perf_counter() - start, False))
            self.problems.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        op = Op(label, time.perf_counter() - start, True)
        self.ops.append(op)
        if check is not None:
            try:
                with tracer.pause():
                    check(result)
            except (CheckFailed, OSError, ValueError, KeyError) as exc:
                op.ok = False
                self.problems.append(f"{label}: check failed: {exc}")
        return result


def sub_seed(seed: int, index: int) -> int:
    """The seed of the index-th input drawn from the workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0] & 0x7FFFFFFF)


def _relative_error(got, want, scale) -> float:
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want)) / np.maximum(1.0, scale)))


# ---------------------------------------------------------------------------
# desk-comparison


class DeskComparison:
    """One seed of `run_comparison` at desk scale per task.

    Desk scale is the acceptance suite's `SynthConfig()` with its default
    `TrainConfig()` schedule cut tenfold (and the bootstrap with it), so a
    task takes seconds. Each task draws its own synthetic data.
    """

    name = "desk-comparison"
    SCALES = {
        "full": dict(
            synth={},
            train=dict(stages=((60, 5e-4), (15, 1e-3)), finetune=(5, 1e-5), checkpoint_every=25),
            n_boot=50,
        ),
        "tiny": dict(
            synth=dict(dim=8, cluster_sizes=(2, 2, 1), n_train=30, n_dev=10, n_test=10),
            train=dict(batch_size=64, stages=((4, 5e-4),), finetune=(2, 1e-5), checkpoint_every=2),
            n_boot=20,
        ),
    }

    def __init__(self, scale: str, seed: int, workdir: Path):
        self.scale = self.SCALES[scale]
        self.seed = seed

    def setup(self, tracer):
        """Warm-up: one comparison at tiny scale, checked."""
        task = Task()
        self._comparison(task, tracer, self.SCALES["tiny"], WARMUP_SEED)
        expect(not task.problems, "; ".join(task.problems))
        return None

    def prepare(self, state) -> None:
        pass

    def task(self, state, index: int, tracer) -> Task:
        task = Task()
        self._comparison(task, tracer, self.scale, sub_seed(self.seed, index))
        return task

    def _comparison(self, task, tracer, scale, seed):
        from langrec import synth, training

        config = synth.SynthConfig(seed=seed, **scale["synth"])
        train_config = training.TrainConfig(**scale["train"])

        def check(result):
            check_comparison(result, config)
            for kind in KINDS:
                task.min_dcf[kind] = result.report[kind]["all"]["min_dcf_norm"]

        task.run(
            tracer,
            "run_comparison",
            lambda: synth.run_comparison(
                config, train_config, n_boot=scale["n_boot"], bootstrap_seed=seed
            ),
            check,
        )


def check_comparison(result, config) -> None:
    from langrec import metrics

    langs = config.languages
    n_trials = len(langs) * config.n_test * len(langs)
    expect(result.cluster_map.languages == tuple(sorted(langs)), "cluster map languages")
    expect(len(result.trials) == n_trials, "trial count")
    multi = [c for c in result.cluster_map.cluster_names
             if len(result.cluster_map.cluster_languages[c]) >= 2]
    for kind in KINDS:
        flat = result.scores[kind]
        expect(flat.shape == (n_trials,) and np.all(np.isfinite(flat)), f"{kind} scores")
        subsets = result.report[kind]
        expect(set(subsets) == {"all"} | {f"cluster:{c}" for c in multi}, f"{kind} subsets")
        rep = subsets["all"]
        expect(rep["n_target"] == len(langs) * config.n_test, f"{kind} target count")
        expect(rep["n_target"] + rep["n_nontarget"] == n_trials, f"{kind} trial count")
        expect(
            rep["min_dcf_norm"] == metrics.min_dcf(flat, result.trials.is_target),
            f"{kind} min DCF disagrees with its scores",
        )
        expect(0.0 <= rep["min_dcf_norm"] <= rep["actual_dcf_norm"] + DCF_ORDER_ATOL,
               f"{kind} DCF order")
        expect(rep["ci_low"] <= rep["ci_high"], f"{kind} bootstrap interval")


# ---------------------------------------------------------------------------
# paper-cli


class PaperCli:
    """The README walkthrough through `langrec.cli.main`, in process.

    synth -> train plda -> cluster -> train dplda -> train hdplda, then for
    each kind: score, score again, eval with bootstrap. Paper-like scale:
    512-d, 60 languages in 10 clusters of 6; few rows per language and a
    short training schedule so a walkthrough takes seconds.
    """

    name = "paper-cli"
    SCALES = {
        "full": dict(
            synth={"dim": 512, "cluster_sizes": [6] * 10, "n_train": 12, "n_dev": 6, "n_test": 8},
            train={"batch_size": 256, "pi": 0.01, "stages": [[12, 5e-4]],
                   "finetune": [4, 1e-5], "seeds": [0], "checkpoint_every": 8},
            threshold=500.0,  # within-cluster merges stay below 100, the rest above 1400
            bootstrap=1000,
        ),
        "tiny": dict(
            synth={"dim": 16, "cluster_sizes": [2, 2, 2], "n_train": 20, "n_dev": 8, "n_test": 8},
            train={"batch_size": 64, "pi": 0.01, "stages": [[4, 5e-4]],
                   "finetune": [2, 1e-5], "seeds": [0], "checkpoint_every": 2},
            threshold=0.0,
            bootstrap=50,
        ),
    }

    def __init__(self, scale: str, seed: int, workdir: Path):
        self.scale = self.SCALES[scale]
        self.seed = seed
        self.workdir = workdir

    def setup(self, tracer):
        """Warm-up: one walkthrough at tiny scale, checked."""
        task = Task()
        self._walkthrough(task, tracer, self.SCALES["tiny"], WARMUP_SEED, "warmup")
        expect(not task.problems, "; ".join(task.problems))
        return None

    def prepare(self, state) -> None:
        pass

    def task(self, state, index: int, tracer) -> Task:
        task = Task()
        self._walkthrough(task, tracer, self.scale, sub_seed(self.seed, index), f"walk{index}")
        return task

    def _walkthrough(self, task, tracer, scale, seed, dirname):
        from langrec import cli

        d = self.workdir / dirname
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        synth_doc = dict(scale["synth"], seed=seed)
        (d / "synth.json").write_text(json.dumps(synth_doc), encoding="utf-8")
        (d / "train.json").write_text(json.dumps(scale["train"]), encoding="utf-8")
        n_langs = sum(synth_doc["cluster_sizes"])
        n_test_rows = n_langs * synth_doc["n_test"]
        data = d / "data"
        train_tsv, dev_tsv, test_tsv = data / "train.tsv", data / "dev.tsv", data / "test.tsv"

        def command(label, argv, check=None):
            def call():
                with tracer.span("cli." + label), contextlib.redirect_stdout(io.StringIO()):
                    return cli.main([str(a) for a in argv])

            def checked(rc):
                expect(rc == 0, f"exit code {rc}")
                if check is not None:
                    check()

            task.run(tracer, label, call, checked)

        command("synth", ["synth", d / "synth.json", data],
                lambda: expect(train_tsv.exists() and test_tsv.exists(), "synth outputs"))
        train = ["train", "--kind"]
        command("train.plda",
                train + ["plda", train_tsv, dev_tsv, d / "train.json", d / "plda.json"])
        command("cluster", ["cluster", train_tsv, d / "plda.json", d / "clusters.json",
                            "--threshold", scale["threshold"]],
                lambda: check_cluster_map(d / "clusters.json", n_langs))
        command("train.dplda",
                train + ["dplda", train_tsv, dev_tsv, d / "train.json", d / "dplda.json"])
        command("train.hdplda", train + ["hdplda", train_tsv, dev_tsv, d / "train.json",
                                         d / "hdplda.json", "--clusters", d / "clusters.json"])
        for kind in KINDS:
            first, second = d / f"{kind}.scores.tsv", d / f"{kind}.rescore.tsv"
            command(f"score.{kind}", ["score", d / f"{kind}.json", test_tsv, first],
                    lambda: check_score_file(first, n_test_rows * n_langs))
            command(f"score.{kind}", ["score", d / f"{kind}.json", test_tsv, second],
                    lambda: expect(first.read_bytes() == second.read_bytes(),
                                   "second score not byte-identical"))

            def report_check(path=d / f"{kind}.report.json", kind=kind):
                report = json.loads(path.read_text(encoding="utf-8"))
                expect(report["n_target"] == n_test_rows, "eval target count")
                expect(0.0 <= report["min_dcf_norm"] <= report["actual_dcf_norm"] + DCF_ORDER_ATOL,
                       "eval DCF order")
                task.min_dcf[kind] = report["min_dcf_norm"]

            command(f"eval.{kind}", ["eval", first, test_tsv, d / f"{kind}.report.json",
                                     "--bootstrap", scale["bootstrap"], "--seed", 7], report_check)
        shutil.rmtree(d, ignore_errors=True)


def check_cluster_map(path: Path, n_langs: int) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    members = [lang for langs in doc["clusters"].values() for lang in langs]
    expect(len(members) == n_langs == len(set(members)), "cluster map is not a partition")


def check_score_file(path: Path, n_lines: int) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    expect(len(lines) == n_lines, f"{path.name} has {len(lines)} lines, expected {n_lines}")


# ---------------------------------------------------------------------------
# paper-serve


@dataclass
class ServeState:
    models: dict   # kind -> backend loaded back through modelio
    fitted: dict   # kind -> backend as fitted
    train: object
    test: object


class PaperServe:
    """The deployed detector: paper-like models, no training, no files.

    Set-up fits the generative initialisation of each kind on 12k rows
    (512-d, 60 languages in 10 clusters of 6) and round-trips it through
    modelio. A task scores the held-out set in batches with each kind, then
    scores single rows, one per call.
    """

    name = "paper-serve"
    SCALES = {
        "full": dict(
            synth=dict(dim=512, cluster_sizes=(6,) * 10, n_train=200, n_dev=1, n_test=30),
            batch=200, singles=100, sample=4,
        ),
        "tiny": dict(
            synth=dict(dim=16, cluster_sizes=(2, 2, 2), n_train=20, n_dev=1, n_test=8),
            batch=16, singles=5, sample=3,
        ),
    }
    SINGLES_GROUP = 10

    def __init__(self, scale: str, seed: int, workdir: Path):
        self.scale = self.SCALES[scale]
        self.seed = seed
        self.workdir = workdir

    def setup(self, tracer) -> ServeState:
        from langrec import backend, dataio, hier, modelio, synth

        config = synth.SynthConfig(seed=sub_seed(self.seed, 0), **self.scale["synth"])
        train, _dev, test, truth = synth.generate(config)
        weights = dataio.balance_weights(train)
        L, C = len(config.languages), truth.n_clusters()
        fitted = {
            "plda": backend.fit_generative_backend(train, weights, L - 1),
            "dplda": backend.init_from_generative(train, weights, L - 1),
            "hdplda": hier.init_hier(train, truth, weights, C - 1, L - C),
        }
        self.workdir.mkdir(parents=True, exist_ok=True)
        models = {}
        for kind, model in fitted.items():
            path = self.workdir / f"{kind}.json"
            modelio.save_model(path, model)
            models[kind] = modelio.load_model(path)[0]
            models[kind].score_matrix(test.vectors[:2])
        return ServeState(models, fitted, train, test)

    def prepare(self, state: ServeState) -> None:
        """Reference scores and quality, computed once, untimed.

        The batched reference uses the tasks' batch boundaries, so every task
        must reproduce it bit for bit.
        """
        from langrec import dataio, metrics

        X = state.test.vectors
        rng = np.random.default_rng(sub_seed(self.seed, 1))
        self.sample = np.sort(rng.choice(len(X), size=self.scale["sample"], replace=False))
        self.batched, self.scalar, self.min_dcf = {}, {}, {}
        step = self.scale["batch"]
        batches = [slice(lo, lo + step) for lo in range(0, len(X), step)]
        for kind, model in state.models.items():
            S = np.vstack([model.score_matrix(X[b]) for b in batches])
            fitted = np.vstack([state.fitted[kind].score_matrix(X[b]) for b in batches])
            expect(np.array_equal(S, fitted), f"{kind} scores change across the modelio round trip")
            ref = np.array([scalar_scores(kind, model, state.train, X[i]) for i in self.sample])
            err = _relative_error(S[self.sample], ref, np.abs(ref))
            expect(err <= SCALAR_REFERENCE_RTOL,
                   f"{kind} differs from the scalar reference by {err:.3g}")
            trials = dataio.generate_trials(state.test, model.detector_labels)
            self.batched[kind] = S
            self.scalar[kind] = ref
            self.min_dcf[kind] = metrics.min_dcf(S.ravel(), trials.is_target)

    def task(self, state: ServeState, index: int, tracer) -> Task:
        """Batches, then single rows. The kinds take turns (batch by batch,
        then in groups of SINGLES_GROUP rows), so each kind's latencies are
        drawn from the whole task, not from one stretch of it."""
        task = Task(min_dcf=dict(self.min_dcf))
        X = state.test.vectors
        N, batch, singles = len(X), self.scale["batch"], self.scale["singles"]
        for lo in range(0, N, batch):
            hi = min(lo + batch, N)
            for kind in KINDS:
                model, S = state.models[kind], self.batched[kind]

                def check_batch(got, lo=lo, hi=hi, kind=kind, S=S):
                    expect(np.array_equal(got, S[lo:hi]),
                           f"{kind} batch [{lo}, {hi}) not reproducible")
                    pos = (self.sample >= lo) & (self.sample < hi)
                    if pos.any():
                        ref = self.scalar[kind][pos]
                        err = _relative_error(got[self.sample[pos] - lo], ref, np.abs(ref))
                        expect(err <= SCALAR_REFERENCE_RTOL,
                               f"{kind} scalar reference error {err:.3g}")

                task.run(tracer, f"batch.{kind}",
                         lambda m=model, lo=lo, hi=hi: m.score_matrix(X[lo:hi]), check_batch)
        for first in range(0, singles, self.SINGLES_GROUP):
            for kind in KINDS:
                model, S = state.models[kind], self.batched[kind]
                for k in range(first, min(first + self.SINGLES_GROUP, singles)):
                    i = (index * singles + k) % N

                    def check_single(got, i=i, kind=kind, S=S):
                        err = _relative_error(got[0], S[i], np.max(np.abs(S[i])))
                        expect(err <= SINGLE_VS_BATCH_RTOL,
                               f"{kind} row {i} differs from its batch by {err:.3g}")

                    task.run(tracer, f"single.{kind}",
                             lambda m=model, i=i: m.score_matrix(X[i:i + 1]), check_single)
        return task


def scalar_scores(kind: str, model, train, x) -> np.ndarray:
    """Scores of one raw embedding against every detector, one detector at a
    time through the package's scalar formulas."""
    from langrec import hier, plda, preproc

    if kind == "plda":
        U = model.preproc.transform(train.vectors)
        langs = np.array(train.languages, dtype=object)
        u = preproc.apply(model.preproc, x)
        return np.array([plda.exact_llr(model.model, U[langs == lab], u)
                         for lab in model.detector_labels])
    if kind == "dplda":
        u = preproc.apply(model.preproc, x)
        return np.array([plda.pair_score(model.params, det, u) for det in model.detectors])
    s1, s2, cmap = model.stage1, model.stage2, model.cluster_map
    cluster_pos = {name: i for i, name in enumerate(s1.detector_labels)}
    u1 = preproc.apply(s1.preproc, x)
    out = []
    for j, lang in enumerate(s2.detector_labels):
        cname = cmap.assignment[lang]
        ci = cluster_pos[cname]
        L_c = plda.pair_score(s1.params, s1.detectors[ci], u1)
        u2 = preproc.apply(s2.preproc, x - model.shifts[ci])
        L_lc = plda.pair_score(s2.params, s2.detectors[j], u2)
        out.append(hier.combine_llr(L_c, L_lc, hier.prior_odds(cmap.p_c[cname]),
                                    hier.prior_odds(cmap.p_l_given_c[lang])))
    return np.array(out)


WORKLOADS = {cls.name: cls for cls in (DeskComparison, PaperCli, PaperServe)}
