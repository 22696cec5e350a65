import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from langrec.backend import fit_generative_backend, generative_fit
from langrec.dataio import balance_weights, generate_trials
from langrec.metrics import eer, subset_trials
from langrec.synth import (
    SynthConfig,
    generate,
    run_comparison,
    tune_cluster_threshold,
    tune_hierarchy,
)
from langrec.training import TrainConfig


SMALL = SynthConfig(
    dim=16,
    cluster_sizes=(2, 2, 1),
    sigma_cluster=3.0,
    sigma_language=0.15,
    sigma_within=0.7,
    n_datasets=2,
    sigma_dataset=0.3,
    n_train=40,
    n_dev=16,
    n_test=16,
    seed=0,
)


class TestGenerate:
    def test_counts_and_labels(self):
        train, dev, test, truth = generate(SMALL)
        assert len(train) == 5 * 40 and len(dev) == 5 * 16 and len(test) == 5 * 16
        assert train.language_inventory() == ("c0_l0", "c0_l1", "c1_l0", "c1_l1", "c2_l0")
        assert sorted(set(train.datasets)) == ["d0", "d1"]
        assert truth.cluster_languages == {
            "c0_l0": ("c0_l0", "c0_l1"),
            "c1_l0": ("c1_l0", "c1_l1"),
            "c2_l0": ("c2_l0",),
        }

    def test_reproducible_per_seed(self):
        a = generate(SMALL)
        b = generate(SMALL)
        for x, y in zip(a[:3], b[:3]):
            assert x == y

    def test_different_seed_differs(self):
        other = SynthConfig(**{**SMALL.__dict__, "seed": 1})
        a, _, _, _ = generate(SMALL)
        b, _, _, _ = generate(other)
        assert not np.allclose(a.vectors, b.vectors)

    def test_disjoint_sample_ids_across_splits(self):
        train, dev, test, _ = generate(SMALL)
        ids = set(train.sample_ids) | set(dev.sample_ids) | set(test.sample_ids)
        assert len(ids) == len(train) + len(dev) + len(test)

    @pytest.mark.parametrize(
        "config, vectors_sha256, labels_sha256",
        [
            (
                SMALL,
                "db8212012053f5c004669c10746f799b9e2938f232ac6a17f21c91877d58a447",
                "1a45d08e4a734a63192458049d663fa002c477c6f32d5dce44b5be20b7fccb4e",
            ),
            (
                SynthConfig(),
                "46db7fd269b5c6b2e4a8fb83dba74de39b0ecbcb8f38b89b85e51ee3e3e6fcec",
                "49fd488ebb8c7ccac938f59c2dea877612bc666709d81f1ca83387781dee5394",
            ),
            (
                # n_train < n_datasets: some (language, dataset) blocks are empty.
                SynthConfig(
                    dim=8, cluster_sizes=(2, 1), n_datasets=3, n_train=2, n_dev=1,
                    n_test=4, seed=5,
                ),
                "da3fc4a54bfbe84bec14038ede5735d2ed3fb08c75c4239f45e570c6d57373b3",
                "9b36e91731e5e6381e89f8bcb42eece86018fd2c2ea5688b18d14af57f1c6ddf",
            ),
        ],
        ids=["small", "default", "empty-blocks"],
    )
    def test_draws_are_pinned(self, config, vectors_sha256, labels_sha256):
        """The bits of every split, digested over train, dev and test in turn:
        they pin the order of the draws and each block's arithmetic."""
        vectors, labels = hashlib.sha256(), hashlib.sha256()
        for split in generate(config)[:3]:
            vectors.update(split.vectors.tobytes())
            rows = zip(split.sample_ids, split.languages, split.datasets)
            labels.update("\n".join("\t".join(row) for row in rows).encode())
        assert vectors.hexdigest() == vectors_sha256
        assert labels.hexdigest() == labels_sha256

    def test_traced_peak_stays_near_the_vectors_kept(self):
        """Each split is drawn into the array its set keeps, so the traced
        peak of generate at 128-d is within 1.3x the bytes of the three
        vector arrays; the labels are most of the rest."""
        generate(SynthConfig(dim=4, n_train=2, n_dev=1, n_test=1))  # warm up imports and caches
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            splits = generate(SynthConfig(dim=128))[:3]
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak <= 1.3 * sum(split.vectors.nbytes for split in splits)

    def test_single_language_mean_within_lln_bound(self):
        cfg = SynthConfig(
            dim=8, cluster_sizes=(1,), sigma_cluster=2.0, sigma_language=0.5,
            sigma_within=0.5, n_datasets=1, sigma_dataset=1e-9, n_train=400,
            n_dev=400, n_test=4, seed=3,
        )
        train, dev, _, _ = generate(cfg)
        # Train and dev empirical means both estimate the same language mean;
        # their gap is bounded by the combined standard error.
        gap = train.vectors.mean(axis=0) - dev.vectors.mean(axis=0)
        bound = 3 * cfg.sigma_within * np.sqrt(1 / cfg.n_train + 1 / cfg.n_dev)
        assert np.abs(gap).max() < bound

    def test_uniform_balance_weights_single_dataset(self):
        cfg = SynthConfig(
            dim=8, cluster_sizes=(2, 1), sigma_cluster=2.0, sigma_language=0.3,
            sigma_within=0.5, n_datasets=1, sigma_dataset=0.1, n_train=30,
            n_dev=4, n_test=4, seed=5,
        )
        train, _, _, _ = generate(cfg)
        w = balance_weights(train)
        assert np.allclose(w, w[0])

    def test_indistinguishable_languages_random_within_cluster_eer(self):
        # With language means collapsed onto the cluster mean, within-cluster
        # detection is guesswork for any scorer.
        cfg = SynthConfig(
            dim=12, cluster_sizes=(3, 2), sigma_cluster=4.0, sigma_language=1e-6,
            sigma_within=0.6, n_datasets=1, sigma_dataset=0.1, n_train=120,
            n_dev=40, n_test=60, seed=7,
        )
        train, _, test, truth = generate(cfg)
        backend = fit_generative_backend(train, balance_weights(train), out_dim=4)
        trials = generate_trials(test, backend.detector_labels)
        det_pos = {lab: i for i, lab in enumerate(backend.detector_labels)}
        cols = np.array([det_pos[d] for d in trials.detector_languages])
        rows = np.repeat(np.arange(len(test)), backend.n_detectors)
        flat = backend.score_matrix(test.vectors)[rows, cols]
        langs = dict(zip(test.sample_ids, test.languages))
        sub, mask = subset_trials(trials, langs, truth, "c0_l0")
        assert abs(eer(flat[mask], sub.is_target) - 0.5) < 0.05

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(dim=0)
        with pytest.raises(ValueError):
            SynthConfig(cluster_sizes=())
        with pytest.raises(ValueError):
            SynthConfig(sigma_within=-1.0)


class TestThresholdTuning:
    def test_recovers_truth_on_separated_clusters(self):
        train, dev, test, truth = generate(SMALL)
        weights = balance_weights(train)
        plda = fit_generative_backend(train, weights, out_dim=4)
        dev_trials = generate_trials(dev, plda.detector_labels)
        threshold, cmap = tune_cluster_threshold(
            train, [(dev, dev_trials)], weights, plda, pi=0.01
        )
        assert cmap.cluster_languages == truth.cluster_languages

    def test_truth_recovery_across_seeds(self):
        for seed in (1, 2):
            cfg = SynthConfig(**{**SMALL.__dict__, "seed": seed})
            train, dev, _, truth = generate(cfg)
            weights = balance_weights(train)
            plda = fit_generative_backend(train, weights, out_dim=4)
            dev_trials = generate_trials(dev, plda.detector_labels)
            _, cmap = tune_cluster_threshold(
                train, [(dev, dev_trials)], weights, plda, pi=0.01
            )
            assert cmap.cluster_languages == truth.cluster_languages

    def test_candidate_whose_stage_classes_are_points_is_skipped(self, caplog):
        # run_comparison's inputs on a tiny config. Cut to two clusters, stage
        # 1 is 1-D and length-normalised to +-1, so each of its classes is one
        # point; EM refuses that from the rows, whatever the sign of the
        # roundoff in their summed scatter.
        config = SynthConfig(dim=8, cluster_sizes=(2, 2, 1), n_train=30, n_dev=10, n_test=10)
        train, dev, _, truth = generate(config)
        weights = balance_weights(train)
        plda = generative_fit(train, weights).generative_backend()
        dev_sets = [(dev, generate_trials(dev, plda.detector_labels))]
        with caplog.at_level("INFO", logger="langrec.synth"):
            threshold, hier = tune_hierarchy(train, dev_sets, weights, plda, TrainConfig().pi)
        messages = [r.getMessage() for r in caplog.records]
        assert (
            "skipping threshold 31.22: within-class covariance is singular: "
            "every class is a single point"
        ) in messages
        assert not [r for r in caplog.records if r.levelname == "WARNING"]
        assert f"{threshold:.4g}" == "12.27"
        assert hier.cluster_map.cluster_languages == truth.cluster_languages


class TestRunComparison:
    def test_structure_and_emitted_files(self, tmp_path):
        tc = TrainConfig(
            batch_size=64, pi=0.05, stages=((20, 1e-3),), finetune=(5, 1e-4),
            checkpoint_every=10, seeds=(0,),
        )
        res = run_comparison(SMALL, tc, n_boot=50, em_iters=20, out_dir=tmp_path)
        assert set(res.report) == {"plda", "dplda", "hdplda"}
        for name, subs in res.report.items():
            assert "all" in subs
            for key, doc in subs.items():
                assert doc["min_dcf_norm"] <= doc["actual_dcf_norm"] + 1e-12
                assert doc["ci_low"] <= doc["ci_high"]
            cluster_keys = [k for k in subs if k.startswith("cluster:")]
            assert cluster_keys, "expected within-cluster subsets"
        doc = json.loads((tmp_path / "report.json").read_text())
        assert set(doc) == {"plda", "dplda", "hdplda"}
        for name in doc:
            lines = (tmp_path / f"{name}.scores.tsv").read_text().splitlines()
            assert lines[0] == "sample_id\tdetector\tis_target\tllr"
            assert len(lines) == 1 + len(res.trials)
