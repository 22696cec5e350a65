import json

import numpy as np
import pytest

from langrec.cli import main
from langrec.clustering import merges_to_tsv, plda_distance_matrix
from langrec.dataio import EmbeddingSet, load_embeddings, per_language_means, save_embeddings
from langrec.backend import FlatBackend, GenerativeBackend
from langrec.hier import HierBackend
from langrec.modelio import load_model, save_model

from test_clustering import brute_force_average_linkage, reference_linkage_merges


SYNTH_CONFIG = {
    "dim": 12,
    "cluster_sizes": [2, 2, 1],
    "sigma_cluster": 3.0,
    "sigma_language": 0.15,
    "sigma_within": 0.7,
    "n_datasets": 2,
    "sigma_dataset": 0.3,
    "n_train": 30,
    "n_dev": 10,
    "n_test": 10,
    "seed": 0,
}

TRAIN_CONFIG = {
    "batch_size": 64,
    "pi": 0.05,
    "stages": [[30, 0.001]],
    "finetune": [10, 0.0001],
    "checkpoint_every": 10,
    "seeds": [0],
    "em_iters": 20,
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Synthetic data plus a trained model of each kind, built once."""
    root = tmp_path_factory.mktemp("cli")
    synth_cfg = root / "synth.json"
    synth_cfg.write_text(json.dumps(SYNTH_CONFIG))
    assert main(["synth", str(synth_cfg), str(root / "data")]) == 0

    train_cfg = root / "train.json"
    train_cfg.write_text(json.dumps(TRAIN_CONFIG))
    data = root / "data"
    assert (
        main(
            [
                "train", "--kind", "plda", str(data / "train.tsv"),
                str(data / "dev.tsv"), str(train_cfg), str(root / "plda.json"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "cluster", str(data / "train.tsv"), str(root / "plda.json"),
                str(root / "clusters.json"), "--threshold", "20.0",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "train", "--kind", "dplda", str(data / "train.tsv"),
                str(data / "dev.tsv"), str(train_cfg), str(root / "dplda.json"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "train", "--kind", "hdplda", str(data / "train.tsv"),
                str(data / "dev.tsv"), str(train_cfg), str(root / "hdplda.json"),
                "--clusters", str(root / "clusters.json"),
            ]
        )
        == 0
    )
    return root


class TestSynthCommand:
    def test_outputs_exist(self, workdir):
        data = workdir / "data"
        for name in ("train.tsv", "dev.tsv", "test.tsv"):
            assert (data / name).exists()
        truth = json.loads((workdir / "data" / "truth_clusters.json").read_text())
        assert set(truth["clusters"]) == {"c0_l0", "c1_l0", "c2_l0"}

    def test_same_seed_byte_identical(self, workdir, tmp_path):
        cfg = workdir / "synth.json"
        assert main(["synth", str(cfg), str(tmp_path / "again")]) == 0
        for name in ("train.tsv", "dev.tsv", "test.tsv", "truth_clusters.json"):
            a = (workdir / "data" / name).read_bytes()
            b = (tmp_path / "again" / name).read_bytes()
            assert a == b

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["synth", str(bad), str(tmp_path / "out")]) == 2

    def test_unknown_key_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SYNTH_CONFIG, "sigma_oops": 1.0}))
        assert main(["synth", str(bad), str(tmp_path / "out")]) == 2
        assert "sigma_oops" in capsys.readouterr().err


class TestClusterCommand:
    def test_cluster_map_and_dendrogram(self, workdir):
        doc = json.loads((workdir / "clusters.json").read_text())
        assert doc["threshold"] == 20.0
        # The threshold sits in the gap between within-cluster and
        # cross-cluster merge distances, so the generating map comes back.
        truth = json.loads((workdir / "data" / "truth_clusters.json").read_text())
        assert doc["clusters"] == truth["clusters"]
        dendro = (workdir / "clusters.dendrogram.tsv").read_text().splitlines()
        assert dendro[0] == "step\tleft\tright\tdistance"
        assert len(dendro) == 5  # header + 4 merges for 5 languages

    def test_outputs_match_recomputed_linkage(self, workdir):
        """The command cuts the merge sequence it writes; both outputs agree
        with the O(n^3) reference merges and the brute-force threshold cut."""
        model, _ = load_model(workdir / "plda.json")
        means = per_language_means(load_embeddings(workdir / "data" / "train.tsv"))
        langs, dist = plda_distance_matrix(means, model.model, model.preproc)
        dendro = (workdir / "clusters.dendrogram.tsv").read_text()
        assert dendro == merges_to_tsv(reference_linkage_merges(langs, dist))
        doc = json.loads((workdir / "clusters.json").read_text())
        assert {frozenset(m) for m in doc["clusters"].values()} == (
            brute_force_average_linkage(langs, dist, 20.0)
        )

    def test_threshold_extremes(self, workdir, tmp_path):
        data = workdir / "data"
        out = tmp_path / "all_single.json"
        assert (
            main(
                [
                    "cluster", str(data / "train.tsv"), str(workdir / "plda.json"),
                    str(out), "--threshold=-1e12",
                ]
            )
            == 0
        )
        assert len(json.loads(out.read_text())["clusters"]) == 5
        out2 = tmp_path / "one.json"
        assert (
            main(
                [
                    "cluster", str(data / "train.tsv"), str(workdir / "plda.json"),
                    str(out2), "--threshold", "1e12",
                ]
            )
            == 0
        )
        assert len(json.loads(out2.read_text())["clusters"]) == 1

    def test_wrong_model_kind_exits_2(self, workdir, tmp_path):
        data = workdir / "data"
        assert (
            main(
                [
                    "cluster", str(data / "train.tsv"), str(workdir / "dplda.json"),
                    str(tmp_path / "x.json"), "--threshold", "10",
                ]
            )
            == 2
        )


class TestTrainCommand:
    def test_model_kinds_round_trip(self, workdir):
        plda, meta = load_model(workdir / "plda.json")
        assert isinstance(plda, GenerativeBackend) and meta["kind"] == "plda"
        dplda, meta = load_model(workdir / "dplda.json")
        assert isinstance(dplda, FlatBackend) and meta["kind"] == "dplda"
        hd, meta = load_model(workdir / "hdplda.json")
        assert isinstance(hd, HierBackend) and meta["kind"] == "hdplda"
        assert meta["seed"] == 0

    def test_training_log_written(self, workdir):
        log = (workdir / "dplda.log.tsv").read_text().splitlines()
        assert log[0].startswith("checkpoint\tbatches_seen\tlr\ttrain_loss")
        assert len(log) > 2

    def test_zero_batches_keeps_generative_scores(self, workdir, tmp_path):
        # dplda trained for 0 batches scores identically to the generative
        # mean-enrollment initialization.
        data = workdir / "data"
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps({**TRAIN_CONFIG, "stages": [[0, 0.001]], "finetune": [0, 0.001]}))
        out = tmp_path / "zero_model.json"
        assert (
            main(
                [
                    "train", "--kind", "dplda", str(data / "train.tsv"),
                    str(data / "dev.tsv"), str(cfg), str(out),
                ]
            )
            == 0
        )
        from langrec.backend import init_from_generative
        from langrec.dataio import balance_weights, load_embeddings

        train_set = load_embeddings(data / "train.tsv")
        test_set = load_embeddings(data / "test.tsv")
        ref = init_from_generative(train_set, balance_weights(train_set), 4, em_iters=20)
        got, _ = load_model(out)
        assert np.abs(got.score_matrix(test_set.vectors) - ref.score_matrix(test_set.vectors)).max() < 1e-10

    def test_train_seed_is_an_unknown_key(self, workdir, tmp_path, capsys):
        data = workdir / "data"
        cfg = tmp_path / "seeded.json"
        cfg.write_text(json.dumps({**TRAIN_CONFIG, "train_seed": 3}))
        code = main(
            [
                "train", "--kind", "dplda", str(data / "train.tsv"),
                str(data / "dev.tsv"), str(cfg), str(tmp_path / "x.json"),
            ]
        )
        assert code == 2
        assert "unknown key 'train_seed'" in capsys.readouterr().err

    @pytest.mark.parametrize("train_file", ["existing", "absent"])
    def test_hdplda_without_clusters_exits_2(self, workdir, tmp_path, capsys, train_file):
        # An absent train file exits 1 if it is read before the option is checked.
        data = workdir / "data"
        train = data / "train.tsv" if train_file == "existing" else tmp_path / "absent.tsv"
        cfg = workdir / "train.json"
        code = main(
            [
                "train", "--kind", "hdplda", str(train),
                str(data / "dev.tsv"), str(cfg), str(tmp_path / "x.json"),
            ]
        )
        assert code == 2
        assert "requires --clusters" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["plda", "dplda"])
    def test_alpha_without_hierarchy_exits_2_before_reading_data(
        self, workdir, tmp_path, capsys, kind
    ):
        # The train file does not exist: reading data first would exit 1.
        cfg = tmp_path / "alpha.json"
        cfg.write_text(json.dumps({**TRAIN_CONFIG, "alpha": 0.5}))
        code = main(
            [
                "train", "--kind", kind, str(tmp_path / "absent.tsv"),
                str(workdir / "data" / "dev.tsv"), str(cfg), str(tmp_path / "x.json"),
            ]
        )
        assert code == 2
        assert "alpha > 0 needs kind 'hdplda'" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_hdplda_fits_once_for_all_seeds(self, workdir, tmp_path, monkeypatch):
        import langrec.cli

        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return init_hier(*args, **kwargs)

        init_hier = langrec.cli.init_hier
        monkeypatch.setattr(langrec.cli, "init_hier", counted)
        data = workdir / "data"
        cfg = tmp_path / "seeds.json"
        cfg.write_text(json.dumps({**TRAIN_CONFIG, "seeds": [0, 1]}))
        argv = ["train", "--kind", "hdplda", str(data / "train.tsv"), str(data / "dev.tsv"),
                str(cfg), str(tmp_path / "x.json"), "--clusters", str(workdir / "clusters.json")]
        assert main(argv) == 0
        assert len(calls) == 1

    def test_model_file_round_trip_scores(self, workdir, tmp_path):
        backend, _ = load_model(workdir / "hdplda.json")
        p = tmp_path / "resaved.json"
        save_model(p, backend, seed=0)
        reloaded, _ = load_model(p)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 12))
        assert np.array_equal(backend.score_matrix(X), reloaded.score_matrix(X))


class TestScoreCommand:
    def test_line_count_and_determinism(self, workdir, tmp_path):
        data = workdir / "data"
        out1, out2 = tmp_path / "s1.tsv", tmp_path / "s2.tsv"
        for out in (out1, out2):
            assert (
                main(["score", str(workdir / "dplda.json"), str(data / "test.tsv"), str(out)])
                == 0
            )
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert len(lines) == 250  # 50 test samples x 5 detectors

    def test_rescoring_each_kind(self, workdir, tmp_path):
        data = workdir / "data"
        for kind in ("plda", "dplda", "hdplda"):
            out = tmp_path / f"{kind}.tsv"
            assert (
                main(["score", str(workdir / f"{kind}.json"), str(data / "test.tsv"), str(out)])
                == 0
            )
            first = out.read_text().splitlines()[0].split("\t")
            assert len(first) == 3
            float(first[2])

    def test_unknown_model_kind_exits_2(self, workdir, tmp_path):
        bad = tmp_path / "bad_model.json"
        doc = json.loads((workdir / "dplda.json").read_text())
        doc["kind"] = "mystery"
        bad.write_text(json.dumps(doc))
        data = workdir / "data"
        assert main(["score", str(bad), str(data / "test.tsv"), str(tmp_path / "o.tsv")]) == 2

    def score_rows(self, workdir, tmp_path, kind, X):
        """Exit code of `langrec score` with the model of this kind on the rows X."""
        n = len(X)
        path = tmp_path / "rows.tsv"
        save_embeddings(EmbeddingSet([f"r{i}" for i in range(n)], ["c0_l0"] * n, ["d"] * n, X), path)
        return main(["score", str(workdir / f"{kind}.json"), str(path), str(tmp_path / "o.tsv")])

    @pytest.mark.parametrize("kind", ["plda", "dplda", "hdplda"])
    def test_degenerate_row_exits_1(self, workdir, tmp_path, capsys, kind):
        # x0 = -A^+ b is mapped to the zero vector, which has no direction.
        backend, _ = load_model(workdir / f"{kind}.json")
        pre = (backend.stage1 if kind == "hdplda" else backend).preproc
        x0 = -np.linalg.pinv(pre.A) @ pre.b
        X = np.vstack([load_embeddings(workdir / "data" / "test.tsv").vectors[:2], x0])
        assert self.score_rows(workdir, tmp_path, kind, X) == 1
        err = capsys.readouterr().err
        assert "degenerate embedding" in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["plda", "dplda", "hdplda"])
    def test_wrong_dimension_exits_1(self, workdir, tmp_path, capsys, kind):
        X = load_embeddings(workdir / "data" / "test.tsv").vectors[:3, :-1]
        assert self.score_rows(workdir, tmp_path, kind, X) == 1
        err = capsys.readouterr().err
        assert "expected dim 12, got 11" in err and "Traceback" not in err

    def score_model_doc(self, workdir, tmp_path, doc):
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        data = workdir / "data"
        return main(["score", str(bad), str(data / "test.tsv"), str(tmp_path / "o.tsv")])

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"format_version": "1", "kind": "plda"}, "plda model file is missing section 'plda'"),
            ({"format_version": "1", "kind": "dplda"}, "missing section 'detectors'"),
            ({"format_version": "1", "kind": "hdplda"}, "missing section 'stage1'"),
            ([1, 2], "model file must hold one JSON object"),
        ],
    )
    def test_malformed_model_file_exits_2(self, workdir, tmp_path, capsys, doc, message):
        assert self.score_model_doc(workdir, tmp_path, doc) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_model_file_not_json_exits_2(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad_model.json"
        bad.write_text("{not json")
        data = workdir / "data"
        assert main(["score", str(bad), str(data / "test.tsv"), str(tmp_path / "o.tsv")]) == 2
        err = capsys.readouterr().err
        assert "is not valid JSON" in err and "Traceback" not in err

    def test_plda_model_with_non_positive_basis_eigenvalue_exits_2(
        self, workdir, tmp_path, capsys
    ):
        # B_prec passes Cholesky, but its eigenvalues relative to W = I round
        # to below zero (condition number 1e18); exact scoring would be wrong.
        doc = json.loads((workdir / "plda.json").read_text())
        d = len(doc["plda"]["mu"])
        Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
        B = np.eye(d)
        B[:3, :3] = Q @ np.diag([1e16, 1e-2, 1.0]) @ Q.T
        doc["plda"]["B_prec"] = (0.5 * (B + B.T)).tolist()
        doc["plda"]["W"] = np.eye(d).tolist()
        assert self.score_model_doc(workdir, tmp_path, doc) == 2
        err = capsys.readouterr().err
        assert "diagonal-basis eigenvalue" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "kind, path, value, message",
        [
            ("plda", ("enroll", 1, "sum", 0), float("nan"),
             "enrollment counts and sums must be finite"),
            ("plda", ("plda", "mu", 2), float("inf"), "mu, B_prec and W must be finite"),
            ("hdplda", ("shifts", "c0_l0", 0), float("nan"), "shift vectors must be finite"),
        ],
        ids=["plda-enroll-nan", "plda-mu-inf", "hdplda-shift-nan"],
    )
    def test_non_finite_model_number_exits_2(
        self, workdir, tmp_path, capsys, kind, path, value, message
    ):
        # JSON readers accept NaN and Infinity; such a model would score nan.
        doc = json.loads((workdir / f"{kind}.json").read_text())
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        assert self.score_model_doc(workdir, tmp_path, doc) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_inconsistent_plda_enrollment_exits_2(self, workdir, tmp_path, capsys):
        doc = json.loads((workdir / "plda.json").read_text())
        doc["enroll"][1]["language"] = doc["enroll"][0]["language"]
        assert self.score_model_doc(workdir, tmp_path, doc) == 2
        assert "detector labels must be unique" in capsys.readouterr().err


class TestEvalCommand:
    @pytest.fixture()
    def scores_file(self, workdir, tmp_path):
        data = workdir / "data"
        out = tmp_path / "scores.tsv"
        assert (
            main(["score", str(workdir / "hdplda.json"), str(data / "test.tsv"), str(out)]) == 0
        )
        return out

    def test_report_fields(self, workdir, scores_file, tmp_path):
        data = workdir / "data"
        out = tmp_path / "report.json"
        assert main(["eval", str(scores_file), str(data / "test.tsv"), str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {
            "pmiss", "pfa", "actual_dcf_norm", "min_dcf_norm", "eer",
            "n_target", "n_nontarget", "ci_low", "ci_high",
        }
        assert doc["n_target"] + doc["n_nontarget"] == 250

    def test_bootstrap_deterministic(self, workdir, scores_file, tmp_path):
        data = workdir / "data"
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert (
                main(
                    [
                        "eval", str(scores_file), str(data / "test.tsv"), str(out),
                        "--bootstrap", "200", "--seed", "7",
                    ]
                )
                == 0
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        doc = json.loads(outs[0])
        assert doc["ci_low"] is not None and doc["ci_low"] <= doc["ci_high"]

    def test_subset_eval(self, workdir, scores_file, tmp_path):
        data = workdir / "data"
        out = tmp_path / "subset.json"
        assert (
            main(
                [
                    "eval", str(scores_file), str(data / "test.tsv"), str(out),
                    "--cluster", str(data / "truth_clusters.json"), "--subset", "c0_l0",
                ]
            )
            == 0
        )
        doc = json.loads(out.read_text())
        assert doc["n_target"] + doc["n_nontarget"] == 40  # 20 samples x 2 detectors

    def test_singleton_subset_exits_2(self, workdir, scores_file, tmp_path):
        data = workdir / "data"
        assert (
            main(
                [
                    "eval", str(scores_file), str(data / "test.tsv"),
                    str(tmp_path / "x.json"), "--cluster",
                    str(data / "truth_clusters.json"), "--subset", "c2_l0",
                ]
            )
            == 2
        )

    def test_perfect_scores_zero_dcf(self, workdir, tmp_path):
        data = workdir / "data"
        from langrec.dataio import load_embeddings

        test = load_embeddings(data / "test.tsv")
        lines = []
        for sid, lang in zip(test.sample_ids, test.languages):
            for det in sorted(set(test.languages)):
                lines.append(f"{sid}\t{det}\t{100.0 if det == lang else -100.0}")
        scores = tmp_path / "perfect.tsv"
        scores.write_text("\n".join(lines) + "\n")
        out = tmp_path / "perfect.json"
        assert main(["eval", str(scores), str(data / "test.tsv"), str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["actual_dcf_norm"] == 0.0

    def test_duplicate_score_row_exits_1_naming_line(self, workdir, scores_file, tmp_path, capsys):
        lines = scores_file.read_text().splitlines()
        sid, det, _ = lines[3].split("\t")
        bad = tmp_path / "dup.tsv"
        bad.write_text("\n".join(lines + [lines[3]]) + "\n")
        code = main(["eval", str(bad), str(workdir / "data" / "test.tsv"), str(tmp_path / "x.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"duplicate score for sample {sid!r} and detector {det!r}" in err
        assert f"at line {len(lines) + 1}" in err

    def test_missing_score_exits_1_naming_sample(self, workdir, scores_file, tmp_path, capsys):
        lines = scores_file.read_text().splitlines()
        sid, det, _ = lines[7].split("\t")
        bad = tmp_path / "missing.tsv"
        bad.write_text("\n".join(lines[:7] + lines[8:]) + "\n")
        code = main(["eval", str(bad), str(workdir / "data" / "test.tsv"), str(tmp_path / "x.json")])
        assert code == 1
        assert f"sample {sid!r} has no score for detector {det!r}" in capsys.readouterr().err

    def test_non_finite_score_exits_1_naming_line(self, workdir, scores_file, tmp_path, capsys):
        lines = scores_file.read_text().splitlines()
        for i in range(2, len(lines), 3):
            sid, det, _ = lines[i].split("\t")
            lines[i] = f"{sid}\t{det}\tnan"
        bad = tmp_path / "nan.tsv"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["eval", str(bad), str(workdir / "data" / "test.tsv"), str(tmp_path / "x.json")])
        assert code == 1
        assert "non-finite score at line 3" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")

# (command, change): a train or synth config with `change` merged into the
# test config, or eval / cluster with `change` as extra options. Every case
# is a bad number that must stop the command as a config error.
BAD_NUMBER_CASES = {
    "train-nan-rate": ("train", {"stages": [[5, NAN]]}),
    "train-inf-rate": ("train", {"finetune": [5, INF]}),
    "train-nan-checkpoint-every": ("train", {"checkpoint_every": NAN}),
    "train-negative-em-iters": ("train", {"em_iters": -3}),
    "train-fractional-batch-size": ("train", {"batch_size": 2.5}),
    "train-fractional-stage-count": ("train", {"stages": [[2.5, 1e-3]]}),
    "train-fractional-seed": ("train", {"seeds": [0.5]}),
    "train-string-out-dim": ("train", {"out_dim": "x"}),
    "train-zero-out-dim": ("train", {"out_dim": 0}),
    "synth-fractional-dim": ("synth", {"dim": 8.5}),
    "synth-fractional-cluster-size": ("synth", {"cluster_sizes": [2.5, 2]}),
    "synth-nan-sigma": ("synth", {"sigma_cluster": NAN}),
    "synth-inf-sigma": ("synth", {"sigma_within": INF}),
    "synth-not-an-object": ("synth", 5),
    "eval-nan-c-fa": ("eval", ["--c-fa", "nan"]),
    "eval-inf-c-miss": ("eval", ["--c-miss", "inf"]),
    "eval-negative-c-miss": ("eval", ["--c-miss", "-1"]),
    "eval-nan-p-target": ("eval", ["--p-target", "nan"]),
    "eval-p-target-above-1": ("eval", ["--p-target", "1.5"]),
    "eval-negative-bootstrap": ("eval", ["--bootstrap", "-5"]),
    "eval-negative-seed": ("eval", ["--bootstrap", "5", "--seed", "-1"]),
    "cluster-nan-threshold": ("cluster", ["--threshold", "nan"]),
}


@pytest.mark.parametrize("case", sorted(BAD_NUMBER_CASES))
def test_bad_number_is_config_error(workdir, tmp_path, capsys, case):
    command, change = BAD_NUMBER_CASES[case]
    data = workdir / "data"
    if command in ("train", "synth"):
        base = TRAIN_CONFIG if command == "train" else SYNTH_CONFIG
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**base, **change} if isinstance(change, dict) else change))
    if command == "train":
        argv = ["train", "--kind", "dplda", str(data / "train.tsv"), str(data / "dev.tsv"),
                str(cfg), str(tmp_path / "model.json")]
    elif command == "synth":
        argv = ["synth", str(cfg), str(tmp_path / "out")]
    elif command == "eval":
        scores = tmp_path / "scores.tsv"
        assert main(["score", str(workdir / "plda.json"), str(data / "test.tsv"), str(scores)]) == 0
        argv = ["eval", str(scores), str(data / "test.tsv"), str(tmp_path / "report.json"), *change]
    else:
        argv = ["cluster", str(data / "train.tsv"), str(workdir / "plda.json"),
                str(tmp_path / "clusters.json"), *change]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("langrec: config error:"), err
    assert "Traceback" not in err


# Cluster-map files that are not an object of language lists.
BAD_CLUSTER_MAPS = {
    "clusters-is-a-list": json.dumps({"clusters": ["c0_l0"]}),
    "cluster-is-a-number": json.dumps({"clusters": {"c0_l0": 5}}),
    "cluster-is-a-string": json.dumps({"clusters": {"c0_l0": "c0_l0"}}),
    "language-is-a-number": json.dumps({"clusters": {"c0_l0": ["c0_l0", 3]}}),
    "no-clusters": json.dumps({"threshold": 1.0}),
    "empty-partition": json.dumps({"clusters": {}}),
    "threshold-is-a-string": json.dumps(
        {"clusters": {"c0_l0": ["c0_l0", "c0_l1"]}, "threshold": "x"}
    ),
    "not-an-object": json.dumps([["c0_l0"]]),
    "not-json": "clusters: c0_l0\n",
    "missing-file": None,
}


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("case", sorted(BAD_CLUSTER_MAPS))
def test_bad_cluster_map_is_config_error(workdir, tmp_path, capsys, command, case):
    data = workdir / "data"
    cmap = tmp_path / "clusters.json"
    if BAD_CLUSTER_MAPS[case] is not None:
        cmap.write_text(BAD_CLUSTER_MAPS[case], encoding="utf-8")
    if command == "train":
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps(TRAIN_CONFIG))
        argv = ["train", "--kind", "hdplda", str(data / "train.tsv"), str(data / "dev.tsv"),
                str(cfg), str(tmp_path / "model.json"), "--clusters", str(cmap)]
    else:
        scores = tmp_path / "scores.tsv"
        assert main(["score", str(workdir / "plda.json"), str(data / "test.tsv"), str(scores)]) == 0
        argv = ["eval", str(scores), str(data / "test.tsv"), str(tmp_path / "report.json"),
                "--cluster", str(cmap), "--subset", "c0_l0"]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("langrec: config error:"), err
    assert "Traceback" not in err


# reader -> (its exit code on a file that is not UTF-8, a command reading {bad})
NOT_UTF8_READERS = {
    "model": (2, "score {bad} {data}/test.tsv {out}"),
    "synth-config": (2, "synth {bad} {out}"),
    "train-config": (2, "train --kind dplda {data}/train.tsv {data}/dev.tsv {bad} {out}"),
    "cluster-map": (
        2,
        "train --kind hdplda {data}/train.tsv {data}/dev.tsv {work}/train.json {out} "
        "--clusters {bad}",
    ),
    "emb-tsv": (1, "score {work}/plda.json {bad} {out}"),
    "scores": (1, "eval {bad} {data}/test.tsv {out}"),
}


@pytest.mark.parametrize("reader", sorted(NOT_UTF8_READERS))
def test_input_that_is_not_utf8_is_named(workdir, tmp_path, capsys, reader):
    code, command = NOT_UTF8_READERS[reader]
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("#dim=2 café\n".encode("latin-1"))
    paths = {"work": workdir, "data": workdir / "data", "bad": bad, "out": tmp_path / "out"}
    capsys.readouterr()
    assert main([word.format(**paths) for word in command.split()]) == code
    err = capsys.readouterr().err
    prefix = "langrec: config error:" if code == 2 else "langrec: error:"
    assert err.startswith(prefix) and str(bad) in err, err
    assert "Traceback" not in err
