import json

import numpy as np
import pytest

from langrec.cli import main
from langrec.backend import FlatBackend, GenerativeBackend
from langrec.hier import HierBackend
from langrec.modelio import load_model, save_model


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

    def test_hdplda_without_clusters_exits_2(self, workdir, tmp_path):
        data = workdir / "data"
        cfg = workdir / "train.json"
        assert (
            main(
                [
                    "train", "--kind", "hdplda", str(data / "train.tsv"),
                    str(data / "dev.tsv"), str(cfg), str(tmp_path / "x.json"),
                ]
            )
            == 2
        )

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
