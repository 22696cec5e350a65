"""Malformed input files through langrec.cli.main.

Each example mutates one line of a valid text input file (EMB-TSV, score
TSV), or one node of a valid JSON input file (model of each kind, train and
synth config, cluster map), and runs a command that reads it. Whatever the
mutation, the command exits 0, 1 or 2 without an exception escaping main; a
failure names itself on stderr and leaves no output file; a success writes
only finite numbers. Each bug the properties found has its own named case.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from langrec.cli import main

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

SYNTH_CONFIG = {"dim": 3, "cluster_sizes": [2, 1], "n_train": 10, "n_dev": 2, "n_test": 3, "seed": 0}

# Each replaces one whole field, or one number of an EMB-TSV vector field.
BAD_VALUES = ("nan", "inf", "1e308", "1e-320", "", "x", "1_0", "١")


@pytest.fixture(scope="module")
def eval_inputs(tmp_path_factory):
    """{name: lines} of a tiny test EMB-TSV and of plda scores on it."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "synth.json").write_text(json.dumps(SYNTH_CONFIG))
    (root / "train.json").write_text(json.dumps({"em_iters": 5}))
    data = root / "data"
    assert main(["synth", str(root / "synth.json"), str(data)]) == 0
    train = [str(data / "train.tsv"), str(data / "dev.tsv"), str(root / "train.json")]
    assert main(["train", "--kind", "plda", *train, str(root / "plda.json")]) == 0
    scores = root / "scores.tsv"
    assert main(["score", str(root / "plda.json"), str(data / "test.tsv"), str(scores)]) == 0
    return {
        "scores": scores.read_text().splitlines(),
        "test": (data / "test.tsv").read_text().splitlines(),
    }


# (file, line, kind, value, field, number within the field, cut); the
# indices wrap around what the chosen line has.
MUTATIONS = st.tuples(
    st.sampled_from(["scores", "test"]),
    st.integers(0, 10**6),
    st.sampled_from(["tab-to-space", "truncate", "delete", "duplicate", "value"]),
    st.sampled_from(BAD_VALUES),
    st.integers(0, 3),
    st.integers(0, 2),
    st.integers(0, 10**6),
)


def mutate(lines, line, kind, value, field, number, cut):
    lines = list(lines)
    i = line % len(lines)
    text = lines[i]
    if kind == "tab-to-space":
        tabs = [j for j, ch in enumerate(text) if ch == "\t"]
        if tabs:
            j = tabs[field % len(tabs)]
            lines[i] = text[:j] + " " + text[j + 1 :]
    elif kind == "truncate":
        lines[i] = text[: cut % max(len(text), 1)]
    elif kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, text)
    else:
        fields = text.split("\t")
        f = field % len(fields)
        numbers = fields[f].split(" ")
        numbers[number % len(numbers)] = value
        fields[f] = " ".join(numbers)
        lines[i] = "\t".join(fields)
    return lines


def finite_numbers(doc) -> bool:
    if isinstance(doc, dict):
        return all(finite_numbers(v) for v in doc.values())
    if isinstance(doc, list):
        return all(finite_numbers(v) for v in doc)
    if isinstance(doc, float):
        return math.isfinite(doc)
    return True


@SETTINGS
@given(MUTATIONS)
def test_eval_names_or_survives_a_mutated_input_line(eval_inputs, mutation):
    name, *how = mutation
    with tempfile.TemporaryDirectory() as tmp:
        paths = {n: Path(tmp) / f"{n}.tsv" for n in eval_inputs}
        for n, lines in eval_inputs.items():
            changed = mutate(lines, *how) if n == name else lines
            paths[n].write_text("\n".join(changed) + "\n")
        report = Path(tmp) / "report.json"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(
                ["eval", str(paths["scores"]), str(paths["test"]), str(report), "--bootstrap", "3"]
            )
        assert code in (0, 1, 2)
        if code:
            assert err.getvalue().startswith(("langrec: error:", "langrec: config error:"))
            assert not report.exists()
        else:
            assert finite_numbers(json.loads(report.read_text()))


# JSON readers: model files of each kind, train and synth configs, cluster
# maps. A mutation picks one node of the document (by its index in a walk
# that visits every node) and deletes it, gives it another type, or puts an
# extreme number in its place.
JSON_SYNTH_CONFIG = {
    "dim": 4, "cluster_sizes": [2, 1, 1], "sigma_language": 0.5,
    "n_train": 8, "n_dev": 3, "n_test": 3, "seed": 0,
}
JSON_TRAIN_CONFIG = {
    "batch_size": 16, "pi": 0.05, "alpha": 0.0, "stages": [[4, 0.001]],
    "finetune": [2, 0.0001], "checkpoint_every": 2, "seeds": [0],
    "select_metric": "loss", "em_iters": 3,
}
OTHER_TYPES = ("x", [1.0], {"x": 1.0}, None, True)
HUGE = 10**400  # an integer that no float holds
EXTREMES = (math.nan, math.inf, -math.inf, 1e308, 1e-320, HUGE)
JSON_MUTATIONS = st.tuples(
    st.integers(0, 10**6),
    st.sampled_from(["delete", "type", "number"]),
    st.integers(0, 5),
)
JSON_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def json_inputs(tmp_path_factory):
    """The paths of a tiny synthetic set and the valid documents of every
    JSON reader: a model of each kind, both configs, the truth cluster map."""
    root = tmp_path_factory.mktemp("fuzz_json")
    (root / "synth.json").write_text(json.dumps(JSON_SYNTH_CONFIG))
    (root / "train.json").write_text(json.dumps(JSON_TRAIN_CONFIG))
    data = root / "data"
    assert main(["synth", str(root / "synth.json"), str(data)]) == 0
    train = [str(data / "train.tsv"), str(data / "dev.tsv"), str(root / "train.json")]
    clusters = ["--clusters", str(data / "truth_clusters.json")]
    docs = {"train": JSON_TRAIN_CONFIG, "synth": JSON_SYNTH_CONFIG}
    for kind in ("plda", "dplda", "hdplda"):
        model = root / f"{kind}.json"
        extra = clusters if kind == "hdplda" else []
        assert main(["train", "--kind", kind, *train, str(model), *extra]) == 0
        docs[kind] = json.loads(model.read_text())
    docs["clusters-eval"] = docs["clusters-train"] = json.loads(
        (data / "truth_clusters.json").read_text()
    )
    scores = ["score", str(root / "plda.json"), str(data / "test.tsv"), str(data / "scores.tsv")]
    assert main(scores) == 0
    return data, docs


def json_nodes(doc, path=()):
    """The path of every node of a JSON document, the root first."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from json_nodes(value, path + (key,))


def mutate_json(doc, node, kind, choice):
    """(the path of the node changed, the changed document)."""
    doc = json.loads(json.dumps(doc))
    paths = list(json_nodes(doc))
    path = paths[node % len(paths)]
    if kind == "delete" and not path:
        return path, doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
        return path, doc
    values = OTHER_TYPES if kind == "type" else EXTREMES
    value = values[choice % len(values)]
    if not path:
        return path, value
    parent[path[-1]] = value
    return path, doc


# A stage of HUGE batches is a valid train config that never ends; HUGE EM
# iterations end only when EM meets its tolerance.
ENDLESS = {("stages", 0, 0), ("finetune", 0), ("em_iters",)}


def run_reader(reader, doc, data, tmp):
    """(exit code, stderr, the output paths) of the command that reads the
    document as a `reader` file."""
    path = Path(tmp) / f"{reader}.json"
    path.write_text(json.dumps(doc))
    out = Path(tmp) / "out"
    if reader in ("plda", "dplda", "hdplda"):
        argv = ["score", str(path), str(data / "test.tsv"), str(out)]
    elif reader == "synth":
        argv = ["synth", str(path), str(out)]
    elif reader == "train":
        argv = ["train", "--kind", "dplda", str(data / "train.tsv"), str(data / "dev.tsv"),
                str(path), str(out), "--log", str(Path(tmp) / "log.tsv")]
    elif reader == "clusters-train":
        argv = ["train", "--kind", "hdplda", str(data / "train.tsv"), str(data / "dev.tsv"),
                str(data.parent / "train.json"), str(out), "--log", str(Path(tmp) / "log.tsv"),
                "--clusters", str(path)]
    else:
        argv = ["eval", str(data / "scores.tsv"), str(data / "test.tsv"), str(out),
                "--cluster", str(path), "--subset", "c0_l0"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue(), [out, Path(tmp) / "log.tsv"]


def written_numbers_are_finite(path: Path) -> bool:
    """Whether every number in an output file, or in the files of an output
    directory, is finite: a JSON document, an EMB-TSV or a score TSV."""
    if path.is_dir():
        return all(written_numbers_are_finite(p) for p in path.iterdir())
    text = path.read_text()
    if text.startswith("{"):
        return finite_numbers(json.loads(text))
    lines = text.splitlines()
    if text.startswith("#dim="):
        numbers = [x for line in lines[1:] for x in line.split("\t")[3].split()]
    else:
        numbers = [line.split("\t")[2] for line in lines]
    return all(math.isfinite(float(x)) for x in numbers)


def check_reader_outcome(code, err, outputs):
    assert code in (0, 1, 2)
    if code:
        assert err.startswith(("langrec: error:", "langrec: config error:")), err
        assert not any(out.exists() for out in outputs), outputs
    else:
        assert written_numbers_are_finite(outputs[0])


@pytest.mark.parametrize(
    "reader", ["plda", "dplda", "hdplda", "train", "synth", "clusters-eval", "clusters-train"]
)
def test_json_reader_names_or_survives_a_mutation(json_inputs, reader):
    data, docs = json_inputs

    @JSON_SETTINGS
    @given(JSON_MUTATIONS)
    def check(mutation):
        path, doc = mutate_json(docs[reader], *mutation)
        huge = mutation[1:] == ("number", EXTREMES.index(HUGE))
        assume(not (reader == "train" and path in ENDLESS and huge))
        with tempfile.TemporaryDirectory() as tmp:
            check_reader_outcome(*run_reader(reader, doc, data, tmp))

    check()


def run_with(reader, json_inputs, change, tmp_path):
    """run_reader on the reader's valid document after change(doc)."""
    data, docs = json_inputs
    doc = json.loads(json.dumps(docs[reader]))
    change(doc)
    return run_reader(reader, doc, data, tmp_path)


def set_path(*path_and_value):
    *path, value = path_and_value

    def change(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    return change


def test_dplda_model_with_k_1e308_scores_1e308(json_inputs, tmp_path):
    # k is added to every score. 1e308 is a finite model whose scores are
    # finite, so it is scored as written: the reader checks finiteness and
    # consistency, not plausibility, and no bound on k follows from the model.
    code, err, (out, _) = run_with("dplda", json_inputs, set_path("params", "k", 1e308), tmp_path)
    assert code == 0, err
    scores = [float(line.split("\t")[2]) for line in out.read_text().splitlines()]
    assert scores and all(math.isfinite(s) and s > 1e307 for s in scores)


def test_training_that_overflows_falls_back_without_a_warning(json_inputs, tmp_path):
    # A rate of 1e308 overflows in the first Adam step. That is a divergence:
    # train falls back to the best checkpoint, and numpy's overflow warnings
    # (errors under this suite's filters) stay inside it.
    change = set_path("stages", 0, 1, 1e308)
    code, err, (out, _) = run_with("train", json_inputs, change, tmp_path)
    assert code == 0, err
    assert finite_numbers(json.loads(out.read_text()))


def test_synth_config_whose_draws_overflow_is_named(json_inputs, tmp_path):
    change = set_path("sigma_language", 1e308)
    code, err, (out, _) = run_with("synth", json_inputs, change, tmp_path)
    assert code == 1
    assert err.startswith("langrec: error: embedding vectors must be finite"), err
    assert not out.exists()


@pytest.mark.parametrize("kind, path", [
    ("plda", ("enroll", 0, "language")),
    ("dplda", ("detectors", 1, "label")),
    ("hdplda", ("stage2", "detectors", 0, "label")),
])
@pytest.mark.parametrize("label", [math.nan, 5, None])
def test_model_with_a_detector_label_that_is_not_a_string_is_a_format_error(
    json_inputs, tmp_path, kind, path, label
):
    code, err, _ = run_with(kind, json_inputs, set_path(*path, label), tmp_path)
    assert code == 2
    assert err.startswith("langrec: config error: malformed"), err


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_cluster_map_with_a_threshold_that_is_not_finite_is_a_config_error(
    json_inputs, tmp_path, threshold
):
    # The map's threshold goes into the hdplda model file, where a non-finite
    # number is not JSON.
    change = set_path("threshold", threshold)
    code, err, (out, _) = run_with("clusters-train", json_inputs, change, tmp_path)
    assert code == 2
    assert "threshold must be a finite number or null" in err, err
    assert not out.exists()


# reader -> (the path given 10**400, the exit code)
HUGE_INTEGER_CASES = {
    "plda": (("plda", "mu", 0), 2),
    "dplda": (("params", "k"), 2),
    "hdplda": (("shifts", "c0_l0", 0), 2),
    "train": (("stages", 0, 1), 2),
    "synth": (("sigma_within",), 2),
    "clusters-train": (("threshold",), 0),
}


@pytest.mark.parametrize("reader", sorted(HUGE_INTEGER_CASES) + ["synth-cluster-size"])
def test_integer_that_no_float_holds_is_named(json_inputs, tmp_path, reader):
    # An integer in place of a float is read as the float it converts to;
    # 10**400 converts to none. A cluster of 10**400 languages fails when
    # it is drawn (exit 1); a threshold is kept as the integer it is.
    if reader == "synth-cluster-size":
        (path, expected), reader = (("cluster_sizes", 0), 1), "synth"
    else:
        path, expected = HUGE_INTEGER_CASES[reader]
    code, err, outputs = run_with(reader, json_inputs, set_path(*path, HUGE), tmp_path)
    assert code == expected, err
    check_reader_outcome(code, err, outputs)
