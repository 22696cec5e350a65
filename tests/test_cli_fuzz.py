"""Malformed input files through langrec.cli.main.

Each example mutates one line of a valid input file and runs the command
on it. Whatever the mutation, the command exits 0, 1 or 2 without an
exception escaping main; a failure names itself on stderr and leaves no
output file; a success writes only finite numbers.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
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
