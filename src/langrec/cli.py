"""Command-line surface.

Subcommands: synth (generate synthetic embedding sets), cluster (language
clustering from a plda model), train (plda / dplda / hdplda), score
(sample-by-detector LLR table), eval (detection metrics from a score
table). Exit codes: 0 success, 1 runtime or data failure, 2 usage or
config error. All randomness comes from explicit seeds, so every command
is byte-deterministic given its inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import clustering, metrics, modelio
from .backend import fit_generative_backend, init_from_generative
from .dataio import (
    ParseError,
    TrialSet,
    balance_weights,
    check_count,
    generate_trials,
    load_embeddings,
    per_language_means,
    read_text,
    save_embeddings,
)
from .hier import init_hier
from .synth import SynthConfig, generate
from .training import TrainConfig, format_training_log, multi_seed_train

PROG = "langrec"


class ConfigError(ValueError):
    """User-facing configuration problem; exits with code 2."""


def _load_json(path, what: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed JSON in {what} file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} file {path} must hold one JSON object")
    return doc


def _load_cluster_map(path) -> clustering.ClusterMap:
    doc = _load_json(path, "cluster map")
    try:
        return clustering.cluster_map_from_doc(doc)
    except ValueError as exc:
        raise ConfigError(f"invalid cluster map file {path}: {exc}") from None


def _config_from_doc(cls, doc: dict, what: str):
    known = {f.name for f in dataclass_fields(cls)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {what} config")
    kwargs = {}
    for key, value in doc.items():
        if isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {what} config: {exc}") from None


def cmd_synth(args) -> int:
    doc = _load_json(args.config, "synth")
    config = _config_from_doc(SynthConfig, doc, "synth")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train, dev, test, truth = generate(config)
    save_embeddings(train, out_dir / "train.tsv")
    save_embeddings(dev, out_dir / "dev.tsv")
    save_embeddings(test, out_dir / "test.tsv")
    (out_dir / "truth_clusters.json").write_text(
        clustering.cluster_map_to_json(truth), encoding="utf-8"
    )
    print(f"wrote train/dev/test EMB-TSV and truth_clusters.json to {out_dir}")
    return 0


def cmd_cluster(args) -> int:
    if not math.isfinite(args.threshold):
        raise ConfigError(f"--threshold must be finite, got {args.threshold}")
    # As in cmd_score: finite but extreme numbers in the model or the
    # embeddings can overflow in the pair-score parameters or the language
    # means; the model's finiteness check and the distance check name the error.
    with np.errstate(all="ignore"):
        backend, meta = modelio.load_model(args.model)
        if meta["kind"] != "plda":
            raise ConfigError("clustering needs a model of kind 'plda'")
        train = load_embeddings(args.train)
        means = per_language_means(train)
        langs, dist = clustering.plda_distance_matrix(means, backend.model, backend.preproc)
    if not np.isfinite(dist[~np.eye(len(langs), dtype=bool)]).all():
        raise ValueError("non-finite PLDA distance between language means")
    merges = clustering.linkage_merges(langs, dist)
    cmap = clustering.cut_merges(langs, merges, args.threshold)
    out = Path(args.out)
    out.write_text(clustering.cluster_map_to_json(cmap), encoding="utf-8")
    dendro = Path(args.dendrogram) if args.dendrogram else out.with_suffix(".dendrogram.tsv")
    dendro.write_text(clustering.merges_to_tsv(merges), encoding="utf-8")
    print(f"{cmap.n_clusters()} clusters at threshold {args.threshold}; wrote {out} and {dendro}")
    return 0


_TRAIN_EXTRAS = ("out_dim", "out_dim1", "out_dim2", "em_iters")


def cmd_train(args) -> int:
    doc = _load_json(args.config, "train")
    config = _config_from_doc(
        TrainConfig, {k: v for k, v in doc.items() if k not in _TRAIN_EXTRAS}, "train"
    )
    extras = {key: doc[key] for key in _TRAIN_EXTRAS if key in doc}
    for key, value in extras.items():
        try:
            check_count(key, value, 0 if key == "em_iters" else 1)
        except ValueError as exc:
            raise ConfigError(f"invalid train config: {exc}") from None
    if config.alpha > 0.0 and args.kind != "hdplda":
        raise ConfigError(f"invalid train config: alpha > 0 needs kind 'hdplda', not {args.kind!r}")
    if args.kind == "hdplda":
        if not args.clusters:
            raise ConfigError("kind 'hdplda' requires --clusters")
        cmap = _load_cluster_map(args.clusters)
    out_dim, em_iters = extras.get("out_dim"), extras.get("em_iters", 50)

    train_set = load_embeddings(args.train)
    weights = balance_weights(train_set)
    log_path = Path(args.log) if args.log else Path(args.out).with_suffix(".log.tsv")

    if args.kind == "plda":
        backend = fit_generative_backend(train_set, weights, out_dim, em_iters=em_iters)
        modelio.save_model(args.out, backend, train_config=None, seed=None)
        log_path.write_text(format_training_log([]), encoding="utf-8")
        print(f"trained plda backend ({backend.n_detectors} detectors); wrote {args.out}")
        return 0

    dev_set = load_embeddings(args.dev)
    detectors = tuple(sorted(train_set.language_inventory()))
    dev_trials = generate_trials(dev_set, detectors)
    dev_sets = [(dev_set, dev_trials)]

    if args.kind == "dplda":
        backend = init_from_generative(train_set, weights, out_dim, em_iters=em_iters)
    else:
        out_dim1, out_dim2 = extras.get("out_dim1"), extras.get("out_dim2")
        backend = init_hier(train_set, cmap, weights, out_dim1, out_dim2, em_iters=em_iters)

    result = multi_seed_train(backend, train_set, dev_sets, config)
    modelio.save_model(args.out, result.backend, train_config=doc, seed=result.seed)
    log_path.write_text(format_training_log(result.log), encoding="utf-8")
    print(
        f"trained {args.kind} backend (seed {result.seed}, dev {result.best_avg_dev:.6g}); "
        f"wrote {args.out} and {log_path}"
    )
    return 0


def cmd_score(args) -> int:
    # Finite but extreme numbers in the model or the embeddings can overflow
    # in the scoring tables or the scores; the scores are checked instead.
    with np.errstate(all="ignore"):
        backend, _ = modelio.load_model(args.model)
        test = load_embeddings(args.test)
        S = backend.score_matrix(test.vectors)
    bad = np.argwhere(~np.isfinite(S))
    if len(bad):
        i, j = bad[0]
        raise ValueError(
            f"non-finite score for sample {test.sample_ids[i]!r} and detector "
            f"{backend.detector_labels[j]!r}"
        )
    lines = [
        f"{sid}\t{lang}\t{'%.9g' % score}"
        for sid, row in zip(test.sample_ids, S.tolist())
        for lang, score in zip(backend.detector_labels, row)
    ]
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} trial scores to {args.out}")
    return 0


def _read_scores(path):
    """Per-line sample ids, detectors and scores.

    Every sample must have exactly one score for every detector in the file.
    """
    ids, dets, scores = [], [], []
    seen = set()
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"{path}: expected 3 fields at line {lineno}")
        try:
            score = float(parts[2])
        except ValueError:
            raise ParseError(f"{path}: non-numeric score at line {lineno}") from None
        if not math.isfinite(score):
            raise ParseError(f"{path}: non-finite score at line {lineno}")
        if (parts[0], parts[1]) in seen:
            raise ParseError(
                f"{path}: duplicate score for sample {parts[0]!r} and detector "
                f"{parts[1]!r} at line {lineno}"
            )
        seen.add((parts[0], parts[1]))
        ids.append(parts[0])
        dets.append(parts[1])
        scores.append(score)
    if not ids:
        raise ParseError(f"{path}: empty score file")
    detectors = tuple(dict.fromkeys(dets))
    for sid in dict.fromkeys(ids):
        lacking = [d for d in detectors if (sid, d) not in seen]
        if lacking:
            raise ParseError(f"{path}: sample {sid!r} has no score for detector {lacking[0]!r}")
    return ids, dets, np.array(scores)


def cmd_eval(args) -> int:
    try:
        metrics.bayes_threshold(args.p_target, args.c_miss, args.c_fa)
    except ValueError as exc:
        raise ConfigError(f"invalid cost options: {exc}") from None
    if args.bootstrap < 0:
        raise ConfigError(f"--bootstrap must be >= 0, got {args.bootstrap}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if args.subset:
        if not args.cluster:
            raise ConfigError("--subset requires --cluster")
        cmap = _load_cluster_map(args.cluster)
        members = cmap.cluster_languages.get(args.subset)
        if members is None:
            raise ConfigError(f"unknown cluster {args.subset!r}")
        if len(members) < 2:
            raise ConfigError(f"cluster {args.subset!r} has fewer than 2 languages")
    ids, dets, scores = _read_scores(args.scores)
    test = load_embeddings(args.test)
    lang_of = dict(zip(test.sample_ids, test.languages))
    missing = sorted({sid for sid in ids if sid not in lang_of})
    if missing:
        raise ParseError(f"score file references unknown sample_id {missing[0]!r}")
    is_target = np.array([lang_of[s] == d for s, d in zip(ids, dets)], dtype=bool)
    trials = TrialSet(tuple(ids), tuple(dets), is_target)

    if args.subset:
        trials, mask = metrics.subset_trials(trials, lang_of, cmap, args.subset)
        scores = scores[mask]

    report = metrics.evaluate(
        scores, trials.is_target, p_target=args.p_target, c_miss=args.c_miss, c_fa=args.c_fa
    )
    if args.bootstrap:
        report.ci_low, report.ci_high = metrics.bootstrap_ci(
            scores,
            trials,
            n_boot=args.bootstrap,
            seed=args.seed,
            p_target=args.p_target,
            c_miss=args.c_miss,
            c_fa=args.c_fa,
        )
    text = json.dumps(asdict(report), indent=2, sort_keys=True)
    Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=PROG, description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic embedding sets")
    p.add_argument("config", help="SynthConfig JSON")
    p.add_argument("out_dir")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("cluster", help="cluster languages with a plda model")
    p.add_argument("train", help="training EMB-TSV")
    p.add_argument("model", help="model JSON of kind plda")
    p.add_argument("out", help="cluster map JSON output")
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--dendrogram", help="merge log TSV (default: <out>.dendrogram.tsv)")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("train", help="train a backend")
    p.add_argument("--kind", choices=("plda", "dplda", "hdplda"), required=True)
    p.add_argument("train", help="training EMB-TSV")
    p.add_argument("dev", help="development EMB-TSV")
    p.add_argument("config", help="TrainConfig JSON")
    p.add_argument("out", help="model JSON output")
    p.add_argument("--clusters", help="cluster map JSON (required for hdplda)")
    p.add_argument("--log", help="training log TSV (default: <out>.log.tsv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score every sample against every detector")
    p.add_argument("model")
    p.add_argument("test", help="test EMB-TSV")
    p.add_argument("out", help="scores TSV output")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="detection metrics from a score table")
    p.add_argument("scores", help="scores TSV")
    p.add_argument("test", help="test EMB-TSV with reference labels")
    p.add_argument("out", help="metric report JSON output")
    p.add_argument("--cluster", help="cluster map JSON")
    p.add_argument("--subset", help="restrict to one cluster's within-cluster trials")
    p.add_argument("--bootstrap", type=int, default=0, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p-target", type=float, default=0.1, dest="p_target")
    p.add_argument("--c-miss", type=float, default=1.0, dest="c_miss")
    p.add_argument("--c-fa", type=float, default=1.0, dest="c_fa")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, modelio.ModelFormatError) as exc:
        print(f"{PROG}: config error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValueError, OSError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # Not str(exc): numpy's message can itself fail to format.
        print(f"{PROG}: error: out of memory for these inputs and config", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
