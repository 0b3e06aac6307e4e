"""Command-line surface for the requirement-quality pipeline.

Subcommands::

    preprocess   tokenize/tag a dataset, build or apply a tag vocabulary
    train        train one property classifier, save the model + loss curve
    evaluate     score a saved model against a labeled dataset
    crossval     k-fold cross-validation, JSON report + per-fold curves
    search       hyperparameter search over the grid, trials CSV
    predict      classify requirements (file or a single --text)
    gradcheck    analytic vs finite-difference gradients on a random case
    synth        generate a labeled synthetic dataset

All randomness flows from --seed (each stochastic command defaults it),
no command mutates its inputs, and exit codes are 0 success, 1 check
failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from collections import Counter
from pathlib import Path
from typing import Sequence

from .artifact import ModelArtifact, load_model, save_model
from .corpus import (
    PROPERTIES,
    Dataset,
    PropertyName,
    Requirement,
    SignalPlan,
    generate_synthetic,
    holdout_split,
    load_dataset,
    save_dataset,
)
from .errors import ParameterError, ReqqualError, TrainingError
from .evaluation import METRIC_NAMES, cross_validate, encode_labeled, evaluate_model
from .nn import CellType, ModelConfig
from .numcore import blas_threads
from .search import Candidate, SearchSpace, preset_candidate, run_search
from .textpipe import (
    RulesTagger,
    TaggerMode,
    TagVocabulary,
    build_vocabulary,
    encode,
    tag_text,
    write_json,
    write_jsonl,
)
from .train import TrainConfig, fit, gradient_check

_PROPERTY_CHOICES = [p.value for p in PROPERTIES]
_TAGGER_CHOICES = [m.value for m in TaggerMode]
_CELL_CHOICES = [c.value for c in CellType]

# defaults used when neither flags nor --preset pick a value
_FALLBACK = Candidate(
    cell=CellType.GRU, epochs=10, learning_rate=0.01,
    embedding_dim=64, num_layers=1, num_units=64, dropout=0.0,
)


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_argument_group("model configuration")
    group.add_argument("--preset", choices=["paper"],
                       help="start from the shipped best configuration for the property")
    group.add_argument("--cell", choices=_CELL_CHOICES, help="recurrent cell type")
    group.add_argument("--epochs", type=int)
    group.add_argument("--lr", dest="learning_rate", type=float, help="learning rate")
    group.add_argument("--embedding", dest="embedding_dim", type=int, help="embedding dimension")
    group.add_argument("--layers", dest="num_layers", type=int, help="number of recurrent layers")
    group.add_argument("--units", dest="num_units", type=int, help="hidden units per layer")
    group.add_argument("--dropout", type=float, help="dropout on the final hidden state")
    _add_batch_flags(group)


def _add_batch_flags(group: argparse._ActionsContainer) -> None:
    group.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    group.add_argument("--clip-norm", type=float, default=TrainConfig.clip_norm,
                       help="global gradient-norm cap (0 disables clipping)")


def _resolve_candidate(args: argparse.Namespace, prop: PropertyName) -> Candidate:
    base = preset_candidate(prop) if args.preset == "paper" else _FALLBACK
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(Candidate)}
    return dataclasses.replace(base, **{k: v for k, v in flags.items() if v is not None})


def _add_jobs_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--jobs", type=int, metavar="N",
                     help="worker processes for the fits (default: the usable CPUs; "
                          "each worker holds one model)")


def _clip_norm(args: argparse.Namespace) -> float | None:
    return None if args.clip_norm == 0 else args.clip_norm


# ------------------------------------------------------------------ commands


def cmd_preprocess(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.input)
    mode = TaggerMode(args.tagger)
    tagger = RulesTagger()
    tagged = [(req.id, tag_text(req.text, mode, tagger)) for req in dataset.requirements]

    if args.vocab_in:
        vocab = TagVocabulary.load(args.vocab_in)
    else:
        vocab = build_vocabulary(tokens for _, tokens in tagged)

    write_jsonl(args.out, (
        {"id": rid, "ids": list(encode(tokens, vocab).ids), "tags": [t.tag for t in tokens]}
        for rid, tokens in tagged
    ))
    if args.vocab_out:
        vocab.save(args.vocab_out)

    frequencies = Counter(token.tag for _, tokens in tagged for token in tokens)
    print("tag frequencies:")
    for tag, count in frequencies.most_common():
        print(f"  {tag:8s} {count}")
    total = sum(frequencies.values())
    unknown_tags = sorted(tag for tag in frequencies if tag not in vocab)
    missing = sum(frequencies[tag] for tag in unknown_tags)
    pct = 100.0 * missing / total if total else 0.0
    print(f"unknown tags: {missing} of {total} ({pct:.2f}%)"
          + (f" {unknown_tags}" if unknown_tags else ""))
    vocab_note = args.vocab_out or args.vocab_in
    print(f"encoded {len(tagged)} requirements -> {args.out} (vocabulary: {vocab_note})")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    rates: dict[str, float] = {}
    for item in args.rate or []:
        name, _, value = item.partition("=")
        try:
            rates[name] = float(value)  # without "=" value is empty, which float rejects
        except ValueError:
            raise ParameterError(f"--rate takes PROPERTY=FRACTION, got {item!r}") from None
    plan = SignalPlan(violation_rates=rates) if rates else None
    dataset = generate_synthetic(args.n, args.seed, plan)
    save_dataset(dataset, args.out)
    violated = {
        prop.value: sum(1 for r in dataset.requirements if not r.labels[prop])
        for prop in PROPERTIES
    }
    print(f"wrote {len(dataset)} synthetic requirements -> {args.out} (seed {args.seed})")
    print("violations per property: "
          + ", ".join(f"{name}={count}" for name, count in violated.items()))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    if not 0 <= args.val_fraction < 1:
        raise ParameterError(f"--val-fraction must be in [0, 1), got {args.val_fraction}")
    prop = PropertyName(args.property)
    dataset = load_dataset(args.input)
    train_reqs, val_reqs = dataset.labeled(prop), None
    if args.val_fraction > 0:
        train_ds, val_ds = holdout_split(dataset, prop, 1.0 - args.val_fraction, args.seed)
        train_reqs, val_reqs = train_ds.requirements, val_ds.requirements
    mode = TaggerMode(args.tagger)
    vocab, encoded = encode_labeled(dataset, prop, mode)
    candidate = _resolve_candidate(args, prop)
    model_cfg = candidate.model_config(vocab.size)
    train_cfg = candidate.train_config(args.seed, args.batch_size, _clip_norm(args))
    validation = None if val_reqs is None else [encoded[r.id] for r in val_reqs]
    params, curve = fit(
        [encoded[r.id] for r in train_reqs], model_cfg, train_cfg, validation=validation
    )
    artifact = ModelArtifact(
        property=prop,
        model_config=model_cfg,
        vocabulary=vocab,
        params=params,
        tagger_mode=mode,
        seed=args.seed,
        metadata={"dataset": dataset.name, "trained_on": len(train_reqs)},
    )
    save_model(artifact, args.out)
    curve_path = args.curve or str(Path(args.out).with_suffix(".curve.csv"))
    curve.save_csv(curve_path)
    final = curve.final()
    print(
        f"{prop.value}: trained {candidate.cell.value} on {len(train_reqs)} requirements, "
        f"final loss {final.train_loss:.4f}, accuracy {final.train_acc:.3f} "
        f"-> {args.out} (curve: {curve_path})"
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    artifact = load_model(args.model)
    dataset = load_dataset(args.input)
    prop = PropertyName(args.property) if args.property else None
    metrics, records = evaluate_model(artifact, dataset, prop)
    if args.out:
        write_jsonl(args.out, records)
    if args.report and metrics is not None:
        write_json(args.report, metrics.to_json())
    suffix = f" -> {args.out}" if args.out else ""
    if metrics is None:
        print(f"{artifact.property.value}: no labeled requirements; "
              f"wrote {len(records)} predictions{suffix}")
    else:
        print(
            f"{artifact.property.value}: accuracy {metrics.accuracy:.4f} "
            f"precision {metrics.precision:.4f} recall {metrics.recall:.4f} "
            f"f1 {metrics.f1:.4f} mse {metrics.mse:.4f} "
            f"on {metrics.counts.total} labeled requirements{suffix}"
        )
    return 0


def cmd_crossval(args: argparse.Namespace) -> int:
    prop = PropertyName(args.property)
    dataset = load_dataset(args.input)
    mode = TaggerMode(args.tagger)
    candidate = _resolve_candidate(args, prop)
    result = cross_validate(
        dataset, prop,
        candidate.model_config(vocab_size=3),
        candidate.train_config(args.seed, args.batch_size, _clip_norm(args)),
        k=args.folds, seed=args.seed, tagger_mode=mode, jobs=args.jobs,
    )
    report_path = Path(args.report)
    result.save_json(report_path)
    for i, curve in enumerate(result.curves):
        curve.save_csv(report_path.with_name(f"{report_path.stem}-fold{i}.csv"))
    best = result.folds[result.best_fold]
    print(
        f"{prop.value}: {args.folds}-fold accuracy {result.aggregate['accuracy']:.4f} "
        f"f1 {result.aggregate['f1']:.4f} "
        f"(best fold {result.best_fold}: accuracy {best.accuracy:.4f}) -> {report_path}"
    )
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    prop = PropertyName(args.property)
    dataset = load_dataset(args.input)
    mode = TaggerMode(args.tagger)
    space = SearchSpace.load(args.space) if args.space else SearchSpace()
    report = run_search(
        dataset, prop, space,
        mode=args.mode, budget=args.budget, eval_mode=args.eval_mode,
        objective=args.objective, seed=args.seed, batch_size=args.batch_size,
        clip_norm=_clip_norm(args), tagger_mode=mode, jobs=args.jobs,
    )
    report.save_trials_csv(args.trials_out)
    print(f"{prop.value}: {report.summary()} -> {args.trials_out}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    artifact = load_model(args.model)
    if args.text is not None:
        single = Dataset("text", (Requirement("text", args.text),))
        _, (record,) = evaluate_model(artifact, single)
        verdict = "satisfied" if record["predicted"] else "violated"
        prob = record["prob_positive"]
        print(f"{artifact.property.value}: {verdict} (prob_positive {prob:.4f})")
        return 0
    if not args.out:
        raise ParameterError("predict --input requires --out for the predictions file")
    dataset = load_dataset(args.input)
    _, records = evaluate_model(artifact, dataset)
    write_jsonl(args.out, records)
    satisfied = sum(1 for r in records if r["predicted"])
    print(
        f"{artifact.property.value}: predicted {len(records)} requirements "
        f"({satisfied} satisfied) -> {args.out}"
    )
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    config = ModelConfig(
        cell=args.cell,
        vocab_size=args.vocab,
        embedding_dim=args.embedding,
        hidden_units=args.units,
        num_layers=args.layers,
        dropout_p=0.0,
    )
    report = gradient_check(
        config, seed=args.seed, tolerance=args.tol, sequence_length=args.length
    )
    print(report.summary())
    return 0 if report.passed else 1


# ------------------------------------------------------------------ parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process (2.5 ms); parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="reqqual",
        description="Classify software requirements against quality properties "
                    "with recurrent networks over part-of-speech tags.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    dataset_flags = argparse.ArgumentParser(add_help=False)  # train, crossval, search
    dataset_flags.add_argument("--input", required=True, help="dataset JSONL")
    dataset_flags.add_argument("--property", required=True, choices=_PROPERTY_CHOICES)
    dataset_flags.add_argument("--tagger", choices=_TAGGER_CHOICES, default="rules")
    dataset_flags.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("preprocess", help="encode a dataset as tag-index sequences")
    p.add_argument("--input", required=True, help="dataset JSONL")
    p.add_argument("--out", required=True, help="encoded JSONL output")
    vocab = p.add_mutually_exclusive_group(required=True)
    vocab.add_argument("--vocab-out", help="build a vocabulary and write it here")
    vocab.add_argument("--vocab-in", help="reuse an existing vocabulary JSON")
    p.add_argument("--tagger", choices=_TAGGER_CHOICES, default="rules")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("synth", help="generate a labeled synthetic dataset")
    p.add_argument("--n", type=int, required=True, help="number of requirements")
    p.add_argument("--out", required=True, help="dataset JSONL output")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rate", action="append", metavar="PROPERTY=FRACTION",
                   help="violation rate for a property (default 0.5 each)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", parents=[dataset_flags], help="train one property classifier")
    p.add_argument("--out", required=True, help="model file output")
    p.add_argument("--curve", help="loss-curve CSV (default: model path with .curve.csv)")
    p.add_argument("--val-fraction", type=float, default=0.0,
                   help="hold out this fraction for the validation-loss column")
    _add_model_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a saved model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="dataset JSONL")
    p.add_argument("--property", choices=_PROPERTY_CHOICES,
                   help="must match the model's property when given")
    p.add_argument("--out", help="per-requirement predictions JSONL")
    p.add_argument("--report", help="metrics JSON output")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("crossval", parents=[dataset_flags], help="k-fold cross-validation")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--report", required=True, help="report JSON output")
    _add_jobs_flag(p)
    _add_model_flags(p)
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("search", parents=[dataset_flags], help="hyperparameter search")
    p.add_argument("--mode", choices=["random", "exhaustive"], default="random")
    p.add_argument("--budget", type=int, help="trials to sample (random mode)")
    p.add_argument("--eval-mode", default="cv:10", help="cv:K or holdout:F")
    p.add_argument("--objective", default="accuracy",
                   choices=METRIC_NAMES)
    p.add_argument("--space", help="search-space JSON (default: full grid)")
    p.add_argument("--trials-out", default="trials.csv", help="trials CSV output")
    _add_jobs_flag(p)
    _add_batch_flags(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("predict", help="classify requirements with a saved model")
    p.add_argument("--model", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="dataset JSONL (labels optional)")
    source.add_argument("--text", help="a single requirement sentence")
    p.add_argument("--out", help="predictions JSONL (required with --input)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="verify gradients by finite differences")
    p.add_argument("--cell", choices=_CELL_CHOICES, default="gru")
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vocab", type=int, default=12)
    p.add_argument("--embedding", type=int, default=6)
    p.add_argument("--units", type=int, default=8)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--length", type=int, default=4)
    p.set_defaults(func=cmd_gradcheck)

    return parser


# every flag that names a file the command writes
_OUTPUT_FLAGS = ("out", "vocab_out", "curve", "report", "trials_out")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for dest in _OUTPUT_FLAGS:  # refuse an unwritable output path before any work
            path = getattr(args, dest, None)
            flag = "--" + dest.replace("_", "-")
            if path is not None and not Path(path).parent.is_dir():
                raise ParameterError(f"{flag}: directory {Path(path).parent} does not exist")
            if path is not None and Path(path).is_dir():
                raise ParameterError(f"{flag}: {path} is a directory")
        # one BLAS thread, so that a fixed seed writes the same bytes on any CPU count
        with blas_threads(1):
            return args.func(args)
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ReqqualError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
