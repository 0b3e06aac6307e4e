"""The benchmark's workloads, each a set-up plus a repeatable timed pass.

Every workload calls reqqual only through its public modules, looking each
function up on its module at call time so that `benchtrace` can wrap it.
A pass returns its outputs (compared across passes and between the traced
and untraced runs), the operations it attempted and failed, and the counts
and times the end-to-end metrics are computed from.  The constructors'
defaults are the benchmark's sizes; TINY sizes exist for its own tests.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from reqqual import artifact, cli, corpus, evaluation, search
from reqqual.corpus import PropertyName
from reqqual.nn import CellType
from reqqual.textpipe import TaggerMode

clock = time.perf_counter


@dataclass
class SetupResult:
    train_passes: int = 0  # training sequence-passes run during set-up
    train_s: float = 0.0


@dataclass
class PassResult:
    outputs: object
    attempted: int
    failed: int
    accuracy: float
    train_passes: int  # sequences x epochs through forward + backward
    train_s: float
    classified: int  # requirements classified by the pass's bulk classification
    classify_s: float
    predict_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    """Run `reqqual` in-process; returns its exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class CvSingular:
    """10-fold cross_validate at the singular preset (acceptance criterion 5)."""

    name = "cv-singular"

    def __init__(self, seed, workdir, n=1000, folds=10, epochs=1, shape=None,
                 accuracy_floor=0.95):
        self.seed, self.n, self.folds, self.floor = seed, n, folds, accuracy_floor
        self.candidate = dataclasses.replace(
            search.preset_candidate(PropertyName.SINGULAR), epochs=epochs, **(shape or {})
        )
        self.ops_per_pass = folds

    def setup(self) -> SetupResult:
        self.dataset = corpus.generate_synthetic(self.n, self.seed)
        return SetupResult()

    def run_pass(self) -> PassResult:
        started = clock()
        result = evaluation.cross_validate(
            self.dataset, PropertyName.SINGULAR,
            self.candidate.model_config(vocab_size=3),
            self.candidate.train_config(self.seed),
            k=self.folds, seed=self.seed,
        )
        elapsed = clock() - started
        sizes = result.plan.sizes()
        accuracy = result.aggregate["accuracy"]
        return PassResult(
            outputs=json.dumps(result.to_json(), sort_keys=True),
            attempted=self.folds,
            failed=self.folds if accuracy < self.floor else 0,
            accuracy=accuracy,
            train_passes=sum(sum(sizes) - s for s in sizes) * self.candidate.epochs,
            train_s=elapsed,
            classified=sum(sizes),
            classify_s=elapsed,
        )


class AppropriateHoldout:
    """Holdout fit at the appropriate preset shape, a .rqm round trip, then evaluate."""

    name = "appropriate-holdout"

    def __init__(self, seed, workdir, n=160, train_fraction=0.8, epochs=1, shape=None):
        self.seed, self.n, self.fraction = seed, n, train_fraction
        self.candidate = dataclasses.replace(
            search.preset_candidate(PropertyName.APPROPRIATE), epochs=epochs, **(shape or {})
        )
        self.model_path = Path(workdir) / "appropriate.rqm"
        self.ops_per_pass = 3  # fit, save/load, evaluate

    def setup(self) -> SetupResult:
        self.dataset = corpus.generate_synthetic(self.n, self.seed)
        _, test_set = corpus.holdout_split(
            self.dataset, PropertyName.APPROPRIATE, self.fraction, self.seed
        )
        self.test_ids = {r.id for r in test_set.requirements}
        return SetupResult()

    def run_pass(self) -> PassResult:
        prop = PropertyName.APPROPRIATE
        started = clock()
        result = evaluation.holdout_evaluate(
            self.dataset, prop, self.candidate.model_config(vocab_size=3),
            self.candidate.train_config(self.seed), self.fraction, self.seed,
        )
        train_s = clock() - started
        model = artifact.ModelArtifact(
            property=prop, model_config=result.model_config, vocabulary=result.vocabulary,
            params=result.params, tagger_mode=TaggerMode.RULES, seed=self.seed,
        )
        artifact.save_model(model, self.model_path)
        loaded = artifact.load_model(self.model_path)
        saved = {name: a.tobytes() for name, a in model.params.arrays.items()}
        exact = {name: a.tobytes() for name, a in loaded.params.arrays.items()} == saved
        # The reloaded model classifies the whole dataset: the longest of 160
        # requirements varies less by seed than the longest of the 32 test ones.
        started = clock()
        _, records = evaluation.evaluate_model(loaded, self.dataset, prop)
        classify_s = clock() - started
        test = [r for r in records if r["id"] in self.test_ids]
        test_accuracy = sum(r["predicted"] == r["label"] for r in test) / len(test)
        reproduced = len(records) == len(self.dataset) and test_accuracy == result.metrics.accuracy
        digest = hashlib.sha256(b"".join(saved[k] for k in sorted(saved))).hexdigest()
        return PassResult(
            outputs=(json.dumps(result.metrics.to_json(), sort_keys=True), digest, records),
            attempted=self.ops_per_pass,
            failed=(not exact) + (not reproduced),
            accuracy=result.metrics.accuracy,
            train_passes=result.train_size * self.candidate.epochs,
            train_s=train_s,
            classified=len(records),
            classify_s=classify_s,
        )


class EvaluateBulk:
    """`reqqual evaluate` over a large JSONL, then closed-loop `reqqual predict --text`."""

    name = "evaluate-bulk"

    def __init__(self, seed, workdir, n=10000, n_train=1000, predicts=1000,
                 epochs=1, model_flags=()):
        self.seed, self.n, self.n_train, self.predicts = seed, n, n_train, predicts
        self.epochs, self.model_flags = epochs, list(model_flags)
        workdir = Path(workdir)
        self.data_path = workdir / "bulk.jsonl"
        self.train_path = workdir / "train.jsonl"
        self.model_path = workdir / "singular.rqm"
        self.predictions_path = workdir / "predictions.jsonl"
        self.report_path = workdir / "metrics.json"
        self.ops_per_pass = 1 + predicts  # one evaluate, then the predicts

    def setup(self) -> SetupResult:
        bulk = corpus.generate_synthetic(self.n, self.seed)
        corpus.save_dataset(bulk, self.data_path)
        # the served model trains on its own draw, not on the evaluated set
        corpus.save_dataset(corpus.generate_synthetic(self.n_train, self.seed + 1),
                            self.train_path)
        started = clock()
        code, _ = _quiet_cli([
            "train", "--input", str(self.train_path), "--property", "singular",
            "--preset", "paper", "--epochs", str(self.epochs), "--seed", str(self.seed),
            "--out", str(self.model_path), *self.model_flags,
        ])
        train_s = clock() - started
        if code != 0:
            raise RuntimeError(f"reqqual train exited with {code}")
        self.requirements = [(r.id, r.text) for r in bulk.requirements]
        return SetupResult(train_passes=self.n_train * self.epochs, train_s=train_s)

    def run_pass(self) -> PassResult:
        started = clock()
        code, _ = _quiet_cli([
            "evaluate", "--model", str(self.model_path), "--input", str(self.data_path),
            "--out", str(self.predictions_path), "--report", str(self.report_path),
        ])
        classify_s = clock() - started
        predictions = self.predictions_path.read_bytes()
        records = [json.loads(line) for line in predictions.splitlines()]
        evaluated = code == 0 and [r["id"] for r in records] == [i for i, _ in self.requirements]
        report = json.loads(self.report_path.read_text("utf-8"))
        failed = 0 if evaluated else 1

        latencies, verdicts = [], []
        for (_, text), record in zip(self.requirements[: self.predicts], records):
            started = clock()
            code, out = _quiet_cli(["predict", "--model", str(self.model_path), "--text", text])
            latencies.append(clock() - started)
            verdicts.append(out)
            # "<property>: satisfied|violated (prob_positive ...)" must match bulk evaluate
            expected = "satisfied" if record["predicted"] else "violated"
            if code != 0 or out.split()[1:2] != [expected]:
                failed += 1
        failed += self.predicts - len(verdicts)  # predicts never reached
        return PassResult(
            outputs=(hashlib.sha256(predictions).hexdigest(), report, verdicts),
            attempted=self.ops_per_pass,
            failed=failed,
            accuracy=report["accuracy"],
            train_passes=0,
            train_s=0.0,
            classified=len(records),
            classify_s=classify_s,
            predict_s=latencies,
        )


class SearchLstmGru:
    """Exhaustive run_search over {LSTM, GRU} x layers {1, 2} x dropout {0, 0.3}."""

    name = "search-lstm-gru"

    def __init__(self, seed, workdir, n=1000, epochs=1, embedding=64, units=64):
        self.seed, self.n, self.epochs = seed, n, epochs
        self.space = search.SearchSpace(
            cell=(CellType.LSTM, CellType.GRU), epochs=(epochs,), learning_rate=(0.01,),
            embedding_dim=(embedding,), num_layers=(1, 2), num_units=(units,),
            dropout=(0.0, 0.3),
        )
        self.ops_per_pass = self.space.size

    def setup(self) -> SetupResult:
        self.dataset = corpus.generate_synthetic(self.n, self.seed)
        return SetupResult()

    def run_pass(self) -> PassResult:
        started = clock()
        report = search.run_search(
            self.dataset, PropertyName.SINGULAR, self.space, mode="exhaustive",
            eval_mode="holdout:0.8", objective="mse", seed=self.seed, keep_results=True,
        )
        elapsed = clock() - started
        objectives = [t.objective for t in report.trials]
        best = objectives.index(max(objectives))
        argmax = report.best_index == best and len(report.trials) == self.space.size
        return PassResult(
            outputs=(
                [(t.index, sorted(t.scores.items()), t.objective) for t in report.trials],
                report.best_index,
            ),
            attempted=self.ops_per_pass,
            failed=0 if argmax else self.ops_per_pass,
            accuracy=report.best.scores["accuracy"],
            train_passes=sum(t.result.train_size for t in report.trials) * self.epochs,
            train_s=elapsed,
            classified=sum(t.result.test_size for t in report.trials),
            classify_s=elapsed,
        )


WORKLOADS = {w.name: w for w in (CvSingular, AppropriateHoldout, EvaluateBulk, SearchLstmGru)}

_SMALL_SHAPE = {"embedding_dim": 8, "num_units": 8}

# sizes for the benchmark's own tests: every code path, a fraction of a second
TINY = {
    "cv-singular": {"n": 40, "folds": 2, "shape": _SMALL_SHAPE, "accuracy_floor": 0.0},
    "appropriate-holdout": {"n": 40, "shape": _SMALL_SHAPE},
    "evaluate-bulk": {"n": 30, "n_train": 40, "predicts": 5,
                      "model_flags": ("--embedding", "8", "--units", "8")},
    "search-lstm-gru": {"n": 40, "embedding": 8, "units": 8},
}


def make(name: str, seed: int, workdir, tiny: bool = False):
    return WORKLOADS[name](seed, workdir, **(TINY[name] if tiny else {}))
