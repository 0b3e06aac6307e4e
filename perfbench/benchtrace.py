"""Spans around reqqual's public functions, recorded from outside the package.

A `Tracer` replaces each probed function with a wrapper at every module
attribute through which a caller looks it up (``reqqual.train.forward_batch``,
``reqqual.cli.load_model``, ...), records one span per call (name, start,
end, parent span, phase, counts) and puts the original functions back when
the `installed()` block ends.  `layer_metrics` turns a list of spans into
the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from typing import Callable, Iterable

# span name "<module>.<function>" -> modules of reqqual whose attribute of
# that name callers use.  A site that no longer holds the original function
# is skipped and reported, so a refactor degrades a metric to 0 instead of
# breaking the traced run.
PROBES: dict[str, tuple[str, ...]] = {
    "corpus.generate_synthetic": ("corpus",),
    "corpus.save_dataset": ("corpus",),
    "corpus.load_dataset": ("cli",),
    "corpus.make_folds": ("evaluation",),
    "corpus.holdout_split": ("corpus", "evaluation", "cli"),
    "textpipe.tag_text": ("textpipe", "evaluation", "cli"),
    "textpipe.encode": ("textpipe", "evaluation", "cli"),
    "textpipe.encode_text": ("cli",),
    "textpipe.build_vocabulary": ("evaluation", "cli"),
    "numcore.sigmoid": ("nn",),
    "numcore.tanh": ("nn",),
    "numcore.softmax": ("nn",),
    "nn.forward_batch": ("train", "evaluation"),
    "nn.backward_batch": ("train",),
    "nn.forward": ("train", "cli"),
    "train.fit": ("evaluation", "cli"),
    "train.adam_update": ("train",),
    "train.clip_gradients": ("train",),
    "evaluation.cross_validate": ("evaluation", "search", "cli"),
    "evaluation.holdout_evaluate": ("evaluation", "search"),
    "evaluation.evaluate_model": ("evaluation", "cli"),
    "evaluation.compute_metrics": ("evaluation",),
    "search.run_search": ("search", "cli"),
    "artifact.save_model": ("artifact", "cli"),
    "artifact.load_model": ("artifact", "cli"),
    "cli.main": ("cli",),
}


def _arg(args, kwargs, position: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else default


def _batch_counts(args, kwargs, result) -> dict:
    lengths = [len(getattr(s, "ids", s)) for s in _arg(args, kwargs, 0, "sequences")]
    mode = _arg(args, kwargs, 2, "mode", "infer")
    return {
        "train": str(getattr(mode, "value", mode)).lower() == "train",
        "rows": len(lengths),
        "tokens": sum(lengths),
        "slots": len(lengths) * max(lengths),
    }


def _tag_counts(args, kwargs, result) -> dict:
    return {"tokens": len(result), "text": hash(_arg(args, kwargs, 0, "text"))}


def _saved_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _trial_count(args, kwargs, result) -> dict:
    return {"trials": len(result.trials)}


COUNTERS: dict[str, Callable] = {
    "nn.forward_batch": _batch_counts,
    "textpipe.tag_text": _tag_counts,
    "artifact.save_model": _saved_bytes,
    "search.run_search": _trial_count,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase", "counts")

    def __init__(self, name: str, parent: int, phase: str):
        self.name = name
        self.parent = parent
        self.phase = phase
        self.start = self.end = 0.0
        self.counts: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "phase": self.phase, "counts": self.counts,
        }


class Tracer:
    """Records spans in memory; `phase` labels the spans opened while it is set."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self.phase = ""
        self._clock = clock
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, counter: Callable | None = None) -> Callable:
        spans, open_, clock = self.spans, self._open, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, open_[-1] if open_ else -1, self.phase)
            open_.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                open_.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install wrappers for PROBES; yields the sites that could not be wrapped."""
        replaced: list[tuple[object, str, Callable]] = []
        skipped: list[str] = []
        try:
            for name, sites in PROBES.items():
                home, func = name.split(".")
                original = getattr(importlib.import_module(f"reqqual.{home}"), func, None)
                if original is None:
                    skipped.append(name)
                    continue
                wrapper = self.wrap(name, original, COUNTERS.get(name))
                for site in sites:
                    module = importlib.import_module(f"reqqual.{site}")
                    if getattr(module, func, None) is original:
                        replaced.append((module, func, original))
                        setattr(module, func, wrapper)
                    else:
                        skipped.append(f"{site}.{func}")
            yield skipped
        finally:
            for module, func, original in reversed(replaced):
                setattr(module, func, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def select(spans: list[Span], phases: Iterable[str]) -> list[Span]:
    """The spans of the given phases, with parent indices renumbered."""
    wanted = set(phases)
    index = {}
    out = []
    for i, span in enumerate(spans):
        if span.phase in wanted:
            copy = Span(span.name, index.get(span.parent, -1), span.phase)
            copy.start, copy.end, copy.counts = span.start, span.end, span.counts
            index[i] = len(out)
            out.append(copy)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer busy time, self time, counts and ratios over `spans`."""
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, self_s in zip(spans, self_times(spans)):
        busy[span.name] = busy.get(span.name, 0.0) + span.duration
        own[span.name] = own.get(span.name, 0.0) + self_s
        calls[span.name] = calls.get(span.name, 0) + 1

    def s(name):
        return busy.get(name, 0.0)

    def count(name):
        return float(calls.get(name, 0))

    def ratio(num, den):
        return num / den if den else 0.0

    batches = [sp for sp in spans if sp.name == "nn.forward_batch"]
    train_fwd = sum(sp.duration for sp in batches if sp.counts["train"])
    tags = [sp for sp in spans if sp.name == "textpipe.tag_text"]
    saved = sum(sp.counts["bytes"] for sp in spans if sp.name == "artifact.save_model")
    return {
        "nn.forward_batch.train_s": train_fwd,
        "nn.forward_batch.infer_s": s("nn.forward_batch") - train_fwd,
        "nn.forward_batch.calls": count("nn.forward_batch"),
        "nn.backward_batch.s": s("nn.backward_batch"),
        "nn.backward_batch.calls": count("nn.backward_batch"),
        "nn.forward.s": s("nn.forward"),
        "nn.forward.calls": count("nn.forward"),
        "nn.ms_per_train_step": 1e3 * ratio(
            train_fwd + s("nn.backward_batch"), count("nn.backward_batch")
        ),
        "nn.max_batch_rows": float(max((sp.counts["rows"] for sp in batches), default=0)),
        "nn.pad_efficiency": ratio(
            sum(sp.counts["tokens"] for sp in batches),
            sum(sp.counts["slots"] for sp in batches),
        ),
        "numcore.sigmoid.s": s("numcore.sigmoid"),
        "numcore.sigmoid.calls": count("numcore.sigmoid"),
        "numcore.tanh.s": s("numcore.tanh"),
        "numcore.softmax.s": s("numcore.softmax"),
        "train.fit.s": s("train.fit"),
        "train.fit.self_s": own.get("train.fit", 0.0),
        "train.adam_update.s": s("train.adam_update"),
        "train.adam_update.calls": count("train.adam_update"),
        "train.clip_gradients.s": s("train.clip_gradients"),
        "evaluation.cross_validate.self_s": own.get("evaluation.cross_validate", 0.0),
        "evaluation.holdout_evaluate.self_s": own.get("evaluation.holdout_evaluate", 0.0),
        "evaluation.evaluate_model.self_s": own.get("evaluation.evaluate_model", 0.0),
        "evaluation.compute_metrics.s": s("evaluation.compute_metrics"),
        "textpipe.tag_text.s": s("textpipe.tag_text"),
        "textpipe.tag_text.calls": count("textpipe.tag_text"),
        "textpipe.encode.s": s("textpipe.encode"),
        "textpipe.build_vocabulary.s": s("textpipe.build_vocabulary"),
        "textpipe.tokens_per_s": ratio(
            sum(sp.counts["tokens"] for sp in tags), s("textpipe.tag_text")
        ),
        "textpipe.retag_ratio": ratio(len(tags), len({sp.counts["text"] for sp in tags})),
        "search.run_search.self_s": own.get("search.run_search", 0.0),
        "search.trials": float(
            sum(sp.counts["trials"] for sp in spans if sp.name == "search.run_search")
        ),
        "artifact.save_model.s": s("artifact.save_model"),
        "artifact.save_model.mb_per_s": ratio(saved / 1e6, s("artifact.save_model")),
        "artifact.load_model.s": s("artifact.load_model"),
        "artifact.load_model.calls": count("artifact.load_model"),
        "cli.main.self_s": own.get("cli.main", 0.0),
        "corpus.generate_synthetic.s": s("corpus.generate_synthetic"),
        "corpus.save_dataset.s": s("corpus.save_dataset"),
        "corpus.load_dataset.s": s("corpus.load_dataset"),
        "corpus.make_folds.s": s("corpus.make_folds"),
    }
