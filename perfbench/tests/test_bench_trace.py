"""Span arithmetic and wrapper installation of the benchmark's tracer."""

import importlib

import pytest

import benchtrace


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_nested_calls():
    # fit(0..10) -> adam(1..6) -> clip(2..5); fit -> adam(7..9)
    tracer = benchtrace.Tracer(clock=_fake_clock([0, 1, 2, 5, 6, 7, 9, 10]))
    clip = tracer.wrap("train.clip_gradients", lambda: None)

    def adam_body(nested):
        if nested:
            clip()

    adam = tracer.wrap("train.adam_update", adam_body)
    fit = tracer.wrap("train.fit", lambda: (adam(True), adam(False)))
    fit()

    assert [s.name for s in tracer.spans] == [
        "train.fit", "train.adam_update", "train.clip_gradients", "train.adam_update"
    ]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    assert benchtrace.self_times(tracer.spans) == [3, 2, 3, 2]
    metrics = benchtrace.layer_metrics(tracer.spans)
    assert metrics["train.fit.s"] == 10
    assert metrics["train.fit.self_s"] == 3
    assert metrics["train.adam_update.s"] == 7
    assert metrics["train.adam_update.calls"] == 2
    assert metrics["train.clip_gradients.s"] == 3


def test_select_renumbers_parents_within_phases():
    tracer = benchtrace.Tracer(clock=_fake_clock(range(100)))
    inner = tracer.wrap("nn.backward_batch", lambda: None)
    outer = tracer.wrap("train.fit", inner)
    tracer.phase = "setup"
    outer()
    tracer.phase = "pass-0"
    outer()
    picked = benchtrace.select(tracer.spans, ["pass-0"])
    assert [(s.name, s.parent) for s in picked] == [("train.fit", -1), ("nn.backward_batch", 0)]


def _site_attributes():
    out = {}
    for name, sites in benchtrace.PROBES.items():
        func = name.split(".")[1]
        for site in sites:
            module = importlib.import_module(f"reqqual.{site}")
            out[(site, func)] = getattr(module, func, None)
    return out


def test_wrappers_are_installed_and_restored():
    before = _site_attributes()
    tracer = benchtrace.Tracer()
    with tracer.installed() as skipped:
        during = _site_attributes()
    wrapped = [key for key in before if during[key] is not before[key]]
    assert wrapped and len(wrapped) + len(skipped) >= len(before)
    assert all(during[key].__wrapped__ is before[key] for key in wrapped)
    after = _site_attributes()
    assert all(after[key] is before[key] for key in before)


def test_wrappers_are_restored_after_an_error():
    before = _site_attributes()
    with pytest.raises(KeyError):
        with benchtrace.Tracer().installed():
            raise KeyError("boom")
    assert all(_site_attributes()[key] is before[key] for key in before)
