"""Folds and search trials in worker processes: `jobs` changes no result.

Every fit runs through `evaluation.run_fits`; these tests compare `jobs=1`
(in this process) with `jobs=2` (a fork pool) at 1 BLAS thread, where both
must give the same bytes, and cover the pool's failure paths.
"""

import concurrent.futures
import contextlib
import io
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reqqual
from reqqual import evaluation, numcore
from reqqual.cli import main
from reqqual.corpus import PropertyName, generate_synthetic, save_dataset
from reqqual.errors import ParameterError, ReqqualError
from reqqual.numcore import blas_threads
from reqqual.search import SearchSpace, preset_candidate, run_search

SRC = str(Path(reqqual.__file__).parents[1])

# (crossval/train flags, search-space axes): a GRU with dropout, a 2-layer LSTM
MODELS = {
    "gru-dropout": (
        ["--cell", "gru", "--dropout", "0.3", "--units", "8", "--embedding", "6"],
        {"cell": ("gru",), "num_layers": (1,), "dropout": (0.0, 0.3)},
    ),
    "lstm-2-layers": (
        ["--cell", "lstm", "--layers", "2", "--units", "8", "--embedding", "6"],
        {"cell": ("lstm",), "num_layers": (1, 2), "dropout": (0.0,)},
    ),
}


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    path = tmp_path_factory.mktemp("jobs") / "data.jsonl"
    save_dataset(generate_synthetic(30, seed=11), path)
    return path


@pytest.fixture
def one_blas_thread():
    with blas_threads(1) as pinned:
        if not pinned:
            pytest.skip("this numpy's BLAS thread count cannot be set at run time")
        yield


def _main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert multiprocessing.active_children() == []  # no worker outlives the call
    return code


def _space(axes: dict) -> SearchSpace:
    return SearchSpace(**{"epochs": (1, 2), "learning_rate": (0.01,), "embedding_dim": (6,),
                          "num_units": (8,), **axes})


def test_importing_the_cli_loads_no_pool_module():
    code = ("import sys, reqqual.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("model", sorted(MODELS))
def test_crossval_report_and_fold_curves_do_not_depend_on_jobs(
    data, tmp_path, one_blas_thread, model
):
    flags, _ = MODELS[model]
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        out.mkdir()
        assert _main([
            "crossval", "--input", str(data), "--property", "singular", "--folds", "3",
            "--epochs", "2", "--seed", "8", "--report", str(out / "cv.json"), "--jobs", jobs,
            *flags,
        ]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(outputs[0]) == ["cv-fold0.csv", "cv-fold1.csv", "cv-fold2.csv", "cv.json"]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("eval_mode", ["cv:2", "holdout:0.7"])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_search_trials_do_not_depend_on_jobs(data, tmp_path, one_blas_thread, model, eval_mode):
    _, axes = MODELS[model]
    space = tmp_path / "space.json"
    _space(axes).save(space)
    tables = []
    for jobs in ("1", "2"):
        trials = tmp_path / f"trials{jobs}.csv"
        assert _main([
            "search", "--input", str(data), "--property", "singular", "--seed", "4",
            "--mode", "exhaustive", "--eval-mode", eval_mode, "--space", str(space),
            "--trials-out", str(trials), "--jobs", jobs,
        ]) == 0
        rows = trials.read_text("utf-8").splitlines()
        assert rows[0].endswith(",seconds")
        tables.append([row.rsplit(",", 1)[0] for row in rows])  # all but seconds
    assert len(tables[0]) == 1 + 4
    assert tables[0] == tables[1]


@pytest.mark.parametrize("eval_mode", ["cv:2", "holdout:0.7"])
def test_kept_search_results_do_not_depend_on_jobs(one_blas_thread, eval_mode):
    dataset = generate_synthetic(30, seed=12)
    space = _space(MODELS["lstm-2-layers"][1])

    def kept(jobs):
        report = run_search(dataset, PropertyName.SINGULAR, space, mode="exhaustive",
                            eval_mode=eval_mode, seed=6, keep_results=True, jobs=jobs)
        assert multiprocessing.active_children() == []
        results = [t.result for t in report.trials]
        if eval_mode.startswith("cv"):
            return [(r.plan.sizes(), r.folds, r.aggregate, r.train_config) for r in results]
        return [
            (r.train_size, r.test_size, r.metrics, r.train_config,
             {name: a.tobytes() for name, a in r.params.arrays.items()})
            for r in results
        ]

    serial = kept(1)
    assert len(serial) == space.size
    assert serial == kept(2)


def test_trial_seconds_add_up_its_fits(monkeypatch):
    clock = SimpleNamespace(perf_counter=iter(range(1000)).__next__)
    monkeypatch.setattr(evaluation, "time", clock)
    report = run_search(generate_synthetic(20, seed=1), PropertyName.SINGULAR,
                        _space({"cell": ("gru",), "num_layers": (1,), "dropout": (0.0,)}),
                        mode="exhaustive", eval_mode="cv:3", jobs=1)
    assert [t.seconds for t in report.trials] == [3, 3]  # 3 fits, each read 1 tick apart


def _die(*args):
    os._exit(1)


def test_a_dead_worker_exits_2_with_a_message(data, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(evaluation, "_fit_and_score", _die)  # forked workers inherit it
    code = _main([
        "crossval", "--input", str(data), "--property", "singular", "--folds", "2",
        "--epochs", "1", "--units", "2", "--embedding", "2", "--jobs", "2",
        "--report", str(tmp_path / "cv.json"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: a worker process died before its fit finished")
    assert "Traceback" not in err
    assert not (tmp_path / "cv.json").exists()


def test_a_dead_worker_raises_reqqual_error(monkeypatch):
    monkeypatch.setattr(evaluation, "_fit_and_score", _die)
    candidate = preset_candidate(PropertyName.SINGULAR)
    with pytest.raises(ReqqualError, match="worker process died"):
        evaluation.cross_validate(
            generate_synthetic(20, seed=2), PropertyName.SINGULAR,
            candidate.model_config(vocab_size=3), candidate.train_config(0), k=2, seed=0, jobs=2,
        )
    assert multiprocessing.active_children() == []


def test_huge_jobs_starts_one_worker_per_fit(data, tmp_path, monkeypatch):
    pools = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def recording_pool(max_workers, **kwargs):
        pools.append(max_workers)
        if max_workers > 2:  # never start the huge pool a broken cap would ask for
            raise AssertionError(f"asked for {max_workers} workers for 2 fits")
        return real_pool(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    assert _main([
        "crossval", "--input", str(data), "--property", "singular", "--folds", "2",
        "--epochs", "1", "--units", "2", "--embedding", "2", "--jobs", "1000000",
        "--report", str(tmp_path / "cv.json"),
    ]) == 0
    assert pools == [2]


def test_one_job_one_worker_or_no_pin_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    dataset = generate_synthetic(20, seed=3)
    candidate = preset_candidate(PropertyName.SINGULAR)
    model, train = candidate.model_config(vocab_size=3), candidate.train_config(0, 8)
    evaluation.holdout_evaluate(dataset, PropertyName.SINGULAR, model, train, 0.5, seed=1)
    evaluation.cross_validate(dataset, PropertyName.SINGULAR, model, train, k=2, seed=1, jobs=1)
    # where the BLAS thread count cannot be pinned, the default is 1 worker
    monkeypatch.setattr(numcore, "_openblas_thread_calls", lambda: None)
    evaluation.cross_validate(dataset, PropertyName.SINGULAR, model, train, k=2, seed=1)


@pytest.mark.parametrize("jobs", [0, -1, True, 1.5, "2"])
def test_library_refuses_a_bad_jobs_before_any_work(jobs, monkeypatch):
    monkeypatch.setattr(evaluation, "encode_labeled", None)  # reached only after the check
    dataset = generate_synthetic(20, seed=3)
    candidate = preset_candidate(PropertyName.SINGULAR)
    with pytest.raises(ParameterError, match="jobs must be an integer >= 1"):
        evaluation.cross_validate(dataset, PropertyName.SINGULAR, candidate.model_config(3),
                                  candidate.train_config(0), k=2, seed=0, jobs=jobs)
    with pytest.raises(ParameterError, match="jobs must be an integer >= 1"):
        run_search(dataset, PropertyName.SINGULAR, mode="random", budget=1, jobs=jobs)


@settings(max_examples=30, deadline=None)
@given(value=st.one_of(st.integers(-2, 3).map(str), st.text(max_size=3)))
def test_jobs_flag_takes_an_integer_of_at_least_1(data, tmp_path_factory, value):
    report = tmp_path_factory.mktemp("jobs-flag") / "cv.json"
    argv = ["crossval", "--input", str(data), "--property", "singular", "--folds", "2",
            "--epochs", "1", "--units", "2", "--embedding", "2", "--report", str(report),
            "--jobs", value]
    try:
        valid = int(value) >= 1
    except ValueError:
        valid = False
    with contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = _main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == (0 if valid else 2), (value, err.getvalue())
    assert report.exists() == valid


# Runs `reqqual` in a child held to the CPUs named by argv[1] ("one" or "all").
_CLI_ON_CPUS = (
    "import os, sys; from reqqual.cli import main\n"
    "if sys.argv[1] == 'one': os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
    "sys.exit(main(sys.argv[2:]))"
)


def test_train_writes_the_same_bytes_at_1_and_2_blas_threads(tmp_path):
    """Also on 1 CPU, where the split products and optimizer run without the
    helper thread: at 512 units both are above numcore's split threshold."""
    data = tmp_path / "data.jsonl"
    save_dataset(generate_synthetic(100, seed=3), data)
    assert numcore._column_cut(64, 512, 1024) is not None
    assert 40 * 512 + 6 * 512 * 512 >= numcore.SPLIT_MIN  # the parameter count, about
    models = []  # at batch 32 both counts happen to give the same bytes; at 64 they do not
    for threads, cpus in (("1", "all"), ("2", "all"), ("1", "one")):
        model = tmp_path / f"threads{threads}-{cpus}.rqm"
        done = subprocess.run(
            [sys.executable, "-c", _CLI_ON_CPUS, cpus, "train", "--input", str(data),
             "--property", "singular", "--units", "512", "--embedding", "512", "--epochs", "1",
             "--batch-size", "64", "--seed", "5", "--out", str(model)],
            env=dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        models.append(model.read_bytes())
    assert models[0] == models[1] == models[2]


_FIT_THEN_FORK = """
import json, os, threading
from reqqual import evaluation, numcore
from reqqual.corpus import PropertyName, generate_synthetic
from reqqual.nn import ModelConfig
from reqqual.search import preset_candidate
from reqqual.train import TrainConfig, fit

with numcore.blas_threads(1):
    fit([((2, 3, 4, 5, 6), 0), ((3, 4), 1)] * 4, ModelConfig("gru", 8, 512, 512),
        TrainConfig(0.01, 1, batch_size=8))
    started = any(t.name == "reqqual-split" for t in threading.enumerate())
    assert started == (len(os.sched_getaffinity(0)) >= 2), started
    dataset = generate_synthetic(20, seed=2)
    candidate = preset_candidate(PropertyName.SINGULAR)
    reports = [
        json.dumps(evaluation.cross_validate(
            dataset, PropertyName.SINGULAR, candidate.model_config(vocab_size=3),
            candidate.train_config(0, 2), k=2, seed=0, jobs=jobs,
        ).to_json())
        for jobs in (2, 1)
    ]
    assert reports[0] == reports[1]
    pid = os.fork()  # a child forked by hand starts a helper of its own
    if pid == 0:
        os._exit(0 if numcore.run_split(lambda part: part, [0, 1]) == [0, 1] else 1)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
print("ok")
"""


def test_a_process_forked_after_the_helper_thread_started_finishes():
    done = subprocess.run([sys.executable, "-c", _FIT_THEN_FORK],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
