"""Package surface: the advertised API resolves, and the version and console
script agree with the packaged facts.

The packaged facts come from ``pyproject.toml`` at the repository root, plus
the installed ``reqqual`` distribution's metadata when there is one. Every
source that is present is checked, so the tests run from source without an
install and a stale install still fails.
"""

import ast
import sys
from importlib import metadata
from pathlib import Path

import pytest

import reqqual
import reqqual.cli
from reqqual import cli, evaluation, nn, numcore, textpipe

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _installed_distribution():
    try:
        return metadata.distribution("reqqual")
    except metadata.PackageNotFoundError:
        return None


def _load_pyproject(dist):
    """The parsed ``pyproject.toml``, or None when it cannot be read.

    Python 3.10 has no ``tomllib``; ``tomli`` stands in for it there. With
    neither and no installed distribution there is nothing to check, so the
    test is skipped on the missing ``tomli``.
    """
    if not PYPROJECT.is_file():
        return None
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        try:
            import tomli as tomllib
        except ImportError:
            if dist is not None:
                return None
            tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as f:
        return tomllib.load(f)


def _packaged_facts():
    """``([project] table or None, installed distribution or None)``; never both None."""
    dist = _installed_distribution()
    pyproject = _load_pyproject(dist)
    if pyproject is None and dist is None:
        pytest.fail(
            f"nothing to check against: no {PYPROJECT} and no installed "
            "'reqqual' distribution in importlib.metadata"
        )
    project = pyproject["project"] if pyproject is not None else None
    return project, dist


def test_all_names_resolve():
    for name in reqqual.__all__:
        assert getattr(reqqual, name, None) is not None, name


def test_all_lists_exactly_the_package_imports():
    """__all__ restates the imports of __init__.py; the two lists must not drift."""
    tree = ast.parse(Path(reqqual.__file__).read_text("utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(reqqual.__all__) == sorted(imported + ["__version__"])


@pytest.mark.parametrize("module, name, owner", [
    (evaluation, "tag_text", textpipe),
    (evaluation, "encode", textpipe),
    (cli, "tag_text", textpipe),
    (cli, "encode", textpipe),
    (nn, "sigmoid", numcore),
    (nn, "tanh", numcore),
])
def test_benchmark_probe_sites_are_module_globals(module, name, owner):
    """perfbench/benchtrace.py times these calls by replacing the function at the
    caller's module attribute; a call that bypasses it reads 0 in a per-layer metric."""
    assert getattr(module, name, None) is getattr(owner, name)


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_time_loop_calls_numcore_through_nn_globals(monkeypatch, cell):
    calls = {"sigmoid": 0, "tanh": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(nn, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(nn, name, counted)
    config = nn.ModelConfig(cell=cell, vocab_size=5, embedding_dim=3, hidden_units=4)
    nn.forward_batch([(2, 3, 4), (2, 3)], nn.ParameterSet.initialize(config, numcore.Rng(0)))
    assert calls["sigmoid"] >= 3 and calls["tanh"] >= 3  # at least once per time step


def test_version_matches_distribution():
    project, dist = _packaged_facts()
    if project is not None:
        assert reqqual.__version__ == project["version"]
    if dist is not None:
        assert reqqual.__version__ == metadata.version("reqqual")


def test_console_script_registered():
    project, dist = _packaged_facts()
    if project is not None:
        value = project["scripts"]["reqqual"]
        assert value == "reqqual.cli:main"
        script = metadata.EntryPoint(name="reqqual", value=value, group="console_scripts")
        assert script.load() is reqqual.cli.main
    if dist is not None:
        entries = metadata.entry_points(group="console_scripts")
        (script,) = [e for e in entries if e.name == "reqqual"]
        assert script.value == "reqqual.cli:main"
