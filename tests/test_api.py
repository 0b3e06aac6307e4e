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
