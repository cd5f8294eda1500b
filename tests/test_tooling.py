"""The project's pytest configuration, as a separate pytest run applies it."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_hypothesis_example_is_reported(tmp_path):
    # warnings are errors, and hypothesis's failure report imports modules
    # that warn on import: the report must still show the example, and the
    # session go on to the next test
    pytest.importorskip("hypothesis")
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "Falsifying example" in run.stdout


def test_tracer_targets_resolve(monkeypatch):
    # bench/tracer.py names what it wraps by module and attribute path; a
    # refactor that moves one must fail here, not in a benchmark run
    import importlib
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)     # its dataclasses look it up
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, path, _, _ in tracer.TARGETS:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, path)


def test_skipped_imports_are_test_dependencies():
    # a module that a test skips without is one that `pip install .[test]`
    # installs, or the skip goes unnoticed on a fresh install
    tomllib = pytest.importorskip("tomllib")
    extra = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"][
        "optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in extra}
    skipped = {name.split(".")[0].lower()
               for path in (ROOT / "tests").glob("*.py")
               for name in re.findall(r"importorskip\(\s*[\"']([\w.]+)[\"']", path.read_text())}
    skipped -= set(sys.stdlib_module_names)
    assert {"hypothesis", "mpmath"} <= skipped
    assert skipped <= declared, skipped - declared


def test_runtime_needs_only_numpy():
    # numpy is the one runtime dependency: every import of the package,
    # also one inside a function, is of the standard library, numpy or the
    # package itself, and pyproject.toml declares numpy alone
    tomllib = pytest.importorskip("tomllib")
    roots = set()
    for path in (ROOT / "src" / "stokes2p").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots.add(node.module.split(".")[0])
    assert "numpy" in roots
    assert roots - set(sys.stdlib_module_names) <= {"numpy", "stokes2p"}, roots
    dependencies = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in dependencies] == ["numpy"]


def test_private_names_in_the_docs_resolve():
    # a docstring, comment or README line that names a private attribute
    # (a dotted name with a part that starts with "_", ``double-backticked``
    # in the sources, `backticked` in README.md) names one that exists, in a
    # module of the package or on one of its classes: a refactor that
    # removes it must fail here, not leave the docs naming it
    import importlib
    import pkgutil

    import stokes2p

    modules = {"stokes2p": stokes2p}
    for info in pkgutil.iter_modules(stokes2p.__path__):
        modules[info.name] = importlib.import_module(f"stokes2p.{info.name}")
    dotted = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")

    def resolves(name):
        parts = name.split(".")
        routes = [(modules[parts[0]], parts[1:])] if parts[0] in modules else []
        for owner, rest in routes + [(module, parts) for module in modules.values()]:
            try:
                for part in rest:
                    owner = getattr(owner, part)
            except AttributeError:
                continue
            return True
        return False

    named = [(path.name, name) for path in sorted((ROOT / "src" / "stokes2p").glob("*.py"))
             for name in re.findall(r"``([^`]+)``", path.read_text())]
    named += [("README.md", name)
              for name in re.findall(r"`([^`]+)`", (ROOT / "README.md").read_text())]
    private = [(where, name) for where, name in named if dotted.fullmatch(name)
               and any(part.startswith("_") for part in name.split("."))]
    assert len(private) > 50
    assert [(where, name) for where, name in private if not resolves(name)] == []
