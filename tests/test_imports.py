"""Import surface: every exported or re-exported name resolves, so deleting
a public name cannot leave a dangling export behind."""

import ast
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import onelambda

MODULES = sorted(m.name for m in pkgutil.iter_modules(onelambda.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"onelambda.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_package_imports_resolve():
    # each name the package __init__ imports from a submodule is bound on
    # the package and exported by that submodule
    tree = ast.parse(Path(onelambda.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"onelambda.{node.module}")
        for alias in node.names:
            assert hasattr(onelambda, alias.asname or alias.name), alias.name
            assert alias.name in module.__all__, (node.module, alias.name)


def test_cli_import_loads_no_process_pool():
    # the executor module, and with it multiprocessing, loads when a pool starts
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import onelambda.cli; "
              "print('multiprocessing' in sys.modules)")
    src = str(Path(onelambda.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script, src], capture_output=True, text=True,
                         timeout=120, check=True).stdout
    assert out.split() == ["False"]


def benchmark_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("tracing").Tracer()


def test_benchmark_tracer_names_resolve(monkeypatch):
    # the benchmark's tracer wraps program names by attribute; entering it
    # fails if one is gone, and leaving it must restore every original
    tracer = benchmark_tracer(monkeypatch)
    cli = importlib.import_module("onelambda.cli")
    with tracer.installed():
        patched = list(tracer._patched)
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
    assert {attr for owner, attr, _ in patched if owner is cli} >= {
        "main", "run", "drift_grid_check", "check_transition_bounds"}
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)


def test_benchmark_tracer_reads_the_check_reports(monkeypatch, tmp_path, capsys):
    # the tracer reads each check report's attributes; renaming one fails
    # here, not first in the benchmark
    tracer = benchmark_tracer(monkeypatch)
    cli = importlib.import_module("onelambda.cli")
    summaries = {}
    with tracer.installed():
        for span, argv in (("oracle.bounds", ["bounds-check", "--n", "20", "--lambdas", "1,5"]),
                           ("oracle.drift", ["drift-check", "--n", "30"])):
            assert cli.main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
            summaries[span] = json.loads(capsys.readouterr().out)
    attrs = {s.name: s.attrs for s in tracer.spans if s.name in summaries}
    assert attrs == {
        "oracle.bounds": {k: summaries["oracle.bounds"][k] for k in ("states", "checks")},
        "oracle.drift": {"states": summaries["oracle.drift"]["states"]},
    }
