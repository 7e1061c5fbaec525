"""Public-API hygiene: exports resolve, docstrings exist, version sane."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.net",
    "repro.openflow",
    "repro.datastore",
    "repro.controllers",
    "repro.core",
    "repro.policy",
    "repro.faults",
    "repro.workloads",
    "repro.harness",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports_and_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", [p for p in PACKAGES if p != "repro"])
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{name} exports nothing"
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


@pytest.mark.parametrize("name", [p for p in PACKAGES if p != "repro"])
def test_exported_classes_and_functions_documented(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        obj = getattr(module, symbol)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{name}.{symbol} lacks a docstring"


def test_repro_public_exports_resolve_lazily():
    for symbol in ("Jury", "JuryConfig", "JuryDeployment", "Validator",
                   "ValidationPipeline", "Response", "Alarm", "AlarmReason",
                   "ValidationResult", "Tracer", "MetricsRegistry"):
        assert symbol in repro.__all__
        obj = getattr(repro, symbol)
        assert obj is not None, f"repro.{symbol} resolved to None"
        if inspect.isclass(obj):
            assert obj.__doc__, f"repro.{symbol} lacks a docstring"
    assert "Jury" in dir(repro)
    with pytest.raises(AttributeError):
        repro.not_an_export


def test_version_metadata():
    assert repro.__version__ == "1.0.0"
    assert "DSN 2016" in repro.__paper__


def test_submodules_have_docstrings():
    for name in ("repro.core.validator", "repro.core.consensus",
                 "repro.core.module", "repro.core.replicator",
                 "repro.controllers.base", "repro.datastore.store",
                 "repro.net.switch", "repro.openflow.match",
                 "repro.policy.engine", "repro.workloads.traffic",
                 "repro.harness.experiment", "repro.cli",
                 "repro.openflow.wire"):
        module = importlib.import_module(name)
        assert module.__doc__ and len(module.__doc__) > 40, name


# ----------------------------------------------------------------------
# Names only tests call
# ----------------------------------------------------------------------

REPO = Path(__file__).resolve().parents[1]
#: Trees whose code counts as reaching a name (``src/`` is walked too).
READERS = ("bench", "benchmarks", "examples")

#: Functions and methods under ``src/repro/`` that nothing outside
#: ``tests/`` mentions, each with the reason it stays.
ONLY_TESTS_CALL = {
    "stage_counts": "Tracer.stage_counts is documented in docs/observability.md",
    "explanation_for": "AlarmForensics.explanation_for is documented in "
                       "docs/architecture.md",
    "detection_times": "JuryDeployment.detection_times is documented in "
                       "docs/pipeline.md",
    "run_combination": "EXPERIMENTS.md cites it for §VII-A1's fault "
                       "combinations",
    "analyze_source": "Analyzer test seam: analyze a source string",
    "index_paths": "Analyzer test seam: build the cross-module index",
    "lint_builtin_policies": "the built-in policy sets' lint gate "
                             "(tests/test_policy_lint.py, named in CI)",
    "fail_link": "injects the link failures the robustness tests drive",
    "restore_link": "undoes fail_link in the robustness tests",
    "remove_node": "injects the datastore node loss the robustness tests "
                   "drive",
    "proxy_of": "reaches a switch's proxy for the robustness tests' failures",
    "installed_flow_canonicals": "the switch/store audit (ROADMAP item 5) "
                                 "reads it",
    "synthetic_validation_workload": "the seeded response workload five "
                                     "suites share",
    "ordered_results": "goes with ValidationPipeline (ROADMAP item 1)",
    "build_experiment": "the removed keyword seam's stub: it raises naming "
                        "JuryConfig",
    "validate_hierarchy": "the raising twin of hierarchy_violations, and the "
                          "one raiser of repro.errors.MatchFieldError",
    "decode_all": "the stream half of the wire codec, whose framing the "
                  "round-trip tests pin",
}


def _mentions(tree):
    """``(name, line)`` for every name, attribute and identifier-shaped
    string in ``tree``, except the strings of an ``__all__`` list (an
    export is not a use)."""
    exports = set()
    for node in ast.walk(tree):
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        if any(isinstance(target, ast.Name) and target.id == "__all__"
               for target in targets):
            exports.update(ast.walk(node))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and node not in exports):
            yield node.value, node.lineno


def unreached_names(root=REPO):
    """``{name: "path:line"}`` of each function, method or undecorated
    top-level class defined under ``src/repro/`` that no code in ``src/``
    or :data:`READERS` mentions outside its own body. Dunder methods are
    called implicitly and are skipped; a decorator registers its class, so
    a decorated class counts as reached."""
    uses, defs = {}, []
    for tree_root in ("src/repro",) + READERS:
        for path in sorted((root / tree_root).rglob("*.py")):
            where = str(path.relative_to(root))
            tree = ast.parse(path.read_text(encoding="utf-8"), where)
            for name, line in _mentions(tree):
                uses.setdefault(name, []).append((where, line))
            if tree_root != "src/repro":
                continue
            defs.extend(
                (node.name, where, node.lineno, node.end_lineno)
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (node.name.startswith("__")
                         and node.name.endswith("__")))
            defs.extend(
                (node.name, where, node.lineno, node.end_lineno)
                for node in tree.body
                if isinstance(node, ast.ClassDef) and not node.decorator_list)
    return {
        name: f"{where}:{start}" for name, where, start, end in defs
        if all(path == where and start <= line <= end
               for path, line in uses.get(name, ()))}


def test_unreached_finder_sees_only_uses_outside_a_body(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "m.py").write_text(
        "__all__ = ['exported']\n"
        "def exported():\n    return exported()\n"
        "def called():\n    pass\n"
        "def by_string():\n    pass\n"
        "class C:\n    def __len__(self):\n        return 0\n"
        "    def method(self):\n        return self.method\n"
        "class Unused:\n    pass\n"
        "@register\nclass Registered:\n    pass\n"
        "called()\ngetattr(C, 'by_string')\n")
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "e.py").write_text("C().method()\n")
    assert set(unreached_names(tmp_path)) == {"exported", "Unused"}


def test_only_allow_listed_names_are_called_by_tests_alone():
    found = unreached_names()
    unexplained = {name: where for name, where in found.items()
                   if name not in ONLY_TESTS_CALL}
    assert not unexplained, (
        "nothing outside tests/ calls these; delete them (with the tests "
        f"that check them alone) or say why they stay: {unexplained}")
    stale = sorted(set(ONLY_TESTS_CALL) - set(found))
    assert not stale, f"reached now, drop from ONLY_TESTS_CALL: {stale}"
