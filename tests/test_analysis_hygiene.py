"""H-rules: hygiene (mutable defaults, excepts, unused imports) + suppressions."""

import textwrap

from repro.analysis import Analyzer, Severity


def _findings(source, path="src/example.py"):
    return Analyzer().analyze_source(textwrap.dedent(source), path=path)


def _rules(source, path="src/example.py"):
    return [f.rule_id for f in _findings(source, path)]


# ----------------------------------------------------------------------
# H401 — mutable defaults
# ----------------------------------------------------------------------

def test_h401_flags_literal_and_call_defaults():
    src = """
    def a(x=[]):
        return x

    def b(y=dict()):
        return y
    """
    assert _rules(src).count("H401") == 2


def test_h401_is_error_severity():
    findings = [f for f in _findings("def a(x=[]): return x")
                if f.rule_id == "H401"]
    assert findings and findings[0].severity is Severity.ERROR


def test_h401_allows_none_and_immutable_defaults():
    src = """
    def a(x=None, y=(), z=5, name="s"):
        return x, y, z, name
    """
    assert "H401" not in _rules(src)


# ----------------------------------------------------------------------
# H402/H403/H404 — except hygiene
# ----------------------------------------------------------------------

def test_h402_flags_bare_except():
    src = """
    def f():
        try:
            work()
        except:
            return None
    """
    assert "H402" in _rules(src)


def test_h403_flags_pass_only_handler():
    src = """
    def f():
        try:
            work()
        except ValueError:
            pass
    """
    assert "H403" in _rules(src)


def test_h403_allows_handled_exceptions():
    src = """
    def f(log):
        try:
            work()
        except ValueError as exc:
            log.warning("work failed: %s", exc)
    """
    assert "H403" not in _rules(src)


def test_h404_flags_broad_except_without_reraise():
    src = """
    def f():
        try:
            work()
        except Exception:
            return -1
    """
    assert "H404" in _rules(src)


def test_h404_allows_reraise():
    src = """
    def f(log):
        try:
            work()
        except Exception:
            log()
            raise
    """
    assert "H404" not in _rules(src)


# ----------------------------------------------------------------------
# H405 — unused imports
# ----------------------------------------------------------------------

def test_h405_flags_unused_import():
    src = """
    import os
    from typing import List

    def f():
        return os.getcwd()
    """
    assert _rules(src) == ["H405"]  # List unused, os used


def test_h405_counts_string_annotations_as_usage():
    src = """
    from typing import List

    def f(xs: "List[int]"):
        return xs
    """
    assert "H405" not in _rules(src)


def test_h405_exempts_init_files():
    src = "from repro.core.validator import Validator\n"
    assert _rules(src, path="src/repro/__init__.py") == []


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------

def test_inline_suppression_by_rule_id():
    src = """
    def f():
        try:
            work()
        except ValueError:  # jury: ignore[H403] — drop is the modeled fault
            pass
    """
    assert "H403" not in _rules(src)


def test_blanket_suppression():
    src = """
    def f():
        try:
            work()
        except:  # jury: ignore
            pass
    """
    assert _rules(src) == []


def test_suppression_of_one_rule_keeps_others():
    src = """
    def f():
        try:
            work()
        except:  # jury: ignore[H403]
            pass
    """
    rules = _rules(src)
    assert "H403" not in rules and "H402" in rules


def test_suppression_is_line_scoped():
    src = """
    def f():
        try:
            work()  # jury: ignore[H402]
        except:
            pass
    """
    assert "H402" in _rules(src)


# ----------------------------------------------------------------------
# H406 — observer purity (no observer mutation from decision paths)
# ----------------------------------------------------------------------

def test_h406_flags_container_mutation_through_observer():
    src = """
    class Validator:
        def _decide(self, span):
            self.tracer.spans.append(span)
    """
    assert "H406" in _rules(src)


def test_h406_flags_assignment_into_observer_state():
    src = """
    class Validator:
        def _decide(self):
            self.metrics.tables = {}
            tracer.counts["late"] = 1
    """
    assert _rules(src).count("H406") == 2


def test_h406_allows_binding_and_hook_calls():
    src = """
    class Validator:
        def __init__(self, tracer=None, health=None):
            self.tracer = tracer
            self.health = health

        def ingest(self, response, now):
            if self.health is not None:
                self.health.record_response(now, response.controller_id)
            if self.tracer is not None:
                self.tracer.emit(now, "ingest")
    """
    assert "H406" not in _rules(src)


def test_h406_flags_reaching_through_the_observer_seam():
    src = """
    class Validator:
        def _decide(self, x):
            self.observer.tracer.spans.append(x)
    """
    assert _rules(src, path="src/repro/core/validator.py") == ["H406"]


def test_h406_allows_binding_the_seam_and_calling_its_events():
    src = """
    class Validator:
        def __init__(self, observer=None):
            self.observer = observer

        def ingest(self, response, now):
            observer = self.observer
            if observer is not None:
                observer.ingest(now, response)
                self.observer.tick(now)
    """
    assert "H406" not in _rules(src, path="src/repro/core/validator.py")


def test_h406_ignores_unrelated_names_and_deep_attributes():
    src = """
    def f(report):
        report.summary.metrics_like.append(1)  # not an observer root
        buckets = {}
        buckets.setdefault("a", []).append(2)
    """
    assert "H406" not in _rules(src)


def test_h406_exempts_obs_modules():
    src = """
    class Tracer:
        def emit(self, span):
            tracer = self
            tracer.spans.append(span)
    """
    assert "H406" not in _rules(src, path="src/repro/obs/trace.py")


def test_h406_is_suppressible():
    src = """
    class V:
        def f(self, span):
            self.tracer.spans.append(span)  # jury: ignore[H406]
    """
    assert "H406" not in _rules(src)
