"""H-rules: repo hygiene with validator-path teeth.

These are the classic Python footguns, kept because each has bitten (or
would bite) the validator/consensus hot path specifically: a mutable default
shared across Controller instances is cross-replica state leakage; a bare or
swallowed except in the validator turns a real alarm into silence — the
exact failure mode JURY exists to surface.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.findings import Severity
from repro.analysis.registry import ModuleContext, Rule, register

_MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "deque", "Counter",
                  "OrderedDict"}


@register
class MutableDefaultRule(Rule):
    """H401 — mutable default argument."""

    rule_id = "H401"
    severity = Severity.ERROR
    summary = "mutable default argument"
    rationale = ("A default list/dict/set is created once and shared by "
                 "every call — and therefore by every controller replica "
                 "constructed with it, silently coupling their state.")

    def check(self, module: ModuleContext) -> Iterator[tuple]:
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(func.args.defaults) + [
                d for d in func.args.kw_defaults if d is not None]
            for default in defaults:
                if isinstance(default, (ast.List, ast.Dict, ast.Set,
                                        ast.ListComp, ast.DictComp,
                                        ast.SetComp)):
                    yield (default, f"{func.name}() has a mutable default "
                                    "argument; default to None and allocate "
                                    "inside the body")
                elif (isinstance(default, ast.Call)
                      and isinstance(default.func, ast.Name)
                      and default.func.id in _MUTABLE_CALLS):
                    yield (default, f"{func.name}() calls "
                                    f"{default.func.id}() as a default "
                                    "argument; it is evaluated once and "
                                    "shared across calls")


@register
class BareExceptRule(Rule):
    """H402 — bare ``except:``."""

    rule_id = "H402"
    severity = Severity.ERROR
    summary = "bare except"
    rationale = ("Catches SystemExit/KeyboardInterrupt and every coding "
                 "error; in the validation path this converts a crash that "
                 "deserves an alarm into silent mis-validation.")

    def check(self, module: ModuleContext) -> Iterator[tuple]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield (node, "bare 'except:' catches everything including "
                             "KeyboardInterrupt; name the exception type")


@register
class SwallowedExceptionRule(Rule):
    """H403 — exception handler that silently discards the error."""

    rule_id = "H403"
    severity = Severity.WARNING
    summary = "swallowed exception"
    rationale = ("A pass-only handler hides the fault class the paper's T3 "
                 "category exists to detect (omitted responses); "
                 "intentional drops must say why via a suppression "
                 "comment.")

    def check(self, module: ModuleContext) -> Iterator[tuple]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if len(node.body) == 1 and isinstance(node.body[0], ast.Pass):
                label = _handler_label(node)
                yield (node, f"except {label} swallows the exception "
                             "(pass-only body); log, re-raise, or suppress "
                             "explicitly with '# jury: ignore[H403]' and a "
                             "reason")


@register
class BroadExceptRule(Rule):
    """H404 — ``except Exception`` that never re-raises."""

    rule_id = "H404"
    severity = Severity.WARNING
    summary = "broad except without re-raise"
    rationale = ("Catching Exception wholesale in the consensus/validator "
                 "hot path masks programming errors as benign triggers; "
                 "narrow the type or re-raise after logging.")

    def check(self, module: ModuleContext) -> Iterator[tuple]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not (isinstance(node.type, ast.Name)
                    and node.type.id in ("Exception", "BaseException")):
                continue
            has_raise = any(isinstance(n, ast.Raise)
                            for n in ast.walk(node))
            if not has_raise:
                yield (node, f"except {node.type.id} without re-raise masks "
                             "unexpected errors; narrow the exception type "
                             "or re-raise")


@register
class UnusedImportRule(Rule):
    """H405 — unused import (``__init__.py`` re-export files exempt)."""

    rule_id = "H405"
    severity = Severity.WARNING
    summary = "unused import"
    rationale = ("Dead imports hide real dependencies and slow cold start; "
                 "the analyzer's own self-application keeps the tree "
                 "clean.")

    def check(self, module: ModuleContext) -> Iterator[tuple]:
        if module.path.replace("\\", "/").endswith("__init__.py"):
            return  # re-export surface; unused-looking imports are the API
        imported = []  # (binding name, node, display name)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    binding = (alias.asname or alias.name).split(".")[0]
                    imported.append((binding, node, alias.name))
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    binding = alias.asname or alias.name
                    imported.append((binding, node, alias.name))
        if not imported:
            return
        used = self._used_names(module)
        for binding, node, display in imported:
            if binding not in used:
                yield (node, f"'{display}' is imported but unused")

    @staticmethod
    def _used_names(module: ModuleContext) -> Set[str]:
        used: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                # String annotations / __all__ entries / doctest references.
                for token in node.value.replace(".", " ").replace("[", " ") \
                        .replace("]", " ").replace(",", " ").split():
                    used.add(token)
        return used


#: Observer attribute names wired through the decision path: the seam
#: (``observer``) and the subscribers behind it. Binding one
#: (``self.observer = ...``) and calling its hook API
#: (``observer.ingest(...)``) are the contract; reaching *into* one is not.
_OBSERVER_NAMES = {"observer", "tracer", "metrics", "forensics", "health",
                   "snapshot_sink", "recorder", "sampler"}

#: Method names that mutate built-in containers (and the observers built
#: from them).
_MUTATOR_METHODS = {"append", "extend", "insert", "add", "update", "clear",
                    "pop", "popitem", "remove", "discard", "setdefault",
                    "sort"}


def _attr_chain(node: ast.AST):
    """``a.b[k].c`` → ``["a", "b", "c"]``; None when the root is no Name.

    Subscripts are transparent (indexing into an observer's table is still
    reaching into the observer); chains rooted in call results are skipped —
    the object's provenance is unknowable statically.
    """
    parts = []
    current = node
    while True:
        if isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        elif isinstance(current, ast.Subscript):
            current = current.value
        elif isinstance(current, ast.Name):
            parts.append(current.id)
            return list(reversed(parts))
        else:
            return None


def _observer_index(chain):
    """Index of the observer name in the chain, if it is the root object.

    Only ``tracer...`` (index 0) and ``self.tracer...`` / ``pipeline.
    tracer...`` (index 1) count: deeper occurrences are somebody else's
    attribute that merely shares the name.
    """
    for index in (0, 1):
        if index < len(chain) and chain[index] in _OBSERVER_NAMES:
            return index
    return None


@register
class ObserverMutationRule(Rule):
    """H406 — decision-path code mutating an observer's internals."""

    rule_id = "H406"
    severity = Severity.WARNING
    summary = "observer mutated from decision path"
    rationale = ("Tracer/metrics/forensics/health objects are read-only "
                 "observers of the validation path: the determinism "
                 "contract (byte-identical alarm streams with observability "
                 "on or off) only holds if decision code never writes into "
                 "them except through their append-only hook API. Reaching "
                 "into an observer's state from outside repro.obs couples "
                 "decisions to observer wiring.")

    def check(self, module: ModuleContext) -> Iterator[tuple]:
        normalized = module.path.replace("\\", "/")
        if "/obs/" in normalized or normalized.startswith("obs/"):
            return  # observer internals legitimately mutate themselves
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if not isinstance(target, (ast.Attribute, ast.Subscript)):
                        continue
                    chain = _attr_chain(target)
                    if chain is None:
                        continue
                    index = _observer_index(chain)
                    if index is None:
                        continue
                    # Binding the observer slot itself (self.tracer = x)
                    # is wiring, not mutation; writing past it is.
                    past_observer = (len(chain) - 1 > index
                                     or isinstance(target, ast.Subscript)
                                     and chain[-1] == chain[index])
                    if past_observer:
                        yield (node,
                               f"assignment into "
                               f"'{'.'.join(chain)}' mutates observer "
                               f"state from the decision path; observers "
                               f"must only be written through their own "
                               f"hook methods")
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    chain = _attr_chain(target)
                    if chain is None:
                        continue
                    index = _observer_index(chain)
                    if index is not None and len(chain) - 1 > index:
                        yield (node,
                               f"del on '{'.'.join(chain)}' mutates "
                               f"observer state from the decision path")
            elif isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                if chain is None or chain[-1] not in _MUTATOR_METHODS:
                    continue
                index = _observer_index(chain)
                # tracer.emit(...) (depth 1) is the hook API; a mutator
                # two or more levels down (tracer.spans.append) reaches
                # into the observer's containers.
                if index is not None and len(chain) - index >= 3:
                    yield (node,
                           f"'{'.'.join(chain)}(...)' mutates observer "
                           f"internals from the decision path; route "
                           f"writes through the observer's hook API")


def _handler_label(node: ast.ExceptHandler) -> str:
    if node.type is None:
        return "(bare)"
    if isinstance(node.type, ast.Name):
        return node.type.id
    if isinstance(node.type, ast.Tuple):
        names = [e.id for e in node.type.elts if isinstance(e, ast.Name)]
        return "(" + ", ".join(names) + ")"
    return "<expr>"
