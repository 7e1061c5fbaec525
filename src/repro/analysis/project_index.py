"""ProjectIndex: a module-level symbol table and call graph over the tree.

Per-file AST rules see one module at a time; the interprocedural X-rule
family needs to know *who calls whom across modules* — an observer entry
point in ``obs/`` may only mutate validator state two calls deep, through a
helper defined in another file. This module extracts, per analyzed module,
a plain :class:`ModuleFacts` record (functions, raw call sites,
imports, class bases, effect sites, suppressions) and assembles the records
into a :class:`ProjectIndex` that resolves calls into a qualified-name call
graph and answers reachability queries. Facts hold no AST nodes, so a
module's tree can be dropped as soon as its facts are extracted.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.registry import ModuleContext, dotted_name
from repro.analysis.rules_determinism import (
    _GLOBAL_RNG_CALLS,
    _WALL_CLOCK_CALLS,
    _is_set_expr,
    _set_bound_names,
)

#: Effect kinds recorded on functions (consumed by the X-rules).
WALL_CLOCK = "wall_clock"
GLOBAL_RNG = "global_rng"
SET_ITERATION = "set_iteration"
STATE_MUTATION = "state_mutation"

#: Local names that, used as the root of a mutated attribute chain inside
#: observer code, denote engine-owned objects (validator evidence, alarms,
#: datastore handles) rather than the observer's own state. Heuristic by
#: construction — the convention throughout ``repro`` is that these names
#: are only ever bound to the corresponding engine objects.
ENGINE_OBJECT_NAMES = frozenset({
    "alarm", "alarms", "validator", "store", "datastore", "outcome",
    "outcomes", "response", "responses", "decision", "core", "pipeline",
    "engine", "shard", "shards", "replicator",
})

#: Container-mutator method names (mirrors the H406 set).
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "clear", "pop",
    "popitem", "remove", "discard", "setdefault", "sort", "put", "delete",
    "put_all",
})

#: Call chains that mint trigger contexts; the suffix identifies the kind.
_TRIGGER_MINTERS = {
    "internal_trigger": "internal",
    "external_trigger": "external",
    "new_external_trigger_id": "external",
}


@dataclass
class CallSite:
    """One call expression as written: dotted chain + position."""

    chain: str
    line: int
    column: int = 0


@dataclass
class Effect:
    """One interprocedurally-interesting behaviour of a function."""

    kind: str
    detail: str
    line: int
    column: int = 0


@dataclass
class FunctionFacts:
    """Everything the index keeps about one function/method."""

    qualname: str  #: ``Class.method`` / ``func`` / ``outer.inner``
    name: str
    lineno: int
    column: int
    class_name: str = ""  #: enclosing class, when a method
    calls: List[CallSite] = field(default_factory=list)
    effects: List[Effect] = field(default_factory=list)

    @property
    def is_public(self) -> bool:
        return not self.name.startswith("_")


@dataclass
class ModuleFacts:
    """Per-module extract feeding the ProjectIndex."""

    path: str  #: display path, as findings report it
    module_name: str  #: best-effort dotted name (``repro.obs.diagnose``)
    functions: List[FunctionFacts] = field(default_factory=list)
    imports: Dict[str, str] = field(default_factory=dict)
    classes: Dict[str, List[str]] = field(default_factory=dict)
    suppressions: Dict[int, List[str]] = field(default_factory=dict)


def module_name_for(path: str) -> str:
    """Best-effort dotted module name for a file path.

    ``src/repro/obs/diagnose.py`` → ``repro.obs.diagnose``; outside an
    ``src`` layout the full path (sans suffix) is dotted, which keeps names
    unique and lets import targets resolve by suffix match.
    """
    normalized = path.replace("\\", "/").strip("/")
    parts = [p for p in normalized.split("/") if p not in (".", "..", "")]
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


# ----------------------------------------------------------------------
# Fact extraction (runs next to the per-module rules; AST in, facts out)
# ----------------------------------------------------------------------

def extract_module_facts(module: ModuleContext) -> ModuleFacts:
    """Extract the interprocedural facts for one parsed module."""
    facts = ModuleFacts(path=module.path,
                        module_name=module_name_for(module.path),
                        suppressions={line: sorted(rules) for line, rules
                                      in module.suppressions().items()})
    _collect_imports(module.tree, facts)
    _collect_functions(module.tree, facts, prefix="", class_name="")
    return facts


def _collect_imports(tree: ast.Module, facts: ModuleFacts) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                binding = (alias.asname or alias.name).split(".")[0]
                facts.imports[binding] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            base = _resolve_relative(facts.module_name, node.module,
                                     node.level)
            for alias in node.names:
                if alias.name == "*":
                    continue
                binding = alias.asname or alias.name
                facts.imports[binding] = (f"{base}.{alias.name}"
                                          if base else alias.name)


def _resolve_relative(module_name: str, target: Optional[str],
                      level: int) -> str:
    """``from ..x import y`` inside ``a.b.c`` → base ``a.x``."""
    if level == 0:
        return target or ""
    parts = module_name.split(".") if module_name else []
    parts = parts[:len(parts) - level] if level <= len(parts) else []
    if target:
        parts.append(target)
    return ".".join(parts)


def _collect_functions(node: ast.AST, facts: ModuleFacts, prefix: str,
                       class_name: str) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            bases = [dotted_name(b) for b in child.bases]
            facts.classes[child.name] = [b for b in bases if b not in ("?",)]
            _collect_functions(child, facts, prefix=child.name,
                               class_name=child.name)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{prefix}.{child.name}" if prefix else child.name
            fn = FunctionFacts(qualname=qualname, name=child.name,
                               lineno=child.lineno,
                               column=child.col_offset + 1,
                               class_name=class_name)
            _extract_body_facts(child, fn)
            facts.functions.append(fn)
            # Nested defs become their own facts; their bodies are not
            # re-attributed to the outer function.
            _collect_functions(child, facts, prefix=qualname, class_name="")


def _walk_own_body(func: ast.AST) -> Iterable[ast.AST]:
    """Walk a function's body without descending into nested defs."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_fresh_container(node: ast.AST) -> bool:
    """Literal/constructor expressions that mint a function-owned object."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.Tuple, ast.ListComp,
                         ast.DictComp, ast.SetComp, ast.GeneratorExp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in {"list", "dict", "set", "tuple", "sorted",
                                 "defaultdict", "OrderedDict", "Counter",
                                 "deque"})


def _locally_minted_names(func: ast.AST) -> Set[str]:
    """Names bound to containers the function built itself.

    Mutating these is never an engine-state mutation even when the name
    collides with :data:`ENGINE_OBJECT_NAMES` (an exporter's local
    ``alarms = []`` accumulator, say) — the object cannot be engine-owned.
    Loop variables and parameters stay borrowed: iterating engine data
    binds engine objects.
    """
    owned: Set[str] = set()
    for node in _walk_own_body(func):
        if not isinstance(node, ast.Assign):
            continue
        if not _is_fresh_container(node.value):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                owned.add(target.id)
    return owned


def _extract_body_facts(func: ast.AST, fn: FunctionFacts) -> None:
    set_names = _set_bound_names(func)
    owned = _locally_minted_names(func)
    for node in _walk_own_body(func):
        if isinstance(node, ast.Call):
            chain = dotted_name(node.func)
            fn.calls.append(CallSite(chain=chain, line=node.lineno,
                                     column=node.col_offset + 1))
            _record_call_effects(node, chain, fn, owned)
            # tuple(some_set) / list(some_set) reaches ordered output too.
            if (isinstance(node.func, ast.Name)
                    and node.func.id in ("tuple", "list")
                    and len(node.args) == 1):
                _record_set_iteration(node.args[0], set_names, fn)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                _record_mutation_effect(target, node, fn, owned)
        elif isinstance(node, ast.For):
            _record_set_iteration(node.iter, set_names, fn)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                               ast.DictComp)):
            for gen in node.generators:
                _record_set_iteration(gen.iter, set_names, fn)


def _record_call_effects(node: ast.Call, chain: str, fn: FunctionFacts,
                         owned: Set[str]) -> None:
    parts = chain.split(".")
    if chain in _WALL_CLOCK_CALLS:
        fn.effects.append(Effect(WALL_CLOCK, f"{chain}()", node.lineno,
                                 node.col_offset + 1))
    elif (len(parts) == 2 and parts[0] == "random"
            and parts[1] in _GLOBAL_RNG_CALLS):
        fn.effects.append(Effect(GLOBAL_RNG, f"{chain}()", node.lineno,
                                 node.col_offset + 1))
    # Container-mutator or store-mutator call on an engine-owned chain.
    if (len(parts) >= 2 and parts[-1] in _MUTATOR_METHODS
            and parts[0] != "self" and parts[0] not in owned
            and any(p in ENGINE_OBJECT_NAMES for p in parts[:-1])):
        fn.effects.append(Effect(STATE_MUTATION, f"{chain}(...)",
                                 node.lineno, node.col_offset + 1))


def _record_mutation_effect(target: ast.AST, node: ast.AST,
                            fn: FunctionFacts, owned: Set[str]) -> None:
    if not isinstance(target, (ast.Attribute, ast.Subscript)):
        return
    parts: List[str] = []
    current = target
    while True:
        if isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        elif isinstance(current, ast.Subscript):
            current = current.value
        elif isinstance(current, ast.Name):
            parts.append(current.id)
            break
        else:
            return
    chain = list(reversed(parts))
    if chain[0] == "self" or chain[0] in owned or len(chain) < 2:
        return  # an object's own (or locally built) state is its business
    if chain[0] in ENGINE_OBJECT_NAMES:
        fn.effects.append(Effect(
            STATE_MUTATION, f"{'.'.join(chain)} = ...", node.lineno,
            getattr(node, "col_offset", 0) + 1))


def _record_set_iteration(it: ast.AST, set_names: Set[str],
                          fn: FunctionFacts) -> None:
    if _is_set_expr(it, set_names):
        fn.effects.append(Effect(
            SET_ITERATION, "iteration over an unordered set", it.lineno,
            it.col_offset + 1))


# ----------------------------------------------------------------------
# The index
# ----------------------------------------------------------------------

class ProjectIndex:
    """Symbol table + resolved call graph over a set of module facts."""

    def __init__(self, modules: Sequence[ModuleFacts]):
        self.modules: List[ModuleFacts] = list(modules)
        #: full qualified name -> (module facts, function facts)
        self.functions: Dict[str, Tuple[ModuleFacts, FunctionFacts]] = {}
        #: class full name -> (module facts, base chains)
        self.classes: Dict[str, Tuple[ModuleFacts, List[str]]] = {}
        self._suffix_cache: Dict[str, Optional[str]] = {}
        for mod in self.modules:
            for fn in mod.functions:
                self.functions[f"{mod.module_name}.{fn.qualname}"] = (mod, fn)
            for cls, bases in mod.classes.items():
                self.classes[f"{mod.module_name}.{cls}"] = (mod, bases)
        #: resolved edges: caller full name -> sorted callee full names
        self.edges: Dict[str, List[str]] = {}
        self._resolve_all()

    # -- resolution ----------------------------------------------------
    def _resolve_all(self) -> None:
        for mod in self.modules:
            for fn in mod.functions:
                caller = f"{mod.module_name}.{fn.qualname}"
                targets: Set[str] = set()
                for call in fn.calls:
                    resolved = self.resolve_call(mod, fn, call.chain)
                    if resolved is not None:
                        targets.add(resolved)
                self.edges[caller] = sorted(targets)

    def resolve_call(self, mod: ModuleFacts, fn: FunctionFacts,
                     chain: str) -> Optional[str]:
        """Resolve a raw call chain to a known function's full name."""
        parts = chain.split(".")
        if not parts or parts[0] in ("?", "()"):
            return None
        root = parts[0]
        if root == "self" and fn.class_name and len(parts) == 2:
            return self._resolve_method(mod, fn.class_name, parts[1])
        if len(parts) == 1:
            local = f"{mod.module_name}.{root}"
            if local in self.functions:
                return local
            target = mod.imports.get(root)
            return self._by_suffix(target) if target else None
        if root in mod.imports:
            dotted = ".".join([mod.imports[root]] + parts[1:])
            return self._by_suffix(dotted)
        if root in mod.classes:
            return self._resolve_method(mod, root, parts[-1]) \
                if len(parts) == 2 else None
        return None

    def _resolve_method(self, mod: ModuleFacts, class_name: str,
                        method: str) -> Optional[str]:
        seen: Set[str] = set()
        queue = deque([(mod, class_name)])
        while queue:
            cur_mod, cur_cls = queue.popleft()
            full_cls = f"{cur_mod.module_name}.{cur_cls}"
            if full_cls in seen:
                continue
            seen.add(full_cls)
            candidate = f"{full_cls}.{method}"
            if candidate in self.functions:
                return candidate
            entry = self.classes.get(full_cls)
            if entry is None:
                continue
            base_mod, bases = entry
            for base in bases:
                resolved = self._resolve_class(base_mod, base)
                if resolved is not None:
                    queue.append(resolved)
        return None

    def _resolve_class(self, mod: ModuleFacts,
                       chain: str) -> Optional[Tuple[ModuleFacts, str]]:
        parts = chain.split(".")
        root = parts[0]
        if chain in mod.classes or root in mod.classes:
            return mod, root if root in mod.classes else chain
        target = mod.imports.get(root)
        if target is None:
            return None
        dotted = ".".join([target] + parts[1:])
        full = self._class_by_suffix(dotted)
        if full is None:
            return None
        cls_mod, _ = self.classes[full]
        return cls_mod, full[len(cls_mod.module_name) + 1:]

    def _by_suffix(self, dotted: Optional[str]) -> Optional[str]:
        if not dotted:
            return None
        if dotted in self._suffix_cache:
            return self._suffix_cache[dotted]
        result = None
        if dotted in self.functions:
            result = dotted
        else:
            matches = [name for name in self.functions
                       if name.endswith("." + dotted)]
            if len(matches) == 1:
                result = matches[0]
        self._suffix_cache[dotted] = result
        return result

    def _class_by_suffix(self, dotted: str) -> Optional[str]:
        if dotted in self.classes:
            return dotted
        matches = [name for name in self.classes
                   if name.endswith("." + dotted)]
        return matches[0] if len(matches) == 1 else None

    # -- queries -------------------------------------------------------
    def function(self, full_name: str) -> Optional[FunctionFacts]:
        entry = self.functions.get(full_name)
        return entry[1] if entry else None

    def module_of(self, full_name: str) -> Optional[ModuleFacts]:
        entry = self.functions.get(full_name)
        return entry[0] if entry else None

    def reachable_from(self, entry: str) -> Dict[str, List[str]]:
        """BFS closure from one function: reached name -> call path.

        The path starts at ``entry`` and ends at the reached function;
        deterministic because edges are sorted and BFS is FIFO.
        """
        paths: Dict[str, List[str]] = {entry: [entry]}
        queue = deque([entry])
        while queue:
            current = queue.popleft()
            for callee in self.edges.get(current, ()):
                if callee not in paths:
                    paths[callee] = paths[current] + [callee]
                    queue.append(callee)
        return paths

    def emitted_trigger_kinds(self) -> Set[str]:
        """Trigger kinds (``internal``/``external``) minted anywhere.

        Detected from raw call chains so that unresolved constructor-style
        calls (``TriggerContext.internal_trigger``) still count.
        """
        kinds: Set[str] = set()
        for mod in self.modules:
            for fn in mod.functions:
                for call in fn.calls:
                    leaf = call.chain.rsplit(".", 1)[-1]
                    kind = _TRIGGER_MINTERS.get(leaf)
                    if kind is not None:
                        kinds.add(kind)
        return kinds

    def is_suppressed(self, mod: ModuleFacts, rule_id: str,
                      line: int) -> bool:
        rules = mod.suppressions.get(line)
        return rules is not None and ("*" in rules or rule_id in rules)


def build_project_index(
        facts: Iterable[ModuleFacts]) -> ProjectIndex:
    """Assemble module facts into an index."""
    return ProjectIndex(sorted(facts, key=lambda m: m.path))
