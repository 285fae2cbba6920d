"""Whole-program rules over the repro package (W1–W4).

Where :mod:`repro.analysis.rules` sees one file at a time, this module
sees the package: it assembles the :class:`ModuleSummary` facts of
every analyzed file (:mod:`repro.analysis.modgraph`) into an import
graph and a conservative name-resolution call graph, then runs the
project-scoped rules:

- **W1 layering** — imports between top-level subpackages must follow
  the DAG checked in as ``layers.toml`` (module-load imports against
  ``[layers]``; function-scoped/TYPE_CHECKING imports may additionally
  use ``[deferred]`` edges, the sanctioned cycle-breaking idiom).
- **W2 dropped-parameter flow** — a function that accepts a watched
  flag (``allow_stale``/``engine``) and calls a
  callee that also accepts it must forward it. Exactly the PR 6 bug:
  a per-call ``allow_stale=False`` silently swallowed across a
  constructor boundary.
- **W3 exception contracts** — a function whose
  ``StaleSnapshotError``/``ConfigurationError`` can escape to the
  serving surface (``repro.api``, ``ShardedPlatform.serve``) must be
  listed in :data:`EXCEPTION_CONTRACTS`, or some frame on the path
  must handle the exception.
- **W4 dead public API** — a public top-level name referenced nowhere
  outside its defining module (façade re-exports in ``__init__`` do
  not count) is dead weight; delete it, underscore it, or suppress
  with a justification.

The rules are registered in :data:`PROJECT_REGISTRY` (ids ``W1``…)
and selected through the same ``--select`` surface as the per-file
rules; ``# repro: ignore[Wn] -- why`` suppressions work unchanged.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (Dict, FrozenSet, Iterator, List, Mapping, Optional,
                    Sequence, Set, Tuple, Type)

from .findings import Finding
from .modgraph import (ClassSummary, FunctionSummary, ModuleSummary,
                       collect_refs, package_of, resolve_import_targets)

#: Default layering contract, checked in next to this module.
DEFAULT_LAYERS_PATH = Path(__file__).resolve().parent / "layers.toml"


class LayersConfigError(ValueError):
    """``layers.toml`` is missing, malformed, or cyclic."""


@dataclass(frozen=True)
class LayersConfig:
    """Allowed import edges between top-level subpackages.

    Attributes:
        allowed: Package → packages it may import at module load time.
        deferred: Additional edges permitted only for function-scoped
            (or TYPE_CHECKING) imports.
    """

    allowed: Mapping[str, Tuple[str, ...]]
    deferred: Mapping[str, Tuple[str, ...]]


_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_\-]+)\]$")
_ENTRY_RE = re.compile(r"^\"?([A-Za-z0-9_\-.]+)\"?\s*=\s*(\[.*\])$")


def load_layers_config(path: Optional[Path] = None) -> LayersConfig:
    """Parse ``layers.toml`` (a flat TOML subset, stdlib-only).

    Only the shape this file actually uses is supported: ``[section]``
    headers and single-line ``name = ["dep", ...]`` entries. Parsing
    by hand keeps the analyzer dependency-free on every supported
    Python (``tomllib`` landed in 3.11).

    Raises:
        LayersConfigError: on unreadable/malformed input, an unknown
            section, a ``[deferred]`` package missing from
            ``[layers]``, or a cyclic ``[layers]`` edge set.
    """
    config_path = path if path is not None else DEFAULT_LAYERS_PATH
    try:
        text = config_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LayersConfigError(
            f"cannot read layering config {config_path}: {exc}") from exc

    sections: Dict[str, Dict[str, Tuple[str, ...]]] = {
        "layers": {}, "deferred": {}}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        section_match = _SECTION_RE.match(line)
        if section_match:
            current = section_match.group(1)
            if current not in sections:
                raise LayersConfigError(
                    f"{config_path}:{lineno}: unknown section "
                    f"[{current}] (expected [layers] or [deferred])")
            continue
        entry_match = _ENTRY_RE.match(line)
        if entry_match is None or current is None:
            raise LayersConfigError(
                f"{config_path}:{lineno}: cannot parse {line!r} "
                "(expected 'name = [\"dep\", ...]')")
        name = entry_match.group(1)
        try:
            value = ast.literal_eval(entry_match.group(2))
        except (ValueError, SyntaxError) as exc:
            raise LayersConfigError(
                f"{config_path}:{lineno}: bad value for {name!r}: "
                f"{exc}") from exc
        if not isinstance(value, list) or not all(
                isinstance(item, str) for item in value):
            raise LayersConfigError(
                f"{config_path}:{lineno}: {name!r} must be a list of "
                "package names")
        sections[current][name] = tuple(value)

    allowed = sections["layers"]
    deferred = sections["deferred"]
    for name in deferred:
        if name not in allowed:
            raise LayersConfigError(
                f"{config_path}: [deferred] names {name!r} which is not "
                "declared in [layers]")
    cycle = _find_cycle(allowed)
    if cycle is not None:
        raise LayersConfigError(
            f"{config_path}: [layers] edges are cyclic "
            f"({' -> '.join(cycle)}); the layering contract must be a DAG")
    return LayersConfig(allowed=allowed, deferred=deferred)


def _find_cycle(
        edges: Mapping[str, Tuple[str, ...]]) -> Optional[List[str]]:
    """A cycle in the allowed-edge graph as a node list, or None."""
    WHITE, GREY, BLACK = 0, 1, 2
    color: Dict[str, int] = {node: WHITE for node in edges}
    stack: List[str] = []

    def visit(node: str) -> Optional[List[str]]:
        color[node] = GREY
        stack.append(node)
        for neighbor in edges.get(node, ()):
            state = color.get(neighbor, BLACK)
            if state == GREY:
                return stack[stack.index(neighbor):] + [neighbor]
            if state == WHITE:
                found = visit(neighbor)
                if found is not None:
                    return found
        stack.pop()
        color[node] = BLACK
        return None

    for node in sorted(edges):
        if color[node] == WHITE:
            found = visit(node)
            if found is not None:
                return found
    return None


def layer_of(module: str, config: LayersConfig) -> Optional[str]:
    """Layer a dotted module belongs to.

    The longest dotted prefix declared in ``[layers]`` wins
    (``repro.graph.storage`` → ``graph.storage`` when that layer is
    declared), falling back to the top-level subpackage. Nested layers
    let a subpackage carve out an inner seam with its own, tighter
    dependency contract while undeclared sibling modules keep the
    enclosing package's layer.
    """
    package = package_of(module)
    if package is None:
        return None
    parts = module.split(".")[1:]
    for depth in range(len(parts), 1, -1):
        candidate = ".".join(parts[:depth])
        if candidate in config.allowed:
            return candidate
    return package


def render_layering_dag(config: Optional[LayersConfig] = None) -> str:
    """Deterministic text rendering of the layering DAG.

    ``docs/ARCHITECTURE.md`` embeds this output verbatim between
    ``layers.toml:begin``/``end`` markers;
    ``tests/analysis/test_layers_doc.py`` asserts the embedded copy
    matches, so the config and the doc cannot drift apart silently.
    """
    if config is None:
        config = load_layers_config()
    width = max(len(name) for name in config.allowed)
    lines = []
    for name in sorted(config.allowed):
        deps = ", ".join(sorted(config.allowed[name])) or "(nothing)"
        lines.append(f"{name.ljust(width)} -> {deps}")
    if config.deferred:
        lines.append("")
        lines.append("deferred-only (function-scoped imports):")
        for name in sorted(config.deferred):
            deps = ", ".join(sorted(config.deferred[name]))
            lines.append(f"{name.ljust(width)} -> {deps}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Project context: the import graph and the call graph
# ----------------------------------------------------------------------

#: Attribute-call names too generic to resolve by bare name — matching
#: ``x.get(...)`` against every project method called ``get`` would
#: drown the call graph in false edges.
_COMMON_METHOD_NAMES = frozenset({
    "add", "append", "clear", "close", "copy", "count", "decode",
    "discard", "encode", "extend", "format", "get", "index", "insert",
    "items", "join", "keys", "pop", "popitem", "read", "remove",
    "setdefault", "sort", "split", "startswith", "endswith", "strip",
    "update", "values", "write",
})


class ProjectContext:
    """All module summaries plus the cross-module indexes rules need."""

    def __init__(self, summaries: Sequence[ModuleSummary],
                 layers: Optional[LayersConfig] = None) -> None:
        self.all_summaries: Tuple[ModuleSummary, ...] = tuple(summaries)
        self.package_modules: Dict[str, ModuleSummary] = {
            summary.module: summary for summary in summaries
            if summary.module is not None}
        self.known_modules: Set[str] = set(self.package_modules)
        self.layers = layers if layers is not None else load_layers_config()
        # repro.mod.func / repro.mod.Class.method -> summary
        self.function_index: Dict[str, FunctionSummary] = {}
        # repro.mod.Class -> summary
        self.class_index: Dict[str, ClassSummary] = {}
        # bare method name -> qualified ids (methods only)
        self.method_name_index: Dict[str, List[str]] = {}
        # qualified function id -> module summary that defines it
        self.owner: Dict[str, ModuleSummary] = {}
        for module, summary in sorted(self.package_modules.items()):
            for func in summary.functions:
                qual = f"{module}.{func.qualname}"
                self.function_index[qual] = func
                self.owner[qual] = summary
            for cls in summary.classes:
                self.class_index[f"{module}.{cls.name}"] = cls
                for method in cls.methods:
                    qual = f"{module}.{method.qualname}"
                    self.function_index[qual] = method
                    self.owner[qual] = summary
                    if method.name not in _COMMON_METHOD_NAMES:
                        self.method_name_index.setdefault(
                            method.name, []).append(qual)

    # -- call resolution -------------------------------------------------

    def callable_params(self, qual: str) -> Optional[FunctionSummary]:
        """The function summary a qualified id calls into.

        For a class id this is its ``__init__`` (construction calls
        flow into the constructor — the PR 6 boundary).
        """
        func = self.function_index.get(qual)
        if func is not None:
            return func
        cls = self.class_index.get(qual)
        if cls is not None:
            return cls.method("__init__")
        return None

    def _resolve_binding(self, summary: ModuleSummary,
                         name: str) -> Optional[str]:
        """Qualified id (function/class/module) a local name binds to."""
        module = summary.module
        if module is None:
            return None
        target = summary.bindings.get(name)
        if target is None:
            return None
        if target == name:  # defined in this module
            return f"{module}.{name}"
        if not target.startswith("repro"):
            return None
        # "repro.x.y" may be module.attr or a module itself
        if target in self.known_modules:
            return target
        prefix, _, leaf = target.rpartition(".")
        if prefix in self.known_modules:
            return f"{prefix}.{leaf}"
        return target

    def resolve_call(self, summary: ModuleSummary,
                     cls: Optional[ClassSummary],
                     callee: str) -> Tuple[List[str], bool]:
        """Candidate qualified callees for a call expression.

        Returns ``(candidates, confident)``. Confident resolutions
        come from local defs, import bindings, ``self.``/``cls.``
        methods, and class constructors; the fallback matches an
        attribute call against every project method of that name
        (minus :data:`_COMMON_METHOD_NAMES`) and is marked
        unconfident.
        """
        module = summary.module
        if not callee or module is None:
            return [], False
        parts = callee.split(".")
        if len(parts) == 1:
            resolved = self._resolve_binding(summary, parts[0])
            if resolved is not None and (resolved in self.function_index
                                         or resolved in self.class_index):
                return [resolved], True
            return [], False
        head, rest = parts[0], parts[1:]
        if head in ("self", "cls") and cls is not None and len(rest) == 1:
            found = self._resolve_method(module, cls, rest[0])
            if found is not None:
                return [found], True
            return self._fallback(rest[0])
        resolved = self._resolve_binding(summary, head)
        if resolved is not None:
            current = resolved
            for step in rest[:-1]:
                if current in self.known_modules:
                    current = f"{current}.{step}"
                else:
                    return self._fallback(parts[-1])
            leaf = rest[-1]
            if current in self.known_modules:
                qual = f"{current}.{leaf}"
            elif current in self.class_index:
                qual = f"{current}.{leaf}"
            else:
                return self._fallback(leaf)
            if qual in self.function_index or qual in self.class_index:
                return [qual], True
            return [], False
        return self._fallback(parts[-1])

    def _resolve_method(self, module: str, cls: ClassSummary,
                        name: str) -> Optional[str]:
        """``self.name`` → method of *cls* or a resolvable base class."""
        if cls.method(name) is not None:
            return f"{module}.{cls.name}.{name}"
        summary = self.package_modules.get(module)
        for base in cls.bases:
            base_qual = None if summary is None else \
                self._resolve_binding(summary, base.split(".")[0])
            if base_qual is None:
                continue
            base_cls = self.class_index.get(base_qual)
            if base_cls is not None and base_cls.method(name) is not None:
                return f"{base_qual}.{name}"
        return None

    def _fallback(self, name: str) -> Tuple[List[str], bool]:
        if name in _COMMON_METHOD_NAMES:
            return [], False
        return list(self.method_name_index.get(name, ())), False

    def functions_with_class(
            self, summary: ModuleSummary
    ) -> Iterator[Tuple[FunctionSummary, Optional[ClassSummary]]]:
        for func in summary.functions:
            yield func, None
        for cls in summary.classes:
            for method in cls.methods:
                yield method, cls

    def suppressed(self, summary: ModuleSummary, line: int,
                   rule: str) -> bool:
        entry = summary.suppressions.get(line)
        return entry is not None and rule in entry[0]


# ----------------------------------------------------------------------
# Rule plumbing
# ----------------------------------------------------------------------

class ProjectRule:
    """Base class for one whole-program rule.

    Subclasses set ``id``/``name``/``description`` and implement
    :meth:`check`, yielding findings. Rules are pure functions of the
    :class:`ProjectContext` — no filesystem access — so fixture trees
    in the test suite can drive them from in-memory summaries.
    """

    id: str = ""
    name: str = ""
    description: str = ""

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, summary: ModuleSummary, line: int,
                message: str) -> Finding:
        return Finding(path=summary.path, line=line, col=0,
                       rule=self.id, message=message)


#: Registry of every project rule, keyed by rule id.
PROJECT_REGISTRY: Dict[str, Type[ProjectRule]] = {}


def register_project(rule_class: Type[ProjectRule]) -> Type[ProjectRule]:
    """Class decorator adding *rule_class* to :data:`PROJECT_REGISTRY`."""
    if not rule_class.id:
        raise ValueError(f"rule {rule_class.__name__} has no id")
    if rule_class.id in PROJECT_REGISTRY:
        raise ValueError(f"duplicate rule id {rule_class.id}")
    PROJECT_REGISTRY[rule_class.id] = rule_class
    return rule_class


def all_project_rules() -> List[ProjectRule]:
    """Fresh instances of every project rule, in id order."""
    return [PROJECT_REGISTRY[rule_id]() for rule_id in sorted(PROJECT_REGISTRY)]


def run_project_rules(
        summaries: Sequence[ModuleSummary],
        select: Optional[Sequence[str]] = None,
        layers: Optional[LayersConfig] = None) -> List[Finding]:
    """Run W rules over *summaries*; returns unsuppressed findings.

    Args:
        summaries: Every analyzed file (package modules feed the
            graphs; non-package files feed W4's usage census).
        select: Project-rule ids to run (default: all).
        layers: Layering config override (fixtures); defaults to the
            checked-in ``layers.toml``.

    Raises:
        LayersConfigError: if the layering config cannot be loaded.
    """
    if not any(summary.module is not None for summary in summaries):
        return []
    project = ProjectContext(summaries, layers=layers)
    if select is None:
        rules = all_project_rules()
    else:
        rules = [PROJECT_REGISTRY[rule_id]() for rule_id in select
                 if rule_id in PROJECT_REGISTRY]
    by_path = {summary.path: summary for summary in summaries}
    findings: List[Finding] = []
    for rule in rules:
        for finding in rule.check(project):
            summary = by_path.get(finding.path)
            if summary is not None and project.suppressed(
                    summary, finding.line, finding.rule):
                continue
            findings.append(finding)
    return sorted(findings)


# ----------------------------------------------------------------------
# W1 — layering
# ----------------------------------------------------------------------

@register_project
class LayeringRule(ProjectRule):
    """Imports between subpackages must follow the ``layers.toml`` DAG."""

    id = "W1"
    name = "layering"
    description = (
        "imports between top-level repro subpackages must follow the DAG "
        "checked in as analysis/layers.toml (module-load imports use "
        "[layers]; function-scoped imports may also use [deferred] — the "
        "sanctioned cycle-breaking idiom). An edge outside the contract "
        "couples layers the architecture keeps apart.")

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        config = project.layers
        for module in sorted(project.package_modules):
            summary = project.package_modules[module]
            source_pkg = layer_of(module, config)
            if source_pkg is None:
                continue
            if source_pkg not in config.allowed:
                yield self.finding(
                    summary, 1,
                    f"package '{source_pkg}' is not declared in "
                    "layers.toml; add it to [layers] with its allowed "
                    "imports")
                continue
            for edge in summary.imports:
                if edge.target.split(".")[0] != "repro":
                    continue
                for target in resolve_import_targets(
                        edge, project.known_modules):
                    target_pkg = layer_of(target, config)
                    if target_pkg is None or target_pkg == source_pkg:
                        continue
                    if target_pkg in config.allowed[source_pkg]:
                        continue
                    if edge.deferred and target_pkg in \
                            config.deferred.get(source_pkg, ()):
                        continue
                    kind = ("deferred import" if edge.deferred
                            else "module-load import")
                    yield self.finding(
                        summary, edge.line,
                        f"{kind} of '{target}' crosses layers: "
                        f"'{source_pkg}' -> '{target_pkg}' is not an "
                        "allowed edge in layers.toml; invert the "
                        "dependency, move the shared code down a layer, "
                        "or (for a genuine architecture change) amend "
                        "layers.toml and docs/ARCHITECTURE.md together")


# ----------------------------------------------------------------------
# W2 — dropped-parameter flow
# ----------------------------------------------------------------------

#: Flags whose silent loss across a call boundary has already shipped
#: a bug (PR 6's allow_stale) or would change which engine serves a
#: query without any error.
WATCHED_FLAGS: Tuple[str, ...] = ("allow_stale", "engine")


@register_project
class DroppedParameterFlow(ProjectRule):
    """A watched flag accepted by caller and callee must be forwarded."""

    id = "W2"
    name = "dropped-parameter-flow"
    description = (
        "a function that accepts a watched flag (allow_stale / engine) "
        "and calls a callee that also accepts it must "
        "forward it — the PR 6 bug class, where a per-call "
        "allow_stale=False was silently swallowed at a constructor "
        "boundary. Pass the flag through (or suppress with a "
        "justification when dropping it is the point).")

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for module in sorted(project.package_modules):
            summary = project.package_modules[module]
            for func, cls in project.functions_with_class(summary):
                watched = [flag for flag in WATCHED_FLAGS
                           if flag in func.params]
                if not watched:
                    continue
                for call in func.calls:
                    candidates, _ = project.resolve_call(
                        summary, cls, call.callee)
                    if not candidates:
                        continue
                    callees = [project.callable_params(qual)
                               for qual in candidates]
                    resolved = [callee for callee in callees
                                if callee is not None]
                    if not resolved or len(resolved) != len(callees):
                        continue
                    for flag in watched:
                        if not all(callee.accepts(flag)
                                   for callee in resolved):
                            continue
                        if flag in call.keywords or call.has_star_kwargs \
                                or flag in call.arg_names:
                            continue
                        yield self.finding(
                            summary, call.line,
                            f"'{func.qualname}' accepts '{flag}' but calls "
                            f"'{call.callee}' (which also accepts "
                            f"'{flag}') without forwarding it; the "
                            "caller's flag is silently dropped at this "
                            f"boundary — pass {flag}=... through")


# ----------------------------------------------------------------------
# W3 — exception contracts
# ----------------------------------------------------------------------

#: Watched exception → names that catch it (its bases, per
#: repro.errors: StaleSnapshotError < GraphError < ReproError;
#: ConfigurationError < ReproError and < ValueError).
WATCHED_EXCEPTIONS: Mapping[str, FrozenSet[str]] = {
    "StaleSnapshotError": frozenset({
        "StaleSnapshotError", "GraphError", "ReproError", "Exception",
        "BaseException"}),
    "ConfigurationError": frozenset({
        "ConfigurationError", "ReproError", "ValueError", "Exception",
        "BaseException"}),
}

#: Modules whose public functions (and public-class methods) are the
#: serving surface W3 guards.
ENTRY_POINT_MODULES: Tuple[str, ...] = ("repro.api",)

#: Individually named entry points.
ENTRY_POINT_FUNCTIONS: Tuple[str, ...] = (
    "repro.distributed.sharded.ShardedPlatform.serve",)

#: The sanctioned raisers: qualified function → watched exceptions it
#: is documented to raise through the serving surface. Raising one of
#: these is the function's *contract* (StaleSnapshotError is the
#: allow_stale escape hatch; ConfigurationError is constructor
#: validation) — anything NOT listed here that leaks a watched
#: exception to an entry point is a W3 finding.
EXCEPTION_CONTRACTS: Mapping[str, Tuple[str, ...]] = {
    # The allow_stale escape hatch: epoch checks raise unless the
    # caller opted into staleness. Documented in docs/ARCHITECTURE.md
    # ("Epoch-pinned reads") and each docstring's Raises section.
    "repro.graph.snapshot.GraphSnapshot.ensure_fresh":
        ("StaleSnapshotError",),
    "repro.distributed.sharded.ShardedPlatform._check_epochs":
        ("StaleSnapshotError",),
    # Constructor/topology validation on the sharded tier: routing to a
    # shard that owns no nodes, or asking a worker for a landmark list
    # homed elsewhere, is a deployment misconfiguration the caller
    # must see.
    "repro.distributed.sharded.ShardRouter.route":
        ("ConfigurationError",),
    "repro.distributed.sharded.ShardWorker.landmark_vectors":
        ("ConfigurationError",),
}


@register_project
class ExceptionContracts(ProjectRule):
    """Watched exceptions escaping to the API must be contract-listed."""

    id = "W3"
    name = "exception-contracts"
    description = (
        "a StaleSnapshotError or ConfigurationError that can escape from "
        "a function all the way to the serving surface (repro.api / "
        "ShardedPlatform.serve) must be part of that function's declared "
        "contract (EXCEPTION_CONTRACTS in analysis/project.py) or be "
        "handled on the way; an undeclared escape path means callers "
        "meet an exception no docstring promised.")

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        escapes = self._escape_sets(project)
        reachable = self._reachable(project)
        reported: Set[Tuple[str, str]] = set()
        for entry in sorted(self._entry_points(project)):
            for exc_name, origins in sorted(escapes.get(entry, {}).items()):
                for origin in sorted(origins):
                    if origin not in reachable:
                        continue
                    if exc_name in EXCEPTION_CONTRACTS.get(origin, ()):
                        continue
                    if (origin, exc_name) in reported:
                        continue
                    reported.add((origin, exc_name))
                    summary = project.owner.get(origin)
                    func = project.function_index.get(origin)
                    if summary is None or func is None:
                        continue
                    yield self.finding(
                        summary, func.line,
                        f"'{origin}' raises {exc_name} which escapes "
                        f"uncaught to serving entry point '{entry}'; "
                        "declare it in EXCEPTION_CONTRACTS "
                        "(analysis/project.py) if raising is the "
                        "contract, or handle it along the call path")

    def _entry_points(self, project: ProjectContext) -> Set[str]:
        entries: Set[str] = set()
        for module in ENTRY_POINT_MODULES:
            summary = project.package_modules.get(module)
            if summary is None:
                continue
            for func in summary.functions:
                if func.is_public:
                    entries.add(f"{module}.{func.qualname}")
            for cls in summary.classes:
                if not cls.is_public:
                    continue
                for method in cls.methods:
                    if method.is_public:
                        entries.add(f"{module}.{method.qualname}")
        for qual in ENTRY_POINT_FUNCTIONS:
            if qual in project.function_index:
                entries.add(qual)
        return entries

    def _call_edges(self, project: ProjectContext,
                    qual: str) -> List[Tuple["str", Tuple[str, ...]]]:
        """(callee qual, caught names) pairs for one function."""
        summary = project.owner[qual]
        func = project.function_index[qual]
        cls: Optional[ClassSummary] = None
        if "." in func.qualname:
            cls = summary.class_named(func.qualname.split(".")[0])
        edges: List[Tuple[str, Tuple[str, ...]]] = []
        for call in func.calls:
            candidates, _ = project.resolve_call(summary, cls, call.callee)
            for candidate in candidates:
                target = candidate
                if candidate in project.class_index:
                    target = f"{candidate}.__init__"
                if target in project.function_index:
                    edges.append((target, call.caught))
        return edges

    def _escape_sets(
            self, project: ProjectContext
    ) -> Dict[str, Dict[str, Set[str]]]:
        """Fixpoint: function → watched exception → origin functions."""
        escapes: Dict[str, Dict[str, Set[str]]] = {}
        for qual in sorted(project.function_index):
            func = project.function_index[qual]
            direct = {name for name in func.raises
                      if name in WATCHED_EXCEPTIONS}
            if direct:
                escapes[qual] = {name: {qual} for name in sorted(direct)}
        edges = {qual: self._call_edges(project, qual)
                 for qual in sorted(project.function_index)}
        changed = True
        while changed:
            changed = False
            for qual in sorted(project.function_index):
                for callee, caught in edges[qual]:
                    for exc_name, origins in escapes.get(callee, {}).items():
                        if WATCHED_EXCEPTIONS[exc_name] & set(caught):
                            continue
                        bucket = escapes.setdefault(qual, {}).setdefault(
                            exc_name, set())
                        if not origins <= bucket:
                            bucket.update(origins)
                            changed = True
        return escapes

    def _reachable(self, project: ProjectContext) -> Set[str]:
        frontier = sorted(self._entry_points(project))
        seen: Set[str] = set(frontier)
        while frontier:
            qual = frontier.pop()
            for callee, _ in self._call_edges(project, qual):
                if callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        return seen


# ----------------------------------------------------------------------
# W4 — dead public API
# ----------------------------------------------------------------------

#: Qualified names invoked from outside Python (console-script entry
#: points in pyproject.toml), which a reference census cannot see.
_W4_EXTERNAL_ENTRY_POINTS = frozenset({"repro.cli.main"})


@register_project
class DeadPublicApi(ProjectRule):
    """Public top-level names referenced nowhere else are dead API."""

    id = "W4"
    name = "dead-public-api"
    description = (
        "a public top-level function or class referenced nowhere outside "
        "its defining module — façade re-exports in __init__ don't count "
        "— is unreachable from repro.api, the CLI, and the tests: dead "
        "weight that still costs review and mypy time. Delete it, "
        "underscore it, or suppress with a justification. Runs only when "
        "the analyzed set covers the whole package plus at least one "
        "out-of-package file (the tests), so a partial run cannot "
        "mis-flag test-only APIs.")

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        if "repro" not in project.package_modules:
            return
        if not any(summary.module is None
                   for summary in project.all_summaries):
            return
        usage = collect_refs(project.all_summaries)
        for module in sorted(project.package_modules):
            if module.endswith("__main__"):
                continue
            summary = project.package_modules[module]
            for name, line, decorators in self._public_defs(summary):
                qual = f"{module}.{name}"
                if qual in _W4_EXTERNAL_ENTRY_POINTS:
                    continue
                if decorators:
                    # Decorators imply side-effect registration (rule
                    # registries, dataclass factories): reference
                    # counting cannot see those consumers.
                    continue
                referenced = usage.get(name, set()) - {summary.path}
                if referenced:
                    continue
                yield self.finding(
                    summary, line,
                    f"public name '{name}' is referenced nowhere outside "
                    f"{module} (and __init__ re-exports don't count); it "
                    "is unreachable from repro.api, the CLI, and the "
                    "tests — delete it, rename it with a leading "
                    "underscore, or suppress with a justification")

    @staticmethod
    def _public_defs(
            summary: ModuleSummary
    ) -> Iterator[Tuple[str, int, Tuple[str, ...]]]:
        for func in summary.functions:
            if func.is_public:
                yield func.name, func.line, func.decorators
        for cls in summary.classes:
            if cls.is_public:
                yield cls.name, cls.line, cls.decorators
