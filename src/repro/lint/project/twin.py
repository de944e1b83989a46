"""Twin-engine drift model: phase-1 footprints and phase-2 closures.

The repository deliberately ships two implementations of the same
simulation: the **oracle** (``Simulator.handle_segment`` plus the
controller/predictor/memory descent) and the **fast** columnar kernel
(``FastSimulator._replay`` and its helpers), contractually bit-identical.
That contract is enforced dynamically by the crosscheck suite — but a
dynamic check only covers the configurations it runs.  The twin analysis
here makes the *static* halves of the contract checkable:

* every ``SystemConfig`` knob the oracle path reads must be read — or at
  least *named* in an eligibility/fallback check — by the fast engine
  (rule TWIN01), because a knob only the oracle honors silently diverges
  the moment a sweep varies it;
* every ledger tag and counter key the oracle path emits must be written
  by the fast engine's flush (TWIN02), or a fast-path run quietly drops
  a column from ``SimulationResult``;
* every module reachable from either engine must be inside the source
  set that :func:`repro.exec.version.simulation_version` digests for the
  result cache (TWIN03), or editing it would serve stale cached results;
* no tuning constant of the shared gating/break-even arithmetic may be
  spelled as a literal in both engines (TWIN04) — duplicated literals
  are exactly how the two copies drift apart one edit at a time.

Phase 1 (:func:`extract_module_twin`) records per-function footprints in
the picklable :class:`ModuleTwinFacts` carried by each
:class:`~repro.lint.project.summary.ModuleSummary`.  Phase 2
(:class:`TwinAnalysis`) grows both engines' call-graph closures from
their roots and exposes the drift sets the four rules report on.

Deliberate envelope exclusions — oracle behaviour the fast engine
*refuses* rather than reproduces — are documented in source with a
definition-line pragma::

    reasons.append("miss_window > 1")  # mapglint: twin-exempt=hidden_misses

which removes the named field/tag/key from the drift sets, leaving a
greppable record of the decision next to the check that implements it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set,
    Tuple)

from repro.lint.project.dimensions import dotted_name
from repro.lint.project.solver import CallEdge, bfs, path_to
from repro.lint.project.source import read_pragmas, source_segment

#: Bump when the twin-facts layout changes; folded into the cache key so
#: stale pickled summaries can never feed the drift rules.
TWIN_SCHEMA = 1

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: |value| considered structural rather than tuning (loop steps, parity,
#: off-by-one guards) — never evidence of a duplicated constant.
_TRIVIAL_ABS = (0.0, 1.0, 2.0)


@dataclass(frozen=True)
class TwinRead:
    """One attribute read inside a function body."""

    attr: str
    receiver: str              # dotted receiver ("config.l1"), may be ""
    line: int
    col: int


@dataclass(frozen=True)
class TwinConst:
    """One non-trivial numeric literal used as arithmetic/comparison operand."""

    key: str                   # canonical value key ("40503", "0.25")
    text: str                  # literal as spelled ("0x9E37")
    line: int
    col: int                   # 0-based start column of the literal
    end_col: int               # 0-based end column (for --fix edits)


@dataclass(frozen=True)
class FunctionTwinFacts:
    """The twin-relevant footprint of one function or method."""

    qualname: str
    reads: Tuple[TwinRead, ...]
    names: FrozenSet[str]                     # identifier words in strings
    counter_keys: Tuple[Tuple[str, int], ...]  # (key, line)
    result_fields: Tuple[Tuple[str, int], ...]  # SimulationResult(kw=) names
    constants: Tuple[TwinConst, ...]


@dataclass(frozen=True)
class TwinConstDef:
    """A module-level ``NAME = <number>`` definition (an import source)."""

    name: str
    key: str
    line: int


@dataclass(frozen=True)
class TwinStringTuple:
    """A module-level ``NAME = ("a", "b", ...)`` definition."""

    name: str
    values: Tuple[str, ...]
    line: int


@dataclass
class ModuleTwinFacts:
    """Per-module twin footprint, carried inside :class:`ModuleSummary`."""

    functions: List[FunctionTwinFacts] = field(default_factory=list)
    constant_defs: List[TwinConstDef] = field(default_factory=list)
    string_tuples: List[TwinStringTuple] = field(default_factory=list)
    exemptions: Tuple[Tuple[str, int], ...] = ()  # (name, line)


# ---------------------------------------------------------------------------
# Phase 1: extraction
# ---------------------------------------------------------------------------


def _const_value(node: ast.AST) -> Optional[float]:
    """Numeric value of a literal (or unary-negated literal), else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _const_value(node.operand)
        return None if inner is None else -inner
    if isinstance(node, ast.Constant) and \
            isinstance(node.value, (int, float)) and \
            not isinstance(node.value, bool):
        return float(node.value)
    return None


def const_key(value: float) -> str:
    """Canonical key under which 96, 96.0, and 0x60 all compare equal."""
    try:
        if float(value).is_integer():
            return str(int(value))
    except (OverflowError, ValueError):
        pass
    return repr(float(value))


def _literal_span(node: ast.AST) -> Tuple[int, int, int]:
    """(line, col, end_col) of a literal, unary sign included."""
    end = getattr(node, "end_col_offset", None)
    if end is None:
        end = node.col_offset + 1
    return node.lineno, node.col_offset, end


def _is_counter_call(bare: str, receiver: str) -> bool:
    """Whether a call is a counter emission (``x.counters.add`` or a
    bound ``counters_add`` local)."""
    if bare == "add" and "counters" in receiver.rsplit(".", 1)[-1]:
        return True
    return bare.endswith("counters_add")


def _function_twin_facts(qualname: str, func: ast.AST,
                         source: str) -> FunctionTwinFacts:
    reads: List[TwinRead] = []
    seen_reads: Set[Tuple[str, str]] = set()
    names: Set[str] = set()
    counter_keys: List[Tuple[str, int]] = []
    result_fields: List[Tuple[str, int]] = []
    constants: List[TwinConst] = []
    seen_consts: Set[str] = set()

    def note_const(node: ast.AST) -> None:
        value = _const_value(node)
        if value is None or abs(value) in _TRIVIAL_ABS:
            return
        key = const_key(value)
        if key in seen_consts:
            return
        seen_consts.add(key)
        line, col, end_col = _literal_span(node)
        text = source_segment(source, node) or key
        constants.append(TwinConst(key=key, text=text, line=line,
                                   col=col, end_col=end_col))

    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            dedup = (node.attr, dotted_name(node.value))
            if dedup not in seen_reads:
                seen_reads.add(dedup)
                reads.append(TwinRead(attr=node.attr, receiver=dedup[1],
                                      line=node.lineno,
                                      col=node.col_offset + 1))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(_WORD_RE.findall(node.value))
        elif isinstance(node, ast.BinOp):
            note_const(node.left)
            note_const(node.right)
        elif isinstance(node, ast.AugAssign):
            note_const(node.value)
        elif isinstance(node, ast.Compare):
            note_const(node.left)
            for comparator in node.comparators:
                note_const(comparator)
        elif isinstance(node, ast.Call):
            func_node = node.func
            if isinstance(func_node, ast.Attribute):
                bare = func_node.attr
                receiver = dotted_name(func_node.value)
            elif isinstance(func_node, ast.Name):
                bare, receiver = func_node.id, ""
            else:
                continue
            if _is_counter_call(bare, receiver) and node.args and \
                    isinstance(node.args[0], ast.Constant) and \
                    isinstance(node.args[0].value, str):
                counter_keys.append((node.args[0].value, node.lineno))
            elif bare == "_flush_counters":
                # Pairs tuple: (("accesses", n), ("hits", m), ...) — the
                # first element of each inner tuple is the counter key.
                for arg in node.args:
                    for sub in ast.walk(arg):
                        if isinstance(sub, ast.Tuple) and sub.elts and \
                                isinstance(sub.elts[0], ast.Constant) and \
                                isinstance(sub.elts[0].value, str):
                            counter_keys.append(
                                (sub.elts[0].value, sub.lineno))
            elif bare == "SimulationResult":
                for keyword in node.keywords:
                    if keyword.arg:
                        result_fields.append((keyword.arg, node.lineno))

    return FunctionTwinFacts(
        qualname=qualname,
        reads=tuple(reads),
        names=frozenset(names),
        counter_keys=tuple(counter_keys),
        result_fields=tuple(result_fields),
        constants=tuple(constants),
    )


def extract_module_twin(path: str, source: str,
                        tree: ast.Module) -> ModuleTwinFacts:
    """Build the twin footprint of one parsed module (phase 1)."""
    norm = path.replace("\\", "/")
    facts = ModuleTwinFacts(exemptions=read_pragmas(source).twin_exempt)

    # Mirror extract_summary's walk so qualnames line up with FunctionInfo:
    # nested defs get their own entries under the same class name.
    def walk_body(body: Sequence[ast.stmt], class_name: str = "") -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{class_name}.{stmt.name}" if class_name else stmt.name
                facts.functions.append(_function_twin_facts(
                    f"{norm}::{qual}", stmt, source))
                nested = [s for s in stmt.body
                          if isinstance(s, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))]
                if nested:
                    walk_body(nested, class_name=class_name)
            elif isinstance(stmt, ast.ClassDef):
                walk_body(stmt.body, class_name=stmt.name)

    walk_body(tree.body)

    for stmt in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if len(targets) != 1 or not isinstance(targets[0], ast.Name) or \
                value is None:
            continue
        name = targets[0].id
        number = _const_value(value)
        if number is not None:
            facts.constant_defs.append(TwinConstDef(
                name=name, key=const_key(number), line=stmt.lineno))
        elif isinstance(value, ast.Tuple) and value.elts and all(
                isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                for elt in value.elts):
            facts.string_tuples.append(TwinStringTuple(
                name=name,
                values=tuple(elt.value for elt in value.elts),
                line=stmt.lineno))

    return facts


# ---------------------------------------------------------------------------
# Phase 2: the two closures and their drift sets
# ---------------------------------------------------------------------------

#: Where the oracle's simulation semantics start: the per-segment handler
#: plus the core models that generate the segments it consumes.
ORACLE_ROOT_SUFFIXES = (
    "repro/sim/simulator.py::Simulator.handle_segment",
    "repro/sim/simulator.py::Simulator._handle_busy",
    "repro/sim/simulator.py::Simulator._handle_stall",
    "repro/cpu/core.py::Core.segments",
    "repro/cpu/window.py::WindowedCore.segments",
)

#: Module path suffix defining the SystemConfig tree (mirrors CFG01).
CONFIG_MODULE_SUFFIX = "repro/config.py"

#: Module whose ``_EXCLUDED_DIRS`` tuple defines what the simulation-source
#: digest (ResultCache keying) deliberately skips.
DIGEST_MODULE_SUFFIX = "repro/exec/version.py"
DIGEST_EXCLUDED_NAME = "_EXCLUDED_DIRS"


def is_fastsim_path(path: str) -> bool:
    """Whether a normalized path lies inside the fast engine's package."""
    return "fastsim" in path.replace("\\", "/").split("/")


def _is_delegation_receiver(receiver: str) -> bool:
    """Whether a call edge goes through the wrapped oracle simulator.

    ``FastSimulator`` holds the real :class:`Simulator` as ``self.sim``
    and *delegates* to it on ineligible configurations (``self.sim.run``,
    ``sim.warm_up``).  Those edges are the fallback boundary, not the
    fast path — following them would fold the whole oracle into the fast
    closure and make every drift set vacuously empty.
    """
    return receiver in ("sim", "self.sim") or \
        receiver.startswith("sim.") or receiver.startswith("self.sim.")


@dataclass(frozen=True)
class ConfigFieldInfo:
    """One SystemConfig-tree field with its definition site."""

    class_name: str
    path: str
    line: int
    line_text: str


class TwinAnalysis:
    """Both engines' closures over the name-resolved call graph.

    Closure growth is deliberately *over*-approximate where the effect
    engine is under-approximate: a call site follows **all** same-named
    candidates (not only unambiguous ones), because a missed reachable
    function hides drift while an extra one merely widens the shared
    set.  BFS parents are kept so findings can name the root-to-sink
    chain on both engine sides.
    """

    def __init__(self, model: "object") -> None:
        self._model = model
        self._facts: Dict[str, FunctionTwinFacts] = {}
        self._exemptions: Dict[str, List[Tuple[str, int]]] = {}
        for summary in model.summaries:  # type: ignore[attr-defined]
            twin = getattr(summary, "twin", None)
            if twin is None:
                continue
            for fn_facts in twin.functions:
                self._facts[fn_facts.qualname] = fn_facts
            for name, line in twin.exemptions:
                self._exemptions.setdefault(name, []).append(
                    (summary.path, line))

        oracle_roots = [
            qualname
            for qualname in model.functions_by_qualname  # type: ignore
            if any(qualname.endswith(suffix)
                   for suffix in ORACLE_ROOT_SUFFIXES)]
        fast_roots = [
            info.qualname
            for summary in model.summaries  # type: ignore[attr-defined]
            if is_fastsim_path(summary.path)
            for info in summary.functions
            if info.name != "<module>"]

        self.oracle_parents = self._closure(oracle_roots,
                                            cut_delegation=False)
        self.fast_parents = self._closure(fast_roots, cut_delegation=True)
        self.oracle_functions: FrozenSet[str] = frozenset(self.oracle_parents)
        self.fast_functions: FrozenSet[str] = frozenset(self.fast_parents)
        self.oracle_exclusive: FrozenSet[str] = \
            self.oracle_functions - self.fast_functions

    # -- closure growth ----------------------------------------------------

    def _closure(self, roots: Iterable[str],
                 cut_delegation: bool) -> Dict[str, Optional[str]]:
        """BFS over resolved call edges; maps member -> BFS parent."""
        edges: Dict[str, Tuple[CallEdge, ...]] = \
            self._model.edges  # type: ignore[attr-defined]
        return bfs(sorted(roots), lambda caller: (
            edge.callee for edge in edges.get(caller, ())
            if not (cut_delegation and
                    _is_delegation_receiver(edge.receiver))))

    def chain(self, qualname: str,
              parents: Dict[str, Optional[str]]) -> List[str]:
        """Root-to-``qualname`` path through the BFS parent pointers."""
        return path_to(parents, qualname)

    def describe_chain(self, qualname: str,
                       parents: Dict[str, Optional[str]]) -> str:
        """Human-readable ``root -> ... -> sink`` using short names."""
        return " -> ".join(q.rsplit("::", 1)[-1]
                           for q in self.chain(qualname, parents))

    # -- facts lookups -----------------------------------------------------

    def facts_for(self, qualname: str) -> Optional[FunctionTwinFacts]:
        return self._facts.get(qualname)

    @staticmethod
    def module_of(qualname: str) -> str:
        return qualname.rsplit("::", 1)[0]

    def closure_modules(self) -> Dict[str, str]:
        """Module path -> one member qualname, over both closures."""
        modules: Dict[str, str] = {}
        for qualname in sorted(self.oracle_functions | self.fast_functions):
            modules.setdefault(self.module_of(qualname), qualname)
        return modules

    def exempt_names(self) -> FrozenSet[str]:
        """Names excluded from the drift sets by twin-exempt pragmas."""
        return frozenset(self._exemptions)

    def config_fields(self) -> Dict[str, ConfigFieldInfo]:
        """SystemConfig-tree field names with their definition sites."""
        fields: Dict[str, ConfigFieldInfo] = {}
        for path, info in self._model.dataclasses:  # type: ignore
            if not path.endswith(CONFIG_MODULE_SUFFIX):
                continue
            for field_info in info.fields:
                fields.setdefault(field_info.name, ConfigFieldInfo(
                    class_name=info.name, path=path, line=field_info.line,
                    line_text=field_info.line_text))
        return fields

    # -- fast-engine aggregates --------------------------------------------

    def _facts_in(self, qualnames: Iterable[str],
                  fastsim: Optional[bool] = None
                  ) -> Iterator[Tuple[str, FunctionTwinFacts]]:
        """``(qualname, facts)`` of the members that have facts; with
        ``fastsim`` set, only members inside (True) or outside (False)
        the fast engine's package."""
        for qualname in qualnames:
            facts = self._facts.get(qualname)
            if facts is not None and fastsim in (
                    None, is_fastsim_path(self.module_of(qualname))):
                yield qualname, facts

    def fast_attr_reads(self) -> FrozenSet[str]:
        """Every attribute name read anywhere in the fast closure."""
        return frozenset(read.attr
                         for _, facts in self._facts_in(self.fast_functions)
                         for read in facts.reads)

    def fastsim_names(self) -> FrozenSet[str]:
        """Identifier words in string literals of fastsim-module functions.

        Restricted to the fast engine's *own* source so that a config
        field is only considered "named in the eligibility check" when
        the kernel itself spells it out (e.g. a fallback reason string),
        not when some shared helper happens to mention it.
        """
        return frozenset(name for _, facts in
                         self._facts_in(self.fast_functions, fastsim=True)
                         for name in facts.names)

    def fast_ledger_tags(self) -> FrozenSet[str]:
        """PowerState members the fast closure touches (flush writes)."""
        return frozenset(read.attr
                         for _, facts in self._facts_in(self.fast_functions)
                         for read in facts.reads if _is_powerstate_read(read))

    def fast_counter_keys(self) -> FrozenSet[str]:
        return frozenset(key
                         for _, facts in self._facts_in(self.fast_functions)
                         for key, _ in facts.counter_keys)

    def fast_result_fields(self) -> FrozenSet[str]:
        return frozenset(name
                         for _, facts in self._facts_in(self.fast_functions)
                         for name, _ in facts.result_fields)

    def _constants(self, qualnames: Iterable[str], fastsim: bool
                   ) -> Dict[str, Tuple[str, TwinConst]]:
        constants: Dict[str, Tuple[str, TwinConst]] = {}
        for qualname, facts in self._facts_in(sorted(qualnames), fastsim):
            for const in facts.constants:
                constants.setdefault(const.key, (qualname, const))
        return constants

    def fastsim_constants(self) -> Dict[str, Tuple[str, TwinConst]]:
        """Value key -> (qualname, literal) over fastsim-module functions."""
        return self._constants(self.fast_functions, fastsim=True)

    def oracle_constants(self) -> Dict[str, Tuple[str, TwinConst]]:
        """Value key -> (qualname, literal) over the oracle's own source.

        The oracle side of a duplicated constant may well live in a
        function *shared* with the fast closure (the kernel inlines the
        policy update rules but still calls ``decide`` through the real
        controller), so this aggregates over the full oracle closure
        minus fastsim modules — not over the exclusive set.
        """
        return self._constants(self.oracle_functions, fastsim=False)

    def shared_constant_defs(self) -> Dict[str, Tuple[str, TwinConstDef]]:
        """Value key -> (module path, def) over non-fastsim module-level
        numeric definitions — the import sources a TWIN04 fix hoists to."""
        defs: Dict[str, Tuple[str, TwinConstDef]] = {}
        for summary in self._model.summaries:  # type: ignore[attr-defined]
            twin = getattr(summary, "twin", None)
            if twin is None or is_fastsim_path(summary.path):
                continue
            for const_def in twin.constant_defs:
                defs.setdefault(const_def.key, (summary.path, const_def))
        return defs

    # -- digest configuration ----------------------------------------------

    def digest_excluded_dirs(self) -> Optional[Tuple[Tuple[str, ...],
                                                     str, int]]:
        """``(_EXCLUDED_DIRS, defining path, line)`` or None if absent."""
        for summary in self._model.summaries:  # type: ignore[attr-defined]
            if not summary.path.endswith(DIGEST_MODULE_SUFFIX):
                continue
            twin = getattr(summary, "twin", None)
            if twin is None:
                continue
            for string_tuple in twin.string_tuples:
                if string_tuple.name == DIGEST_EXCLUDED_NAME:
                    return (string_tuple.values, summary.path,
                            string_tuple.line)
        return None


def _is_powerstate_read(read: TwinRead) -> bool:
    return read.receiver.rsplit(".", 1)[-1] == "PowerState" and \
        read.attr.isupper()
