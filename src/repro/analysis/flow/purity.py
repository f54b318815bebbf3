"""REPRO010: fast kernels must stay on the batch path.

The columnar round kernel and the ``vectorized_sweep`` earn their
speedups by replacing the per-subject object path (one ``respond``/
``realize_feedback``/``rating_deviation`` call and one generator draw
per subject) with stacked numpy operations.  The equivalence contracts
guarantee *correctness* of that split but not *performance*: nothing
stops a later edit from quietly re-introducing an O(population) Python
loop of scalar calls inside the fast kernel, which keeps tests green
while silently regressing the round cost back to the object path.

This pass flags, inside registered fast kernels and batch helpers:

* scalar object-path calls (``agent.respond(...)``,
  ``.realize_feedback(...)``, ``.rating_deviation(...)``,
  ``solve_best_response(...)``, ...) under any loop or comprehension;
* per-element generator draws (``rng.normal(...)`` under a loop) —
  fast kernels draw one stacked block per round;
* construction of designer-layer objects (``Contract``,
  ``PiecewiseLinear``, ...) inside loops over populations.

Columnar kernels (the ``fast_columnar_step`` family — any registered
kernel with ``columnar`` in its name) are held to a stricter
standard still: indexing the lazy ``.agents``/``.subproblems`` views
(``population.agents[...]``) materializes one Python object per subject,
and reading ``.effort_function``/``.params`` inside a loop re-routes the
psi coefficients and worker parameters through object attribute dispatch
— both defeat the structure-of-arrays layout even when no scalar call is
made, so the pass flags them in columnar kernels specifically.

Loops over fixed small structures (contract pieces, partitions) are
fine; only population-shaped iteration is held to the batch discipline.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from ..engine import Diagnostic
from .base import FlowPass
from .index import FunctionInfo, ProjectIndex, rng_parameter_names

__all__ = ["PurityPass"]

#: Scalar object-path calls that have batched counterparts (or are the
#: per-subject solve the fast path exists to avoid).
_SCALAR_CALLS: Tuple[str, ...] = (
    "respond",
    "realize_feedback",
    "rating_deviation",
    "pay_for_feedback",
    "solve_best_response",
    "build_candidate",
    "as_feedback_function",
)

#: Designer-layer classes whose per-element construction inside a
#: population loop marks a regression to the object path.
_DESIGN_CLASSES: Tuple[str, ...] = (
    "Contract",
    "CandidateContract",
    "PiecewiseLinear",
    "ContractDesigner",
)

#: Lazy per-subject views whose subscripting inside a columnar kernel
#: materializes one Python object per subject.
_COLUMNAR_VIEW_ATTRS: Tuple[str, ...] = (
    "agents",
    "subproblems",
)

#: Object attributes whose per-element load inside a columnar-kernel
#: loop regresses the psi/parameter reads to attribute dispatch.
_COLUMNAR_OBJECT_ATTRS: Tuple[str, ...] = (
    "effort_function",
    "params",
)

#: Substrings of a loop iterable that mark it as population-shaped.
_POPULATION_HINTS: Tuple[str, ...] = (
    "population",
    "subproblem",
    "agents",
    "subjects",
    "workers",
)


class PurityPass(FlowPass):
    """Flag object-path regressions inside registered fast kernels."""

    code = "REPRO010"
    name = "fast-path-purity"
    summary = "fast kernels must not loop scalar object-path work over populations"
    rationale = (
        "Fast kernels (fast_*/vectorized_* functions and workers/ *_batch\n"
        "helpers) replace the per-subject object path with stacked numpy\n"
        "kernels; the require_*_agree contracts pin their results to the\n"
        "legacy path bit-for-bit, so a per-subject Python loop of scalar\n"
        "calls (agent.respond, realize_feedback, rating_deviation,\n"
        "solve_best_response, ...), a per-element generator draw, or\n"
        "designer-object construction inside a population loop keeps every\n"
        "test green while regressing the round cost back to O(population)\n"
        "Python dispatch.  Columnar kernels additionally must not index\n"
        "the lazy .agents/.subproblems views or read\n"
        ".effort_function/.params per element — the columns ARE that\n"
        "data.  Such work belongs in the legacy kernel or a batched\n"
        "helper.  Deliberate scalar fallbacks (e.g. one memoized solve per\n"
        "archetype) carry `# noqa: REPRO010` with a justifying comment."
    )

    def check(self, index: ProjectIndex) -> Iterator[Diagnostic]:
        """Scan every registered fast kernel and batch helper."""
        kernels: List[FunctionInfo] = [
            *index.fast_kernels(),
            *index.batch_helpers(),
        ]
        for fn in kernels:
            rng_names = rng_parameter_names(fn.node)
            findings: List[Diagnostic] = []
            self._scan(index, fn, fn.node, rng_names, 0, 0, findings)
            yield from findings

    def _scan(
        self,
        index: ProjectIndex,
        fn: FunctionInfo,
        node: ast.AST,
        rng_names: Set[str],
        loop_depth: int,
        population_depth: int,
        out: List[Diagnostic],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.For, ast.AsyncFor)):
                self._scan(index, fn, child.iter, rng_names, loop_depth, population_depth, out)
                self._scan(index, fn, child.target, rng_names, loop_depth, population_depth, out)
                inner_pop = population_depth + (1 if _is_population_iter(child.iter) else 0)
                for stmt in [*child.body, *child.orelse]:
                    self._scan(index, fn, stmt, rng_names, loop_depth + 1, inner_pop, out)
            elif isinstance(child, ast.While):
                self._scan(index, fn, child.test, rng_names, loop_depth, population_depth, out)
                for stmt in [*child.body, *child.orelse]:
                    self._scan(index, fn, stmt, rng_names, loop_depth + 1, population_depth, out)
            elif isinstance(child, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                inner_pop = population_depth
                for comp in child.generators:
                    self._scan(index, fn, comp.iter, rng_names, loop_depth, population_depth, out)
                    if _is_population_iter(comp.iter):
                        inner_pop += 1
                elements: List[ast.AST] = []
                if isinstance(child, ast.DictComp):
                    elements = [child.key, child.value]
                else:
                    elements = [child.elt]
                for comp in child.generators:
                    elements.extend(comp.ifs)
                for element in elements:
                    self._scan(index, fn, element, rng_names, loop_depth + 1, inner_pop, out)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Nested defs are separate kernels only if registered.
                continue
            else:
                if isinstance(child, ast.Call):
                    self._check_call(index, fn, child, rng_names, loop_depth, population_depth, out)
                if "columnar" in fn.name:
                    self._check_columnar(index, fn, child, loop_depth, out)
                self._scan(index, fn, child, rng_names, loop_depth, population_depth, out)

    def _check_columnar(
        self,
        index: ProjectIndex,
        fn: FunctionInfo,
        node: ast.AST,
        loop_depth: int,
        out: List[Diagnostic],
    ) -> None:
        """Columnar kernels must read columns, not per-subject objects."""
        if isinstance(node, ast.Subscript):
            value = node.value
            if (
                isinstance(value, ast.Attribute)
                and value.attr in _COLUMNAR_VIEW_ATTRS
            ):
                out.append(
                    self.diagnostic(
                        index,
                        fn.relpath,
                        node,
                        f"columnar kernel `{fn.qualname}` indexes the lazy "
                        f"`.{value.attr}` view per subject; read the "
                        "population columns instead",
                        context=fn.qualname,
                    )
                )
        elif (
            loop_depth > 0
            and isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr in _COLUMNAR_OBJECT_ATTRS
        ):
            out.append(
                self.diagnostic(
                    index,
                    fn.relpath,
                    node,
                    f"columnar kernel `{fn.qualname}` reads `.{node.attr}` "
                    "per element inside a loop; psi coefficients and worker "
                    "parameters are columns",
                    context=fn.qualname,
                )
            )

    def _check_call(
        self,
        index: ProjectIndex,
        fn: FunctionInfo,
        call: ast.Call,
        rng_names: Set[str],
        loop_depth: int,
        population_depth: int,
        out: List[Diagnostic],
    ) -> None:
        func = call.func
        if loop_depth > 0 and isinstance(func, ast.Attribute):
            if func.attr in _SCALAR_CALLS:
                out.append(
                    self.diagnostic(
                        index,
                        fn.relpath,
                        call,
                        f"fast kernel `{fn.qualname}` calls scalar `{func.attr}(...)` "
                        "inside a loop; use the batched path",
                        context=fn.qualname,
                    )
                )
                return
            root = func.value
            if isinstance(root, ast.Name) and root.id in rng_names:
                out.append(
                    self.diagnostic(
                        index,
                        fn.relpath,
                        call,
                        f"fast kernel `{fn.qualname}` draws `{root.id}.{func.attr}(...)` "
                        "per element inside a loop; draw one stacked block instead",
                        context=fn.qualname,
                    )
                )
                return
        if loop_depth > 0 and isinstance(func, ast.Name) and func.id in _SCALAR_CALLS:
            out.append(
                self.diagnostic(
                    index,
                    fn.relpath,
                    call,
                    f"fast kernel `{fn.qualname}` calls scalar `{func.id}(...)` "
                    "inside a loop; use the batched path",
                    context=fn.qualname,
                )
            )
            return
        if (
            population_depth > 0
            and isinstance(func, ast.Name)
            and func.id in _DESIGN_CLASSES
        ):
            out.append(
                self.diagnostic(
                    index,
                    fn.relpath,
                    call,
                    f"fast kernel `{fn.qualname}` constructs `{func.id}` per element "
                    "of a population loop; build arrays and assemble outside",
                    context=fn.qualname,
                )
            )


def _is_population_iter(iterable: ast.AST) -> bool:
    """Whether a loop iterable looks population-shaped.

    Matches on name hints (``population``, ``subproblems``, ``agents``,
    ...) anywhere in the unparsed iterable expression, so
    ``population.subproblems.items()`` and ``zip(agents, contracts)``
    both count while ``range(1, n_pieces + 1)`` does not.
    """
    try:
        text = ast.unparse(iterable)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return False
    lowered = text.lower()
    return any(hint in lowered for hint in _POPULATION_HINTS)
