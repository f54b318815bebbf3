"""Whole-program AST/symbol index backing the cross-module flow passes.

The per-file rules in :mod:`repro.analysis.rules` see one module at a
time; the disciplines introduced by the fast/legacy kernel split —
pinned RNG draw order, equivalence contracts, lock-guarded serving
state — are *cross-module* properties.  :class:`ProjectIndex` parses an
entire source tree once, keys every module by its package-relative path,
and exposes the symbol-level views (functions by qualname, kernel
registries discovered by naming convention, referenced-name sets, test
sources) that the REPRO010–REPRO013 passes consume.

Kernel discovery follows the repository's conventions:

* fast kernels are module-level functions named ``fast_*`` or
  ``vectorized_*``;
* each fast kernel's reference twin is the ``legacy_*`` function with
  the same stem in the same module (a ``fast_columnar_*`` kernel's stem
  drops ``columnar_``: its reference is the object loop);
* batch helpers are ``*_batch`` functions (or static methods) inside
  ``workers/`` modules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..engine import LintContext, package_relative

__all__ = [
    "BATCH_HELPER_SUFFIX",
    "FAST_KERNEL_PREFIXES",
    "LEGACY_KERNEL_PREFIX",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "legacy_twin_name",
    "ordered_calls",
    "referenced_names",
    "rng_parameter_names",
]

#: Module-level functions with these name prefixes are fast kernels.
FAST_KERNEL_PREFIXES: Tuple[str, ...] = ("fast_", "vectorized_")

#: The reference twin of a fast kernel carries this prefix.
LEGACY_KERNEL_PREFIX: str = "legacy_"

#: Dropped from a columnar kernel's stem to name its object-loop twin.
COLUMNAR_INFIX: str = "columnar_"

#: Batch helpers in ``workers/`` modules end with this suffix.
BATCH_HELPER_SUFFIX: str = "_batch"

#: Parameter names treated as numpy generators for draw extraction.
_RNG_PARAM_NAMES = ("rng",)
_RNG_PARAM_SUFFIX = "_rng"


@dataclass(frozen=True)
class FunctionInfo:
    """One function (or method) definition somewhere in the tree."""

    relpath: str
    qualname: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef

    @property
    def name(self) -> str:
        """The bare (unqualified) function name."""
        return getattr(self.node, "name", "")

    @property
    def key(self) -> str:
        """Stable cross-module identity, ``relpath::qualname``."""
        return f"{self.relpath}::{self.qualname}"


@dataclass
class ModuleInfo:
    """One parsed module plus its symbol table."""

    ctx: LintContext
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)

    @property
    def relpath(self) -> str:
        """Package-relative path of the module."""
        return self.ctx.relpath


class ProjectIndex:
    """Parsed view of a whole source tree for cross-module analysis."""

    def __init__(self, modules: Dict[str, ModuleInfo], package_root: Optional[Path]) -> None:
        self.modules = modules
        self.package_root = package_root
        self._repo_root: Optional[Path] = None
        self._test_sources: Optional[Dict[Path, str]] = None

    @classmethod
    def build(cls, paths: Sequence[Path]) -> "ProjectIndex":
        """Parse every ``.py`` file under ``paths`` into one index.

        Unparsable files are skipped — the per-file engine already
        reports them as ``REPRO000``, and a flow pass cannot reason
        about a module it cannot parse.
        """
        modules: Dict[str, ModuleInfo] = {}
        files = list(_iter_files(paths))
        for path in files:
            try:
                source = path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=str(path))
            except (SyntaxError, UnicodeDecodeError, OSError):
                continue
            ctx = LintContext(
                path=path,
                relpath=package_relative(path),
                tree=tree,
                source=source,
            )
            info = ModuleInfo(ctx=ctx)
            _collect_functions(tree, ctx.relpath, info.functions)
            modules[ctx.relpath] = info
        return cls(modules=modules, package_root=_package_root(files))

    def functions(self) -> Iterator[FunctionInfo]:
        """Every function/method definition across all indexed modules."""
        for info in self.modules.values():
            yield from info.functions.values()

    def module_functions(self, relpath: str) -> Dict[str, FunctionInfo]:
        """Functions of one module (empty when the module is absent)."""
        info = self.modules.get(relpath)
        return info.functions if info is not None else {}

    def fast_kernels(self) -> List[FunctionInfo]:
        """Module-level ``fast_*``/``vectorized_*`` functions."""
        return [
            fn
            for fn in self.functions()
            if "." not in fn.qualname and fn.name.startswith(FAST_KERNEL_PREFIXES)
        ]

    def legacy_kernels(self) -> List[FunctionInfo]:
        """Module-level ``legacy_*`` reference kernels."""
        return [
            fn
            for fn in self.functions()
            if "." not in fn.qualname and fn.name.startswith(LEGACY_KERNEL_PREFIX)
        ]

    def batch_helpers(self) -> List[FunctionInfo]:
        """``*_batch`` helpers defined under ``workers/``."""
        return [
            fn
            for fn in self.functions()
            if fn.relpath.startswith("workers/") and fn.name.endswith(BATCH_HELPER_SUFFIX)
        ]

    @property
    def repo_root(self) -> Optional[Path]:
        """Nearest ancestor of the package root that looks like a repo.

        A directory qualifies when it carries a ``pyproject.toml`` or
        ``.git`` marker or contains a ``tests`` directory.  Used to
        locate the test/benchmark trees for coverage checks.
        """
        if self._repo_root is None and self.package_root is not None:
            root = self.package_root
            for directory in [root, *root.parents]:
                if (
                    (directory / "pyproject.toml").is_file()
                    or (directory / ".git").exists()
                    or (directory / "tests").is_dir()
                ):
                    self._repo_root = directory
                    break
        return self._repo_root

    def test_sources(self) -> Dict[Path, str]:
        """Source text of every ``.py`` file under ``<repo>/tests``.

        Read lazily once per index; used for the "a test references both
        kernel paths" coverage checks.  Benchmarks count too — a
        contract exercised only from ``benchmarks/`` is still exercised.
        """
        if self._test_sources is None:
            sources: Dict[Path, str] = {}
            root = self.repo_root
            if root is not None:
                for name in ("tests", "benchmarks"):
                    tree = root / name
                    if tree.is_dir():
                        for path in sorted(tree.rglob("*.py")):
                            try:
                                sources[path] = path.read_text(encoding="utf-8")
                            except (UnicodeDecodeError, OSError):
                                continue
            self._test_sources = sources
        return self._test_sources


def legacy_twin_name(fast_name: str) -> str:
    """The expected ``legacy_*`` twin of a fast kernel name.

    A columnar kernel's reference is the object loop over its lazy
    views: ``fast_columnar_step`` pairs with ``legacy_step``.
    """
    for prefix in FAST_KERNEL_PREFIXES:
        if fast_name.startswith(prefix):
            stem = fast_name[len(prefix):].removeprefix(COLUMNAR_INFIX)
            return LEGACY_KERNEL_PREFIX + stem
    return LEGACY_KERNEL_PREFIX + fast_name


def rng_parameter_names(fn: ast.AST) -> Set[str]:
    """Parameter names of ``fn`` that carry a numpy generator.

    Matches by convention: a parameter named ``rng`` or ending in
    ``_rng``.  (Annotations are not required on internal helpers, so a
    purely syntactic convention keeps the pass dependency-free.)
    """
    names: Set[str] = set()
    args = getattr(fn, "args", None)
    if args is None:
        return names
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if arg.arg in _RNG_PARAM_NAMES or arg.arg.endswith(_RNG_PARAM_SUFFIX):
            names.add(arg.arg)
    return names


def ordered_calls(fn: ast.AST) -> List[ast.Call]:
    """Every :class:`ast.Call` inside ``fn`` in source order.

    ``ast.walk`` is breadth-first; draw-order extraction needs calls in
    the order the interpreter reaches them, so sort by position.
    """
    calls = [node for node in ast.walk(fn) if isinstance(node, ast.Call)]
    calls.sort(key=lambda c: (c.lineno, c.col_offset))
    return calls


def referenced_names(fn: ast.AST) -> Set[str]:
    """All bare :class:`ast.Name` identifiers read or written in ``fn``."""
    return {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}


def _collect_functions(
    tree: ast.Module, relpath: str, out: Dict[str, FunctionInfo]
) -> None:
    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = child.name if not scope else f"{scope}.{child.name}"
                out[qualname] = FunctionInfo(relpath=relpath, qualname=qualname, node=child)
                visit(child, qualname)
            elif isinstance(child, ast.ClassDef):
                qualname = child.name if not scope else f"{scope}.{child.name}"
                visit(child, qualname)
            else:
                visit(child, scope)

    visit(tree, "")


def _package_root(files: Sequence[Path]) -> Optional[Path]:
    """The innermost ``repro`` package directory containing the files.

    Falls back to the deepest common parent when the tree is not a
    ``repro`` package (ad-hoc fixture trees under pytest tmpdirs).
    """
    for path in files:
        parts = path.resolve().parent.parts
        if "repro" in parts:
            index = len(parts) - 1 - parts[::-1].index("repro")
            return Path(*parts[: index + 1])
    if not files:
        return None
    common = files[0].resolve().parent
    for path in files[1:]:
        resolved = path.resolve()
        while common not in resolved.parents and common != resolved.parent:
            common = common.parent
    return common


def _iter_files(paths: Iterable[Path]) -> Iterator[Path]:
    seen = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            try:
                key = candidate.resolve()
            except OSError:  # pragma: no cover - filesystem race
                key = candidate
            if key not in seen:
                seen.add(key)
                yield candidate
