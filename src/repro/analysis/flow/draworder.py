"""REPRO011: RNG draw order in kernels must match the checked-in manifest.

The kernel/oracle equivalence proof (docs/PERFORMANCE.md, "The RNG
draw-order guarantee") rests on both kernels consuming generator draws
in exactly the same order: per round, subjects in ``population.
subproblems`` order, feedback draw before rating draw, zero-noise and
excluded subjects consuming nothing.  ``fast_columnar_step`` compresses
all of that into one ``standard_normal`` block, so *any* new, removed or
reordered generator call in either kernel silently changes every
downstream realization while each path remains internally consistent —
the worst kind of drift, invisible to most tests.

This pass extracts every generator-consuming call site from each
rng-taking kernel (direct ``rng.method(...)`` draws and calls that
*forward* the generator, e.g. ``agent.realize_feedback(effort,
rng=rng)``) in source order, and compares the sequence against the
checked-in manifest ``analysis/draw_order.toml``.  Changing a kernel's
draw behaviour therefore requires touching the manifest — and the
manifest names the regression test that must reference every manifested
kernel, so the test is updated in the same commit.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from ..engine import Diagnostic
from .base import FlowPass
from .index import (
    FAST_KERNEL_PREFIXES,
    LEGACY_KERNEL_PREFIX,
    FunctionInfo,
    ProjectIndex,
    ordered_calls,
    rng_parameter_names,
)

__all__ = [
    "DrawOrderManifest",
    "DrawOrderPass",
    "DrawSite",
    "extract_draw_order",
    "load_manifest",
    "manifest_path",
]

_MANIFEST_RELPATH = ("analysis", "draw_order.toml")


@dataclass(frozen=True)
class DrawSite:
    """One generator-consuming call site inside a kernel."""

    #: ``rng.standard_normal`` sites record the method name; calls that
    #: forward the generator (``agent.realize_feedback(..., rng=rng)``)
    #: record the callee name.
    name: str
    node: ast.Call


@dataclass(frozen=True)
class DrawOrderManifest:
    """Parsed ``draw_order.toml``: pinned draw sequences per kernel."""

    kernels: Dict[str, Tuple[str, ...]]
    regression_test: Optional[str] = None


class DrawOrderPass(FlowPass):
    """Check kernel draw sequences against ``analysis/draw_order.toml``."""

    code = "REPRO011"
    name = "rng-draw-order"
    summary = "generator draws in fast/legacy kernels must match analysis/draw_order.toml"
    rationale = (
        "Fast and legacy kernels are bit-equal only because they consume\n"
        "generator draws in an identical pinned order (subjects in\n"
        "population.subproblems order, feedback before rating, non-drawing\n"
        "subjects consuming nothing; fast_columnar_step collapses the round\n"
        "into one standard_normal block).  A new, removed or reordered rng.*\n"
        "call shifts every later draw and silently changes all downstream\n"
        "realizations.  Every rng-taking fast_*/vectorized_*/legacy_* kernel\n"
        "therefore has its draw sequence pinned in analysis/draw_order.toml;\n"
        "changing draw behaviour requires updating the manifest and the\n"
        "regression test it names (tests/simulation/test_rng_order.py) in\n"
        "the same commit."
    )

    def check(self, index: ProjectIndex) -> Iterator[Diagnostic]:
        """Compare every rng-taking kernel against the manifest."""
        kernels = _draw_kernels(index)
        path = manifest_path(index)
        if path is None or not path.is_file():
            for fn in kernels:
                if extract_draw_order(fn.node):
                    yield self.diagnostic(
                        index,
                        fn.relpath,
                        fn.node,
                        f"kernel `{fn.qualname}` consumes generator draws but no "
                        "draw-order manifest (analysis/draw_order.toml) exists",
                        context=fn.qualname,
                    )
            return
        try:
            manifest = load_manifest(path)
        except ValueError as exc:
            yield Diagnostic(
                path=str(path),
                relpath="/".join(_MANIFEST_RELPATH),
                line=1,
                column=0,
                code=self.code,
                message=f"could not parse draw-order manifest: {exc}",
                context="<manifest>",
            )
            return

        seen_keys = set()
        for fn in kernels:
            sites = extract_draw_order(fn.node)
            found = tuple(site.name for site in sites)
            expected = manifest.kernels.get(fn.key)
            seen_keys.add(fn.key)
            if expected is None:
                if found:
                    yield self.diagnostic(
                        index,
                        fn.relpath,
                        sites[0].node,
                        f"kernel `{fn.qualname}` consumes draws {list(found)} but has "
                        "no entry in analysis/draw_order.toml; pin the order there "
                        "and update the regression test",
                        context=fn.qualname,
                    )
                continue
            if found != expected:
                anchor_node: ast.AST = fn.node
                for position, site in enumerate(sites):
                    if position >= len(expected) or site.name != expected[position]:
                        anchor_node = site.node
                        break
                yield self.diagnostic(
                    index,
                    fn.relpath,
                    anchor_node,
                    f"kernel `{fn.qualname}` draw order {list(found)} does not match "
                    f"manifest {list(expected)}; update analysis/draw_order.toml and "
                    "the regression test together",
                    context=fn.qualname,
                )

        for key in sorted(manifest.kernels):
            relpath = key.split("::", 1)[0]
            if relpath in index.modules and key not in seen_keys:
                info = index.modules[relpath]
                yield self.diagnostic(
                    index,
                    relpath,
                    info.ctx.tree,
                    f"stale manifest entry `{key}`: no such rng-taking kernel; "
                    "remove it from analysis/draw_order.toml",
                    context=key.split("::", 1)[1],
                )

        yield from self._check_regression_test(index, manifest, kernels)

    def _check_regression_test(
        self,
        index: ProjectIndex,
        manifest: DrawOrderManifest,
        kernels: List[FunctionInfo],
    ) -> Iterator[Diagnostic]:
        if manifest.regression_test is None:
            return
        root = index.repo_root
        test_path = (
            root / manifest.regression_test if root is not None else Path(manifest.regression_test)
        )
        manifested = [fn for fn in kernels if fn.key in manifest.kernels]
        if not test_path.is_file():
            if manifested:
                fn = manifested[0]
                yield self.diagnostic(
                    index,
                    fn.relpath,
                    fn.node,
                    f"draw-order regression test `{manifest.regression_test}` "
                    "named by the manifest does not exist",
                    context=fn.qualname,
                )
            return
        try:
            test_source = test_path.read_text(encoding="utf-8")
        except (UnicodeDecodeError, OSError):  # pragma: no cover - unreadable test
            test_source = ""
        for fn in manifested:
            if fn.name not in test_source:
                yield self.diagnostic(
                    index,
                    fn.relpath,
                    fn.node,
                    f"manifested kernel `{fn.qualname}` is not referenced by the "
                    f"draw-order regression test `{manifest.regression_test}`",
                    context=fn.qualname,
                )


def manifest_path(index: ProjectIndex) -> Optional[Path]:
    """Location of ``analysis/draw_order.toml`` for the indexed tree."""
    if index.package_root is None:
        return None
    return index.package_root.joinpath(*_MANIFEST_RELPATH)


def extract_draw_order(fn: ast.AST) -> List[DrawSite]:
    """Generator-consuming call sites of ``fn`` in source order.

    Two shapes count as consuming a draw: a direct method call on a
    generator parameter (``rng.standard_normal(...)`` → site name
    ``standard_normal``) and a call that forwards the generator as an
    argument or keyword (``agent.realize_feedback(effort, rng=rng)`` →
    site name ``realize_feedback``).
    """
    rng_names = rng_parameter_names(fn)
    if not rng_names:
        return []
    sites: List[DrawSite] = []
    for call in ordered_calls(fn):
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in rng_names
        ):
            sites.append(DrawSite(name=func.attr, node=call))
            continue
        forwards = any(
            isinstance(arg, ast.Name) and arg.id in rng_names for arg in call.args
        ) or any(
            isinstance(kw.value, ast.Name) and kw.value.id in rng_names
            for kw in call.keywords
        )
        if forwards:
            if isinstance(func, ast.Attribute):
                sites.append(DrawSite(name=func.attr, node=call))
            elif isinstance(func, ast.Name):
                sites.append(DrawSite(name=func.id, node=call))
    return sites


def load_manifest(path: Path) -> DrawOrderManifest:
    """Parse ``draw_order.toml`` (tomllib, or a bundled subset parser).

    The CI matrix still includes Python 3.9, which lacks ``tomllib``;
    the fallback parser understands exactly the subset the manifest
    uses: top-level ``key = "value"`` pairs and ``[[kernel]]``
    array-of-tables entries with string and single-line string-array
    values.

    Raises:
        ValueError: if the file cannot be parsed or is missing fields.
    """
    text = path.read_text(encoding="utf-8")
    try:
        import tomllib
    except ModuleNotFoundError:
        data = _parse_toml_subset(text)
    else:
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ValueError(str(exc)) from exc
    kernels: Dict[str, Tuple[str, ...]] = {}
    for entry in data.get("kernel", []):
        if not isinstance(entry, dict) or "name" not in entry:
            raise ValueError("each [[kernel]] table needs a `name` key")
        draws = entry.get("draws", [])
        if not isinstance(draws, list):
            raise ValueError(f"kernel {entry['name']!r}: `draws` must be an array")
        kernels[str(entry["name"])] = tuple(str(d) for d in draws)
    regression = data.get("regression_test")
    return DrawOrderManifest(
        kernels=kernels,
        regression_test=str(regression) if regression is not None else None,
    )


def _draw_kernels(index: ProjectIndex) -> List[FunctionInfo]:
    """Module-level kernels (fast, vectorized, legacy) taking a generator."""
    prefixes = (*FAST_KERNEL_PREFIXES, LEGACY_KERNEL_PREFIX)
    return [
        fn
        for fn in index.functions()
        if "." not in fn.qualname
        and fn.name.startswith(prefixes)
        and rng_parameter_names(fn.node)
    ]


_STRING_RE = re.compile(r'^"((?:[^"\\]|\\.)*)"')
_ARRAY_RE = re.compile(r"^\[[^\]]*\]")


def _parse_toml_subset(text: str) -> Dict[str, object]:
    """Minimal TOML-subset parser for ``draw_order.toml`` on Python 3.9.

    Supports blank lines, ``#`` comments, ``[[kernel]]`` array-of-tables
    headers, and ``key = value`` pairs where the value is a basic string
    or a single-line array of basic strings.
    """
    data: Dict[str, object] = {}
    tables: List[Dict[str, object]] = []
    current: Optional[Dict[str, object]] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[[kernel]]":
            current = {}
            tables.append(current)
            continue
        if line.startswith("["):
            raise ValueError(f"line {lineno}: unsupported table header {line!r}")
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected `key = value`")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        parsed: object
        remainder: str
        array_match = _ARRAY_RE.match(value)
        string_match = _STRING_RE.match(value)
        if array_match is not None:
            parsed = re.findall(r'"((?:[^"\\]|\\.)*)"', array_match.group(0))
            remainder = value[array_match.end():].strip()
        elif string_match is not None:
            parsed = string_match.group(1)
            remainder = value[string_match.end():].strip()
        else:
            raise ValueError(f"line {lineno}: unsupported value {value!r}")
        if remainder and not remainder.startswith("#"):
            raise ValueError(f"line {lineno}: trailing content {remainder!r}")
        target = current if current is not None else data
        target[key] = parsed
    if tables:
        data["kernel"] = tables
    return data
