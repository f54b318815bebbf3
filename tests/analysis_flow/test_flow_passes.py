"""Each flow pass catches its seeded fixture violation — exactly.

The corpus under ``tests/analysis_fixtures/`` plants one tree per pass
(see its README); these tests pin the exact findings (code, enclosing
context, message shape) and prove the CLI gate goes red on each tree.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.cli import main
from repro.analysis.flow import (
    ConcurrencyPass,
    ContractCoveragePass,
    DrawOrderPass,
    ProjectIndex,
    PurityPass,
    run_flow,
)

FIXTURES = Path(__file__).resolve().parent.parent / "analysis_fixtures"


def _findings(fixture: str, flow_pass):
    index = ProjectIndex.build([FIXTURES / fixture / "repro"])
    return run_flow(index=index, passes=[flow_pass])


def test_repro010_purity_fixture_exact_findings():
    findings = _findings("repro010_purity", PurityPass())
    assert [d.code for d in findings] == ["REPRO010"] * 3
    assert {d.context for d in findings} == {"fast_step"}
    assert {d.relpath for d in findings} == {"simulation/engine.py"}
    messages = sorted(d.message for d in findings)
    assert "calls scalar `respond(...)` inside a loop" in messages[0]
    assert "constructs `Contract` per element of a population loop" in messages[1]
    assert "draws `rng.normal(...)` per element inside a loop" in messages[2]


def test_repro010_columnar_fixture_exact_findings():
    """Columnar-scoped checks: lazy-view subscripts and per-element
    object attribute loads are flagged inside `*columnar*` kernels."""
    findings = _findings("repro010_columnar", PurityPass())
    assert [d.code for d in findings] == ["REPRO010"] * 3
    assert {d.context for d in findings} == {"fast_columnar_step"}
    assert {d.relpath for d in findings} == {"simulation/engine.py"}
    messages = sorted(d.message for d in findings)
    assert "indexes the lazy `.agents` view per subject" in messages[0]
    assert "reads `.effort_function` per element inside a loop" in messages[1]
    assert "reads `.params` per element inside a loop" in messages[2]


def test_repro010_columnar_checks_skip_plain_fast_kernels():
    """The plain-kernel fixture (`fast_step`) keeps exactly its three
    generic findings: columnar checks never fire outside columnar
    kernels, where `.agents[...]` access is the legitimate path."""
    findings = _findings("repro010_purity", PurityPass())
    assert len(findings) == 3
    assert not any("columnar" in d.message for d in findings)


def test_repro011_draworder_fixture_exact_findings():
    findings = _findings("repro011_draworder", DrawOrderPass())
    assert [d.code for d in findings] == ["REPRO011"] * 2
    by_context = {d.context: d.message for d in findings}
    assert set(by_context) == {"fast_columnar_step", "fast_shuffle"}
    assert (
        "draw order ['standard_normal', 'normal'] does not match manifest "
        "['standard_normal']" in by_context["fast_columnar_step"]
    )
    assert "no entry in analysis/draw_order.toml" in by_context["fast_shuffle"]


def test_repro012_contracts_fixture_exact_findings():
    findings = _findings("repro012_contracts", ContractCoveragePass())
    assert [d.code for d in findings] == ["REPRO012"] * 4
    by_context = {}
    for d in findings:
        by_context.setdefault(d.context, []).append(d.message)
    assert sorted(by_context) == [
        "fast_solve",
        "require_orphans_agree",
        "vectorized_sweep",
    ]
    sweep_messages = " | ".join(sorted(by_context["vectorized_sweep"]))
    assert "no `legacy_sweep` reference twin" in sweep_messages
    assert "not covered by a require_*_agree equivalence contract" in sweep_messages
    assert len(by_context["vectorized_sweep"]) == 2
    assert "not covered by a require_*_agree" in by_context["fast_solve"][0]
    assert "never called from source, tests, or benchmarks" in (
        by_context["require_orphans_agree"][0]
    )


def test_repro012_test_coverage_satisfied_by_support_module():
    """fast_solve has two-path test coverage via tests/support_paths.py,
    so no test-coverage finding is emitted for it (only the missing
    contract call)."""
    findings = _findings("repro012_contracts", ContractCoveragePass())
    fast_solve = [d.message for d in findings if d.context == "fast_solve"]
    assert len(fast_solve) == 1
    assert "references both" not in fast_solve[0]


def test_repro013_concurrency_fixture_exact_findings():
    findings = _findings("repro013_concurrency", ConcurrencyPass())
    assert [d.code for d in findings] == ["REPRO013"] * 3
    by_context = {d.context: d.message for d in findings}
    assert set(by_context) == {
        "LeakyCache.get",
        "LeakyCache.put",
        "LeakyCache.clear",
    }
    assert "mutates shared attribute `self.hits`" in by_context["LeakyCache.get"]
    assert "mutates shared attribute `self._entries`" in by_context["LeakyCache.put"]
    assert "mutates shared attribute `self._entries`" in by_context["LeakyCache.clear"]
    # The correctly guarded method is clean.
    assert "LeakyCache.guarded_put" not in by_context


@pytest.mark.parametrize(
    ("fixture", "code"),
    [
        ("repro010_purity", "REPRO010"),
        ("repro010_columnar", "REPRO010"),
        ("repro011_draworder", "REPRO011"),
        ("repro012_contracts", "REPRO012"),
        ("repro013_concurrency", "REPRO013"),
    ],
)
def test_cli_gate_goes_red_on_each_fixture(fixture, code, capsys):
    exit_code = main(
        [
            str(FIXTURES / fixture / "repro"),
            "--flow",
            "--select",
            code,
            "--no-baseline",
            "--no-cache",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 1
    assert code in captured.out


def test_flow_findings_respect_noqa(tmp_path):
    """`# noqa: REPRO013` on the flagged line suppresses a flow finding."""
    tree = tmp_path / "repro" / "serving"
    tree.mkdir(parents=True)
    (tree / "cache.py").write_text(
        "import threading\n"
        "\n"
        "\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.hits = 0\n"
        "\n"
        "    def bump(self):\n"
        "        self.hits += 1  # noqa: REPRO013\n"
        "\n"
        "    def bump2(self):\n"
        "        self.hits += 1\n"
    )
    findings = run_flow(index=ProjectIndex.build([tmp_path / "repro"]), passes=[ConcurrencyPass()])
    assert [d.context for d in findings] == ["C.bump2"]
