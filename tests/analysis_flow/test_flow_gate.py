"""The flow gate on the shipped tree, and the drift regressions it stops.

Three properties the PR's acceptance criteria pin:

* ``repro lint --flow`` is clean on ``src/repro`` with no baseline;
* deleting the ``require_sweeps_agree`` contract call from the sweep
  router makes the gate exit non-zero (REPRO012);
* adding an unmanifested ``rng.*`` draw to the round kernel
  (``fast_columnar_step``) makes the gate exit non-zero (REPRO011).

The mutation tests copy ``src/repro`` (and the ``tests`` tree, which
the coverage checks consult) into a tmp repo, edit the copy, and run
the real CLI against it.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.analysis.cli import main
from repro.analysis.flow import ProjectIndex, run_flow

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SRC = REPO_ROOT / "src" / "repro"

_CONTRACT_CALL = "        require_sweeps_agree(pairs, reference)\n"
_DRAW_LINE = "        draws = rng.standard_normal(total_draws)\n"


def _copy_repo(tmp_path: Path) -> Path:
    """A minimal repo copy: src/repro plus the tests tree."""
    shutil.copytree(SRC, tmp_path / "src" / "repro")
    shutil.copytree(
        REPO_ROOT / "tests",
        tmp_path / "tests",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return tmp_path


def test_src_tree_flow_clean():
    """Engine-level: zero flow findings on the shipped tree."""
    assert run_flow([SRC]) == []


def test_cli_flow_clean_on_src(capsys):
    exit_code = main([str(SRC), "--flow", "--no-baseline", "--no-cache"])
    capsys.readouterr()
    assert exit_code == 0


def test_deleting_require_agree_call_trips_gate(tmp_path, capsys):
    root = _copy_repo(tmp_path)
    sweep = root / "src" / "repro" / "core" / "sweep.py"
    source = sweep.read_text()
    assert _CONTRACT_CALL in source, "anchor moved; update this test"
    sweep.write_text(source.replace(_CONTRACT_CALL, ""))

    exit_code = main(
        [str(root / "src" / "repro"), "--flow", "--no-baseline", "--no-cache"]
    )
    out = capsys.readouterr().out
    assert exit_code == 1
    assert "REPRO012" in out
    assert "vectorized_sweep" in out

    findings = run_flow([root / "src" / "repro"])
    assert any(
        d.code == "REPRO012" and d.context == "vectorized_sweep" for d in findings
    )


def test_unmanifested_draw_in_fast_step_trips_gate(tmp_path, capsys):
    root = _copy_repo(tmp_path)
    engine = root / "src" / "repro" / "simulation" / "engine.py"
    source = engine.read_text()
    assert _DRAW_LINE in source, "anchor moved; update this test"
    engine.write_text(
        source.replace(
            _DRAW_LINE,
            "        _probe = rng.standard_normal(1)\n" + _DRAW_LINE,
        )
    )

    exit_code = main(
        [str(root / "src" / "repro"), "--flow", "--no-baseline", "--no-cache"]
    )
    out = capsys.readouterr().out
    assert exit_code == 1
    assert "REPRO011" in out
    assert "fast_columnar_step" in out

    findings = run_flow([root / "src" / "repro"])
    draw_findings = [d for d in findings if d.code == "REPRO011"]
    assert draw_findings
    assert any("does not match manifest" in d.message for d in draw_findings)


def test_unmutated_copy_stays_green(tmp_path, capsys):
    """The copy machinery itself introduces no findings."""
    root = _copy_repo(tmp_path)
    exit_code = main(
        [str(root / "src" / "repro"), "--flow", "--no-baseline", "--no-cache"]
    )
    capsys.readouterr()
    assert exit_code == 0


def test_manifest_stale_entry_is_flagged(tmp_path):
    """Renaming a manifested kernel leaves a stale manifest entry."""
    root = _copy_repo(tmp_path)
    engine = root / "src" / "repro" / "simulation" / "engine.py"
    source = engine.read_text()
    engine.write_text(source.replace("def legacy_step(", "def legacy_round("))
    findings = run_flow([root / "src" / "repro"])
    assert any(
        d.code == "REPRO011" and "stale manifest entry" in d.message
        for d in findings
    )


@pytest.mark.parametrize("missing", ["analysis/draw_order.toml"])
def test_missing_manifest_flags_draw_kernels(tmp_path, missing):
    root = _copy_repo(tmp_path)
    (root / "src" / "repro" / missing).unlink()
    findings = run_flow([root / "src" / "repro"])
    assert any(
        d.code == "REPRO011" and "no draw-order manifest" in d.message
        for d in findings
    )


def test_project_index_shape():
    """The index discovers the registered kernels of the real tree."""
    index = ProjectIndex.build([SRC])
    fast = {fn.key for fn in index.fast_kernels()}
    assert "simulation/engine.py::fast_columnar_step" in fast
    assert "core/sweep.py::vectorized_sweep" in fast
    legacy = {fn.key for fn in index.legacy_kernels()}
    assert "simulation/engine.py::legacy_step" in legacy
    assert "core/sweep.py::legacy_sweep" in legacy
    batch = {fn.name for fn in index.batch_helpers()}
    assert {"realize_feedback_batch", "rating_deviation_batch"} <= batch
    assert index.package_root == SRC.resolve()
