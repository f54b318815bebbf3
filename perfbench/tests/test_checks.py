"""Each output check fails on a corrupted output and passes on at least 10 seeds."""

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import paper, rounds, serve

SEEDS = range(10)


# -- paper-small ------------------------------------------------------


@pytest.fixture(scope="module")
def paper_passes():
    """Two passes per seed (about 8 s each seed on one core)."""
    from repro.experiments.config import ExperimentConfig

    workload = paper.PaperSmall()
    return {
        seed: (workload._pass(ExperimentConfig.small(seed)), workload._pass(ExperimentConfig.small(seed)))
        for seed in SEEDS
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_paper_passes_agree_and_pass_the_theorem_checks(paper_passes, seed):
    first, second = paper_passes[seed]
    assert paper.pass_failure(paper.render(first), second) is None


def test_paper_check_fails_on_changed_output_or_a_failed_theorem_check(paper_passes):
    first, second = paper_passes[0]
    reference = paper.render(first)
    changed = list(second)
    table3 = next(i for i, result in enumerate(changed) if result.experiment_id == "table3")
    changed[table3] = dataclasses.replace(
        changed[table3], tables=[changed[table3].tables[0] + " "] + changed[table3].tables[1:]
    )
    assert paper.pass_failure(reference, changed) == "output differs from the first pass"

    fig6 = next(i for i, result in enumerate(first) if result.experiment_id == "fig6")
    broken = list(first)
    broken[fig6] = dataclasses.replace(
        broken[fig6], checks={**broken[fig6].checks, "achieved_within_bounds": False}
    )
    assert paper.pass_failure(paper.render(broken), broken) == (
        "theorem checks failed: fig6.achieved_within_bounds"
    )
    assert paper.shape_failures(broken) == 0


# -- churn-200k ------------------------------------------------------


@pytest.fixture
def small_replay(monkeypatch):
    """The replay at 600 subjects, so ten seeds stay quick."""
    monkeypatch.setattr(rounds, "REPLAY_SUBJECTS", 600)


@pytest.mark.parametrize("seed", SEEDS)
def test_invariant_replay_passes(small_replay, seed):
    check = rounds.replay_with_invariants(seed)
    assert check.passed, check.detail


def test_invariant_replay_fails_on_a_corrupted_round(small_replay, monkeypatch):
    import repro.simulation.engine as engine

    kernel = engine.fast_columnar_step

    def corrupted(*args, **kwargs):
        result = kernel(*args, **kwargs)
        result.feedback[0] += 1e-6
        return result

    monkeypatch.setattr(engine, "fast_columnar_step", corrupted)
    check = rounds.replay_with_invariants(3)
    assert not check.passed
    assert "InvariantViolation" in check.detail


def test_churn_replay_fails_when_a_reused_design_is_stale(small_replay, monkeypatch):
    from repro.serving.pool import ColumnarDeltaState

    resolve = ColumnarDeltaState.resolve

    def stale(self, population, solve):
        # A mis-keyed reuse: never-seen archetypes get the stored design
        # of the last archetype (movers come from the first ones).
        if self._solutions:
            some = list(self._solutions.values())[-1]
            matrix = population.design_matrix()
            for row in population.archetype_representatives.tolist():
                self._solutions.setdefault(matrix[int(row)].tobytes(), some)
        return resolve(self, population, solve)

    monkeypatch.setattr(ColumnarDeltaState, "resolve", stale)
    check = rounds.replay_with_invariants(4)
    assert not check.passed


def test_mover_plans_move_one_percent_to_never_seen_weights():
    codes = np.repeat(np.arange(16), 1250)
    weights = np.linspace(0.5, 2.0, 16)[codes]
    plans = rounds.mover_plans(codes, weights, 3, np.random.default_rng(0))
    seen = set(weights.tolist())
    for rows, new in plans:
        assert rows.size == 200 and np.unique(rows).size == 200
        assert len(set(new.tolist())) == 40
        assert not seen & set(new.tolist())
        seen |= set(new.tolist())


# -- serve-http ------------------------------------------------------


@pytest.fixture(scope="module")
def cluster():
    """The real front end over a 1-shard router, in this process."""
    from repro.serving.cluster.http import HTTPServerThread
    from repro.serving.cluster.router import ShardRouter

    router = ShardRouter(n_shards=1, mu=serve.MU)
    router.start()
    server = HTTPServerThread(router).start()
    yield SimpleNamespace(port=server.address[1])
    server.stop()
    router.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_served_contracts_match_a_serial_solve(cluster, seed):
    state = serve.ServeState(serve.generate_inputs(seed, n_requests=24), server=None)
    log = serve.run_clients(state, cluster, 60.0, 0)
    report = serve.ServeHTTP(seconds=1.0, phases=1).finish(state, [log])
    assert log.attempted == 24 and log.failed == 0, log.failures
    assert report.checks[0].passed


def test_serve_check_catches_a_mis_keyed_cache():
    inputs = serve.generate_inputs(1, n_requests=4)
    request = inputs.requests[0]
    expected = serve.serial_contracts([inputs.subproblems[s] for s in request.rows])
    designs = [{"compensations": [float.fromhex(v) for v in expected[s]]} for s in request.rows]
    good = {"codes": request.codes, "designs": designs}
    assert serve.contract_failure(request, json.loads(json.dumps(good)), expected) is None
    swapped = {"codes": request.codes, "designs": [designs[1], designs[0], *designs[2:]]}
    assert serve.contract_failure(request, swapped, expected).startswith("wrong contract")
    assert serve.contract_failure(request, {**good, "codes": request.codes[::-1]}, expected)
    assert serve.contract_failure(request, {**good, "designs": designs[:-1]}, expected)


def test_request_inputs_depend_only_on_the_seed():
    first = serve.generate_inputs(7, n_requests=40)
    again = serve.generate_inputs(7, n_requests=40)
    other = serve.generate_inputs(8, n_requests=40)
    assert [r.body for r in first.requests] == [r.body for r in again.requests]
    assert [r.body for r in first.requests] != [r.body for r in other.requests]
    assert len({r.key for r in first.requests}) == 40
    joiners = [r for i, r in enumerate(first.requests) if i % serve.JOIN_EVERY == 3]
    assert all(any(s.startswith("j") for s in r.rows) for r in joiners)


def test_assembled_request_bodies_equal_the_codec_encoding(monkeypatch):
    monkeypatch.setattr(serve, "CODEC_CHECK_EVERY", 1)
    for seed in SEEDS:
        serve.generate_inputs(seed, n_requests=100)  # raises on any difference
    encode = serve.frame_to_json

    def reversed_codes(frame):
        payload = encode(frame)
        return {**payload, "codes": payload["codes"][::-1]}

    monkeypatch.setattr(serve, "frame_to_json", reversed_codes)
    with pytest.raises(RuntimeError, match="differs from the program's codec"):
        serve.generate_inputs(0, n_requests=10)
