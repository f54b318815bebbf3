"""Columnar wire format for the cluster tier: frame codec, shard op, HTTP.

A solve batch of n subjects collapsing onto K archetypes crosses the
shard pipe (and the HTTP hop) as a (K, 7) float table plus an (n,)
int64 code vector, the cluster's one solve codec.  These tests pin the
properties the engine relies on: the frame round-trips bit-exactly
(including through JSON), the JSON decoder refuses anything that is
not a well-typed frame, the shard's K designs fan back out through the
codes in request order and match serial solving, and the shard's
request counter counts frame rows.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import solve_subproblems
from repro.errors import ServingError
from repro.serving import (
    HTTPServerThread,
    ShardProcess,
    ShardRouter,
    ShardSpec,
)
from repro.serving.cluster.codec import (
    columnar_frame,
    frame_from_json,
    frame_to_json,
    subproblems_from_frame,
)
from repro.serving.fingerprint import subproblem_fingerprint
from repro.serving.workload import synthetic_subproblems


@pytest.fixture(scope="module")
def workload():
    return synthetic_subproblems(n_subjects=30, n_archetypes=6, seed=23)


@pytest.fixture(scope="module")
def fingerprints(workload):
    return [subproblem_fingerprint(subproblem) for subproblem in workload]


@pytest.fixture(scope="module")
def frame(workload, fingerprints):
    return columnar_frame(workload, fingerprints)


class TestFrameCodec:
    def test_frame_is_archetype_sized(self, workload, fingerprints, frame):
        n_unique = len(set(fingerprints))
        assert frame["table"].shape == (n_unique, 7)
        assert frame["worker_types"].shape == (n_unique,)
        assert len(frame["subject_ids"]) == n_unique
        assert len(frame["fingerprints"]) == n_unique
        assert frame["codes"].shape == (len(workload),)
        assert frame["codes"].max() == n_unique - 1

    def test_codes_point_at_matching_archetypes(
        self, workload, fingerprints, frame
    ):
        for index, fingerprint in enumerate(fingerprints):
            slot = int(frame["codes"][index])
            assert frame["fingerprints"][slot] == fingerprint

    def test_representatives_solve_bit_identically(self, workload, frame):
        """The K rebuilt archetypes produce the same contracts as the n
        original objects — fingerprints are carried, never recomputed,
        and member_ids are excluded from the solve."""
        representatives, rep_fingerprints = subproblems_from_frame(frame)
        assert rep_fingerprints == list(frame["fingerprints"])
        serial = solve_subproblems(workload, mu=1.0)
        rep_serial = solve_subproblems(representatives, mu=1.0)
        for index, subproblem in enumerate(workload):
            slot = int(frame["codes"][index])
            rebuilt = representatives[slot]
            assert pickle.dumps(
                rep_serial[rebuilt.subject_id].result.contract.compensations
            ) == pickle.dumps(
                serial[subproblem.subject_id].result.contract.compensations
            )

    def test_json_round_trip_is_exact(self, frame):
        rebuilt = frame_from_json(frame_to_json(frame))
        assert np.array_equal(rebuilt["table"], frame["table"])
        assert rebuilt["table"].tobytes() == frame["table"].tobytes()
        assert np.array_equal(rebuilt["worker_types"], frame["worker_types"])
        assert np.array_equal(rebuilt["codes"], frame["codes"])
        assert tuple(rebuilt["subject_ids"]) == tuple(frame["subject_ids"])
        assert tuple(rebuilt["fingerprints"]) == tuple(frame["fingerprints"])

    def test_max_effort_survives_round_trip(self, workload):
        """A finite cap round-trips bit-exactly; `None` rides the -1.0
        wire sentinel (caps are strictly positive) and comes back None."""
        from dataclasses import replace

        capped = workload[0]
        assert capped.max_effort is not None
        uncapped = replace(workload[1], max_effort=None)
        frame = columnar_frame([capped, uncapped], ["fp0", "fp1"])
        representatives, _ = subproblems_from_frame(
            frame_from_json(frame_to_json(frame))
        )
        assert representatives[0].max_effort == capped.max_effort
        assert representatives[1].max_effort is None

    def test_length_mismatch_raises(self, workload):
        with pytest.raises(ServingError, match="one fingerprint per"):
            columnar_frame(workload, ["fp0"])

    def test_malformed_frames_raise(self, frame):
        bad_table = dict(frame)
        bad_table["table"] = frame["table"][:, :5]
        with pytest.raises(ServingError):
            subproblems_from_frame(bad_table)
        bad_codes = dict(frame)
        bad_codes["codes"] = frame["codes"] + len(frame["fingerprints"])
        with pytest.raises(ServingError):
            subproblems_from_frame(bad_codes)
        negative_codes = dict(frame)
        negative_codes["codes"] = frame["codes"] - 1 - frame["codes"].max()
        with pytest.raises(ServingError):
            subproblems_from_frame(negative_codes)
        bad_types = dict(frame)
        bad_types["worker_types"] = frame["worker_types"] + 99
        with pytest.raises(ServingError):
            subproblems_from_frame(bad_types)
        # Over JSON: numbers outside int64 or float range, and floats or
        # bools where integers belong, are refused, never coerced.
        body = frame_to_json(frame)
        for field, value in (
            ("codes", [2**70] * len(body["codes"])),
            ("worker_types", [-(2**70)] * len(body["worker_types"])),
            ("table", [[10**400] * 7] * len(body["table"])),
            ("table", [[True] * 7] * len(body["table"])),
            ("codes", [0.7] * len(body["codes"])),
            ("codes", [True] * len(body["codes"])),
            ("worker_types", [False] * len(body["worker_types"])),
            ("worker_types", [1.2] * len(body["worker_types"])),
            ("fingerprints", "f" * len(body["fingerprints"])),
        ):
            with pytest.raises(ServingError, match=field):
                frame_from_json(dict(body, **{field: value}))
        with pytest.raises(ServingError, match="finite"):
            frame_from_json(
                dict(body, table=[[float("inf")] * 7] * len(body["table"]))
            )

    def test_empty_frame_round_trips(self):
        frame = columnar_frame([], [])
        assert frame["table"].shape == (0, 7)
        rebuilt = frame_from_json(frame_to_json(frame))
        assert rebuilt["table"].shape == (0, 7)
        representatives, rep_fingerprints = subproblems_from_frame(rebuilt)
        assert representatives == [] and rep_fingerprints == []


#: Any value ``json.loads`` can return (it parses NaN and Infinity too).
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=16,
)
_NUMBERS = st.integers(-3, 3) | st.integers() | st.floats() | st.booleans()
#: Nearly well-formed fields, so examples also reach the shape, range
#: and model checks behind the type checks.
_FRAME_FIELDS = {
    "table": st.lists(st.lists(_NUMBERS, min_size=6, max_size=8), max_size=3),
    "worker_types": st.lists(st.integers(-1, 4) | _NUMBERS, max_size=3),
    "subject_ids": st.lists(st.text(max_size=3), max_size=3),
    "fingerprints": st.lists(st.text(max_size=3), max_size=3),
    "codes": st.lists(st.integers(-1, 3) | _NUMBERS, max_size=4),
}


@settings(max_examples=400, deadline=None)
@given(
    payload=_JSON_VALUES
    | st.fixed_dictionaries(
        {key: field | _JSON_VALUES for key, field in _FRAME_FIELDS.items()}
    )
)
def test_any_json_value_decodes_or_raises_serving_error(payload):
    """Whatever JSON a client posts, decoding it either yields a frame's
    subproblems or raises ServingError (a 400), never another error."""
    try:
        subproblems_from_frame(frame_from_json(payload))
    except ServingError:
        pass


class TestShardColumnarOp:
    def test_solve_columnar_matches_serial(self, workload, fingerprints):
        frame = columnar_frame(workload, fingerprints)
        serial = solve_subproblems(workload, mu=1.0)
        shard = ShardProcess(ShardSpec(shard_id="col"))
        shard.start()
        try:
            rep_designs = shard.solve_columnar(frame)
            assert len(rep_designs) == len(frame["fingerprints"])
            for subproblem, code in zip(workload, frame["codes"].tolist()):
                assert pickle.dumps(
                    serial[subproblem.subject_id].result.contract.compensations
                ) == pickle.dumps(rep_designs[code].contract.compensations)
        finally:
            shard.stop()

    def test_requests_counter_counts_frame_rows(self, workload, fingerprints):
        """The shard books K requests for a frame of K archetype rows,
        however many subjects its codes fan out to — the unit the router
        counts too."""
        frame = columnar_frame(workload, fingerprints)
        n_rows = len(frame["fingerprints"])
        assert n_rows < len(workload)
        shard = ShardProcess(ShardSpec(shard_id="s0"))
        shard.start()
        try:
            shard.solve_columnar(frame)
            snapshot = shard.stats_snapshot()
            assert snapshot["requests"] == float(n_rows)
            # Stateless: a repeat frame is solved again, not looked up.
            shard.solve_columnar(frame)
            snapshot = shard.stats_snapshot()
            assert snapshot["requests"] == 2.0 * n_rows
            assert snapshot["batches"] == 2.0
            assert "cache_hits" not in snapshot
        finally:
            shard.stop()


class TestRouterColumnarPath:
    def test_router_matches_serial_through_frames(self, workload):
        """`solve_designs` ships its misses to the shards as frames;
        results must stay bit-identical to the serial solver, in input
        order, with per-subject hit flags from the router's cache."""
        serial = solve_subproblems(workload, mu=1.0)
        with ShardRouter(n_shards=2, supervise_interval=0.0) as router:
            designs, hits = router.solve_designs(workload)
            assert not any(hits)
            for subproblem, design in zip(workload, designs):
                assert pickle.dumps(
                    design.contract.compensations
                ) == pickle.dumps(
                    serial[subproblem.subject_id].result.contract.compensations
                )
            _, warm_hits = router.solve_designs(workload)
            assert all(warm_hits)
            snapshot = router.stats_snapshot()
            # The router serves one row per distinct fingerprint; the
            # shards solve only the first batch's misses.
            n_rows = len(set(router.fingerprints(workload)))
            assert snapshot["totals"]["requests"] == 2.0 * n_rows
            assert snapshot["totals"]["cache_entries"] == float(n_rows)
            assert sum(
                shard["requests"] for shard in snapshot["shards"].values()
            ) == float(n_rows)


class TestHTTPColumnar:
    @pytest.fixture(scope="class")
    def endpoint(self):
        with ShardRouter(n_shards=2, supervise_interval=0.0) as router:
            with HTTPServerThread(router) as thread:
                yield thread.address

    def _post(self, endpoint, payload):
        import http.client
        import json

        host, port = endpoint
        conn = http.client.HTTPConnection(host, port, timeout=30.0)
        try:
            conn.request("POST", "/solve_batch", body=json.dumps(payload))
            response = conn.getresponse()
            return response.status, json.loads(
                response.read().decode("utf-8")
            )
        finally:
            conn.close()

    def test_columnar_batch_matches_serial(
        self, endpoint, workload, fingerprints, frame
    ):
        serial = solve_subproblems(workload, mu=1.0)
        status, payload = self._post(
            endpoint, {"columnar": frame_to_json(frame)}
        )
        assert status == 200
        assert payload["columnar"] is True
        designs = payload["designs"]
        assert len(designs) == len(frame["fingerprints"])
        assert payload["codes"] == frame["codes"].tolist()
        for index, subproblem in enumerate(workload):
            slot = int(frame["codes"][index])
            assert pickle.dumps(
                designs[slot]["compensations"]
            ) == pickle.dumps(
                list(
                    serial[
                        subproblem.subject_id
                    ].result.contract.compensations
                )
            )
        status, payload = self._post(
            endpoint, {"columnar": frame_to_json(frame)}
        )
        assert all(design["cache_hit"] for design in payload["designs"])

    def test_malformed_columnar_frame_is_400(self, endpoint, frame):
        status, payload = self._post(endpoint, {"columnar": {"table": []}})
        assert status == 400
        assert "error" in payload
        # Out-of-range numbers were a 500, and float or bool codes and
        # worker types were truncated and served with a 200.
        body = frame_to_json(frame)
        for field, value in (
            ("codes", [2**70] * len(body["codes"])),
            ("table", [[10**400] * 7] * len(body["table"])),
            ("codes", [0.7] * len(body["codes"])),
            ("worker_types", [True] * len(body["worker_types"])),
        ):
            status, payload = self._post(
                endpoint, {"columnar": dict(body, **{field: value})}
            )
            assert status == 400, (field, payload)
            assert field in payload["error"]
