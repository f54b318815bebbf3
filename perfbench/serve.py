"""serve-http: ``/solve_batch`` round trips through the serving cluster.

The server runs in its own process (``perfbench/server.py``): the HTTP
front end plus a 1-shard ``ShardRouter``.  The client is this process
with two keep-alive connections in a closed loop, because a requester
waits for its contracts before posting the next batch.  A unit is one
request carrying an 8-subproblem columnar frame drawn from a hot set of
256 archetypes; every 4th request also carries one never-seen subject
(a worker joining), which misses the shard's contract cache.

Every returned contract must be byte-identical to a serial
``solve_subproblems`` of the subproblem the client put in that frame
row.  The server keys its cache on fingerprints the client sends, so
comparing contracts, not fingerprints, is what catches a mis-keyed cache.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import queue
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.decomposition import Subproblem, solve_subproblems
from repro.serving.cluster.codec import columnar_frame, frame_to_json
from repro.serving.fingerprint import subproblem_fingerprint
from repro.serving.workload import synthetic_subproblems

from perfbench import spans as spanlib
from perfbench.harness import UnitLog
from perfbench.workload import Check, Report, TracedPhase, Workload

ROOT = Path(__file__).resolve().parent.parent
MU = 1.0
HOT_ARCHETYPES = 256
BATCH = 8
JOIN_EVERY = 4
CONNECTIONS = 2
#: Requests generated per timed second: more than 3x the rate served on the
#: 2-core host in baseline.json (275-302 requests/s), so a faster program
#: still finds inputs for the whole phase.
PLANNED_RATE = 1_000
#: Peak RSS is read once this many units of the timed phase completed
#: (the slowest run in baseline.json completed about 6,900 in 25 s), so
#: every run has cached the same designs when it is read.
RSS_UNITS = 3_000
#: Random warm-up requests after the hot set has been primed.
WARMUP_REQUESTS = 64
#: Requests whose contracts the output digest covers.
DIGEST_REQUESTS = 500
#: Per-archetype fields of a columnar frame, in the codec's key order.
FRAME_FIELDS = ("table", "worker_types", "subject_ids", "fingerprints")
#: Every this many assembled request bodies, one is compared with the codec's.
CODEC_CHECK_EVERY = 50
HEADERS = {"Content-Type": "application/json"}
READ_TIMEOUT_S = 60.0


@dataclass
class Request:
    body: bytes
    key: Tuple[str, ...]
    rows: Tuple[str, ...]
    codes: List[int]


@dataclass
class Inputs:
    subproblems: Dict[str, Subproblem]
    warmup: List[Request]
    requests: List[Request]


def _renamed(subproblems: Sequence[Subproblem], prefix: str) -> List[Subproblem]:
    return [
        Subproblem(
            subject_id=f"{prefix}{index:06d}",
            effort_function=sub.effort_function,
            params=sub.params,
            feedback_weight=sub.feedback_weight,
            max_effort=sub.max_effort,
        )
        for index, sub in enumerate(subproblems)
    ]


def generate_inputs(seed: int, n_requests: int) -> Inputs:
    """Every request body of a run, from the seed, before timing starts."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    hot = _renamed(
        synthetic_subproblems(HOT_ARCHETYPES, n_archetypes=HOT_ARCHETYPES, rng=rng), "h"
    )
    n_joiners = n_requests // JOIN_EVERY + 1
    joiners = _renamed(synthetic_subproblems(n_joiners, n_archetypes=n_joiners, rng=rng), "j")
    fingerprints = {sub.subject_id: subproblem_fingerprint(sub, mu=MU) for sub in hot + joiners}
    if len(set(fingerprints.values())) != len(fingerprints):
        raise RuntimeError("generated subproblems share a fingerprint; pick another seed")
    # Each subproblem's frame fields, as JSON text from the program's codec.
    fields = {}
    for sub in hot + joiners:
        frame = frame_to_json(columnar_frame([sub], [fingerprints[sub.subject_id]]))
        fields[sub.subject_id] = [json.dumps(frame[name][0]) for name in FRAME_FIELDS]
    seen: set = set()
    encoded = [0]

    def encode(batch: Sequence[Subproblem]) -> Request:
        """The frame body of ``batch``, assembled from the per-subproblem fields.

        Equal, byte for byte, to ``json.dumps({"columnar":
        frame_to_json(columnar_frame(...))})``, which every
        :data:`CODEC_CHECK_EVERY`-th request is checked against.  Encoding
        every frame with the codec made generating a run's inputs take about
        twice as long (3.7 s instead of 1.8 s for 25,000 requests).
        """
        slots: Dict[str, int] = {}
        rows: List[str] = []
        codes: List[int] = []
        for sub in batch:
            slot = slots.setdefault(fingerprints[sub.subject_id], len(rows))
            if slot == len(rows):
                rows.append(sub.subject_id)
            codes.append(slot)
        lists = [
            ", ".join(fields[subject][position] for subject in rows)
            for position in range(len(FRAME_FIELDS))
        ] + [", ".join(map(str, codes))]
        body = '{"columnar": {' + ", ".join(
            f'"{name}": [{text}]' for name, text in zip(FRAME_FIELDS + ("codes",), lists)
        ) + "}}"
        request = Request(body.encode(), tuple(fingerprints[s] for s in rows), tuple(rows), codes)
        if encoded[0] % CODEC_CHECK_EVERY == 0:
            frame = columnar_frame(batch, [fingerprints[sub.subject_id] for sub in batch])
            reference = Request(json.dumps({"columnar": frame_to_json(frame)}).encode(),
                                tuple(frame["fingerprints"]), tuple(frame["subject_ids"]),
                                frame["codes"].tolist())
            if request != reference:
                raise RuntimeError("an assembled request differs from the program's codec")
        encoded[0] += 1
        return request

    def draw(joiner: Optional[Subproblem]) -> Request:
        while True:
            batch = [hot[int(i)] for i in rng.integers(0, HOT_ARCHETYPES, size=BATCH)]
            if joiner is not None:
                batch[int(rng.integers(0, BATCH))] = joiner
            request = encode(batch)
            if request.key not in seen:
                seen.add(request.key)
                return request

    order = rng.permutation(HOT_ARCHETYPES)
    warmup = [
        encode([hot[int(i)] for i in order[start: start + BATCH]])
        for start in range(0, HOT_ARCHETYPES, BATCH)
    ]
    warmup += [draw(None) for _ in range(WARMUP_REQUESTS)]
    requests = [
        draw(joiners[index // JOIN_EVERY] if index % JOIN_EVERY == JOIN_EVERY - 1 else None)
        for index in range(n_requests)
    ]
    return Inputs({sub.subject_id: sub for sub in hot + joiners}, warmup, requests)


class ServerProcess:
    """The server child process and its line protocol."""

    def __init__(self, trace: bool) -> None:
        command = [sys.executable, str(ROOT / "perfbench" / "server.py")]
        if trace:
            command.append("--trace")
        self.process = subprocess.Popen(
            command, cwd=str(ROOT), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read_lines, daemon=True)
        self._reader.start()
        self.hello = self._reply()
        self.port = int(self.hello["port"])

    def _read_lines(self) -> None:
        assert self.process.stdout is not None
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _reply(self) -> Dict[str, Any]:
        try:
            line = self._lines.get(timeout=READ_TIMEOUT_S)
        except queue.Empty:
            raise RuntimeError("serve-http server did not answer in time") from None
        if line is None:
            raise RuntimeError(f"serve-http server exited with code {self.process.wait()}")
        return json.loads(line)

    def rss_mb(self) -> float:
        """Peak RSS of the front end plus the shard so far, in MB."""
        return float(self.command("rss")["rss_mb"])

    def command(self, text: str) -> Dict[str, Any]:
        assert self.process.stdin is not None
        self.process.stdin.write(text + "\n")
        self.process.stdin.flush()
        return self._reply()

    def stop(self) -> None:
        try:
            if self.process.poll() is None:
                self.command("stop")
                self.process.wait(timeout=30)
        except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError):
            pass
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait(timeout=30)
            self._reader.join(timeout=30)
            for stream in (self.process.stdin, self.process.stdout):
                if stream is not None:
                    stream.close()


@dataclass
class Outcome:
    """One request's round trip as the client saw it."""

    start: float
    end: float
    failure: Optional[str]
    response_bytes: int
    payload: Optional[Dict[str, Any]]


@dataclass
class ServeState:
    inputs: Inputs
    server: ServerProcess
    outcomes: Dict[int, Outcome] = field(default_factory=dict)
    #: Peak RSS read after RSS_UNITS completed units of the timed phase.
    rss_mb: Optional[float] = None


def post(conn: http.client.HTTPConnection, body: bytes) -> Tuple[int, bytes]:
    conn.request("POST", "/solve_batch", body=body, headers=HEADERS)
    response = conn.getresponse()
    return response.status, response.read()


def warm_up(server: ServerProcess, requests: Sequence[Request]) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=READ_TIMEOUT_S)
    try:
        for request in requests:
            status, raw = post(conn, request.body)
            if status != 200:
                raise RuntimeError(f"warm-up request got HTTP {status}: {raw[:200]!r}")
    finally:
        conn.close()


def run_clients(
    state: ServeState,
    server: ServerProcess,
    seconds: float,
    first_index: int,
    rss_after: Optional[int] = None,
) -> UnitLog:
    """Closed loop over :data:`CONNECTIONS` keep-alive connections.

    With ``rss_after``, the connection that completes that many units
    reads the server's peak RSS into ``state.rss_mb`` before it goes on.
    """
    requests = state.inputs.requests
    lock = threading.Lock()
    cursor = [first_index]
    completed = [0]
    started = time.perf_counter()
    deadline = started + seconds

    def client() -> None:
        conn = None
        while time.perf_counter() < deadline:
            with lock:
                index = cursor[0]
                if index >= len(requests):
                    return
                cursor[0] += 1
            if conn is None:
                conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=READ_TIMEOUT_S)
            begin = time.perf_counter()
            failure = None
            payload = None
            raw = b""
            try:
                status, raw = post(conn, requests[index].body)
                if status == 200:
                    payload = json.loads(raw)
                else:
                    failure = f"HTTP {status}"
            except (http.client.HTTPException, OSError, ValueError) as error:
                failure = f"transport error: {type(error).__name__}: {error}"
                conn.close()
                conn = None
            state.outcomes[index] = Outcome(begin, time.perf_counter(), failure, len(raw), payload)
            with lock:
                completed[0] += 1
                read_rss = completed[0] == rss_after
            if read_rss:
                state.rss_mb = server.rss_mb()
        if conn is not None:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 2 * READ_TIMEOUT_S)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a serve-http client connection did not finish")
    log = UnitLog(first_index=first_index)
    for index in range(first_index, cursor[0]):
        outcome = state.outcomes[index]
        log.record(index, outcome.end - outcome.start, outcome.failure)
    log.elapsed_s = time.perf_counter() - started
    return log


def contract_failure(request: Request, payload: Dict[str, Any], expected: Dict[str, List[str]]) -> Optional[str]:
    """Why a response is wrong: codes not echoed, or a contract that differs."""
    if payload.get("codes") != request.codes:
        return "response codes differ from the request's"
    designs = payload.get("designs")
    if not isinstance(designs, list) or len(designs) != len(request.rows):
        return "response does not carry one design per frame row"
    for design, subject in zip(designs, request.rows):
        got = [float(value).hex() for value in design.get("compensations", ())]
        if got != expected[subject]:
            return f"wrong contract for {subject}"
    return None


def serial_contracts(subproblems: Sequence[Subproblem]) -> Dict[str, List[str]]:
    """Contracts from a serial in-process solve, as exact float hex."""
    solutions = solve_subproblems(subproblems, mu=MU)
    return {
        subject: [value.hex() for value in solution.result.contract.compensations]
        for subject, solution in solutions.items()
    }


def merge_spans(
    units: Dict[int, Tuple[float, float]],
    keys: Dict[int, Tuple[str, ...]],
    server_spans: Sequence[list],
) -> Tuple[List[list], Dict[int, int]]:
    """Client unit spans plus the server's spans, each attributed to its unit.

    Both processes read the same monotonic clock.  Decode and router
    spans carry the request's frame fingerprints, which identify the
    unit.  Encoding runs once per frame row, uninterrupted, after the
    request's router call, so each encode span goes to the unit whose
    router call ended first among those still expecting that
    fingerprint next.
    """
    merged: List[list] = []
    roots: Dict[int, int] = {}
    for unit, (begin, end) in sorted(units.items()):
        roots[unit] = len(merged)
        merged.append(["unit", begin, end, -1, unit, 0, None])
    offset = len(merged)
    for span in server_spans:
        span = list(span)
        span[spanlib.PARENT] = span[spanlib.PARENT] + offset if span[spanlib.PARENT] >= 0 else -1
        span[spanlib.UNIT] = None
        if isinstance(span[spanlib.KEY], list):
            span[spanlib.KEY] = tuple(span[spanlib.KEY])
        merged.append(span)
    by_key = {keys[unit]: unit for unit in units}
    router_end: Dict[int, float] = {}
    encodes = []
    for index in range(offset, len(merged)):
        span = merged[index]
        if span[spanlib.PARENT] != -1:
            continue
        if span[spanlib.NAME] == "design_encode":
            encodes.append(index)
            continue
        unit = by_key.get(span[spanlib.KEY])
        if unit is not None:
            span[spanlib.UNIT] = unit
            span[spanlib.PARENT] = roots[unit]
            if span[spanlib.NAME] == "router":
                router_end[unit] = span[spanlib.END]
    pending = sorted(router_end, key=router_end.__getitem__)
    position = {unit: 0 for unit in pending}
    active: List[int] = []
    next_pending = 0
    for index in sorted(encodes, key=lambda i: merged[i][spanlib.START]):
        span = merged[index]
        while next_pending < len(pending) and router_end[pending[next_pending]] <= span[spanlib.START]:
            active.append(pending[next_pending])
            next_pending += 1
        for unit in active:
            sequence = keys[unit]
            if sequence[position[unit]] == span[spanlib.KEY]:
                span[spanlib.UNIT] = unit
                span[spanlib.PARENT] = roots[unit]
                position[unit] += 1
                if position[unit] == len(sequence):
                    active.remove(unit)
                break
    return merged, roots


def _counter(snapshot: Dict[str, Any], suffix: str) -> Optional[float]:
    for name, fields in snapshot.get("router", {}).items():
        if name.endswith(suffix):
            return float(fields.get("value", 0.0))
    return None


class ServeHTTP(Workload):
    name = "serve-http"
    #: A set-up generates every request body and boots a server (about
    #: 4 s on the host in baseline.json), so fewer samples fit the run budget.
    setup_samples = 3

    def __init__(self, seconds: float, phases: int) -> None:
        self.n_requests = int(PLANNED_RATE * seconds * phases)

    def inputs(self, seed: int) -> Inputs:
        return generate_inputs(seed, self.n_requests)

    def setup(self, seed: int, inputs: Inputs) -> ServeState:
        server = ServerProcess(trace=False)
        try:
            warm_up(server, inputs.warmup)
        except BaseException:
            server.stop()
            raise
        return ServeState(inputs, server)

    def teardown(self, state: ServeState) -> None:
        state.server.stop()

    def measure(self, state: ServeState, seconds: float, first_index: int = 0,
                recorder: Any = None) -> UnitLog:
        return run_clients(state, state.server, seconds, first_index, rss_after=RSS_UNITS)

    def peak_rss_mb(self, state: ServeState) -> float:
        """Front end plus shard after :data:`RSS_UNITS` units (at the end, if fewer ran)."""
        return state.rss_mb if state.rss_mb is not None else state.server.rss_mb()

    def traced_phase(self, state: ServeState, seconds: float, first_index: int) -> TracedPhase:
        server = ServerProcess(trace=True)
        try:
            warm_up(server, state.inputs.warmup)
            server.command("reset")
            before = server.command("stats")
            log = run_clients(state, server, seconds, first_index)
            after = server.command("stats")
            server_spans = server.command("spans")["spans"]
        finally:
            server.stop()
        indices = range(first_index, first_index + log.attempted)
        units = {i: (state.outcomes[i].start, state.outcomes[i].end) for i in indices}
        keys = {i: state.inputs.requests[i].key for i in indices}
        merged, roots = merge_spans(units, keys, server_spans)
        return TracedPhase(
            log=log,
            spans=merged,
            roots=roots,
            absent=dict(server.hello.get("absent", {})),
            counters=self._counters(state, indices, before, after),
            absent_counters=self._absent_counters(after),
        )

    def _counters(self, state: ServeState, indices: range, before: Dict[str, Any],
                  after: Dict[str, Any]) -> Dict[str, float]:
        n = max(len(indices), 1)
        totals_before, totals_after = before["totals"], after["totals"]
        hits = totals_after.get("cache_hits", 0.0) - totals_before.get("cache_hits", 0.0)
        misses = totals_after.get("cache_misses", 0.0) - totals_before.get("cache_misses", 0.0)
        values = {
            "serving.request_bytes": sum(len(state.inputs.requests[i].body) for i in indices) / n,
            "serving.response_bytes": sum(state.outcomes[i].response_bytes for i in indices) / n,
            "serving.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "serving.cache_misses": misses / n,
        }
        for metric, suffix in (("serving.retries", ".retries"),
                               ("serving.transport_errors", ".transport_errors"),
                               ("serving.local_fallbacks", ".local_fallbacks")):
            first, last = _counter(before, suffix), _counter(after, suffix)
            if first is not None and last is not None:
                values[metric] = (last - first) / n
        return values

    def _absent_counters(self, after: Dict[str, Any]) -> Dict[str, str]:
        absent = {}
        for metric, suffix in (("serving.retries", ".retries"),
                               ("serving.transport_errors", ".transport_errors"),
                               ("serving.local_fallbacks", ".local_fallbacks")):
            if _counter(after, suffix) is None:
                absent[metric] = f"router counter *{suffix} not found"
        for key in ("cache_hits", "cache_misses"):
            if key not in after.get("totals", {}):
                absent["serving.cache_hit_ratio"] = absent["serving.cache_misses"] = (
                    f"shard totals carry no {key}"
                )
        return absent

    def finish(self, state: ServeState, logs: Sequence[UnitLog]) -> Report:
        requests = state.inputs.requests
        answered = [
            index
            for log in logs
            for index in range(log.first_index, log.first_index + log.attempted)
            if state.outcomes[index].payload is not None
        ]
        used = sorted({subject for index in answered for subject in requests[index].rows})
        expected = serial_contracts([state.inputs.subproblems[subject] for subject in used])
        wrong = 0
        for log in logs:
            for index in range(log.first_index, log.first_index + log.attempted):
                payload = state.outcomes[index].payload
                if payload is None:
                    continue
                failure = contract_failure(requests[index], payload, expected)
                if failure is not None:
                    wrong += 1
                    log.fail(index, failure)
        digest = hashlib.sha256()
        covered = 0
        for index in range(min(DIGEST_REQUESTS, len(requests))):
            outcome = state.outcomes.get(index)
            if outcome is None or outcome.payload is None:
                break
            contracts = [
                [float(value).hex() for value in design.get("compensations", ())]
                for design in outcome.payload.get("designs", ())
            ]
            digest.update(json.dumps([outcome.payload.get("codes"), contracts]).encode())
            covered += 1
        return Report(
            checks=[
                Check(
                    "every contract byte-identical to a serial solve_subproblems",
                    wrong == 0,
                    f"{len(answered) - wrong} of {len(answered)} answered requests, "
                    f"{len(used)} distinct subproblems",
                )
            ],
            digest=digest.hexdigest()[:16],
            info=[f"digest covers the first {covered} requests"],
        )
