"""Contract serving: batching, caching and streaming contract requests.

Run with::

    python examples/serving_demo.py

Builds a synthetic marketplace population whose workers cluster into a
handful of archetypes (the Section IV-B class-level fits), then serves
contract requests three ways:

1. directly through a :class:`repro.serving.SolverPool` — fingerprint
   dedup collapses the population onto one solve per archetype;
2. across repeated rounds — the contract cache turns steady-state
   rounds into dictionary lookups;
3. through a zero-shard :class:`repro.serving.ShardRouter` — the serving
   tier's one front end (what ``repro serve`` drives), here solving its
   cache misses in-process;
4. once more with tracing on — ``repro.obs`` records the span tree
   (batch -> designs) and renders the hottest-spans report;
5. over HTTP against a 2-shard cluster — a plain ``http.client``
   consumer posts one columnar frame (the archetype table plus a code
   per subject) to the router's front end and reads back the same
   contracts the pool produced;
6. the cluster round again with tracing on — the span context crosses
   the HTTP hop and the shard pipes, the shards' spans are scraped
   back over ``obs_export``, and the merged report shows one trace
   tree spanning three processes next to the federated shard counters.
"""

from __future__ import annotations

import http.client
import json

from repro.serving import ContractCache, ServingStats, ShardRouter, SolverPool
from repro.serving.cluster.codec import columnar_frame, frame_to_json
from repro.serving.workload import synthetic_subproblems

N_SUBJECTS = 120
N_ARCHETYPES = 12
N_ROUNDS = 3


def pooled_rounds() -> None:
    """Serve repeated marketplace rounds through the solver pool."""
    subproblems = synthetic_subproblems(
        n_subjects=N_SUBJECTS, n_archetypes=N_ARCHETYPES, seed=42
    )
    stats = ServingStats()
    pool = SolverPool(cache=ContractCache(), stats=stats)
    for round_index in range(N_ROUNDS):
        solutions, diagnostics = pool.solve_with_diagnostics(subproblems)
        hits = sum(1 for d in diagnostics.values() if d.cache_hit)
        hired = sum(1 for s in solutions.values() if s.result.hired)
        print(
            f"round {round_index}: {hired}/{len(solutions)} hired, "
            f"{hits} contracts served from cache"
        )
    print(stats.format())
    print()


def routed_rounds() -> None:
    """Serve rounds through a router without shards (``repro serve``)."""
    subproblems = synthetic_subproblems(
        n_subjects=24, n_archetypes=6, seed=42
    )
    with ShardRouter(n_shards=0) as router:
        for round_index in range(2):
            designs, hits = router.solve_designs(subproblems)
            print(
                f"router round {round_index}: {len(designs)} designs, "
                f"{sum(hits)} served from cache"
            )
        for subproblem, design in list(zip(subproblems, designs))[:3]:
            print(
                f"  {subproblem.subject_id}: k_opt={design.k_opt}, "
                f"pay={design.response.compensation:.3f}"
            )
        print(f"/healthz: {router.healthz()['status']} (no shards)")


def post_frame(conn: http.client.HTTPConnection, router, subproblems) -> list:
    """POST one round as a columnar frame; designs fanned out by code."""
    frame = columnar_frame(subproblems, router.fingerprints(subproblems))
    body = json.dumps({"columnar": frame_to_json(frame)})
    conn.request("POST", "/solve_batch", body=body)
    reply = json.loads(conn.getresponse().read())
    return [reply["designs"][code] for code in reply["codes"]]


def traced_round() -> None:
    """Trace one pooled round and render the repro.obs span report."""
    from repro.obs.export import render_report, span_records
    from repro.obs.trace import Tracer, set_tracer

    tracer = Tracer(enabled=True)
    previous = set_tracer(tracer)
    try:
        subproblems = synthetic_subproblems(
            n_subjects=24, n_archetypes=6, seed=42
        )
        SolverPool().solve(subproblems)
    finally:
        set_tracer(previous)
    print("the same round, traced (repro.obs):")
    print(render_report(span_records(tracer), top=5), end="")


def clustered_round() -> None:
    """Serve one round over HTTP against a sharded cluster.

    This is the full network path: a stdlib ``http.client`` consumer,
    JSON on the wire, a router answering from its one contract cache and
    sending the misses to its shard processes.  The contracts that come
    back are byte-identical to the pooled path above.
    """
    from repro.serving import HTTPServerThread

    subproblems = synthetic_subproblems(
        n_subjects=24, n_archetypes=6, seed=42
    )
    with ShardRouter(n_shards=2, supervise_interval=0.0) as router:
        with HTTPServerThread(router) as server:
            host, port = server.address
            conn = http.client.HTTPConnection(host, port, timeout=30.0)
            try:
                designs = post_frame(conn, router, subproblems)
                hired = sum(1 for d in designs if d["hired"])
                print(
                    f"HTTP /solve_batch on {len(router.shard_ids)} shards: "
                    f"{hired}/{len(designs)} hired"
                )
                conn.request("GET", "/healthz")
                health = json.loads(conn.getresponse().read())
                print(
                    f"/healthz: {health['status']} "
                    f"({health['n_healthy']}/{health['n_shards']} shards)"
                )
            finally:
                conn.close()


def traced_cluster_round() -> None:
    """Trace one HTTP cluster round end to end across processes.

    The ``traceparent`` header carries the trace across the HTTP hop,
    the pipe protocol carries it into the shard processes, and
    ``obs_scrape`` brings the shards' spans back — so the report below
    renders ONE tree: ``cluster.http_request`` parenting the router's
    dispatch spans parenting each shard's ``serving.solve_batch``.
    """
    from repro.obs.export import render_report, span_records
    from repro.obs.trace import Tracer, set_tracer
    from repro.serving import HTTPServerThread

    subproblems = synthetic_subproblems(
        n_subjects=24, n_archetypes=6, seed=42
    )
    tracer = Tracer(enabled=True)
    previous = set_tracer(tracer)
    try:
        with ShardRouter(n_shards=2, supervise_interval=0.0) as router:
            with HTTPServerThread(router) as server:
                host, port = server.address
                conn = http.client.HTTPConnection(host, port, timeout=30.0)
                try:
                    post_frame(conn, router, subproblems)
                finally:
                    conn.close()
            scrape = router.obs_scrape(include_spans=True)
    finally:
        set_tracer(previous)

    print("the cluster round, traced across processes (repro.obs):")
    records = list(span_records(tracer)) + list(scrape.span_records())
    print(render_report(records, top=5), end="")
    print("federated shard counters (obs_scrape; shards solve misses):")
    for source, value in scrape.shard_values("serving.requests").items():
        print(f"  {source}: serving.requests = {value:.0f}")
    print(f"  cluster total: {scrape.value('serving.requests'):.0f}")
    print(f"  router cache misses: {scrape.value('cluster.local.cache_misses'):.0f}")


def main() -> None:
    pooled_rounds()
    routed_rounds()
    print()
    traced_round()
    print()
    clustered_round()
    print()
    traced_cluster_round()


if __name__ == "__main__":
    main()
