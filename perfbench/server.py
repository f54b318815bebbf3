"""The serve-http server process: the HTTP front end over a 1-shard ShardRouter.

Started by ``perfbench/serve.py``; not meant to be run by hand.  It
prints one JSON line when it is listening, then answers one JSON line
per command read from stdin:

* ``stats``: router counters and shard cache totals;
* ``rss``: peak RSS of the front end plus the shard;
* ``reset``: drop the spans recorded so far (traced servers);
* ``spans``: every span recorded since the last reset;
* ``stop``: shut down and exit.

With ``--trace`` the layer wrappers are installed before the shard is
forked; the shard runs the originals, so its work shows as the front
end's shard wait plus the snapshot counters.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    trace = "--trace" in sys.argv[1:]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness, spans

    harness.pin_switches(os.environ)
    from repro.serving.cluster.http import HTTPServerThread
    from repro.serving.cluster.router import ShardRouter

    # Only protocol lines go to stdout; anything else the program prints
    # lands on stderr.
    protocol = sys.stdout
    sys.stdout = sys.stderr

    def reply(payload: object) -> None:
        protocol.write(json.dumps(payload) + "\n")
        protocol.flush()

    recorder = spans.SpanRecorder()
    installation = spans.Installation(recorder)
    if trace:
        installation.install(drivers=False)
    router = ShardRouter(n_shards=1, mu=1.0)
    router.start()
    server = HTTPServerThread(router).start()
    try:
        shard_pids = [
            int(info["pid"]) for info in router.healthz()["shards"].values() if "pid" in info
        ]
        reply({"port": server.address[1], "pid": os.getpid(), "shard_pids": shard_pids,
               "absent": installation.absent})
        for line in sys.stdin:
            command = line.strip()
            if command == "stats":
                snapshot = router.stats_snapshot()
                reply({"router": snapshot["router"], "totals": snapshot["totals"]})
            elif command == "rss":
                rss = harness.vm_hwm_mb() + sum(harness.vm_hwm_mb(pid) for pid in shard_pids)
                reply({"rss_mb": rss})
            elif command == "reset":
                recorder.spans.clear()
                reply({"ok": True})
            elif command == "spans":
                reply({"spans": recorder.spans})
            elif command == "stop":
                break
            else:
                reply({"error": f"unknown command {command!r}"})
    finally:
        server.stop()
        router.close()
        installation.uninstall()
    reply({"stopped": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
