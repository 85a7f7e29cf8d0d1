"""Server process for the ``serve-mixed`` workload.

Builds the server as ``repro serve --backend analytic --port 0`` does
(every setting taken from the CLI's own parser defaults), plus
``verify="quick"``, and serves until SIGTERM.  With ``--trace-dir`` the
layer wrappers are installed before the server starts, and the spans plus
the GNN adjacency-memo counters are written there at shutdown.

Run by ``serve.py``; not meant to be started by hand::

    python3 perfbench/serve_child.py --src src [--trace-dir DIR]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    tracer = None
    if args.trace_dir is not None:
        from spans import Tracer

        tracer = Tracer(Path(args.trace_dir)).install()

    from repro.cli import build_parser
    from repro.core.session import Session
    from repro.serve import ReproServer, TenantTable

    cli = build_parser().parse_args(["serve", "--backend", "analytic",
                                     "--port", "0"])
    session = Session(cli.config, backend=cli.backend,
                      partition=cli.partition or "auto", impl=cli.impl,
                      executor=cli.executor, workers=cli.workers,
                      cache_dir=cli.cache_dir, verify="quick")
    server = ReproServer(session, host=cli.host, port=cli.port,
                         max_batch=cli.max_batch,
                         max_delay_ms=cli.max_delay_ms,
                         queue_depth=cli.queue_depth,
                         request_timeout_s=cli.request_timeout,
                         coalesce=not cli.no_coalesce,
                         registry_max_bytes=cli.registry_max_mib
                         * 1024 * 1024,
                         tenants=TenantTable(
                             default_weight=cli.default_weight),
                         scheduling=cli.scheduling)
    try:
        asyncio.run(server.run_forever())
    finally:
        session.close()
        if tracer is not None:
            from repro.gnn.gcn import adjacency_cache_stats

            tracer.dump()
            summary = {"adjacency_cache": adjacency_cache_stats()}
            (Path(args.trace_dir) / "server-summary.json").write_text(
                json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
