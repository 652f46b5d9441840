"""Traced TCP worker for the benchmark's desk-tcp2 workload.

    python3 perfbench/worker_entry.py TRACE_OUT fit --role worker ...

Installs the benchmark's span wrappers, then runs the public
`bartgrid.cli.main` with the remaining arguments.  When the worker exits it
writes its spans to TRACE_OUT for the master to merge by rank.
"""
from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from bartgrid import cli, protocol  # noqa: E402

from tracer import Tracer, install  # noqa: E402


def main(argv: list[str]) -> int:
    out, args = argv[0], argv[1:]
    start = time.perf_counter()
    marks: dict[str, float] = {}
    tracer = Tracer()

    def phase_marks(tr: Tracer, call_args, kwargs, msg) -> None:
        # The chain starts with the first ITER_BEGIN and ends at SHUTDOWN.
        if isinstance(msg, protocol.IterBegin) and tr.phase == "setup":
            tr.phase = "measure"
            marks["chain_start"] = time.perf_counter()
        elif isinstance(msg, protocol.Shutdown):
            tr.phase = "post"
            marks["chain_end"] = time.perf_counter()

    install(tracer, {"cluster.MessageIO.recv": phase_marks})
    serve = cli.connect_worker

    def loaded_then_serve(*call_args, **kwargs):
        marks["shard_loaded"] = time.perf_counter()
        return serve(*call_args, **kwargs)

    cli.connect_worker = loaded_then_serve
    try:
        return cli.main(args)
    finally:
        rank = int(args[args.index("--rank") + 1])
        tracer.dump(out, {"rank": rank, "start": start, **marks})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
