"""Run one rankcert CLI command in this (fresh) process and report its cost.

    python -m perfbench.child RESULT_JSON [--spans SPANS_TSV] -- CLI_ARGS...

Writes ``{"wall_s", "peak_rss_mb"}`` to RESULT_JSON. The wall time covers
the command from argument parsing to its last output file, input loading
included, but not interpreter start-up and imports. With ``--spans`` the
rankcert layers are traced (see :mod:`perfbench.tracing`): the spans go to
SPANS_TSV and the per-layer metrics and per-query latencies into the result.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _jobs(cli_args: list[str]) -> int:
    return int(cli_args[cli_args.index("--jobs") + 1]) if "--jobs" in cli_args else 1


def main(argv: list[str]) -> int:
    import click

    from rankcert.cli import main as cli_main

    result_path, rest = argv[0], argv[1:]
    spans_path = None
    if rest[:1] == ["--spans"]:
        spans_path, rest = rest[1], rest[2:]
    if rest[:1] != ["--"]:
        raise SystemExit("usage: python -m perfbench.child RESULT_JSON [--spans TSV] -- CLI_ARGS...")
    cli_args = rest[1:]

    tracer = None
    command = cli_main
    if spans_path is not None:
        from perfbench.tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
        command = tracer.wrap("cli.command", cli_main)

    start = time.perf_counter()
    try:
        command(cli_args, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return 1
    wall = time.perf_counter() - start

    result = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from perfbench.tracing import layer_metrics, query_latencies

        result["layers"] = layer_metrics(tracer.spans, _jobs(cli_args))
        result["query_s"] = query_latencies(tracer.spans)
        result["spans"] = len(tracer.spans)
        tracer.write(spans_path, start)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
