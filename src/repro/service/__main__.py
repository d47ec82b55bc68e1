"""Compile-service CLI:
``python -m repro.service <serve|submit|metrics|loadgen>``.

``serve`` runs the asyncio server in the foreground — in-process by
default, a worker cluster with ``--workers``::

    python -m repro.service serve --port 9090 \\
        --workers 2 --shards 2 --cache-dir /data/store --queue-limit 64

``submit`` compiles a model over the wire (one request per ``--pattern``,
batched when several are given)::

    python -m repro.service submit --socket /tmp/repro.sock \\
        --model flat --pattern nested-switch --pattern state-table

``metrics`` prints the server's telemetry document as JSON — request
totals, latency, queue, workers and cache counters (``--json`` for one
scrape-friendly line).

``serve`` and ``loadgen`` accept ``--trace-out TRACE.json``: sampling
is flipped to 1.0 and every span the process saw — for loadgen that is
the whole distributed trace, client + server + worker processes — is
written as Chrome trace_event JSON on exit (load it in Perfetto or
``python -m repro.obs view``).

``loadgen`` drives a deterministic mixed corpus (workload families +
mutant chains + fuzz machines + duplicates) against a running server
and reports throughput and latency percentiles; ``--verify`` also
recompiles everything locally and demands byte-identical payloads::

    python -m repro.service loadgen --port 9090 --clients 4 --verify
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import List, Optional

from ..engine import EngineSpec, ExperimentEngine
from ..obs.export import write_chrome_trace
from ..obs.trace import configure, get_tracer
from ..uml.serialize import load_machine
from .client import ServiceClient, ServiceError
from .loadgen import LoadgenSpec, build_corpus, run_load, verify_payloads
from .server import start_service

#: Named models submit can compile without a machine-JSON file.
_MODELS = {
    "flat": "flat_machine_with_unreachable_state",
    "flat-opt": "flat_machine_optimized_by_hand",
    "hier": "hierarchical_machine_with_shadowed_composite",
    "hier-opt": "hierarchical_machine_optimized_by_hand",
}


def _add_address_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--socket", metavar="PATH",
                        help="unix socket path of the server")
    parser.add_argument("--host", default="127.0.0.1",
                        help="TCP host (with --port; default %(default)s)")
    parser.add_argument("--port", type=int, metavar="N",
                        help="TCP port of the server")


def _client(args: argparse.Namespace, **kwargs) -> ServiceClient:
    if not args.socket and args.port is None:
        raise SystemExit("error: need --socket or --port")
    return ServiceClient(socket_path=args.socket, host=args.host,
                         port=args.port, **kwargs)


def _trace_flush(path: Optional[str], **metadata) -> None:
    """Write every span this process buffered to *path* (no-op when
    ``--trace-out`` was not given)."""
    if not path:
        return
    count = write_chrome_trace(path, get_tracer().drain(),
                               metadata=metadata)
    print(f"wrote {count} span(s) to {path}", file=sys.stderr)


def _cmd_serve(args: argparse.Namespace) -> int:
    if not args.socket and args.port is None:
        print("error: need --socket or --port to serve on",
              file=sys.stderr)
        return 2
    if args.trace_out:
        configure(sample_ratio=1.0, process="service")
    engine = None
    engine_spec = None
    if args.workers > 0:
        engine_spec = EngineSpec(jobs=args.jobs, backend=args.backend,
                                 cache_dir=args.cache_dir,
                                 shards=args.shards)
        described = (f"cluster: {args.workers} workers, "
                     f"{args.shards} store shard(s)"
                     + (f" under {args.cache_dir}" if args.cache_dir
                        else ""))
    else:
        engine = ExperimentEngine(jobs=args.jobs, backend=args.backend,
                                  cache_dir=args.cache_dir,
                                  shards=args.shards)
        described = engine.describe()

    async def _serve() -> None:
        server, service = await start_service(
            engine, socket_path=args.socket, host=args.host,
            port=args.port, workers=args.workers,
            engine_spec=engine_spec, queue_limit=args.queue_limit)
        where = args.socket if args.socket else \
            "%s:%d" % server.sockets[0].getsockname()[:2]
        print(f"repro compile service listening on {where} "
              f"({described})", file=sys.stderr)
        try:
            async with server:
                await server.serve_forever()
        finally:
            service.close()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("service stopped", file=sys.stderr)
    finally:
        _trace_flush(args.trace_out, mode="serve",
                     workers=args.workers, shards=args.shards)
    return 0


def _load_model(args: argparse.Namespace):
    if args.machine_json:
        return load_machine(args.machine_json)
    from ..experiments import models
    return getattr(models, _MODELS[args.model])()


def _cmd_submit(args: argparse.Namespace) -> int:
    machine = _load_model(args)
    patterns: List[str] = args.pattern or ["nested-switch"]
    with _client(args) as client:
        if len(patterns) == 1:
            results = [client.compile_machine(
                machine, pattern=patterns[0], level=args.level,
                target=args.target, want_asm=args.asm)]
        else:
            from .protocol import compile_params
            results = client.submit_batch([
                compile_params(machine, pattern=pattern, level=args.level,
                               target=args.target, want_asm=args.asm)
                for pattern in patterns])
    print(json.dumps(results if len(results) > 1 else results[0],
                     indent=2, sort_keys=True))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    with _client(args) as client:
        print(json.dumps(client.metrics(),
                         indent=None if args.json else 2,
                         sort_keys=True))
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    spec = LoadgenSpec(machines=args.machines, mutants=args.mutants,
                       fuzz_machines=args.fuzz_machines, seed=args.seed)
    corpus = build_corpus(spec, screen=not args.no_screen)
    for _ in range(max(0, args.repeat - 1)):
        corpus = corpus + corpus
    print(f"loadgen: {len(corpus)} jobs, {args.clients} client(s), "
          f"batches of {args.batch_size}", file=sys.stderr)
    if args.trace_out:
        # After corpus screening: the trace should hold the served
        # load, not the local pre-compiles.
        configure(sample_ratio=1.0, process="loadgen")

    def make_client():
        return _client(args, busy_retries=args.busy_retries)

    try:
        report = run_load(make_client, corpus,
                          batch_size=args.batch_size,
                          clients=args.clients)
    finally:
        _trace_flush(args.trace_out, mode="loadgen", jobs=len(corpus),
                     clients=args.clients, batch_size=args.batch_size)
    summary = report.as_dict()
    if args.verify:
        divergent = verify_payloads(corpus, report.payloads)
        summary["divergent_payloads"] = len(divergent)
        if divergent:
            print(f"error: {len(divergent)} served payloads diverge "
                  f"from the in-process compiler", file=sys.stderr)
    print(json.dumps(summary, indent=None if args.json else 2,
                     sort_keys=True))
    return 1 if summary.get("divergent_payloads") else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve, query, submit to and load-test the repro "
                    "compile service.")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the compile server")
    _add_address_args(serve)
    serve.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="engine worker-pool width (default "
                            "%(default)s)")
    serve.add_argument("--workers", type=int, default=0, metavar="N",
                       help="compile-worker processes (0 = in-process "
                            "engine; default %(default)s)")
    serve.add_argument("--shards", type=int, default=1, metavar="M",
                       help="consistent-hash store shards under "
                            "--cache-dir (default %(default)s)")
    serve.add_argument("--queue-limit", type=int, default=None,
                       metavar="Q",
                       help="bounded-queue size; over-limit requests "
                            "get busy replies (default: unbounded)")
    serve.add_argument("--cache-dir", metavar="DIR",
                       help="persistent artifact store directory "
                            "(tiered memory-over-disk cache)")
    serve.add_argument("--backend",
                       choices=("memory", "disk", "tiered"),
                       help="cache backend (default: tiered with "
                            "--cache-dir, else memory)")
    serve.add_argument("--trace-out", metavar="TRACE.json",
                       help="sample every request and write the "
                            "server-side spans as Chrome trace JSON "
                            "on shutdown")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser("submit", help="compile a model via the "
                                           "service")
    _add_address_args(submit)
    submit.add_argument("--model", choices=sorted(_MODELS),
                        default="flat",
                        help="named experiment model (default "
                             "%(default)s)")
    submit.add_argument("--machine-json", metavar="FILE",
                        help="machine JSON file (overrides --model)")
    submit.add_argument("--pattern", action="append", metavar="NAME",
                        help="codegen pattern; repeat for a batch "
                             "(default nested-switch)")
    submit.add_argument("--level", default="-Os",
                        help="optimization level (default %(default)s)")
    submit.add_argument("--target", default=None, metavar="NAME",
                        help="backend ISA (default: registry default)")
    submit.add_argument("--asm", action="store_true",
                        help="include the assembly listing in the "
                             "result")
    submit.set_defaults(func=_cmd_submit)

    metrics = sub.add_parser("metrics", help="print server request/"
                                             "latency/queue/worker/cache "
                                             "telemetry")
    _add_address_args(metrics)
    metrics.add_argument("--json", action="store_true",
                         help="print the document as one JSON line "
                              "(scrape-friendly)")
    metrics.set_defaults(func=_cmd_metrics)

    loadgen = sub.add_parser("loadgen", help="drive a mixed compile "
                                             "load against a server")
    _add_address_args(loadgen)
    loadgen.add_argument("--machines", type=int, default=3, metavar="N",
                         help="workload families (default %(default)s)")
    loadgen.add_argument("--mutants", type=int, default=3, metavar="N",
                         help="mutant chain length per family "
                              "(default %(default)s)")
    loadgen.add_argument("--fuzz-machines", type=int, default=4,
                         metavar="N",
                         help="fuzz-generated machines (default "
                              "%(default)s)")
    loadgen.add_argument("--seed", type=int, default=20260808,
                         help="corpus seed (default %(default)s)")
    loadgen.add_argument("--repeat", type=int, default=1, metavar="K",
                         help="double the corpus K-1 times (warm-cache "
                              "load; default %(default)s)")
    loadgen.add_argument("--batch-size", type=int, default=8,
                         metavar="B",
                         help="jobs per batch request (default "
                              "%(default)s)")
    loadgen.add_argument("--clients", type=int, default=2, metavar="C",
                         help="concurrent client connections (default "
                              "%(default)s)")
    loadgen.add_argument("--busy-retries", type=int, default=20,
                         metavar="R",
                         help="busy-reply backoff retries per request "
                              "(default %(default)s)")
    loadgen.add_argument("--no-screen", action="store_true",
                         help="skip pre-compiling the corpus locally "
                              "(keeps uncompilable fuzz draws)")
    loadgen.add_argument("--verify", action="store_true",
                         help="recompile locally and require "
                              "byte-identical payloads")
    loadgen.add_argument("--json", action="store_true",
                         help="print the summary as one JSON line")
    loadgen.add_argument("--trace-out", metavar="TRACE.json",
                         help="trace every request end-to-end (client "
                              "+ server + workers) and write one "
                              "Chrome trace JSON")
    loadgen.set_defaults(func=_cmd_loadgen)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConnectionError, ServiceError, FileNotFoundError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
