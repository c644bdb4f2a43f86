"""``python -m repro.serve``: run a study server from the command line."""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import sys

from repro.api.session import Session
from repro.serve.budgets import ServeBudgets
from repro.serve.server import ServeConfig, StudyServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description=(
            "Serve the study/design API over HTTP: POST /v1/study, "
            "POST /v1/design, streamed POST /v1/sweep, GET /v1/health|stats."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8642, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--workers", type=int, default=8, help="compute bridge threads"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="session root seed"
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="content-addressed report store directory (persistent cache)",
    )
    parser.add_argument(
        "--max-samples",
        type=int,
        default=None,
        metavar="N",
        help="cap on per-study n_samples (also applied to design validation)",
    )
    parser.add_argument(
        "--max-sweep-points", type=int, default=None, metavar="N"
    )
    parser.add_argument("--max-n-jobs", type=int, default=None, metavar="N")
    parser.add_argument("--max-in-flight", type=int, default=None, metavar="N")
    return parser


def config_from_args(args: argparse.Namespace) -> ServeConfig:
    defaults = ServeBudgets()
    budgets = ServeBudgets(
        max_study_samples=(
            args.max_samples if args.max_samples is not None
            else defaults.max_study_samples
        ),
        max_validation_samples=(
            args.max_samples if args.max_samples is not None
            else defaults.max_validation_samples
        ),
        max_sweep_points=(
            args.max_sweep_points if args.max_sweep_points is not None
            else defaults.max_sweep_points
        ),
        max_n_jobs=(
            args.max_n_jobs if args.max_n_jobs is not None
            else defaults.max_n_jobs
        ),
        max_in_flight=(
            args.max_in_flight if args.max_in_flight is not None
            else defaults.max_in_flight
        ),
    )
    return ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        budgets=budgets,
    )


async def _amain(args: argparse.Namespace) -> None:
    store = None
    if args.store is not None:
        from repro.robust.checkpoint import CheckpointStore

        store = CheckpointStore(args.store)
    session = Session(root_seed=args.seed, store=store)
    server = StudyServer(session=session, config=config_from_args(args))
    await server.start()
    print(
        f"repro.serve listening on http://{server.host}:{server.port} "
        f"(seed={args.seed}, workers={server.config.workers})",
        flush=True,
    )
    try:
        await server.serve_forever()
    finally:
        await server.shutdown(drain=True)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with contextlib.suppress(asyncio.CancelledError):
            asyncio.run(_amain(args))
    except KeyboardInterrupt:
        print("repro.serve: interrupted, drained and stopped", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
