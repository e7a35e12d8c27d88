"""``python -m repro`` — the command-line front door.

Five subcommands, all thin wrappers over the public API:

* ``list`` — the registry, via ``describe_model`` / ``describe_problem``;
* ``solve`` — build a synthetic instance of a registered problem family
  (every family whose descriptor names a generator) and solve it in a
  registered model (``--set key=value`` forwards config fields); ``--json``
  prints the full ``SolveResult.to_dict()`` wire form;
* ``serve`` — boot the HTTP/SSE front end (``repro.server.ReproServer``)
  and serve until SIGINT, then drain in-flight tickets
  (``SolverService.shutdown(wait=True)``) before exiting;
* ``node`` — run a cluster node agent (``repro.cluster.NodeAgent``):
  ``--connect host:port`` dials a coordinator's registry, ``--listen
  host:port`` binds and waits for the registry to dial in; ``--set
  key=value`` overrides agent fields, consistent with ``serve``;
* ``bench`` — thin wrapper over ``benchmarks/run_suite.py`` (the canonical
  perf suite), resolved relative to the repository checkout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from .registry import get_family, problem_families

__all__ = ["main"]


def _coerce(text: str) -> Any:
    """Parse one ``--set`` value: JSON when possible, bare string otherwise."""
    try:
        return json.loads(text)
    except (ValueError, TypeError):
        return text


def _parse_overrides(pairs: Sequence[str]) -> dict[str, Any]:
    overrides: dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        overrides[key] = _coerce(value)
    return overrides


def _cmd_list(args: argparse.Namespace) -> int:
    from .registry import (
        available_models,
        available_problems,
        describe_model,
        describe_problem,
    )

    show_models = args.what in ("models", "all")
    show_problems = args.what in ("problems", "all")
    if show_models:
        print("models:")
        for name in available_models():
            info = describe_model(name)
            caps = ",".join(info["capabilities"]) or "-"
            print(
                f"  {name:24s} transports={','.join(info['transports'])} "
                f"capabilities={caps}"
            )
            print(f"      {info['description']}")
    if show_problems:
        print("problems:")
        for name in available_problems():
            info = describe_problem(name)
            print(f"  {name:24s} tags={','.join(info['tags']) or '-'}")
            print(f"      {info['description']}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from .config import SolverConfig
    from .facade import solve

    problem = get_family(args.problem).synthetic(args.n, args.d, args.seed)
    overrides = _parse_overrides(args.set or [])
    overrides.setdefault("seed", args.seed)
    config: Optional[SolverConfig] = None
    if args.practical:
        from .registry import get_model

        config_cls = get_model(args.model).config_cls
        seed = overrides.pop("seed")
        config = config_cls.practical(problem, seed=seed, **overrides)
        overrides = {}
    result = solve(problem, model=args.model, config=config, **overrides)
    if args.json:
        json.dump(result.to_dict(), sys.stdout, indent=2)
        print()
    else:
        for key, value in result.summary().items():
            print(f"{key:24s} {value}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from ..server import ReproServer

    tenants = None
    if args.tenants:
        tenants = json.loads(Path(args.tenants).read_text(encoding="utf-8"))
    overrides = _parse_overrides(args.set or [])
    server = ReproServer(
        host=args.host,
        port=args.port,
        model=args.model,
        max_workers=args.workers,
        tenants=tenants,
        allow_anonymous=(None if args.anonymous is None else bool(args.anonymous)),
        usage_log=args.usage_log,
        verbose=args.verbose,
        **overrides,
    )
    # Orchestrators stop containers with SIGTERM, not SIGINT: route it
    # through the same clean-drain path as Ctrl-C.  Installed before the
    # "listening on" announcement so a supervisor that signals as soon as
    # the server reports ready cannot race the handler.  Installing a
    # handler only works on the main thread — anywhere else, keep the
    # default.
    import signal

    def _sigterm(_signum: int, _frame: Any) -> None:
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _sigterm)
    except ValueError:
        pass
    try:
        print(
            f"repro server listening on {server.url} (model={args.model})",
            flush=True,
        )
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down (draining in-flight tickets) ...", flush=True)
    finally:
        # Drains every accepted ticket through SolverService.shutdown(wait=True)
        # before the session pool (and its worker processes) is closed.
        server.close()
    return 0


def _cmd_node(args: argparse.Namespace) -> int:
    from ..cluster.agent import NodeAgent
    from ..cluster.protocol import parse_address

    overrides = _parse_overrides(args.set or [])
    if args.name is not None:
        overrides["name"] = args.name
    known = ("name", "heartbeat_interval_s")
    unknown = sorted(set(overrides) - set(known))
    if unknown:
        raise SystemExit(
            f"unknown node agent field(s) {', '.join(map(repr, unknown))}; "
            f"supported: {', '.join(known)}"
        )
    agent = NodeAgent(**overrides)
    try:
        if args.connect is not None:
            return int(agent.run_connect(parse_address(args.connect)) or 0)
        return int(agent.run_listen(parse_address(args.listen)) or 0)
    except ValueError as exc:
        raise SystemExit(str(exc))
    except KeyboardInterrupt:
        return 0


def _find_run_suite() -> Path:
    """Locate ``benchmarks/run_suite.py`` (source checkout layout)."""
    candidates = [
        Path.cwd() / "benchmarks" / "run_suite.py",
        # src/repro/api/cli.py -> repo root is four levels up.
        Path(__file__).resolve().parents[3] / "benchmarks" / "run_suite.py",
    ]
    for candidate in candidates:
        if candidate.is_file():
            return candidate
    raise SystemExit(
        "benchmarks/run_suite.py not found; `python -m repro bench` needs a "
        "source checkout (run it from the repository root)"
    )


def _run_bench(bench_args: Sequence[str]) -> int:
    import runpy

    suite = _find_run_suite()
    argv = [str(suite)] + list(bench_args)
    old_argv = sys.argv
    sys.argv = argv
    try:
        try:
            runpy.run_path(str(suite), run_name="__main__")
        except SystemExit as exc:
            return int(exc.code or 0)
    finally:
        sys.argv = old_argv
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered models and problems")
    p_list.add_argument(
        "what",
        nargs="?",
        choices=("models", "problems", "all"),
        default="all",
        help="what to list (default: all)",
    )
    p_list.set_defaults(func=_cmd_list)

    p_solve = sub.add_parser(
        "solve", help="solve a synthetic instance of a registered problem family"
    )
    p_solve.add_argument(
        "--problem",
        choices=[f.name for f in problem_families() if f.synthetic is not None],
        default="lp",
    )
    p_solve.add_argument("--model", default="streaming")
    p_solve.add_argument("--n", type=int, default=5000, help="constraint count")
    p_solve.add_argument("--d", type=int, default=3, help="ambient dimension")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument(
        "--practical",
        action="store_true",
        help="use the constant-free practical profile",
    )
    p_solve.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="config field override (repeatable), e.g. --set r=3 --set num_sites=8",
    )
    p_solve.add_argument(
        "--json", action="store_true", help="print the full SolveResult.to_dict()"
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_serve = sub.add_parser(
        "serve", help="boot the HTTP/SSE solver front end (see docs/service.md)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8731, help="bind port (0 picks a free one)"
    )
    p_serve.add_argument(
        "--model", default="streaming", help="default model for requests"
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker threads per model's SolverService",
    )
    p_serve.add_argument(
        "--tenants",
        metavar="FILE.json",
        help=(
            "JSON file mapping API keys to tenants and quotas: "
            '{"<key>": {"tenant": "acme", "max_concurrent": 4, ...}}'
        ),
    )
    anon = p_serve.add_mutually_exclusive_group()
    anon.add_argument(
        "--anonymous",
        dest="anonymous",
        action="store_true",
        default=None,
        help="admit unauthenticated requests as the shared 'public' tenant",
    )
    anon.add_argument(
        "--no-anonymous",
        dest="anonymous",
        action="store_false",
        help="require an API key on every request",
    )
    p_serve.add_argument(
        "--usage-log",
        metavar="FILE.jsonl",
        help="append one JSON line per finished ticket (the usage ledger)",
    )
    p_serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    p_serve.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="base config field override shared by every model (repeatable)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_node = sub.add_parser(
        "node",
        help=(
            "run a cluster node agent (the remote end of "
            "TransportConfig(kind='tcp'); see docs/fabric.md)"
        ),
    )
    peer = p_node.add_mutually_exclusive_group(required=True)
    peer.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="dial the coordinator's cluster registry at this address",
    )
    peer.add_argument(
        "--listen",
        metavar="HOST:PORT",
        help=(
            "bind this address and wait for the registry to dial in "
            "(port 0 picks a free one; the bound address is announced on stdout)"
        ),
    )
    p_node.add_argument(
        "--name", default=None, help="agent name reported at registration"
    )
    p_node.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help=(
            "agent field override (repeatable), e.g. "
            "--set heartbeat_interval_s=0.2"
        ),
    )
    p_node.set_defaults(func=_cmd_node)

    sub.add_parser(
        "bench",
        help=(
            "run the canonical perf suite (every argument after 'bench' is "
            "forwarded to benchmarks/run_suite.py verbatim; e.g. "
            "'bench --tier xlarge --backends numpy fused', or "
            "'bench --history' to print the checked-in snapshot geomeans "
            "per tier and kernel backend)"
        ),
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # 'bench' forwards its whole tail to run_suite.py: routed before argparse
    # because REMAINDER cannot capture a leading optional like '--tier'.
    if argv[:1] == ["bench"]:
        return _run_bench(argv[1:])
    args = build_parser().parse_args(argv)
    return int(args.func(args) or 0)
