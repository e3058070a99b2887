"""Command-line surface: gen | sample | solve | certify | bound | sweep |
verify-lemmas.

Exit codes: 0 success, 1 domain error, 2 usage error.  All randomness flows
from --seed; for sample and verify-lemmas the LISTCOLOR_SEED environment
variable supplies the seed when the flag is absent.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import sys

from . import bounds, certificates as certs
from .errors import ListColorError
from .graphs import FAMILIES, read_graph, write_graph
from .harness import CorpusSpec, ExperimentConfig, sweep, verify_lemmas
from .lists import SeedSpec, read_lists, sample_assignment, write_lists
from .solver import solve


class UsageError(Exception):
    pass


def _seed(args) -> int:
    """--seed, else LISTCOLOR_SEED, else 0."""
    raw = (os.environ.get("LISTCOLOR_SEED") or 0) if args.seed is None else args.seed
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"LISTCOLOR_SEED must be an integer, got {raw!r}") from None


def _write_out(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_graph(path: str):
    with open(path, encoding="utf-8") as handle:
        return read_graph(handle.read())


def _cmd_gen(args) -> int:
    generator, arg_names, _ = FAMILIES[args.family.replace("-", "_")]
    values = [getattr(args, name) for name in arg_names]
    _require(None not in values,
             f"{args.family} needs " + " and ".join(f"--{name}" for name in arg_names))
    if "parts" in arg_names:  # the only list argument: comma-separated sizes
        values = [[int(p) for p in args.parts.split(",") if p.strip()]]
    _write_out(write_graph(generator(*values)), args.out)
    return 0


def _cmd_sample(args) -> int:
    g = _load_graph(args.graph)
    assignment = sample_assignment(g, args.k, args.sigma, SeedSpec(_seed(args), args.trial))
    _write_out(write_lists(assignment), args.out)
    return 0


def _cmd_solve(args) -> int:
    g = _load_graph(args.graph)
    with open(args.lists, encoding="utf-8") as handle:
        assignment = read_lists(handle.read(), g)
    result = solve(g, assignment)
    print(result.status)
    if args.stats:
        print(json.dumps(dataclasses.asdict(result.stats)))
    if args.witness and result.colorable:
        print(json.dumps({str(v): c for v, c in sorted(result.coloring.items())}))
    return 0


def _cmd_certify(args) -> int:
    g = _load_graph(args.graph)
    with open(args.lists, encoding="utf-8") as handle:
        assignment = read_lists(handle.read(), g)
    kinds = certs.CERTIFICATE_KINDS if args.kind == "auto" else (args.kind,)
    if args.kind != "auto":  # a named kind that cannot apply is a usage error
        reason = certs.CERTIFICATE_KINDS[args.kind].obstacle(assignment.k, g)
        _require(reason is None, reason)
    solved = solve(g, assignment)
    if solved.colorable:
        print(json.dumps({"kind": None, "colorable": True}))
        return 0
    found = certs.certify(g, assignment, kinds, solved)  # a guard exits 1
    if found is None:
        print(json.dumps({"kind": None, "colorable": False, "note": "no certificate found"}))
        return 0
    kind, cert = found
    _, witness = kind.check(g, assignment, cert)
    print(json.dumps(certs.certificate_to_json(cert, witness), sort_keys=True))
    return 0


_FLAGS = {"expectation": "e", "covariance_sum": "pi"}  # parameter -> flag, where they differ


def _cmd_bound(args) -> int:
    name = args.bound
    if name in bounds.FORMULAS:
        fn = bounds.FORMULAS[name]
        kwargs = {}
        for param in inspect.signature(fn).parameters.values():
            flag = _FLAGS.get(param.name, param.name)
            value = getattr(args, flag)
            _require(value is not None or param.default is not param.empty,
                     f"--bound={name} needs --{flag.replace('_', '-')}")
            if value is not None:
                kwargs[param.name] = value
        result = fn(**kwargs)
        if isinstance(result, bounds.BoundReport):
            print(json.dumps(result.to_json(), sort_keys=True))
        else:
            print(json.dumps({"name": name, "value": result}, sort_keys=True))
        return 0
    if name in bounds.REGIME_NAMES or name == "regimes":
        for flag in ("n", "delta", "k", "sigma"):
            _require(getattr(args, flag) is not None, f"--bound={name} needs --{flag}")
        reports = bounds.girth_regime_bounds(
            args.n,
            args.delta,
            args.k,
            args.sigma,
            g=args.g,
            s=args.s,
            alpha=args.alpha,
            eps=args.eps,
            which=None if name == "regimes" else name,
        )
        for key in sorted(reports):
            print(json.dumps(reports[key].to_json(), sort_keys=True))
        return 0
    raise UsageError(
        f"unknown bound {name!r}; known: "
        + ", ".join(sorted([*bounds.FORMULAS, "regimes", *bounds.REGIME_NAMES]))
    )


def _cmd_sweep(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        config.base_seed = args.seed
    if args.workers is not None:
        _require(args.workers >= 1, "--workers must be at least 1")
        config.workers = args.workers
    result = sweep(config)
    out_dir = args.out or config.output_dir or "sweep-out"
    records_path, summary_path = result.write(out_dir)
    print(f"wrote {records_path} and {summary_path}")
    return 0


def _cmd_verify_lemmas(args) -> int:
    _require(args.per_graph >= 1, "--per-graph must be at least 1")
    _require(1 <= args.max_vertices <= 7, "--max-vertices must lie in 1..7, the atlas corpus")
    spec = CorpusSpec(max_vertices=args.max_vertices, assignments_per_graph=args.per_graph,
                      base_seed=_seed(args))
    report = verify_lemmas(spec)
    print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    return 0


def _require(condition: bool, message: str):
    if not condition:
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="listcolor",
        description="Colorings of graphs from random lists: solving, "
        "certificates, analytic bounds, and Monte Carlo sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a generated graph in text format")
    p.add_argument("--family", required=True,
                   choices=[name.replace("_", "-") for name in FAMILIES])
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--delta", type=int)
    p.add_argument("--parts", help="comma-separated part sizes")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("sample", help="sample a random list assignment for a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sigma", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("solve", help="decide colorability from lists")
    p.add_argument("--graph", required=True)
    p.add_argument("--lists", required=True)
    p.add_argument("--witness", action="store_true", help="print the coloring when one exists")
    p.add_argument("--stats", action="store_true",
                   help="print the solver statistics (search nodes, propagations, "
                   "backtracks, max_depth, dp_states) as one JSON line after the status")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("certify", help="extract a non-colorability certificate as JSON")
    p.add_argument("--graph", required=True)
    p.add_argument("--lists", required=True)
    p.add_argument("--kind", choices=[*certs.CERTIFICATE_KINDS, "auto"], default="auto")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("bound", help="evaluate an analytic bound, emitting JSON lines")
    p.add_argument(
        "--bound",
        required=True,
        help=f"quantity name: a formula ({', '.join(bounds.FORMULAS)}), a threshold "
        f"regime ({', '.join(bounds.REGIME_NAMES)}), or 'regimes' for every "
        "applicable regime",
    )
    p.add_argument("--n", type=int)
    p.add_argument("--delta", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--sigma", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--g", type=int)
    p.add_argument("--s", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--m-lo", dest="m_lo", type=int)
    p.add_argument("--m-hi", dest="m_hi", type=int)
    p.add_argument("--r-min", dest="r_min", type=int)
    p.add_argument("--r-max", dest="r_max", type=int)
    p.add_argument("--l-min", dest="l_min", type=int)
    p.add_argument("--l-max", dest="l_max", type=int)
    p.add_argument("--e", type=float)
    p.add_argument("--pi", type=float)
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("sweep", help="run a Monte Carlo sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=None, help="override the config base seed")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("verify-lemmas", help="run the certificate oracle suites")
    p.add_argument("--max-vertices", type=int, default=6)
    p.add_argument("--per-graph", type=int, default=500)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=_cmd_verify_lemmas)

    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ListColorError, ValueError) as exc:  # incl. JSONDecodeError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
