"""Command-line surface: gen | sample | solve | certify | bound | sweep |
verify-lemmas.

Exit codes: 0 success, 1 domain error, 2 usage error.  All randomness flows
from --seed; the LISTCOLOR_SEED environment variable overrides the default
seed when the flag is absent.
"""

from __future__ import annotations

import argparse
import dataclasses
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


def _default_seed() -> int:
    raw = os.environ.get("LISTCOLOR_SEED")
    return int(raw) if raw else 0


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
    assignment = sample_assignment(g, args.k, args.sigma, SeedSpec(args.seed, args.trial))
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


_BOUND_SPECS = {
    # name -> (callable, required flags, optional flags)
    "eq:probcliques": (bounds.expected_identical_cliques_bound, ("n", "delta", "k", "sigma"), ()),
    "eq:expect": (bounds.expected_identical_cliques_exact, ("n", "delta", "k", "sigma"), ()),
    "eq:pathsum": (
        bounds.alternating_path_expectation,
        ("n", "delta", "k", "sigma", "r_min", "r_max"),
        (),
    ),
    "lem:bad": (bounds.bad_triple_probability_bound, ("m", "delta", "k", "sigma"), ()),
    "lem:numbersubgraphs": (bounds.proper_triple_count_bound, ("n", "delta", "m"), ()),
    "sum:triples": (
        bounds.bad_triple_expectation_sum,
        ("n", "delta", "k", "sigma"),
        ("m_lo", "m_hi"),
    ),
    "eq:chebyshev": (bounds.chebyshev_lower_bound, ("e", "pi"), ()),
    "pi:cliques": (bounds.pi_bound_clique_union, ("n", "delta", "k", "sigma"), ()),
    "lem:2bad": (bounds.pair_probability_bound, ("l", "r", "sigma"), ()),
    "lem:2numbersubgraphs": (bounds.pair_count_bound, ("n", "delta", "l", "r"), ()),
    "sum:pairs": (bounds.pair_expectation_sum, ("n", "delta", "sigma", "l_max"), ("l_min",)),
    "tree:expect": (bounds.tree_bad_expectation_bound, ("n", "delta", "k", "sigma", "g"), ()),
    "eq:Qk": (certs.proper_tree_size, ("k", "g"), ()),
}

_BOUND_ARG_NAMES = {
    "e": "expectation",
    "pi": "covariance_sum",
}


def _cmd_bound(args) -> int:
    name = args.bound
    if name in _BOUND_SPECS:
        fn, required, optional = _BOUND_SPECS[name]
        kwargs = {}
        for flag in required:
            value = getattr(args, flag)
            _require(value is not None, f"--bound={name} needs --{flag.replace('_', '-')}")
            kwargs[_BOUND_ARG_NAMES.get(flag, flag)] = value
        for flag in optional:
            value = getattr(args, flag)
            if value is not None:
                kwargs[_BOUND_ARG_NAMES.get(flag, flag)] = value
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
        + ", ".join(sorted([*_BOUND_SPECS, "regimes", *bounds.REGIME_NAMES]))
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
    spec = CorpusSpec(
        max_vertices=args.max_vertices,
        assignments_per_graph=args.per_graph,
        base_seed=args.seed,
    )
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
    p.add_argument("--seed", type=int, default=_default_seed())
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
        help=f"quantity name: a formula ({', '.join(_BOUND_SPECS)}), a threshold "
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
    p.add_argument("--seed", type=int, default=_default_seed())
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
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ListColorError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
