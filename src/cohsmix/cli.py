"""Command-line interface: fit, select-q, simulate, and grid subcommands."""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from .em import EMConfig, child_seed, fit_multi_restart
from .harness import run_grid
from .io import read_features, read_graph, write_csv, write_features, \
    write_graph, write_labels, write_result
from .model import MODES
from .selection import icl_score, select_q
from .simulate import AffiliationSpec, SETTINGS, generate, grid_specs


def _int_from(low: int):
    """An argparse type for integers of at least ``low``; argparse names
    the flag in its usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(
                f"must be an integer of at least {low}, got {text!r}")
        return value
    return parse


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=_int_from(0), default=0,
                        help="master RNG seed")
    parser.add_argument("--restarts", type=_int_from(1), default=10,
                        help="independent EM restarts per fit")
    parser.add_argument("--max-iters", type=_int_from(1), default=100,
                        help="EM iteration cap")
    parser.add_argument("--out", default="results", help="output directory")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once: each ``parse_args`` fills a new namespace,
    so nothing of one call's arguments reaches the next."""
    parser = argparse.ArgumentParser(
        prog="cohsmix",
        description="Cluster graphs with vertex features via variational EM.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit_p = sub.add_parser("fit", help="fit a fixed number of classes")
    fit_p.add_argument("--graph", required=True)
    fit_p.add_argument("--features", required=True)
    fit_p.add_argument("--q", type=_int_from(1), required=True,
                       help="number of classes")
    fit_p.add_argument("--mode", default="joint", choices=MODES)
    _add_common(fit_p)

    sel_p = sub.add_parser("select-q", help="scan a class-count range")
    sel_p.add_argument("--graph", required=True)
    sel_p.add_argument("--features", required=True)
    sel_p.add_argument("--qmin", type=_int_from(1), required=True)
    sel_p.add_argument("--qmax", type=_int_from(1), required=True)
    _add_common(sel_p)

    sim_p = sub.add_parser("simulate", help="generate synthetic datasets")
    sim_p.add_argument("--setting", choices=SETTINGS,
                       help="emit every model of one benchmark family")
    sim_p.add_argument("--n", type=_int_from(1), default=150)
    sim_p.add_argument("--q", type=_int_from(1), help="number of classes")
    sim_p.add_argument("--lambda", dest="lam", type=float,
                       help="within-class edge probability")
    sim_p.add_argument("--epsilon", type=float,
                       help="between-class edge probability")
    sim_p.add_argument("--gap", type=float, default=0.0,
                       help="per-coordinate distance of adjacent class means")
    sim_p.add_argument("--p", type=_int_from(0), default=3,
                       help="feature dimension")
    _add_common(sim_p)

    grid_p = sub.add_parser("grid", help="run one benchmark family")
    grid_p.add_argument("--setting", choices=SETTINGS, required=True)
    grid_p.add_argument("--replicates", type=_int_from(1), default=20)
    grid_p.add_argument("--scan-qmin", type=_int_from(1),
                        help="select the class count per replicate (lower end)")
    grid_p.add_argument("--scan-qmax", type=_int_from(1),
                        help="select the class count per replicate (upper end)")
    _add_common(grid_p)

    return parser


def _config(args) -> EMConfig:
    return EMConfig(max_em_iters=args.max_iters, n_restarts=args.restarts,
                    rng_seed=args.seed)


def _read_inputs(args):
    return read_graph(args.graph), read_features(args.features)


def _cmd_fit(args) -> int:
    graph, features = _read_inputs(args)
    result = fit_multi_restart(graph, features, args.q, _config(args),
                               mode=args.mode)
    result.icl = icl_score(result, graph, features)
    paths = write_result(result, args.out)
    print(f"fitted q={args.q} mode={args.mode} "
          f"bound={result.final_bound:.6f} converged={result.converged}")
    for name, path in paths.items():
        print(f"wrote {name}: {path}")
    return 0


def _cmd_select_q(args) -> int:
    graph, features = _read_inputs(args)
    scan = select_q(graph, features, args.qmin, args.qmax, _config(args))
    paths = write_result(scan.best, args.out)
    rows = [("q", "icl", "final_bound", "status")]
    for q in range(args.qmin, args.qmax + 1):
        if q in scan.scores:
            rows.append((q, repr(scan.scores[q]),
                         repr(scan.results[q].final_bound), "ok"))
        else:
            rows.append((q, "", "", scan.failures.get(q, "failed")))
    scan_path = write_csv(Path(args.out) / "scan.csv", rows)
    print(f"selected q={scan.selected_q} over {args.qmin}..{args.qmax}")
    print(f"wrote scan: {scan_path}")
    for name, path in paths.items():
        print(f"wrote {name}: {path}")
    return 0


def _write_dataset(spec: AffiliationSpec, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    graph, features, labels = generate(spec)
    write_graph(out_dir / "graph.tsv", graph)
    write_features(out_dir / "features.csv", features)
    write_labels(out_dir / "labels.csv", labels)
    print(f"wrote dataset: {out_dir} "
          f"(n={spec.n}, q={spec.n_classes}, p={spec.n_features})")


def _cmd_simulate(args) -> int:
    out_dir = Path(args.out)
    if args.setting:
        for index, spec in enumerate(grid_specs(args.setting, n=args.n)):
            spec = replace(spec, seed=child_seed(args.seed, index))
            _write_dataset(spec, out_dir / f"{args.setting}{index:02d}")
        return 0
    if args.q is None or args.lam is None or args.epsilon is None:
        raise ValueError("explicit simulation needs --q, --lambda and --epsilon")
    spec = AffiliationSpec(
        n_classes=args.q, n=args.n, n_features=args.p,
        within_prob=args.lam, between_prob=args.epsilon,
        mean_gap=args.gap, seed=args.seed,
    )
    _write_dataset(spec, out_dir)
    return 0


def _cmd_grid(args) -> int:
    out_dir = Path(args.out)
    scan_range = None
    if (args.scan_qmin is None) != (args.scan_qmax is None):
        raise ValueError("--scan-qmin and --scan-qmax must be given together")
    if args.scan_qmin is not None:
        scan_range = (args.scan_qmin, args.scan_qmax)
    records = run_grid(args.setting, replicates=args.replicates,
                       cfg=_config(args), out_dir=out_dir,
                       seed=args.seed, scan_range=scan_range)
    failures = sum(record.status != "ok" for record in records)
    print(f"grid setting={args.setting}: {len(records)} replicates, "
          f"{failures} failures -> {out_dir / 'results.csv'}")
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "select-q": _cmd_select_q,
    "simulate": _cmd_simulate,
    "grid": _cmd_grid,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
