"""Command-line front end.

Subcommands: run, sweep, validate, gen-graph, gen-data. Exit codes: 0 on
success, 2 on validation failure (bad config, bad arguments, or failed
step-size conditions for `validate`), 1 on runtime error. ZOPD_OUTPUT_DIR,
when set, replaces the output_dir of every config file loaded, so meta.json
records the directory that was written.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .graph import GRAPH_KINDS, ConfigError, generate_graph
from .harness import (
    ENV_OUTPUT_DIR,
    _errors_at,
    load_config,
    report_text,
    run_experiment,
    sweep,
    validate_config,
)
from .objectives import synthesize_classification_data, write_classification_csv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zopd",
        description="Distributed zeroth-order primal-dual consensus optimization simulator.",
        epilog=f"Set {ENV_OUTPUT_DIR} to override the configured output directory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")

    p_sweep = sub.add_parser("sweep", help="run a horizon sweep and fit the decay rate")
    p_sweep.add_argument("config", help="path to a JSON experiment config")
    p_sweep.add_argument(
        "--T",
        required=True,
        help="comma-separated iteration horizons, e.g. 250,1000,4000 (>= 3 values)",
    )

    p_val = sub.add_parser("validate", help="check step-size conditions without running")
    p_val.add_argument("config", help="path to a JSON experiment config")

    p_graph = sub.add_parser("gen-graph", help="generate a connected topology as JSON")
    p_graph.add_argument("--kind", default=GRAPH_KINDS[-1], choices=GRAPH_KINDS,
                         help="graph family (default: %(default)s)")
    p_graph.add_argument("--nodes", type=int, required=True)
    p_graph.add_argument("--block-dim", type=int, default=1)
    p_graph.add_argument("--seed", type=int, default=0)
    p_graph.add_argument("--extra-edge-prob", type=float, default=0.15)
    p_graph.add_argument("--out", help="write JSON here instead of stdout")

    p_data = sub.add_parser("gen-data", help="synthesize per-agent classification datasets")
    p_data.add_argument("--agents", type=int, required=True)
    p_data.add_argument("--batch", type=int, default=100)
    p_data.add_argument("--dim", type=int, default=10)
    p_data.add_argument("--seed", type=int, required=True)
    p_data.add_argument("--flip-prob", type=float, default=0.05)
    p_data.add_argument("--out-dir", required=True)
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    result = run_experiment(cfg)
    print(f"experiment {cfg.name}: {cfg.trials} trial(s) -> {result.output_dir}")
    for method, rows in result.mean.items():
        gap, vio = rows[-1].stationarity_gap, rows[-1].constraint_violation
        print(f"  {method}: final mean gap {gap:.6g}, final mean violation {vio:.6g}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    try:
        horizons = [int(v) for v in args.T.split(",") if v.strip()]
    except ValueError:
        raise ConfigError("sweep.T", f"could not parse horizons from {args.T!r}")
    report = sweep(cfg, horizons)
    fit = report["fit"]
    print(f"horizon sweep over T = {report['horizons']} (J = {report['samples_per_horizon']})")
    print(f"  mean gaps: {['%.6g' % g for g in report['mean_gaps']]}")
    print(
        f"  fit: gap ~ {fit['gamma1']:.6g}/T + {fit['constant']:.6g}"
        f"  (relative residual {fit['rel_residual']:.3f})"
    )
    return 0


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    report = validate_config(cfg)
    print(report_text(report))
    return 0 if report.valid else 2


def _cmd_gen_graph(args) -> int:
    with _errors_at("gen-graph"):
        topo = generate_graph(
            args.kind,
            args.nodes,
            extra_edge_prob=args.extra_edge_prob,
            seed=args.seed,
            block_dim=args.block_dim,
        )
    text = json.dumps(topo.to_dict(), indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}: {topo.num_nodes} nodes, {topo.num_edges} edges")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gen_data(args) -> int:
    with _errors_at("gen-data"):
        datasets, planted = synthesize_classification_data(
            args.agents, args.batch, args.dim, args.seed, args.flip_prob
        )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i, ds in enumerate(datasets, start=1):
        write_classification_csv(ds, out / f"agent_{i:03d}.csv")
    with open(out / "planted.csv", "w", newline="") as fh:
        fh.write(",".join(f"{v:.17g}" for v in planted) + "\n")
    print(f"wrote {args.agents} agent dataset(s) of {args.batch}x{args.dim} to {out}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
    "gen-graph": _cmd_gen_graph,
    "gen-data": _cmd_gen_data,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
