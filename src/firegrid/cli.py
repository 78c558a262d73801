"""Command-line entry point.

Subcommands: ``simulate`` (one seeded episode), ``benchmark`` (paired-seed
policy comparison), ``stats`` (initial-fire statistics), ``export-lp`` (the
fluid model MO solves at its first decision, as fixed MPS, at the horizon and
delta of the scenario's ``mo`` block: the MILP that exact mode solves, Z
integral and y continuous; relax-round solves its LP relaxation and rounds
Z), ``weights`` (the scenario's distance-weighted heuristic map as CSV).
All randomness flows from the scenario seed (overridable with ``--seed``);
replication r uses seed + r.

``simulate --trace PATH`` writes one JSON object per decision, one per line.
Every policy's lines carry ``epoch`` (0, 1, ...), ``n_burning`` (burning
cells at the decision), ``action`` (the teams' target cells) and ``ms``
(wall-clock milliseconds of the decision).  ``mcts`` adds ``iterations``,
``fallback`` and ``root_value`` (best Q at the root); ``mo`` adds ``mode``
(``branch-and-bound`` or ``relax-round``), ``status``, ``objective`` and
``fallback``.  When ``--trace`` or ``--out`` is ``-``, the episode's
``policy=... steps=...`` summary line goes to stderr, so stdout holds only
the JSON lines or the CSV; ``benchmark`` does the same with its per-policy
``mean=... median=...`` lines when ``--out`` or ``--summary-out`` is ``-``.
Two outputs of one command may not name the same file, or both ``-``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import replace

from . import harness
from .mpsio import write_mps


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _target(path: str) -> str:
    return path if path == "-" else os.path.realpath(path)


def _refuse_one_target(first: str, a: str | None, second: str, b: str | None):
    """Raise when output ``a`` of flag ``first`` and ``b`` of ``second`` name
    one target: the later write would replace the earlier, or both would
    share stdout."""
    if a is not None and b is not None and _target(a) == _target(b):
        raise ValueError(f"{first} and {second} name the same output {b!r}")


def _load(args) -> harness.ScenarioConfig:
    config = harness.load_scenario(args.scenario)
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    return config


def _cmd_simulate(args) -> int:
    _refuse_one_target("--trace", args.trace, "--out", args.out)
    config = _load(args)
    policy = config.make_policy(args.policy)
    records = None if args.trace is None else []
    result = harness.run_episode(config, policy, config.seed, args.policy,
                                 records=records)
    print(f"policy={result.policy} seed={result.seed} reward={result.reward} "
          f"steps={result.steps} flags={result.flags() or '-'}",
          file=sys.stderr if "-" in (args.trace, args.out) else sys.stdout)
    if records is not None:
        _write(args.trace, "".join(json.dumps(r) + "\n" for r in records))
    if args.out is not None:
        _write(args.out, harness.results_to_csv([result]))
    return 0


def _cmd_benchmark(args) -> int:
    _refuse_one_target("--out", args.out, "--summary-out", args.summary_out)
    config = _load(args)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if not policies:
        raise harness.ScenarioError("field 'policies': none given")
    results, summary = harness.run_benchmark(
        config, policies, reps=args.reps, jobs=args.jobs)
    _write(args.out, harness.results_to_csv(results))
    _write(args.summary_out, harness.summary_to_csv(summary))
    log = sys.stderr if "-" in (args.out, args.summary_out) else sys.stdout
    for ps in summary.policies:
        rel = ("-" if ps.improvement_vs_random is None
               else f"{ps.improvement_vs_random:+.2f}%")
        print(f"{ps.policy}: mean={ps.mean:.3f} median={ps.median:.3f} "
              f"vs-random={rel}", file=log)
    return 0


def _cmd_stats(args) -> int:
    config = _load(args)
    text = harness.stats_to_csv(config, reps=args.reps)
    _write(args.out, text)
    if args.out not in (None, "-"):
        print(text, end="")
    return 0


def _cmd_export_lp(args) -> int:
    config = _load(args)
    state = config.initial_state(harness.episode_rng(config.seed))
    model = config.make_policy("mo").fluid_model(state)
    _write(args.out, write_mps(model.problem, model.integer_mask))
    return 0


def _cmd_weights(args) -> int:
    config = _load(args)
    spec, weights = config.spec(), config.weights
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["row", "col", "w", "priority"])
    for cell in range(spec.n_cells):
        col, row = spec.coords(cell)
        writer.writerow([row, col, repr(float(weights.w[cell])),
                         repr(float(weights.priority[cell]))])
    _write(args.out, out.getvalue())
    return 0


def count(text: str) -> int:
    """argparse type of ``--reps`` and ``--jobs``: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firegrid",
        description="Wildfire-suppression planning benchmark toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")

    p = sub.add_parser("simulate", help="run one seeded episode")
    common(p)
    p.add_argument("--policy", default="fw", choices=harness.POLICY_NAMES)
    p.add_argument("--out", default=None, help="episode result CSV")
    p.add_argument("--trace", default=None,
                   help="JSON lines, one per decision: epoch, n_burning, "
                        "action, ms, and the mcts or mo planner's own keys")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("benchmark", help="paired-seed policy comparison")
    common(p)
    p.add_argument("--policies", default="random,fw",
                   help="comma-separated policy list")
    p.add_argument("--reps", type=count, default=None,
                   help="replications (default: scenario reps)")
    p.add_argument("--out", default="results.csv", help="per-episode CSV")
    p.add_argument("--summary-out", default="summary.csv",
                   help="per-policy summary CSV")
    p.add_argument("--jobs", type=count, default=1,
                   help="worker processes, at most one per seed; the output "
                        "is the same for any value")
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("stats", help="initial-fire statistics")
    common(p)
    p.add_argument("--reps", type=count, default=None)
    p.add_argument("--out", default=None, help="stats CSV (default stdout)")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("export-lp",
                       help="write the MILP MO's exact mode solves first (Z "
                            "integral, y continuous) as fixed MPS, at the "
                            "scenario's mo.horizon and mo.delta; relax-round "
                            "solves its LP relaxation and rounds Z")
    common(p)
    p.add_argument("--out", required=True, help="output MPS path")
    p.set_defaults(func=_cmd_export_lp)

    p = sub.add_parser("weights", help="export the heuristic weight map")
    common(p)
    p.add_argument("--out", default=None, help="weights CSV (default stdout)")
    p.set_defaults(func=_cmd_weights)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except harness.ScenarioError as exc:
        print(f"firegrid: scenario error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"firegrid: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
