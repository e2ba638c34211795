"""Command-line surface: oracle suites, bound evaluation, experiments.

Exit codes: 0 success, 1 oracle violation or failed verification, 2 usage
error (bad flags, malformed input files).  Every run writes a manifest
sufficient to reproduce its outputs byte-identically.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import CSV_HEADER as BOUND_CSV_HEADER
from .bounds import _evaluate, evaluate_bound
from .distributions import _categorical_rows, _check_rows
from .errors import EpiboundError, InvalidArgument
from .experiments import (
    ExperimentConfig,
    monte_carlo_verify,
    run_negative_transfer_experiment,
    run_neighborhood_experiment,
    setup_from_dict,
    write_experiment_output,
    write_output,
)
from .oracle import DEFAULT_ALPHAS, run_suite

USAGE_ERROR = 2
VIOLATION_ERROR = 1


def _parse_alphas(text: str) -> tuple:
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad alpha list: {text!r}")
    if not values or not all(math.isfinite(a) and a > 0 for a in values):
        raise argparse.ArgumentTypeError("alphas must be finite and positive")
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_floats(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad float list: {text!r}")


def _parse_n_grid(text: str) -> tuple:
    """Comma list (1,2,5) and/or colon ranges (1:50) of task counts."""
    out: list[int] = []
    try:
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if ":" in part:
                lo, hi = part.split(":")
                out.extend(range(int(lo), int(hi) + 1))
            else:
                out.append(int(part))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad n grid: {text!r}")
    if not out or any(n < 0 for n in out):
        raise argparse.ArgumentTypeError("n grid entries must be nonnegative integers")
    return tuple(out)


def _load_json(path: str) -> dict:
    """The JSON object in ``path``; a file that holds anything else is a usage error."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise SystemExit(_usage_fail(f"file not found: {path}"))
    except UnicodeDecodeError:
        raise SystemExit(_usage_fail(f"{path} is not UTF-8 text"))
    except json.JSONDecodeError as exc:
        raise SystemExit(
            _usage_fail(f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}")
        )
    if not isinstance(data, dict):
        raise SystemExit(_usage_fail(f"{path} must hold a JSON object, got {type(data).__name__}"))
    return data


def _usage_fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return USAGE_ERROR


def _write_report(path: str, text: str, manifest: dict) -> str:
    """Write a ``--out`` report and, beside it, the manifest that reproduces it.

    Returns the line that announces the report; commands print it, and their
    results, only once both files are written.
    """
    out = Path(path)
    write_output(out, text)
    manifest = {**manifest, "artifact_version": __version__}
    write_output(out.with_suffix(".manifest.json"),
                 json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return f"report written to {out}"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_oracle(args) -> int:
    report = run_suite(
        n_instances=args.instances,
        seed=args.seed,
        alphas=args.alphas,
        max_outcomes=args.max_outcomes,
        threads=args.threads,
    )
    lines = report.summary_lines()
    if args.out:
        lines.append(_write_report(args.out, report.to_json() + "\n", {
            "command": "oracle",
            "instances": args.instances,
            "seed": args.seed,
            "alphas": list(args.alphas),
            "max_outcomes": args.max_outcomes,
        }))
    print("\n".join(lines))
    return VIOLATION_ERROR if report.total_violations else 0


def _load_setup(path: str, data: dict, verify: bool = False) -> dict:
    """``data``, a bound instance or, with ``verify``, a verify setup read from ``path``,
    deserialized; missing keys and values of the wrong type are usage errors."""
    try:
        setup = setup_from_dict(data)
        if verify:  # the statement and its scalar inputs come from the file
            setup["statement_id"] = str(data["statement_id"])
            setup["alpha"] = float(data["alpha"])
            for key in ("epsilon", "b_source", "b_target", "b_pred"):
                if data.get(key) is not None:
                    setup[key] = float(data[key])
        return setup
    except KeyError as exc:
        raise SystemExit(_usage_fail(f"{path} is missing key {exc}"))
    except EpiboundError:  # a ValueError too, with its own message for main to print
        raise
    except (TypeError, ValueError, AttributeError) as exc:
        raise SystemExit(_usage_fail(f"{path} is malformed: {exc}"))


def _finite_rows(data: dict):
    """The checked arrays ``(S, w_s, T, w_t, members, pred)`` of a bound instance whose
    predictor, model members and tasks are all categorical rows on one space, else None.

    The rows are read as ``setup_from_dict`` reads them, into one array whose row check
    passes exactly when every constructor's checks do.  Any other instance, or one that
    fails a check, is left to ``setup_from_dict`` and ``evaluate_bound``, which give its
    errors.
    """
    if data.get("param_posterior") is not None or data.get("param_best") is not None:
        return None
    dists, weights = [data.get("predictor")], []
    for side in ("source", "target"):
        tasks = data.get(side)
        entries = tasks.get("tasks") if isinstance(tasks, dict) and tasks.get(
            "kind") == "finite_tasks" else None
        if not isinstance(entries, list) or not all(
                isinstance(e, dict) and "dist" in e and isinstance(e.get("w"), (int, float))
                for e in entries):
            return None
        dists += [e["dist"] for e in entries]
        weights.append([e["w"] for e in entries])
    model = data.get("model")
    members = model.get("members") if isinstance(model, dict) else None
    if not (isinstance(members, list) and members and all(weights)):  # none may be empty
        return None
    rows = _categorical_rows(dists + members)
    if rows is None:
        return None
    k_s, k = len(weights[0]), len(dists)
    w = np.asarray(weights[0] + weights[1], dtype=float)
    w_s, w_t = w[:k_s], w[k_s:]
    try:
        for P in (rows, w_s, w_t):
            _check_rows(P)
    except InvalidArgument:
        return None
    return rows[1:k_s + 1], w_s, rows[k_s + 1:k], w_t, rows[k:], rows[0]


def _cmd_bound(args) -> int:
    data = _load_json(args.instance)
    rows = _finite_rows(data)
    if rows is not None:
        report = _evaluate(args.statement, args.alpha, rows, epsilon=args.epsilon,
                           b_source=args.bS, b_target=args.bT)
    else:
        setup = _load_setup(args.instance, data)
        if setup.get("model") is None:
            raise SystemExit(_usage_fail(f"{args.instance} is missing key 'model'"))
        report = evaluate_bound(
            args.statement,
            model=setup["model"],
            predictor=setup["predictor"],
            source=setup["source"],
            target=setup["target"],
            alpha=args.alpha,
            epsilon=args.epsilon,
            b_source=args.bS,
            b_target=args.bT,
            param_posterior=setup.get("param_posterior"),
            param_best=setup.get("param_best"),
        )
    lines = [BOUND_CSV_HEADER, report.to_csv_row()]
    if args.out:
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        lines.append(_write_report(args.out, text, {
            "command": "bound",
            "statement": args.statement,
            "instance": str(args.instance),
            "alpha": args.alpha,
            "epsilon": args.epsilon,
            "bS": args.bS,
            "bT": args.bT,
        }))
    print("\n".join(lines))
    return 0


def _cmd_experiment(args) -> int:
    common = dict(sims=args.sims, master_seed=args.seed, kl_samples=args.kl_samples)
    if args.experiment == "neighborhood":
        config = ExperimentConfig.neighborhood(
            epsilons=args.epsilons, n_source_tasks=args.source_tasks, **common)
        records = run_neighborhood_experiment(config, threads=args.threads)
    else:
        config = ExperimentConfig.negative_transfer(
            scenario=args.scenario, n_grid=args.n_grid, **common)
        records = run_negative_transfer_experiment(config, threads=args.threads)
    paths = write_experiment_output(records, config, args.out, config.scenario)
    print(f"{len(records)} rows -> {paths[0]}")
    return 0


def _cmd_verify(args) -> int:
    setup = _load_setup(args.setup, _load_json(args.setup), verify=True)
    result = monte_carlo_verify(setup, trials=args.trials, seed=args.seed)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0 if result["pass"] else VIOLATION_ERROR


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epibound",
        description="Epistemic error bounds: oracle verification and synthetic experiments.",
    )
    parser.add_argument("--version", action="version", version=f"epibound {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each command's parser by name, which main runs directly

    p_oracle = sub.add_parser("oracle", help="run the exact verification suite")
    p_oracle.add_argument("--instances", type=int, default=1000)
    p_oracle.add_argument("--max-outcomes", type=int, default=6, dest="max_outcomes")
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--alphas", type=_parse_alphas, default=DEFAULT_ALPHAS)
    p_oracle.add_argument("--threads", type=_positive_int, default=1)
    p_oracle.add_argument("--out", default=None, help="JSON report path")
    p_oracle.set_defaults(fn=_cmd_oracle)

    p_bound = sub.add_parser("bound", help="evaluate one bound statement on an instance file")
    p_bound.add_argument("--statement", required=True)
    p_bound.add_argument("--instance", required=True, help="instance JSON path")
    p_bound.add_argument("--alpha", type=float, required=True)
    p_bound.add_argument("--epsilon", type=float, default=None)
    p_bound.add_argument("--bS", type=float, default=None)
    p_bound.add_argument("--bT", type=float, default=None)
    p_bound.add_argument("--out", default=None, help="JSON report path")
    p_bound.set_defaults(fn=_cmd_bound)

    p_exp = sub.add_parser("experiment", help="run a synthetic experiment")
    p_exp.set_defaults(fn=_cmd_experiment)
    exp_sub = p_exp.add_subparsers(dest="experiment", required=True)
    common = argparse.ArgumentParser(add_help=False)  # the flags of both experiments
    common.add_argument("--sims", type=int, default=500)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--kl-samples", type=int, default=400, dest="kl_samples")
    common.add_argument("--threads", type=_positive_int, default=1)
    common.add_argument("--out", required=True, help="output directory")

    p_nb = exp_sub.add_parser("neighborhood", parents=[common], help="TV-neighborhood sweep")
    p_nb.add_argument("--epsilons", type=_parse_floats, required=True)
    p_nb.add_argument("--source-tasks", type=int, default=10, dest="source_tasks")

    p_nt = exp_sub.add_parser("negative-transfer", parents=[common], help="source-size sweep")
    p_nt.add_argument("--scenario", choices=("pos", "neg", "posneg"), required=True)
    p_nt.add_argument("--n-grid", type=_parse_n_grid, required=True, dest="n_grid")

    p_verify = sub.add_parser("verify", help="Monte Carlo exceedance check of a bound")
    p_verify.add_argument("--setup", required=True, help="setup JSON path")
    p_verify.add_argument("--trials", type=int, default=10000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(fn=_cmd_verify)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: it costs as much as a finite bound request."""
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()  # parses alone only an argv that names no command: help, version, errors
    command = parser.commands.get(argv[0]) if argv else None
    try:
        args, extra = (command or parser).parse_known_args(argv[1:] if command else argv)
        if extra:  # as parse_args reports them
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        # overflow in an extreme instance surfaces as one typed error, not numpy warnings
        with np.errstate(all="ignore"):
            return args.fn(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (EpiboundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
