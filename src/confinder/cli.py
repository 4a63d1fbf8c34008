"""Command-line entry points.

Subcommands: ``sample`` (draw synthetic data from a model file), ``learn``
(search a PAG + dataset for latent confounders), ``score`` (fit one
latentized DAG), ``enumerate-mags`` (list a PAG's equivalence class by
stratum), ``latentize`` (minimal latent placement for a MAG) and ``trace``
(run a search, emit only the visit log).

Exit codes: 0 on success, 2 for validation problems (unreadable or
malformed inputs, invalid graphs, bad flag values), 3 when a search
returned early on budget (outputs are still written and flagged) or ran
out of budget before it found a model to score (nothing is written), 4 for
internal errors. All randomness derives from ``--seed`` through named
streams, so each subcommand is reproducible in isolation.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, Optional

from confinder import fileio
from confinder.bn import forward_sample
from confinder.errors import BudgetError, InconsistentStateError
from confinder.graphs import GraphKind
from confinder.latentize import latentize_min
from confinder.magspace import enumerate_mags
from confinder.search import (
    DEFAULT_BUDGET_SECONDS,
    DEFAULT_MAX_BIDIRECTED,
    DEFAULT_MAX_STATES,
    SearchConfig,
    run_search,
)
from confinder.seeds import derive_seed
from confinder.vbem import DEFAULT_CONVERGENCE, DEFAULT_RESTARTS, run_vbem

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _integer_flag(token: str) -> int:
    """An argparse type reading a count flag as the text formats read counts."""
    value = fileio._integer(token)
    if value is None:
        raise argparse.ArgumentTypeError(f"{token!r} is not an integer in ASCII digits")
    return value


def _add_search_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--strategy",
        choices=("ilcv", "hclcv"),
        default="ilcv",
        help="stratified incremental search or hill climbing (default ilcv)",
    )
    parser.add_argument(
        "--max-bidirected",
        type=_integer_flag,
        default=DEFAULT_MAX_BIDIRECTED,
        help=f"largest bi-directed-edge stratum to explore (default {DEFAULT_MAX_BIDIRECTED})",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_CONVERGENCE,
        help=f"VBEM convergence threshold (default {DEFAULT_CONVERGENCE})",
    )
    parser.add_argument(
        "--max-states",
        type=_integer_flag,
        default=DEFAULT_MAX_STATES,
        help=f"cap on latent cardinality growth (default {DEFAULT_MAX_STATES})",
    )
    parser.add_argument(
        "--budget-seconds",
        type=float,
        default=DEFAULT_BUDGET_SECONDS,
        help=f"wall-clock budget, enumeration included; best-so-far is returned on expiry (default {DEFAULT_BUDGET_SECONDS:g})",
    )
    parser.add_argument(
        "--restarts",
        type=_integer_flag,
        default=DEFAULT_RESTARTS,
        help=f"VBEM random restarts per model (default {DEFAULT_RESTARTS})",
    )
    parser.add_argument("--seed", type=_integer_flag, default=0, help="master seed (default 0)")


def _add_normalize_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--normalize-times",
        action="store_true",
        help="write wall-clock fields as zero so outputs are byte-comparable",
    )


def _config_from(args: argparse.Namespace) -> SearchConfig:
    return SearchConfig(
        strategy=args.strategy,
        max_bidirected=args.max_bidirected,
        convergence=args.threshold,
        max_states=args.max_states,
        budget_seconds=args.budget_seconds,
        restarts=args.restarts,
        seed=args.seed,
    )


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confinder",
        description="Latent-confounder discovery for discrete data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw synthetic data from a model file")
    p.add_argument("model", help="ground-truth model file (nodes, edges, CPTs)")
    p.add_argument("-n", "--samples", type=_integer_flag, required=True, help="row count")
    p.add_argument("--seed", type=_integer_flag, default=0, help="master seed (default 0)")
    p.add_argument(
        "--hide",
        action="append",
        default=[],
        metavar="NODE",
        help="drop this column from the output (repeatable)",
    )
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    p = sub.add_parser("learn", help="search a PAG and dataset for latent confounders")
    p.add_argument("pag", help="PAG file")
    p.add_argument("data", help="dataset CSV")
    _add_search_flags(p)
    _add_normalize_flag(p)
    p.add_argument("--model-out", default=None, help="write the learned model here")
    p.add_argument("--trace-out", default=None, help="write the visit log here")
    p.add_argument("-o", "--output", default=None, help="report file (default stdout)")

    p = sub.add_parser("score", help="fit one latentized DAG to a dataset")
    p.add_argument("model", help="latentized DAG (or plain DAG) file")
    p.add_argument("data", help="dataset CSV")
    p.add_argument("--threshold", type=float, default=DEFAULT_CONVERGENCE)
    p.add_argument("--restarts", type=_integer_flag, default=DEFAULT_RESTARTS)
    p.add_argument("--seed", type=_integer_flag, default=0)
    _add_normalize_flag(p)
    p.add_argument("-o", "--output", default=None, help="report file (default stdout)")

    p = sub.add_parser(
        "enumerate-mags", help="list the Markov-equivalent MAGs of a PAG by stratum"
    )
    p.add_argument("pag", help="PAG file")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    p = sub.add_parser(
        "latentize", help="place the minimal latent confounders for a MAG"
    )
    p.add_argument("mag", help="MAG file")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    p = sub.add_parser("trace", help="run a search and emit only the visit log")
    p.add_argument("pag", help="PAG file")
    p.add_argument("data", help="dataset CSV")
    _add_search_flags(p)
    _add_normalize_flag(p)
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    return parser


def _cmd_sample(args: argparse.Namespace) -> int:
    model = fileio.parse_model(Path(args.model).read_text())
    data = forward_sample(
        model, args.samples, derive_seed(args.seed, "sample"), args.hide
    )
    _write(args.output, fileio.serialize_data(data))
    return EXIT_OK


def _load_search_inputs(args: argparse.Namespace):
    gf = fileio.parse_graph_file(Path(args.pag).read_text(), GraphKind.PAG)
    data = fileio.parse_data(
        Path(args.data).read_text(),
        cardinalities=gf.cardinalities,
        labels=gf.labels,
    )
    return gf, data


def _cmd_learn(args: argparse.Namespace) -> int:
    gf, data = _load_search_inputs(args)
    cfg = _config_from(args)
    started = time.monotonic()
    best, trace = run_search(gf.graph, data, cfg)
    seconds = time.monotonic() - started

    report: Dict[str, object] = {
        "strategy": cfg.strategy.value,
        "stop_reason": trace.stop_reason,
        "partial": trace.stop_reason == "budget",
        "visited": len(trace.entries),
        "best_model_id": best.model_id,
        "best_stratum": best.stratum,
        "latents": len(best.model.spec),
        "elbo": best.elbo,
        "p_elbo": best.p_elbo,
        "iterations": best.report.iterations,
        "converged": best.report.converged,
        "restarts_used": best.report.restarts_used,
        "seconds": 0.0 if args.normalize_times else round(seconds, 6),
    }
    for latent in best.model.spec.latents:
        report[f"latent.{latent.name}"] = (
            f"states={latent.states} children={','.join(latent.children)}"
        )
    _write(args.output, fileio.serialize_report(report))
    if args.model_out:
        model = fileio.serialize_latentized(best.model, dict(data.variables), gf.labels)
        _write(args.model_out, model)
    if args.trace_out:
        _write(
            args.trace_out,
            fileio.serialize_trace(trace, normalize_times=args.normalize_times),
        )
    return EXIT_BUDGET if trace.stop_reason == "budget" else EXIT_OK


def _cmd_score(args: argparse.Namespace) -> int:
    lf = fileio.parse_latentized_file(Path(args.model).read_text())
    data = fileio.parse_data(
        Path(args.data).read_text(),
        cardinalities=lf.cardinalities,
        labels=lf.labels,
    )
    started = time.monotonic()
    _state, report = run_vbem(
        lf.model,
        data,
        c=args.threshold,
        restarts=args.restarts,
        seed=derive_seed(args.seed, "score"),
    )
    seconds = time.monotonic() - started
    _write(
        args.output,
        fileio.serialize_report(
            {
                "elbo": report.elbo,
                "p_elbo": report.p_elbo,
                "iterations": report.iterations,
                "converged": report.converged,
                "restarts_used": report.restarts_used,
                "seconds": 0.0 if args.normalize_times else round(seconds, 6),
            }
        ),
    )
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    gf = fileio.parse_graph_file(Path(args.pag).read_text(), GraphKind.PAG)
    strata = enumerate_mags(gf.graph)
    blocks = []
    index = 1
    for stratum in strata:
        for mag in stratum.mags:
            header = f"# mag {index} (stratum {stratum.bidirected_count})"
            body = fileio.serialize_graph(mag, gf.cardinalities, gf.labels)
            blocks.append(f"{header}\n{body}")
            index += 1
    _write(args.output, "\n".join(blocks))
    return EXIT_OK


def _cmd_latentize(args: argparse.Namespace) -> int:
    gf = fileio.parse_graph_file(Path(args.mag).read_text(), GraphKind.MAG)
    model = latentize_min(gf.graph)
    _write(args.output, fileio.serialize_latentized(model, gf.cardinalities, gf.labels))
    return EXIT_OK


def _cmd_trace(args: argparse.Namespace) -> int:
    gf, data = _load_search_inputs(args)
    cfg = _config_from(args)
    _best, trace = run_search(gf.graph, data, cfg)
    _write(
        args.output,
        fileio.serialize_trace(trace, normalize_times=args.normalize_times),
    )
    return EXIT_BUDGET if trace.stop_reason == "budget" else EXIT_OK


_COMMANDS = {
    "sample": _cmd_sample,
    "learn": _cmd_learn,
    "score": _cmd_score,
    "enumerate-mags": _cmd_enumerate,
    "latentize": _cmd_latentize,
    "trace": _cmd_trace,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InconsistentStateError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BudgetError as exc:
        print(f"budget: {exc}; no model was scored, so nothing is written", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
