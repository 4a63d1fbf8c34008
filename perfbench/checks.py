"""Checks on what one repetition wrote; any problem makes it a failure."""
from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

from confinder import (
    ConfinderError,
    parse_latentized,
    parse_report,
    parse_trace,
    serialize_latentized,
)

# best model id, its p-ELBO, and the visit order: equal on every repetition
Fingerprint = Tuple[str, float, Tuple[str, ...]]


def check_learn(
    report_text: str,
    model_text: str,
    trace_text: str,
    fixed_pair: Sequence[str],
    cardinalities: Mapping[str, int],
) -> Tuple[List[str], Optional[Fingerprint]]:
    """Problems found in one repetition's report, model and trace files."""
    try:
        report = parse_report(report_text)
        entries = parse_trace(trace_text)
        model = parse_latentized(model_text)
        best_id = report["best_model_id"]
        best_p = float(report["p_elbo"])
        stop = report["stop_reason"]
    except (ConfinderError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc}"], None
    problems = []
    if stop == "budget":
        problems.append("search stopped on its budget")
    if not entries:
        problems.append("the trace is empty")
    elif best_p != max(e.p_elbo for e in entries):
        problems.append(f"best p-ELBO {best_p!r} is not the trace maximum")
    if best_id not in {e.model_id for e in entries}:
        problems.append(f"best model {best_id} is not in the trace")
    if not any(set(fixed_pair) <= set(l.children) for l in model.spec.latents):
        problems.append(f"no latent covers the fixed pair {sorted(fixed_pair)}")
    if serialize_latentized(model, cardinalities) != model_text:
        problems.append("the model does not round-trip through parse_latentized")
    return problems, (best_id, best_p, tuple(e.model_id for e in entries))


def check_strata(captured: Sequence[Mapping[str, int]], expected: Mapping[int, int]) -> List[str]:
    """Each enumeration the search made must give the expected stratum sizes."""
    if not captured:
        return ["the search enumerated no MAGs"]
    want = {str(k): v for k, v in expected.items()}
    return [
        f"strata {dict(got)} differ from {want}" for got in captured if dict(got) != want
    ]
