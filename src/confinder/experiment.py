"""Synthetic-recovery experiments: hide a confounder, search, compare.

Given a ground-truth network and the name of a latent to hide, each run
samples data, derives the true PAG by projecting the ground truth onto the
observed variables, runs the configured strategy, and scores the true
latentized DAG on the same data. Per-repetition randomness is split into
named streams so sampling, search, and truth-scoring are independently
reproducible from one seed.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from confinder.bn import BnModel, forward_sample
from confinder.graphs import Edge, GraphKind, MixedGraph, project_to_mag
from confinder.latentize import LATENT_PREFIX, Latent, LatentizedDag, LatentSpec
from confinder.magspace import pag_of_mag
from confinder.search import ScoredModel, SearchConfig, SearchTrace, run_search
from confinder.seeds import derive_seed
from confinder.vbem import run_vbem


@dataclass(frozen=True)
class ExperimentSpec:
    """One synthetic-recovery setup: what to hide and how to search."""

    model: BnModel
    hide: Optional[str]
    sample_size: int
    seeds: Tuple[int, ...]
    config: SearchConfig

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if self.sample_size < 1:
            raise ValueError("sample size must be at least 1")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if self.hide is not None:
            if self.hide not in self.model.nodes:
                raise ValueError(f"hidden variable {self.hide!r} is not in the model")
            if self.model.dag.parents(self.hide):
                raise ValueError(
                    f"hidden variable {self.hide!r} has parents; only root "
                    f"confounders can be hidden"
                )
            if len(self.model.dag.children(self.hide)) < 2:
                raise ValueError(
                    f"hidden variable {self.hide!r} needs at least 2 children "
                    f"to act as a confounder"
                )


@dataclass(frozen=True, eq=False)
class RunResult:
    """One repetition: learned model versus the true latentized DAG."""

    seed: int
    learned: ScoredModel
    trace: SearchTrace
    true_model: LatentizedDag
    true_p_elbo: float
    learned_p_elbo: float
    search_seconds: float
    truth_seconds: float

    @property
    def partial(self) -> bool:
        return self.trace.stop_reason == "budget"

    @property
    def margin(self) -> float:
        """learned minus true p-ELBO; near zero or positive is a recovery."""
        return self.learned_p_elbo - self.true_p_elbo


@dataclass(frozen=True, eq=False)
class ReportBundle:
    """All repetitions of one experiment plus the shared derived PAG."""

    spec: ExperimentSpec
    pag: MixedGraph
    runs: Tuple[RunResult, ...]

    @property
    def partial(self) -> bool:
        return any(run.partial for run in self.runs)


def true_latentized(model: BnModel, hide: Optional[str]) -> LatentizedDag:
    """The ground truth as a fit-ready model: hidden variable becomes a
    root latent of its true cardinality, renamed into the latent namespace."""
    if hide is None:
        return LatentizedDag(model.dag, LatentSpec(()))
    rename = {hide: f"{LATENT_PREFIX}1"}
    nodes = tuple(rename.get(n, n) for n in model.nodes)
    edges = tuple(
        Edge(rename.get(e.a, e.a), rename.get(e.b, e.b), e.mark_a, e.mark_b)
        for e in model.dag.edges
    )
    dag = MixedGraph(GraphKind.DAG, nodes, edges)
    spec = LatentSpec((Latent(rename[hide], model.dag.children(hide), model.cardinality(hide)),))
    return LatentizedDag(dag, spec)


def derive_true_pag(model: BnModel, hide: Optional[str]) -> MixedGraph:
    """Project the ground truth onto the observed variables and recover the
    equivalence class the search will explore."""
    observed = tuple(n for n in model.nodes if n != hide)
    mag = project_to_mag(model.dag, observed)
    return pag_of_mag(mag)


def run_experiment(spec: ExperimentSpec) -> ReportBundle:
    """Sample, search, and score the truth, once per seed."""
    pag = derive_true_pag(spec.model, spec.hide)
    truth = true_latentized(spec.model, spec.hide)
    hide = frozenset((spec.hide,)) if spec.hide is not None else frozenset()
    runs = []
    for seed in spec.seeds:
        data = forward_sample(
            spec.model, spec.sample_size, derive_seed(seed, "sample"), hide
        )
        cfg = replace(spec.config, seed=derive_seed(seed, "search"))
        started = time.monotonic()
        learned, trace = run_search(pag, data, cfg)
        search_seconds = time.monotonic() - started

        started = time.monotonic()
        _state, report = run_vbem(
            truth,
            data,
            c=cfg.convergence,
            restarts=cfg.restarts,
            seed=derive_seed(seed, "truth"),
        )
        truth_seconds = time.monotonic() - started
        runs.append(
            RunResult(
                seed=seed,
                learned=learned,
                trace=trace,
                true_model=truth,
                true_p_elbo=report.p_elbo,
                learned_p_elbo=learned.p_elbo,
                search_seconds=search_seconds,
                truth_seconds=truth_seconds,
            )
        )
    return ReportBundle(spec, pag, tuple(runs))


def bundle_report(bundle: ReportBundle, normalize_times: bool = False) -> Dict[str, object]:
    """Key-value summary of an experiment, ready for text serialization."""
    items: Dict[str, object] = {
        "strategy": bundle.spec.config.strategy.value,
        "sample_size": bundle.spec.sample_size,
        "hidden": bundle.spec.hide if bundle.spec.hide is not None else "(none)",
        "runs": len(bundle.runs),
        "partial": bundle.partial,
    }
    for run in bundle.runs:
        prefix = f"run[{run.seed}]"
        items[f"{prefix}.learned_p_elbo"] = run.learned_p_elbo
        items[f"{prefix}.true_p_elbo"] = run.true_p_elbo
        items[f"{prefix}.margin"] = run.margin
        items[f"{prefix}.stop_reason"] = run.trace.stop_reason
        items[f"{prefix}.visited"] = len(run.trace.entries)
        items[f"{prefix}.search_seconds"] = (
            0.0 if normalize_times else round(run.search_seconds, 6)
        )
        items[f"{prefix}.truth_seconds"] = (
            0.0 if normalize_times else round(run.truth_seconds, 6)
        )
    return items
