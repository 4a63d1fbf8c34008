"""Model selection over latentized DAGs.

Two strategies share one scoring session:

- incremental search walks the Markov-equivalent MAGs of the input PAG
  stratum by stratum (ascending bi-directed-edge count), scoring every
  minimally latentized member, and advances only while a stratum improves
  on the incumbent;
- hill-climbing starts from the deterministic reference MAG and moves
  through single-mark orientation flips, never checking Markov
  equivalence, preferring fewer bi-directed edges.

Both finish by greedily growing latent cardinalities (judged on the
p-ELBO, like every other comparison) and report the best model over
everything visited. Fits are seeded per model fingerprint, so a model
scores identically wherever it is encountered, and every evaluation is
logged in an anytime trace.
"""
from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

from confinder.errors import ConstructionError, InconsistentStateError
from confinder.graphs import GraphKind, MixedGraph, require_valid
from confinder.latentize import LatentizedDag, latentize_min
from confinder.magspace import (
    ENUMERATION_LIMIT,
    enumerate_mags,
    orientation_neighbors,
    reference_mag,
)
from confinder.seeds import derive_seed
from confinder.vbem import (
    DEFAULT_CONVERGENCE,
    DEFAULT_ITERATION_CAP,
    DEFAULT_RESTARTS,
    Dataset,
    FamilyPrior,
    ScoreReport,
    VariationalState,
    run_vbem,
)

SCORE_TOLERANCE = 1e-6

DEFAULT_MAX_BIDIRECTED = 4
DEFAULT_MAX_STATES = 10
DEFAULT_BUDGET_SECONDS = 43200.0

STOP_REASONS = (
    "converged",
    "stratum-no-improvement",
    "local-maximum",
    "budget",
)


class Strategy(Enum):
    ILCV = "ilcv"
    HCLCV = "hclcv"


@dataclass(frozen=True)
class SearchConfig:
    """Hyperparameters shared by both strategies.

    ``max_bidirected`` caps the explored stratum, ``convergence`` is the
    VBEM threshold, ``max_states`` bounds the greedy cardinality growth and
    ``budget_seconds`` is the anytime wall-clock budget.
    """

    strategy: Strategy = Strategy.ILCV
    max_bidirected: int = DEFAULT_MAX_BIDIRECTED
    convergence: float = DEFAULT_CONVERGENCE
    max_states: int = DEFAULT_MAX_STATES
    budget_seconds: float = DEFAULT_BUDGET_SECONDS
    restarts: int = DEFAULT_RESTARTS
    seed: int = 0
    enumeration_limit: int = ENUMERATION_LIMIT
    alpha: float = 1.0
    max_iterations: int = DEFAULT_ITERATION_CAP

    def __post_init__(self):
        if isinstance(self.strategy, str):
            object.__setattr__(self, "strategy", Strategy(self.strategy))
        if self.max_bidirected < 0:
            raise ValueError("max_bidirected must be non-negative")
        if self.max_states < 2:
            raise ValueError("max_states must be at least 2")
        if not (self.budget_seconds > 0):
            raise ValueError("budget_seconds must be positive")
        if not (self.convergence > 0):
            raise ValueError("convergence threshold must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not (self.alpha > 0):
            raise ValueError("alpha must be positive")

    def prior(self) -> FamilyPrior:
        return FamilyPrior(self.alpha)


@dataclass(frozen=True, eq=False)
class ScoredModel:
    """A latentized DAG with its fitted posterior and search provenance."""

    model: LatentizedDag
    state: VariationalState
    report: ScoreReport
    stratum: int
    model_id: str

    @property
    def p_elbo(self) -> float:
        return self.report.p_elbo

    @property
    def elbo(self) -> float:
        return self.report.elbo


@dataclass(frozen=True)
class TraceEntry:
    """One scored model: stratum, fingerprint, score, elapsed seconds."""

    stratum: int
    model_id: str
    p_elbo: float
    seconds: float


@dataclass(eq=False)
class SearchTrace:
    """Everything a strategy evaluated, its winner, and why it stopped.

    ``converged`` means the planned space was exhausted (all strata within
    the cap improved, or the hill-climb ran out of in-cap moves after
    improving); ``stratum-no-improvement`` and ``local-maximum`` are the
    early stops of the respective strategies; ``budget`` marks an anytime
    return.
    """

    entries: Tuple[TraceEntry, ...]
    best: ScoredModel
    stop_reason: str

    def __post_init__(self):
        self.entries = tuple(self.entries)
        if not self.entries:
            raise InconsistentStateError("a trace needs at least one entry")
        if self.stop_reason not in STOP_REASONS:
            raise InconsistentStateError(f"unknown stop reason {self.stop_reason!r}")
        for earlier, later in zip(self.entries, self.entries[1:]):
            if later.seconds < earlier.seconds:
                raise InconsistentStateError("trace timestamps must be non-decreasing")
        top = max(entry.p_elbo for entry in self.entries)
        if self.best.p_elbo != top:
            raise InconsistentStateError("best model does not match the trace maximum")


def model_id(model: LatentizedDag) -> str:
    """Short fingerprint of structure plus latent cardinalities."""
    parts = ["nodes=" + ",".join(model.dag.nodes)]
    parts.extend(
        f"{e.a}{e.mark_a.value}{e.mark_b.value}{e.b}" for e in model.dag.edges
    )
    parts.extend(
        f"{l.name}:{l.states}>{','.join(l.children)}" for l in model.spec.latents
    )
    return hashlib.sha256(";".join(parts).encode("utf-8")).hexdigest()[:10]


class _Session:
    """Shared scoring state: clock, cache, trace, and incumbent best.

    Fits are memoized by model fingerprint; a cache hit is a reuse, not a
    new visit, so it adds no trace entry.
    """

    def __init__(self, data: Dataset, cfg: SearchConfig):
        self.data = data
        self.cfg = cfg
        self.prior = cfg.prior()
        self.started = time.monotonic()
        self.deadline = self.started + cfg.budget_seconds
        self.entries: List[TraceEntry] = []
        self.cache: Dict[str, ScoredModel] = {}
        self.best: Optional[ScoredModel] = None
        self.budget_hit = False

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def out_of_time(self) -> bool:
        if time.monotonic() >= self.deadline:
            self.budget_hit = True
            return True
        return False

    def score(self, model: LatentizedDag) -> ScoredModel:
        fingerprint = model_id(model)
        cached = self.cache.get(fingerprint)
        if cached is not None:
            return cached
        state, report = run_vbem(
            model,
            self.data,
            prior=self.prior,
            c=self.cfg.convergence,
            restarts=self.cfg.restarts,
            seed=derive_seed(self.cfg.seed, "vbem", fingerprint),
            max_iterations=self.cfg.max_iterations,
            deadline=self.deadline,
        )
        # a fit that ran into the deadline was cut short: the run is over
        self.out_of_time()
        scored = ScoredModel(
            model=model,
            state=state,
            report=report,
            stratum=model.source_mag.bidirected_count if model.source_mag else 0,
            model_id=fingerprint,
        )
        self.cache[fingerprint] = scored
        self.entries.append(
            TraceEntry(scored.stratum, fingerprint, report.p_elbo, self.elapsed())
        )
        if self.best is None or scored.p_elbo > self.best.p_elbo:
            self.best = scored
        return scored

    def trace(self, stop_reason: str) -> SearchTrace:
        return SearchTrace(tuple(self.entries), self.best, stop_reason)


def _greedy_states(session: _Session, start: ScoredModel) -> ScoredModel:
    """Grow each latent's cardinality while the p-ELBO improves.

    Latents are visited in canonical order; each keeps gaining one state
    until the p-ELBO stops improving or the cap is reached. Every candidate
    is a full refit, so the returned model's report is self-contained.
    """
    current = start
    for latent in sorted(start.model.spec.names):
        while current.model.spec.states_of(latent) < session.cfg.max_states:
            if session.out_of_time():
                return current
            bumped = current.model.with_states(
                {latent: current.model.spec.states_of(latent) + 1}
            )
            candidate = session.score(bumped)
            if candidate.p_elbo > current.p_elbo + SCORE_TOLERANCE:
                current = candidate
            else:
                break
    return current


def ilcv(
    pag: MixedGraph, data: Dataset, cfg: SearchConfig
) -> Tuple[ScoredModel, SearchTrace]:
    """Incremental stratified search over the PAG's equivalence class.

    Strata are visited in ascending bi-directed count; each member MAG is
    minimally latentized and fully scored. The walk advances only while a
    stratum's best beats the incumbent, then the winner's latent
    cardinalities are grown greedily. Budget expiry at any point returns
    the best model seen so far.
    """
    if cfg.strategy is not Strategy.ILCV:
        raise ValueError("config strategy does not select the incremental search")
    require_valid(pag, GraphKind.PAG, "pag")
    session = _Session(data, cfg)
    strata = enumerate_mags(pag, cfg.enumeration_limit)
    usable = [s for s in strata if s.bidirected_count <= cfg.max_bidirected]
    if not usable:
        raise ConstructionError(
            f"every MAG completion has more than {cfg.max_bidirected} "
            f"bi-directed edges"
        )
    stop: Optional[str] = None
    incumbent: Optional[ScoredModel] = None
    for stratum in usable:
        stratum_best: Optional[ScoredModel] = None
        for mag in stratum.mags:
            # the first model is always scored so an anytime result exists
            if session.entries and session.out_of_time():
                stop = "budget"
                break
            scored = session.score(latentize_min(mag))
            if stratum_best is None or scored.p_elbo > stratum_best.p_elbo:
                stratum_best = scored
        if stop is not None:
            break
        if incumbent is None or stratum_best.p_elbo > incumbent.p_elbo + SCORE_TOLERANCE:
            incumbent = stratum_best
        else:
            stop = "stratum-no-improvement"
            break
    if stop is None:
        stop = "converged"
    if stop != "budget":
        _greedy_states(session, incumbent)
        if session.budget_hit:
            stop = "budget"
    return session.best, session.trace(stop)


def _carried_states(spec) -> Dict[Tuple[str, ...], int]:
    return {l.children: l.states for l in spec.latents}


def _with_carried(model: LatentizedDag, carried: Dict[Tuple[str, ...], int]) -> LatentizedDag:
    updates = {}
    for latent in model.spec.latents:
        states = carried.get(latent.children)
        if states is not None and states != latent.states:
            updates[latent.name] = states
    return model.with_states(updates) if updates else model


def hclcv(
    pag: MixedGraph, data: Dataset, cfg: SearchConfig
) -> Tuple[ScoredModel, SearchTrace]:
    """Hill-climbing over orientations, skipping equivalence checks.

    Starts at the reference MAG, scores every in-cap single-flip neighbor,
    and moves to the best strictly improving one; latents whose children
    sets persist carry their learned state counts into the neighbor's
    model. Stops at a local maximum or on budget, then grows cardinalities
    as the incremental search does.
    """
    if cfg.strategy is not Strategy.HCLCV:
        raise ValueError("config strategy does not select the hill-climbing search")
    require_valid(pag, GraphKind.PAG, "pag")
    session = _Session(data, cfg)
    current_mag = reference_mag(pag)
    current = session.score(latentize_min(current_mag))
    carried = _carried_states(current.model.spec)
    stop: Optional[str] = None
    while True:
        if session.out_of_time():
            stop = "budget"
            break
        neighbors = [
            (move, mag)
            for move, mag in orientation_neighbors(current_mag, pag)
            if mag.bidirected_count <= cfg.max_bidirected
        ]
        neighbors.sort(
            key=lambda pair: (
                pair[1].bidirected_count,
                pair[0].edge,
                pair[0].endpoint,
                pair[0].new_mark.value,
            )
        )
        best_neighbor: Optional[Tuple[ScoredModel, MixedGraph]] = None
        for _move, mag in neighbors:
            if session.out_of_time():
                stop = "budget"
                break
            scored = session.score(_with_carried(latentize_min(mag), carried))
            if best_neighbor is None or scored.p_elbo > best_neighbor[0].p_elbo:
                best_neighbor = (scored, mag)
        if stop is not None:
            break
        if (
            best_neighbor is not None
            and best_neighbor[0].p_elbo > current.p_elbo + SCORE_TOLERANCE
        ):
            current, current_mag = best_neighbor
            carried = _carried_states(current.model.spec)
        else:
            stop = "local-maximum"
            break
    if stop != "budget":
        _greedy_states(session, current)
        if session.budget_hit:
            stop = "budget"
    return session.best, session.trace(stop)


def run_search(
    pag: MixedGraph, data: Dataset, cfg: SearchConfig
) -> Tuple[ScoredModel, SearchTrace]:
    """Dispatch to the strategy selected by the config."""
    if cfg.strategy is Strategy.ILCV:
        return ilcv(pag, data, cfg)
    return hclcv(pag, data, cfg)
