"""Model selection over latentized DAGs.

``run_search`` is the one search frame. It validates the PAG, opens a
scoring session (clock, fit memo, trace, incumbent best), runs the walk
the config's strategy selects, greedily grows the latent cardinalities of
the model the walk returns (judged on the p-ELBO, like every other
comparison) and reports the best model over everything visited. The two
walks differ only in how they move through the MAG space:

- ``_ilcv`` walks the Markov-equivalent MAGs of the input PAG stratum by
  stratum (ascending bi-directed-edge count), scoring every minimally
  latentized member, and advances only while a stratum improves on the
  incumbent;
- ``_hclcv`` starts from the deterministic reference MAG and moves through
  single-mark orientation flips, never checking Markov equivalence,
  preferring fewer bi-directed edges.

A walk returns the model to grow and its stop reason, and returns at once
when a budget check fails; the session marks the budget after every fit,
and the frame then skips the growth and reports ``budget``. Every fit
takes the same seed and a component's restarts are seeded from its own
key, so a model scores identically wherever it is encountered, and every
evaluation is logged in an anytime trace.
"""
from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

from confinder.errors import BudgetError, ConstructionError, InconsistentStateError
from confinder.graphs import GraphKind, MixedGraph, require_valid
from confinder.latentize import LatentizedDag, latentize_min
from confinder.magspace import enumerate_mags, orientation_neighbors, reference_mag
from confinder.seeds import derive_seed
from confinder.vbem import (
    DEFAULT_CONVERGENCE,
    DEFAULT_RESTARTS,
    Dataset,
    FamilyPrior,
    FitMemo,
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
    ``budget_seconds`` is the anytime wall-clock budget, which also bounds
    ilcv's walk over the equivalence class. ``restarts`` and ``seed`` set
    each fit's restarts and the master seed; every fit uses VBEM's fixed
    unit prior and iteration cap.
    """

    strategy: Strategy = Strategy.ILCV
    max_bidirected: int = DEFAULT_MAX_BIDIRECTED
    convergence: float = DEFAULT_CONVERGENCE
    max_states: int = DEFAULT_MAX_STATES
    budget_seconds: float = DEFAULT_BUDGET_SECONDS
    restarts: int = DEFAULT_RESTARTS
    seed: int = 0

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

    def prior(self) -> FamilyPrior:
        """The fits' fixed unit prior, ``vbem.ALPHA``, as a ``FamilyPrior``.

        No fit takes it; the benchmark child (``perfbench/child.py``) passes
        it to ``vb_m_step`` and ``elbo``, and this method goes once that
        caller stops.
        """
        return FamilyPrior()


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

    ``converged`` means the incremental walk exhausted its space (every
    stratum within the cap improved); ``stratum-no-improvement`` and
    ``local-maximum`` are the early stops of the respective strategies;
    ``budget`` marks an anytime return.
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
    """Shared scoring state: clock, fit memo, trace, and incumbent best.

    The session's ``memo`` is its one fit store. It keeps each latent-free
    family's score by (node, parents), each latent component's fit by its
    label-free key, and the distinct rows of each column set. Every scored
    model is one ``run_vbem`` call with it, so a component shared by
    several models is fitted once, a repeated model is a lookup, and, since
    all fits take the same seed, a model scores the same whatever was
    scored before it. A model already in the trace is a reuse, not a new
    visit: it adds no entry and leaves the incumbent as it was.
    """

    def __init__(self, data: Dataset, cfg: SearchConfig):
        self.data = data
        self.cfg = cfg
        self.memo = FitMemo(data)
        self.seed = derive_seed(cfg.seed, "vbem")
        self.started = time.monotonic()
        self.deadline = self.started + cfg.budget_seconds
        self.entries: List[TraceEntry] = []
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
        state, report = run_vbem(
            model,
            self.data,
            c=self.cfg.convergence,
            restarts=self.cfg.restarts,
            seed=self.seed,
            deadline=self.deadline,
            memo=self.memo,
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
        if all(entry.model_id != fingerprint for entry in self.entries):
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


def _ilcv(session: _Session, pag: MixedGraph) -> Tuple[ScoredModel, str]:
    """Incremental stratified walk over the PAG's equivalence class.

    Strata are visited in ascending bi-directed count; each member MAG is
    minimally latentized and fully scored. The walk advances only while a
    stratum's best beats the incumbent, which it then returns for growth.
    The enumeration stops at the session deadline with the members found so
    far, the reference MAG among them, and a MAG latentized past it gets
    the finest grouping, one latent per bi-directed edge. A walk cut before
    it found a MAG within the cap has no model to return and raises
    BudgetError.
    """
    cfg = session.cfg
    strata = enumerate_mags(pag, deadline=session.deadline)
    usable = [s for s in strata if s.bidirected_count <= cfg.max_bidirected]
    if not usable:
        if session.out_of_time():
            raise BudgetError(
                f"the budget ran out during enumeration before a MAG with at "
                f"most {cfg.max_bidirected} bi-directed edges was found"
            )
        raise ConstructionError(
            f"every MAG completion has more than {cfg.max_bidirected} "
            f"bi-directed edges"
        )
    incumbent: Optional[ScoredModel] = None
    for stratum in usable:
        stratum_best: Optional[ScoredModel] = None
        for mag in stratum.mags:
            # the first model is always scored so an anytime result exists
            if session.entries and session.out_of_time():
                return session.best, "budget"
            scored = session.score(latentize_min(mag, deadline=session.deadline))
            if stratum_best is None or scored.p_elbo > stratum_best.p_elbo:
                stratum_best = scored
        if incumbent is None or stratum_best.p_elbo > incumbent.p_elbo + SCORE_TOLERANCE:
            incumbent = stratum_best
        else:
            return incumbent, "stratum-no-improvement"
    return incumbent, "converged"


def _carried_states(spec) -> Dict[Tuple[str, ...], int]:
    return {l.children: l.states for l in spec.latents}


def _with_carried(model: LatentizedDag, carried: Dict[Tuple[str, ...], int]) -> LatentizedDag:
    updates = {}
    for latent in model.spec.latents:
        states = carried.get(latent.children)
        if states is not None and states != latent.states:
            updates[latent.name] = states
    return model.with_states(updates) if updates else model


def _candidates(current_mag: MixedGraph, pag: MixedGraph, cap: int) -> List[MixedGraph]:
    """In-cap single-flip neighbors, fewest bi-directed edges first, ties in
    ``orientation_neighbors``' circle-slot order (the sort is stable)."""
    in_cap = [g for g in orientation_neighbors(current_mag, pag) if g.bidirected_count <= cap]
    return sorted(in_cap, key=lambda g: g.bidirected_count)


def _hclcv(session: _Session, pag: MixedGraph) -> Tuple[ScoredModel, str]:
    """Hill-climbing walk over orientations, skipping equivalence checks.

    Starts at the reference MAG, scores every in-cap single-flip neighbor,
    and moves to the best strictly improving one; latents whose children
    sets persist carry their learned state counts into the neighbor's
    model. Returns the model it stops on, at a local maximum. A MAG
    latentized past the session deadline gets the finest grouping.
    """
    cfg = session.cfg
    current_mag = reference_mag(pag)
    if current_mag.bidirected_count > cfg.max_bidirected:
        raise ConstructionError(
            f"the reference MAG has {current_mag.bidirected_count} bi-directed "
            f"edges, more than {cfg.max_bidirected}"
        )
    current = session.score(latentize_min(current_mag, deadline=session.deadline))
    carried = _carried_states(current.model.spec)
    while True:
        if session.out_of_time():
            return session.best, "budget"
        best_neighbor: Optional[Tuple[ScoredModel, MixedGraph]] = None
        for mag in _candidates(current_mag, pag, cfg.max_bidirected):
            if session.out_of_time():
                return session.best, "budget"
            model = latentize_min(mag, deadline=session.deadline)
            scored = session.score(_with_carried(model, carried))
            if best_neighbor is None or scored.p_elbo > best_neighbor[0].p_elbo:
                best_neighbor = (scored, mag)
        if (
            best_neighbor is not None
            and best_neighbor[0].p_elbo > current.p_elbo + SCORE_TOLERANCE
        ):
            current, current_mag = best_neighbor
            carried = _carried_states(current.model.spec)
        else:
            return current, "local-maximum"


def run_search(
    pag: MixedGraph, data: Dataset, cfg: SearchConfig
) -> Tuple[ScoredModel, SearchTrace]:
    """Search the PAG's class for the best latentized DAG by p-ELBO.

    Validates the PAG, runs the walk the config's strategy selects, grows
    the latent cardinalities of the model it returns unless the budget
    already ran out, and traces the run. The stop reason is ``budget``
    whenever a budget check failed, else the walk's own reason.
    """
    require_valid(pag, GraphKind.PAG, "pag")
    session = _Session(data, cfg)
    walk = _ilcv if cfg.strategy is Strategy.ILCV else _hclcv
    start, stop = walk(session, pag)
    if not session.budget_hit:
        _greedy_states(session, start)
    return session.best, session.trace("budget" if session.budget_hit else stop)
