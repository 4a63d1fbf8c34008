"""Variational Bayesian EM for discrete Bayesian networks with latents.

Families (a node given its parents) carry Dirichlet priors; the surrogate
posterior factorises into per-family Dirichlets q_theta and per-row,
per-latent categorical responsibilities q_latent (mean field). The VB-E
step updates responsibilities from expected log parameters, the VB-M step
updates Dirichlet parameters from expected counts, and the bound is
evaluated in its closed form at the VB-M fixed point.

Given the parameters the bound splits into one term per row, so identical
rows share one responsibility vector at the optimum. A fit therefore runs
over the distinct rows m of the data, each weighted by its count w_m:

    ELBO = sum_m w_m H(q_latent row m)
         + sum_i sum_j [ logB(posterior alpha_ij.) - logB(prior alpha_ij.) ]

where the posterior adds the count-weighted expected counts to the prior.
For latent-free models this is exactly the conjugate log marginal
likelihood. The fitted ``q_latent`` is returned per observation (one row
per data row), and the public step functions bind every row with weight 1.

Every family, latent or not, is fitted through one table of cells: one
row per joint configuration of the family's latents and one column per
data row, each entry the (parent configuration, state) cell the row lands
in. The VB-M step adds each row's weight times the joint responsibility
of every configuration to its cell; the VB-E step gathers the expected log
parameters of those cells and sums out the other latents' responsibilities.

A fit keeps the best of several seeded restarts, and all of them advance
together as one batch. Inside the batch, responsibilities are laid out
restarts x states x rows (rows last, so a reduction over a latent's few
states adds whole contiguous rows) and every dynamic family's table
restarts x parent configurations x states. The M-step makes one
``bincount`` per family over all restarts' cells, restart r's shifted by r
table sizes; the bound makes one ``gammaln`` call over every dynamic
table and row sum. A restart leaves the batch with its state frozen as
soon as its own stopping rule fires. The public step functions run the
same code as a batch of one restart.

The searched objective adds a label-symmetry penalty:
p-ELBO = ELBO - sum_i log(|L_i|!), cancelling the |L_i|! equivalent
relabelings of each latent's states.

All scores are in nats and accumulated in canonical node order so repeated
runs are bit-identical.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np
from scipy.special import digamma, gammaln, xlogy

from confinder.errors import DataBindingError, InconsistentStateError
from confinder.latentize import LatentSpec, LatentizedDag
from confinder.seeds import derive_seed

DEFAULT_CONVERGENCE = 0.01
DEFAULT_RESTARTS = 5
DEFAULT_ITERATION_CAP = 500

TRACE_SLACK = 1e-8


class Dataset:
    """Complete discrete data: named columns with fixed cardinalities.

    Cells are state indices; latent variables are absent columns rather
    than missing cells, so every stored cell must be present and in range.
    """

    def __init__(self, variables: Iterable[Tuple[str, int]], rows) -> None:
        self.variables: Tuple[Tuple[str, int], ...] = tuple(
            (str(name), int(card)) for name, card in variables
        )
        names = [name for name, _ in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for name, card in self.variables:
            if card < 2:
                raise ValueError(f"variable {name!r} needs at least 2 states, got {card}")
        data = np.array(rows, dtype=np.int64)
        if data.ndim != 2 or data.shape[1] != len(self.variables):
            raise ValueError(
                f"rows must form an N x {len(self.variables)} table, got shape {data.shape}"
            )
        if data.shape[0] < 1:
            raise ValueError("dataset needs at least one row")
        for col, (name, card) in enumerate(self.variables):
            column = data[:, col]
            if column.min() < 0 or column.max() >= card:
                raise ValueError(
                    f"variable {name!r} has values outside [0, {card})"
                )
        data.setflags(write=False)
        self._rows = data
        self._col = {name: i for i, name in enumerate(names)}

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.variables)

    @property
    def n_rows(self) -> int:
        return self._rows.shape[0]

    @property
    def rows(self) -> np.ndarray:
        return self._rows

    def cardinality(self, name: str) -> int:
        return self.variables[self._col[name]][1]

    def column(self, name: str) -> np.ndarray:
        return self._rows[:, self._col[name]]

    @functools.cached_property
    def _distinct_rows(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distinct rows, each row's index among them, and their counts."""
        rows, inverse, counts = np.unique(
            self._rows, axis=0, return_inverse=True, return_counts=True
        )
        parts = (rows, inverse.reshape(-1), counts.astype(float))
        for part in parts:
            part.setflags(write=False)
        return parts

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.variables == other.variables and np.array_equal(self._rows, other._rows)

    def __repr__(self) -> str:
        return f"Dataset({len(self.variables)} variables, {self.n_rows} rows)"


@dataclass(frozen=True, eq=False)
class FamilyPrior:
    """Dirichlet hyperparameters: every entry of every family's
    (parent configuration x state) table is the scalar ``alpha``."""

    alpha: float = 1.0

    def __post_init__(self):
        if not (self.alpha > 0):
            raise ValueError("alpha must be positive")

    def for_family(self, shape: Tuple[int, int]) -> np.ndarray:
        return np.full(shape, float(self.alpha))


@dataclass(eq=False)
class VariationalState:
    """Surrogate posterior: per-family Dirichlets plus responsibilities."""

    q_theta: Dict[str, np.ndarray]
    q_latent: Dict[str, np.ndarray]
    elbo_trace: Tuple[float, ...] = ()

    def __post_init__(self):
        self.elbo_trace = tuple(float(v) for v in self.elbo_trace)
        for name, q in self.q_latent.items():
            if np.any(q < 0):
                raise InconsistentStateError(f"negative responsibilities for {name!r}")
            sums = q.sum(axis=1)
            if np.any(np.abs(sums - 1.0) > 1e-9):
                raise InconsistentStateError(f"responsibilities for {name!r} are not normalized")
        for earlier, later in zip(self.elbo_trace, self.elbo_trace[1:]):
            if later < earlier - TRACE_SLACK:
                raise InconsistentStateError(
                    f"bound decreased along the trace: {earlier} -> {later}"
                )


@dataclass(frozen=True)
class ScoreReport:
    """Outcome of one fit: bound values plus run accounting.

    ``iterations`` counts bound evaluations: the initial one after setting
    up the parameter posterior, plus one per E/M pass of the winning run.
    """

    elbo: float
    p_elbo: float
    iterations: int
    converged: bool
    restarts_used: int


def parent_strides(parents: Tuple[str, ...], cards: Mapping[str, int]) -> Dict[str, int]:
    """Each parent's weight in the flat parent-configuration index.

    The index is mixed radix over the sorted parent tuple, rightmost
    parent varying fastest; fitting, sampling and the model file all use it.
    """
    strides = {}
    running = 1
    for parent in reversed(parents):
        strides[parent] = running
        running *= cards[parent]
    return strides


class _Family:
    """One node's conditional family bound to the rows of a binding.

    ``members`` are the family's latents in sorted order: its latent
    parents, plus the node itself when it is latent. ``cells`` holds, for
    every joint configuration of the members (mixed radix, last member
    varying fastest) and every row, the flat index into the (parent
    configuration x state) table that the row lands in. A latent root thus
    has the rows 0..k-1 and a latent-free family a single row. The prior
    table and, for latent-free families, the posterior table are
    constants of the binding.
    """

    __slots__ = ("node", "members", "shape", "cells", "prior", "static_posterior",
                 "_batch_cells")

    def __init__(self, node, parents, cards, columns, weights, latent_names,
                 prior: FamilyPrior):
        self.node = node
        card = cards[node]
        # each variable's weight in the flat (configuration, state) index
        place = {p: stride * card for p, stride in parent_strides(parents, cards).items()}
        place[node] = 1
        self.members = tuple(sorted(n for n in place if n in latent_names))
        self.shape = tuple(cards[m] for m in self.members)
        observed = np.zeros(len(weights), dtype=np.int64)
        for name, weight in place.items():
            if name not in latent_names:
                observed += weight * columns[name]
        offsets = np.zeros(1, dtype=np.int64)
        for member in self.members:
            offsets = (offsets[:, None] + place[member] * np.arange(cards[member])).ravel()
        self.cells = offsets[:, None] + observed
        self.prior = prior.for_family((math.prod(cards[p] for p in parents), card))
        self.static_posterior = None
        if not self.members:
            counts = np.bincount(self.cells[0], weights=weights, minlength=self.prior.size)
            self.static_posterior = self.prior + counts.reshape(self.prior.shape)
        self._batch_cells = np.empty(0, dtype=np.int64)

    def batch_cells(self, restarts: int) -> np.ndarray:
        """The flat cells of a batch of ``restarts`` tables laid end to end:
        restart r's cells are offset by r table sizes. A smaller batch
        reads a prefix of the largest one built."""
        if len(self._batch_cells) < restarts * self.cells.size:
            shift = self.prior.size * np.arange(restarts)
            self._batch_cells = (shift[:, None, None] + self.cells).ravel()
        return self._batch_cells[: restarts * self.cells.size]


class _Binding:
    """Model structure matched against a row table with one weight per row.

    The fit binds the dataset's distinct rows weighted by their counts; the
    public step functions bind every row with weight 1, because a caller's
    responsibilities may differ between identical rows.
    """

    def __init__(self, model: LatentizedDag, data: Dataset, prior: FamilyPrior,
                 rows: np.ndarray, weights: np.ndarray):
        observed = model.observed
        missing = set(observed) - set(data.names)
        extra = set(data.names) - set(observed)
        if missing or extra:
            parts = []
            if missing:
                parts.append(f"columns missing from data: {sorted(missing)}")
            if extra:
                parts.append(f"columns absent from model: {sorted(extra)}")
            raise DataBindingError("; ".join(parts))
        self.n_rows = rows.shape[0]
        self.weights = weights
        self.latent_names = tuple(sorted(model.spec.names))
        self.latent_cards = {l.name: l.states for l in model.spec.latents}
        cards = dict(self.latent_cards)
        for name in observed:
            cards[name] = data.cardinality(name)
        columns = {name: rows[:, i] for i, name in enumerate(data.names)}
        latent_set = set(self.latent_names)
        self.families = {}
        for node in sorted(model.dag.nodes):
            self.families[node] = _Family(
                node, model.dag.parents(node), cards, columns, weights,
                latent_set, prior,
            )
        # families whose tables depend on the responsibilities
        self.dynamic = tuple(
            f for f in self.families.values() if f.static_posterior is None
        )
        # the families each latent belongs to, its own root family first
        self.touching = {
            l: (self.families[l],) + tuple(
                f for f in self.families.values() if l in f.members and f.node != l
            )
            for l in self.latent_names
        }

    @functools.cached_property
    def constant(self) -> float:
        """The bound's terms that no responsibility moves: every prior's
        log-Beta and the posterior log-Beta of latent-free families."""
        return sum(
            float(np.sum(_log_beta(f.static_posterior)))
            for f in self.families.values()
            if f.static_posterior is not None
        ) - sum(float(np.sum(_log_beta(f.prior))) for f in self.families.values())

    def uniform_responsibilities(self) -> Dict[str, np.ndarray]:
        return {
            l: np.full((self.n_rows, self.latent_cards[l]), 1.0 / self.latent_cards[l])
            for l in self.latent_names
        }

    def check_q_theta(self, q_theta: Mapping[str, np.ndarray]) -> None:
        for node, family in self.families.items():
            table = q_theta.get(node)
            if table is None:
                raise DataBindingError(f"q_theta is missing family {node!r}")
            if table.shape != family.prior.shape:
                raise DataBindingError(
                    f"q_theta[{node!r}] has shape {table.shape}, expected "
                    f"{family.prior.shape}"
                )

    def check_q_latent(self, q_latent: Mapping[str, np.ndarray]) -> None:
        for name in self.latent_names:
            q = q_latent.get(name)
            if q is None:
                raise DataBindingError(f"q_latent is missing latent {name!r}")
            if q.shape != (self.n_rows, self.latent_cards[name]):
                raise DataBindingError(
                    f"q_latent[{name!r}] has shape {q.shape}, expected "
                    f"{(self.n_rows, self.latent_cards[name])}"
                )

    def full_q_theta(self, dynamic: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Every family's table: ``dynamic``'s, plus copies of the constant
        posteriors of latent-free families."""
        return {
            node: dynamic[node] if f.static_posterior is None else f.static_posterior.copy()
            for node, f in self.families.items()
        }


def _bind_every_row(model: LatentizedDag, data: Dataset,
                    prior: Optional[FamilyPrior] = None) -> _Binding:
    return _Binding(model, data, prior or FamilyPrior(), data.rows, np.ones(data.n_rows))


# -- the batched steps: restarts x states x rows ------------------------------

def _of_tables_and_sums(fn, tables: list) -> list:
    """``fn`` of every table and of every table's row sums, in one call:
    one (cells, row sums) pair of arrays per table."""
    if not tables:
        return []
    sums = [table.sum(axis=-1) for table in tables]
    values = fn(np.concatenate([part.ravel() for part in tables + sums]))
    pieces = []
    start = 0
    for part in tables + sums:
        pieces.append(values[start:start + part.size].reshape(part.shape))
        start += part.size
    return list(zip(pieces, pieces[len(tables):]))


def _member_operands(family: _Family, q_latent, skip=None) -> list:
    """``np.einsum`` operands that put each member's responsibilities (but
    ``skip``'s) on the member's axis of the restart x configuration x row
    cells."""
    rows = len(family.members) + 1
    operands = []
    for axis, member in enumerate(family.members, 1):
        if member != skip:
            operands += [q_latent[member], [0, axis, rows]]
    return operands


def _e_step(binding: _Binding, q_theta, q_latent) -> Dict[str, np.ndarray]:
    """One sequential mean-field sweep over latents in canonical order."""
    digammas = _of_tables_and_sums(digamma, [q_theta[f.node] for f in binding.dynamic])
    # degenerate tables produce non-finite values here; the sweep detects
    # and reports them, so the intermediate warning is noise
    with np.errstate(invalid="ignore"):
        elog = {
            f.node: (cells - sums[..., None]).reshape(len(cells), -1)
            for f, (cells, sums) in zip(binding.dynamic, digammas)
        }
    updated = dict(q_latent)
    for latent in binding.latent_names:
        log_q = 0.0
        for family in binding.touching[latent]:
            gathered = np.take(elog[family.node], family.cells, axis=1)
            if len(family.members) > 1:
                axes = list(range(len(family.members) + 2))
                gathered = np.einsum(
                    gathered.reshape(len(gathered), *family.shape, binding.n_rows), axes,
                    *_member_operands(family, updated, skip=latent),
                    [0, 1 + family.members.index(latent), axes[-1]],
                )
            log_q = log_q + gathered
        if not np.all(np.isfinite(log_q)):
            raise InconsistentStateError(
                f"non-finite responsibilities for {latent!r}; q_theta is degenerate"
            )
        q = np.exp(log_q - log_q.max(axis=1, keepdims=True))
        q /= q.sum(axis=1, keepdims=True)
        updated[latent] = q
    return updated


def _m_step(binding: _Binding, q_latent) -> Dict[str, np.ndarray]:
    """Prior plus expected counts for every dynamic family: one weighted
    ``bincount`` per family over all restarts' cells."""
    q_theta = {}
    for family in binding.dynamic:
        restarts = len(q_latent[family.members[0]])
        rows = len(family.members) + 1
        joint = np.einsum(
            binding.weights, [rows], *_member_operands(family, q_latent),
            list(range(rows + 1)),
        )
        counts = np.bincount(
            family.batch_cells(restarts), weights=joint.ravel(),
            minlength=restarts * family.prior.size,
        )
        q_theta[family.node] = family.prior + counts.reshape(restarts, *family.prior.shape)
    return q_theta


def _log_beta(table: np.ndarray) -> np.ndarray:
    return gammaln(table).sum(axis=-1) - gammaln(table.sum(axis=-1))


def _elbo(binding: _Binding, q_theta, q_latent) -> np.ndarray:
    """Every restart's bound at the VB-M fixed point; latent-free families
    are constant. One ``gammaln`` covers all dynamic tables and their row
    sums."""
    total = binding.constant
    tables = [q_theta[f.node] for f in binding.dynamic]
    for cells, sums in _of_tables_and_sums(gammaln, tables):
        total = total + (cells.sum(axis=-1) - sums).sum(axis=-1)
    for latent in binding.latent_names:
        # rows outer, states inner: the summation order of a rows x states
        # table, so the bound's bits do not depend on the batch layout
        q = q_latent[latent].transpose(0, 2, 1)
        total = total - np.einsum("m,rmk->r", binding.weights, xlogy(q, q, order="C"))
    return total


def _check_fixed_point(binding, q_theta, q_batch) -> None:
    """``q_theta`` is a caller's tables, ``q_batch`` its responsibilities
    as a batch of one."""
    recomputed = binding.full_q_theta(
        {node: table[0] for node, table in _m_step(binding, q_batch).items()}
    )
    for node, table in recomputed.items():
        if not np.allclose(q_theta[node], table, rtol=1e-9, atol=1e-8):
            raise InconsistentStateError(
                f"q_theta[{node!r}] is not the VB-M update of q_latent; "
                f"the closed-form bound would be wrong"
            )


def _rows_last(binding: _Binding, q_latent) -> Dict[str, np.ndarray]:
    """A caller's rows x states responsibilities as a batch of one."""
    return {name: q_latent[name].T[None] for name in binding.latent_names}


def _group_means(draws: np.ndarray, inverse: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Average the rows of ``draws`` within each group of identical data rows."""
    sums = np.stack(
        [np.bincount(inverse, weights=col, minlength=len(counts)) for col in draws.T],
        axis=1,
    )
    return sums / counts[:, None]


# -- public operations -------------------------------------------------------

def vb_e_step(
    model: LatentizedDag,
    data: Dataset,
    q_theta: Mapping[str, np.ndarray],
    q_latent: Optional[Mapping[str, np.ndarray]] = None,
) -> Dict[str, np.ndarray]:
    """Responsibilities from expected log parameters (one sweep).

    With several latents the sweep is sequential in canonical name order,
    each update conditioning on the freshest values of the others; pass
    ``q_latent`` to resume from existing responsibilities instead of the
    uniform starting point.
    """
    binding = _bind_every_row(model, data)
    binding.check_q_theta(q_theta)
    if q_latent is None:
        q_latent = binding.uniform_responsibilities()
    else:
        binding.check_q_latent(q_latent)
    tables = {node: table[None] for node, table in q_theta.items()}
    updated = _e_step(binding, tables, _rows_last(binding, q_latent))
    return {name: q[0].T for name, q in updated.items()}


def vb_m_step(
    model: LatentizedDag,
    data: Dataset,
    q_latent: Mapping[str, np.ndarray],
    prior: Optional[FamilyPrior] = None,
) -> Dict[str, np.ndarray]:
    """Posterior Dirichlet parameters: prior plus expected counts."""
    binding = _bind_every_row(model, data, prior)
    binding.check_q_latent(q_latent)
    batch = _rows_last(binding, q_latent)
    return binding.full_q_theta(
        {node: table[0] for node, table in _m_step(binding, batch).items()}
    )


def elbo(
    model: LatentizedDag,
    data: Dataset,
    state: VariationalState,
    prior: Optional[FamilyPrior] = None,
) -> float:
    """Closed-form bound at the VB-M fixed point.

    Refuses (InconsistentStateError) when ``state.q_theta`` is not the VB-M
    update of ``state.q_latent``: away from the fixed point this formula is
    not the bound, and silently returning it would corrupt every comparison
    built on top.
    """
    binding = _bind_every_row(model, data, prior)
    binding.check_q_theta(state.q_theta)
    binding.check_q_latent(state.q_latent)
    batch = _rows_last(binding, state.q_latent)
    _check_fixed_point(binding, state.q_theta, batch)
    if not binding.latent_names:
        return binding.constant
    tables = {node: table[None] for node, table in state.q_theta.items()}
    return float(_elbo(binding, tables, batch)[0])


def p_elbo(elbo_value: float, spec: LatentSpec) -> float:
    """Penalised bound: subtract log(states!) per latent.

    Permuting a latent's state labels yields |L_i|! parameterisations with
    identical fit; the penalty makes scores of different cardinalities
    comparable.
    """
    penalty = sum(math.log(math.factorial(l.states)) for l in spec.latents)
    return elbo_value - penalty


def run_vbem(
    model: LatentizedDag,
    data: Dataset,
    prior: Optional[FamilyPrior] = None,
    c: float = DEFAULT_CONVERGENCE,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    max_iterations: int = DEFAULT_ITERATION_CAP,
    deadline: Optional[float] = None,
) -> Tuple[VariationalState, ScoreReport]:
    """Fit the surrogate posterior, keeping the best of seeded restarts.

    Each restart draws row responsibilities from a flat Dirichlet and
    averages them within each group of identical rows. All restarts then
    advance as one batch, alternating E and M steps over the distinct
    rows. A restart leaves the batch, its state frozen, once a pass after
    the first improves its bound by less than ``c`` or after
    ``max_iterations`` passes. The best final bound wins; ties go to the
    earliest restart, so results are reproducible bit for bit. Each
    restart follows the path it would follow alone.

    ``deadline`` is a ``time.monotonic()`` instant, checked before every
    batched pass. Once it has passed, every running restart stops and the
    restart with the best current bound is returned, reported as not
    converged. ``restarts_used`` counts the restarts run, which with one
    batch is all of them.
    """
    if not (c > 0):
        raise ValueError("convergence threshold must be positive")
    if restarts < 1 or max_iterations < 1:
        raise ValueError("restarts and max_iterations must be at least 1")
    rows, inverse, counts = data._distinct_rows
    binding = _Binding(model, data, prior or FamilyPrior(), rows, counts)

    if not binding.latent_names:
        value = binding.constant
        state = VariationalState(binding.full_q_theta({}), {}, (value,))
        report = ScoreReport(
            elbo=value,
            p_elbo=p_elbo(value, model.spec),
            iterations=1,
            converged=True,
            restarts_used=1,
        )
        return state, report

    # each restart draws its latents in canonical order from its own stream
    rngs = [np.random.default_rng(derive_seed(seed, "restart", r)) for r in range(restarts)]
    q_latent = {
        name: np.stack([
            _group_means(
                rng.dirichlet(np.ones(binding.latent_cards[name]), size=data.n_rows),
                inverse,
                counts,
            ).T
            for rng in rngs
        ])
        for name in binding.latent_names
    }
    q_theta = _m_step(binding, q_latent)
    bounds = _elbo(binding, q_theta, q_latent)
    traces = [[value] for value in bounds.tolist()]
    running = list(range(restarts))  # the restart at each batch position
    # restart -> (dynamic tables, responsibilities, converged)
    frozen: Dict[int, Tuple[dict, dict, bool]] = {}

    def freeze(positions, converged):
        for i in positions:
            frozen[running[i]] = (
                {node: table[i] for node, table in q_theta.items()},
                {name: q[i] for name, q in q_latent.items()},
                converged,
            )

    cut = False
    for iteration in range(max_iterations):
        if deadline is not None and time.monotonic() >= deadline:
            cut = True
            break
        q_latent = _e_step(binding, q_theta, q_latent)
        q_theta = _m_step(binding, q_latent)
        previous, bounds = bounds, _elbo(binding, q_theta, q_latent)
        for restart, value in zip(running, bounds.tolist()):
            traces[restart].append(value)
        # the first pass starts from the averaged draw, whose bound sits
        # above the draw's own, so its small gain does not mean converged
        if not iteration:
            continue
        done = np.abs(bounds - previous) < c
        if done.any():
            freeze(np.flatnonzero(done), True)
            keep = np.flatnonzero(~done)
            running = [running[i] for i in keep]
            if not running:
                break
            q_theta = {node: table[keep] for node, table in q_theta.items()}
            q_latent = {name: q[keep] for name, q in q_latent.items()}
            bounds = bounds[keep]
    freeze(range(len(running)), False)

    finals = [trace[-1] for trace in traces]
    winner = finals.index(max(finals))
    tables, responsibilities, converged = frozen[winner]
    state = VariationalState(
        binding.full_q_theta(tables),
        {name: q.T[inverse] for name, q in responsibilities.items()},
        tuple(traces[winner]),
    )
    value = state.elbo_trace[-1]
    report = ScoreReport(
        elbo=value,
        p_elbo=p_elbo(value, model.spec),
        iterations=len(state.elbo_trace),
        converged=converged and not cut,
        restarts_used=restarts,
    )
    return state, report
