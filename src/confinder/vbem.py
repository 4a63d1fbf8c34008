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

The searched objective adds a label-symmetry penalty:
p-ELBO = ELBO - sum_i log(|L_i|!), cancelling the |L_i|! equivalent
relabelings of each latent's states.

All scores are in nats and accumulated in canonical node order so repeated
runs are bit-identical.
"""
from __future__ import annotations

import functools
import itertools
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

    Parent configurations are flattened by mixed radix over the sorted
    parent tuple; per-row contributions from observed parents are
    precomputed as flat (configuration, state) cells, and each latent
    parent configuration adds a fixed offset to them. The prior table and,
    for latent-free families, the posterior table are constants of the
    binding.
    """

    __slots__ = (
        "node", "node_card", "latent_parents", "latent_strides",
        "cells", "configs", "skip_configs", "prior", "static_posterior",
    )

    def __init__(self, node, node_card, parents, cards, columns, weights,
                 latent_names, prior: FamilyPrior):
        self.node = node
        self.node_card = node_card
        strides = parent_strides(parents, cards)
        self.latent_parents = tuple(p for p in parents if p in latent_names)
        self.latent_strides = {p: strides[p] for p in self.latent_parents}
        obs_index = np.zeros(len(weights), dtype=np.int64)
        for parent in parents:
            if parent not in latent_names:
                obs_index += strides[parent] * columns[parent]
        # flat index into the (parent configuration x state) table; None for
        # a latent node, whose family is its root prior
        self.cells = (
            None if node in latent_names
            else obs_index * node_card + columns[node]
        )
        self.configs = self._configurations(cards)
        self.skip_configs = {
            l: self._configurations(cards, skip=l) for l in self.latent_parents
        }
        self.prior = prior.for_family(
            (math.prod(cards[p] for p in parents), node_card)
        )
        if self.cells is not None and not self.latent_parents:
            counts = np.bincount(self.cells, weights=weights, minlength=self.prior.size)
            self.static_posterior = self.prior + counts.reshape(self.prior.shape)
        else:
            self.static_posterior = None

    def _configurations(self, cards, skip=None):
        """(names, states, flat cell offset) per latent-parent configuration."""
        names = tuple(p for p in self.latent_parents if p != skip)
        return tuple(
            (
                names,
                combo,
                self.node_card * sum(
                    self.latent_strides[p] * s for p, s in zip(names, combo)
                ),
            )
            for combo in itertools.product(*(range(cards[p]) for p in names))
        )


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
        self.ones = np.ones(self.n_rows)
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
                node, cards[node], model.dag.parents(node), cards, columns,
                weights, latent_set, prior,
            )
        # families whose tables depend on the responsibilities
        self.dynamic = tuple(
            f for f in self.families.values() if f.static_posterior is None
        )
        # families in which each latent participates as a parent, with the
        # cells of every state of that latent
        self.touching = {
            l: tuple(
                (
                    f,
                    f.cells[:, None]
                    + f.node_card * f.latent_strides[l] * np.arange(cards[l]),
                )
                for f in self.families.values()
                if l in f.latent_parents
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


def _bind_every_row(model: LatentizedDag, data: Dataset,
                    prior: Optional[FamilyPrior] = None) -> _Binding:
    return _Binding(model, data, prior or FamilyPrior(), data.rows, np.ones(data.n_rows))


def _expected_log_theta(table: np.ndarray) -> np.ndarray:
    # degenerate tables produce non-finite values here; the E-step detects
    # and reports them, so the intermediate warning is noise
    with np.errstate(invalid="ignore"):
        return digamma(table) - digamma(table.sum(axis=1, keepdims=True))


def _config_weights(q_latent, names, combo, w: np.ndarray) -> np.ndarray:
    for name, state in zip(names, combo):
        w = w * q_latent[name][:, state]
    return w


def _e_step(binding: _Binding, q_theta, q_latent) -> Dict[str, np.ndarray]:
    """One sequential mean-field sweep over latents in canonical order."""
    elog = {f.node: _expected_log_theta(q_theta[f.node]).ravel() for f in binding.dynamic}
    updated = dict(q_latent)
    for latent in binding.latent_names:
        log_q = np.tile(elog[latent], (binding.n_rows, 1))
        for family, cells in binding.touching[latent]:
            table = elog[family.node]
            for names, combo, offset in family.skip_configs[latent]:
                w = _config_weights(updated, names, combo, binding.ones)
                log_q += w[:, None] * table[cells + offset]
        if not np.all(np.isfinite(log_q)):
            raise InconsistentStateError(
                f"non-finite responsibilities for {latent!r}; q_theta is degenerate"
            )
        q = np.exp(log_q - log_q.max(axis=1, keepdims=True))
        q /= q.sum(axis=1, keepdims=True)
        updated[latent] = q
    return updated


def _m_step(binding: _Binding, q_latent) -> Dict[str, np.ndarray]:
    q_theta = {}
    for node, family in binding.families.items():
        if family.static_posterior is not None:
            q_theta[node] = family.static_posterior.copy()
            continue
        table = family.prior.copy()
        if family.cells is None:
            table[0] += np.einsum("m,mk->k", binding.weights, q_latent[node])
        else:
            flat = table.reshape(-1)
            for names, combo, offset in family.configs:
                w = _config_weights(q_latent, names, combo, binding.weights)
                flat += np.bincount(family.cells + offset, weights=w, minlength=flat.size)
        q_theta[node] = table
    return q_theta


def _log_beta(table: np.ndarray) -> np.ndarray:
    return gammaln(table).sum(axis=1) - gammaln(table.sum(axis=1))


def _entropy(weights: np.ndarray, q: np.ndarray) -> float:
    # einsum rather than a BLAS product: BLAS threads would only spin here
    return float(-np.einsum("m,mk->", weights, xlogy(q, q)))


def _check_fixed_point(binding, q_theta, q_latent) -> None:
    recomputed = _m_step(binding, q_latent)
    for node, table in recomputed.items():
        if not np.allclose(q_theta[node], table, rtol=1e-9, atol=1e-8):
            raise InconsistentStateError(
                f"q_theta[{node!r}] is not the VB-M update of q_latent; "
                f"the closed-form bound would be wrong"
            )


def _elbo(binding: _Binding, q_theta, q_latent) -> float:
    """The bound at the VB-M fixed point; latent-free families are constant."""
    total = binding.constant
    for family in binding.dynamic:
        total += float(np.sum(_log_beta(q_theta[family.node])))
    for latent in binding.latent_names:
        total += _entropy(binding.weights, q_latent[latent])
    return total


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
    return _e_step(binding, q_theta, q_latent)


def vb_m_step(
    model: LatentizedDag,
    data: Dataset,
    q_latent: Mapping[str, np.ndarray],
    prior: Optional[FamilyPrior] = None,
) -> Dict[str, np.ndarray]:
    """Posterior Dirichlet parameters: prior plus expected counts."""
    binding = _bind_every_row(model, data, prior)
    binding.check_q_latent(q_latent)
    return _m_step(binding, q_latent)


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
    _check_fixed_point(binding, state.q_theta, state.q_latent)
    return _elbo(binding, state.q_theta, state.q_latent)


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
    averages them within each group of identical rows, then alternates E
    and M steps over the distinct rows until a pass after the first
    improves the bound by less than ``c`` or ``max_iterations`` passes
    elapse. The best final bound wins; ties go to the earliest restart, so
    results are reproducible bit for bit.

    ``deadline`` is a ``time.monotonic()`` instant. Once it has passed, the
    running restart stops before its next pass and no further restart
    starts; the best restart so far is returned, reported as not converged.
    """
    if not (c > 0):
        raise ValueError("convergence threshold must be positive")
    if restarts < 1 or max_iterations < 1:
        raise ValueError("restarts and max_iterations must be at least 1")
    rows, inverse, counts = data._distinct_rows
    binding = _Binding(model, data, prior or FamilyPrior(), rows, counts)

    if not binding.latent_names:
        q_theta = _m_step(binding, {})
        value = _elbo(binding, q_theta, {})
        state = VariationalState(q_theta, {}, (value,))
        report = ScoreReport(
            elbo=value,
            p_elbo=p_elbo(value, model.spec),
            iterations=1,
            converged=True,
            restarts_used=1,
        )
        return state, report

    def out_of_time() -> bool:
        return deadline is not None and time.monotonic() >= deadline

    best: Optional[Tuple[VariationalState, bool]] = None
    cut = False
    started = 0
    for restart in range(restarts):
        if restart and out_of_time():
            cut = True
            break
        started += 1
        rng = np.random.default_rng(derive_seed(seed, "restart", restart))
        q_latent = {
            name: _group_means(
                rng.dirichlet(np.ones(binding.latent_cards[name]), size=data.n_rows),
                inverse,
                counts,
            )
            for name in binding.latent_names
        }
        q_theta = _m_step(binding, q_latent)
        trace = [_elbo(binding, q_theta, q_latent)]
        converged = False
        for iteration in range(max_iterations):
            if out_of_time():
                cut = True
                break
            q_latent = _e_step(binding, q_theta, q_latent)
            q_theta = _m_step(binding, q_latent)
            trace.append(_elbo(binding, q_theta, q_latent))
            # the first pass starts from the averaged draw, whose bound sits
            # above the draw's own, so its small gain does not mean converged
            if iteration and abs(trace[-1] - trace[-2]) < c:
                converged = True
                break
        if best is None or trace[-1] > best[0].elbo_trace[-1]:
            best = (VariationalState(q_theta, q_latent, tuple(trace)), converged)
        if cut:
            break

    fitted, converged = best
    state = VariationalState(
        fitted.q_theta,
        {name: q[inverse] for name, q in fitted.q_latent.items()},
        fitted.elbo_trace,
    )
    value = state.elbo_trace[-1]
    report = ScoreReport(
        elbo=value,
        p_elbo=p_elbo(value, model.spec),
        iterations=len(state.elbo_trace),
        converged=converged and not cut,
        restarts_used=started,
    )
    return state, report
