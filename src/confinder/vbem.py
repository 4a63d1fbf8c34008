"""Variational Bayesian EM for discrete Bayesian networks with latents.

Families (a node given its parents) carry Dirichlet priors; the surrogate
posterior factorises into per-family Dirichlets q_theta and per-row,
per-latent categorical responsibilities q_latent (mean field). The VB-E
step updates responsibilities from expected log parameters, the VB-M step
updates Dirichlet parameters from expected counts, and the bound is
evaluated in its closed form at the VB-M fixed point.

A fit's prior and its iteration cap are constants of this module, not
knobs: every entry of every family's table has the Dirichlet prior
``ALPHA`` (1, the unit prior), and a restart stops after at most
``ITERATION_CAP`` passes.

Given the parameters the bound splits into one term per row, so identical
rows share one responsibility vector at the optimum. A fit therefore runs
over distinct rows m, each weighted by its count w_m:

    ELBO = sum_m w_m H(q_latent row m)
         + sum_i sum_j [ logB(posterior alpha_ij.) - logB(prior alpha_ij.) ]

where the posterior adds the count-weighted expected counts to the prior.
For latent-free models this is exactly the conjugate log marginal
likelihood. The fitted ``q_latent`` is returned per observation (one row
per data row), and the public step functions bind every row with weight 1.

``run_vbem`` splits a model before fitting it. A *component* is a set of
latents joined by shared families (a node with two latent parents joins
them), together with every family they touch. The split is exact: the
mean-field bound factorises over latents (Beal & Ghahramani 2006,
*Bayesian Analysis* 1(4)), a latent's E-step reads only the families of
its component, and a family's M-step only the responsibilities of its
latent members. So the ELBO is

    ELBO = sum over latent-free families of their closed-form scores
         + sum over components of each component's own bound,

and each component can be fitted on its own, over the distinct rows of
only the columns its families read, which are far fewer than the distinct
rows of the whole table. The latent-free scores decompose by family and
are cached by (node, parents) (Heckerman, Geiger & Chickering 1995,
*Machine Learning* 20). A component is described without its latents'
names, by (children, states) per latent and (node, parents) per family,
and that key seeds its restarts; with a ``FitMemo`` shared across calls,
as in a search, a component met again is a lookup. The p-ELBO penalty is
unchanged.

Every family of a fit, latent or not, goes through one table of cells:
one row per joint configuration of the family's latents and one column
per bound row, each entry the (parent configuration, state) cell the row
lands in. The VB-M step adds each row's weight times the joint
responsibility of every configuration to its cell; the VB-E step gathers
the expected log parameters of those cells and sums out the other
latents' responsibilities.

A fit keeps the best of several seeded restarts, and all of them advance
together as one batch. Responsibilities are laid out restarts x states x
rows (rows last, so a reduction over a latent's few states adds whole
contiguous rows). Every dynamic family's table lives in one flat pass
buffer, one row per restart: the tables grouped by shape, then every
table's row sums in the same order. A pass runs on that buffer:

- the M-step forms one joint of the responsibilities per distinct tuple of
  latent members (a single latent's is just weights x responsibilities),
  makes one weighted ``bincount`` per restart over the cells of all
  tables, adds ``ALPHA``, and appends the row sums with one reduction per
  shape;
- the bound takes one ``gammaln`` of that buffer;
- the next E-step starts from one ``digamma`` of the same buffer, so the
  row sums are computed once per pass. It gathers each latent's
  single-member families with one ``take``; families with several latent
  members sum out the others with ``np.einsum``.

Every sum keeps the order of a per-family computation: each table's row
and configuration sums reduce that table alone, tables add to the bound
in the binding's family order, and a latent's families add in
``touching`` order. A batch thus has the same bits as per-family steps,
which the test oracles keep as the reference, along with the whole-model
fit. A restart leaves the batch with its state frozen as soon as its own
stopping rule fires. The public step functions run the same pass as a
batch of one restart on the whole model.

The searched objective adds a label-symmetry penalty:
p-ELBO = ELBO - sum_i log(|L_i|!), cancelling the |L_i|! equivalent
relabelings of each latent's states.

All scores are in nats and accumulated in a canonical order so repeated
runs are bit-identical.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.special import digamma, gammaln, xlogy

from confinder.errors import DataBindingError, InconsistentStateError
from confinder.graphs import connected_pieces
from confinder.latentize import Latent, LatentSpec, LatentizedDag
from confinder.seeds import derive_seed

DEFAULT_CONVERGENCE = 0.01
DEFAULT_RESTARTS = 5
ALPHA = 1.0
ITERATION_CAP = 500

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.variables == other.variables and np.array_equal(self._rows, other._rows)

    def __repr__(self) -> str:
        return f"Dataset({len(self.variables)} variables, {self.n_rows} rows)"


@dataclass(frozen=True, eq=False)
class FamilyPrior:
    """The unit prior: ``ALPHA`` on every entry of every family's
    (parent configuration x state) table.

    Only the public ``vb_m_step`` and ``elbo`` take one, as a ``prior``
    argument that can carry nothing else, because the benchmark child
    (``perfbench/child.py``) still passes them ``SearchConfig.prior()``;
    the class goes with those public steps.
    """


@dataclass(eq=False)
class VariationalState:
    """Surrogate posterior: per-family Dirichlets plus responsibilities.

    From ``run_vbem``, ``q_theta`` holds every family's table and
    ``q_latent`` every latent's responsibilities per observation.
    ``elbo_trace`` is the latent-free families' score plus, entry by entry,
    the sum of the components' traces, each padded with its last value
    once its fit has stopped, so it never decreases.
    """

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

    ``elbo`` is the last entry of the state's ``elbo_trace``, and ``p_elbo``
    subtracts the label-permutation penalty from it.

    - ``iterations`` is the length of ``elbo_trace``: bound evaluations,
      the initial one after setting up the parameter posterior plus one per
      E/M pass, counted for the component whose winning restart ran the
      most passes. A latent-free model has 1.
    - ``converged`` holds iff every component's winning restart stopped by
      the convergence threshold, and the deadline cut no component short. A
      latent-free model has converged.
    - ``restarts_used`` is the number of restarts each component ran, all
      of them in one batch; a latent-free model has 1.
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

    ``members`` are the family's latents in the binding's latent order: its
    latent parents, plus the node itself when it is latent. ``cells``
    holds, for every joint configuration of the members (mixed radix, last
    member varying fastest) and every row, the flat index into the (parent
    configuration x state) table, of shape ``table_shape``, that the row
    lands in. A latent root thus has the rows 0..k-1 and a latent-free
    family a single row; its posterior table, the counts plus ``ALPHA``,
    is a constant of the binding.
    """

    __slots__ = ("node", "members", "shape", "table_shape", "cells", "static_posterior")

    def __init__(self, node, parents, cards, columns, weights, rank):
        self.node = node
        card = cards[node]
        # each variable's weight in the flat (configuration, state) index
        place = {p: stride * card for p, stride in parent_strides(parents, cards).items()}
        place[node] = 1
        self.members = tuple(sorted((n for n in place if n in rank), key=rank.__getitem__))
        self.shape = tuple(cards[m] for m in self.members)
        observed = np.zeros(len(weights), dtype=np.int64)
        for name, weight in place.items():
            if name not in rank:
                observed += weight * columns[name]
        offsets = np.zeros(1, dtype=np.int64)
        for member in self.members:
            offsets = (offsets[:, None] + place[member] * np.arange(cards[member])).ravel()
        self.cells = offsets[:, None] + observed
        self.table_shape = (math.prod(cards[p] for p in parents), card)
        self.static_posterior = None
        if not self.members:
            counts = np.bincount(self.cells[0], weights=weights,
                                 minlength=math.prod(self.table_shape))
            self.static_posterior = counts.reshape(self.table_shape) + ALPHA


def _member_operands(members, q_latent, skip=None) -> list:
    """``np.einsum`` operands that put each member's responsibilities (but
    ``skip``'s) on the member's axis of restart x configuration x row
    cells."""
    rows = len(members) + 1
    operands = []
    for axis, member in enumerate(members, 1):
        if member != skip:
            operands += [q_latent[member], [0, axis, rows]]
    return operands


class _Layout:
    """Tables laid end to end in one flat row, grouped by shape, followed by
    every table's row sums in the same order.

    A batch stacks one such row per restart, so a single ``gammaln`` or
    ``digamma`` call covers every table and row sum of every restart, and
    one reduction per shape group gives what the bound needs. ``spans``
    places each table in the row; ``groups`` holds, per shape, the slice of
    its tables, the slice of their row sums and their batch shape;
    ``row_of_cell`` gives each table cell's row-sum column.
    """

    def __init__(self, shapes: Mapping[object, Tuple[int, int]]):
        by_shape: Dict[Tuple[int, int], list] = {}
        for key, shape in shapes.items():
            by_shape.setdefault(shape, []).append(key)
        self.table_size = sum(configs * states for configs, states in shapes.values())
        self.spans, self.groups, self._place = {}, [], {}
        table, row_sums = 0, self.table_size
        for (configs, states), keys in by_shape.items():
            for position, key in enumerate(keys):
                self.spans[key] = slice(table, table + configs * states)
                self._place[key] = (len(self.groups), position)
                table += configs * states
            rows = len(keys) * configs
            self.groups.append((
                slice(table - rows * states, table),
                slice(row_sums, row_sums + rows),
                (-1, len(keys), configs, states),
            ))
            row_sums += rows
        self.size = row_sums

    @functools.cached_property
    def row_of_cell(self) -> np.ndarray:
        """Each table cell's row-sum column."""
        return np.repeat(np.arange(self.table_size, self.size),
                         [shape[-1] for _tables, sums, shape in self.groups
                          for _row in range(sums.start, sums.stop)])

    def add_row_sums(self, buffer: np.ndarray) -> np.ndarray:
        for tables, sums, shape in self.groups:
            np.add.reduce(buffer[:, tables].reshape(shape), axis=-1,
                          out=buffer[:, sums].reshape(shape[:-1]))
        return buffer

    def fill(self, tables: Mapping[object, np.ndarray]) -> np.ndarray:
        """The buffer of a batch of one holding ``tables``."""
        buffer = np.empty((1, self.size))
        for key, span in self.spans.items():
            buffer[0, span] = tables[key].ravel()
        return self.add_row_sums(buffer)

    def log_betas(self, buffer: np.ndarray) -> Dict[object, np.ndarray]:
        """Each table's log-Beta, summed over its configurations, for every
        restart: one ``gammaln`` call over the buffer."""
        values = gammaln(buffer)
        per_group = []
        for tables, sums, shape in self.groups:
            terms = np.add.reduce(values[:, tables].reshape(shape), axis=-1)
            terms -= values[:, sums].reshape(shape[:-1])
            per_group.append(np.add.reduce(terms, axis=-1))
        return {key: per_group[group][:, position]
                for key, (group, position) in self._place.items()}


class _Binding:
    """Families matched against a row table with one weight per row.

    ``families`` are (node, parents) pairs in the order the bound adds
    them, ``latents`` the latent keys in sweep order; a family's latent
    members follow that order. A component's fit binds the distinct rows
    of its columns weighted by their counts, with latents keyed by their
    position (see ``_Component``); the public step functions bind the
    whole model to every row with weight 1, because a caller's
    responsibilities may differ between identical rows.

    The binding also plans every pass (see the module docstring):
    ``layout`` places the dynamic tables in a buffer row; ``joints`` holds
    (members, span, family count) per member tuple, the span covering the
    tuple's families in the M-step's weight row; ``_base`` holds the buffer
    cell of every entry of that row, so the M-step runs one ``bincount``
    per restart over it; and ``sweeps`` holds each latent's E-step gathers
    in ``touching`` order: the cells of its single-member families, how
    many of them lead ``touching``, and the families after those.
    """

    def __init__(self, families, latents, cards, columns, weights: np.ndarray):
        self.n_rows = len(weights)
        self.weights = weights
        self.latent_names = tuple(latents)
        self.latent_cards = {l: cards[l] for l in self.latent_names}
        rank = {l: i for i, l in enumerate(self.latent_names)}
        self.families = {
            node: _Family(node, parents, cards, columns, weights, rank)
            for node, parents in families
        }
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
        self.layout = _Layout({f.node: f.table_shape for f in self.dynamic})
        self._lay_out_m_and_e_steps()

    def _lay_out_m_and_e_steps(self) -> None:
        # each latent's single-member families in touching order (a latent
        # has no parents, so its own family comes first), then the families
        # of every larger member tuple in canonical order
        tuples = {
            (l,): [f for f in self.touching[l] if f.members == (l,)]
            for l in self.latent_names
        }
        for f in self.dynamic:
            if len(f.members) > 1:
                tuples.setdefault(f.members, []).append(f)
        cells, base = {}, []
        start = 0
        for families in tuples.values():
            for f in families:
                cells[f.node] = slice(start, start + f.cells.size)
                base.append((self.layout.spans[f.node].start + f.cells).ravel())
                start += f.cells.size
        self._base = np.concatenate(base) if base else np.zeros(0, dtype=np.int64)
        self.joints = [
            (members, slice(cells[fs[0].node].start, cells[fs[-1].node].stop), len(fs))
            for members, fs in tuples.items()
        ]
        self.sweeps = {}
        for l in self.latent_names:
            singles = tuples[(l,)]
            lead = next((i for i, f in enumerate(self.touching[l]) if f.members != (l,)),
                        len(self.touching[l]))
            rest = tuple(
                (singles.index(f), None, None) if f.members == (l,)
                else (None, f, self._base[cells[f.node]].reshape(f.cells.shape))
                for f in self.touching[l][lead:]
            )
            span = slice(cells[singles[0].node].start, cells[singles[-1].node].stop)
            self.sweeps[l] = (self._base[span].reshape(len(singles), -1, self.n_rows),
                              lead, rest)

    @functools.cached_property
    def constant(self) -> float:
        """The bound's terms that no responsibility moves: the posterior
        log-Beta of latent-free families less every prior's log-Beta, one
        table at a time."""
        families = self.families.values()
        return sum(
            _log_beta(f.static_posterior) for f in families if f.static_posterior is not None
        ) - sum(_log_beta(np.full(f.table_shape, ALPHA)) for f in families)

    # -- one pass over a batch: restarts x buffer cells ------------------------

    def tables(self, row: np.ndarray) -> Dict[str, np.ndarray]:
        """The dynamic tables of one restart's buffer row."""
        return {node: row[span].reshape(self.families[node].table_shape)
                for node, span in self.layout.spans.items()}

    def m_step(self, q_latent) -> np.ndarray:
        """``ALPHA`` plus expected counts for every dynamic table, as a pass
        buffer: one joint per member tuple, one weighted ``bincount`` of
        each restart's weight row over the cells, and the row sums."""
        restarts = len(q_latent[self.latent_names[0]])
        weights = np.empty((restarts, len(self._base)))
        for members, span, count in self.joints:
            slot = weights[:, span].reshape(restarts, count, -1, self.n_rows)
            if len(members) == 1:
                np.multiply(q_latent[members[0]][:, None], self.weights, out=slot)
            else:
                rows = len(members) + 1
                joint = np.einsum(
                    self.weights, [rows], *_member_operands(members, q_latent),
                    list(range(rows + 1)),
                )
                slot[...] = joint.reshape(restarts, 1, -1, self.n_rows)
        size = self.layout.table_size
        buffer = np.empty((restarts, self.layout.size))
        for row, restart_weights in zip(buffer, weights):
            row[:size] = np.bincount(self._base, weights=restart_weights, minlength=size)
        buffer[:, :size] += ALPHA
        return self.layout.add_row_sums(buffer)

    def bound(self, buffer: np.ndarray, q_latent) -> np.ndarray:
        """Every restart's bound at the VB-M fixed point; dynamic tables
        add in canonical order."""
        log_betas = self.layout.log_betas(buffer)
        total = self.constant
        for f in self.dynamic:
            total = total + log_betas[f.node]
        for latent in self.latent_names:
            # rows outer, states inner: the summation order of a rows x states
            # table, so the bound's bits do not depend on the batch layout
            q = q_latent[latent].transpose(0, 2, 1)
            total = total - np.einsum("m,rmk->r", self.weights, xlogy(q, q, order="C"))
        return total

    def e_step(self, buffer: np.ndarray, q_latent) -> Dict[str, np.ndarray]:
        """One sequential mean-field sweep over latents in canonical order,
        from one ``digamma`` of the pass buffer."""
        values = digamma(buffer)
        elog = values[:, :self.layout.table_size] - values.take(self.layout.row_of_cell, axis=1)
        updated = dict(q_latent)
        for latent in self.latent_names:
            q = self._log_q(elog, latent, updated)
            if not np.isfinite(q).all():
                raise InconsistentStateError(
                    f"non-finite responsibilities for {latent!r}; q_theta is degenerate"
                )
            q -= np.maximum.reduce(q, axis=1, keepdims=True)
            np.exp(q, out=q)
            q /= np.add.reduce(q, axis=1, keepdims=True)
            updated[latent] = q
        return updated

    def _log_q(self, elog: np.ndarray, latent: str, q_latent) -> np.ndarray:
        """``latent``'s unnormalised log responsibilities: its families'
        expected log parameters added in ``touching`` order, the other
        members of a family summed out."""
        singles, lead, rest = self.sweeps[latent]
        gathered = elog.take(singles, axis=1)
        log_q = np.add.reduce(gathered[:, :lead], axis=1)
        for single, family, cells in rest:
            if family is None:
                log_q = log_q + gathered[:, single]
                continue
            axes = list(range(len(family.members) + 2))
            log_q = log_q + np.einsum(
                elog.take(cells, axis=1).reshape(len(elog), *family.shape, self.n_rows),
                axes, *_member_operands(family.members, q_latent, skip=latent),
                [0, 1 + family.members.index(latent), axes[-1]],
            )
        return log_q

    # -- caller-facing checks and tables -----------------------------------------

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
            if table.shape != family.table_shape:
                raise DataBindingError(
                    f"q_theta[{node!r}] has shape {table.shape}, expected "
                    f"{family.table_shape}"
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

    def fixed_point(self, q_batch) -> Dict[str, np.ndarray]:
        """Every family's VB-M table for responsibilities given as a batch
        of one."""
        if not self.latent_names:
            return self.full_q_theta({})
        return self.full_q_theta(self.tables(self.m_step(q_batch)[0]))


def _check_columns(model: LatentizedDag, data: Dataset) -> None:
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


def _bind_model(model: LatentizedDag, data: Dataset, rows: np.ndarray,
                weights: np.ndarray) -> _Binding:
    """The whole model bound to ``rows``, a table in the dataset's column
    order: families in node-name order, latents swept in name order."""
    _check_columns(model, data)
    cards = dict(data.variables)
    cards.update((l.name, l.states) for l in model.spec.latents)
    columns = {name: rows[:, i] for i, name in enumerate(data.names)}
    families = [(node, model.dag.parents(node)) for node in sorted(model.dag.nodes)]
    return _Binding(families, sorted(model.spec.names), cards, columns, weights)


def _bind_every_row(model: LatentizedDag, data: Dataset) -> _Binding:
    return _bind_model(model, data, data.rows, np.ones(data.n_rows))


def _check_fixed_point(binding, q_theta, q_batch) -> None:
    """``q_theta`` is a caller's tables, ``q_batch`` its responsibilities
    as a batch of one."""
    for node, table in binding.fixed_point(q_batch).items():
        if not np.allclose(q_theta[node], table, rtol=1e-9, atol=1e-8):
            raise InconsistentStateError(
                f"q_theta[{node!r}] is not the VB-M update of q_latent; "
                f"the closed-form bound would be wrong"
            )


def _rows_last(binding: _Binding, q_latent) -> Dict[str, np.ndarray]:
    """A caller's rows x states responsibilities as a batch of one."""
    return {name: q_latent[name].T[None] for name in binding.latent_names}


def _log_beta(table: np.ndarray) -> float:
    """The log-Beta of every row of a Dirichlet table, summed."""
    return float(np.sum(gammaln(table).sum(axis=-1) - gammaln(table.sum(axis=-1))))


# -- one batch of restarts -----------------------------------------------------

def _group_means(draws: np.ndarray, inverse: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Average the rows of ``draws`` within each group of identical data rows."""
    sums = np.stack(
        [np.bincount(inverse, weights=col, minlength=len(counts)) for col in draws.T],
        axis=1,
    )
    return sums / counts[:, None]


def _draw(binding: _Binding, inverse: np.ndarray, counts: np.ndarray, seed: int,
          restarts: int) -> Dict[object, np.ndarray]:
    """Every restart's initial responsibilities over the bound rows.

    Restart r draws, from its own stream, a flat Dirichlet vector per
    observation for each latent in sweep order, and each bound row takes
    the mean over the observations it stands for (``inverse``).
    """
    rngs = [np.random.default_rng(derive_seed(seed, "restart", r)) for r in range(restarts)]
    return {
        name: np.stack([
            _group_means(
                rng.dirichlet(np.ones(binding.latent_cards[name]), size=len(inverse)),
                inverse,
                counts,
            ).T
            for rng in rngs
        ])
        for name in binding.latent_names
    }


@dataclass(frozen=True, eq=False)
class _Fitted:
    """The winning restart of a batch: every dynamic table, each latent's
    states x bound-rows responsibilities, the bound trace, and whether it
    converged (never when the deadline cut the batch)."""

    tables: Dict[object, np.ndarray]
    q_latent: Dict[object, np.ndarray]
    trace: Tuple[float, ...]
    converged: bool
    cut: bool


def _run_batch(binding: _Binding, q_latent, c: float,
               deadline: Optional[float]) -> _Fitted:
    """Advance every restart as one batch and keep the best.

    A restart leaves the batch, its state frozen, once a pass after the
    first improves its bound by less than ``c`` or after ``ITERATION_CAP``
    passes. The best final bound wins; ties go to the earliest restart.
    ``deadline`` is checked before every pass; once it has passed, every
    running restart stops.
    """
    restarts = len(q_latent[binding.latent_names[0]])
    buffer = binding.m_step(q_latent)
    bounds = binding.bound(buffer, q_latent)
    traces = [[value] for value in bounds.tolist()]
    running = list(range(restarts))  # the restart at each batch position
    # restart -> (pass buffer row, responsibilities, converged)
    frozen: Dict[int, Tuple[np.ndarray, dict, bool]] = {}

    def freeze(positions, converged):
        for i in positions:
            frozen[running[i]] = (
                buffer[i], {name: q[i] for name, q in q_latent.items()}, converged,
            )

    cut = False
    for iteration in range(ITERATION_CAP):
        if deadline is not None and time.monotonic() >= deadline:
            cut = True
            break
        q_latent = binding.e_step(buffer, q_latent)
        buffer = binding.m_step(q_latent)
        previous, bounds = bounds, binding.bound(buffer, q_latent)
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
            buffer = buffer[keep]
            q_latent = {name: q[keep] for name, q in q_latent.items()}
            bounds = bounds[keep]
    freeze(range(len(running)), False)

    finals = [trace[-1] for trace in traces]
    winner = finals.index(max(finals))
    row, responsibilities, converged = frozen[winner]
    # copies, so a kept fit does not hold on to the whole batch
    return _Fitted(binding.tables(row.copy()),
                   {name: q.copy() for name, q in responsibilities.items()},
                   tuple(traces[winner]), converged and not cut, cut)


# -- models split into components -----------------------------------------------

class _Component:
    """Latents joined by shared families, with every family they touch, in
    a form that does not depend on the latents' names.

    ``latents`` holds the model's names in canonical order, by children and
    then states; two latents that tie are interchangeable. Inside the
    component a latent is its position in that order. ``families`` holds
    (node, parents) for every observed node with a latent parent, by node
    name, with the observed parents by name and then the latent ones by
    position; each latent's own parentless family is implied. ``key`` is
    all the fit depends on besides the data: (children, states) per latent,
    and ``families``. ``columns`` are the observed nodes those families
    read, and ``reorder`` gives, for a family whose parents the model
    orders otherwise, the table's axes and their order in the model.
    """

    __slots__ = ("key", "latents", "families", "columns", "reorder")

    def __init__(self, model: LatentizedDag, latents: Sequence[Latent],
                 children: Sequence[str], cards: Mapping[str, int]):
        ordered = sorted(latents, key=lambda l: (l.children, l.states, l.name))
        self.latents = tuple(l.name for l in ordered)
        position = {name: i for i, name in enumerate(self.latents)}
        sizes = {**cards, **{i: l.states for i, l in enumerate(ordered)}}
        families, self.reorder = [], {}
        for node in sorted(children):
            in_model = tuple(position.get(p, p) for p in model.dag.parents(node))
            parents = tuple(p for p in in_model if isinstance(p, str)) + tuple(
                sorted(p for p in in_model if not isinstance(p, str))
            )
            families.append((node, parents))
            if parents != in_model:
                self.reorder[node] = (
                    tuple(sizes[p] for p in parents) + (cards[node],),
                    tuple(parents.index(p) for p in in_model) + (len(parents),),
                )
        self.families = tuple(families)
        self.key = (tuple((l.children, l.states) for l in ordered), self.families)
        self.columns = frozenset(
            p for node, parents in self.families for p in (node,) + parents
            if isinstance(p, str)
        )

    def bind(self, data: Dataset, names: Tuple[str, ...], rows: np.ndarray,
             counts: np.ndarray) -> _Binding:
        """The component over ``rows``, the distinct rows of the columns
        ``names``, each weighted by its count."""
        cards = {name: data.cardinality(name) for name in names}
        cards.update((i, states) for i, (_children, states) in enumerate(self.key[0]))
        positions = range(len(self.latents))
        families = [(i, ()) for i in positions] + list(self.families)
        columns = {name: rows[:, i] for i, name in enumerate(names)}
        return _Binding(families, positions, cards, columns, counts)

    def model_table(self, node, table: np.ndarray) -> np.ndarray:
        """A copy of a fitted table, laid out over the model's parent order."""
        reorder = self.reorder.get(node)
        if reorder is None:
            return table.copy()
        shape, axes = reorder
        return table.reshape(shape).transpose(axes).reshape(table.shape)


def _split(model: LatentizedDag, cards: Mapping[str, int]
           ) -> Tuple[Tuple[str, ...], Tuple[_Component, ...]]:
    """The model's latent-free family nodes, by name, and its components,
    by their latents. ``cards`` holds the observed cardinalities."""
    latents = {l.name: l for l in model.spec.latents}
    members = {
        node: [p for p in model.dag.parents(node) if p in latents]
        for node in model.dag.nodes if node not in latents
    }
    # every latent has a child, so the pair (first member, member) names it
    pieces = connected_pieces((ms[0], m) for ms in members.values() for m in ms)
    components = sorted(
        (_Component(model, [latents[name] for name in piece],
                    [node for node, ms in members.items() if ms and ms[0] in piece], cards)
         for piece in pieces),
        key=lambda component: component.key[0],
    )
    return tuple(node for node, ms in members.items() if not ms), tuple(components)


class FitMemo:
    """What the fits on one dataset share, so a repeated part is a lookup.

    ``run_vbem`` keeps here each component's fit by its key and the fit
    settings (``c``, ``restarts`` and ``seed``), each latent-free family's
    posterior table and score by (node, parents), and the distinct rows,
    with each observation's row and each row's count, of every set of
    columns it has bound. The prior and the iteration cap are the module's
    ``ALPHA`` and ``ITERATION_CAP``, so no key holds them. A fit that the
    deadline cut short is not kept.
    """

    def __init__(self, data: Dataset):
        self.data = data
        self.components: Dict[tuple, Tuple[_Fitted, np.ndarray]] = {}
        self.families: Dict[tuple, Tuple[np.ndarray, float]] = {}
        self.rows: Dict[Tuple[str, ...], tuple] = {}

    def distinct(self, columns) -> Tuple[Tuple[str, ...], np.ndarray, np.ndarray, np.ndarray]:
        """(names, rows, inverse, counts) over ``columns``, in data order."""
        every = self.data.names
        names = tuple(name for name in every if name in columns)
        found = self.rows.get(names)
        if found is None:
            table = self.data.rows[:, [every.index(name) for name in names]]
            rows, inverse, counts = np.unique(
                table, axis=0, return_inverse=True, return_counts=True
            )
            inverse, counts = inverse.reshape(-1), counts.astype(float)
            found = self.rows[names] = (names, rows, inverse, counts)
        return found

    def family(self, node: str, parents: Tuple[str, ...]) -> Tuple[np.ndarray, float]:
        """A latent-free family's posterior table and its closed-form score
        (Heckerman, Geiger & Chickering 1995): the constant of a binding
        that holds the family alone."""
        key = (node, parents)
        found = self.families.get(key)
        if found is None:
            names, rows, _inverse, counts = self.distinct(self.data.names)
            columns = {name: rows[:, i] for i, name in enumerate(names)}
            binding = _Binding([key], (), dict(self.data.variables), columns, counts)
            found = self.families[key] = (
                binding.families[node].static_posterior, binding.constant,
            )
        return found

    def component(self, component: _Component, c: float, restarts: int, seed: int,
                  deadline: Optional[float]) -> Tuple[_Fitted, np.ndarray]:
        """The component's fit and each observation's bound row. Restarts
        draw from a seed derived from the component's key."""
        key = (c, restarts, seed, component.key)
        found = self.components.get(key)
        if found is None:
            names, rows, inverse, counts = self.distinct(component.columns)
            binding = component.bind(self.data, names, rows, counts)
            draw = _draw(binding, inverse, counts,
                         derive_seed(seed, "component", component.key), restarts)
            found = (_run_batch(binding, draw, c, deadline), inverse)
            if not found[0].cut:
                self.components[key] = found
        return found


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
    # a caller's degenerate tables make digamma differences non-finite; the
    # sweep detects and reports them, so the intermediate warning is noise
    with np.errstate(invalid="ignore"):
        updated = binding.e_step(binding.layout.fill(q_theta), _rows_last(binding, q_latent))
    return {name: q[0].T for name, q in updated.items()}


def vb_m_step(
    model: LatentizedDag,
    data: Dataset,
    q_latent: Mapping[str, np.ndarray],
    prior: Optional[FamilyPrior] = None,
) -> Dict[str, np.ndarray]:
    """Posterior Dirichlet parameters: ``ALPHA`` plus expected counts.

    ``prior`` can only be the unit prior, ``FamilyPrior()``, which is
    ``ALPHA`` whether passed or not.
    """
    binding = _bind_every_row(model, data)
    binding.check_q_latent(q_latent)
    return binding.fixed_point(_rows_last(binding, q_latent))


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
    built on top. ``prior`` is as in ``vb_m_step``: only the unit prior.
    """
    binding = _bind_every_row(model, data)
    binding.check_q_theta(state.q_theta)
    binding.check_q_latent(state.q_latent)
    batch = _rows_last(binding, state.q_latent)
    _check_fixed_point(binding, state.q_theta, batch)
    if not binding.latent_names:
        return binding.constant
    return float(binding.bound(binding.layout.fill(state.q_theta), batch)[0])


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
    c: float = DEFAULT_CONVERGENCE,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    deadline: Optional[float] = None,
    memo: Optional[FitMemo] = None,
) -> Tuple[VariationalState, ScoreReport]:
    """Fit the surrogate posterior: latent-free families in closed form,
    each component by the best of seeded restarts, all under the unit
    prior ``ALPHA`` and with at most ``ITERATION_CAP`` passes a restart.

    A component's restarts draw from a seed derived from ``seed`` and the
    component's key, so a component fits the same in every model that
    holds it. Each restart draws its responsibilities per observation from
    a flat Dirichlet and averages them within each distinct row of the
    component's columns. All restarts then advance as one batch over those
    rows, and each follows the path it would follow alone (see
    ``_run_batch``); results are reproducible bit for bit.

    ``memo`` carries latent-free scores, component fits and distinct rows
    from earlier calls on the same dataset; without one, nothing is shared.

    ``deadline`` is a ``time.monotonic()`` instant, checked before every
    batched pass of every component. Once it has passed, each component
    left keeps the restart with the best current bound, and the model is
    reported as not converged.
    """
    if not (c > 0):
        raise ValueError("convergence threshold must be positive")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    _check_columns(model, data)
    if memo is None:
        memo = FitMemo(data)
    elif memo.data is not data:
        raise ValueError("the memo belongs to another dataset")

    free, components = _split(model, dict(data.variables))
    q_theta: Dict[str, np.ndarray] = {}
    constant = 0.0
    for node in free:
        table, score = memo.family(node, model.dag.parents(node))
        q_theta[node] = table.copy()
        constant += score
    q_latent: Dict[str, np.ndarray] = {}
    fits = [memo.component(component, c, restarts, seed, deadline) for component in components]
    trace = np.full(max([len(fit.trace) for fit, _inverse in fits], default=1), constant)
    for component, (fit, inverse) in zip(components, fits):
        for node, table in fit.tables.items():
            if isinstance(node, str):
                q_theta[node] = component.model_table(node, table)
            else:
                q_theta[component.latents[node]] = table.copy()
        for position, q in fit.q_latent.items():
            q_latent[component.latents[position]] = q.T[inverse]
        # a component that stopped early holds its final bound
        trace[:len(fit.trace)] += fit.trace
        trace[len(fit.trace):] += fit.trace[-1]
    state = VariationalState(
        {node: q_theta[node] for node in sorted(model.dag.nodes)},
        {name: q_latent[name] for name in sorted(q_latent)},
        tuple(trace.tolist()),
    )
    value = state.elbo_trace[-1]
    report = ScoreReport(
        elbo=value,
        p_elbo=p_elbo(value, model.spec),
        iterations=len(state.elbo_trace),
        converged=all(fit.converged for fit, _inverse in fits),
        restarts_used=restarts if components else 1,
    )
    return state, report
