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
together as one batch. Responsibilities are laid out restarts x states x
rows (rows last, so a reduction over a latent's few states adds whole
contiguous rows). Every dynamic family's table lives in one flat pass
buffer, one row per restart: the tables grouped by shape, then every
table's row sums in the same order. A pass runs on that buffer:

- the M-step forms one joint of the responsibilities per distinct tuple of
  latent members (a single latent's is just weights x responsibilities),
  makes one weighted ``bincount`` over all restarts' cells of all tables,
  adds the prior, and appends the row sums with one reduction per shape;
- the bound takes one ``gammaln`` of that buffer;
- the next E-step starts from one ``digamma`` of the same buffer, so the
  row sums are computed once per pass. It gathers each latent's
  single-member families with one ``take``; families with several latent
  members sum out the others with ``np.einsum``.

Every sum keeps the order of a per-family computation: each table's row
and configuration sums reduce that table alone, tables add to the bound
in canonical order, and a latent's families add in ``touching`` order. A
fit thus has the same bits as per-family steps, which the test oracles
keep as the reference. A restart leaves the batch with its state frozen
as soon as its own stopping rule fires. The public step functions run the
same pass as a batch of one restart.

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

    __slots__ = ("node", "members", "shape", "cells", "prior", "static_posterior")

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
    """Model structure matched against a row table with one weight per row.

    The fit binds the dataset's distinct rows weighted by their counts; the
    public step functions bind every row with weight 1, because a caller's
    responsibilities may differ between identical rows.

    The binding also plans every pass (see the module docstring):
    ``layout`` places the dynamic tables in a buffer row; ``joints`` holds
    (members, span, family count) per member tuple, the span covering the
    tuple's families in the M-step's weight row; and ``sweeps`` holds each
    latent's E-step gathers in ``touching`` order: the cells of its
    single-member families, how many of them lead ``touching``, and the
    families after those.
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
        self.alpha = float(prior.alpha)
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
        self.layout = _Layout({f.node: f.prior.shape for f in self.dynamic})
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
        self._index = self._base
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

    def cell_index(self, restarts: int) -> np.ndarray:
        """The buffer cells of a batch of ``restarts`` weight rows laid end
        to end: restart r's cells are offset by r table regions. A smaller
        batch reads a prefix of the largest one built."""
        if len(self._index) < restarts * len(self._base):
            shift = self.layout.table_size * np.arange(restarts)
            self._index = (shift[:, None] + self._base).ravel()
        return self._index[: restarts * len(self._base)]

    @functools.cached_property
    def constant(self) -> float:
        """The bound's terms that no responsibility moves: every prior's
        log-Beta and the posterior log-Beta of latent-free families."""
        static = [f.static_posterior for f in self.families.values()
                  if f.static_posterior is not None]
        tables = dict(enumerate(static + [f.prior for f in self.families.values()]))
        layout = _Layout({key: table.shape for key, table in tables.items()})
        log_betas = layout.log_betas(layout.fill(tables))
        terms = [float(log_betas[key][0]) for key in tables]
        return sum(terms[:len(static)]) - sum(terms[len(static):])

    # -- one pass over a batch: restarts x buffer cells ------------------------

    def tables(self, row: np.ndarray) -> Dict[str, np.ndarray]:
        """The dynamic tables of one restart's buffer row."""
        return {node: row[span].reshape(self.families[node].prior.shape)
                for node, span in self.layout.spans.items()}

    def m_step(self, q_latent) -> np.ndarray:
        """Prior plus expected counts for every dynamic table, as a pass
        buffer: one joint per member tuple, one weighted ``bincount`` over
        all restarts' cells, and the row sums."""
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
        counts = np.bincount(self.cell_index(restarts), weights=weights.ravel(),
                             minlength=restarts * size)
        buffer = np.empty((restarts, self.layout.size))
        np.add(counts.reshape(restarts, size), self.alpha, out=buffer[:, :size])
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

    def fixed_point(self, q_batch) -> Dict[str, np.ndarray]:
        """Every family's VB-M table for responsibilities given as a batch
        of one."""
        if not self.latent_names:
            return self.full_q_theta({})
        return self.full_q_theta(self.tables(self.m_step(q_batch)[0]))


def _bind_every_row(model: LatentizedDag, data: Dataset,
                    prior: Optional[FamilyPrior] = None) -> _Binding:
    return _Binding(model, data, prior or FamilyPrior(), data.rows, np.ones(data.n_rows))


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
    """Posterior Dirichlet parameters: prior plus expected counts."""
    binding = _bind_every_row(model, data, prior)
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
    built on top.
    """
    binding = _bind_every_row(model, data, prior)
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
    for iteration in range(max_iterations):
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
    state = VariationalState(
        binding.full_q_theta(binding.tables(row)),
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
