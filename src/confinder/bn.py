"""Ground-truth Bayesian networks and forward sampling.

These are the generators for synthetic experiments: a discrete DAG model
with explicit CPTs, sampled in ancestral order. Parent configurations are
indexed mixed-radix over the sorted parent names with the rightmost name
varying fastest, matching the fitting machinery.
"""
from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, Mapping, Tuple

import numpy as np

from confinder.graphs import GraphKind, MixedGraph, require_valid
from confinder.vbem import Dataset

PROBABILITY_TOLERANCE = 1e-9


def parent_strides(parents: Tuple[str, ...], cards: Mapping[str, int]) -> Dict[str, int]:
    strides = {}
    running = 1
    for parent in reversed(parents):
        strides[parent] = running
        running *= cards[parent]
    return strides


def parent_configurations(
    parents: Tuple[str, ...], cards: Mapping[str, int]
) -> Iterator[Tuple[int, ...]]:
    """All parent value tuples in config-index order."""
    return itertools.product(*(range(cards[p]) for p in parents))


class BnModel:
    """Immutable discrete Bayesian network with full CPTs."""

    def __init__(
        self,
        dag: MixedGraph,
        cardinalities: Mapping[str, int],
        cpts: Mapping[str, np.ndarray],
    ):
        require_valid(dag, GraphKind.DAG, "model graph")
        cards = dict(cardinalities)
        missing = sorted(set(dag.nodes) - set(cards))
        if missing:
            raise ValueError(f"missing cardinalities for {', '.join(missing)}")
        extra = sorted(set(cards) - set(dag.nodes))
        if extra:
            raise ValueError(f"cardinalities for unknown nodes {', '.join(extra)}")
        for node, card in cards.items():
            if card < 2:
                raise ValueError(f"node {node} needs at least 2 states")
        tables = {}
        for node in dag.nodes:
            if node not in cpts:
                raise ValueError(f"missing CPT for {node}")
            parents = tuple(sorted(dag.parents(node)))
            j_count = 1
            for p in parents:
                j_count *= cards[p]
            table = np.asarray(cpts[node], dtype=np.float64)
            if table.shape != (j_count, cards[node]):
                raise ValueError(
                    f"CPT for {node} has shape {table.shape}, "
                    f"expected {(j_count, cards[node])}"
                )
            if (table < 0).any():
                raise ValueError(f"CPT for {node} has negative entries")
            sums = table.sum(axis=1)
            if not np.allclose(sums, 1.0, rtol=0.0, atol=PROBABILITY_TOLERANCE):
                raise ValueError(f"CPT rows for {node} must sum to 1")
            table = table.copy()
            table.setflags(write=False)
            tables[node] = table
        unknown = sorted(set(cpts) - set(dag.nodes))
        if unknown:
            raise ValueError(f"CPTs for unknown nodes {', '.join(unknown)}")
        self._dag = dag
        self._cards = cards
        self._cpts = tables

    @property
    def dag(self) -> MixedGraph:
        return self._dag

    @property
    def nodes(self) -> Tuple[str, ...]:
        return self._dag.nodes

    def cardinality(self, node: str) -> int:
        return self._cards[node]

    @property
    def cardinalities(self) -> Dict[str, int]:
        return dict(self._cards)

    def cpt(self, node: str) -> np.ndarray:
        return self._cpts[node]

    def parents(self, node: str) -> Tuple[str, ...]:
        return tuple(sorted(self._dag.parents(node)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BnModel):
            return NotImplemented
        return (
            self._dag == other._dag
            and self._cards == other._cards
            and all(np.array_equal(self._cpts[n], other._cpts[n]) for n in self.nodes)
        )

    def __repr__(self) -> str:
        return f"BnModel(nodes={self.nodes})"


def forward_sample(
    model: BnModel, n: int, seed: int, hide: Iterable[str] = ()
) -> Dataset:
    """Draw n rows in ancestral order and drop the hidden columns.

    Columns of the result follow the original header order convention:
    sorted observed names. Bit-for-bit reproducible for a given seed.
    """
    if n < 1:
        raise ValueError("sample size must be at least 1")
    hidden = frozenset(hide)
    unknown = sorted(hidden - set(model.nodes))
    if unknown:
        raise ValueError(f"cannot hide unknown nodes {', '.join(unknown)}")
    observed = tuple(name for name in model.nodes if name not in hidden)
    if not observed:
        raise ValueError("hiding every node leaves no data")
    rng = np.random.default_rng(seed)
    values: Dict[str, np.ndarray] = {}
    for node in model.dag.topological_order():
        parents = model.parents(node)
        strides = parent_strides(parents, model.cardinalities)
        j = np.zeros(n, dtype=np.int64)
        for parent in parents:
            j += strides[parent] * values[parent]
        cumulative = np.cumsum(model.cpt(node), axis=1)
        draws = rng.random(n)
        # a state is the count of cumulative bounds below its draw
        states = np.empty(n, dtype=np.int64)
        for config in np.unique(j):
            sel = j == config
            states[sel] = np.searchsorted(cumulative[config], draws[sel], side="left")
        values[node] = np.minimum(states, model.cardinality(node) - 1)
    variables = tuple((name, model.cardinality(name)) for name in observed)
    rows = np.column_stack([values[name] for name in observed])
    return Dataset(variables, rows)
