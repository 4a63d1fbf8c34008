"""Enumeration and local moves over the MAGs represented by a PAG.

A PAG fixes the skeleton and the invariant (non-circle) marks; each circle
mark may resolve to a tail or an arrowhead. This module enumerates the valid
completions that stay in one Markov equivalence class, stratified by the
number of bi-directed edges, and generates single-mark neighbor moves for
hill-climbing, where equivalence is deliberately NOT checked.

Everything is generate-and-test over circle marks behind an explicit limit:
exact at desk scale, and failing loudly instead of exhausting memory beyond
it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from confinder.errors import ConstructionError, EnumerationLimitError
from confinder.graphs import (
    GraphKind,
    Edge,
    Mark,
    MixedGraph,
    has_inducing_path,
    is_collider,
    markov_equivalent,
    require_valid,
    unshielded_triples,
    validate,
)

ENUMERATION_LIMIT = 100000

# pag_of_mag walks 3^|E| orientations, each checked for validity and Markov
# equivalence; past this many edges the walk stops being a desk-scale tool
PAG_RECOVERY_MAX_EDGES = 10

Slot = Tuple[Tuple[str, str], str]  # (edge pair, endpoint node)


@dataclass(frozen=True)
class OrientationMove:
    """Resolution of one circle-marked endpoint to a tail or an arrowhead."""

    edge: Tuple[str, str]
    endpoint: str
    new_mark: Mark

    def __post_init__(self):
        if self.new_mark not in (Mark.TAIL, Mark.ARROW):
            raise ValueError("a move must resolve to a tail or an arrowhead")
        if self.endpoint not in self.edge:
            raise ValueError(f"{self.endpoint!r} is not an endpoint of {self.edge}")


@dataclass(frozen=True)
class MagStratum:
    """All enumerated MAGs sharing one bi-directed-edge count."""

    bidirected_count: int
    mags: Tuple[MixedGraph, ...]


def circle_slots(pag: MixedGraph) -> Tuple[Slot, ...]:
    """Circle-marked endpoints in canonical order."""
    slots = []
    for e in pag.edges:
        if e.mark_a is Mark.CIRCLE:
            slots.append((e.pair, e.a))
        if e.mark_b is Mark.CIRCLE:
            slots.append((e.pair, e.b))
    return tuple(slots)


def _complete(pag: MixedGraph, marks: Dict[Slot, Mark], kind: GraphKind = GraphKind.MAG) -> MixedGraph:
    edges = []
    for e in pag.edges:
        ma = marks.get((e.pair, e.a), e.mark_a)
        mb = marks.get((e.pair, e.b), e.mark_b)
        edges.append(Edge(e.a, e.b, ma, mb))
    return MixedGraph(kind, pag.nodes, tuple(edges))


def _graph_key(g: MixedGraph):
    return tuple((e.a, e.b, e.mark_a.value, e.mark_b.value) for e in g.edges)


def enumerate_mags(pag: MixedGraph, limit: Optional[int] = ENUMERATION_LIMIT) -> List[MagStratum]:
    """All MAG completions of the PAG equivalent to its reference MAG.

    Every circle mark is resolved both ways; completions that fail validity
    or leave the reference MAG's Markov equivalence class are dropped. The
    survivors are grouped into strata by ascending bi-directed-edge count.

    Raises EnumerationLimitError when the orientation space (2^#circles)
    exceeds ``limit``; truncating silently would bias the search, so the
    caller must switch to the hill-climbing strategy instead.
    """
    require_valid(pag, GraphKind.PAG, "pag")
    slots = circle_slots(pag)
    candidates = 2 ** len(slots)
    if limit is not None and candidates > limit:
        raise EnumerationLimitError(
            f"{candidates} candidate orientations exceed the limit of {limit}; "
            f"use the hill-climbing strategy, which never enumerates the space"
        )
    ref = reference_mag(pag)
    found = []
    for choice in itertools.product((Mark.TAIL, Mark.ARROW), repeat=len(slots)):
        g = _complete(pag, dict(zip(slots, choice)))
        if validate(g).ok and markov_equivalent(g, ref):
            found.append(g)
    by_count: Dict[int, List[MixedGraph]] = {}
    for g in found:
        by_count.setdefault(g.bidirected_count, []).append(g)
    return [
        MagStratum(count, tuple(sorted(by_count[count], key=_graph_key)))
        for count in sorted(by_count)
    ]


def reference_mag(pag: MixedGraph) -> MixedGraph:
    """One deterministic MAG completion of the PAG, anchoring its class.

    Circle endpoints are resolved in canonical edge order, tail before
    arrowhead, backtracking on violations: tail-tail edges, directed or
    almost-directed cycles, and colliders on unshielded triples that the PAG
    does not orient as colliders. Tail-first resolution turns every o->
    edge into --> and orients the o-o subgraph acyclically, which keeps the
    completion inside the PAG's equivalence class.
    """
    require_valid(pag, GraphKind.PAG, "pag")
    slots = circle_slots(pag)
    if not slots:
        return pag.with_kind(GraphKind.MAG)

    # unshielded triples the PAG does not orient as colliders must not become ones
    non_colliders = tuple(t for t in unshielded_triples(pag) if not is_collider(pag, *t))

    def consistent(marks: Dict[Slot, Mark]) -> bool:
        g = _complete(pag, marks, kind=GraphKind.PAG)
        for e in g.edges:
            if e.mark_a is not Mark.CIRCLE and e.mark_b is not Mark.CIRCLE:
                if e.mark_a is Mark.TAIL and e.mark_b is Mark.TAIL:
                    return False
        try:
            g.topological_order()
        except ValueError:
            return False
        for a, b in g.bidirected_edges():
            if g.is_ancestor(a, b) or g.is_ancestor(b, a):
                return False
        return not any(is_collider(g, *t) for t in non_colliders)

    deepest_failure = 0

    def assign(i: int, marks: Dict[Slot, Mark]) -> Optional[Dict[Slot, Mark]]:
        nonlocal deepest_failure
        if i == len(slots):
            return marks
        for mark in (Mark.TAIL, Mark.ARROW):
            marks[slots[i]] = mark
            if consistent(marks):
                done = assign(i + 1, marks)
                if done is not None:
                    return done
            del marks[slots[i]]
        deepest_failure = max(deepest_failure, i)
        return None

    solution = assign(0, {})
    if solution is None:
        pair, node = slots[deepest_failure]
        raise ConstructionError(
            f"no valid orientation for the circle at {node!r} on edge {pair}"
        )
    result = _complete(pag, solution)
    report = validate(result)
    if not report.ok:
        raise ConstructionError("completion failed validity: " + "; ".join(report.violations))
    return result


def _check_pag_consistency(current: MixedGraph, pag: MixedGraph) -> None:
    if current.nodes != pag.nodes:
        raise ValueError("graph and PAG node sets differ")
    cur_pairs = {e.pair for e in current.edges}
    pag_pairs = {e.pair for e in pag.edges}
    if cur_pairs != pag_pairs:
        raise ValueError("graph and PAG skeletons differ")
    for e in pag.edges:
        for node, mark in ((e.a, e.mark_a), (e.b, e.mark_b)):
            if mark is Mark.CIRCLE:
                continue
            if current.mark_between(node, e.other(node)) is not mark:
                raise ValueError(
                    f"invariant mark at {node!r} on edge {e.pair} was altered"
                )


def orientation_neighbors(
    current: MixedGraph, pag: MixedGraph
) -> List[Tuple[OrientationMove, MixedGraph]]:
    """All valid MAGs one circle-endpoint flip away from ``current``.

    Only endpoints that are circles in the PAG may move, so invariant marks
    are never touched. Results are filtered by validity alone; crossing
    into a different Markov equivalence class is allowed by design, since
    the hill-climbing strategy skips equivalence checks.
    """
    require_valid(current, GraphKind.MAG, "current")
    require_valid(pag, GraphKind.PAG, "pag")
    _check_pag_consistency(current, pag)
    out = []
    for pair, node in circle_slots(pag):
        other = pair[1] if node == pair[0] else pair[0]
        old = current.mark_between(node, other)
        new = Mark.ARROW if old is Mark.TAIL else Mark.TAIL
        candidate = current.with_mark(node, other, new)
        if validate(candidate).ok:
            out.append((OrientationMove(pair, node, new), candidate))
    return out


def is_maximal(mag: MixedGraph) -> bool:
    """True iff every non-adjacent node pair is m-separated by some set.

    That holds iff no inducing path joins a non-adjacent pair.
    """
    require_valid(mag, GraphKind.MAG, "mag")
    return not any(
        has_inducing_path(mag, x, y)
        for x, y in itertools.combinations(mag.nodes, 2)
        if not mag.has_edge(x, y)
    )


def pag_of_mag(mag: MixedGraph) -> MixedGraph:
    """Recover the PAG of a MAG by brute force over its equivalence class.

    Every same-skeleton re-orientation (each edge as ->, <- or <->) that is
    valid and Markov equivalent to the input is a class member; marks that
    agree across all members stay, the rest become circles. Requires a
    maximal input: non-maximal ancestral graphs can have equivalent graphs
    with different skeletons, which this skeleton-fixing walk would miss.
    """
    require_valid(mag, GraphKind.MAG, "mag")
    if len(mag.edges) > PAG_RECOVERY_MAX_EDGES:
        raise ValueError(
            f"pag_of_mag is exhaustive and limited to {PAG_RECOVERY_MAX_EDGES} edges; "
            f"got {len(mag.edges)}"
        )
    if not is_maximal(mag):
        raise ValueError("pag_of_mag requires a maximal MAG")
    options = (
        (Mark.TAIL, Mark.ARROW),
        (Mark.ARROW, Mark.TAIL),
        (Mark.ARROW, Mark.ARROW),
    )
    members = []
    for assignment in itertools.product(options, repeat=len(mag.edges)):
        edges = tuple(
            Edge(e.a, e.b, ma, mb) for e, (ma, mb) in zip(mag.edges, assignment)
        )
        g = MixedGraph(GraphKind.MAG, mag.nodes, edges)
        if validate(g).ok and markov_equivalent(g, mag):
            members.append(g)
    pag_edges = []
    for i, e in enumerate(mag.edges):
        marks_a = {m.edges[i].mark_a for m in members}
        marks_b = {m.edges[i].mark_b for m in members}
        ma = e.mark_a if len(marks_a) == 1 else Mark.CIRCLE
        mb = e.mark_b if len(marks_b) == 1 else Mark.CIRCLE
        pag_edges.append(Edge(e.a, e.b, ma, mb))
    return MixedGraph(GraphKind.PAG, mag.nodes, tuple(pag_edges))
