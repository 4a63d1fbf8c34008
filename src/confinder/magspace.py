"""Enumeration and local moves over the MAGs represented by a PAG.

A PAG fixes the skeleton and the invariant (non-circle) marks; each circle
mark may resolve to a tail or an arrowhead. One backtracking walk over the
circle marks, which cuts only prefixes no completion can repair, serves
three jobs: the reference MAG is its first completion; the enumeration
keeps the completions Markov equivalent to that reference, stratified by
the number of bi-directed edges; and the PAG of a maximal MAG keeps the
marks its equivalent completions agree on. Single-mark neighbor moves for
hill-climbing deliberately do NOT check equivalence.

The enumeration refuses orientation spaces above an explicit limit instead
of running unbounded.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from confinder.errors import ConstructionError, EnumerationLimitError
from confinder.graphs import (
    GraphKind,
    Edge,
    Mark,
    MixedGraph,
    has_inducing_path,
    is_collider,
    markov_equivalent,
    maximal_augmentation,
    require_valid,
    unshielded_triples,
    validate,
)

ENUMERATION_LIMIT = 100000

Slot = Tuple[Tuple[str, str], str]  # (edge pair, endpoint node)
Triple = Tuple[str, str, str]


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


def _completions(pag: MixedGraph, non_colliders: Tuple[Triple, ...]) -> Iterator[MixedGraph]:
    """Every MAG completion of the PAG with no collider on ``non_colliders``.

    Circle endpoints are resolved in canonical order, tail before arrowhead,
    so completions come in that lexicographic order. A prefix is cut as soon
    as its fixed marks hold a tail-tail edge, a directed or almost-directed
    cycle, or a collider on a triple of ``non_colliders``. Each check reads
    fixed marks only and fixing more marks keeps a violation, so the cut
    loses no completion, and every completion is a valid MAG. Raises
    ConstructionError, naming the deepest circle left unresolved, when no
    completion exists.
    """
    slots = circle_slots(pag)
    marks: Dict[Slot, Mark] = {}
    deepest = 0

    def consistent(node: str) -> bool:
        g = _complete(pag, marks, kind=GraphKind.PAG)
        if any(e.mark_a is e.mark_b is Mark.TAIL for e in g.edges):
            return False
        # a collider at b reads only the marks at b, and only ``node``'s changed
        if any(is_collider(g, *t) for t in non_colliders if t[1] == node):
            return False
        try:
            g.topological_order()
        except ValueError:
            return False
        return not any(g.is_ancestor(a, b) or g.is_ancestor(b, a) for a, b in g.bidirected_edges())

    def extend(i: int) -> Iterator[MixedGraph]:
        nonlocal deepest
        deepest = max(deepest, i)
        if i == len(slots):
            yield _complete(pag, marks)
            return
        for mark in (Mark.TAIL, Mark.ARROW):
            marks[slots[i]] = mark
            if consistent(slots[i][1]):
                yield from extend(i + 1)
        del marks[slots[i]]

    yield from extend(0)
    if deepest < len(slots):  # no prefix reached full length
        pair, node = slots[deepest]
        raise ConstructionError(f"no valid orientation for the circle at {node!r} on edge {pair}")


def enumerate_mags(pag: MixedGraph, limit: Optional[int] = ENUMERATION_LIMIT) -> List[MagStratum]:
    """All MAG completions of the PAG equivalent to its reference MAG.

    The walk over circle marks keeps the completions Markov equivalent to
    the reference MAG and groups them into strata by ascending
    bi-directed-edge count. It prunes by the unshielded non-colliders of the
    reference's maximal augmentation on the PAG's edges, which every class
    member shares; the PAG's own non-colliders would not do, since an
    inducing path of a non-maximal reference can shield one of them.

    Raises EnumerationLimitError when the orientation space (2^#circles)
    exceeds ``limit``; truncating silently would bias the search, so the
    caller must switch to the hill-climbing strategy instead.
    """
    require_valid(pag, GraphKind.PAG, "pag")
    candidates = 2 ** len(circle_slots(pag))
    if limit is not None and candidates > limit:
        raise EnumerationLimitError(
            f"{candidates} candidate orientations exceed the limit of {limit}; "
            f"use the hill-climbing strategy, which never enumerates the space"
        )
    ref = reference_mag(pag)
    # the augmentation joins x and y exactly when an inducing path does
    non_colliders = tuple(
        t for t in unshielded_triples(ref)
        if not is_collider(ref, *t) and not has_inducing_path(ref, t[0], t[2])
    )
    by_count: Dict[int, List[MixedGraph]] = {}
    for g in _completions(pag, non_colliders):
        if markov_equivalent(g, ref):
            by_count.setdefault(g.bidirected_count, []).append(g)
    return [
        MagStratum(count, tuple(sorted(by_count[count], key=_graph_key)))
        for count in sorted(by_count)
    ]


def reference_mag(pag: MixedGraph) -> MixedGraph:
    """One deterministic MAG completion of the PAG, anchoring its class.

    The first completion of the walk over circle marks (canonical edge
    order, tail before arrowhead) that puts no collider on an unshielded
    triple the PAG does not orient as a collider. Tail-first resolution
    turns every o-> edge into --> and orients the o-o subgraph acyclically,
    which keeps the completion inside the PAG's equivalence class. Raises
    ConstructionError when no such completion exists.
    """
    require_valid(pag, GraphKind.PAG, "pag")
    non_colliders = tuple(t for t in unshielded_triples(pag) if not is_collider(pag, *t))
    return next(_completions(pag, non_colliders))


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

    That holds iff no inducing path joins a non-adjacent pair, that is, iff
    the maximal augmentation adds no edge.
    """
    require_valid(mag, GraphKind.MAG, "mag")
    return maximal_augmentation(mag) is mag


def pag_of_mag(mag: MixedGraph) -> MixedGraph:
    """Recover the PAG of a maximal MAG from the members of its class.

    Equivalent maximal MAGs share the skeleton and the unshielded colliders
    and non-colliders. So the walk over circle marks starts from the
    skeleton with circles everywhere except arrowheads at the unshielded
    colliders, and cuts every collider on an unshielded non-collider; the
    completions Markov equivalent to the input are its class members. Marks
    that agree across all members stay, the rest become circles. Requires a
    maximal input: non-maximal ancestral graphs can have equivalent graphs
    with different skeletons, which this skeleton-fixing walk would miss.
    """
    require_valid(mag, GraphKind.MAG, "mag")
    if not is_maximal(mag):
        raise ValueError("pag_of_mag requires a maximal MAG")
    triples = unshielded_triples(mag)
    colliders = {t for t in triples if is_collider(mag, *t)}
    heads = {(b, x) for a, b, c in colliders for x in (a, c)}
    circled = MixedGraph(GraphKind.PAG, mag.nodes, tuple(
        Edge(e.a, e.b, *(Mark.ARROW if (n, e.other(n)) in heads else Mark.CIRCLE for n in e.pair))
        for e in mag.edges
    ))
    non_colliders = tuple(t for t in triples if t not in colliders)
    members = [g for g in _completions(circled, non_colliders) if markov_equivalent(g, mag)]
    pag_edges = []
    for i, e in enumerate(mag.edges):
        marks_a = {m.edges[i].mark_a for m in members}
        marks_b = {m.edges[i].mark_b for m in members}
        ma = e.mark_a if len(marks_a) == 1 else Mark.CIRCLE
        mb = e.mark_b if len(marks_b) == 1 else Mark.CIRCLE
        pag_edges.append(Edge(e.a, e.b, ma, mb))
    return MixedGraph(GraphKind.PAG, mag.nodes, tuple(pag_edges))
