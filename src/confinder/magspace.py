"""Enumeration and local moves over the MAGs represented by a PAG.

A PAG fixes the skeleton and the invariant (non-circle) marks; each circle
mark may resolve to a tail or an arrowhead. One backtracking walk over the
circle marks, which cuts only prefixes no completion can repair, serves
three jobs: the reference MAG is its first completion; the enumeration
keeps the completions Markov equivalent to that reference, stratified by
the number of bi-directed edges; and the PAG of a maximal MAG keeps the
marks its equivalent completions agree on. The hill-climbing neighbors of
a MAG are the valid MAGs one circle-mark flip away, in circle-slot order;
they deliberately do NOT check equivalence.

The enumeration runs to the end of the walk unless given a deadline; a walk
cut at its deadline returns the class members found so far, plus the
reference MAG.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from confinder.errors import ConstructionError
from confinder.graphs import (
    GraphKind,
    Edge,
    Mark,
    MixedGraph,
    is_collider,
    is_maximal,
    markov_equivalent,
    maximal_augmentation,
    require_valid,
    unshielded_triples,
    validate,
)

Slot = Tuple[Tuple[str, str], str]  # (edge pair, endpoint node)
Triple = Tuple[str, str, str]


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


def _complete(pag: MixedGraph, marks: Dict[Slot, Mark]) -> MixedGraph:
    edges = []
    for e in pag.edges:
        ma = marks.get((e.pair, e.a), e.mark_a)
        mb = marks.get((e.pair, e.b), e.mark_b)
        edges.append(Edge(e.a, e.b, ma, mb))
    return MixedGraph(GraphKind.MAG, pag.nodes, tuple(edges))


def _completions(
    pag: MixedGraph, non_colliders: Tuple[Triple, ...], deadline: Optional[float] = None
) -> Iterator[MixedGraph]:
    """Every MAG completion of the PAG with no collider on ``non_colliders``.

    Circle endpoints are resolved in canonical order, tail before arrowhead,
    so completions come in that lexicographic order. A prefix is cut as soon
    as its fixed marks put a collider on a triple of ``non_colliders``, or,
    once they complete an edge, as soon as the prefix graph is invalid: a
    tail-tail edge, a directed or almost-directed cycle. Each check reads
    fixed marks only and fixing more marks keeps a violation, so the cut
    loses no completion, and every completion is a valid MAG. Raises
    ConstructionError, naming the deepest circle left unresolved, when no
    completion exists.

    The validity check looks at the completed edge alone. An edge's circles
    are adjacent slots, so when a slot completes an edge, every other edge
    is either resolved or still the valid PAG's own, and the prefix graph
    differs from the last one checked, which was valid, by that edge only.
    Cycles and almost-directed cycles read directed and bi-directed edges
    only, and an edge that keeps a circle is neither. So the new prefix is
    invalid iff the edge is tail-tail; or it is ``t --> h`` and h is an
    ancestor of t (a cycle), or some bi-directed ``a <-> b`` now has a as
    an ancestor of b, which needs a to be an ancestor of t and b a
    descendant of h; or it is ``a <-> b`` with one end an ancestor of the
    other. Each prefix keeps its ancestor relation, one bit set per node,
    and the bi-directed edges it has.

    ``deadline`` is a ``time.monotonic()`` instant, checked before each
    circle is resolved; past it the walk stops quietly after the
    completions it has yielded.
    """
    slots = circle_slots(pag)
    # an edge's circles are adjacent slots; the last one completes the edge
    completes = [
        i + 1 == len(slots) or slots[i + 1][0] != pair
        for i, (pair, _node) in enumerate(slots)
    ]
    bit = {n: 1 << i for i, n in enumerate(pag.nodes)}
    marks: Dict[Slot, Mark] = {}
    deepest = 0
    cut = False

    def mark_at(node: str, other: str) -> Mark:
        pair = (node, other) if node < other else (other, node)
        return marks.get((pair, node), pag.mark_between(node, other))

    def colliding(i: int) -> bool:
        node = slots[i][1]
        # a collider at b reads only the marks at b, and only slot i's changed
        return any(
            mark_at(node, a) is mark_at(node, c) is Mark.ARROW
            for a, b, c in non_colliders if b == node
        )

    def with_edge(pair: Tuple[str, str], below: Dict[str, int], spouses: tuple):
        """The ancestor bits (a node's own bit and its ancestors') and the
        bi-directed edges of the prefix with ``pair`` completed, or None
        when the completed edge makes the prefix invalid."""
        a, b = pair
        mark_a, mark_b = mark_at(a, b), mark_at(b, a)
        if mark_a is Mark.ARROW and mark_b is Mark.ARROW:
            if below[a] & bit[b] or below[b] & bit[a]:
                return None
            return below, spouses + (pair,)
        if mark_a is Mark.TAIL and mark_b is Mark.TAIL:
            return None
        t, h = (a, b) if mark_b is Mark.ARROW else (b, a)
        if below[t] & bit[h]:
            return None
        reach = below[t]
        below = {n: bits | reach if bits & bit[h] else bits for n, bits in below.items()}
        if any(below[x] & bit[y] or below[y] & bit[x] for x, y in spouses):
            return None
        return below, spouses

    def extend(i: int, below: Dict[str, int], spouses: tuple) -> Iterator[MixedGraph]:
        nonlocal deepest, cut
        deepest = max(deepest, i)
        if i == len(slots):
            yield _complete(pag, marks)
            return
        cut = cut or (deadline is not None and time.monotonic() >= deadline)
        if cut:
            return
        for mark in (Mark.TAIL, Mark.ARROW):
            marks[slots[i]] = mark
            if colliding(i):
                continue
            if not completes[i]:
                # a circle is left at the other end, so the edge is neither
                # tail-tail nor directed nor bi-directed: it adds no violation
                yield from extend(i + 1, below, spouses)
                continue
            prefix = with_edge(slots[i][0], below, spouses)
            if prefix is not None:
                yield from extend(i + 1, *prefix)
        del marks[slots[i]]

    below = {n: sum(bit[m] for m in pag.ancestors(n)) for n in pag.nodes}
    yield from extend(0, below, pag.bidirected_edges())
    if deepest < len(slots) and not cut:  # no prefix reached full length
        pair, node = slots[deepest]
        raise ConstructionError(f"no valid orientation for the circle at {node!r} on edge {pair}")


def enumerate_mags(pag: MixedGraph, deadline: Optional[float] = None) -> List[MagStratum]:
    """All MAG completions of the PAG equivalent to its reference MAG.

    The walk over circle marks keeps the completions Markov equivalent to
    the reference MAG and groups them into strata by ascending
    bi-directed-edge count; a stratum keeps the walk's order, which sorts
    its MAGs by their marks in canonical edge order, tail before
    arrowhead. It prunes by the unshielded non-colliders of the
    reference's maximal augmentation on the PAG's edges, which every class
    member shares; the PAG's own non-colliders would not do, since an
    inducing path of a non-maximal reference can shield one of them.

    Against a maximal reference, the class test asks no augmentation: a
    completion shares the reference's skeleton, so it is a member iff it is
    maximal and agrees with the reference on the unshielded colliders and
    on the colliders of the paths discriminating in both (see
    ``markov_equivalent``).

    ``deadline`` is a ``time.monotonic()`` instant checked at every circle
    the walk resolves. A walk cut there returns the members found so far,
    each stratum a prefix of its uncut self, and always the reference: the
    reference is one of the walk's completions, so a walk that has not
    reached it has found only MAGs that come before it, and it goes at the
    end of its stratum.
    """
    require_valid(pag, GraphKind.PAG, "pag")
    ref = reference_mag(pag)
    augmented = maximal_augmentation(ref)
    non_colliders = tuple(
        t for t in unshielded_triples(ref)
        if not is_collider(ref, *t) and not augmented.has_edge(t[0], t[2])
    )
    by_count: Dict[int, List[MixedGraph]] = {}
    reached = False
    for g in _completions(pag, non_colliders, deadline):
        if markov_equivalent(g, ref):
            by_count.setdefault(g.bidirected_count, []).append(g)
            reached = reached or g == ref
    if not reached:  # the walk was cut before it
        by_count.setdefault(ref.bidirected_count, []).append(ref)
    return [MagStratum(count, tuple(by_count[count])) for count in sorted(by_count)]


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


def orientation_neighbors(current: MixedGraph, pag: MixedGraph) -> List[MixedGraph]:
    """All valid MAGs one circle-endpoint flip away from ``current``.

    Only endpoints that are circles in the PAG may move, so invariant marks
    are never touched. Each circle slot gives at most one neighbor, and the
    neighbors come in ``circle_slots`` order. Results are filtered by
    validity alone; crossing into a different Markov equivalence class is
    allowed by design, since the hill-climbing strategy skips equivalence
    checks.
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
            out.append(candidate)
    return out


def pag_of_mag(mag: MixedGraph) -> MixedGraph:
    """Recover the PAG of a maximal MAG from the members of its class.

    Equivalent maximal MAGs share the skeleton and the unshielded colliders
    and non-colliders. So the walk over circle marks starts from the
    skeleton with circles everywhere except arrowheads at the unshielded
    colliders, and cuts every collider on an unshielded non-collider; the
    completions Markov equivalent to the input are its class members, each
    tested by maximality and colliders, with no augmentation (see
    ``markov_equivalent``). Marks that agree across all members stay, the
    rest become circles. Requires a
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
