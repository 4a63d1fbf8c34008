"""Mixed graphs with tail/arrow/circle endpoint marks.

A single representation covers DAGs (tail-arrow edges only), MAGs (directed
plus bi-directed edges) and PAGs (circle marks for undetermined endpoints).
Separation queries, conditional-independence signatures, inducing paths and
the graphical MAG Markov-equivalence test live here as well.

Graphs are immutable after construction and safe to share across workers;
node identifiers are case-sensitive strings and all derived orderings are
canonical (sorted by name) so that results are reproducible.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Tuple


class Mark(Enum):
    """Endpoint mark of a mixed-graph edge."""

    TAIL = "-"
    ARROW = ">"
    CIRCLE = "o"


class GraphKind(Enum):
    DAG = "dag"
    MAG = "mag"
    PAG = "pag"


@dataclass(frozen=True)
class Edge:
    """An edge between two nodes carrying one mark per endpoint.

    Endpoints are stored in sorted order (``a < b``); constructors accept
    either order and normalise. ``mark_a`` is the mark seen at ``a``'s end.
    """

    a: str
    b: str
    mark_a: Mark
    mark_b: Mark

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError(f"self-loop at {self.a!r}")
        if self.a > self.b:
            a, b, ma, mb = self.b, self.a, self.mark_b, self.mark_a
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)
            object.__setattr__(self, "mark_a", ma)
            object.__setattr__(self, "mark_b", mb)

    @classmethod
    def directed(cls, tail: str, head: str) -> "Edge":
        """tail --> head"""
        return cls(tail, head, Mark.TAIL, Mark.ARROW)

    @classmethod
    def bidirected(cls, a: str, b: str) -> "Edge":
        """a <-> b"""
        return cls(a, b, Mark.ARROW, Mark.ARROW)

    @classmethod
    def circle_circle(cls, a: str, b: str) -> "Edge":
        """a o-o b"""
        return cls(a, b, Mark.CIRCLE, Mark.CIRCLE)

    @classmethod
    def circle_arrow(cls, circle_end: str, arrow_end: str) -> "Edge":
        """circle_end o-> arrow_end"""
        return cls(circle_end, arrow_end, Mark.CIRCLE, Mark.ARROW)

    @property
    def pair(self) -> Tuple[str, str]:
        return (self.a, self.b)

    def mark_at(self, node: str) -> Mark:
        if node == self.a:
            return self.mark_a
        if node == self.b:
            return self.mark_b
        raise KeyError(f"{node!r} is not an endpoint of {self.pair}")

    def other(self, node: str) -> str:
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise KeyError(f"{node!r} is not an endpoint of {self.pair}")

    def with_mark_at(self, node: str, mark: Mark) -> "Edge":
        if node == self.a:
            return Edge(self.a, self.b, mark, self.mark_b)
        if node == self.b:
            return Edge(self.a, self.b, self.mark_a, mark)
        raise KeyError(f"{node!r} is not an endpoint of {self.pair}")

    @property
    def is_directed(self) -> bool:
        return {self.mark_a, self.mark_b} == {Mark.TAIL, Mark.ARROW}

    @property
    def is_bidirected(self) -> bool:
        return self.mark_a is Mark.ARROW and self.mark_b is Mark.ARROW

    def directed_pair(self) -> Tuple[str, str]:
        """(tail, head) for a directed edge."""
        if not self.is_directed:
            raise ValueError(f"edge {self.pair} is not directed")
        return (self.a, self.b) if self.mark_b is Mark.ARROW else (self.b, self.a)


@dataclass(frozen=True)
class MixedGraph:
    """Immutable mixed graph: sorted node tuple plus marked edges.

    Kind invariants are not enforced at construction; use :func:`validate`
    to obtain a report of violations (violations are data, not failures).
    Structural problems (unknown endpoints, duplicate node pairs) do raise.
    """

    kind: GraphKind
    nodes: Tuple[str, ...]
    edges: Tuple[Edge, ...] = ()

    def __post_init__(self):
        nodes = tuple(sorted(dict.fromkeys(self.nodes)))
        edges = tuple(sorted(self.edges, key=lambda e: (e.a, e.b)))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        node_set = set(nodes)
        seen = set()
        for e in edges:
            if e.a not in node_set or e.b not in node_set:
                raise ValueError(f"edge {e.pair} references an undeclared node")
            if e.pair in seen:
                raise ValueError(f"duplicate edge between {e.a!r} and {e.b!r}")
            seen.add(e.pair)

    # -- basic queries -----------------------------------------------------

    def edge_between(self, x: str, y: str) -> Optional[Edge]:
        return _index(self).edge_map.get((x, y) if x < y else (y, x))

    def has_edge(self, x: str, y: str) -> bool:
        return self.edge_between(x, y) is not None

    def mark_between(self, x: str, y: str) -> Mark:
        """Mark at x's end of the edge joining x and y."""
        edge = self.edge_between(x, y)
        if edge is None:
            raise KeyError(f"no edge between {x!r} and {y!r}")
        return edge.mark_at(x)

    def adjacent(self, x: str) -> Tuple[str, ...]:
        return _index(self).adjacent[x]

    def parents(self, x: str) -> Tuple[str, ...]:
        """Nodes y with a directed edge y --> x."""
        return _index(self).parents[x]

    def children(self, x: str) -> Tuple[str, ...]:
        return _index(self).children[x]

    def spouses(self, x: str) -> Tuple[str, ...]:
        """Nodes joined to x by a bi-directed edge."""
        return _index(self).spouses[x]

    def directed_edges(self) -> Tuple[Tuple[str, str], ...]:
        """(tail, head) pairs of the fully directed edges."""
        return _index(self).directed

    def bidirected_edges(self) -> Tuple[Tuple[str, str], ...]:
        return _index(self).bidirected

    @property
    def bidirected_count(self) -> int:
        return len(_index(self).bidirected)

    # -- ancestry (directed edges only; <-> contributes no ancestry) -------

    def ancestors(self, nodes: Iterable[str], include_self: bool = True) -> FrozenSet[str]:
        seeds = {nodes} if isinstance(nodes, str) else set(nodes)
        idx = _index(self)
        out = set(seeds)
        stack = list(seeds)
        while stack:
            for p in idx.parents[stack.pop()]:
                if p not in out:
                    out.add(p)
                    stack.append(p)
        if not include_self:
            out -= seeds
        return frozenset(out)

    def is_ancestor(self, x: str, y: str) -> bool:
        """True iff a directed path x --> ... --> y of length >= 1 exists."""
        return x != y and x in self.ancestors({y}, include_self=False)

    def topological_order(self) -> Tuple[str, ...]:
        """Canonical topological order over directed edges (ties by name)."""
        idx = _index(self)
        indeg = {n: len(idx.parents[n]) for n in self.nodes}
        ready = sorted(n for n in self.nodes if indeg[n] == 0)
        order = []
        while ready:
            n = ready.pop(0)
            order.append(n)
            changed = False
            for c in idx.children[n]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
                    changed = True
            if changed:
                ready.sort()
        if len(order) != len(self.nodes):
            raise ValueError("graph contains a directed cycle")
        return tuple(order)

    # -- derived graphs ----------------------------------------------------

    def with_kind(self, kind: GraphKind) -> "MixedGraph":
        return MixedGraph(kind, self.nodes, self.edges)

    def with_mark(self, x: str, y: str, mark: Mark) -> "MixedGraph":
        """Copy with the mark at x's end of edge (x, y) replaced."""
        edge = self.edge_between(x, y)
        if edge is None:
            raise KeyError(f"no edge between {x!r} and {y!r}")
        edges = tuple(e if e.pair != edge.pair else e.with_mark_at(x, mark) for e in self.edges)
        return MixedGraph(self.kind, self.nodes, edges)


class _Index:
    """Adjacency structures derived once per graph."""

    __slots__ = ("edge_map", "adjacent", "parents", "children", "spouses", "directed", "bidirected")

    def __init__(self, g: MixedGraph):
        self.edge_map = {e.pair: e for e in g.edges}
        adj = {n: [] for n in g.nodes}
        par = {n: [] for n in g.nodes}
        chi = {n: [] for n in g.nodes}
        spo = {n: [] for n in g.nodes}
        directed = []
        bidirected = []
        for e in g.edges:
            adj[e.a].append(e.b)
            adj[e.b].append(e.a)
            if e.is_directed:
                t, h = e.directed_pair()
                par[h].append(t)
                chi[t].append(h)
                directed.append((t, h))
            elif e.is_bidirected:
                spo[e.a].append(e.b)
                spo[e.b].append(e.a)
                bidirected.append(e.pair)
        self.adjacent = {n: tuple(sorted(v)) for n, v in adj.items()}
        self.parents = {n: tuple(sorted(v)) for n, v in par.items()}
        self.children = {n: tuple(sorted(v)) for n, v in chi.items()}
        self.spouses = {n: tuple(sorted(v)) for n, v in spo.items()}
        self.directed = tuple(sorted(directed))
        self.bidirected = tuple(sorted(bidirected))


def _index(g: MixedGraph) -> _Index:
    # kept on the instance: graphs are immutable, and hashing a graph to look
    # its index up costs more than most of the queries the index serves
    idx = g.__dict__.get("_idx")
    if idx is None:
        idx = _Index(g)
        object.__setattr__(g, "_idx", idx)
    return idx


# ---------------------------------------------------------------------------
# Validity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidityReport:
    """All invariant violations of a graph's declared kind; empty iff valid."""

    violations: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def _directed_cycle(g: MixedGraph) -> Optional[Tuple[str, ...]]:
    """Return one directed cycle as a node tuple, or None."""
    idx = _index(g)
    color = {n: 0 for n in g.nodes}  # 0 new, 1 active, 2 done
    trail: list = []

    def visit(n):
        color[n] = 1
        trail.append(n)
        for c in idx.children[n]:
            if color[c] == 1:
                return tuple(trail[trail.index(c):]) + (c,)
            if color[c] == 0:
                found = visit(c)
                if found:
                    return found
        trail.pop()
        color[n] = 2
        return None

    for n in g.nodes:
        if color[n] == 0:
            found = visit(n)
            if found:
                return found
    return None


def require_valid(graph: MixedGraph, kind: GraphKind, what: str) -> None:
    """Raise ValueError unless the graph has the given kind and is valid."""
    if graph.kind is not kind:
        raise ValueError(f"{what} must have kind {kind.value}, got {graph.kind.value}")
    report = validate(graph)
    if not report.ok:
        raise ValueError(f"{what} is not valid: " + "; ".join(report.violations))


def validate(graph: MixedGraph) -> ValidityReport:
    """Check the invariants of the graph's declared kind.

    Violations are reported as data; an empty report means the graph is a
    well-formed DAG/MAG/PAG. Undirected (tail-tail) edges are rejected for
    every kind since selection bias is out of scope, and so are tail-circle
    marks, which only arise under selection.
    """
    v = []
    for e in graph.edges:
        marks = {e.mark_a, e.mark_b}
        if marks == {Mark.TAIL}:
            v.append(f"undirected edge {e.a} --- {e.b} (selection bias unsupported)")
        elif marks == {Mark.TAIL, Mark.CIRCLE}:
            v.append(f"tail-circle edge between {e.a} and {e.b} (selection bias unsupported)")

    if graph.kind is GraphKind.DAG:
        for e in graph.edges:
            if not e.is_directed:
                v.append(f"non-directed edge between {e.a} and {e.b} in a DAG")
        cycle = _directed_cycle(graph)
        if cycle:
            v.append("directed cycle " + " -> ".join(cycle))
        return ValidityReport(tuple(v))

    if graph.kind is GraphKind.MAG:
        for e in graph.edges:
            if Mark.CIRCLE in (e.mark_a, e.mark_b):
                v.append(f"circle mark between {e.a} and {e.b} in a MAG")

    cycle = _directed_cycle(graph)
    if cycle:
        v.append("directed cycle " + " -> ".join(cycle))
    else:
        for a, b in graph.bidirected_edges():
            if graph.is_ancestor(a, b):
                v.append(f"almost-directed cycle: {a} is an ancestor of {b} with {a} <-> {b}")
            if graph.is_ancestor(b, a):
                v.append(f"almost-directed cycle: {b} is an ancestor of {a} with {a} <-> {b}")
    return ValidityReport(tuple(v))


# ---------------------------------------------------------------------------
# Separation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparationQuery:
    """A conditional-independence query: are x and y separated given z?"""

    x: str
    y: str
    z: FrozenSet[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "z", frozenset(self.z))
        if self.x == self.y:
            raise ValueError("query endpoints must differ")
        if self.x in self.z or self.y in self.z:
            raise ValueError("query endpoints may not appear in the conditioning set")


def _check_query_nodes(graph: MixedGraph, q: SeparationQuery):
    known = set(graph.nodes)
    for n in {q.x, q.y} | q.z:
        if n not in known:
            raise ValueError(f"unknown node {n!r} in separation query")


def _connected(graph: MixedGraph, x: str, y: str, z: FrozenSet[str]) -> bool:
    """Walk-based reachability: is there an open path from x to y given z?

    States are (node, mark at the node on the edge we arrived by). A walk
    may pass a node as a collider only if the node is an ancestor of z, and
    as a non-collider only if the node is outside z; this matches path
    blocking because an open walk exists iff an open path does.
    """
    idx = _index(graph)
    anz = graph.ancestors(z) if z else frozenset()
    queue = deque()
    seen = set()
    for w in idx.adjacent[x]:
        if w == y:
            return True
        state = (w, idx.edge_map[(x, w) if x < w else (w, x)].mark_at(w))
        queue.append(state)
        seen.add(state)
    while queue:
        v, mark_in = queue.popleft()
        for w in idx.adjacent[v]:
            edge = idx.edge_map[(v, w) if v < w else (w, v)]
            collider = mark_in is Mark.ARROW and edge.mark_at(v) is Mark.ARROW
            if collider:
                if v not in anz:
                    continue
            elif v in z:
                continue
            if w == y:
                return True
            state = (w, edge.mark_at(w))
            if state not in seen:
                seen.add(state)
                queue.append(state)
    return False


def d_separated(dag: MixedGraph, query: SeparationQuery) -> bool:
    """d-separation in a DAG."""
    if dag.kind is not GraphKind.DAG:
        raise ValueError("d_separated expects a DAG")
    _check_query_nodes(dag, query)
    return not _connected(dag, query.x, query.y, query.z)


def m_separated(mag: MixedGraph, query: SeparationQuery) -> bool:
    """m-separation in a MAG; bi-directed endpoints count as arrowheads."""
    if mag.kind is not GraphKind.MAG:
        raise ValueError("m_separated expects a MAG")
    _check_query_nodes(mag, query)
    return not _connected(mag, query.x, query.y, query.z)


# ---------------------------------------------------------------------------
# CI signatures and Markov equivalence
# ---------------------------------------------------------------------------

CI_SIGNATURE_MAX_NODES = 16

CISet = FrozenSet[Tuple[str, str, Tuple[str, ...]]]


def ci_signature(graph: MixedGraph, over: Optional[Iterable[str]] = None) -> CISet:
    """The set of all separation statements among ``over``.

    Every (x, y, z) with x < y in ``over`` and z a subset of the remaining
    ``over`` nodes is tested with the separation criterion matching the
    graph's kind. Paths traverse the full graph, so nodes outside ``over``
    (e.g. latent variables in a DAG) are marginalised rather than removed.
    """
    if graph.kind not in (GraphKind.DAG, GraphKind.MAG):
        raise ValueError("ci_signature expects a DAG or a MAG")
    scope = tuple(sorted(graph.nodes if over is None else set(over)))
    unknown = set(scope) - set(graph.nodes)
    if unknown:
        raise ValueError(f"unknown nodes in signature scope: {sorted(unknown)}")
    if len(scope) > CI_SIGNATURE_MAX_NODES:
        raise ValueError(
            f"signature over {len(scope)} nodes exceeds the exhaustive-enumeration "
            f"guard of {CI_SIGNATURE_MAX_NODES}"
        )
    return _signature_cached(graph, scope)


@lru_cache(maxsize=4096)
def _signature_cached(graph: MixedGraph, scope: Tuple[str, ...]) -> CISet:
    found = set()
    for x, y in itertools.combinations(scope, 2):
        rest = [n for n in scope if n != x and n != y]
        for r in range(len(rest) + 1):
            for z in itertools.combinations(rest, r):
                if not _connected(graph, x, y, frozenset(z)):
                    found.add((x, y, z))
    return frozenset(found)


# ---------------------------------------------------------------------------
# Inducing paths and graphical Markov equivalence
# ---------------------------------------------------------------------------

def has_inducing_path(
    graph: MixedGraph, x: str, y: str, hidden: Iterable[str] = ()
) -> bool:
    """Is there an inducing path between x and y relative to ``hidden``?

    On such a path every interior node outside ``hidden`` is a collider and
    every collider is an ancestor of x or y (Richardson & Spirtes 2002). It
    exists iff no set of visible nodes separates x from y. One reachability
    query decides it: the query conditions on the visible ancestors of
    {x, y}, and every node of a path open given that set is an ancestor of x
    or y, so each visible interior node of the path must be a collider.
    """
    if x == y:
        raise ValueError("inducing path endpoints must differ")
    unknown = {x, y} - set(graph.nodes)
    if unknown:
        raise ValueError(f"unknown nodes {sorted(unknown)}")
    z = graph.ancestors((x, y)) - set(hidden) - {x, y}
    return _connected(graph, x, y, z)


def maximal_augmentation(mag: MixedGraph) -> MixedGraph:
    """The maximal ancestral graph with the same separation statements.

    Adds x <-> y for every non-adjacent pair joined by an inducing path
    (Richardson & Spirtes 2002, Thm 5.1); a maximal graph comes back as is.
    """
    added = tuple(
        Edge.bidirected(x, y)
        for x, y in itertools.combinations(mag.nodes, 2)
        if not mag.has_edge(x, y) and has_inducing_path(mag, x, y)
    )
    return MixedGraph(mag.kind, mag.nodes, mag.edges + added) if added else mag


def _is_collider(graph: MixedGraph, a: str, b: str, c: str) -> bool:
    return graph.mark_between(b, a) is Mark.ARROW and graph.mark_between(b, c) is Mark.ARROW


def _unshielded_colliders(graph: MixedGraph) -> FrozenSet[Tuple[str, str, str]]:
    """(a, b, c) with a < c, a *-> b <-* c and a, c non-adjacent."""
    return frozenset(
        (a, b, c)
        for b in graph.nodes
        for a, c in itertools.combinations(graph.adjacent(b), 2)
        if not graph.has_edge(a, c) and _is_collider(graph, a, b, c)
    )


def _discriminating_paths(graph: MixedGraph) -> Dict[Tuple[str, ...], bool]:
    """Every discriminating path for a node, mapped to its collider status.

    A path <x, q1, ..., qk, v, y> with k >= 1 discriminates v when x and y
    are non-adjacent and every qi is a collider on the path and a parent of
    y. Paths are grown backwards from the v-y edge, one qi at a time.
    """
    found: Dict[Tuple[str, ...], bool] = {}

    def grow(trail: Tuple[str, ...], y: str, parents_of_y) -> None:
        # trail = (y, v, qk, ..., qi); qi has an arrowhead toward v's side
        q = trail[-1]
        for w in graph.adjacent(q):
            if w in trail or graph.mark_between(q, w) is not Mark.ARROW:
                continue
            if not graph.has_edge(w, y):
                path = tuple(reversed(trail + (w,)))
                found[path] = _is_collider(graph, trail[2], trail[1], y)
            elif w in parents_of_y and graph.mark_between(w, q) is Mark.ARROW:
                grow(trail + (w,), y, parents_of_y)

    for v in graph.nodes:
        for y in graph.adjacent(v):
            parents_of_y = frozenset(graph.parents(y))
            for q in graph.adjacent(v):
                if q in parents_of_y and graph.mark_between(q, v) is Mark.ARROW:
                    grow((y, v, q), y, parents_of_y)
    return found


def markov_equivalent(mag_a: MixedGraph, mag_b: MixedGraph) -> bool:
    """True iff the two MAGs entail exactly the same separation statements.

    Both graphs must be valid (ancestral). Each is replaced by its maximal
    augmentation, which keeps its separation statements; two maximal graphs
    are equivalent iff they share the skeleton, the unshielded colliders and
    the collider status of the node discriminated by every path that is
    discriminating in both (Spirtes & Richardson 1996; Ali, Richardson &
    Spirtes 2009).
    """
    require_valid(mag_a, GraphKind.MAG, "mag_a")
    require_valid(mag_b, GraphKind.MAG, "mag_b")
    if mag_a.nodes != mag_b.nodes:
        raise ValueError("markov_equivalent requires identical node sets")
    a = maximal_augmentation(mag_a)
    b = maximal_augmentation(mag_b)
    if {e.pair for e in a.edges} != {e.pair for e in b.edges}:
        return False
    if _unshielded_colliders(a) != _unshielded_colliders(b):
        return False
    paths_a = _discriminating_paths(a)
    paths_b = _discriminating_paths(b)
    return all(paths_a[p] == paths_b[p] for p in paths_a.keys() & paths_b.keys())
