"""Mixed graphs with tail/arrow/circle endpoint marks.

A single representation covers DAGs (tail-arrow edges only), MAGs (directed
plus bi-directed edges) and PAGs (circle marks for undetermined endpoints).
The separation walk, conditional-independence signatures, inducing paths,
projection onto MAGs and the graphical Markov-equivalence test live here too.

Separation is decided by reachability over (node, arrival mark) states: a
walk passes a collider only if it is an ancestor of the conditioning set,
and any other node only if it is outside that set. An inducing-path query
walks once. A CI signature needs every conditioning set, so it walks once per
source node and carries, in each state, the sets under which that state is
reachable as one bit per subset of the signature's scope.

Graphs are immutable after construction and safe to share across workers;
node identifiers are case-sensitive strings and all derived orderings are
canonical (sorted by name) so that results are reproducible. What a graph
derives from itself, its adjacency index, topological order, validity
report, maximal augmentation and Markov-equivalence invariants, is a cached
property of the graph, computed on first use and kept on the instance.
"""
from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Dict, FrozenSet, Iterable, Optional, Tuple


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
        return self._idx.edge_map.get((x, y) if x < y else (y, x))

    def has_edge(self, x: str, y: str) -> bool:
        return self.edge_between(x, y) is not None

    def mark_between(self, x: str, y: str) -> Mark:
        """Mark at x's end of the edge joining x and y."""
        edge = self.edge_between(x, y)
        if edge is None:
            raise KeyError(f"no edge between {x!r} and {y!r}")
        return edge.mark_at(x)

    def adjacent(self, x: str) -> Tuple[str, ...]:
        return self._idx.adjacent[x]

    def parents(self, x: str) -> Tuple[str, ...]:
        """Nodes y with a directed edge y --> x."""
        return self._idx.parents[x]

    def children(self, x: str) -> Tuple[str, ...]:
        return self._idx.children[x]

    def directed_edges(self) -> Tuple[Tuple[str, str], ...]:
        """(tail, head) pairs of the fully directed edges."""
        return self._idx.directed

    def bidirected_edges(self) -> Tuple[Tuple[str, str], ...]:
        return self._idx.bidirected

    @property
    def bidirected_count(self) -> int:
        return len(self._idx.bidirected)

    # -- ancestry (directed edges only; <-> contributes no ancestry) -------

    def ancestors(self, nodes: Iterable[str]) -> FrozenSet[str]:
        """``nodes`` (one name or several) and their ancestors."""
        seeds = {nodes} if isinstance(nodes, str) else set(nodes)
        idx = self._idx
        out = set(seeds)
        stack = list(seeds)
        while stack:
            for p in idx.parents[stack.pop()]:
                if p not in out:
                    out.add(p)
                    stack.append(p)
        return frozenset(out)

    def is_ancestor(self, x: str, y: str) -> bool:
        """True iff a directed path x --> ... --> y of length >= 1 exists."""
        return x != y and x in self.ancestors(y)

    def topological_order(self) -> Tuple[str, ...]:
        """Canonical topological order over directed edges (ties by name)."""
        order, cycle = self._order
        if cycle:
            raise ValueError("graph contains a directed cycle")
        return order

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

    # -- derived facts, each computed once per instance ----------------------
    # The first read stores the value in the instance ``__dict__``, which then
    # shadows the descriptor, so every later read is a plain attribute lookup.

    @cached_property
    def _idx(self) -> _Index:
        return _Index(self)

    @cached_property
    def _order(self) -> Tuple[Tuple[str, ...], Optional[Tuple[str, ...]]]:
        """Kahn's order over directed edges (ties by name) and, when nodes
        are left over, the cycle that a depth-first search from each node
        in name order, children in name order, closes first: from the first
        node that reaches a cycle, take the first child that does until the
        trail meets itself. Peeling from the sinks up leaves those nodes."""
        idx = self._idx
        order = _kahn(self.nodes, idx.parents, idx.children)
        if len(order) == len(self.nodes):
            return order, None
        reach = set(self.nodes) - set(_kahn(self.nodes, idx.children, idx.parents))
        trail, n = [], min(reach)
        while n not in trail:
            trail.append(n)
            n = next(c for c in idx.children[n] if c in reach)
        cycle = trail[trail.index(n):]
        return order, tuple(cycle + cycle[:1])

    @cached_property
    def _valid(self) -> ValidityReport:
        return _check(self)

    @cached_property
    def _aug(self) -> MixedGraph:
        return project_to_mag(self, self.nodes)

    @cached_property
    def _inv(self) -> _Invariants:
        return _Invariants(self)


def _kahn(nodes: Tuple[str, ...], before, after) -> Tuple[str, ...]:
    """Kahn's pass, ties by name: each node once every node in its
    ``before`` has come, followed along ``after``; a node on or past a
    cycle never comes."""
    waiting = {n: len(before[n]) for n in nodes}
    ready = [n for n in nodes if not waiting[n]]  # sorted, so a heap
    order = []
    while ready:
        n = heapq.heappop(ready)
        order.append(n)
        for m in after[n]:
            waiting[m] -= 1
            if not waiting[m]:
                heapq.heappush(ready, m)
    return tuple(order)


class _Index:
    """Adjacency structures derived once per graph."""

    __slots__ = ("edge_map", "adjacent", "parents", "children", "directed", "bidirected")

    def __init__(self, g: MixedGraph):
        self.edge_map = {e.pair: e for e in g.edges}
        adj = {n: [] for n in g.nodes}
        par = {n: [] for n in g.nodes}
        chi = {n: [] for n in g.nodes}
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
                bidirected.append(e.pair)
        self.adjacent = {n: tuple(sorted(v)) for n, v in adj.items()}
        self.parents = {n: tuple(sorted(v)) for n, v in par.items()}
        self.children = {n: tuple(sorted(v)) for n, v in chi.items()}
        self.directed = tuple(sorted(directed))
        self.bidirected = tuple(sorted(bidirected))


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
    marks, which only arise under selection. The report is a cached
    property of the graph, so a graph is checked once.
    """
    return graph._valid


def _check(graph: MixedGraph) -> ValidityReport:
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
    elif graph.kind is GraphKind.MAG:
        for e in graph.edges:
            if Mark.CIRCLE in (e.mark_a, e.mark_b):
                v.append(f"circle mark between {e.a} and {e.b} in a MAG")

    cycle = graph._order[1]
    if cycle:
        v.append("directed cycle " + " -> ".join(cycle))
    elif graph.kind is not GraphKind.DAG:
        for a, b in graph.bidirected_edges():
            if graph.is_ancestor(a, b):
                v.append(f"almost-directed cycle: {a} is an ancestor of {b} with {a} <-> {b}")
            if graph.is_ancestor(b, a):
                v.append(f"almost-directed cycle: {b} is an ancestor of {a} with {a} <-> {b}")
    return ValidityReport(tuple(v))


# ---------------------------------------------------------------------------
# Separation
# ---------------------------------------------------------------------------

def _connected(graph: MixedGraph, x: str, y: str, z: FrozenSet[str]) -> bool:
    """Walk-based reachability: is there an open path from x to y given z?

    States are (node, mark at the node on the edge we arrived by). A walk
    may pass a node as a collider only if the node is an ancestor of z, and
    as a non-collider only if the node is outside z; this matches path
    blocking because an open walk exists iff an open path does.
    """
    idx = graph._idx
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


# ---------------------------------------------------------------------------
# CI signatures and Markov equivalence
# ---------------------------------------------------------------------------

CI_SIGNATURE_MAX_NODES = 16

CISet = FrozenSet[Tuple[str, str, Tuple[str, ...]]]


def ci_signature(graph: MixedGraph, over: Optional[Iterable[str]] = None) -> CISet:
    """The set of all separation statements among ``over``.

    Holds every (x, y, z) with x < y in ``over``, z a subset of the
    remaining ``over`` nodes, and x and y separated given z by the criterion
    matching the graph's kind. Paths traverse the full graph, so nodes
    outside ``over`` (e.g. latent variables in a DAG) are marginalised
    rather than removed.

    One reachability walk per source x decides every conditioning set at
    once (Geiger, Verma & Pearl 1990; Shachter 1998). Each (node, arrival
    mark) state holds a 2^n-bit mask, bit s for the subset s of ``over``,
    of the sets under which the walk reaches it. A state passes its bits on
    through a collider masked by the sets holding the node or one of its
    descendants, and through any other node masked by the sets without it;
    only newly set bits travel on. (x, y, z) is a statement when z's bit is
    clear in both arrival states of y. That is n walks with big-integer
    steps in place of one walk per query, n(n-1)/2 * 2^(n-2) of them.
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


# the binary digits of a mask as 0/1 bytes, for itertools.compress
_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


# a 12-node signature holds up to 67 584 statements, several MB: keep few
@lru_cache(maxsize=64)
def _signature_cached(graph: MixedGraph, scope: Tuple[str, ...]) -> CISet:
    # bit s of a mask stands for the conditioning set {scope[i] : bit i of s}
    n = len(scope)
    full = (1 << (1 << n)) - 1
    in_z = dict.fromkeys(graph.nodes, 0)  # the sets that contain the node
    for i, v in enumerate(scope):
        # bit i of s is set in runs of 2^i ones after 2^i zeros
        run = (1 << (1 << i)) - 1
        in_z[v] = (run << (1 << i)) * (full // ((run << (1 << i)) | run))
    in_anz = dict.fromkeys(graph.nodes, 0)  # ... the node or a descendant
    for v in scope:
        for a in graph.ancestors(v):
            in_anz[a] |= in_z[v]
    # (neighbor, arrowhead at v, arrowhead at the neighbor) per edge at v
    steps = {v: [] for v in graph.nodes}
    for e in graph.edges:
        arrow_a, arrow_b = e.mark_a is Mark.ARROW, e.mark_b is Mark.ARROW
        steps[e.a].append((e.b, arrow_a, arrow_b))
        steps[e.b].append((e.a, arrow_b, arrow_a))
    subsets = [()]
    for v in scope:
        subsets += [s + (v,) for s in subsets]
    found = set()
    for i, x in enumerate(scope):
        # reach[(v, arrowhead at v)]: the sets under which the walk gets there
        reach: Dict[Tuple[str, bool], int] = {}
        fresh: Dict[Tuple[str, bool], int] = {}  # bits not yet passed on
        start = full ^ in_z[x]
        for w, _, arrow in steps[x]:
            reach[(w, arrow)] = fresh[(w, arrow)] = start
        work = deque(fresh)
        while work:
            state = work.popleft()
            v, arrived_by_arrow = state
            bits = fresh.pop(state)
            pass_collider = bits & in_anz[v]
            pass_other = bits & ~in_z[v]
            for w, arrow_at_v, arrow in steps[v]:
                passed = pass_collider if arrived_by_arrow and arrow_at_v else pass_other
                new = passed & ~reach.get((w, arrow), 0)
                if new:
                    nxt = (w, arrow)
                    reach[nxt] = reach.get(nxt, 0) | new
                    if nxt not in fresh:
                        work.append(nxt)
                    fresh[nxt] = fresh.get(nxt, 0) | new
        for y in scope[i + 1:]:
            connected = reach.get((y, False), 0) | reach.get((y, True), 0)
            separated = start & ~in_z[y] & ~connected
            flags = bin(separated)[:1:-1].encode().translate(_BIT_FLAGS)
            zs = itertools.compress(subsets, flags)
            found.update(zip(itertools.repeat(x), itertools.repeat(y), zs))
    return frozenset(found)


# ---------------------------------------------------------------------------
# Inducing paths, margins and graphical Markov equivalence
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


def project_to_mag(graph: MixedGraph, observed: Iterable[str]) -> MixedGraph:
    """The MAG over ``observed`` with the separations of a valid DAG or MAG.

    Edges joining two observed nodes are kept. Two other observed nodes are
    adjacent iff an inducing path relative to the hidden nodes joins them,
    that is, iff no set of other observed nodes separates them (Richardson &
    Spirtes 2002); directed if one is an ancestor of the other, else
    bi-directed. Projected onto its own nodes, a MAG becomes its maximal
    augmentation.
    """
    if graph.kind is GraphKind.PAG:
        raise ValueError("project_to_mag expects a DAG or a MAG")
    require_valid(graph, graph.kind, "graph")
    observed = tuple(sorted(set(observed)))
    unknown = set(observed) - set(graph.nodes)
    if unknown:
        raise ValueError(f"unknown observed nodes: {sorted(unknown)}")
    hidden = set(graph.nodes) - set(observed)
    edges = [e for e in graph.edges if e.a not in hidden and e.b not in hidden]
    for x, y in itertools.combinations(observed, 2):
        if graph.has_edge(x, y) or not has_inducing_path(graph, x, y, hidden):
            continue
        if graph.is_ancestor(x, y):
            edges.append(Edge.directed(x, y))
        elif graph.is_ancestor(y, x):
            edges.append(Edge.directed(y, x))
        else:
            edges.append(Edge.bidirected(x, y))
    return MixedGraph(GraphKind.MAG, observed, tuple(edges))


def maximal_augmentation(mag: MixedGraph) -> MixedGraph:
    """``project_to_mag(mag, mag.nodes)``, a cached property of the graph:
    enumeration builds it to compare classes and prune its walk, and
    latentization compares candidates' margins with it."""
    return mag._aug


def is_collider(graph: MixedGraph, a: str, b: str, c: str) -> bool:
    """Do the edges a *-* b and b *-* c both have an arrowhead at b?"""
    return graph.mark_between(b, a) is Mark.ARROW and graph.mark_between(b, c) is Mark.ARROW


def unshielded_triples(graph: MixedGraph) -> Tuple[Tuple[str, str, str], ...]:
    """(a, b, c) with a < c, both adjacent to b and not to each other."""
    return tuple(
        (a, b, c)
        for b in graph.nodes
        for a, c in itertools.combinations(graph.adjacent(b), 2)
        if not graph.has_edge(a, c)
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
                found[path] = is_collider(graph, trail[2], trail[1], y)
            elif w in parents_of_y and graph.mark_between(w, q) is Mark.ARROW:
                grow(trail + (w,), y, parents_of_y)

    for v in graph.nodes:
        for y in graph.adjacent(v):
            parents_of_y = frozenset(graph.parents(y))
            for q in graph.adjacent(v):
                if q in parents_of_y and graph.mark_between(q, v) is Mark.ARROW:
                    grow((y, v, q), y, parents_of_y)
    return found


class _Invariants:
    """What decides a MAG's Markov equivalence class: the skeleton of its
    maximal augmentation, that graph's unshielded colliders, and the
    collider status on each of its discriminating paths."""

    __slots__ = ("skeleton", "colliders", "paths")

    def __init__(self, mag: MixedGraph):
        augmented = maximal_augmentation(mag)
        self.skeleton = frozenset(e.pair for e in augmented.edges)
        self.colliders = frozenset(
            t for t in unshielded_triples(augmented) if is_collider(augmented, *t)
        )
        self.paths = _discriminating_paths(augmented)


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
    a = mag_a._inv
    b = mag_b._inv
    if a.skeleton != b.skeleton or a.colliders != b.colliders:
        return False
    return all(a.paths[p] == b.paths[p] for p in a.paths.keys() & b.paths.keys())
