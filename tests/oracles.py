"""Brute-force reference implementations used to cross-check the fast paths.

Everything here favours obviousness over speed: separation is decided by
enumerating every simple path and applying the blocking definition node by
node, CI signatures by one walk per query (``d_separated`` and
``m_separated``, per-query wrappers defined here over the separation walk
``graphs._connected`` that ``has_inducing_path`` uses), hill-climbing
candidates are ordered by the full move key, Markov equivalence and marginal
MAGs by comparing or reading full CI signatures, maximal augmentations by
adding a bi-directed edge per inducing path, equivalence classes and
PAGs by trying every orientation, connected pieces by transitive
closure, latent groupings by building every partition before sorting.
For VBEM, components are found by union-find, the whole-model fit runs
every latent in one batch over all columns (the reference for ``run_vbem``'s
split into components), the row-level fit keeps one responsibility
vector per row, the sequential fit runs each restart alone, and the
per-family fit keeps one array and one ``bincount`` per family (the bits
the flat pass must reproduce). Only usable on small
inputs, which is exactly what the tests feed it.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import digamma, gammaln, xlogy

from confinder.errors import InconsistentStateError
from confinder.graphs import (
    Edge,
    GraphKind,
    Mark,
    MixedGraph,
    _connected,
    ci_signature,
    has_inducing_path,
    is_collider,
    markov_equivalent,
    unshielded_triples,
    validate,
)
from confinder.latentize import LATENT_PREFIX, Latent, LatentizedDag, LatentSpec
from confinder.seeds import derive_seed
from confinder import vbem
from confinder.vbem import (
    DEFAULT_CONVERGENCE,
    DEFAULT_RESTARTS,
    Dataset,
    ScoreReport,
    VariationalState,
    elbo,
    vb_e_step,
    vb_m_step,
)


def all_simple_paths(graph: MixedGraph, x: str, y: str) -> Iterator[Tuple[str, ...]]:
    """Yield every simple path from x to y as a tuple of nodes."""

    def extend(path):
        tip = path[-1]
        if tip == y:
            yield tuple(path)
            return
        for nxt in graph.adjacent(tip):
            if nxt not in path:
                path.append(nxt)
                yield from extend(path)
                path.pop()

    yield from extend([x])


def path_open(graph: MixedGraph, path: Tuple[str, ...], z: FrozenSet[str]) -> bool:
    """Blocking definition applied literally to one simple path.

    An interior node with arrowheads on both sides (a collider) blocks
    unless it is in z or has a descendant in z; any other interior node
    blocks exactly when it is in z.
    """
    anz = graph.ancestors(z) if z else frozenset()
    for i in range(1, len(path) - 1):
        v = path[i]
        at_v_left = graph.mark_between(v, path[i - 1])
        at_v_right = graph.mark_between(v, path[i + 1])
        if at_v_left is Mark.ARROW and at_v_right is Mark.ARROW:
            if v not in anz:
                return False
        elif v in z:
            return False
    return True


def separated_oracle(graph: MixedGraph, x: str, y: str, z: Iterable[str]) -> bool:
    """True iff every simple path between x and y is blocked by z."""
    z = frozenset(z)
    return not any(path_open(graph, p, z) for p in all_simple_paths(graph, x, y))


def all_queries(nodes: Iterable[str]) -> Iterator[Tuple[str, str, FrozenSet[str]]]:
    """Every (x, y, z) query with x < y over the given node set."""
    nodes = sorted(nodes)
    for x, y in itertools.combinations(nodes, 2):
        rest = [n for n in nodes if n != x and n != y]
        for r in range(len(rest) + 1):
            for z in itertools.combinations(rest, r):
                yield x, y, frozenset(z)


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


def d_separated(dag: MixedGraph, query: SeparationQuery) -> bool:
    """d-separation in a DAG, by one walk of ``graphs._connected``."""
    if dag.kind is not GraphKind.DAG:
        raise ValueError("d_separated expects a DAG")
    _check_query_nodes(dag, query)
    return not _connected(dag, query.x, query.y, query.z)


def m_separated(mag: MixedGraph, query: SeparationQuery) -> bool:
    """m-separation in a MAG, by one walk of ``graphs._connected``;
    bi-directed endpoints count as arrowheads."""
    if mag.kind is not GraphKind.MAG:
        raise ValueError("m_separated expects a MAG")
    _check_query_nodes(mag, query)
    return not _connected(mag, query.x, query.y, query.z)


def ci_signature_oracle(graph: MixedGraph, over: Optional[Iterable[str]] = None) -> FrozenSet:
    """``ci_signature`` by one separation query per (x, y, z), each a fresh
    reachability walk of ``d_separated`` or ``m_separated`` above, the
    per-query wrappers over ``graphs._connected``."""
    separated = d_separated if graph.kind is GraphKind.DAG else m_separated
    return frozenset(
        (x, y, tuple(sorted(z)))
        for x, y, z in all_queries(graph.nodes if over is None else over)
        if separated(graph, SeparationQuery(x, y, z))
    )


def random_dag(rng: random.Random, n_nodes: int, edge_prob: float = 0.4) -> MixedGraph:
    names = [f"V{i}" for i in range(n_nodes)]
    order = names[:]
    rng.shuffle(order)
    edges = []
    for i, j in itertools.combinations(range(n_nodes), 2):
        if rng.random() < edge_prob:
            edges.append(Edge.directed(order[i], order[j]))
    return MixedGraph(GraphKind.DAG, tuple(names), tuple(edges))


def random_skeleton(rng: random.Random, n_nodes: int, edge_prob: float) -> Tuple[Tuple[str, str], ...]:
    names = tuple(f"V{i}" for i in range(n_nodes))
    return names, tuple(
        (a, b) for a, b in itertools.combinations(names, 2) if rng.random() < edge_prob
    )


def random_edge(rng: random.Random, a: str, b: str) -> Edge:
    """a --> b, b --> a or a <-> b, each with probability 1/3."""
    kind = rng.randrange(3)
    if kind == 0:
        return Edge.directed(a, b)
    if kind == 1:
        return Edge.directed(b, a)
    return Edge.bidirected(a, b)


def orient_randomly(rng: random.Random, nodes, skeleton) -> MixedGraph:
    """One random valid MAG over a fixed skeleton (rejection sampling).

    Each pair is oriented as a directed edge (either way) or a bi-directed
    edge; invalid draws are discarded. The finest all-bidirected choice is
    not always valid, but for sparse skeletons acceptance is quick.
    """
    while True:
        edges = tuple(random_edge(rng, a, b) for a, b in skeleton)
        g = MixedGraph(GraphKind.MAG, nodes, edges)
        if validate(g).ok:
            return g


def random_mag(rng: random.Random, n_nodes: int, edge_prob: float = 0.35) -> MixedGraph:
    nodes, skeleton = random_skeleton(rng, n_nodes, edge_prob)
    return orient_randomly(rng, nodes, skeleton)


def random_non_maximal_mag(rng: random.Random, n_nodes: int, edge_prob: float = 0.3) -> MixedGraph:
    """A valid MAG that is not maximal (rejection sampling, n_nodes >= 4).

    Plants x <-> a <-> b <-> y with a --> y and b --> x on four random nodes:
    that path joins the non-adjacent x and y as an inducing path whatever
    else the graph holds. Every other pair but x-y gets a random edge with
    probability ``edge_prob``.
    """
    names = tuple(f"V{i}" for i in range(n_nodes))
    while True:
        x, a, b, y = rng.sample(names, 4)
        edges = [
            Edge.bidirected(x, a),
            Edge.bidirected(a, b),
            Edge.bidirected(b, y),
            Edge.directed(a, y),
            Edge.directed(b, x),
        ]
        taken = {e.pair for e in edges} | {tuple(sorted((x, y)))}
        for u, v in itertools.combinations(names, 2):
            if (u, v) not in taken and rng.random() < edge_prob:
                edges.append(random_edge(rng, u, v))
        g = MixedGraph(GraphKind.MAG, names, tuple(edges))
        if validate(g).ok:
            return g


def is_maximal_oracle(mag: MixedGraph) -> bool:
    """Every non-adjacent pair has a separating set (path-enumeration check)."""
    nodes = sorted(mag.nodes)
    for i, x in enumerate(nodes):
        for y in nodes[i + 1:]:
            if mag.has_edge(x, y):
                continue
            rest = [n for n in nodes if n != x and n != y]
            if not any(
                separated_oracle(mag, x, y, z)
                for r in range(len(rest) + 1)
                for z in itertools.combinations(rest, r)
            ):
                return False
    return True


def maximal_augmentation_oracle(mag: MixedGraph) -> MixedGraph:
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


def markov_equivalent_oracle(mag_a: MixedGraph, mag_b: MixedGraph) -> bool:
    """Definitional check: the two MAGs entail the same separation statements."""
    return ci_signature(mag_a) == ci_signature(mag_b)


def project_to_mag_oracle(dag: MixedGraph, observed: Sequence[str]) -> MixedGraph:
    """Marginal MAG read off the DAG's CI signature over ``observed``.

    Observed x and y are adjacent iff no set of other observed nodes
    separates them; adjacencies are oriented by ancestry in the DAG.
    """
    observed = tuple(sorted(set(observed)))
    separable = {(x, y) for (x, y, _z) in ci_signature(dag, observed)}
    edges = []
    for x, y in itertools.combinations(observed, 2):
        if (x, y) in separable:
            continue
        if dag.is_ancestor(x, y):
            edges.append(Edge.directed(x, y))
        elif dag.is_ancestor(y, x):
            edges.append(Edge.directed(y, x))
        else:
            edges.append(Edge.bidirected(x, y))
    return MixedGraph(GraphKind.MAG, observed, tuple(edges))


def random_maximal_mag(
    rng: random.Random, n_nodes: int, edge_prob: float = 0.3, max_edges: int = 5
) -> MixedGraph:
    """A valid maximal MAG with a bounded edge count (rejection sampling)."""
    while True:
        g = random_mag(rng, n_nodes, edge_prob)
        if len(g.edges) <= max_edges and is_maximal_oracle(g):
            return g


def circle_marks(rng: random.Random, mag: MixedGraph) -> MixedGraph:
    """A PAG over the MAG's edges with each mark circled with probability 1/2.

    A tail facing a circle is circled too, since tail-circle edges only
    arise under selection; the MAG stays one of the PAG's completions.
    """
    edges = []
    for e in mag.edges:
        ma = Mark.CIRCLE if rng.random() < 0.5 else e.mark_a
        mb = Mark.CIRCLE if rng.random() < 0.5 else e.mark_b
        if {ma, mb} == {Mark.TAIL, Mark.CIRCLE}:
            ma = mb = Mark.CIRCLE
        edges.append(Edge(e.a, e.b, ma, mb))
    return MixedGraph(GraphKind.PAG, mag.nodes, tuple(edges))


# -- equivalence classes and PAGs by generate-and-test -------------------------

def completions_oracle(pag: MixedGraph) -> Iterator[MixedGraph]:
    """Every valid MAG completion of the PAG: each circle mark is tried as a
    tail and as an arrowhead, in canonical slot order with tails first."""
    slots = [
        (e.pair, node)
        for e in pag.edges
        for node, mark in ((e.a, e.mark_a), (e.b, e.mark_b))
        if mark is Mark.CIRCLE
    ]
    for choice in itertools.product((Mark.TAIL, Mark.ARROW), repeat=len(slots)):
        assign = dict(zip(slots, choice))
        edges = tuple(
            Edge(
                e.a,
                e.b,
                assign.get((e.pair, e.a), e.mark_a),
                assign.get((e.pair, e.b), e.mark_b),
            )
            for e in pag.edges
        )
        g = MixedGraph(GraphKind.MAG, pag.nodes, edges)
        if validate(g).ok:
            yield g


def enumerate_oracle(source_pag: MixedGraph, origin_mag: MixedGraph) -> set:
    """Brute force: flip every circle both ways, keep valid equivalents."""
    return {g for g in completions_oracle(source_pag) if markov_equivalent(g, origin_mag)}


def reference_oracle(pag: MixedGraph):
    """The first valid completion, in the order above, with no collider on
    an unshielded triple the PAG does not orient as a collider; None when
    no completion qualifies."""
    non_colliders = [t for t in unshielded_triples(pag) if not is_collider(pag, *t)]
    return next(
        (
            g
            for g in completions_oracle(pag)
            if not any(is_collider(g, *t) for t in non_colliders)
        ),
        None,
    )


def pag_of_mag_oracle(mag: MixedGraph) -> MixedGraph:
    """The PAG of a maximal MAG by brute force over its equivalence class.

    Every same-skeleton re-orientation (each edge as ->, <- or <->) that is
    valid and Markov equivalent to the input is a class member; marks that
    agree across all members stay, the rest become circles.
    """
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


def hill_climb_order_oracle(current: MixedGraph, pag: MixedGraph, cap: int) -> List[MixedGraph]:
    """The valid single-flip neighbors of ``current`` with at most ``cap``
    bi-directed edges, sorted by the full move key: bi-directed count,
    flipped edge, flipped endpoint, new mark."""
    keyed = []
    for e in pag.edges:
        for node in e.pair:
            if e.mark_at(node) is not Mark.CIRCLE:
                continue
            other = e.other(node)
            new = Mark.ARROW if current.mark_between(node, other) is Mark.TAIL else Mark.TAIL
            g = current.with_mark(node, other, new)
            if validate(g).ok and g.bidirected_count <= cap:
                keyed.append(((g.bidirected_count, e.pair, node, new.value), g))
    return [g for _key, g in sorted(keyed, key=lambda item: item[0])]


# -- connected pieces, by transitive closure ----------------------------------

def connected_pieces_oracle(pairs: Iterable[Tuple[str, str]]) -> Tuple[FrozenSet[str], ...]:
    """The pieces the pairs span: Warshall's closure of the symmetric pair
    relation, each node's row one piece, sorted by least node."""
    pairs = list(pairs)
    nodes = sorted({n for pair in pairs for n in pair})
    linked = {(n, n) for n in nodes} | set(pairs) | {(b, a) for a, b in pairs}
    for k in nodes:
        for i in nodes:
            for j in nodes:
                if (i, k) in linked and (k, j) in linked:
                    linked.add((i, j))
    pieces = {frozenset(m for m in nodes if (n, m) in linked) for n in nodes}
    return tuple(sorted(pieces, key=min))


def block_connected(block: Sequence[Tuple[str, str]]) -> bool:
    """Do the block's pairs form one connected piece? A frontier walk that
    scans every pair at every step."""
    nodes = {n for e in block for n in e}
    start = next(iter(nodes))
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for a, b in block:
            for u, w in ((a, b), (b, a)):
                if u == v and w not in seen:
                    seen.add(w)
                    frontier.append(w)
    return seen == nodes


def split_oracle(model: LatentizedDag):
    """The observed nodes without a latent parent, and per VBEM component
    its latents and the observed nodes they touch, by union-find: a node
    with several latent parents unites them. Components by least latent."""
    group = {name: name for name in model.spec.names}

    def root(name):
        while group[name] != name:
            name = group[name]
        return name

    free, touched = [], []
    for node in model.observed:
        members = [p for p in model.dag.parents(node) if p in group]
        if not members:
            free.append(node)
            continue
        touched.append((node, members[0]))
        for other in members[1:]:
            group[root(other)] = root(members[0])
    parts: Dict[str, Tuple[set, set]] = {}
    for name in group:
        parts.setdefault(root(name), (set(), set()))[0].add(name)
    for node, member in touched:
        parts[root(member)][1].add(node)
    pieces = [(frozenset(l), frozenset(c)) for l, c in parts.values()]
    return tuple(free), sorted(pieces, key=lambda piece: min(piece[0]))


# -- latent groupings, built eagerly -----------------------------------------

def set_partitions(items: Sequence) -> Iterator[List[List]]:
    """Every partition of ``items`` into non-empty unordered blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def candidate_groupings_oracle(mag: MixedGraph) -> List[LatentSpec]:
    """Every connectivity-respecting grouping as one list: all partitions
    of the bi-directed edges are built first, then deduplicated and sorted
    by latent count and children sets."""
    specs = []
    for part in set_partitions(list(mag.bidirected_edges())):
        if not all(block_connected(block) for block in part):
            continue
        groups = sorted(tuple(sorted({n for e in block for n in e})) for block in part)
        specs.append(
            LatentSpec(
                tuple(
                    Latent(f"{LATENT_PREFIX}{i}", children)
                    for i, children in enumerate(groups, start=1)
                )
            )
        )
    unique = list(dict.fromkeys(specs))
    unique.sort(key=lambda s: (len(s), tuple(l.children for l in s.latents)))
    return unique


# -- exact Bayesian scores, pure python ---------------------------------------

def _log_beta(vec) -> float:
    return sum(math.lgamma(v) for v in vec) - math.lgamma(sum(vec))


def exact_conjugate_score(cards, parents, rows, alpha=1.0) -> float:
    """Closed-form log marginal likelihood of complete discrete data.

    cards: name -> cardinality; parents: name -> parent tuple; rows: list
    of name -> value dicts covering every variable. Zero-count parent
    configurations contribute log B(alpha)/B(alpha) = 0 and are skipped.
    """
    total = 0.0
    for node in sorted(cards):
        par = tuple(parents.get(node, ()))
        counts = {}
        for row in rows:
            j = tuple(row[p] for p in par)
            vec = counts.setdefault(j, [0] * cards[node])
            vec[row[node]] += 1
        prior = [alpha] * cards[node]
        for vec in counts.values():
            total += _log_beta([a + n for a, n in zip(prior, vec)]) - _log_beta(prior)
    return total


def exact_latent_marginal(cards, parents, observed_rows, latent_names, alpha=1.0) -> float:
    """log p(D) by summing the conjugate score over every latent completion.

    Exponential in rows x latents; callers keep instances tiny.
    """
    latent_names = list(latent_names)
    combos = list(itertools.product(*[range(cards[l]) for l in latent_names]))
    scores = []
    for completion in itertools.product(combos, repeat=len(observed_rows)):
        rows = [
            dict(row, **dict(zip(latent_names, values)))
            for row, values in zip(observed_rows, completion)
        ]
        scores.append(exact_conjugate_score(cards, parents, rows, alpha))
    top = max(scores)
    return top + math.log(sum(math.exp(s - top) for s in scores))


# -- random latent models and a row-level VBEM reference -----------------------

def random_observed_dag(rng: random.Random, names) -> list:
    return [
        Edge.directed(a, b)
        for i, a in enumerate(names)
        for b in names[i + 1 :]
        if rng.random() < 0.4
    ]


def random_latentized_instance(rng: random.Random, max_latents: int = 2, components: int = 1):
    """Small random model with 0 to ``max_latents`` latents plus uniform
    random data.

    With ``components`` above 1 the model holds at least that many latent
    components: it has 5-7 observed nodes dealt into that many disjoint
    blocks, and ``components`` to ``max_latents`` latents, latent i taking
    its children from block i modulo ``components``.
    """
    if components > 1:
        names = tuple("ABCDEFG"[: rng.randint(max(5, 2 * components), 7)])
    else:
        names = tuple("ABCDE"[: rng.randint(3, 5)])
    edges = random_observed_dag(rng, names)
    if components > 1:
        shuffled = rng.sample(names, len(names))
        blocks = [shuffled[i::components] for i in range(components)]
        draws = [blocks[k % components] for k in range(rng.randint(components, max_latents))]
    else:
        draws = [names] * rng.randint(0, max_latents)
    latents = []
    for k, pool in enumerate(draws):
        kids = tuple(rng.sample(pool, rng.randint(2, min(3, len(pool)))))
        latent = Latent(f"_L{k + 1}", kids, rng.randint(2, 3))
        latents.append(latent)
        edges.extend(Edge.directed(latent.name, c) for c in latent.children)
    dag = MixedGraph(
        GraphKind.DAG,
        names + tuple(l.name for l in latents),
        tuple(edges),
    )
    model = LatentizedDag(dag, LatentSpec(tuple(latents)))
    cards = {n: rng.randint(2, 3) for n in names}
    rows = [
        [rng.randrange(cards[n]) for n in names]
        for _ in range(rng.randint(5, 50))
    ]
    data = Dataset([(n, cards[n]) for n in names], rows)
    return model, data


def reference_vbem(
    model: LatentizedDag,
    data: Dataset,
    c: float = DEFAULT_CONVERGENCE,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> List[VariationalState]:
    """Every restart of a fit that gives each row its own responsibilities.

    Built only from the public ``vb_m_step``, ``vb_e_step`` and ``elbo``,
    with the seed derivation, initial draw and stopping rule of
    ``whole_vbem``, which keeps the first restart with the highest final
    bound.
    """
    names = sorted(model.spec.names)
    fits = []
    for restart in range(restarts):
        rng = np.random.default_rng(derive_seed(seed, "restart", restart))
        q_latent = {
            name: rng.dirichlet(np.ones(model.spec.states_of(name)), size=data.n_rows)
            for name in names
        }
        q_theta = vb_m_step(model, data, q_latent)
        trace = [elbo(model, data, VariationalState(q_theta, q_latent))]
        for iteration in range(vbem.ITERATION_CAP):
            q_latent = vb_e_step(model, data, q_theta, q_latent)
            q_theta = vb_m_step(model, data, q_latent)
            trace.append(elbo(model, data, VariationalState(q_theta, q_latent)))
            if iteration and abs(trace[-1] - trace[-2]) < c:
                break
        fits.append(VariationalState(q_theta, q_latent, tuple(trace)))
    return fits


def distinct_rows(data: Dataset) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows over every column, each observation's index among
    them, and their counts: ``vbem.FitMemo.distinct`` of all columns."""
    rows, inverse, counts = np.unique(
        data.rows, axis=0, return_inverse=True, return_counts=True
    )
    return rows, inverse.reshape(-1), counts.astype(float)


def _initial_draw(binding, data: Dataset, seed: int, restart: int) -> dict:
    """``whole_vbem``'s initial responsibilities for one restart, as a batch
    of one: a flat Dirichlet draw per row, averaged over identical rows."""
    _rows, inverse, counts = distinct_rows(data)
    rng = np.random.default_rng(derive_seed(seed, "restart", restart))
    return {
        name: vbem._group_means(
            rng.dirichlet(np.ones(binding.latent_cards[name]), size=data.n_rows),
            inverse,
            counts,
        ).T[None]
        for name in binding.latent_names
    }


def _distinct_binding(model: LatentizedDag, data: Dataset):
    rows, _inverse, counts = distinct_rows(data)
    return vbem._bind_model(model, data, rows, counts)


def whole_vbem(
    model: LatentizedDag,
    data: Dataset,
    c: float = DEFAULT_CONVERGENCE,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    deadline: Optional[float] = None,
) -> Tuple[VariationalState, ScoreReport]:
    """The whole-model flat fit: every latent in one batch of restarts over
    the distinct rows of all columns, seeded by ``seed`` itself.

    ``run_vbem`` fits the same bound split into its components, each over
    the distinct rows of its own columns; this is the reference the split
    is checked against. It runs ``vbem``'s own batch (``_draw`` and
    ``_run_batch``) on a binding of the whole model.
    """
    binding = _distinct_binding(model, data)
    _rows, inverse, counts = distinct_rows(data)
    if not binding.latent_names:
        value = binding.constant
        state = VariationalState(binding.full_q_theta({}), {}, (value,))
        return state, ScoreReport(value, vbem.p_elbo(value, model.spec), 1, True, 1)
    draw = vbem._draw(binding, inverse, counts, seed, restarts)
    fit = vbem._run_batch(binding, draw, c, deadline)
    state = VariationalState(
        binding.full_q_theta(fit.tables),
        {name: q.T[inverse] for name, q in fit.q_latent.items()},
        fit.trace,
    )
    value = state.elbo_trace[-1]
    report = ScoreReport(value, vbem.p_elbo(value, model.spec), len(state.elbo_trace),
                         fit.converged, restarts)
    return state, report


def sequential_vbem(
    model: LatentizedDag,
    data: Dataset,
    c: float = DEFAULT_CONVERGENCE,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> List[Tuple[VariationalState, bool]]:
    """Every restart of ``whole_vbem`` run alone, one after another.

    Each restart is a batch of one through the fit's own pass (the
    binding's ``m_step``, ``bound`` and ``e_step``), from the same initial
    draw, in the loop that ran restarts in turn: it stops after a pass, not
    the first, that improves the bound by less than ``c``, or after
    ``vbem.ITERATION_CAP`` passes. Returns each restart's state over the
    distinct rows and whether it converged.
    """
    binding = _distinct_binding(model, data)
    fits = []
    for restart in range(restarts):
        q_latent = _initial_draw(binding, data, seed, restart)
        buffer = binding.m_step(q_latent)
        trace = [float(binding.bound(buffer, q_latent)[0])]
        converged = False
        for iteration in range(vbem.ITERATION_CAP):
            q_latent = binding.e_step(buffer, q_latent)
            buffer = binding.m_step(q_latent)
            trace.append(float(binding.bound(buffer, q_latent)[0]))
            if iteration and abs(trace[-1] - trace[-2]) < c:
                converged = True
                break
        state = VariationalState(
            binding.full_q_theta(binding.tables(buffer[0])),
            {name: q[0].T for name, q in q_latent.items()},
            tuple(trace),
        )
        fits.append((state, converged))
    return fits


# -- the per-family batched steps: the fit's bits before the flat pass --------
#
# Each dynamic family is its own restarts x configurations x states array:
# one ``bincount`` per family in the M-step, and the row sums taken once for
# the E-step's ``digamma`` and again for the bound's ``gammaln``. The flat
# pass in ``vbem`` must reproduce these bits exactly.

def _batch_cells(family, restarts: int) -> np.ndarray:
    """The flat cells of a batch of ``restarts`` tables laid end to end:
    restart r's cells are offset by r table sizes."""
    shift = math.prod(family.table_shape) * np.arange(restarts)
    return (shift[:, None, None] + family.cells).ravel()


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


def _member_operands(family, q_latent, skip=None) -> list:
    """``np.einsum`` operands that put each member's responsibilities (but
    ``skip``'s) on the member's axis of the restart x configuration x row
    cells."""
    rows = len(family.members) + 1
    operands = []
    for axis, member in enumerate(family.members, 1):
        if member != skip:
            operands += [q_latent[member], [0, axis, rows]]
    return operands


def _e_step(binding, q_theta, q_latent) -> Dict[str, np.ndarray]:
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


def _m_step(binding, q_latent) -> Dict[str, np.ndarray]:
    """``alpha`` plus expected counts for every dynamic family: one weighted
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
            _batch_cells(family, restarts), weights=joint.ravel(),
            minlength=restarts * math.prod(family.table_shape),
        )
        q_theta[family.node] = counts.reshape(restarts, *family.table_shape) + vbem.ALPHA
    return q_theta


def _elbo(binding, q_theta, q_latent) -> np.ndarray:
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


def per_family_constant(binding) -> float:
    """The binding's constant bound terms, one ``gammaln`` call per table."""
    def log_beta(table):
        return float(np.sum(gammaln(table).sum(axis=-1) - gammaln(table.sum(axis=-1))))

    families = binding.families.values()
    return sum(
        log_beta(f.static_posterior) for f in families if f.static_posterior is not None
    ) - sum(log_beta(np.full(f.table_shape, vbem.ALPHA)) for f in families)


def per_family_vbem(
    model: LatentizedDag,
    data: Dataset,
    c: float = DEFAULT_CONVERGENCE,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> Tuple[VariationalState, ScoreReport]:
    """``whole_vbem`` (without a deadline) on the per-family steps: every
    restart advances in one batch and leaves it, state frozen, once its own
    stopping rule fires; the first restart with the best final bound wins."""
    binding = _distinct_binding(model, data)
    _rows, inverse, _counts = distinct_rows(data)
    if not binding.latent_names:
        value = per_family_constant(binding)
        report = ScoreReport(value, vbem.p_elbo(value, model.spec), 1, True, 1)
        return VariationalState(binding.full_q_theta({}), {}, (value,)), report
    draws = [_initial_draw(binding, data, seed, r) for r in range(restarts)]
    q_latent = {
        name: np.concatenate([draw[name] for draw in draws])
        for name in binding.latent_names
    }
    q_theta = _m_step(binding, q_latent)
    bounds = _elbo(binding, q_theta, q_latent)
    traces = [[value] for value in bounds.tolist()]
    running = list(range(restarts))
    frozen = {}

    def freeze(positions, converged):
        for i in positions:
            frozen[running[i]] = (
                {node: table[i] for node, table in q_theta.items()},
                {name: q[i] for name, q in q_latent.items()},
                converged,
            )

    for iteration in range(vbem.ITERATION_CAP):
        q_latent = _e_step(binding, q_theta, q_latent)
        q_theta = _m_step(binding, q_latent)
        previous, bounds = bounds, _elbo(binding, q_theta, q_latent)
        for restart, value in zip(running, bounds.tolist()):
            traces[restart].append(value)
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
    report = ScoreReport(value, vbem.p_elbo(value, model.spec), len(state.elbo_trace),
                         converged, restarts)
    return state, report


# -- literal VB steps: one row and one joint latent configuration at a time ----

def _cards(model: LatentizedDag, data: Dataset) -> dict:
    cards = {name: data.cardinality(name) for name in data.names}
    cards.update((l.name, l.states) for l in model.spec.latents)
    return cards


def _cell(model: LatentizedDag, cards: dict, node: str, values: dict) -> Tuple[int, int]:
    """(parent configuration, state) of ``node`` under a full assignment;
    configurations count over the sorted parents, the last one fastest."""
    config = 0
    for parent in model.dag.parents(node):
        config = config * cards[parent] + values[parent]
    return config, values[node]


def _completions(model: LatentizedDag, data: Dataset, cards: dict, names):
    """Every (row index, full assignment) with the latents ``names`` set to
    each joint configuration in turn."""
    for i in range(data.n_rows):
        observed = {name: int(data.column(name)[i]) for name in data.names}
        for combo in itertools.product(*(range(cards[n]) for n in names)):
            yield i, combo, dict(observed, **dict(zip(names, combo)))


def _expected_log(q_theta):
    return {
        node: digamma(t) - digamma(t.sum(axis=1, keepdims=True))
        for node, t in q_theta.items()
    }


def m_step_oracle(model: LatentizedDag, data: Dataset, q_latent, alpha: float = 1.0):
    """Prior plus expected counts: every row and joint configuration of all
    latents adds its responsibility product to one cell of every family."""
    cards = _cards(model, data)
    latents = sorted(model.spec.names)
    tables = {
        node: np.full(
            (int(np.prod([cards[p] for p in model.dag.parents(node)])), cards[node]),
            float(alpha),
        )
        for node in model.dag.nodes
    }
    for i, combo, values in _completions(model, data, cards, latents):
        weight = 1.0
        for name, state in zip(latents, combo):
            weight *= q_latent[name][i, state]
        for node in model.dag.nodes:
            tables[node][_cell(model, cards, node, values)] += weight
    return tables


def e_step_oracle(model: LatentizedDag, data: Dataset, q_theta, q_latent):
    """Sequential mean-field sweep in sorted latent order: each latent's new
    row responsibility is proportional to exp of the expected log joint of
    the row over the other latents' current responsibilities."""
    cards = _cards(model, data)
    elog = _expected_log(q_theta)
    latents = sorted(model.spec.names)
    q = {name: np.array(q_latent[name], dtype=float) for name in latents}
    for latent in latents:
        others = [name for name in latents if name != latent]
        scores = np.zeros((data.n_rows, cards[latent]))
        for state in range(cards[latent]):
            for i, combo, values in _completions(model, data, cards, others):
                values[latent] = state
                weight = 1.0
                for name, s in zip(others, combo):
                    weight *= q[name][i, s]
                scores[i, state] += weight * sum(
                    elog[node][_cell(model, cards, node, values)]
                    for node in model.dag.nodes
                )
        fresh = np.empty_like(scores)
        for i, row in enumerate(scores):
            exps = [math.exp(v - max(row)) for v in row]
            fresh[i] = [e / sum(exps) for e in exps]
        q[latent] = fresh
    return q


def elbo_oracle(model: LatentizedDag, data: Dataset, q_theta, q_latent, alpha: float = 1.0) -> float:
    """The mean-field bound from its definition, valid at any ``q_theta``:
    expected log joint plus the responsibilities' entropy minus the KL
    divergence of every posterior Dirichlet row from its prior row."""
    cards = _cards(model, data)
    elog = _expected_log(q_theta)
    latents = sorted(model.spec.names)
    total = 0.0
    for i, combo, values in _completions(model, data, cards, latents):
        weight = 1.0
        for name, state in zip(latents, combo):
            weight *= q_latent[name][i, state]
        total += weight * sum(
            elog[node][_cell(model, cards, node, values)] for node in model.dag.nodes
        )
    for name in latents:
        total -= sum(p * math.log(p) for p in q_latent[name].ravel() if p > 0)
    for node in model.dag.nodes:
        for post in q_theta[node]:
            prior = np.full(len(post), float(alpha))
            total -= (
                gammaln(post.sum()) - gammaln(post).sum()
                - gammaln(prior.sum()) + gammaln(prior).sum()
                + float(np.dot(post - prior, digamma(post) - digamma(post.sum())))
            )
    return total


def three_latent_parent_instance():
    """B has three latent parents (2, 3 and 2 states) and an observed one;
    A and C each share one latent with B, D shares two, all observed nodes
    have 2 or 3 states, and 40 rows are drawn uniformly."""
    latents = (
        Latent("_L1", ("A", "B"), 2),
        Latent("_L2", ("B", "C", "D"), 3),
        Latent("_L3", ("B", "D"), 2),
    )
    edges = [Edge.directed("A", "B")]
    edges += [Edge.directed(l.name, c) for l in latents for c in l.children]
    names = ("A", "B", "C", "D")
    dag = MixedGraph(GraphKind.DAG, names + tuple(l.name for l in latents), tuple(edges))
    model = LatentizedDag(dag, LatentSpec(latents))
    cards = {"A": 2, "B": 3, "C": 2, "D": 3}
    rng = random.Random(3)
    rows = [[rng.randrange(cards[n]) for n in names] for _ in range(40)]
    return model, Dataset([(n, cards[n]) for n in names], rows)


def many_state_instance(rng: random.Random):
    """A latent over A and B, where A has 9-10 states and an observed
    parent C of 4-5 states: A's table has 9 or more states under 8 or more
    parent configurations, so numpy sums its rows, and the bound its
    configurations, pairwise. 40 to 120 rows are drawn uniformly."""
    latent = Latent("_L1", ("A", "B"), rng.randint(2, 3))
    edges = (Edge.directed("C", "A"),) + tuple(
        Edge.directed(latent.name, child) for child in latent.children
    )
    dag = MixedGraph(GraphKind.DAG, ("A", "B", "C", latent.name), edges)
    model = LatentizedDag(dag, LatentSpec((latent,)))
    cards = {"A": rng.randint(9, 10), "B": rng.randint(2, 3), "C": rng.randint(4, 5)}
    rows = [[rng.randrange(cards[n]) for n in "ABC"] for _ in range(rng.randint(40, 120))]
    return model, Dataset([(n, cards[n]) for n in "ABC"], rows)
