"""Brute-force reference implementations used to cross-check the fast paths.

Everything here favours obviousness over speed: separation is decided by
enumerating every simple path and applying the blocking definition node by
node, Markov equivalence and marginal MAGs by comparing or reading full CI
signatures, equivalence classes and PAGs by trying every orientation, and
the reference VBEM fit keeps one responsibility vector per row. Only usable on small inputs, which is exactly what the tests feed it.
"""
from __future__ import annotations

import itertools
import math
import random
from typing import FrozenSet, Iterable, Iterator, List, Sequence, Tuple

import numpy as np
from scipy.special import digamma, gammaln

from confinder.graphs import (
    Edge,
    GraphKind,
    Mark,
    MixedGraph,
    ci_signature,
    is_collider,
    markov_equivalent,
    unshielded_triples,
    validate,
)
from confinder.latentize import Latent, LatentizedDag, LatentSpec
from confinder.seeds import derive_seed
from confinder.vbem import (
    DEFAULT_CONVERGENCE,
    DEFAULT_ITERATION_CAP,
    DEFAULT_RESTARTS,
    Dataset,
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


def random_latentized_instance(rng: random.Random):
    """Small random model with 0-2 latents plus uniform random data."""
    names = tuple("ABCDE"[: rng.randint(3, 5)])
    edges = random_observed_dag(rng, names)
    latents = []
    for k in range(rng.randint(0, 2)):
        kids = tuple(rng.sample(names, rng.randint(2, min(3, len(names)))))
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
    prior=None,
    c: float = DEFAULT_CONVERGENCE,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    max_iterations: int = DEFAULT_ITERATION_CAP,
) -> List[VariationalState]:
    """Every restart of a fit that gives each row its own responsibilities.

    Built only from the public ``vb_m_step``, ``vb_e_step`` and ``elbo``,
    with the seed derivation, initial draw and stopping rule of
    ``run_vbem``, which keeps the first restart with the highest final
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
        q_theta = vb_m_step(model, data, q_latent, prior)
        trace = [elbo(model, data, VariationalState(q_theta, q_latent), prior)]
        for iteration in range(max_iterations):
            q_latent = vb_e_step(model, data, q_theta, q_latent)
            q_theta = vb_m_step(model, data, q_latent, prior)
            trace.append(elbo(model, data, VariationalState(q_theta, q_latent), prior))
            if iteration and abs(trace[-1] - trace[-2]) < c:
                break
        fits.append(VariationalState(q_theta, q_latent, tuple(trace)))
    return fits


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
