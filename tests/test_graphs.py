import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confinder import graphs
from confinder.graphs import (
    Edge,
    GraphKind,
    Mark,
    MixedGraph,
    ci_signature,
    has_inducing_path,
    markov_equivalent,
    maximal_augmentation,
    project_to_mag,
    validate,
)
from oracles import (
    SeparationQuery,
    all_queries,
    ci_signature_oracle,
    d_separated,
    is_maximal_oracle,
    m_separated,
    markov_equivalent_oracle,
    maximal_augmentation_oracle,
    orient_randomly,
    random_dag,
    random_mag,
    random_non_maximal_mag,
    random_skeleton,
    separated_oracle,
)


def dag(nodes, *edges):
    return MixedGraph(GraphKind.DAG, tuple(nodes), tuple(edges))


def mag(nodes, *edges):
    return MixedGraph(GraphKind.MAG, tuple(nodes), tuple(edges))


# -- construction ----------------------------------------------------------

def test_edge_endpoints_are_normalised():
    e = Edge.directed("B", "A")
    assert (e.a, e.b) == ("A", "B")
    assert e.mark_at("B") is Mark.TAIL
    assert e.mark_at("A") is Mark.ARROW
    assert e.directed_pair() == ("B", "A")


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        Edge.directed("A", "A")


def test_duplicate_pair_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        mag("AB", Edge.directed("A", "B"), Edge.bidirected("A", "B"))


def test_edge_with_undeclared_node_rejected():
    with pytest.raises(ValueError, match="undeclared"):
        dag("AB", Edge.directed("A", "C"))


def test_nodes_and_edges_are_sorted():
    g = dag(("C", "A", "B"), Edge.directed("B", "C"), Edge.directed("A", "B"))
    assert g.nodes == ("A", "B", "C")
    assert [e.pair for e in g.edges] == [("A", "B"), ("B", "C")]


def test_ancestors_and_descendants():
    g = dag("ABCD", Edge.directed("A", "B"), Edge.directed("B", "C"), Edge.directed("D", "C"))
    assert g.ancestors({"C"}) == {"A", "B", "C", "D"}
    assert g.ancestors({"C"}, include_self=False) == {"A", "B", "D"}
    assert g.is_ancestor("A", "C")
    assert not g.is_ancestor("C", "A")
    assert not g.is_ancestor("A", "A")


def test_topological_order_is_canonical():
    g = dag("ABCD", Edge.directed("D", "B"), Edge.directed("A", "B"), Edge.directed("B", "C"))
    assert g.topological_order() == ("A", "D", "B", "C")


def test_with_mark_replaces_one_endpoint():
    g = mag("AB", Edge.bidirected("A", "B"))
    h = g.with_mark("A", "B", Mark.TAIL)
    assert h.edge_between("A", "B").mark_at("A") is Mark.TAIL
    assert h.edge_between("A", "B").mark_at("B") is Mark.ARROW
    # original untouched
    assert g.edge_between("A", "B").mark_at("A") is Mark.ARROW


# -- validity --------------------------------------------------------------

def test_directed_cycle_is_a_violation():
    # A->B plus B->A would collide on the same node pair, so the smallest
    # representable cycle uses three nodes
    g = dag("ABC", Edge.directed("A", "B"), Edge.directed("B", "C"), Edge.directed("C", "A"))
    report = validate(g)
    assert not report.ok
    assert any("cycle" in v for v in report.violations)


def test_almost_directed_cycle_is_a_violation():
    # A is an ancestor of B through C, and A <-> B: not ancestral
    g = mag("ABC", Edge.directed("A", "C"), Edge.directed("C", "B"), Edge.bidirected("A", "B"))
    report = validate(g)
    assert not report.ok
    assert any("almost-directed" in v for v in report.violations)


def test_single_bidirected_edge_is_a_valid_mag():
    assert validate(mag("AB", Edge.bidirected("A", "B"))).ok


def test_circle_marks_invalid_in_mag():
    g = mag("AB", Edge.circle_circle("A", "B"))
    assert any("circle" in v for v in validate(g).violations)


def test_undirected_edge_rejected_everywhere():
    for kind in GraphKind:
        g = MixedGraph(kind, ("A", "B"), (Edge("A", "B", Mark.TAIL, Mark.TAIL),))
        assert any("selection bias" in v for v in validate(g).violations)


def test_tail_circle_rejected_in_pag():
    g = MixedGraph(GraphKind.PAG, ("A", "B"), (Edge("A", "B", Mark.TAIL, Mark.CIRCLE),))
    assert any("selection bias" in v for v in validate(g).violations)


def test_valid_pag_with_circles():
    g = MixedGraph(
        GraphKind.PAG,
        ("A", "B", "C"),
        (Edge.circle_arrow("A", "B"), Edge.circle_circle("B", "C")),
    )
    assert validate(g).ok


def test_non_directed_edge_invalid_in_dag():
    g = MixedGraph(GraphKind.DAG, ("A", "B"), (Edge.bidirected("A", "B"),))
    assert any("non-directed" in v for v in validate(g).violations)


@given(st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_random_dags_validate(seed):
    rng = random.Random(seed)
    assert validate(random_dag(rng, 6)).ok


# -- separation ------------------------------------------------------------

def test_chain_blocked_by_middle():
    g = dag("ABC", Edge.directed("A", "B"), Edge.directed("B", "C"))
    assert d_separated(g, SeparationQuery("A", "C", {"B"}))
    assert not d_separated(g, SeparationQuery("A", "C"))


def test_collider_rules():
    g = dag("ABC", Edge.directed("A", "C"), Edge.directed("B", "C"))
    assert d_separated(g, SeparationQuery("A", "B"))
    assert not d_separated(g, SeparationQuery("A", "B", {"C"}))


def test_collider_opened_by_descendant():
    g = dag("ABCD", Edge.directed("A", "C"), Edge.directed("B", "C"), Edge.directed("C", "D"))
    assert not d_separated(g, SeparationQuery("A", "B", {"D"}))


def test_bidirected_chain_middle_is_collider():
    g = mag("X1 X2 X3".split(), Edge.bidirected("X1", "X2"), Edge.bidirected("X2", "X3"))
    assert m_separated(g, SeparationQuery("X1", "X3"))
    assert not m_separated(g, SeparationQuery("X1", "X3", {"X2"}))
    assert separated_oracle(g, "X1", "X3", set())
    assert not separated_oracle(g, "X1", "X3", {"X2"})


def test_query_validation():
    with pytest.raises(ValueError):
        SeparationQuery("A", "A")
    with pytest.raises(ValueError):
        SeparationQuery("A", "B", {"A"})
    g = dag("AB", Edge.directed("A", "B"))
    with pytest.raises(ValueError, match="unknown node"):
        d_separated(g, SeparationQuery("A", "Q"))


def test_kind_mismatch_rejected():
    g = dag("AB", Edge.directed("A", "B"))
    with pytest.raises(ValueError):
        m_separated(g, SeparationQuery("A", "B"))
    with pytest.raises(ValueError):
        d_separated(g.with_kind(GraphKind.MAG), SeparationQuery("A", "B"))


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_d_separation_matches_path_oracle(seed):
    rng = random.Random(seed)
    g = random_dag(rng, 5)
    for x, y, z in all_queries(g.nodes):
        assert d_separated(g, SeparationQuery(x, y, z)) == separated_oracle(g, x, y, z), (
            g.edges,
            (x, y, z),
        )


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_m_separation_matches_path_oracle(seed):
    rng = random.Random(seed)
    g = random_mag(rng, 5)
    for x, y, z in all_queries(g.nodes):
        assert m_separated(g, SeparationQuery(x, y, z)) == separated_oracle(g, x, y, z), (
            g.edges,
            (x, y, z),
        )


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_m_separation_reduces_to_d_separation_without_bidirected_edges(seed):
    rng = random.Random(seed)
    g = random_dag(rng, 6)
    as_mag = g.with_kind(GraphKind.MAG)
    for x, y, z in all_queries(g.nodes):
        q = SeparationQuery(x, y, z)
        assert d_separated(g, q) == m_separated(as_mag, q)


# -- CI signatures ---------------------------------------------------------

def test_empty_graph_signature_is_everything():
    g = mag("AB")
    assert ci_signature(g) == {("A", "B", ())}


def test_common_cause_connects_children():
    g = dag("ABL", Edge.directed("L", "A"), Edge.directed("L", "B"))
    sig = ci_signature(g, over={"A", "B"})
    assert ("A", "B", ()) not in sig
    # conditioning on the latent is outside the marginal scope by design
    assert sig == frozenset()


def test_bidirected_chain_matches_two_latent_dag():
    m = mag("X1 X2 X3".split(), Edge.bidirected("X1", "X2"), Edge.bidirected("X2", "X3"))
    d = dag(
        "X1 X2 X3 _L1 _L2".split(),
        Edge.directed("_L1", "X1"),
        Edge.directed("_L1", "X2"),
        Edge.directed("_L2", "X2"),
        Edge.directed("_L2", "X3"),
    )
    over = {"X1", "X2", "X3"}
    assert ci_signature(m, over) == ci_signature(d, over)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_signature_matches_per_query_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    kind = rng.randrange(3)
    if kind == 0:
        g = random_dag(rng, n, rng.choice((0.3, 0.5)))
        # the hidden nodes are marginalised, not removed
        over = rng.sample(g.nodes, rng.randint(0, n))
    elif kind == 1:
        g, over = random_mag(rng, n), None
    else:
        g, over = random_non_maximal_mag(rng, max(n, 4)), None
    assert ci_signature(g, over) == ci_signature_oracle(g, over)


def test_signature_of_tiny_scopes_is_empty():
    g = dag("ABC", Edge.directed("A", "B"), Edge.directed("B", "C"))
    for over in ((), ("B",)):
        assert ci_signature(g, over) == frozenset() == ci_signature_oracle(g, over)


def test_signature_with_isolated_nodes():
    g = mag("ABCD", Edge.bidirected("A", "B"))
    sig = ci_signature(g)
    assert sig == ci_signature_oracle(g)
    assert ("C", "D", ("A", "B")) in sig
    assert not any(x == "A" and y == "B" for x, y, _z in sig)


def test_hidden_collider_opens_only_through_an_observed_descendant():
    # H has no observed descendant, so conditioning never opens A -> H <- B;
    # K's observed child D does open A -> K <- C
    g = dag(
        "A B C D H K L M".split(),
        Edge.directed("A", "H"),
        Edge.directed("B", "H"),
        Edge.directed("H", "L"),
        Edge.directed("A", "K"),
        Edge.directed("C", "K"),
        Edge.directed("K", "D"),
        Edge.directed("M", "L"),
    )
    over = ("A", "B", "C", "D")
    sig = ci_signature(g, over)
    assert sig == ci_signature_oracle(g, over)
    assert {("A", "B", z) for z in ((), ("C",), ("D",), ("C", "D"))} <= sig
    assert ("A", "C", ()) in sig
    assert ("A", "C", ("D",)) not in sig


def test_signature_guard():
    g = mag([f"N{i:02d}" for i in range(17)])
    with pytest.raises(ValueError, match="guard"):
        ci_signature(g)


def test_signature_scope_must_exist():
    with pytest.raises(ValueError, match="unknown"):
        ci_signature(mag("AB"), over={"A", "Q"})


def test_signature_invariant_under_latent_relabeling():
    base = dag(
        "A B L1".split(),
        Edge.directed("L1", "A"),
        Edge.directed("L1", "B"),
        Edge.directed("A", "B"),
    )
    renamed = dag(
        "A B Z9".split(),
        Edge.directed("Z9", "A"),
        Edge.directed("Z9", "B"),
        Edge.directed("A", "B"),
    )
    assert ci_signature(base, {"A", "B"}) == ci_signature(renamed, {"A", "B"})


# -- Markov equivalence ------------------------------------------------------

def test_two_node_orientations_equivalent():
    a = mag("AB", Edge.directed("A", "B"))
    b = mag("AB", Edge.bidirected("A", "B"))
    assert markov_equivalent(a, b)


def test_collider_vs_chain_not_equivalent():
    collider = mag("ABC", Edge.directed("A", "C"), Edge.directed("B", "C"))
    chain = mag("ABC", Edge.directed("A", "C"), Edge.directed("C", "B"))
    assert not markov_equivalent(collider, chain)


def test_equivalence_requires_same_nodes():
    with pytest.raises(ValueError, match="node set"):
        markov_equivalent(mag("AB"), mag("AC"))


def test_equivalence_requires_mags():
    with pytest.raises(ValueError):
        markov_equivalent(dag("AB"), mag("AB"))


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_equivalence_reflexive_symmetric_transitive(seed):
    rng = random.Random(seed)
    nodes, skeleton = random_skeleton(rng, 4, 0.5)
    trio = [orient_randomly(rng, nodes, skeleton) for _ in range(3)]
    for g in trio:
        assert markov_equivalent(g, g)
    a, b, c = trio
    assert markov_equivalent(a, b) == markov_equivalent(b, a)
    if markov_equivalent(a, b) and markov_equivalent(b, c):
        assert markov_equivalent(a, c)


def test_equivalence_requires_valid_mags():
    cyclic = mag("ABC", Edge.directed("A", "B"), Edge.directed("B", "C"), Edge.directed("C", "A"))
    with pytest.raises(ValueError, match="not valid"):
        markov_equivalent(cyclic, cyclic)


def test_each_graph_fact_is_derived_once(monkeypatch):
    # the index, validity report, maximal augmentation and equivalence
    # invariants are cached properties of the graph: asked for again, each
    # is read back, not derived again
    derived = []

    def count_calls_of(name):
        original = getattr(graphs, name)

        def wrapper(graph, *args):
            derived.append((name, graph))
            return original(graph, *args)

        monkeypatch.setattr(graphs, name, wrapper)

    for name in ("_Index", "_check", "project_to_mag", "_Invariants"):
        count_calls_of(name)
    g = mag("ABCD", Edge.directed("A", "B"), Edge.bidirected("B", "C"), Edge.directed("D", "C"))
    assert g.parents("B") == ("A",) and g.adjacent("C") == ("B", "D")
    assert validate(g).ok and validate(g) is validate(g)
    assert maximal_augmentation(g) is maximal_augmentation(g)
    assert g.parents("C") == ("D",) and g.adjacent("B") == ("A", "C")
    assert markov_equivalent(g, g)
    assert sorted(name for name, graph in derived if graph is g) == [
        "_Index", "_Invariants", "_check", "project_to_mag",
    ]


def test_augmentation_of_non_maximal_mag_is_equivalent_with_another_skeleton():
    # X <-> A <-> B <-> Y with A --> Y and B --> X: an inducing path joins X
    # and Y, so no set separates them though they are non-adjacent
    m = mag(
        "ABXY",
        Edge.bidirected("X", "A"),
        Edge.bidirected("A", "B"),
        Edge.bidirected("B", "Y"),
        Edge.directed("A", "Y"),
        Edge.directed("B", "X"),
    )
    assert has_inducing_path(m, "X", "Y")
    full = project_to_mag(m, m.nodes)
    assert set(full.edges) == set(m.edges) | {Edge.bidirected("X", "Y")}
    assert markov_equivalent(m, full)
    assert markov_equivalent_oracle(m, full)


def test_discriminating_path_decides_collider_status():
    # <X, Q, V, Y> discriminates V: X *-> Q <-* V with Q --> Y, X and Y
    # non-adjacent; the two graphs differ only in V's collider status there
    edges = (Edge.bidirected("Q", "X"), Edge.directed("Q", "Y"))
    collider = mag("QVXY", *edges, Edge.bidirected("Q", "V"), Edge.bidirected("V", "Y"))
    non_collider = mag("QVXY", *edges, Edge.directed("V", "Q"), Edge.directed("V", "Y"))
    assert validate(collider).ok and validate(non_collider).ok
    assert not markov_equivalent(collider, non_collider)
    assert not markov_equivalent_oracle(collider, non_collider)


def test_inducing_path_relative_to_hidden_nodes():
    g = dag("ABL", Edge.directed("L", "A"), Edge.directed("L", "B"))
    assert has_inducing_path(g, "A", "B", hidden={"L"})
    assert not has_inducing_path(g, "A", "B")
    with pytest.raises(ValueError):
        has_inducing_path(g, "A", "A")
    with pytest.raises(ValueError, match="unknown"):
        has_inducing_path(g, "A", "Q")


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_equivalence_matches_signature_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 6)
    nodes, skeleton = random_skeleton(rng, n, rng.choice((0.3, 0.5, 0.7)))
    same_skeleton = [orient_randomly(rng, nodes, skeleton) for _ in range(2)]
    other_skeleton = random_mag(rng, n, 0.5)
    non_maximal = random_non_maximal_mag(rng, n)
    pairs = [
        tuple(same_skeleton),
        (same_skeleton[0], other_skeleton),
        (non_maximal, random_non_maximal_mag(rng, n)),
        (non_maximal, other_skeleton),
    ]
    for g in same_skeleton + [other_skeleton, non_maximal]:
        full = project_to_mag(g, g.nodes)
        assert is_maximal_oracle(full)
        assert markov_equivalent(g, full) and markov_equivalent(full, g)
        pairs.append((g, full))
    for a, b in pairs:
        assert markov_equivalent(a, b) == markov_equivalent_oracle(a, b)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_projection_onto_own_nodes_is_the_maximal_augmentation(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 7)
    for g in (random_mag(rng, n, rng.choice((0.3, 0.5))), random_non_maximal_mag(rng, n)):
        full = project_to_mag(g, g.nodes)
        assert full == maximal_augmentation_oracle(g)
        assert project_to_mag(full, full.nodes) == full


def test_projection_keeps_edges_between_observed_nodes():
    # A <-> B stays although a hidden H would also join A and B
    kept = (Edge.bidirected("A", "B"), Edge.directed("B", "C"))
    m = mag("ABCH", *kept, Edge.directed("H", "A"), Edge.directed("H", "B"))
    assert project_to_mag(m, "ABC") == mag("ABC", *kept)
    with pytest.raises(ValueError, match="DAG or a MAG"):
        project_to_mag(m.with_kind(GraphKind.PAG), "AB")
    with pytest.raises(ValueError, match="unknown observed"):
        project_to_mag(m, "AQ")
