import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confinder.graphs
import confinder.magspace
from confinder.errors import ConstructionError, EnumerationLimitError
from confinder.graphs import (
    Edge,
    GraphKind,
    Mark,
    MixedGraph,
    is_collider,
    markov_equivalent,
    validate,
)
from confinder.magspace import (
    MagStratum,
    OrientationMove,
    enumerate_mags,
    is_maximal,
    orientation_neighbors,
    pag_of_mag,
    reference_mag,
)
from oracles import (
    circle_marks,
    enumerate_oracle,
    is_maximal_oracle,
    pag_of_mag_oracle,
    random_mag,
    random_maximal_mag,
    random_non_maximal_mag,
    reference_oracle,
    separated_oracle,
)


def pag(nodes, *edges):
    return MixedGraph(GraphKind.PAG, tuple(nodes), tuple(edges))


def mag(nodes, *edges):
    return MixedGraph(GraphKind.MAG, tuple(nodes), tuple(edges))


def all_mags(strata):
    return [g for s in strata for g in s.mags]


# -- enumerate_mags ----------------------------------------------------------

def test_circle_circle_edge_has_three_completions():
    strata = enumerate_mags(pag("AB", Edge.circle_circle("A", "B")))
    assert [s.bidirected_count for s in strata] == [0, 1]
    assert set(strata[0].mags) == {
        mag("AB", Edge.directed("A", "B")),
        mag("AB", Edge.directed("B", "A")),
    }
    assert strata[1].mags == (mag("AB", Edge.bidirected("A", "B")),)


def test_pag_without_circles_is_its_own_class():
    p = pag("ABC", Edge.directed("A", "B"), Edge.directed("B", "C"))
    strata = enumerate_mags(p)
    assert len(strata) == 1
    assert strata[0] == MagStratum(0, (p.with_kind(GraphKind.MAG),))


def test_collider_pag_strata():
    # X1 o-> X2 <-o X3: marks at X2 are invariant arrowheads
    p = pag("X1 X2 X3".split(), Edge.circle_arrow("X1", "X2"), Edge.circle_arrow("X3", "X2"))
    strata = enumerate_mags(p)
    assert [s.bidirected_count for s in strata] == [0, 1, 2]
    assert [len(s.mags) for s in strata] == [1, 2, 1]
    assert strata[0].mags == (
        mag("X1 X2 X3".split(), Edge.directed("X1", "X2"), Edge.directed("X3", "X2")),
    )


def test_enumeration_augments_the_reference_once(monkeypatch):
    source = pag(
        "ABCDEF",
        Edge.circle_circle("A", "B"),
        Edge.circle_circle("B", "C"),
        Edge.circle_arrow("C", "D"),
        Edge.bidirected("D", "E"),
        Edge.circle_arrow("F", "E"),
    )
    ref = reference_mag(source)
    monkeypatch.setattr(confinder.magspace, "reference_mag", lambda _pag: ref)
    augmented = []
    original = confinder.graphs.maximal_augmentation

    def counting(graph):
        augmented.append(graph)
        return original(graph)

    monkeypatch.setattr(confinder.graphs, "maximal_augmentation", counting)
    strata = enumerate_mags(source)
    assert len(all_mags(strata)) > 2
    assert sum(graph is ref for graph in augmented) == 1
    # every other augmentation is of a distinct candidate
    others = [graph for graph in augmented if graph is not ref]
    assert len(others) == len({id(graph) for graph in others})


def test_enumeration_limit_raises():
    p = pag("AB", Edge.circle_circle("A", "B"))
    with pytest.raises(EnumerationLimitError, match="hill-climbing"):
        enumerate_mags(p, limit=2)


def test_default_limit_guards_large_spaces():
    nodes = [f"N{i:02d}" for i in range(10)]
    edges = [Edge.circle_circle(a, b) for a, b in zip(nodes, nodes[1:])]
    with pytest.raises(EnumerationLimitError):
        enumerate_mags(pag(nodes, *edges), limit=100)


def test_enumerate_rejects_invalid_pag():
    bad = pag("AB", Edge("A", "B", Mark.TAIL, Mark.TAIL))
    with pytest.raises(ValueError, match="not valid"):
        enumerate_mags(bad)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_enumeration_matches_brute_force_oracle(seed):
    rng = random.Random(seed)
    origin = random_maximal_mag(rng, 5)
    p = pag_of_mag(origin)
    strata = enumerate_mags(p)
    assert set(all_mags(strata)) == enumerate_oracle(p, origin)

    counts = [s.bidirected_count for s in strata]
    assert counts == sorted(set(counts))
    for s in strata:
        for g in s.mags:
            assert g.bidirected_count == s.bidirected_count
            assert validate(g).ok
    mags = all_mags(strata)
    assert origin in mags
    assert reference_mag(p) in mags
    for a, b in itertools.combinations(mags, 2):
        assert markov_equivalent(a, b)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_reference_and_enumeration_match_the_oracle_on_circled_non_maximal_mags(seed):
    rng = random.Random(seed)
    p = circle_marks(rng, random_non_maximal_mag(rng, rng.randint(4, 5)))
    expected = reference_oracle(p)
    if expected is None:
        with pytest.raises(ConstructionError, match="no valid orientation"):
            reference_mag(p)
        return
    assert reference_mag(p) == expected
    assert set(all_mags(enumerate_mags(p))) == enumerate_oracle(p, expected)


def test_enumeration_keeps_a_member_with_a_collider_the_pag_does_not_orient():
    # the reference is not maximal: V0 <-> V2 <-> V3 <-> V1 with V2 --> V1 and
    # V3 --> V0 is an inducing path, so its augmentation shields (V0, V4, V1)
    # and the class holds a member with V0 <-> V4 <-> V1, a collider on a
    # triple the PAG leaves unshielded and does not orient as a collider
    p = pag(
        ("V0", "V1", "V2", "V3", "V4"),
        Edge.bidirected("V0", "V2"),
        Edge.circle_arrow("V3", "V0"),
        Edge.circle_arrow("V4", "V0"),
        Edge.circle_arrow("V2", "V1"),
        Edge.bidirected("V1", "V3"),
        Edge.bidirected("V1", "V4"),
        Edge.bidirected("V2", "V3"),
    )
    ref = reference_mag(p)
    assert not is_maximal(ref)
    mags = all_mags(enumerate_mags(p))
    assert set(mags) == enumerate_oracle(p, ref)
    assert not is_collider(ref, "V0", "V4", "V1")
    assert any(is_collider(g, "V0", "V4", "V1") for g in mags)


# -- reference_mag -----------------------------------------------------------

def test_reference_completes_circle_arrow_to_tail():
    p = pag("AB", Edge.circle_arrow("A", "B"))
    assert reference_mag(p) == mag("AB", Edge.directed("A", "B"))


def test_reference_of_circle_free_pag_is_identity():
    p = pag("ABC", Edge.directed("A", "B"), Edge.bidirected("B", "C"))
    assert reference_mag(p) == p.with_kind(GraphKind.MAG)


def test_reference_avoids_new_colliders():
    # A o-o B o-o C with A,C non-adjacent: completion must not point both
    # arrowheads at B, so tails-first gives a chain through B
    p = pag("ABC", Edge.circle_circle("A", "B"), Edge.circle_circle("B", "C"))
    ref = reference_mag(p)
    assert validate(ref).ok
    at_b = {ref.mark_between("B", "A"), ref.mark_between("B", "C")}
    assert at_b != {Mark.ARROW}


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_reference_stays_in_the_source_class(seed):
    rng = random.Random(seed)
    origin = random_maximal_mag(rng, 5)
    p = pag_of_mag(origin)
    ref = reference_mag(p)
    assert validate(ref).ok
    assert markov_equivalent(ref, origin)
    assert reference_mag(p) == ref


# -- orientation_neighbors ---------------------------------------------------

def test_single_flip_neighborhood_of_directed_edge():
    p = pag("AB", Edge.circle_circle("A", "B"))
    current = mag("AB", Edge.directed("A", "B"))
    neighbors = orientation_neighbors(current, p)
    # flipping the arrowhead at B would leave a tail-tail edge, so the only
    # valid move flips the tail at A into an arrowhead
    assert len(neighbors) == 1
    move, result = neighbors[0]
    assert move == OrientationMove(("A", "B"), "A", Mark.ARROW)
    assert result == mag("AB", Edge.bidirected("A", "B"))


def test_no_circles_means_no_moves():
    p = pag("AB", Edge.directed("A", "B"))
    assert orientation_neighbors(p.with_kind(GraphKind.MAG), p) == []


def test_moves_are_reversible():
    p = pag("X1 X2 X3".split(), Edge.circle_arrow("X1", "X2"), Edge.circle_arrow("X3", "X2"))
    current = reference_mag(p)
    for _move, neighbor in orientation_neighbors(current, p):
        back = [g for _m, g in orientation_neighbors(neighbor, p)]
        assert current in back


def test_neighbors_reject_foreign_graphs():
    p = pag("AB", Edge.circle_circle("A", "B"))
    with pytest.raises(ValueError, match="skeleton"):
        orientation_neighbors(mag("AB"), p)
    p2 = pag("AB", Edge.circle_arrow("A", "B"))
    flipped = mag("AB", Edge.directed("B", "A"))
    with pytest.raises(ValueError, match="invariant"):
        orientation_neighbors(flipped, p2)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_neighbors_valid_and_respect_invariant_marks(seed):
    rng = random.Random(seed)
    origin = random_maximal_mag(rng, 5)
    p = pag_of_mag(origin)
    for move, g in orientation_neighbors(origin, p):
        assert validate(g).ok
        edge = p.edge_between(*move.edge)
        assert edge.mark_at(move.endpoint) is Mark.CIRCLE
        for e in p.edges:
            for node in e.pair:
                if e.mark_at(node) is not Mark.CIRCLE:
                    assert g.mark_between(node, e.other(node)) is e.mark_at(node)


# -- pag_of_mag and maximality ------------------------------------------------

def test_pag_of_bidirected_chain_keeps_collider_arrowheads():
    m = mag("X1 X2 X3".split(), Edge.bidirected("X1", "X2"), Edge.bidirected("X2", "X3"))
    p = pag_of_mag(m)
    assert p == pag(
        "X1 X2 X3".split(),
        Edge.circle_arrow("X1", "X2"),
        Edge.circle_arrow("X3", "X2"),
    )


def test_pag_of_mag_requires_maximal_input():
    # X <-> A <-> B <-> Y with A --> Y and B --> X: the bidirected chain is an
    # inducing path, so X and Y cannot be separated yet are non-adjacent
    m = mag(
        "ABXY",
        Edge.bidirected("X", "A"),
        Edge.bidirected("A", "B"),
        Edge.bidirected("B", "Y"),
        Edge.directed("A", "Y"),
        Edge.directed("B", "X"),
    )
    assert validate(m).ok
    assert not is_maximal(m)
    rest = ["A", "B"]
    assert not any(
        separated_oracle(m, "X", "Y", z)
        for r in range(3)
        for z in itertools.combinations(rest, r)
    )
    with pytest.raises(ValueError, match="maximal"):
        pag_of_mag(m)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_is_maximal_matches_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 6)
    for g in (random_mag(rng, n, 0.5), random_non_maximal_mag(rng, n)):
        assert is_maximal(g) == is_maximal_oracle(g)


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_recovered_pag_is_valid_and_keeps_the_skeleton(seed):
    rng = random.Random(seed)
    origin = random_maximal_mag(rng, 5)
    p = pag_of_mag(origin)
    assert validate(p).ok
    assert {e.pair for e in p.edges} == {e.pair for e in origin.edges}
    # the origin is one of the completions, so invariant marks match it
    for e in p.edges:
        for node in e.pair:
            if e.mark_at(node) is not Mark.CIRCLE:
                assert origin.mark_between(node, e.other(node)) is e.mark_at(node)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_pag_of_mag_matches_the_oracle(seed):
    rng = random.Random(seed)
    origin = random_maximal_mag(rng, rng.randint(3, 6))
    assert pag_of_mag(origin) == pag_of_mag_oracle(origin)


def test_pag_of_a_twelve_edge_directed_chain_is_all_circles():
    nodes = [f"X{i:02d}" for i in range(13)]
    chain = mag(nodes, *(Edge.directed(a, b) for a, b in zip(nodes, nodes[1:])))
    assert pag_of_mag(chain) == pag(
        nodes, *(Edge.circle_circle(a, b) for a, b in zip(nodes, nodes[1:]))
    )
