import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confinder.graphs
import confinder.magspace
from confinder.errors import ConstructionError
from confinder.graphs import (
    Edge,
    GraphKind,
    Mark,
    MixedGraph,
    is_collider,
    markov_equivalent,
    project_to_mag,
    validate,
)
from confinder.magspace import (
    MagStratum,
    circle_slots,
    enumerate_mags,
    is_maximal,
    orientation_neighbors,
    pag_of_mag,
    reference_mag,
)
from oracles import (
    circle_marks,
    completions_oracle,
    enumerate_oracle,
    is_maximal_oracle,
    markov_equivalent_oracle,
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
    # a maximal reference is its own augmentation, so it is never projected;
    # a non-maximal one is projected once, and no candidate twice
    maximal_source = pag(
        "ABCDEF",
        Edge.circle_circle("A", "B"),
        Edge.circle_circle("B", "C"),
        Edge.circle_arrow("C", "D"),
        Edge.bidirected("D", "E"),
        Edge.circle_arrow("F", "E"),
    )
    # X <-> A <-> B <-> Y with A --> Y and B --> X: an inducing path joins
    # X and Y, and the tail-first reference keeps both directed edges
    non_maximal_source = pag(
        "ABXY",
        Edge.bidirected("X", "A"),
        Edge.bidirected("A", "B"),
        Edge.bidirected("B", "Y"),
        Edge.circle_arrow("A", "Y"),
        Edge.circle_arrow("B", "X"),
    )
    original = confinder.graphs.project_to_mag
    for source, members, projections in ((maximal_source, 3, 0), (non_maximal_source, 1, 1)):
        ref = reference_mag(source)
        assert is_maximal(ref) == (projections == 0)
        monkeypatch.setattr(confinder.magspace, "reference_mag", lambda _pag, ref=ref: ref)
        augmented = []

        def counting(graph, observed):
            augmented.append(graph)
            return original(graph, observed)

        monkeypatch.setattr(confinder.graphs, "project_to_mag", counting)
        strata = enumerate_mags(source)
        assert len(all_mags(strata)) >= members and ref in all_mags(strata)
        assert sum(graph is ref for graph in augmented) == projections
        # every other projection is of a distinct candidate
        others = [graph for graph in augmented if graph is not ref]
        assert len(others) == len({id(graph) for graph in others})


def circle_chain(n):
    nodes = [f"N{i:02d}" for i in range(n)]
    return pag(nodes, *(Edge.circle_circle(a, b) for a, b in zip(nodes, nodes[1:])))


def test_ten_node_circle_chain_enumerates_its_nineteen_mags():
    # 18 circles, so 2^18 orientations, but the pruned walk never visits
    # most of them: a chain with no collider has one source or one <-> edge
    strata = enumerate_mags(circle_chain(10))
    assert [s.bidirected_count for s in strata] == [0, 1]
    assert [len(s.mags) for s in strata] == [10, 9]


def test_zero_deadline_returns_the_reference_alone():
    p = circle_chain(10)
    ref = reference_mag(p)
    assert enumerate_mags(p, deadline=0.0) == [MagStratum(ref.bidirected_count, (ref,))]


class ExpiringClock:
    """A monotonic clock that reads 0 for its first ``checks`` reads, then 1."""

    def __init__(self, checks):
        self.left = checks

    def monotonic(self):
        self.left -= 1
        return 0.0 if self.left >= 0 else 1.0


@given(st.integers(0, 10**6), st.integers(0, 40), st.booleans())
@settings(max_examples=60, deadline=None)
def test_a_cut_walk_keeps_a_prefix_of_each_stratum_and_the_reference(seed, checks, maximal):
    rng = random.Random(seed)
    if maximal:
        origin = random_maximal_mag(rng, rng.randint(3, 6))
    else:
        origin = random_non_maximal_mag(rng, rng.randint(4, 6))
    p = circle_marks(rng, origin)
    try:
        full = enumerate_mags(p)
    except ConstructionError:
        return
    ref = reference_mag(p)
    clock = ExpiringClock(checks)
    with mock.patch.object(confinder.magspace, "time", clock):
        cut = enumerate_mags(p, deadline=0.5)
    if clock.left >= 0:  # the clock never expired: the walk ran to the end
        assert cut == full
    whole = {s.bidirected_count: list(s.mags) for s in full}
    assert all_mags(cut).count(ref) == 1
    for s in cut:
        found = list(s.mags)
        prefix = whole[s.bidirected_count][: len(found)]
        assert found == prefix or (found[-1] == ref and found[:-1] == prefix[:-1])


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


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=25, deadline=None)
def test_membership_by_maximality_matches_augmentation_and_signatures(seed, maximal):
    # a completion shares its reference's skeleton; against a maximal
    # reference, markov_equivalent decides it by maximality and colliders
    # alone, and must agree with comparing both augmentations and with the
    # signature oracle on every completion, members or not
    rng = random.Random(seed)
    if maximal:
        origin = random_maximal_mag(rng, rng.randint(3, 6))
    else:
        origin = random_non_maximal_mag(rng, 4, edge_prob=0.2)
    origin_full = project_to_mag(origin, origin.nodes)
    for g in completions_oracle(circle_marks(rng, origin)):
        by_augmentation = markov_equivalent(project_to_mag(g, g.nodes), origin_full)
        assert markov_equivalent(g, origin) == by_augmentation
        assert by_augmentation == markov_equivalent_oracle(g, origin)
        assert is_maximal(g) == (project_to_mag(g, g.nodes) == g)


def mark_order(g):
    return tuple((e.a, e.b, e.mark_a.value, e.mark_b.value) for e in g.edges)


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=40, deadline=None)
def test_each_stratum_comes_in_mark_order(seed, maximal):
    # the walk resolves circles in canonical edge order, tail ("-") before
    # arrowhead (">"), so each stratum is already sorted by its marks
    rng = random.Random(seed)
    if maximal:
        origin = random_maximal_mag(rng, rng.randint(3, 6))
    else:
        origin = random_non_maximal_mag(rng, rng.randint(4, 6))
    try:
        strata = enumerate_mags(circle_marks(rng, origin))
    except ConstructionError:
        return
    for s in strata:
        assert list(s.mags) == sorted(s.mags, key=mark_order)


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
    # flipping the arrowhead at B would leave a tail-tail edge, so the only
    # valid move flips the tail at A into an arrowhead
    assert orientation_neighbors(current, p) == [mag("AB", Edge.bidirected("A", "B"))]


def test_no_circles_means_no_moves():
    p = pag("AB", Edge.directed("A", "B"))
    assert orientation_neighbors(p.with_kind(GraphKind.MAG), p) == []


def test_moves_are_reversible():
    p = pag("X1 X2 X3".split(), Edge.circle_arrow("X1", "X2"), Edge.circle_arrow("X3", "X2"))
    current = reference_mag(p)
    for neighbor in orientation_neighbors(current, p):
        assert current in orientation_neighbors(neighbor, p)


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
    slots = circle_slots(p)
    flipped = []
    for g in orientation_neighbors(origin, p):
        assert validate(g).ok
        changed = [
            (e.pair, node)
            for e in p.edges
            for node in e.pair
            if g.mark_between(node, e.other(node)) is not origin.mark_between(node, e.other(node))
        ]
        # one circle slot moved, so every invariant mark kept its value
        assert len(changed) == 1 and changed[0] in slots
        flipped.append(slots.index(changed[0]))
    assert flipped == sorted(set(flipped))


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
