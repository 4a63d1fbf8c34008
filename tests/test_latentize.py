import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confinder import latentize
from confinder.errors import InconsistentStateError
from confinder.graphs import Edge, GraphKind, MixedGraph, ci_signature, project_to_mag, validate
from confinder.latentize import (
    Latent,
    LatentSpec,
    LatentizedDag,
    apply_spec,
    candidate_groupings,
    latentize_min,
    preserves_independencies,
    verify_ci_equivalence,
)
from oracles import (
    candidate_groupings_oracle,
    ci_signature_oracle,
    project_to_mag_oracle,
    random_dag,
    random_latentized_instance,
    random_mag,
    random_maximal_mag,
    random_non_maximal_mag,
)


def mag(nodes, *edges):
    return MixedGraph(GraphKind.MAG, tuple(nodes), tuple(edges))


def dag(nodes, *edges):
    return MixedGraph(GraphKind.DAG, tuple(nodes), tuple(edges))


def children_sets(spec):
    return sorted(l.children for l in spec.latents)


# -- an independent partition oracle ----------------------------------------

def rgf_partitions(items):
    """All set partitions via restricted-growth label strings."""
    n = len(items)
    if n == 0:
        yield []
        return

    def rec(i, labels):
        if i == n:
            blocks = {}
            for item, label in zip(items, labels):
                blocks.setdefault(label, []).append(item)
            yield [blocks[k] for k in sorted(blocks)]
            return
        top = max(labels) if labels else -1
        for label in range(top + 2):
            yield from rec(i + 1, labels + [label])

    yield from rec(0, [])


def block_connected_dsu(block):
    parent = {n: n for e in block for n in e}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in block:
        parent[find(a)] = find(b)
    return len({find(n) for n in parent}) == 1


def oracle_groupings(source):
    """Children-set families of every connected partition, as a sorted list."""
    out = []
    for part in rgf_partitions(list(source.bidirected_edges())):
        if all(block_connected_dsu(b) for b in part):
            out.append(sorted(tuple(sorted({n for e in b for n in e})) for b in part))
    out.sort(key=lambda fam: (len(fam), fam))
    return out


# -- candidate_groupings ------------------------------------------------------

def test_disjoint_pairs_cannot_share_a_latent():
    m = mag("ABCD", Edge.bidirected("A", "B"), Edge.bidirected("C", "D"))
    specs = list(candidate_groupings(m))
    assert len(specs) == 1
    assert children_sets(specs[0]) == [("A", "B"), ("C", "D")]


def test_chain_offers_merged_and_split_groupings():
    m = mag("X1 X2 X3".split(), Edge.bidirected("X1", "X2"), Edge.bidirected("X2", "X3"))
    specs = list(candidate_groupings(m))
    assert [children_sets(s) for s in specs] == [
        [("X1", "X2", "X3")],
        [("X1", "X2"), ("X2", "X3")],
    ]


@pytest.mark.parametrize("k,bell", [(1, 1), (2, 2), (3, 5), (4, 15)])
def test_star_groupings_count_partitions(k, bell):
    # spokes all share the hub, so every partition block is connected and
    # the candidate count is the full Bell number
    nodes = ["H"] + [f"S{i}" for i in range(k)]
    m = mag(nodes, *[Edge.bidirected("H", s) for s in nodes[1:]])
    specs = list(candidate_groupings(m))
    assert len(specs) == bell
    assert [children_sets(s) for s in specs] == oracle_groupings(m)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_groupings_match_partition_oracle(seed):
    rng = random.Random(seed)
    m = random_maximal_mag(rng, 5, edge_prob=0.4)
    specs = list(candidate_groupings(m))
    assert [children_sets(s) for s in specs] == oracle_groupings(m)
    counts = [len(s) for s in specs]
    assert counts == sorted(counts)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_lazy_groupings_keep_the_eager_order(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    if rng.random() < 0.7:
        m = random_mag(rng, n, 0.35)
    else:
        m = random_non_maximal_mag(rng, max(n, 4), 0.2)
    assert list(candidate_groupings(m)) == candidate_groupings_oracle(m)


def test_clique_yields_its_single_latent_first():
    # 10 bi-directed edges: the eager list holds every partition of them,
    # but the first grouping needs only the one-block partition
    nodes = "ABCDE"
    m = mag(nodes, *[Edge.bidirected(a, b) for a, b in itertools.combinations(nodes, 2)])
    assert children_sets(next(candidate_groupings(m))) == [tuple(nodes)]
    assert children_sets(latentize_min(m).spec) == [tuple(nodes)]


def test_reserved_names_rejected():
    with pytest.raises(ValueError, match="reserved"):
        candidate_groupings(mag(["_X", "Y"], Edge.bidirected("_X", "Y")))


# -- spec and dag validation ---------------------------------------------------

def test_latent_needs_two_children_and_two_states():
    with pytest.raises(ValueError, match="two children"):
        Latent("_L1", ("X",))
    with pytest.raises(ValueError, match="two states"):
        Latent("_L1", ("X", "Y"), states=1)


def test_spec_rejects_duplicate_names():
    with pytest.raises(ValueError, match="duplicate"):
        LatentSpec((Latent("_L1", ("A", "B")), Latent("_L1", ("C", "D"))))


def test_with_states_replaces_cardinalities():
    spec = LatentSpec((Latent("_L1", ("A", "B")), Latent("_L2", ("B", "C"))))
    bumped = spec.with_states({"_L2": 4})
    assert bumped.states_of("_L1") == 2
    assert bumped.states_of("_L2") == 4
    with pytest.raises(KeyError):
        spec.with_states({"_L9": 3})


def test_latentized_dag_rejects_latent_with_parents():
    g = dag(
        ["A", "B", "_L1"],
        Edge.directed("A", "_L1"),
        Edge.directed("_L1", "B"),
        Edge.directed("A", "B"),
    )
    # parsers reject such input first, so built in code it is a program fault
    with pytest.raises(InconsistentStateError, match="parents"):
        LatentizedDag(g, LatentSpec((Latent("_L1", ("A", "B")),)))


def test_latentized_dag_rejects_children_mismatch():
    g = dag(["A", "B", "C", "_L1"], Edge.directed("_L1", "A"), Edge.directed("_L1", "B"))
    with pytest.raises(InconsistentStateError, match="children"):
        LatentizedDag(g, LatentSpec((Latent("_L1", ("A", "C")),)))


def test_latentized_dag_rejects_a_foreign_source_mag():
    g = dag(["A", "B", "_L1"], Edge.directed("_L1", "A"), Edge.directed("_L1", "B"))
    spec = LatentSpec((Latent("_L1", ("A", "B")),))
    with pytest.raises(InconsistentStateError, match="source MAG nodes"):
        LatentizedDag(g, spec, mag("ABC", Edge.bidirected("A", "B")))
    with pytest.raises(InconsistentStateError, match="source_mag is not valid"):
        cycle = mag("ABC", Edge.directed("A", "B"), Edge.directed("B", "C"), Edge.directed("C", "A"))
        LatentizedDag(g, spec, cycle)


def test_apply_spec_requires_full_coverage():
    m = mag("ABCD", Edge.bidirected("A", "B"), Edge.bidirected("C", "D"))
    with pytest.raises(ValueError, match="uncovered"):
        apply_spec(m, LatentSpec((Latent("_L1", ("A", "B")),)))


# -- latentize_min -------------------------------------------------------------

def test_single_bidirected_edge_gets_one_latent():
    m = mag("XYZ", Edge.directed("Z", "X"), Edge.bidirected("X", "Y"))
    result = latentize_min(m)
    assert children_sets(result.spec) == [("X", "Y")]
    assert result.spec.latents[0].states == 2
    assert result.dag == dag(
        ["X", "Y", "Z", "_L1"],
        Edge.directed("Z", "X"),
        Edge.directed("_L1", "X"),
        Edge.directed("_L1", "Y"),
    )


def test_chain_needs_two_latents():
    m = mag("X1 X2 X3".split(), Edge.bidirected("X1", "X2"), Edge.bidirected("X2", "X3"))
    result = latentize_min(m)
    assert children_sets(result.spec) == [("X1", "X2"), ("X2", "X3")]

    merged = apply_spec(m, next(candidate_groupings(m)))
    assert len(merged.spec) == 1
    assert not verify_ci_equivalence(merged)
    # the merged latent destroys the marginal independence of X1 and X3
    over = ("X1", "X2", "X3")
    assert ("X1", "X3", ()) in ci_signature(m, over)
    assert ("X1", "X3", ()) not in ci_signature(merged.dag, over)


def test_mag_without_confounding_is_kept_as_is():
    m = mag("ABC", Edge.directed("A", "B"), Edge.directed("B", "C"))
    result = latentize_min(m)
    assert len(result.spec) == 0
    assert result.dag == dag("ABC", Edge.directed("A", "B"), Edge.directed("B", "C"))
    assert verify_ci_equivalence(result)


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_minimality_and_equivalence(seed):
    rng = random.Random(seed)
    m = random_maximal_mag(rng, 5, edge_prob=0.4)
    result = latentize_min(m)
    assert verify_ci_equivalence(result)
    assert latentize_min(m) == result
    for latent in result.spec.latents:
        assert len(latent.children) >= 2
        assert result.dag.parents(latent.name) == ()
    for spec in candidate_groupings(m):
        if len(spec) < len(result.spec):
            assert not verify_ci_equivalence(apply_spec(m, spec))


def test_passed_deadline_returns_the_finest_grouping(monkeypatch):
    # a bi-directed triangle has no independencies: one latent verifies
    m = mag("ABC", *[Edge.bidirected(a, b) for a, b in itertools.combinations("ABC", 2)])
    assert children_sets(latentize_min(m).spec) == [("A", "B", "C")]
    assert latentize_min(m, deadline=time.monotonic() + 3600) == latentize_min(m)
    checked = []
    monkeypatch.setattr(
        latentize, "preserves_independencies", lambda c, maximal: checked.append(c)
    )
    finest = latentize_min(m, deadline=0.0)
    assert checked == []
    assert children_sets(finest.spec) == [("A", "B"), ("A", "C"), ("B", "C")]
    assert finest == apply_spec(m, list(candidate_groupings(m))[-1])
    monkeypatch.undo()
    assert verify_ci_equivalence(finest)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_signatures_of_every_candidate_match_the_oracle(seed):
    rng = random.Random(seed)
    model, _data = random_latentized_instance(rng, max_latents=3)
    observed = model.observed
    assert ci_signature(model.dag, observed) == ci_signature_oracle(model.dag, observed)
    source = project_to_mag(model.dag, observed)
    for spec in candidate_groupings(source):
        candidate = apply_spec(source, spec).dag
        assert ci_signature(candidate, observed) == ci_signature_oracle(candidate, observed)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_margin_check_matches_the_signature_comparison(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 7)
    model, _data = random_latentized_instance(rng, max_latents=3)
    sources = [
        random_mag(rng, n, rng.choice((0.3, 0.5))),
        random_non_maximal_mag(rng, n),
        project_to_mag(model.dag, model.observed),
    ]
    for source in sources:
        maximal = project_to_mag(source, source.nodes)
        for spec in candidate_groupings(source):
            candidate = apply_spec(source, spec)
            assert preserves_independencies(candidate, maximal) == verify_ci_equivalence(
                candidate
            )


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_restricted_margin_check_matches_the_projection_oracle(seed):
    # the check asks only about pairs an inducing path through a merged
    # latent can join; it must agree with the whole margin read off the
    # candidate's CI signature, and latentize_min must return the first
    # candidate whose whole projection is the augmentation
    rng = random.Random(seed)
    n = rng.randint(4, 6)
    model, _data = random_latentized_instance(rng, max_latents=3)
    sources = [
        random_mag(rng, n, rng.choice((0.3, 0.5))),
        random_non_maximal_mag(rng, n),
        project_to_mag(model.dag, model.observed),
    ]
    for source in sources:
        maximal = project_to_mag(source, source.nodes)
        first = None
        for spec in candidate_groupings(source):
            candidate = apply_spec(source, spec)
            margin = project_to_mag_oracle(candidate.dag, candidate.observed)
            assert preserves_independencies(candidate, maximal) == (margin == maximal)
            if first is None and project_to_mag(candidate.dag, candidate.observed) == maximal:
                first = candidate
        assert latentize_min(source) == first


# -- verify_ci_equivalence ------------------------------------------------------

def test_verify_needs_a_source():
    g = dag("AB", Edge.directed("A", "B"))
    with pytest.raises(ValueError, match="source"):
        verify_ci_equivalence(LatentizedDag(g, LatentSpec()))


def test_verify_refuses_large_models():
    nodes = [f"N{i:02d}" for i in range(13)]
    m = mag(nodes, Edge.bidirected(nodes[0], nodes[1]))
    result = apply_spec(m, next(candidate_groupings(m)))
    with pytest.raises(ValueError, match="exceed the exhaustive limit of 12"):
        verify_ci_equivalence(result)


# -- project_to_mag --------------------------------------------------------------

def test_projection_contracts_directed_paths():
    g = dag("ABC", Edge.directed("A", "B"), Edge.directed("B", "C"))
    assert project_to_mag(g, ("A", "C")) == mag("AC", Edge.directed("A", "C"))


def test_projection_turns_hidden_cause_into_bidirected():
    g = dag("ABL", Edge.directed("L", "A"), Edge.directed("L", "B"))
    assert project_to_mag(g, ("A", "B")) == mag("AB", Edge.bidirected("A", "B"))


def test_projection_drops_separable_pairs():
    g = dag("ABC", Edge.directed("A", "B"), Edge.directed("B", "C"))
    assert project_to_mag(g, ("A", "B", "C")) == g.with_kind(GraphKind.MAG)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_projection_of_full_node_set_is_identity(seed):
    rng = random.Random(seed)
    g = random_dag(rng, 6)
    assert project_to_mag(g, g.nodes) == g.with_kind(GraphKind.MAG)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_projection_matches_signature_oracle(seed):
    rng = random.Random(seed)
    g = random_dag(rng, rng.randint(3, 8), rng.choice((0.3, 0.5)))
    observed = rng.sample(g.nodes, rng.randint(2, min(6, len(g.nodes))))
    assert project_to_mag(g, observed) == project_to_mag_oracle(g, observed)


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_latentize_then_project_recovers_the_mag(seed):
    rng = random.Random(seed)
    m = random_maximal_mag(rng, 5, edge_prob=0.4)
    result = latentize_min(m)
    assert project_to_mag(result.dag, result.observed) == m
    assert validate(project_to_mag(result.dag, result.observed)).ok
