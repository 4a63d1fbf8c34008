import math
import random
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import digamma

from confinder.errors import DataBindingError, InconsistentStateError
from confinder.graphs import Edge, GraphKind, MixedGraph
from confinder import vbem
from confinder.latentize import Latent, LatentSpec, LatentizedDag, latentize_min
from confinder.vbem import (
    Dataset,
    ScoreReport,
    VariationalState,
    elbo,
    p_elbo,
    run_vbem,
    vb_e_step,
    vb_m_step,
)
from oracles import (
    distinct_rows,
    e_step_oracle,
    elbo_oracle,
    exact_conjugate_score,
    exact_latent_marginal,
    m_step_oracle,
    many_state_instance,
    per_family_constant,
    per_family_vbem,
    random_latentized_instance,
    reference_vbem,
    sequential_vbem,
    three_latent_parent_instance,
    whole_vbem,
)


def mag(nodes, *edges):
    return MixedGraph(GraphKind.MAG, tuple(nodes), tuple(edges))


def pair_model():
    """A <-> B as one binary latent over two binary children."""
    return latentize_min(mag("AB", Edge.bidirected("A", "B")))


def chain_model():
    """X1 <-> X2 <-> X3: two binary latents sharing the middle child."""
    return latentize_min(
        mag("X1 X2 X3".split(), Edge.bidirected("X1", "X2"), Edge.bidirected("X2", "X3"))
    )


def observed_model():
    return latentize_min(mag("AB", Edge.directed("A", "B")))


def dataset_for(model, rng, n, cards=None):
    names = model.observed
    cards = cards or {name: 2 for name in names}
    rows = [[rng.randrange(cards[name]) for name in names] for _ in range(n)]
    return Dataset([(name, cards[name]) for name in names], rows)


def oracle_inputs(model, data):
    cards = {name: data.cardinality(name) for name in model.observed}
    for latent in model.spec.latents:
        cards[latent.name] = latent.states
    parents = {node: model.dag.parents(node) for node in model.dag.nodes}
    rows = [
        {name: int(data.column(name)[i]) for name in data.names}
        for i in range(data.n_rows)
    ]
    return cards, parents, rows


# -- Dataset -------------------------------------------------------------------

def test_dataset_validation():
    with pytest.raises(ValueError, match="duplicate"):
        Dataset([("A", 2), ("A", 2)], [[0, 0]])
    with pytest.raises(ValueError, match="at least 2 states"):
        Dataset([("A", 1)], [[0]])
    with pytest.raises(ValueError, match="outside"):
        Dataset([("A", 2)], [[2]])
    with pytest.raises(ValueError, match="at least one row"):
        Dataset([("A", 2)], np.zeros((0, 1), dtype=int))
    with pytest.raises(ValueError, match="table"):
        Dataset([("A", 2), ("B", 2)], [[0]])


def test_dataset_columns_are_immutable():
    data = Dataset([("A", 2)], [[0], [1]])
    with pytest.raises(ValueError):
        data.rows[0, 0] = 1
    assert data.cardinality("A") == 2
    assert list(data.column("A")) == [0, 1]


def test_binding_mismatch_is_reported():
    model = pair_model()
    with pytest.raises(DataBindingError, match="missing from data"):
        vb_m_step(model, Dataset([("A", 2)], [[0]]), {})
    with pytest.raises(DataBindingError, match="absent from model"):
        vb_m_step(
            model,
            Dataset([("A", 2), ("B", 2), ("C", 2)], [[0, 0, 0]]),
            {},
        )


# -- VB-E ------------------------------------------------------------------------

def test_e_step_without_latents_is_empty():
    model = observed_model()
    data = Dataset([("A", 2), ("B", 2)], [[0, 1], [1, 0]])
    q_theta = vb_m_step(model, data, {})
    assert vb_e_step(model, data, q_theta) == {}


def test_symmetric_parameters_give_uniform_responsibilities():
    model = pair_model()
    data = Dataset([("A", 2), ("B", 2)], [[0, 0], [1, 0], [0, 1]])
    q_theta = {
        "_L1": np.array([[2.0, 2.0]]),
        "A": np.array([[1.5, 1.5], [1.5, 1.5]]),
        "B": np.array([[0.7, 0.7], [0.7, 0.7]]),
    }
    q = vb_e_step(model, data, q_theta)
    assert np.allclose(q["_L1"], 0.5)


def test_e_step_matches_scalar_formula():
    model = pair_model()
    data = Dataset([("A", 2), ("B", 2)], [[0, 0], [1, 1]])
    q_theta = {
        "_L1": np.array([[1.0, 3.0]]),
        "A": np.array([[2.0, 1.0], [1.0, 4.0]]),
        "B": np.array([[3.0, 2.0], [2.0, 2.0]]),
    }
    q = vb_e_step(model, data, q_theta)

    def elog(table):
        return digamma(table) - digamma(table.sum(axis=1, keepdims=True))

    el, ea, eb = elog(q_theta["_L1"]), elog(q_theta["A"]), elog(q_theta["B"])
    for row, (a, b) in enumerate([(0, 0), (1, 1)]):
        raw = [el[0, l] + ea[l, a] + eb[l, b] for l in (0, 1)]
        top = max(raw)
        weights = [math.exp(v - top) for v in raw]
        expected = [w / sum(weights) for w in weights]
        assert np.allclose(q["_L1"][row], expected, atol=1e-12)


def test_e_step_rejects_degenerate_parameters():
    model = pair_model()
    data = Dataset([("A", 2), ("B", 2)], [[0, 0]])
    q_theta = {
        "_L1": np.array([[0.0, 0.0]]),
        "A": np.array([[1.0, 1.0], [1.0, 1.0]]),
        "B": np.array([[1.0, 1.0], [1.0, 1.0]]),
    }
    with pytest.raises(InconsistentStateError, match="non-finite"):
        vb_e_step(model, data, q_theta)


# -- VB-M ------------------------------------------------------------------------

def test_fully_observed_conjugate_update():
    model = latentize_min(mag("A", ))  # single isolated node
    data = Dataset([("A", 2)], [[0]] * 3 + [[1]] * 7)
    q_theta = vb_m_step(model, data, {})
    assert np.allclose(q_theta["A"], [[4.0, 8.0]])


def test_half_responsibility_spreads_half_counts():
    model = pair_model()
    data = Dataset([("A", 2), ("B", 2)], [[1, 0]])
    q_latent = {"_L1": np.array([[0.5, 0.5]])}
    q_theta = vb_m_step(model, data, q_latent)
    assert np.allclose(q_theta["A"], [[1.0, 1.5], [1.0, 1.5]])
    assert np.allclose(q_theta["B"], [[1.5, 1.0], [1.5, 1.0]])
    assert np.allclose(q_theta["_L1"], [[1.5, 1.5]])


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_expected_counts_are_conserved(seed):
    rng = random.Random(seed)
    model = chain_model() if rng.random() < 0.5 else pair_model()
    data = dataset_for(model, rng, rng.randint(1, 30))
    gen = np.random.default_rng(seed)
    q_latent = {
        l.name: gen.dirichlet(np.ones(l.states), size=data.n_rows)
        for l in model.spec.latents
    }
    q_theta = vb_m_step(model, data, q_latent)
    for node, table in q_theta.items():
        assert math.isclose(float(table.sum() - table.size), data.n_rows, abs_tol=1e-9)


# -- literal per-row oracles -------------------------------------------------------

def check_steps_against_oracles(model, data, gen):
    """VB-M, the bound and VB-E (at the VB-M update and at arbitrary
    tables) against the row-by-row, configuration-by-configuration oracles."""
    q_latent = {
        l.name: gen.dirichlet(np.ones(l.states), size=data.n_rows)
        for l in model.spec.latents
    }
    q_theta = vb_m_step(model, data, q_latent)
    expected = m_step_oracle(model, data, q_latent)
    assert q_theta.keys() == expected.keys()
    for node, table in expected.items():
        assert np.allclose(q_theta[node], table, rtol=0.0, atol=1e-9)
    assert elbo(model, data, VariationalState(q_theta, q_latent)) == pytest.approx(
        elbo_oracle(model, data, q_theta, q_latent), rel=0.0, abs=1e-8
    )
    arbitrary = {node: gen.gamma(2.0, size=t.shape) + 0.1 for node, t in q_theta.items()}
    for tables in (q_theta, arbitrary):
        updated = vb_e_step(model, data, tables, q_latent)
        expected = e_step_oracle(model, data, tables, q_latent)
        assert updated.keys() == expected.keys()
        for name, q in expected.items():
            assert np.allclose(updated[name], q, rtol=0.0, atol=1e-9)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_steps_match_the_literal_oracles(seed):
    model, data = random_latentized_instance(random.Random(seed))
    check_steps_against_oracles(model, data, np.random.default_rng(seed))


def test_steps_match_the_literal_oracles_with_three_latent_parents():
    model, data = three_latent_parent_instance()
    latent_parents = [p for p in model.dag.parents("B") if p in model.spec.names]
    assert latent_parents == ["_L1", "_L2", "_L3"]
    for seed in range(3):
        check_steps_against_oracles(model, data, np.random.default_rng(seed))


# -- bound values -----------------------------------------------------------------

def test_single_binary_variable_bound_is_exact():
    model = latentize_min(mag("A", ))
    data = Dataset([("A", 2)], [[1], [0], [1]])
    state, report = run_vbem(model, data)
    assert math.isclose(report.elbo, math.log(1 / 12), rel_tol=1e-12)
    assert report.iterations == 1
    assert report.converged
    assert report.restarts_used == 1
    assert report.p_elbo == report.elbo


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_latent_free_bound_equals_conjugate_marginal(seed):
    rng = random.Random(seed)
    nodes = ["A", "B", "C"]
    edges = [Edge.directed("A", "B")]
    if rng.random() < 0.5:
        edges.append(Edge.directed("B", "C"))
    model = latentize_min(mag(nodes, *edges))
    data = dataset_for(model, rng, rng.randint(1, 40))
    _state, report = run_vbem(model, data)
    cards, parents, rows = oracle_inputs(model, data)
    assert math.isclose(
        report.elbo, exact_conjugate_score(cards, parents, rows), abs_tol=1e-9
    )


def test_bound_never_exceeds_exact_marginal_single_latent():
    model = pair_model()
    rng = random.Random(7)
    data = dataset_for(model, rng, 10)
    _state, report = run_vbem(model, data, seed=3)
    cards, parents, rows = oracle_inputs(model, data)
    exact = exact_latent_marginal(cards, parents, rows, model.spec.names)
    assert report.elbo <= exact + 1e-6


def test_bound_never_exceeds_exact_marginal_two_latents():
    model = chain_model()
    rng = random.Random(11)
    data = dataset_for(model, rng, 5)
    _state, report = run_vbem(model, data, seed=5)
    cards, parents, rows = oracle_inputs(model, data)
    exact = exact_latent_marginal(cards, parents, rows, model.spec.names)
    assert report.elbo <= exact + 1e-6


def test_elbo_refuses_inconsistent_state():
    model = pair_model()
    data = Dataset([("A", 2), ("B", 2)], [[0, 0], [1, 1]])
    state, _report = run_vbem(model, data)
    tampered = VariationalState(
        {k: v + (0.5 if k == "A" else 0.0) for k, v in state.q_theta.items()},
        state.q_latent,
        state.elbo_trace,
    )
    with pytest.raises(InconsistentStateError, match="VB-M"):
        elbo(model, data, tampered)


def test_penalty_arithmetic():
    spec_one = LatentSpec((Latent("_L1", ("A", "B")),))
    assert math.isclose(p_elbo(-100.0, spec_one), -100.0 - math.log(2))
    spec_two = LatentSpec((Latent("_L1", ("A", "B")), Latent("_L2", ("C", "D"), states=3)))
    assert math.isclose(p_elbo(-100.0, spec_two), -100.0 - math.log(2) - math.log(6))
    assert p_elbo(-41.25, LatentSpec()) == -41.25


def test_penalty_is_data_independent():
    model = pair_model()
    rng = random.Random(0)
    for n in (3, 17):
        data = dataset_for(model, rng, n)
        _state, report = run_vbem(model, data)
        assert math.isclose(report.elbo - report.p_elbo, math.log(2), rel_tol=1e-12)


# -- run_vbem ----------------------------------------------------------------------

def test_run_rejects_bad_knobs():
    model = pair_model()
    data = Dataset([("A", 2), ("B", 2)], [[0, 0]])
    with pytest.raises(ValueError, match="threshold"):
        run_vbem(model, data, c=0.0)
    with pytest.raises(ValueError, match="at least 1"):
        run_vbem(model, data, restarts=0)


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_trace_is_monotone(seed):
    rng = random.Random(seed)
    model = pair_model() if rng.random() < 0.5 else chain_model()
    data = dataset_for(model, rng, rng.randint(2, 50))
    state, _report = run_vbem(model, data, restarts=2, seed=seed, max_iterations=25)
    trace = state.elbo_trace
    for earlier, later in zip(trace, trace[1:]):
        assert later >= earlier - 1e-8


def test_runs_are_bit_reproducible():
    model = chain_model()
    rng = random.Random(2)
    data = dataset_for(model, rng, 20)
    state_a, report_a = run_vbem(model, data, seed=42)
    state_b, report_b = run_vbem(model, data, seed=42)
    assert report_a == report_b
    assert state_a.elbo_trace == state_b.elbo_trace
    for node in state_a.q_theta:
        assert np.array_equal(state_a.q_theta[node], state_b.q_theta[node])
    _state_c, report_c = run_vbem(model, data, seed=43)
    assert report_c.elbo != report_a.elbo


def test_restarts_never_hurt():
    model = chain_model()
    rng = random.Random(9)
    data = dataset_for(model, rng, 25)
    _s1, one = run_vbem(model, data, restarts=1, seed=0)
    _s5, five = run_vbem(model, data, restarts=5, seed=0)
    assert five.elbo >= one.elbo - 1e-9
    assert five.restarts_used == 5


def test_deadline_cuts_the_fit_short():
    model = chain_model()
    data = dataset_for(model, random.Random(4), 30)
    full_state, full = run_vbem(model, data, seed=7)
    late_state, late = run_vbem(model, data, seed=7, deadline=time.monotonic() + 3600)
    assert late == full
    assert late_state.elbo_trace == full_state.elbo_trace

    state, report = run_vbem(model, data, seed=7, deadline=time.monotonic() - 1)
    # every restart is drawn and bound, none makes a pass, and the best
    # initial bound wins; the returned state gives it
    assert (report.iterations, report.restarts_used) == (1, 5)
    assert not report.converged
    assert elbo(model, data, state) == pytest.approx(report.elbo, abs=1e-9)
    # the batch behind it, on the whole model, against its restarts alone
    state, report = whole_vbem(model, data, seed=7, deadline=time.monotonic() - 1)
    assert (report.iterations, report.restarts_used) == (1, 5)
    assert not report.converged
    initial = [fit.elbo_trace[0] for fit, _converged in sequential_vbem(model, data, seed=7)]
    assert report.elbo == max(initial)
    assert elbo(model, data, state) == pytest.approx(report.elbo, abs=1e-9)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_batched_restarts_match_restarts_run_alone(seed):
    # up to three latents, so some families have two or three latent
    # parents; at c=1e-4 the restarts of these instances converge at
    # different passes, so the batch loses restarts while others run on
    model, data = random_latentized_instance(random.Random(seed), max_latents=3)
    assume(model.spec.latents)
    state, report = whole_vbem(model, data, c=1e-4, restarts=3, seed=seed)
    fits = sequential_vbem(model, data, c=1e-4, restarts=3, seed=seed)
    finals = [fit.elbo_trace[-1] for fit, _converged in fits]
    winner, converged = fits[finals.index(max(finals))]
    assert len(state.elbo_trace) == len(winner.elbo_trace)
    assert report.converged == converged
    assert np.allclose(state.elbo_trace, winner.elbo_trace, rtol=0.0, atol=1e-10)
    for node, table in winner.q_theta.items():
        assert np.allclose(state.q_theta[node], table, rtol=0.0, atol=1e-10)
    _rows, inverse, _counts = distinct_rows(data)
    for name, q in winner.q_latent.items():
        assert np.allclose(state.q_latent[name], q[inverse], rtol=0.0, atol=1e-10)


def assert_bit_identical_to_per_family_fit(model, data, **knobs):
    state, report = whole_vbem(model, data, **knobs)
    expected_state, expected = per_family_vbem(model, data, **knobs)
    assert report == expected
    assert state.elbo_trace == expected_state.elbo_trace
    assert state.q_theta.keys() == expected_state.q_theta.keys()
    for node, table in expected_state.q_theta.items():
        assert np.array_equal(state.q_theta[node], table)
    assert state.q_latent.keys() == expected_state.q_latent.keys()
    for name, q in expected_state.q_latent.items():
        assert np.array_equal(state.q_latent[name], q)


@pytest.mark.parametrize("instance", [
    lambda rng: random_latentized_instance(rng, max_latents=3),
    lambda rng: three_latent_parent_instance(),
    many_state_instance,
], ids=["random", "three-latent-parents", "many-states"])
@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_fit_is_bit_identical_to_the_per_family_steps(instance, seed):
    model, data = instance(random.Random(seed))
    rows, _inverse, counts = distinct_rows(data)
    binding = vbem._bind_model(model, data, vbem.FamilyPrior(), rows, counts)
    assert binding.constant == per_family_constant(binding)
    assert_bit_identical_to_per_family_fit(model, data, c=1e-4, restarts=3, seed=seed)


def test_fit_is_bit_identical_while_restarts_leave_the_batch():
    # three latents; run alone, the restarts stop after 60, 51 and 108
    # bound evaluations, so the batch shrinks twice before the last pass
    model, data = random_latentized_instance(random.Random(12), max_latents=3)
    assert len(model.spec) == 3
    fits = sequential_vbem(model, data, c=1e-4, restarts=3, seed=12)
    assert [len(fit.elbo_trace) for fit, _converged in fits] == [60, 51, 108]
    assert_bit_identical_to_per_family_fit(model, data, c=1e-4, restarts=3, seed=12)


def chain_instance():
    model = chain_model()
    return model, dataset_for(model, random.Random(5), 30)


@pytest.mark.parametrize("instance", [chain_instance, three_latent_parent_instance])
def test_a_pass_calls_digamma_and_gammaln_once_each(instance, monkeypatch):
    # the batch runs until its last restart stops
    model, data = instance()
    fits = sequential_vbem(model, data, restarts=3, seed=1)
    passes = max(len(fit.elbo_trace) for fit, _converged in fits) - 1
    calls = Counter()

    def counted(name):
        function = getattr(vbem, name)

        def wrapper(values):
            calls[name] += 1
            return function(values)
        return wrapper

    for name in ("digamma", "gammaln"):
        monkeypatch.setattr(vbem, name, counted(name))
    whole_vbem(model, data, restarts=3, seed=1)
    # gammaln also runs once for the initial bound and once for the
    # binding's constant terms
    assert calls == {"digamma": passes, "gammaln": passes + 2}


def single_latent_models():
    """One latent each: a pair (2 and 3 states), a triple, and a pair with
    an observed parent."""
    triple = latentize_min(
        mag(
            "ABC",
            Edge.bidirected("A", "B"),
            Edge.bidirected("B", "C"),
            Edge.bidirected("A", "C"),
        )
    )
    with_parent = latentize_min(
        mag("ABC", Edge.bidirected("A", "B"), Edge.directed("C", "A"))
    )
    models = [pair_model(), pair_model().with_states({"_L1": 3}), triple, with_parent]
    assert all(len(m.spec) == 1 for m in models)
    return models


def test_distinct_row_fit_matches_the_row_level_reference():
    for seed in range(6):
        for model in single_latent_models():
            rng = random.Random(seed)
            names = model.observed
            cards = {name: rng.randint(2, 3) for name in names}
            # heavily duplicated rows: 60 draws from 6 patterns
            patterns = [[rng.randrange(cards[n]) for n in names] for _ in range(6)]
            rows = [rng.choice(patterns) for _ in range(60)]
            data = Dataset([(n, cards[n]) for n in names], rows)

            state, report = whole_vbem(model, data, restarts=3, seed=seed)
            fits = reference_vbem(model, data, restarts=3, seed=seed)
            finals = [fit.elbo_trace[-1] for fit in fits]
            winner = fits[finals.index(max(finals))]

            assert report.elbo == pytest.approx(winner.elbo_trace[-1], abs=1e-8)
            assert len(state.elbo_trace) == len(winner.elbo_trace)
            # averaging the initial draw within identical rows only raises
            # the first bound; from the first E-step on the fits coincide
            assert state.elbo_trace[0] >= winner.elbo_trace[0] - 1e-8
            assert np.allclose(
                state.elbo_trace[1:], winner.elbo_trace[1:], rtol=0.0, atol=1e-8
            )
            for name, q in winner.q_latent.items():
                assert np.allclose(state.q_latent[name], q, rtol=0.0, atol=1e-8)


def test_fitted_state_reproduces_the_reported_bound():
    # the criterion-01 corpus: 0-2 latents, some families with two latent
    # parents, rows bound one by one when the bound is recomputed
    with_two = 0
    for seed in range(120):
        rng = random.Random(seed)
        model, data = random_latentized_instance(rng)
        state, report = run_vbem(model, data, c=1e-4, restarts=2, seed=seed)
        for latent in model.spec.latents:
            assert state.q_latent[latent.name].shape == (data.n_rows, latent.states)
        assert elbo(model, data, state) == pytest.approx(report.elbo, rel=0.0, abs=1e-8)
        with_two += len(model.spec) == 2
    assert with_two > 10


# -- the composed fit ----------------------------------------------------------------

def composed_bound(model, data, q_latent):
    """The bound split as ``run_vbem`` splits it, at per-observation
    responsibilities: the latent-free families' closed-form scores plus
    each component's bound with every row bound once."""
    prior = vbem.FamilyPrior()
    memo = vbem.FitMemo(data)
    free, components = vbem._split(model, dict(data.variables))
    total = sum(memo.family(node, model.dag.parents(node), prior)[1] for node in free)
    for component in components:
        names = tuple(n for n in data.names if n in component.columns)
        rows = data.rows[:, [data.names.index(n) for n in names]]
        binding = component.bind(data, names, rows, np.ones(data.n_rows), prior)
        batch = {i: q_latent[name].T[None] for i, name in enumerate(component.latents)}
        total += float(binding.bound(binding.m_step(batch), batch)[0])
    return total


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_composed_bound_equals_the_whole_bound(seed):
    # the mean-field bound factorises over components: at the whole fit's
    # own responsibilities, the parts add up to the whole model's bound
    model, data = random_latentized_instance(random.Random(seed), max_latents=4, components=2)
    assert len(vbem._split(model, dict(data.variables))[1]) >= 2
    state, report = whole_vbem(model, data, c=1e-4, restarts=2, seed=seed)
    assert composed_bound(model, data, state.q_latent) == pytest.approx(
        report.elbo, rel=0.0, abs=1e-9
    )
    state, report = run_vbem(model, data, c=1e-4, restarts=2, seed=seed)
    assert composed_bound(model, data, state.q_latent) == pytest.approx(
        report.elbo, rel=0.0, abs=1e-9
    )


def relabeled(model, names):
    """The model with each latent ``l`` renamed ``names[l]``."""
    latents = tuple(Latent(names[l.name], l.children, l.states) for l in model.spec.latents)
    edges = tuple(Edge.directed(names.get(t, t), h) for t, h in model.dag.directed_edges())
    dag = MixedGraph(GraphKind.DAG, model.observed + tuple(l.name for l in latents), edges)
    return LatentizedDag(dag, LatentSpec(latents))


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_fits_do_not_depend_on_latent_labels(seed):
    # rotating the names reorders latent parents within families, the
    # sweep and the draw; the components' canonical form undoes all three
    model, data = random_latentized_instance(random.Random(seed), max_latents=3)
    names = list(model.spec.names)
    assume(len(names) >= 2)
    assume(len({(l.children, l.states) for l in model.spec.latents}) == len(names))
    rotated = dict(zip(names, names[1:] + names[:1]))
    other = relabeled(model, rotated)
    state, report = run_vbem(model, data, c=1e-4, restarts=2, seed=seed)
    other_state, other_report = run_vbem(other, data, c=1e-4, restarts=2, seed=seed)
    assert other_report == report
    assert other_state.elbo_trace == state.elbo_trace
    for old, new in rotated.items():
        assert np.array_equal(other_state.q_latent[new], state.q_latent[old])
        assert np.array_equal(other_state.q_theta[new], state.q_theta[old])
    # observed tables follow each model's own parent order: the bound at
    # the relabeled state checks they are its VB-M update
    assert elbo(other, data, other_state) == pytest.approx(other_report.elbo, abs=1e-8)


def test_state_invariants_are_enforced():
    with pytest.raises(InconsistentStateError, match="normalized"):
        VariationalState({}, {"_L1": np.array([[0.7, 0.7]])})
    with pytest.raises(InconsistentStateError, match="negative"):
        VariationalState({}, {"_L1": np.array([[1.2, -0.2]])})
    with pytest.raises(InconsistentStateError, match="decreased"):
        VariationalState({}, {}, (1.0, 0.5))
