"""Strategy-level tests: stratified search, hill climbing, state growth."""
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confinder.latentize
import confinder.magspace
from confinder.bn import BnModel, forward_sample
from confinder.errors import BudgetError, ConstructionError, InconsistentStateError
from confinder.experiment import derive_true_pag
from confinder.graphs import Edge, GraphKind, MixedGraph
from confinder.latentize import latentize_min
from confinder.magspace import enumerate_mags, orientation_neighbors, pag_of_mag, reference_mag
from confinder import vbem
from confinder.search import (
    ScoredModel,
    SearchConfig,
    SearchTrace,
    Strategy,
    TraceEntry,
    _Session,
    _candidates,
    _with_carried,
    model_id,
    run_search,
)
from confinder.seeds import derive_seed
from confinder.vbem import (
    ITERATION_CAP,
    Dataset,
    VariationalState,
    elbo,
    run_vbem,
    vb_e_step,
    vb_m_step,
)

from oracles import exact_conjugate_score, hill_climb_order_oracle, random_maximal_mag


def pair_confounder_data(n, seed, flip=0.1):
    """A and B driven by one hidden binary cause."""
    rng = np.random.default_rng(seed)
    latent = rng.integers(0, 2, n)
    a = np.where(rng.random(n) < flip, 1 - latent, latent)
    b = np.where(rng.random(n) < flip, 1 - latent, latent)
    return Dataset((("A", 2), ("B", 2)), np.column_stack([a, b]))


def instrument_data(n, seed):
    """Ground truth: hidden U -> {B, C}, plus observed A -> B and D -> C."""
    rng = np.random.default_rng(seed)
    u = rng.integers(0, 2, n)
    a = rng.integers(0, 2, n)
    d = rng.integers(0, 2, n)
    p_b = np.where(u == 1, 0.85, 0.15) + np.where(a == 1, 0.1, -0.1)
    b = (rng.random(n) < p_b).astype(np.int64)
    p_c = np.where(u == 1, 0.85, 0.15) + np.where(d == 1, 0.1, -0.1)
    c = (rng.random(n) < p_c).astype(np.int64)
    return Dataset(
        (("A", 2), ("B", 2), ("C", 2), ("D", 2)), np.column_stack([a, b, c, d])
    )


def instrument_pag():
    # both unshielded colliders force arrows at B and C, so B <-> C is
    # invariant across the class and no pure-DAG member exists
    mag = MixedGraph(
        GraphKind.MAG,
        ("A", "B", "C", "D"),
        (Edge.directed("A", "B"), Edge.bidirected("B", "C"), Edge.directed("D", "C")),
    )
    return pag_of_mag(mag)


def two_confounder_pag():
    # ground truth: U1 -> {B, C}, U2 -> {C, D}, instruments A -> B and
    # E -> D; both colliders are forced, so B <-> C <-> D is invariant
    mag = MixedGraph(
        GraphKind.MAG,
        ("A", "B", "C", "D", "E"),
        (
            Edge.directed("A", "B"),
            Edge.bidirected("B", "C"),
            Edge.bidirected("C", "D"),
            Edge.directed("E", "D"),
        ),
    )
    return pag_of_mag(mag)


def circle_pag():
    return MixedGraph(GraphKind.PAG, ("A", "B"), (Edge.circle_circle("A", "B"),))


def fitted(model, data, cfg):
    """The model scored stand-alone as the search scores it: one seed for
    every fit, each component's restarts seeded from its own key."""
    mid = model_id(model)
    state, report = run_vbem(
        model,
        data,
        c=cfg.convergence,
        restarts=cfg.restarts,
        seed=derive_seed(cfg.seed, "vbem"),
    )
    stratum = model.source_mag.bidirected_count if model.source_mag else 0
    return ScoredModel(model, state, report, stratum, mid)


class TestConfig:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            SearchConfig(max_bidirected=-1)
        with pytest.raises(ValueError):
            SearchConfig(max_states=1)
        with pytest.raises(ValueError):
            SearchConfig(budget_seconds=0.0)
        with pytest.raises(ValueError):
            SearchConfig(convergence=0.0)
        with pytest.raises(ValueError):
            SearchConfig(restarts=0)

    def test_strategy_accepts_names(self):
        assert SearchConfig(strategy="ilcv").strategy is Strategy.ILCV
        assert SearchConfig(strategy="hclcv").strategy is Strategy.HCLCV
        with pytest.raises(ValueError):
            SearchConfig(strategy="greedy")


class TestModelId:
    def test_sensitive_to_structure_and_states(self):
        mag = MixedGraph(
            GraphKind.MAG, ("A", "B"), (Edge.bidirected("A", "B"),)
        )
        model = latentize_min(mag)
        other = model.with_states({"_L1": 3})
        assert model_id(model) != model_id(other)
        assert model_id(model) == model_id(model)
        assert len(model_id(model)) == 10
        int(model_id(model), 16)

        directed = MixedGraph(
            GraphKind.MAG, ("A", "B"), (Edge.directed("A", "B"),)
        )
        assert model_id(latentize_min(directed)) != model_id(model)


class TestTraceInvariants:
    def test_best_must_match_maximum(self):
        data = pair_confounder_data(30, 1)
        cfg = SearchConfig()
        mag = MixedGraph(GraphKind.MAG, ("A", "B"), (Edge.directed("A", "B"),))
        scored = fitted(latentize_min(mag), data, cfg)
        entry = TraceEntry(0, scored.model_id, scored.p_elbo, 0.1)
        wrong = TraceEntry(0, "0000000000", scored.p_elbo + 5.0, 0.2)
        SearchTrace((entry,), scored, "converged")
        with pytest.raises(InconsistentStateError):
            SearchTrace((entry, wrong), scored, "converged")
        with pytest.raises(InconsistentStateError):
            SearchTrace((), scored, "converged")
        with pytest.raises(InconsistentStateError):
            SearchTrace((entry,), scored, "gave-up")
        late = TraceEntry(0, scored.model_id, scored.p_elbo, 0.05)
        with pytest.raises(InconsistentStateError):
            SearchTrace((entry, late), scored, "converged")


class TestDegenerateSearch:
    def test_directed_pag_returns_its_unique_dag(self):
        pag = MixedGraph(
            GraphKind.PAG,
            ("A", "B", "C"),
            (Edge.directed("A", "B"), Edge.directed("B", "C")),
        )
        rng = np.random.default_rng(5)
        a = rng.integers(0, 2, 40)
        b = np.where(rng.random(40) < 0.2, 1 - a, a)
        c = np.where(rng.random(40) < 0.2, 1 - b, b)
        data = Dataset((("A", 2), ("B", 2), ("C", 2)), np.column_stack([a, b, c]))

        best, trace = run_search(pag, data, SearchConfig())
        assert len(trace.entries) == 1
        assert trace.stop_reason == "converged"
        assert len(best.model.spec) == 0
        assert best.report.converged and best.report.iterations == 1

        rows = [dict(zip(("A", "B", "C"), row)) for row in data.rows]
        exact = exact_conjugate_score(
            {"A": 2, "B": 2, "C": 2},
            {"A": (), "B": ("A",), "C": ("B",)},
            rows,
        )
        assert best.p_elbo == pytest.approx(exact, abs=1e-9)

    def test_hill_climb_with_no_circles_stops_immediately(self):
        pag = MixedGraph(
            GraphKind.PAG,
            ("A", "B", "C"),
            (Edge.directed("A", "B"), Edge.directed("B", "C")),
        )
        data = pair_confounder_data(25, 2)
        rows = np.column_stack([data.rows[:, 0], data.rows[:, 1], data.rows[:, 0]])
        data3 = Dataset((("A", 2), ("B", 2), ("C", 2)), rows)
        best, trace = run_search(pag, data3, SearchConfig(strategy="hclcv"))
        assert trace.stop_reason == "local-maximum"
        assert len(trace.entries) == 1
        assert len(best.model.spec) == 0


class TestChoiceConsistency:
    def test_winner_matches_independent_scoring(self):
        # all three orientations of A o-o B are scored stand-alone with the
        # seed the search uses; the search must pick the argmax and report
        # the identical number
        data = pair_confounder_data(1000, 7)
        cfg = SearchConfig()
        candidates = [
            MixedGraph(GraphKind.MAG, ("A", "B"), (Edge.directed("A", "B"),)),
            MixedGraph(GraphKind.MAG, ("A", "B"), (Edge.directed("B", "A"),)),
            MixedGraph(GraphKind.MAG, ("A", "B"), (Edge.bidirected("A", "B"),)),
        ]
        scored = [fitted(latentize_min(mag), data, cfg) for mag in candidates]
        expected = max(scored, key=lambda s: s.p_elbo)

        best, trace = run_search(circle_pag(), data, cfg)
        assert best.model_id == expected.model_id
        assert best.p_elbo == expected.p_elbo
        ids = {entry.model_id for entry in trace.entries}
        assert {s.model_id for s in scored[:2]} <= ids

    def test_two_node_class_prefers_the_saturated_orientation(self):
        # with only two observed variables every orientation fits the joint
        # exactly, so the extra latent parameters can only cost; the search
        # must not hallucinate a confounder here no matter how strong the
        # dependence is
        data = pair_confounder_data(1000, 7, flip=0.02)
        best, _ = run_search(circle_pag(), data, SearchConfig())
        assert len(best.model.spec) == 0


class TestForcedConfounder:
    def test_latent_over_the_confounded_pair_wins(self):
        pag = instrument_pag()
        strata = enumerate_mags(pag)
        assert strata[0].bidirected_count == 1  # no pure-DAG member exists
        data = instrument_data(1000, 0)
        cfg = SearchConfig()
        best, trace = run_search(pag, data, cfg)
        assert [(l.children, l.states) for l in best.model.spec.latents] == [
            (("B", "C"), 2)
        ]
        assert trace.stop_reason == "stratum-no-improvement"
        seen = {e.stratum for e in trace.entries}
        assert seen == {1, 2}

    def test_hill_climb_agrees_and_never_beats_exhaustive(self):
        pag = instrument_pag()
        data = instrument_data(1000, 0)
        ibest, _ = run_search(pag, data, SearchConfig())
        hbest, htrace = run_search(pag, data, SearchConfig(strategy="hclcv"))
        assert htrace.stop_reason == "local-maximum"
        assert hbest.p_elbo <= ibest.p_elbo + 1e-6
        assert hbest.model_id == ibest.model_id

    def test_all_worse_neighbors_stop_after_one_round(self):
        pag = instrument_pag()
        data = instrument_data(1000, 0)
        hbest, htrace = run_search(pag, data, SearchConfig(strategy="hclcv"))
        # start MAG + its two in-budget neighbors + one rejected state bump
        assert len(htrace.entries) == 4
        assert htrace.entries[0].model_id == hbest.model_id

    def test_stratum_walk_is_an_ascending_prefix(self):
        pag = instrument_pag()
        data = instrument_data(600, 3)
        _, trace = run_search(pag, data, SearchConfig())
        walk = []
        for entry in trace.entries:
            if walk and entry.stratum < walk[-1]:
                break  # state-search entries revisit the winner's stratum
            walk.append(entry.stratum)
        assert walk == sorted(walk)
        lo = min(walk)
        assert set(walk) == set(range(lo, max(walk) + 1))

    def test_cap_below_minimum_stratum_is_an_error(self):
        pag = instrument_pag()
        data = instrument_data(100, 1)
        with pytest.raises(ConstructionError, match="every MAG completion has more than 0"):
            run_search(pag, data, SearchConfig(max_bidirected=0))

    def test_cap_below_the_reference_of_a_cut_walk_names_the_budget(self):
        # the deadline has passed when the walk starts, so it returns the
        # reference alone, whose B <-> C the cap of 0 excludes; whether a
        # member within the cap exists is unknown, so the error says why
        pag = instrument_pag()
        assert reference_mag(pag).bidirected_count == 1
        data = instrument_data(100, 1)
        cfg = SearchConfig(max_bidirected=0, budget_seconds=1e-9)
        with pytest.raises(BudgetError, match="budget ran out during enumeration"):
            run_search(pag, data, cfg)

    def test_cap_below_the_reference_mag_is_an_error_for_hill_climbing(self):
        # hill climbing starts at the reference MAG, whose B <-> C the cap
        # of 0 already excludes, so it must not score that start
        pag = instrument_pag()
        assert reference_mag(pag).bidirected_count == 1
        data = instrument_data(100, 1)
        with pytest.raises(ConstructionError, match="reference MAG has 1 bi-directed"):
            run_search(pag, data, SearchConfig(strategy="hclcv", max_bidirected=0))


class TestHillClimbCandidates:
    @given(st.integers(0, 10**6), st.integers(3, 7), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_candidates_keep_the_full_move_order(self, seed, n_nodes, cap):
        # the candidates sort on the bi-directed count alone and lean on the
        # neighbors' slot order for ties; the oracle sorts on the whole move
        rng = random.Random(seed)
        origin = random_maximal_mag(rng, n_nodes)
        p = pag_of_mag(origin)
        for current in [origin] + orientation_neighbors(origin, p):
            assert _candidates(current, p, cap) == hill_climb_order_oracle(current, p, cap)


class TestMinimalLatentCount:
    def test_two_confounder_class_keeps_minimum_counts(self):
        pag = two_confounder_pag()
        strata = enumerate_mags(pag)
        assert strata[0].bidirected_count == 2

        rng = np.random.default_rng(4)
        n = 800
        u1 = rng.integers(0, 2, n)
        u2 = rng.integers(0, 2, n)
        a = rng.integers(0, 2, n)
        e = rng.integers(0, 2, n)
        p_b = np.where(u1 == 1, 0.85, 0.15) + np.where(a == 1, 0.1, -0.1)
        b = (rng.random(n) < p_b).astype(np.int64)
        p_c = 0.1 + 0.4 * u1 + 0.4 * u2
        c = (rng.random(n) < p_c).astype(np.int64)
        p_d = np.where(u2 == 1, 0.85, 0.15) + np.where(e == 1, 0.1, -0.1)
        d = (rng.random(n) < p_d).astype(np.int64)
        data = Dataset(
            (("A", 2), ("B", 2), ("C", 2), ("D", 2), ("E", 2)),
            np.column_stack([a, b, c, d, e]),
        )

        cfg = SearchConfig()
        best, trace = run_search(pag, data, cfg)
        assert len(best.model.spec) == 2
        assert {l.children for l in best.model.spec.latents} == {
            ("B", "C"),
            ("C", "D"),
        }

        # every structural candidate carries exactly the minimal latent
        # count for its MAG; state-search entries only revise cardinalities
        allowed = set()
        for stratum in strata:
            for member in stratum.mags:
                minimal = latentize_min(member)
                allowed.add(model_id(minimal))
        for s1 in range(2, cfg.max_states + 1):
            for s2 in range(2, cfg.max_states + 1):
                bumped = best.model.with_states(
                    {"_L1": s1, "_L2": s2}
                )
                allowed.add(model_id(bumped))
        assert {e.model_id for e in trace.entries} <= allowed

    @pytest.mark.parametrize("strategy", ["ilcv", "hclcv"])
    def test_search_never_compares_signatures(self, monkeypatch, strategy):
        def refuse(*_args):
            raise AssertionError("the search compared CI signatures")

        monkeypatch.setattr(confinder.graphs, "ci_signature", refuse)
        monkeypatch.setattr(confinder.latentize, "ci_signature", refuse)
        monkeypatch.setattr(confinder.latentize, "verify_ci_equivalence", refuse)
        checks = []
        original = confinder.latentize.preserves_independencies

        def recording(candidate, maximal):
            checks.append(original(candidate, maximal))
            return checks[-1]

        monkeypatch.setattr(confinder.latentize, "preserves_independencies", recording)
        rng = np.random.default_rng(2)
        data = Dataset(tuple((n, 2) for n in "ABCDE"), rng.integers(0, 2, (60, 5)))
        best, _trace = run_search(
            two_confounder_pag(), data, SearchConfig(strategy=strategy, restarts=1)
        )
        assert len(best.model.spec) == 2
        # the merged latent over B, C and D was checked and turned down
        assert False in checks and True in checks


class TestStateSearch:
    # a one-edge PAG X <-> Y has one MAG with one latent; the search scores
    # it, seeded as ``fitted`` seeds it, and then grows the latent's states
    @staticmethod
    def confounded_pair(x, y):
        return MixedGraph(GraphKind.PAG, (x, y), (Edge.bidirected(x, y),))

    def test_non_improving_extra_state_is_rejected(self):
        data = pair_confounder_data(400, 9)
        best, trace = run_search(self.confounded_pair("A", "B"), data, SearchConfig())
        assert best.model.spec.states_of("_L1") == 2
        assert len(trace.entries) == 2
        assert best.model_id == trace.entries[0].model_id

    def test_recovers_three_state_confounder(self):
        rng = np.random.default_rng(3)
        n = 5000
        u = rng.integers(0, 3, n)

        def child():
            vals = u.copy()
            noise = rng.random(n) < 0.1
            vals[noise] = rng.integers(0, 3, int(noise.sum()))
            return vals

        data = Dataset((("B", 3), ("C", 3)), np.column_stack([child(), child()]))
        cfg = SearchConfig(max_states=6)
        best, trace = run_search(self.confounded_pair("B", "C"), data, cfg)
        assert best.model.spec.states_of("_L1") == 3
        assert best.p_elbo > trace.entries[0].p_elbo

    def test_growth_stops_at_the_cap(self):
        rng = np.random.default_rng(11)
        n = 4000
        u = rng.integers(0, 4, n)

        def child():
            vals = u.copy()
            noise = rng.random(n) < 0.08
            vals[noise] = rng.integers(0, 4, int(noise.sum()))
            return vals

        data = Dataset((("B", 4), ("C", 4)), np.column_stack([child(), child()]))
        cfg = SearchConfig(max_states=3)
        best, _trace = run_search(self.confounded_pair("B", "C"), data, cfg)
        assert best.model.spec.states_of("_L1") == 3

    def test_carried_states_apply_to_matching_children(self):
        mag = MixedGraph(GraphKind.MAG, ("A", "B"), (Edge.bidirected("A", "B"),))
        model = latentize_min(mag)
        carried = _with_carried(model, {("A", "B"): 4})
        assert carried.spec.states_of("_L1") == 4
        untouched = _with_carried(model, {("A", "C"): 4})
        assert untouched.spec.states_of("_L1") == 2


class TestAnytime:
    @pytest.mark.parametrize("strategy", ["ilcv", "hclcv"])
    def test_tiny_budget_still_returns_a_model(self, strategy):
        pag = instrument_pag()
        data = instrument_data(1000, 0)
        cfg = SearchConfig(strategy=strategy, budget_seconds=1e-6)
        best, trace = run_search(pag, data, cfg)
        assert trace.stop_reason == "budget"
        assert len(trace.entries) >= 1
        assert best.p_elbo == max(e.p_elbo for e in trace.entries)

    @pytest.mark.parametrize("strategy", ["ilcv", "hclcv"])
    def test_one_model_run_over_budget_reports_budget(self, strategy):
        # the only model is scored regardless; its fit runs past the deadline,
        # so the run is over budget although the walk has nothing left to do
        pag = MixedGraph(GraphKind.PAG, ("A", "B"), (Edge.directed("A", "B"),))
        data = pair_confounder_data(50, 4)
        cfg = SearchConfig(strategy=strategy, budget_seconds=1e-9)
        best, trace = run_search(pag, data, cfg)
        assert trace.stop_reason == "budget"
        assert len(trace.entries) == 1
        assert best.model_id == trace.entries[0].model_id

    def test_budget_trace_is_prefix_of_full_trace(self):
        pag = instrument_pag()
        data = instrument_data(1000, 0)
        full_best, full = run_search(pag, data, SearchConfig())
        cut_best, cut = run_search(pag, data, SearchConfig(budget_seconds=1e-6))
        full_ids = [e.model_id for e in full.entries]
        cut_ids = [e.model_id for e in cut.entries]
        assert cut_ids == full_ids[: len(cut_ids)]
        assert cut_best.p_elbo <= full_best.p_elbo + 1e-9

    @pytest.mark.parametrize(
        "strategy, components",
        [
            pytest.param(strategy, components, id=strategy + suffix)
            for components, suffix in ((1, ""), (2, "-two-components"))
            for strategy in ("ilcv", "hclcv")
        ],
    )
    def test_budget_cuts_a_running_fit_short(self, strategy, components):
        # 50 restarts over 4 096 distinct rows of 64 x 64 states: one uncut
        # fit of the single latent takes about 25 s on a 2-core 2.1 GHz
        # machine, so only the deadline inside the fit can end it in time.
        # With two components the small one, A <-> B over 4 distinct rows,
        # is fitted first and converges; the deadline falls inside C <-> D.
        rng = np.random.default_rng(0)
        n, k = 100000, 64
        u = rng.integers(0, 2, n)
        a = (7 * u + rng.integers(0, k, n)) % k
        b = (5 * u + rng.integers(0, k, n)) % k
        if components == 1:
            data = Dataset((("A", k), ("B", k)), np.column_stack([a, b]))
            pag = MixedGraph(GraphKind.PAG, ("A", "B"), (Edge.bidirected("A", "B"),))
        else:
            v = rng.integers(0, 2, n)
            small = [np.where(rng.random(n) < 0.1, 1 - v, v) for _ in "AB"]
            data = Dataset((("A", 2), ("B", 2), ("C", k), ("D", k)),
                           np.column_stack(small + [a, b]))
            pag = MixedGraph(GraphKind.PAG, tuple("ABCD"),
                             (Edge.bidirected("A", "B"), Edge.bidirected("C", "D")))
        budget = 1.0
        cfg = SearchConfig(strategy=strategy, restarts=50, budget_seconds=budget)
        started = time.monotonic()
        best, trace = run_search(pag, data, cfg)
        took = time.monotonic() - started
        assert took <= budget + 1.0
        assert trace.stop_reason == "budget"
        assert len(trace.entries) == 1
        assert len(best.model.spec) == components
        assert not best.report.converged
        assert best.report.iterations <= ITERATION_CAP
        if components == 2:
            # the first component ran to the end: alone, it fits the same
            pair = MixedGraph(GraphKind.MAG, ("A", "B"), (Edge.bidirected("A", "B"),))
            sub = Dataset((("A", 2), ("B", 2)), data.rows[:, :2])
            alone = fitted(latentize_min(pair), sub, cfg)
            assert alone.report.converged
            for node in ("A", "B", "_L1"):
                assert np.array_equal(best.state.q_theta[node], alone.state.q_theta[node])


def shared_component_instance():
    """B <-> C is invariant and A o-o D is free, so the class holds A --> D,
    D --> A and A <-> D: every member's model has the latent over B and C,
    with the same families. B and C share a hidden cause; 300 rows."""
    pag = MixedGraph(
        GraphKind.PAG,
        tuple("ABCD"),
        (Edge.circle_circle("A", "D"), Edge.bidirected("B", "C")),
    )
    rng = np.random.default_rng(3)
    n = 300
    u = rng.integers(0, 2, n)
    a = rng.integers(0, 2, n)
    d = np.where(rng.random(n) < 0.2, 1 - a, a)
    b = np.where(rng.random(n) < 0.15, 1 - u, u)
    c = np.where(rng.random(n) < 0.15, 1 - u, u)
    data = Dataset(tuple((name, 2) for name in "ABCD"), np.column_stack([a, b, c, d]))
    return pag, data


class TestComponentMemo:
    def test_a_shared_component_is_fitted_once(self, monkeypatch):
        fitted_keys, uses = [], []
        bind, component = vbem._Component.bind, vbem.FitMemo.component

        def counted_bind(self, *args):
            fitted_keys.append(self.key)
            return bind(self, *args)

        def counted_use(self, part, *args):
            uses.append(part.key)
            return component(self, part, *args)

        monkeypatch.setattr(vbem._Component, "bind", counted_bind)
        monkeypatch.setattr(vbem.FitMemo, "component", counted_use)
        pag, data = shared_component_instance()
        _best, trace = run_search(pag, data, SearchConfig())
        shared = ((("B", "C"), 2),)
        assert [key[0] for key in fitted_keys].count(shared) == 1
        assert [key[0] for key in uses].count(shared) >= 3
        assert len(fitted_keys) == len(set(fitted_keys))
        assert len(trace.entries) >= 3

    def test_a_model_scores_the_same_whatever_was_scored_before(self):
        pag, data = shared_component_instance()
        models = [latentize_min(mag) for stratum in enumerate_mags(pag) for mag in stratum.mags]
        models += [models[-1].with_states({"_L2": 3})]
        cfg = SearchConfig()
        forward, backward = _Session(data, cfg), _Session(data, cfg)
        warm = [forward.score(model) for model in models]
        warm_backward = [backward.score(model) for model in reversed(models)][::-1]
        for model, first, last in zip(models, warm, warm_backward):
            cold = _Session(data, cfg).score(model)
            for scored in (first, last):
                assert scored.report == cold.report
                assert scored.state.elbo_trace == cold.state.elbo_trace
                for node, table in cold.state.q_theta.items():
                    assert np.array_equal(scored.state.q_theta[node], table)
                for name, q in cold.state.q_latent.items():
                    assert np.array_equal(scored.state.q_latent[name], q)
        # the stratum-1 members share every fitted part with the others
        assert len(forward.memo.components) < sum(len(m.spec) for m in models)


def network_297():
    """V0 -> V3 <- V2, V0 -> V4 <- V1 and hidden U -> {V3, V4}, all binary,
    with Dirichlet(0.5) CPTs and 400 rows from seed 297: hill climbing meets
    three of its models a second time."""
    nodes = ("V0", "V1", "V2", "V3", "V4", "U")
    pairs = (("V0", "V3"), ("V2", "V3"), ("V0", "V4"), ("V1", "V4"), ("U", "V3"), ("U", "V4"))
    dag = MixedGraph(GraphKind.DAG, nodes, tuple(Edge.directed(a, b) for a, b in pairs))
    rng = np.random.default_rng(297)
    cpts = {n: rng.dirichlet([0.5, 0.5], size=2 ** len(dag.parents(n))) for n in nodes}
    model = BnModel(dag, dict.fromkeys(nodes, 2), cpts)
    return derive_true_pag(model, "U"), forward_sample(model, 400, 297, ("U",))


class TestRepeatedModels:
    def test_a_repeated_model_refits_nothing_and_adds_no_entry(self, monkeypatch):
        scored, bound = [], []
        score, bind = _Session.score, vbem._Component.bind

        def counted_score(self, model):
            scored.append(model_id(model))
            return score(self, model)

        def counted_bind(self, *args):
            bound.append(self.key)
            return bind(self, *args)

        monkeypatch.setattr(_Session, "score", counted_score)
        monkeypatch.setattr(vbem._Component, "bind", counted_bind)
        pag, data = network_297()
        best, trace = run_search(pag, data, SearchConfig(strategy=Strategy.HCLCV))
        assert (len(scored), len(set(scored))) == (14, 11)
        assert [e.model_id for e in trace.entries] == list(dict.fromkeys(scored))
        assert len(bound) == len(set(bound))
        assert trace.stop_reason == "local-maximum"
        assert best.model_id == "20acd0b4dd"
        assert best.p_elbo == pytest.approx(-622.8329178472645, rel=1e-9, abs=0.0)


def two_pair_instance():
    """A <-> B and C <-> D, each pair driven by its own hidden binary
    cause: the winner's two latents share no family, so its state is
    composed of two component fits. 600 rows."""
    rng = np.random.default_rng(6)
    n = 600
    columns = []
    for _pair in range(2):
        u = rng.integers(0, 2, n)
        columns += [np.where(rng.random(n) < 0.15, 1 - u, u) for _child in range(2)]
    data = Dataset(tuple((name, 2) for name in "ABCD"), np.column_stack(columns))
    pag = MixedGraph(GraphKind.PAG, tuple("ABCD"),
                     (Edge.bidirected("A", "B"), Edge.bidirected("C", "D")))
    return pag, data


class TestWinnerStateAtTheFixedPoint:
    """The composed winner state of a search, passed through the public
    steps under ``SearchConfig().prior()`` as the benchmark child passes it,
    is the VB-M fixed point its report scores."""

    @pytest.mark.parametrize("instance, components", [
        (lambda: (instrument_pag(), instrument_data(1000, 5)), 1),
        (two_pair_instance, 2),
    ], ids=["instrument", "two-components"])
    def test_the_public_steps_accept_the_winner_state(self, instance, components):
        pag, data = instance()
        best, _trace = run_search(pag, data, SearchConfig())
        model, state, prior = best.model, best.state, SearchConfig().prior()
        assert len(vbem._split(model, dict(data.variables))[1]) == components

        q_theta = vb_m_step(model, data, state.q_latent, prior)
        assert q_theta.keys() == state.q_theta.keys()
        for node, table in q_theta.items():
            assert np.allclose(state.q_theta[node], table, rtol=1e-9, atol=1e-8)
        assert elbo(model, data, state, prior) == pytest.approx(
            best.report.elbo, rel=0.0, abs=1e-9
        )
        # one more E and M step from the winner cannot lower its bound
        q_latent = vb_e_step(model, data, state.q_theta, state.q_latent)
        moved_on = VariationalState(vb_m_step(model, data, q_latent, prior), q_latent)
        assert elbo(model, data, moved_on, prior) >= best.report.elbo - 1e-9

        for node, table in state.q_theta.items():
            off = VariationalState({**state.q_theta, node: table + 0.5}, state.q_latent)
            with pytest.raises(InconsistentStateError, match="VB-M"):
                elbo(model, data, off, prior)


class TestDeterminism:
    @pytest.mark.parametrize("strategy", ["ilcv", "hclcv"])
    def test_identical_runs_match_exactly(self, strategy):
        pag = instrument_pag()
        data = instrument_data(700, 5)
        cfg = SearchConfig(strategy=strategy, seed=42)
        best1, trace1 = run_search(pag, data, cfg)
        best2, trace2 = run_search(pag, data, cfg)
        key1 = [(e.stratum, e.model_id, e.p_elbo) for e in trace1.entries]
        key2 = [(e.stratum, e.model_id, e.p_elbo) for e in trace2.entries]
        assert key1 == key2
        assert best1.model_id == best2.model_id
        assert best1.p_elbo == best2.p_elbo
        assert trace1.stop_reason == trace2.stop_reason

    def test_shared_models_score_identically_across_strategies(self):
        pag = instrument_pag()
        data = instrument_data(700, 5)
        _, trace_i = run_search(pag, data, SearchConfig(seed=9))
        _, trace_h = run_search(pag, data, SearchConfig(strategy="hclcv", seed=9))
        scores_i = {e.model_id: e.p_elbo for e in trace_i.entries}
        scores_h = {e.model_id: e.p_elbo for e in trace_h.entries}
        shared = set(scores_i) & set(scores_h)
        assert shared
        for mid in shared:
            assert scores_i[mid] == scores_h[mid]


class TestPinnedResults:
    """Search results recorded when fits were split into components, so a
    refactor that should not change results is checked by the suite. The
    visits and the winner are those recorded before the VBEM families moved
    to one cell table. The stratum-2 models have a child with two latent
    parents."""

    VISITS = {
        "ilcv": (
            "stratum-no-improvement",
            [
                (1, "292c43c5be", -2616.851857882849),
                (2, "88fe42fad2", -2627.174145348194),
                (2, "4c954b4596", -2627.0029575904778),
                (1, "9cae62db7b", -2623.7061616470164),
            ],
        ),
        "hclcv": (
            "local-maximum",
            [
                (1, "292c43c5be", -2616.851857882849),
                (2, "4c954b4596", -2627.0029575904778),
                (2, "88fe42fad2", -2627.174145348194),
                (1, "9cae62db7b", -2623.7061616470164),
            ],
        ),
    }

    @pytest.mark.parametrize("strategy", ["ilcv", "hclcv"])
    def test_instrument_search_keeps_its_recorded_results(self, strategy):
        best, trace = run_search(
            instrument_pag(), instrument_data(1000, 5), SearchConfig(strategy=strategy)
        )
        stop_reason, visits = self.VISITS[strategy]
        assert best.model_id == "292c43c5be"
        assert trace.stop_reason == stop_reason
        assert [(e.stratum, e.model_id) for e in trace.entries] == [v[:2] for v in visits]
        for entry, (_stratum, _mid, p_elbo) in zip(trace.entries, visits):
            assert entry.p_elbo == pytest.approx(p_elbo, rel=1e-9, abs=0.0)


class TestEquivalenceCheckUsage:
    def test_hill_climb_never_tests_markov_equivalence(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("markov_equivalent must not be called")

        # pag_of_mag tests equivalence itself, so the PAG is built first
        pag = instrument_pag()
        data = instrument_data(300, 2)
        monkeypatch.setattr(confinder.magspace, "markov_equivalent", boom)
        best, trace = run_search(pag, data, SearchConfig(strategy="hclcv"))
        assert trace.stop_reason == "local-maximum"
        with pytest.raises(AssertionError):
            run_search(pag, data, SearchConfig())


class TestDispatch:
    def test_run_search_routes_by_strategy(self):
        pag = instrument_pag()
        data = instrument_data(300, 8)
        bi, ti = run_search(pag, data, SearchConfig(strategy="ilcv"))
        bh, th = run_search(pag, data, SearchConfig(strategy="hclcv"))
        assert ti.stop_reason == "stratum-no-improvement"
        assert th.stop_reason == "local-maximum"
        assert bi.model_id == bh.model_id
