"""Behavioral acceptance gate.

Ten numbered checks cover the load-bearing guarantees: bound monotonicity
and exactness, enumeration and latentization correctness against brute
force, end-to-end confounder recovery, strategy dominance, the anytime
budget contract, and bit-level reproducibility.  Each check writes one
``[acceptance] criterion NN PASS|FAIL`` line to the real stdout so the
summary survives pytest's output capture.

The recovery margin (criterion 07) and the slow-instance size (criterion
09) were calibrated once on the reference instrument network and are
frozen here; see the assertions for the frozen values.
"""
import contextlib
import math
import random
import sys
import time

import numpy as np
import pytest

from confinder.bn import BnModel, forward_sample
from confinder.cli import EXIT_OK, main
from confinder.experiment import ExperimentSpec, derive_true_pag, run_experiment
from confinder.graphs import Edge, GraphKind, Mark, MixedGraph
from confinder.latentize import (
    Latent,
    LatentSpec,
    LatentizedDag,
    apply_spec,
    candidate_groupings,
    latentize_min,
    verify_ci_equivalence,
)
from confinder.magspace import enumerate_mags, pag_of_mag
from confinder.search import SearchConfig, Strategy, run_search
from confinder.seeds import derive_seed
from confinder.vbem import Dataset, run_vbem
from confinder.vbem import p_elbo as penalized

from oracles import (
    enumerate_oracle,
    exact_conjugate_score,
    exact_latent_marginal,
    random_latentized_instance,
    random_maximal_mag,
    random_observed_dag,
)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _pass_fail_lines(capfd):
    """Expose the capture handle so gate lines can bypass it."""
    global _CAPTURE
    _CAPTURE = capfd
    try:
        yield
    finally:
        _CAPTURE = None


def _emit(num: int, ok: bool, label: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {num:02d} {status}  {label}\n"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
    else:
        sys.stdout.write(line)


@contextlib.contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        _emit(num, False, label)
        raise
    _emit(num, True, label)


# -- shared instances -------------------------------------------------------

def instrument_model(child_states: int = 2) -> BnModel:
    """A->B<-U->C<-D: the confounded pair (B, C) is forced by the class."""
    dag = MixedGraph(
        GraphKind.DAG,
        ("A", "B", "C", "D", "U"),
        (
            Edge.directed("A", "B"),
            Edge.directed("U", "B"),
            Edge.directed("U", "C"),
            Edge.directed("D", "C"),
        ),
    )
    half = np.array([[0.5, 0.5]])
    if child_states == 2:
        child = np.array(
            [[0.95, 0.05], [0.25, 0.75], [0.75, 0.25], [0.05, 0.95]]
        )
    else:
        # one dominant state per (parent, confounder) configuration; the
        # others get 0.1 each, or share 0.8 evenly when there are more than
        # eight, so every row is a distribution with a dominant state
        other = min(0.1, 0.8 / (child_states - 1))
        child = np.full((4, child_states), other)
        for j in range(4):
            child[j, j % child_states] = 1.0 - other * (child_states - 1)
    cards = {"A": 2, "D": 2, "U": 2, "B": child_states, "C": child_states}
    return BnModel(
        dag, cards, {"A": half, "U": half, "D": half, "B": child, "C": child}
    )


def test_instrument_model_has_valid_rows_for_any_child_cardinality():
    # the 2- and 4-state tables are the ones criteria 07, 08 and 10 and the
    # earlier criterion-09 instance were calibrated on
    assert np.array_equal(
        instrument_model(2).cpt("B"),
        [[0.95, 0.05], [0.25, 0.75], [0.75, 0.25], [0.05, 0.95]],
    )
    four = np.full((4, 4), 0.1)
    for j in range(4):
        four[j, j] = 1.0 - 0.1 * 3
    assert np.array_equal(instrument_model(4).cpt("B"), four)
    for states in (3, 10, 11, 64):
        # BnModel rejects negative entries and rows not summing to 1
        child = instrument_model(states).cpt("C")
        ranked = np.sort(child, axis=1)
        assert np.all(ranked[:, -1] > ranked[:, -2])
        assert list(child.argmax(axis=1)) == [j % states for j in range(4)]


# -- 01: the bound never decreases within a fit ------------------------------

def test_01_bound_is_monotone_across_iterations():
    with criterion(1, "variational bound never decreases across iterations"):
        checked_pairs = 0
        for seed in range(120):
            rng = random.Random(seed)
            model, data = random_latentized_instance(rng)
            state, _ = run_vbem(
                model, data, c=1e-4, restarts=2, seed=seed
            )
            trace = state.elbo_trace
            for earlier, later in zip(trace, trace[1:]):
                assert later >= earlier - 1e-8, (
                    f"seed {seed}: bound fell from {earlier} to {later}"
                )
            checked_pairs += max(len(trace) - 1, 0)
        assert checked_pairs > 200  # the corpus actually iterated


# -- 02: latent-free fits are exact ------------------------------------------

def test_02_conjugate_fits_match_the_closed_form():
    with criterion(2, "no-latent fits equal the closed-form log marginal"):
        for seed in range(50):
            rng = random.Random(seed)
            names = tuple(f"V{i}" for i in range(rng.randint(2, 5)))
            dag = MixedGraph(
                GraphKind.DAG, names, tuple(random_observed_dag(rng, names))
            )
            cards = {n: rng.randint(2, 4) for n in names}
            rows = [
                [rng.randrange(cards[n]) for n in names]
                for _ in range(rng.randint(3, 30))
            ]
            data = Dataset([(n, cards[n]) for n in names], rows)
            _, report = run_vbem(LatentizedDag(dag, LatentSpec(())), data)
            oracle = exact_conjugate_score(
                cards,
                {n: dag.parents(n) for n in names},
                [dict(zip(names, row)) for row in rows],
            )
            assert report.elbo == pytest.approx(oracle, abs=1e-9)
            assert report.p_elbo == report.elbo

        # single binary variable, counts (2, 1): B(3, 2) / B(1, 1) = 1/12
        one = MixedGraph(GraphKind.DAG, ("A",), ())
        data = Dataset([("A", 2)], [[0], [0], [1]])
        _, report = run_vbem(LatentizedDag(one, LatentSpec(())), data)
        assert report.elbo == pytest.approx(math.log(1.0 / 12.0), abs=1e-9)


# -- 03: the bound really is a lower bound -----------------------------------

def test_03_bound_stays_below_the_exact_evidence():
    with criterion(3, "fitted bound is below the exact log evidence"):
        dag = MixedGraph(
            GraphKind.DAG,
            ("A", "B", "_L1"),
            (Edge.directed("_L1", "A"), Edge.directed("_L1", "B")),
        )
        model = LatentizedDag(
            dag, LatentSpec((Latent("_L1", ("A", "B"), 2),))
        )
        cards = {"A": 2, "B": 2, "_L1": 2}
        parents = {"A": ("_L1",), "B": ("_L1",), "_L1": ()}
        for seed in range(20):
            rng = random.Random(seed)
            rows = [[rng.randrange(2), rng.randrange(2)] for _ in range(10)]
            data = Dataset([("A", 2), ("B", 2)], rows)
            _, report = run_vbem(model, data, seed=seed)
            exact = exact_latent_marginal(
                cards, parents, [{"A": a, "B": b} for a, b in rows], ["_L1"]
            )
            assert report.elbo <= exact + 1e-6


# -- 04: the label-permutation penalty ---------------------------------------

def test_04_penalty_is_the_log_permutation_count():
    with criterion(4, "penalty equals the log label-permutation count"):
        rng = random.Random(3)
        for states in (2, 3, 4):
            spec = LatentSpec((Latent("_L1", ("A", "B"), states),))
            value = rng.uniform(-500.0, 0.0)
            assert penalized(value, spec) == value - math.log(
                math.factorial(states)
            )

        latents = (
            Latent("_L1", ("A", "B"), 2),
            Latent("_L2", ("B", "C"), 3),
            Latent("_L3", ("C", "D"), 4),
        )
        names = ("A", "B", "C", "D")
        edges = tuple(
            Edge.directed(l.name, c) for l in latents for c in l.children
        )
        dag = MixedGraph(
            GraphKind.DAG,
            names + tuple(l.name for l in latents),
            edges,
        )
        model = LatentizedDag(dag, LatentSpec(latents))
        rows = [[rng.randrange(2) for _ in names] for _ in range(20)]
        data = Dataset([(n, 2) for n in names], rows)
        _, report = run_vbem(model, data, restarts=2, seed=0)
        expected = sum(
            math.log(math.factorial(k)) for k in (2, 3, 4)
        )
        assert report.p_elbo == penalized(report.elbo, model.spec)
        assert report.elbo - report.p_elbo == pytest.approx(
            expected, abs=1e-12
        )


# -- 05: class enumeration against brute force -------------------------------

def test_05_enumeration_matches_brute_force():
    with criterion(5, "class enumeration matches the brute-force oracle"):
        for seed in range(50):
            rng = random.Random(seed)
            mag = random_maximal_mag(rng, rng.randint(3, 5), edge_prob=0.45)
            pag = pag_of_mag(mag)
            strata = enumerate_mags(pag)
            produced = [g for s in strata for g in s.mags]
            assert set(produced) == enumerate_oracle(pag, mag)
            assert len(set(produced)) == len(produced)
            counts = [s.bidirected_count for s in strata]
            assert counts == sorted(counts)
            for stratum in strata:
                assert stratum.mags
                for g in stratum.mags:
                    assert g.bidirected_count == stratum.bidirected_count

        pair = MixedGraph(
            GraphKind.PAG,
            ("A", "B"),
            (Edge("A", "B", Mark.CIRCLE, Mark.CIRCLE),),
        )
        strata = enumerate_mags(pair)
        assert sum(len(s.mags) for s in strata) == 3
        assert [(s.bidirected_count, len(s.mags)) for s in strata] == [
            (0, 2),
            (1, 1),
        ]


# -- 06: latentization is faithful and irreducible ---------------------------

def bidirected_chain(length: int) -> MixedGraph:
    names = tuple(f"X{i + 1}" for i in range(length))
    edges = tuple(
        Edge.bidirected(a, b) for a, b in zip(names, names[1:])
    )
    return MixedGraph(GraphKind.MAG, names, edges)


def test_06_minimal_latentization_is_faithful_and_irreducible():
    with criterion(6, "minimal latentization is faithful and irreducible"):
        corpus = [
            bidirected_chain(3),
            bidirected_chain(4),
            bidirected_chain(5),
            MixedGraph(
                GraphKind.MAG,
                ("A", "B", "C", "D", "E"),
                (
                    Edge.directed("A", "B"),
                    Edge.bidirected("B", "C"),
                    Edge.bidirected("C", "D"),
                    Edge.directed("E", "D"),
                ),
            ),
            MixedGraph(
                GraphKind.MAG,
                ("A", "B", "C", "D"),
                (
                    Edge.directed("A", "B"),
                    Edge.bidirected("B", "C"),
                    Edge.directed("D", "C"),
                ),
            ),
        ]
        seed = 0
        while len(corpus) < 20 and seed < 500:
            rng = random.Random(seed)
            seed += 1
            mag = random_maximal_mag(rng, rng.randint(4, 8), edge_prob=0.3)
            if 1 <= mag.bidirected_count <= 4:
                corpus.append(mag)
        assert len(corpus) == 20
        assert max(len(m.nodes) for m in corpus) == 8

        for mag in corpus:
            result = latentize_min(mag)
            assert verify_ci_equivalence(result)
            needed = len(result.spec)
            for spec in candidate_groupings(mag):
                if len(spec) < needed:
                    assert not verify_ci_equivalence(apply_spec(mag, spec))

        chain = latentize_min(bidirected_chain(3))
        assert [l.children for l in chain.spec.latents] == [
            ("X1", "X2"),
            ("X2", "X3"),
        ]


# -- 07: end-to-end recovery --------------------------------------------------

def test_07_recovers_the_hidden_confounder():
    with criterion(7, "hidden confounder recovered from the true class"):
        spec = ExperimentSpec(
            model=instrument_model(),
            hide="U",
            sample_size=1000,
            seeds=tuple(range(10)),
            config=SearchConfig(strategy=Strategy.ILCV, seed=0),
        )
        bundle = run_experiment(spec)
        assert not bundle.partial
        # margin floor frozen after the calibration run: every seed placed
        # the (B, C) latent with |margin| < 0.03 nats, so -5 is conservative
        recovered = 0
        for run in bundle.runs:
            placed = any(
                {"B", "C"} <= set(l.children)
                for l in run.learned.model.spec.latents
            )
            if placed and run.margin >= -5.0:
                recovered += 1
        assert recovered >= 6, f"only {recovered}/10 seeds recovered the latent"


# -- 08: stratified search dominates hill climbing ---------------------------

def test_08_stratified_search_dominates_hill_climbing():
    with criterion(8, "exhaustive stratified search beats hill climbing"):
        model = instrument_model()
        observed = tuple(n for n in model.nodes if n != "U")
        pag = derive_true_pag(model, "U")
        instances = [
            (pag, forward_sample(model, 400, derive_seed(s, "sample"), ("U",)))
            for s in (0, 1, 2)
        ]

        pair = MixedGraph(
            GraphKind.PAG,
            ("A", "B"),
            (Edge("A", "B", Mark.CIRCLE, Mark.CIRCLE),),
        )
        rng = np.random.default_rng(5)
        a = rng.integers(0, 2, 600)
        b = np.where(rng.random(600) < 0.85, a, 1 - a)
        instances.append(
            (pair, Dataset([("A", 2), ("B", 2)], np.column_stack([a, b])))
        )

        for source, data in instances:
            best_i, trace_i = run_search(
                source, data, SearchConfig(strategy=Strategy.ILCV, seed=0)
            )
            best_h, _ = run_search(
                source, data, SearchConfig(strategy=Strategy.HCLCV, seed=0)
            )
            assert trace_i.stop_reason in (
                "converged",
                "stratum-no-improvement",
            )
            assert best_i.p_elbo >= best_h.p_elbo - 1e-6


# -- 09: the anytime budget contract ------------------------------------------

def test_09_budgeted_runs_return_on_time():
    with criterion(9, "budgeted runs return on time with best-of-trace"):
        # frozen slow instance: 64-state children and N=300000 leave about
        # 16 000 distinct rows, and fits run over distinct rows, so a latent
        # fit takes seconds to tens of seconds; the full walk needs well over
        # 30 s while a 2 s budget must hand back within a fit of expiring
        model = instrument_model(child_states=64)
        data = forward_sample(model, 300000, derive_seed(0, "sample"), ("U",))
        pag = derive_true_pag(model, "U")

        started = time.monotonic()
        _, full_trace = run_search(
            pag, data, SearchConfig(strategy=Strategy.ILCV, seed=0)
        )
        full_seconds = time.monotonic() - started
        assert full_trace.stop_reason != "budget"
        assert full_seconds >= 30.0

        fit_seconds = [full_trace.entries[0].seconds] + [
            later.seconds - earlier.seconds
            for earlier, later in zip(full_trace.entries, full_trace.entries[1:])
        ]
        grace = 1.5 * max(fit_seconds)

        for strategy in (Strategy.ILCV, Strategy.HCLCV):
            cfg = SearchConfig(strategy=strategy, seed=0, budget_seconds=2.0)
            started = time.monotonic()
            best, trace = run_search(pag, data, cfg)
            took = time.monotonic() - started
            assert trace.stop_reason == "budget"
            assert took <= 2.0 + grace
            assert best.p_elbo == max(e.p_elbo for e in trace.entries)
            assert best.model_id in {e.model_id for e in trace.entries}


# -- 10: bit-level reproducibility --------------------------------------------

def test_10_identical_seeds_reproduce_identical_bytes(tmp_path):
    with criterion(10, "seeded reruns produce byte-identical outputs"):
        from confinder.fileio import serialize_graph, serialize_model

        model = instrument_model()
        pag = derive_true_pag(model, "U")
        cards = {n: 2 for n in pag.nodes}
        (tmp_path / "truth.model").write_text(serialize_model(model))
        (tmp_path / "true.pag").write_text(serialize_graph(pag, cards))
        code = main(
            [
                "sample",
                str(tmp_path / "truth.model"),
                "-n",
                "500",
                "--seed",
                "11",
                "--hide",
                "U",
                "-o",
                str(tmp_path / "data.csv"),
            ]
        )
        assert code == EXIT_OK

        for tag in ("one", "two"):
            code = main(
                [
                    "learn",
                    str(tmp_path / "true.pag"),
                    str(tmp_path / "data.csv"),
                    "--normalize-times",
                    "-o",
                    str(tmp_path / f"report.{tag}"),
                    "--trace-out",
                    str(tmp_path / f"trace.{tag}"),
                    "--model-out",
                    str(tmp_path / f"model.{tag}"),
                ]
            )
            assert code == EXIT_OK
        for name in ("report", "trace", "model"):
            first = (tmp_path / f"{name}.one").read_bytes()
            second = (tmp_path / f"{name}.two").read_bytes()
            assert first == second, f"{name} bytes differ between reruns"

        data = forward_sample(model, 500, derive_seed(11, "sample"), ("U",))
        cfg = SearchConfig(strategy=Strategy.ILCV, seed=0)
        best_a, trace_a = run_search(pag, data, cfg)
        best_b, trace_b = run_search(pag, data, cfg)
        assert best_a.model_id == best_b.model_id
        assert best_a.p_elbo == best_b.p_elbo
        assert [
            (e.stratum, e.model_id, e.p_elbo) for e in trace_a.entries
        ] == [(e.stratum, e.model_id, e.p_elbo) for e in trace_b.entries]
