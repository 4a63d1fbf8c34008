"""Ground-truth model validation and forward sampling."""
import math

import numpy as np
import pytest

from confinder.bn import (
    BnModel,
    forward_sample,
    parent_configurations,
    parent_strides,
)
from confinder.graphs import Edge, GraphKind, MixedGraph


def chain_dag():
    return MixedGraph(
        GraphKind.DAG,
        ("A", "B", "C"),
        (Edge.directed("A", "B"), Edge.directed("B", "C")),
    )


def chain_model(p_a=0.3, p_b=(0.8, 0.4), p_c=(0.7, 0.1)):
    return BnModel(
        chain_dag(),
        {"A": 2, "B": 2, "C": 2},
        {
            "A": np.array([[1 - p_a, p_a]]),
            "B": np.array([[p_b[0], 1 - p_b[0]], [p_b[1], 1 - p_b[1]]]),
            "C": np.array([[p_c[0], 1 - p_c[0]], [p_c[1], 1 - p_c[1]]]),
        },
    )


class TestConfigIndexing:
    def test_rightmost_parent_varies_fastest(self):
        parents = ("A", "B")
        cards = {"A": 2, "B": 3}
        combos = list(parent_configurations(parents, cards))
        assert combos == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        strides = parent_strides(parents, cards)
        for j, combo in enumerate(combos):
            assert strides["A"] * combo[0] + strides["B"] * combo[1] == j

    def test_no_parents_single_config(self):
        assert list(parent_configurations((), {})) == [()]


class TestModelValidation:
    def test_accepts_consistent_model(self):
        model = chain_model()
        assert model.nodes == ("A", "B", "C")
        assert model.parents("B") == ("A",)
        assert model.cardinality("A") == 2

    def test_rejects_missing_cpt(self):
        with pytest.raises(ValueError, match="missing CPT"):
            BnModel(chain_dag(), {"A": 2, "B": 2, "C": 2}, {"A": np.array([[0.5, 0.5]])})

    def test_rejects_wrong_shape(self):
        cpts = {
            "A": np.array([[0.5, 0.5]]),
            "B": np.array([[0.5, 0.5]]),  # needs one row per parent value
            "C": np.array([[0.5, 0.5], [0.5, 0.5]]),
        }
        with pytest.raises(ValueError, match="shape"):
            BnModel(chain_dag(), {"A": 2, "B": 2, "C": 2}, cpts)

    def test_rejects_unnormalized_rows(self):
        bad = chain_model().cpt("A").copy()
        bad[0, 0] = 0.6
        cpts = {"A": bad, "B": chain_model().cpt("B"), "C": chain_model().cpt("C")}
        with pytest.raises(ValueError, match="sum to 1"):
            BnModel(chain_dag(), {"A": 2, "B": 2, "C": 2}, cpts)

    def test_rejects_negative_probabilities(self):
        cpts = {
            "A": np.array([[1.2, -0.2]]),
            "B": chain_model().cpt("B"),
            "C": chain_model().cpt("C"),
        }
        with pytest.raises(ValueError, match="negative"):
            BnModel(chain_dag(), {"A": 2, "B": 2, "C": 2}, cpts)

    def test_rejects_bad_cardinalities(self):
        with pytest.raises(ValueError, match="missing cardinalities"):
            BnModel(chain_dag(), {"A": 2, "B": 2}, {})
        with pytest.raises(ValueError, match="unknown nodes"):
            BnModel(
                chain_dag(),
                {"A": 2, "B": 2, "C": 2, "Z": 2},
                {
                    "A": np.array([[0.5, 0.5]]),
                    "B": chain_model().cpt("B"),
                    "C": chain_model().cpt("C"),
                },
            )
        with pytest.raises(ValueError, match="at least 2"):
            BnModel(chain_dag(), {"A": 1, "B": 2, "C": 2}, {})

    def test_rejects_cpt_for_unknown_node(self):
        cpts = {
            "A": np.array([[0.5, 0.5]]),
            "B": chain_model().cpt("B"),
            "C": chain_model().cpt("C"),
            "Z": np.array([[0.5, 0.5]]),
        }
        with pytest.raises(ValueError, match="unknown nodes"):
            BnModel(chain_dag(), {"A": 2, "B": 2, "C": 2}, cpts)

    def test_rejects_cyclic_graph(self):
        cyclic = MixedGraph(
            GraphKind.DAG,
            ("A", "B", "C"),
            (
                Edge.directed("A", "B"),
                Edge.directed("B", "C"),
                Edge.directed("C", "A"),
            ),
        )
        with pytest.raises(ValueError):
            BnModel(cyclic, {"A": 2, "B": 2, "C": 2}, {})

    def test_tables_are_read_only(self):
        model = chain_model()
        with pytest.raises(ValueError):
            model.cpt("A")[0, 0] = 0.9

    def test_equality_compares_tables(self):
        assert chain_model() == chain_model()
        assert chain_model() != chain_model(p_a=0.4)


class TestForwardSample:
    def test_deterministic_cpts_force_every_row(self):
        cpts = {
            "A": np.array([[0.0, 1.0]]),
            "B": np.array([[0.0, 1.0], [0.0, 1.0]]),
            "C": np.array([[0.0, 1.0], [1.0, 0.0]]),
        }
        model = BnModel(chain_dag(), {"A": 2, "B": 2, "C": 2}, cpts)
        data = forward_sample(model, 25, seed=9)
        assert data.names == ("A", "B", "C")
        assert np.array_equal(data.rows, np.tile([1, 1, 0], (25, 1)))

    def test_hidden_node_absent_from_header(self):
        data = forward_sample(chain_model(), 10, seed=1, hide={"B"})
        assert data.names == ("A", "C")
        assert data.rows.shape == (10, 2)

    def test_hide_validation(self):
        with pytest.raises(ValueError, match="unknown"):
            forward_sample(chain_model(), 5, seed=0, hide={"Z"})
        with pytest.raises(ValueError, match="no data"):
            forward_sample(chain_model(), 5, seed=0, hide={"A", "B", "C"})
        with pytest.raises(ValueError, match="at least 1"):
            forward_sample(chain_model(), 0, seed=0)

    def test_reproducible_bit_for_bit(self):
        a = forward_sample(chain_model(), 200, seed=77)
        b = forward_sample(chain_model(), 200, seed=77)
        c = forward_sample(chain_model(), 200, seed=78)
        assert np.array_equal(a.rows, b.rows)
        assert not np.array_equal(a.rows, c.rows)

    def test_conditional_frequencies_match_cpts(self):
        # every conditional frequency must land within 4 binomial standard
        # errors of its CPT entry
        model = chain_model()
        n = 10000
        data = forward_sample(model, n, seed=5)
        by_name = {name: data.column(name) for name in data.names}
        for node in model.nodes:
            parents = model.parents(node)
            table = model.cpt(node)
            for j, combo in enumerate(parent_configurations(parents, model.cardinalities)):
                mask = np.ones(n, dtype=bool)
                for parent, value in zip(parents, combo):
                    mask &= by_name[parent] == value
                total = int(mask.sum())
                assert total > 100  # binary chain keeps every config populated
                for state in range(model.cardinality(node)):
                    p = table[j, state]
                    freq = float((by_name[node][mask] == state).mean())
                    band = 4.0 * math.sqrt(p * (1.0 - p) / total)
                    assert abs(freq - p) <= band + 1e-12

    def test_multistate_sampling_stays_in_range(self):
        dag = MixedGraph(GraphKind.DAG, ("X", "Y"), (Edge.directed("X", "Y"),))
        model = BnModel(
            dag,
            {"X": 3, "Y": 4},
            {
                "X": np.array([[0.2, 0.5, 0.3]]),
                "Y": np.array(
                    [
                        [0.1, 0.2, 0.3, 0.4],
                        [0.25, 0.25, 0.25, 0.25],
                        [0.7, 0.1, 0.1, 0.1],
                    ]
                ),
            },
        )
        data = forward_sample(model, 500, seed=3)
        assert data.column("X").max() <= 2
        assert data.column("Y").max() <= 3
        assert data.column("X").min() >= 0

    def test_states_match_the_cumulative_table_expression(self):
        # the states must stay bit-identical to counting the cumulative
        # bounds below each draw over an N x k table, the expression the
        # sampler used before it searched one configuration at a time
        k = 64
        table_rng = np.random.default_rng(5)
        child = table_rng.dirichlet(np.full(k, 0.3), size=3)
        child[1, ::2] = 0.0  # zero-probability states tie cumulative bounds
        child[1] /= child[1].sum()
        dag = MixedGraph(GraphKind.DAG, ("X", "Y"), (Edge.directed("X", "Y"),))
        model = BnModel(
            dag, {"X": 3, "Y": k}, {"X": np.array([[0.2, 0.5, 0.3]]), "Y": child}
        )
        n = 20000
        data = forward_sample(model, n, seed=9)

        rng = np.random.default_rng(9)

        def table_states(node, j):
            cumulative = np.cumsum(model.cpt(node), axis=1)[j]
            states = (rng.random(n)[:, None] > cumulative).sum(axis=1)
            return np.minimum(states, model.cardinality(node) - 1)

        x = table_states("X", np.zeros(n, dtype=np.int64))
        y = table_states("Y", x)
        assert np.array_equal(data.column("X"), x)
        assert np.array_equal(data.column("Y"), y)
        assert len(np.unique(y)) > 32
