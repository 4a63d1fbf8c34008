"""Text format round trips and parse errors with line numbers."""
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confinder.bn import BnModel
from confinder.errors import GraphFormatError
from confinder.fileio import (
    parse_data,
    parse_graph_file,
    parse_latentized,
    parse_latentized_file,
    parse_mag,
    parse_model,
    parse_pag,
    parse_report,
    parse_trace,
    serialize_data,
    serialize_graph,
    serialize_latentized,
    serialize_model,
    serialize_report,
    serialize_trace,
)
from confinder.graphs import GraphKind, Mark, MixedGraph
from confinder.latentize import latentize_min
from confinder.search import ScoredModel, SearchTrace, TraceEntry
from confinder.vbem import Dataset

from oracles import random_dag, random_mag

MODEL_TEXT = """\
node A 2
node B 2
A --> B
cpt A | : 0.3 0.7
cpt B | A=0 : 0.8 0.2
cpt B | A=1 : 0.4 0.6
"""


class TestGraphParsing:
    def test_circle_circle_edge(self):
        pag = parse_pag("node A 2\nnode B 2\nA o-o B\n")
        edge = pag.edges[0]
        assert (edge.mark_a, edge.mark_b) == (Mark.CIRCLE, Mark.CIRCLE)

    def test_bidirected_edge(self):
        mag = parse_mag("node A 2\nnode B 2\nA <-> B\n")
        edge = mag.edges[0]
        assert (edge.mark_a, edge.mark_b) == (Mark.ARROW, Mark.ARROW)

    def test_malformed_mark_reports_line(self):
        with pytest.raises(GraphFormatError, match="line 3") as exc:
            parse_pag("node A 2\nnode B 2\nA >-> B\n")
        assert exc.value.line == 3
        assert ">->" in str(exc.value)

    def test_all_mark_tokens_round_trip(self):
        text = (
            "node A 2\nnode B 2\nnode C 2\nnode D 2\nnode E 2\n"
            "node F 2\nnode G 2\nnode H 2\n"
            "A --> B\nC <-> D\nE o-> F\nG o-o H\n"
        )
        gf = parse_graph_file(text, GraphKind.PAG)
        assert serialize_graph(gf.graph, gf.cardinalities) == text

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\nnode A 2\n  \nnode B 3\n# another\nA --> B\n"
        gf = parse_graph_file(text, GraphKind.DAG)
        assert gf.cardinalities == {"A": 2, "B": 3}

    def test_unknown_endpoint_reports_line(self):
        with pytest.raises(GraphFormatError, match="line 2.*unknown node 'C'"):
            parse_pag("node A 2\nA --> C\nnode B 2\n")

    def test_duplicate_pair_reports_line(self):
        with pytest.raises(GraphFormatError, match="line 4.*second edge"):
            parse_pag("node A 2\nnode B 2\nA --> B\nB <-> A\n")

    def test_node_line_validation(self):
        with pytest.raises(GraphFormatError, match="not an integer"):
            parse_pag("node A two\n")
        with pytest.raises(GraphFormatError, match="at least 2"):
            parse_pag("node A 1\n")
        with pytest.raises(GraphFormatError, match="duplicate node"):
            parse_pag("node A 2\nnode A 2\n")
        with pytest.raises(GraphFormatError, match="2 labels for 3 states"):
            parse_pag("node A 3 yes no\n")
        with pytest.raises(GraphFormatError, match="duplicate state labels"):
            parse_pag("node A 2 yes yes\n")

    def test_reserved_prefix_rejected(self):
        with pytest.raises(GraphFormatError, match="reserved"):
            parse_pag("node _L1 2\n")

    def test_latent_line_rejected_in_graph_file(self):
        with pytest.raises(GraphFormatError, match="line 2.*latent"):
            parse_pag("node A 2\nlatent _L1 states 2 children A B\n")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            parse_pag("node A 2\nA --> A\n")

    def test_invalid_kind_is_a_validation_error(self):
        # circles are not allowed in a MAG; that is graph validity, not syntax
        with pytest.raises(ValueError, match="not valid"):
            parse_mag("node A 2\nnode B 2\nA o-o B\n")

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_random_mags_round_trip(self, seed):
        mag = random_mag(random.Random(seed), 5)
        cards = {name: 2 for name in mag.nodes}
        text = serialize_graph(mag, cards)
        again = parse_mag(text)
        assert again == mag
        assert serialize_graph(again, cards) == text
        # the other two formats share the node and edge lines: a labelled
        # graph, the MAG's latentized DAG and a model over a random DAG
        # serialize, parse and serialize again to the same bytes
        rng = random.Random(seed)
        labels = {"V0": ("no", "yes"), "V3": ("0", "1")}
        text = serialize_graph(mag, cards, labels)
        gf = parse_graph_file(text, GraphKind.MAG)
        assert gf.labels == labels
        assert serialize_graph(gf.graph, gf.cardinalities, gf.labels) == text
        model = latentize_min(mag)
        model = model.with_states({name: rng.randint(2, 4) for name in model.spec.names})
        text = serialize_latentized(model, cards)
        assert serialize_latentized(parse_latentized(text), cards) == text
        dag = random_dag(rng, 5)
        draw = np.random.default_rng(seed)
        cpts = {n: draw.dirichlet([0.5, 0.5], size=2 ** len(dag.parents(n))) for n in dag.nodes}
        text = serialize_model(BnModel(dag, cards, cpts))
        assert serialize_model(parse_model(text)) == text


class TestModelFiles:
    def test_round_trip_is_byte_stable(self):
        model = parse_model(MODEL_TEXT)
        assert serialize_model(model) == MODEL_TEXT
        assert parse_model(serialize_model(model)) == model

    def test_cpt_errors_carry_lines(self):
        with pytest.raises(GraphFormatError, match="line 4.*sum to 1"):
            parse_model(
                "node A 2\nnode B 2\nA --> B\ncpt A | : 0.3 0.6\n"
                "cpt B | A=0 : 1 0\ncpt B | A=1 : 1 0\n"
            )
        with pytest.raises(GraphFormatError, match="line 5.*2 states but 3"):
            parse_model(
                "node A 2\nnode B 2\nA --> B\ncpt A | : 0.3 0.7\n"
                "cpt B | A=0 : 0.5 0.3 0.2\ncpt B | A=1 : 1 0\n"
            )
        with pytest.raises(GraphFormatError, match="line 5.*assign exactly: A"):
            parse_model(
                "node A 2\nnode B 2\nA --> B\ncpt A | : 0.3 0.7\n"
                "cpt B | C=0 : 0.5 0.5\ncpt B | A=1 : 1 0\n"
            )
        with pytest.raises(GraphFormatError, match="line 5.*out of range"):
            parse_model(
                "node A 2\nnode B 2\nA --> B\ncpt A | : 0.3 0.7\n"
                "cpt B | A=2 : 0.5 0.5\ncpt B | A=1 : 1 0\n"
            )
        with pytest.raises(GraphFormatError, match="line 6.*duplicate configuration"):
            parse_model(
                "node A 2\nnode B 2\nA --> B\ncpt A | : 0.3 0.7\n"
                "cpt B | A=0 : 0.5 0.5\ncpt B | A=0 : 1 0\n"
            )
        with pytest.raises(GraphFormatError, match="unknown node 'Z'"):
            parse_model(MODEL_TEXT + "cpt Z | : 0.5 0.5\n")

    def test_a_parent_assigned_twice_is_refused(self):
        with pytest.raises(GraphFormatError, match="line 5.*parent A is assigned twice"):
            parse_model(
                "node A 2\nnode B 2\nA --> B\ncpt A | : 0.3 0.7\n"
                "cpt B | A=0,A=1 : 0.2 0.8\ncpt B | A=0 : 1 0\n"
            )

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_probabilities_are_refused_at_their_line(self, token):
        with pytest.raises(GraphFormatError, match=f"line 2.*probability '{token}' is not finite"):
            parse_model(f"node A 2\ncpt A | : {token} 0.5\n")

    def test_missing_cpts_detected(self):
        with pytest.raises(GraphFormatError, match="missing CPT for B"):
            parse_model("node A 2\nnode B 2\nA --> B\ncpt A | : 0.3 0.7\n")
        with pytest.raises(GraphFormatError, match="missing 1 parent config"):
            parse_model(
                "node A 2\nnode B 2\nA --> B\ncpt A | : 0.3 0.7\n"
                "cpt B | A=0 : 0.5 0.5\n"
            )

    def test_non_directed_edge_rejected(self):
        with pytest.raises(GraphFormatError, match="line 3.*must be directed"):
            parse_model("node A 2\nnode B 2\nA <-> B\n")

    def test_multistate_config_order(self):
        text = (
            "node A 2\nnode B 3\nnode C 2\n"
            "A --> C\nB --> C\n"
            "cpt A | : 0.5 0.5\n"
            "cpt B | : 0.2 0.3 0.5\n"
            "cpt C | A=0,B=0 : 1.0 0.0\n"
            "cpt C | A=0,B=1 : 0.9 0.1\n"
            "cpt C | A=0,B=2 : 0.8 0.2\n"
            "cpt C | A=1,B=0 : 0.7 0.3\n"
            "cpt C | A=1,B=1 : 0.6 0.4\n"
            "cpt C | A=1,B=2 : 0.5 0.5\n"
        )
        model = parse_model(text)
        assert model.cpt("C")[1].tolist() == [0.9, 0.1]
        assert model.cpt("C")[3].tolist() == [0.7, 0.3]
        assert serialize_model(model) == text


def _dag_graph_file(text):
    return parse_graph_file(text, GraphKind.DAG).graph


# the three graph-family formats, as DAG formats, with the line kinds they refuse
FORMATS = {
    "graph": (_dag_graph_file, ("latent _L1 states 2 children A B", "cpt A | : 0.5 0.5")),
    "model": (parse_model, ("latent _L1 states 2 children A B",)),
    "latentized": (parse_latentized, ("cpt A | : 0.5 0.5",)),
}


class TestSharedRules:
    """Each rule of the shared reader fires in each format, at its line."""

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_unknown_endpoint(self, fmt):
        with pytest.raises(GraphFormatError, match="line 4: unknown node 'C'"):
            FORMATS[fmt][0]("node A 2\nnode B 2\nA --> B\nA --> C\n")

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_second_edge(self, fmt):
        with pytest.raises(GraphFormatError, match="line 4: second edge between A and B"):
            FORMATS[fmt][0]("node A 2\nnode B 2\nA --> B\nB --> A\n")

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_reserved_name(self, fmt):
        with pytest.raises(GraphFormatError, match="line 3: node '_B' uses the reserved"):
            FORMATS[fmt][0]("node A 2\n# a comment\nnode _B 2\n")

    @pytest.mark.parametrize(
        "fmt, line", [(fmt, line) for fmt, (_parse, foreign) in FORMATS.items() for line in foreign]
    )
    def test_unexpected_line_kind(self, fmt, line):
        kind = line.split()[0]
        with pytest.raises(GraphFormatError, match=f"line 3: unexpected '{kind}' line"):
            FORMATS[fmt][0](f"node A 2\nnode B 2\n{line}\nA --> B\n")

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize(
        "token", ["<->", "o-o", "o->", "---"], ids=["bidirected", "circles", "circle-arrow", "tails"]
    )
    def test_undirected_edge_in_a_dag_format(self, fmt, token):
        with pytest.raises(GraphFormatError, match="line 4: DAG edges must be directed"):
            FORMATS[fmt][0](f"node A 2\nnode B 2\nnode C 2\nA {token} B\nB --> C\n")


# each text site that reads a count or a state index: a parse of a text with
# the token there, and the refusal that names the token's line
INTEGER_SITES = {
    "cardinality": (lambda t: parse_pag(f"node A {t}\n"),
                    "line 1: cardinality '{}' is not an integer"),
    "state-count": (lambda t: parse_latentized(f"node A 2\nnode B 2\nlatent _L1 states {t} children A B\n"),
                    "line 3: state count '{}' is not an integer"),
    "parent-value": (lambda t: parse_model(MODEL_TEXT.replace("A=1", f"A={t}")),
                     "line 6: parent value '{}' is not an integer"),
    "data-cell": (lambda t: parse_data(f"A,B\n0,1\n{t},1\n"),
                  "line 3: invalid value '{}' for column A"),
}


@pytest.mark.parametrize("site", INTEGER_SITES)
@pytest.mark.parametrize("token", ["1_0", "+1", "\u0661"], ids=["underscore", "plus", "arabic-indic"])
def test_counts_and_state_indices_are_ascii_digits(site, token):
    parse, message = INTEGER_SITES[site]
    with pytest.raises(GraphFormatError, match=re.escape(message.format(token))):
        parse(token)


class TestDataFiles:
    def test_round_trip(self):
        data = Dataset(
            (("A", 2), ("B", 3)), np.array([[0, 2], [1, 0], [0, 1]], dtype=np.int64)
        )
        text = serialize_data(data)
        assert text == "A,B\n0,2\n1,0\n0,1\n"
        again = parse_data(text, cardinalities={"A": 2, "B": 3})
        assert again == data
        assert serialize_data(again) == text

    def test_reserved_header_rejected(self):
        with pytest.raises(GraphFormatError, match="line 1.*reserved"):
            parse_data("_L1,B\n0,0\n")

    def test_cell_errors_carry_lines(self):
        with pytest.raises(GraphFormatError, match="line 3.*expected 2 values"):
            parse_data("A,B\n0,1\n0\n")
        with pytest.raises(GraphFormatError, match="line 2.*invalid value 'x'"):
            parse_data("A,B\n x,1\n")
        with pytest.raises(GraphFormatError, match="line 2.*negative"):
            parse_data("A,B\n-1,1\n")
        with pytest.raises(GraphFormatError, match="line 3.*out of range"):
            parse_data("A,B\n0,1\n0,2\n", cardinalities={"A": 2, "B": 2})

    def test_header_validation(self):
        with pytest.raises(GraphFormatError, match="duplicate column"):
            parse_data("A,A\n0,0\n")
        with pytest.raises(GraphFormatError, match="no header"):
            parse_data("# only a comment\n")
        with pytest.raises(GraphFormatError, match="no data rows"):
            parse_data("A,B\n")

    def test_labels_map_through_declarations(self):
        labels = {"A": ("no", "yes")}
        data = parse_data("A,B\nno,1\nyes,0\n", labels=labels)
        assert data.column("A").tolist() == [0, 1]
        # canonical serialization always writes indices
        assert serialize_data(data) == "A,B\n0,1\n1,0\n"

    def test_labels_that_read_as_another_state_are_refused(self):
        # the data cell 0 would read as state 0, not the state labelled 0
        with pytest.raises(GraphFormatError, match="line 2.*label '1' reads as another"):
            parse_pag("node B 2\nnode A 2 1 0\n")
        with pytest.raises(GraphFormatError, match="line 1.*label '7' reads as another"):
            parse_pag("node A 2 no 7\n")
        with pytest.raises(GraphFormatError, match="column A label '1' reads as another"):
            parse_data("A,B\n0,1\n", labels={"A": ("1", "0")})
        gf = parse_graph_file("node A 3 0 one 2\n", GraphKind.PAG)
        data = parse_data("A\n0\none\n2\n1\n", labels=gf.labels)
        assert data.column("A").tolist() == [0, 1, 2, 1]

    def test_a_label_that_is_not_ascii_digits_is_a_label(self):
        # '+1' spells no state index, so it does not read as state 1
        gf = parse_graph_file("node A 2 +1 no\n", GraphKind.PAG)
        data = parse_data("A\n+1\nno\n1\n", labels=gf.labels)
        assert data.column("A").tolist() == [0, 1, 1]

    def test_unknown_label_rejected(self):
        with pytest.raises(GraphFormatError, match="invalid value 'maybe'"):
            parse_data("A,B\nmaybe,1\n", labels={"A": ("no", "yes")})

    def test_cardinality_inferred_when_absent(self):
        data = parse_data("A,B\n0,0\n1,3\n")
        assert dict(data.variables) == {"A": 2, "B": 4}
        constant = parse_data("A,B\n0,0\n")
        assert dict(constant.variables) == {"A": 2, "B": 2}


class TestLatentizedFiles:
    def latentized_text(self):
        return (
            "node X1 2\nnode X2 2\nnode X3 2\nnode _L1 2\nnode _L2 2\n"
            "X1 <-- _L1\nX2 <-- _L1\nX2 <-- _L2\nX3 <-- _L2\n"
            "latent _L1 states 2 children X1 X2\n"
            "latent _L2 states 2 children X2 X3\n"
        )

    def test_round_trip(self):
        text = self.latentized_text()
        lf = parse_latentized_file(text)
        assert lf.cardinalities == {"X1": 2, "X2": 2, "X3": 2}
        assert serialize_latentized(lf.model, lf.cardinalities) == text

    def test_matches_latentize_min_output(self):
        from confinder.graphs import Edge

        mag = MixedGraph(
            GraphKind.MAG,
            ("X1", "X2", "X3"),
            (Edge.bidirected("X1", "X2"), Edge.bidirected("X2", "X3")),
        )
        model = latentize_min(mag)
        text = serialize_latentized(model, {n: 2 for n in mag.nodes})
        again = parse_latentized(text)
        assert again.dag == model.dag
        assert again.spec == model.spec

    def test_state_mismatch_reports_line(self):
        bad = self.latentized_text().replace(
            "latent _L1 states 2", "latent _L1 states 3"
        )
        with pytest.raises(GraphFormatError, match="3 states but node line says 2"):
            parse_latentized(bad)

    def test_underscore_node_needs_latent_line(self):
        with pytest.raises(GraphFormatError, match="no\\s+latent declaration"):
            parse_latentized("node A 2\nnode _L1 2\nA <-- _L1\n")

    def test_latent_line_syntax(self):
        with pytest.raises(GraphFormatError, match="look like"):
            parse_latentized("node A 2\nlatent _L1 children A\n")
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_latentized("node A 2\nlatent _L1 states 2 children A\n")

    def test_second_latent_line_for_a_name_reports_line(self):
        text = self.latentized_text() + "latent _L1 states 2 children X1 X2\n"
        with pytest.raises(GraphFormatError, match="line 12: duplicate latent declaration '_L1'"):
            parse_latentized(text)

    def test_labels_round_trip(self):
        text = self.latentized_text().replace("node X1 2", "node X1 2 no yes")
        lf = parse_latentized_file(text)
        assert lf.labels == {"X1": ("no", "yes")}
        assert serialize_latentized(lf.model, lf.cardinalities, lf.labels) == text

    def test_plain_dag_parses_with_empty_spec(self):
        model = parse_latentized("node A 2\nnode B 2\nA --> B\n")
        assert len(model.spec) == 0
        assert model.observed == ("A", "B")


class TestReportsAndTraces:
    def test_report_round_trip(self):
        text = serialize_report(
            {"p_elbo": -12.5, "converged": True, "visited": 3, "strategy": "ilcv"}
        )
        assert text == "p_elbo: -12.5\nconverged: true\nvisited: 3\nstrategy: ilcv\n"
        assert parse_report(text) == {
            "p_elbo": "-12.5",
            "converged": "true",
            "visited": "3",
            "strategy": "ilcv",
        }

    def trace(self):
        entries = (
            TraceEntry(0, "a" * 10, -100.25, 0.125),
            TraceEntry(1, "b" * 10, -90.5, 0.5),
        )
        best = _FakeBest(-90.5)
        return SearchTrace(entries, best, "converged")

    def test_trace_round_trip(self):
        trace = self.trace()
        text = serialize_trace(trace)
        assert text.splitlines()[0] == "stratum,model_id,p_elbo,seconds"
        assert parse_trace(text) == trace.entries

    def test_normalized_times_are_zero(self):
        text = serialize_trace(self.trace(), normalize_times=True)
        for row in text.splitlines()[1:]:
            assert row.endswith(",0.000000")
        parsed = parse_trace(text)
        assert [e.p_elbo for e in parsed] == [-100.25, -90.5]

    def test_malformed_trace_rows_report_lines(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_trace("stratum,model_id,p_elbo,seconds\n1,abc\n")
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_trace("stratum,model_id,p_elbo,seconds\nx,abc,-1.0,0.1\n")


class _FakeBest:
    """Stand-in with just the attribute SearchTrace checks."""

    def __init__(self, p_elbo):
        self.p_elbo = p_elbo
