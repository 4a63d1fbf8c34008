"""Tests of the benchmark's own tracer, output checks and workloads."""
import types

import numpy as np
import pytest

import checks
import tracer
from confinder import (
    Edge,
    GraphKind,
    MixedGraph,
    SearchConfig,
    derive_true_pag,
    forward_sample,
    latentize_min,
    parse_pag,
    run_search,
    serialize_latentized,
    serialize_report,
)
from confinder.magspace import circle_slots
from workloads import WIDE_PAG, instrument_model


def _fake_layers():
    layer = types.SimpleNamespace()
    layer.inner = lambda x: sum(range(x))
    layer.outer = lambda x: layer.inner(x) + layer.inner(x)
    layer.boom = lambda: 1 / 0
    return layer


def test_spans_nest_by_call_stack():
    layer = _fake_layers()
    t = tracer.Tracer(rep=7)
    targets = [(layer, "outer", "outer", None), (layer, "inner", "inner", None)]
    with t.installed(targets):
        with t.span("root"):
            layer.outer(1000)
            layer.inner(10)
    names = [(s.name, s.parent) for s in t.spans]
    assert names == [("root", None), ("outer", 0), ("inner", 1), ("inner", 1), ("inner", 0)]
    assert all(s.rep == 7 for s in t.spans)
    for span in t.spans:
        if span.parent is not None:
            parent = t.spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end


def test_self_times_sum_to_the_root_duration():
    layer = _fake_layers()
    t = tracer.Tracer()
    with t.installed([(layer, "outer", "outer", None), (layer, "inner", "inner", None)]):
        with t.span("root"):
            for _ in range(3):
                layer.outer(5000)
    own = tracer.self_times(t.spans)
    assert all(v >= 0 for v in own)
    assert sum(own) == pytest.approx(t.spans[0].seconds, rel=1e-9, abs=1e-12)


def test_wrappers_are_restored_even_after_an_error():
    layer = _fake_layers()
    originals = (layer.outer, layer.inner, layer.boom)
    t = tracer.Tracer()
    with pytest.raises(ZeroDivisionError):
        with t.installed([(layer, "outer", "o", None), (layer, "boom", "b", None)]):
            assert layer.outer is not originals[0]
            layer.boom()
    assert (layer.outer, layer.inner, layer.boom) == originals
    assert t.spans[0].name == "b" and t.spans[0].end >= t.spans[0].start


def test_confinder_targets_are_restored_and_layers_account_for_the_search():
    before = {(m, a): getattr(m, a) for m, a, _n, _d in tracer.confinder_targets()}
    model = instrument_model()
    pag = derive_true_pag(model, "U")
    data = forward_sample(model, 150, 3, ("U",))
    t = tracer.Tracer()
    with t.installed(tracer.confinder_targets()):
        with t.span(tracer.ROOT):
            best, trace = run_search(pag, data, SearchConfig(restarts=1))
    assert {(m, a): getattr(m, a) for (m, a) in before} == before
    m = tracer.layer_metrics(t.spans)
    layers = m["search.self_s"] + m["magspace.self_s"] + m["graphs.s"]
    layers += m["latentize.self_s"] + m["vbem.fit_s"]
    assert layers == pytest.approx(m["search.traced_s"], rel=1e-9)
    assert m["vbem.fits"] == len(trace.entries)
    assert m["magspace.candidates"] == 4 and m["magspace.mags"] == 4
    assert m["graphs.ci_signature_calls"] == 2 * m["latentize.verify_calls"]


CARDS = {"A": 2, "B": 2, "C": 2, "D": 2}
TRACE = "stratum,model_id,p_elbo,seconds\n1,aaa,-10.5,0.1\n2,bbb,-9.25,0.2\n"


def _model_text():
    mag = MixedGraph(
        GraphKind.MAG,
        ("A", "B", "C", "D"),
        (Edge.directed("A", "B"), Edge.bidirected("B", "C"), Edge.directed("D", "C")),
    )
    return serialize_latentized(latentize_min(mag), CARDS)


def _report(best="bbb", p=-9.25, stop="stratum-no-improvement"):
    return serialize_report({"stop_reason": stop, "best_model_id": best, "p_elbo": p})


def test_checker_accepts_consistent_outputs():
    problems, fingerprint = checks.check_learn(_report(), _model_text(), TRACE, ("B", "C"), CARDS)
    assert problems == []
    assert fingerprint == ("bbb", -9.25, ("aaa", "bbb"))


@pytest.mark.parametrize(
    "report, model_edit, pair, expected",
    [
        (_report(best="aaa", p=-10.5), None, ("B", "C"), "not the trace maximum"),
        (_report(best="zzz"), None, ("B", "C"), "not in the trace"),
        (_report(stop="budget"), None, ("B", "C"), "budget"),
        (_report(), None, ("A", "B"), "fixed pair"),
        (_report(), "# comment\n", ("B", "C"), "round-trip"),
        ("p_elbo: -9.25\n", None, ("B", "C"), "unreadable"),
    ],
)
def test_checker_rejects_fabricated_bad_outputs(report, model_edit, pair, expected):
    model_text = _model_text() + (model_edit or "")
    problems, _ = checks.check_learn(report, model_text, TRACE, pair, CARDS)
    assert any(expected in p for p in problems), problems


def test_strata_check():
    assert checks.check_strata([{"1": 1, "2": 2, "3": 1}], {1: 1, 2: 2, 3: 1}) == []
    assert checks.check_strata([{"1": 2}], {1: 1}) != []
    assert checks.check_strata([], {1: 1}) != []


def test_wide_pag_has_six_circles_and_one_fixed_bidirected_edge():
    pag = parse_pag(WIDE_PAG)
    assert len(pag.nodes) == 9 and len(circle_slots(pag)) == 6
    assert pag.bidirected_edges() == (("D", "E"),)


def test_instrument_rows_repeat():
    data = forward_sample(instrument_model(), 1000, 0, ("U",))
    assert len(np.unique(data.rows, axis=0)) == 16
