"""One cold repetition of the library path behind ``confinder learn``.

Run as its own process, so every repetition pays the import and fills the
package's caches from empty, as a command-line run does:

    python3 perfbench/child.py --src SRC --pag P --data D --strategy ilcv \
        --out DIR --started T [--rep N] [--trace]

It parses the PAG and data, runs ``run_search``, writes the report, the
latentized model and the visit trace into ``--out``, and prints one JSON
line of measurements. ``--started`` is the parent's ``time.monotonic()``
just before it started this process; the clock is system-wide, so set-up
time includes interpreter start-up. With ``--trace`` the search runs under
the layer wrappers of ``tracer.py`` and the spans go to ``--out``.

``--probe`` instead times one cold ``ci_signature`` of the PAG's reference
MAG and exits.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

# repeated calls per public VBEM operation in the traced run
STEP_CALLS = 21


def _args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--pag", required=True)
    p.add_argument("--data")
    p.add_argument("--strategy", default="ilcv")
    p.add_argument("--out")
    p.add_argument("--started", type=float)
    p.add_argument("--rep", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--probe", action="store_true")
    return p.parse_args(argv)


def _median_ms(fn) -> float:
    times = []
    for _ in range(STEP_CALLS):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1e3


def _probe(args) -> dict:
    from confinder import GraphKind, ci_signature, parse_graph_file, reference_mag

    pag = parse_graph_file(Path(args.pag).read_text(), GraphKind.PAG).graph
    mag = reference_mag(pag)
    t = time.perf_counter()
    ci_signature(mag)
    return {"ci_signature_cold_s": time.perf_counter() - t}


def _learn(args) -> dict:
    import numpy as np

    from confinder import (
        GraphKind,
        SearchConfig,
        elbo,
        parse_data,
        parse_graph_file,
        run_search,
        serialize_latentized,
        serialize_report,
        serialize_trace,
        vb_e_step,
        vb_m_step,
    )

    t = time.perf_counter()
    gf = parse_graph_file(Path(args.pag).read_text(), GraphKind.PAG)
    data = parse_data(Path(args.data).read_text(), gf.cardinalities, gf.labels)
    parse_s = time.perf_counter() - t
    setup_s = time.monotonic() - args.started

    cfg = SearchConfig(strategy=args.strategy)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(args.rep)
        with tracer.installed(tracing.confinder_targets()):
            with tracer.span(tracing.ROOT):
                best, trace = run_search(gf.graph, data, cfg)
        search_s = tracer.spans[0].seconds
    else:
        t = time.perf_counter()
        best, trace = run_search(gf.graph, data, cfg)
        search_s = time.perf_counter() - t

    t = time.perf_counter()
    out = Path(args.out)
    report = {
        "strategy": cfg.strategy.value,
        "stop_reason": trace.stop_reason,
        "visited": len(trace.entries),
        "best_model_id": best.model_id,
        "best_stratum": best.stratum,
        "latents": len(best.model.spec),
        "elbo": best.elbo,
        "p_elbo": best.p_elbo,
        "iterations": best.report.iterations,
        "converged": best.report.converged,
        "seconds": round(search_s, 6),
    }
    (out / "report.txt").write_text(serialize_report(report))
    cards = dict(data.variables)
    (out / "model.txt").write_text(serialize_latentized(best.model, cards))
    (out / "trace.csv").write_text(serialize_trace(trace))
    write_s = time.perf_counter() - t

    result = {
        "setup_s": setup_s,
        "parse_s": parse_s,
        "search_s": search_s,
        "write_s": write_s,
        "visited": len(trace.entries),
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        (out / "spans.json").write_text(json.dumps(tracer.records()))
        layers = tracing.layer_metrics(tracer.spans)
        model, state, prior = best.model, best.state, cfg.prior()
        layers["vbem.e_step_ms"] = _median_ms(
            lambda: vb_e_step(model, data, state.q_theta, state.q_latent)
        )
        layers["vbem.m_step_ms"] = _median_ms(
            lambda: vb_m_step(model, data, state.q_latent, prior)
        )
        layers["vbem.bound_ms"] = _median_ms(lambda: elbo(model, data, state, prior))
        layers["vbem.rows"] = data.n_rows
        layers["vbem.distinct_rows"] = len(np.unique(data.rows, axis=0))
        layers["fileio.parse_s"] = parse_s
        layers["fileio.write_s"] = write_s
        result["layers"] = layers
        result["strata"] = [
            s.attrs["strata"] for s in tracer.spans if "strata" in s.attrs
        ]
    return result


def main(argv=None) -> int:
    args = _args(argv)
    sys.path.insert(0, args.src)
    result = _probe(args) if args.probe else _learn(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
