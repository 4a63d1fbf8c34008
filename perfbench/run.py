"""The repository benchmark: cold ``confinder learn`` repetitions.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory, and the command fails without printing a result when
that is missing. Workloads are listed in ``workloads.py``.

Each repetition is a fresh single-threaded process (``child.py``) that
parses the generated PAG and data, runs ``run_search`` and writes the
report, model and trace, as ``confinder learn`` does. Repetitions run one
at a time, back to back, for ``--seconds``, cycling through the workload's
panel of data sets (see ``Bench.run``). Every repetition is checked
(``checks.py``), and repetitions on the same data must agree.

``--trace 0`` prints the end-to-end metrics; times are the mean over the
panel of each data set's median. ``--trace 1`` alternates untraced and
traced repetitions, prints the per-layer metrics of the traced ones
(averaged the same way) plus the tracing overhead, and writes every span
to ``.perfbench_runs/spans-<workload>-<seed>.json``. The last line of
output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

# a run must end within 180 s; no child may run past this point
HARD_LIMIT_S = 165.0
# panel entries a traced run covers
TRACE_PANEL = 4
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def declared_units(section: str) -> Dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class ChildFailed(Exception):
    pass


@dataclass
class Repetition:
    rep: int
    instance: int  # index into the workload's data panel
    traced: bool
    result: Dict = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    wall_s: float = 0.0


class Bench:
    def __init__(self, workload, seed: int, work: Path, started: float):
        from confinder import GraphKind, parse_graph_file
        from workloads import generate

        self.workload = workload
        self.seed = seed
        self.work = work
        self.pag, self.data = generate(workload.name, seed, work / "inputs")
        self.cards = parse_graph_file(self.pag.read_text(), GraphKind.PAG).cardinalities
        self.hard_deadline = started + HARD_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.update({var: "1" for var in THREAD_VARS})
        self.reps: List[Repetition] = []
        # fingerprint of the first clean repetition of each panel entry
        self.reference: Dict[int, tuple] = {}

    def child(self, *extra: str) -> dict:
        timeout = self.hard_deadline - time.monotonic()
        if timeout <= 0:
            raise ChildFailed("no time left for another repetition")
        started = time.monotonic()
        argv = [sys.executable, str(HERE / "child.py"), "--src", str(SRC)]
        argv += ["--pag", str(self.pag), "--started", repr(started), *extra]
        try:
            proc = subprocess.run(
                argv, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"repetition exceeded {timeout:.0f} s")
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["(no output)"]
            raise ChildFailed(f"exit {proc.returncode}: {tail[0]}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise ChildFailed("the child printed no result")
        return json.loads(lines[-1])

    def repeat(self, instance: int, traced: bool) -> Repetition:
        import checks

        rep = Repetition(len(self.reps), instance, traced)
        self.reps.append(rep)
        out = self.work / f"rep{rep.rep}"
        out.mkdir()
        flags = ["--data", str(self.data[instance]), "--strategy", self.workload.strategy]
        flags += ["--out", str(out), "--rep", str(rep.rep)] + (["--trace"] if traced else [])
        t = time.monotonic()
        try:
            rep.result = self.child(*flags)
        except (ChildFailed, ValueError) as exc:  # ValueError: unreadable JSON
            rep.problems.append(str(exc))
            return rep
        finally:
            rep.wall_s = time.monotonic() - t
        problems, fingerprint = checks.check_learn(
            (out / "report.txt").read_text(),
            (out / "model.txt").read_text(),
            (out / "trace.csv").read_text(),
            self.workload.fixed_pair,
            self.cards,
        )
        if traced and self.workload.strategy == "ilcv":
            problems += checks.check_strata(rep.result["strata"], self.workload.strata)
        if not problems:
            reference = self.reference.setdefault(instance, fingerprint)
            if fingerprint != reference:
                problems.append("result differs from an earlier repetition on the same data")
        rep.problems = problems
        return rep

    def run(self, seconds: float, trace: bool) -> None:
        """Repeat the plan until ``seconds`` are used, at least once through.

        Untraced runs cycle through the whole panel and then repeat its
        first entries, so repetitions on the same data can be compared.
        Traced runs take the first ``TRACE_PANEL`` entries, each untraced
        and then traced, so their counts cover the same data every time.
        """
        if trace:
            panel = min(self.workload.panel, TRACE_PANEL)
            plan, minimum = (lambda r: ((r // 2) % panel, r % 2 == 1)), 2 * panel
        else:
            panel = self.workload.panel
            plan, minimum = (lambda r: (r % panel, False)), panel + 1
        deadline = time.monotonic() + seconds
        while True:
            self.repeat(*plan(len(self.reps)))
            if time.monotonic() >= self.hard_deadline:
                break
            typical = statistics.median(rep.wall_s for rep in self.reps)
            if len(self.reps) >= minimum and time.monotonic() + typical > deadline:
                break

    def clean(self, traced: Optional[bool] = None) -> List[Repetition]:
        return [
            r for r in self.reps
            if not r.problems and (traced is None or r.traced == traced)
        ]


def panel_mean(reps: List[Repetition], value: Callable[[Repetition], float]) -> float:
    """Mean over panel entries of the median over each entry's repetitions."""
    by_instance: Dict[int, List[float]] = {}
    for r in reps:
        by_instance.setdefault(r.instance, []).append(value(r))
    return statistics.fmean(statistics.median(v) for v in by_instance.values())


def end_to_end(bench: Bench) -> Dict[str, float]:
    reps = bench.clean()
    search_s = panel_mean(reps, lambda r: r.result["search_s"])
    return {
        "setup_s": statistics.median(r.result["setup_s"] for r in reps),
        "search_s": search_s,
        "models_per_s": panel_mean(reps, lambda r: r.result["visited"]) / search_s,
        "best_neg_p_elbo": statistics.fmean(-p for _id, p, _order in bench.reference.values()),
        "peak_rss_mib": statistics.median(r.result["rss_mib"] for r in reps),
    }


def tail_line(bench: Bench) -> str:
    """Highest percentile with at least ten repetitions beyond it."""
    times = sorted(r.result["search_s"] for r in bench.clean(traced=False))
    n = len(times)
    if n < 11:
        return f"search_s_tail: n/a ({n} repetitions; a percentile with 10 beyond needs 11)"
    k = n - 10
    return f"search_s_tail: {times[k - 1]:.6f} s (p{100.0 * k / n:.1f} of {n} repetitions)"


def per_layer(bench: Bench) -> Dict[str, float]:
    traced = bench.clean(traced=True)
    metrics = {
        name: panel_mean(traced, lambda r: r.result["layers"][name])
        for name in traced[0].result["layers"]
    }
    untraced = panel_mean(bench.clean(traced=False), lambda r: r.result["search_s"])
    metrics["search.trace_overhead_s"] = metrics["search.traced_s"] - untraced
    metrics["search.models_visited"] = panel_mean(traced, lambda r: r.result["visited"])
    probe = bench.child("--probe")
    metrics["graphs.ci_signature_cold_s"] = probe["ci_signature_cold_s"]
    spans = []
    for r in traced:
        spans += json.loads((bench.work / f"rep{r.rep}" / "spans.json").read_text())
    (RUNS / f"spans-{bench.workload.name}-{bench.seed}.json").write_text(json.dumps(spans))
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "confinder" / "__init__.py").is_file():
        print(f"error: no confinder package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        names = ", ".join(sorted(WORKLOADS))
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    RUNS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=RUNS))
    try:
        bench = Bench(workload, args.seed, work, started)
        bench.run(args.seconds, bool(args.trace))
        failed = [r for r in bench.reps if r.problems]
        for r in failed:
            print(f"repetition {r.rep} failed: {'; '.join(r.problems)}")
        if not bench.clean(traced=bool(args.trace)) or not bench.clean(traced=False):
            print("error: no repetition passed its checks", file=sys.stderr)
            return 1
        values = per_layer(bench) if args.trace else end_to_end(bench)
        units = declared_units("per_layer" if args.trace else "end_to_end")
        if set(values) != set(units):
            raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(values) ^ set(units)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = len(bench.reps)
    print(f"workload {workload.name} seed {args.seed}: {attempted} repetitions")
    print(f"fail_share: {len(failed) / attempted:.4f} ({len(failed)} of {attempted})")
    if not args.trace:
        print(tail_line(bench))
    for name, unit in units.items():
        print(f"{name}: {values[name]:.6g} {unit}")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
