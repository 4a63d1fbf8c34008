"""Seeded inputs for the benchmark workloads.

Each workload is a PAG file plus a panel of data CSVs, generated from the
benchmark's ``--seed`` and handed to the program as files. A fit's cost
depends on the rows it is given (the VBEM iteration count varies by about
15% between samples of the instrument network), so a run times a panel of
independent samples instead of one, and its figures are averages over the
panel. The ground-truth networks are defined here, not imported from the
test suite, so that timing a child process never pulls in pytest.

- ``instrument-ilcv``: A -> B <- U -> C <- D with U hidden and binary,
  N=1000. The PAG comes from ``derive_true_pag`` and the rows from
  ``forward_sample``; only 16 distinct rows exist, so the fits dominate.
- ``wide-ilcv`` / ``wide-hclcv``: a 9-variable, 3-state PAG with six
  circle marks and one invariant ``<->``, N=300. The CPTs are drawn once
  from Dirichlet(0.5) with the fixed ``WIDE_CPT_SEED``, so a workload is one
  network and the benchmark seed only redraws its rows. The graph layers
  carry most of the work.

Generation is never timed.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from confinder import (
    BnModel,
    Edge,
    GraphKind,
    MixedGraph,
    derive_seed,
    derive_true_pag,
    enumerate_mags,
    forward_sample,
    parse_pag,
    project_to_mag,
    serialize_data,
    serialize_graph,
)


@dataclass(frozen=True)
class Workload:
    name: str
    strategy: str
    rows: int
    panel: int  # data sets per run
    fixed_pair: Tuple[str, str]
    # stratum -> MAG count of the PAG's equivalence class
    strata: Dict[int, int]


# a run of 36 s on a 2-core 2.1 GHz machine goes once through each panel and
# repeats at least one data set, so repetitions on the same data are compared
WORKLOADS = {
    w.name: w
    for w in (
        Workload("instrument-ilcv", "ilcv", 1000, 14, ("B", "C"), {1: 1, 2: 2, 3: 1}),
        Workload("wide-ilcv", "ilcv", 300, 2, ("D", "E"), {1: 3, 2: 6, 3: 3}),
        Workload("wide-hclcv", "hclcv", 300, 4, ("D", "E"), {1: 3, 2: 6, 3: 3}),
    )
}

WIDE_PAG = """\
node A 3
node B 3
node C 3
node D 3
node E 3
node F 3
node G 3
node H 3
node I 3
A o-o B
B o-o C
C o-> D
D <-> E
F o-> E
E --> G
D --> H
G --> H
H --> I
"""

WIDE_CPT_SEED = 0

_WIDE_EDGES = (
    ("A", "B"), ("B", "C"), ("C", "D"), ("U", "D"), ("U", "E"), ("F", "E"),
    ("E", "G"), ("D", "H"), ("G", "H"), ("H", "I"),
)


def instrument_model() -> BnModel:
    """Binary instrument network; U raises B and C, A and D nudge them."""
    nodes = ("A", "B", "C", "D", "U")
    edges = tuple(Edge.directed(t, h) for t, h in (("A", "B"), ("U", "B"), ("U", "C"), ("D", "C")))
    dag = MixedGraph(GraphKind.DAG, nodes, edges)
    # parent configs are indexed over sorted parents: (A, U) and (D, U)
    p_one = np.array([0.05, 0.75, 0.25, 0.95])
    child = np.column_stack([1.0 - p_one, p_one])
    root = np.array([[0.5, 0.5]])
    cpts = {"A": root, "D": root, "U": root, "B": child, "C": child}
    return BnModel(dag, {n: 2 for n in nodes}, cpts)


def wide_model() -> BnModel:
    """The wide truth DAG with every CPT row drawn from Dirichlet(0.5)."""
    nodes = tuple("ABCDEFGHIU")
    dag = MixedGraph(GraphKind.DAG, nodes, tuple(Edge.directed(t, h) for t, h in _WIDE_EDGES))
    cards = {n: 3 for n in nodes}
    cards["U"] = 2
    rng = np.random.default_rng(derive_seed(WIDE_CPT_SEED, "wide-cpts"))
    cpts = {}
    for node in nodes:
        rows = 1
        for parent in dag.parents(node):
            rows *= cards[parent]
        cpts[node] = rng.dirichlet(np.full(cards[node], 0.5), size=rows)
    return BnModel(dag, cards, cpts)


def _strata_sizes(pag: MixedGraph):
    strata = enumerate_mags(pag)
    return {s.bidirected_count: len(s.mags) for s in strata}, strata


def generate(name: str, seed: int, out_dir: Path) -> Tuple[Path, List[Path]]:
    """Write the workload's PAG and its panel of data files; return the paths.

    Raises RuntimeError if the generated instance is not the one the
    workload promises (truth outside the PAG's class, other strata).
    """
    workload = WORKLOADS[name]
    if name == "instrument-ilcv":
        model = instrument_model()
        pag = derive_true_pag(model, "U")
    else:
        model = wide_model()
        pag = parse_pag(WIDE_PAG)
    sizes, strata = _strata_sizes(pag)
    truth_mag = project_to_mag(model.dag, pag.nodes)
    if not any(truth_mag == mag for s in strata for mag in s.mags):
        raise RuntimeError(f"{name}: the true MAG is not in the PAG's class")
    if sizes != workload.strata:
        raise RuntimeError(f"{name}: strata {sizes} differ from {workload.strata}")
    cards = {n: model.cardinality(n) for n in pag.nodes}
    out_dir.mkdir(parents=True, exist_ok=True)
    pag_path = out_dir / "input.pag"
    pag_path.write_text(serialize_graph(pag, cards))
    data_paths = []
    for k in range(workload.panel):
        data = forward_sample(model, workload.rows, derive_seed(seed, "sample", k), ("U",))
        data_paths.append(out_dir / f"input{k}.csv")
        data_paths[-1].write_text(serialize_data(data))
    return pag_path, data_paths
