"""Text formats for graphs, models, datasets, reports, and traces.

Graph (PAG, MAG, DAG), model and latentized-DAG files share one line
grammar, read by ``_read`` and written by ``serialize_graph``: ``node
<name> <cardinality> [label ...]`` lines, one edge per line (``A --> B``,
``A <-> B``, ``A o-> B``, ``A o-o B``) and ``#`` comments. Model files add
``cpt <node> | <parent-config> : p1 p2 ...`` lines, latentized-DAG files
``latent <name> states <k> children ...`` lines. An error on a line names
that line. Datasets are header-bearing CSV with integer state indices or
the declared labels. Counts and state indices are ASCII digits (a leading
minus is read, then refused as negative). Serializers emit a canonical
form that parses back byte-identically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from confinder.bn import BnModel, parent_configurations, parent_strides
from confinder.errors import GraphFormatError
from confinder.graphs import Edge, GraphKind, Mark, MixedGraph, require_valid
from confinder.latentize import (
    RESERVED_PREFIX, Latent, LatentizedDag, LatentSpec, placement_problems
)
from confinder.search import SearchTrace, TraceEntry
from confinder.vbem import Dataset

_LEFT_MARKS = {"-": Mark.TAIL, "<": Mark.ARROW, "o": Mark.CIRCLE}
_RIGHT_MARKS = {"-": Mark.TAIL, ">": Mark.ARROW, "o": Mark.CIRCLE}
_LEFT_CHARS = {mark: char for char, mark in _LEFT_MARKS.items()}
_RIGHT_CHARS = {mark: char for char, mark in _RIGHT_MARKS.items()}

TRACE_HEADER = "stratum,model_id,p_elbo,seconds"


def _format_float(value) -> str:
    return repr(float(value))


def _parse_marks(token: str, lineno: int) -> Tuple[Mark, Mark]:
    if (
        len(token) != 3
        or token[1] != "-"
        or token[0] not in _LEFT_MARKS
        or token[2] not in _RIGHT_MARKS
    ):
        raise GraphFormatError(f"malformed edge mark {token!r}", lineno)
    return _LEFT_MARKS[token[0]], _RIGHT_MARKS[token[2]]


def _integer(token: str) -> Optional[int]:
    """The integer ``token`` spells in ASCII digits after an optional minus,
    else None; ``int()`` alone also takes ``+1``, ``1_0`` and other scripts'
    digits."""
    digits = token[1:] if token.startswith("-") else token
    return int(token) if digits.isascii() and digits.isdigit() else None


def _misread_label(labels: Sequence[str]) -> Optional[str]:
    """The first label that a data cell would read as another state: one
    that spells an integer other than its own state index."""
    return next((label for i, label in enumerate(labels) if _integer(label) not in (None, i)),
                None)


@dataclass(frozen=True)
class GraphFile:
    """A parsed graph plus the declaration metadata the text carried."""

    graph: MixedGraph
    cardinalities: Dict[str, int]
    labels: Dict[str, Tuple[str, ...]]


class _Scan:
    """Classified lines of a graph-family file, with line numbers kept."""

    def __init__(self):
        self.nodes: Dict[str, Tuple[int, Tuple[str, ...], int]] = {}
        self.edges: List[Tuple[int, str, str, Mark, Mark]] = []
        self.latents: List[Tuple[int, Latent]] = []
        self.cpts: List[Tuple[int, str, Optional[str], List[float]]] = []


def _scan(text: str, takes: str) -> _Scan:
    scan = _Scan()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] in ("latent", "cpt") and parts[0] != takes:
            raise GraphFormatError(f"unexpected {parts[0]!r} line", lineno)
        if parts[0] == "node":
            _scan_node(scan, parts, lineno)
        elif parts[0] == "latent":
            _scan_latent(scan, parts, lineno)
        elif parts[0] == "cpt":
            _scan_cpt(scan, line, lineno)
        elif len(parts) == 3:
            marks = _parse_marks(parts[1], lineno)
            if parts[0] == parts[2]:
                raise GraphFormatError(f"self-loop at {parts[0]!r}", lineno)
            scan.edges.append((lineno, parts[0], parts[2], *marks))
        else:
            raise GraphFormatError(
                f"expected 'node', 'latent', 'cpt' or an edge line, got {line!r}",
                lineno,
            )
    return scan


def _scan_node(scan: _Scan, parts: Sequence[str], lineno: int) -> None:
    if len(parts) < 3:
        raise GraphFormatError("node lines need a name and a cardinality", lineno)
    name = parts[1]
    card = _integer(parts[2])
    if card is None:
        raise GraphFormatError(f"cardinality {parts[2]!r} is not an integer", lineno)
    if card < 2:
        raise GraphFormatError(f"node {name} needs at least 2 states", lineno)
    if name in scan.nodes:
        raise GraphFormatError(f"duplicate node declaration {name!r}", lineno)
    labels = tuple(parts[3:])
    if labels:
        if len(labels) != card:
            raise GraphFormatError(
                f"node {name} declares {len(labels)} labels for {card} states",
                lineno,
            )
        if len(set(labels)) != len(labels):
            raise GraphFormatError(f"node {name} has duplicate state labels", lineno)
        misread = _misread_label(labels)
        if misread is not None:
            raise GraphFormatError(
                f"node {name} label {misread!r} reads as another state's index", lineno
            )
    scan.nodes[name] = (card, labels, lineno)


def _scan_latent(scan: _Scan, parts: Sequence[str], lineno: int) -> None:
    if len(parts) < 7 or parts[2] != "states" or parts[4] != "children":
        raise GraphFormatError(
            "latent lines look like 'latent _L1 states 2 children X Y'", lineno
        )
    if any(latent.name == parts[1] for _l, latent in scan.latents):
        raise GraphFormatError(f"duplicate latent declaration {parts[1]!r}", lineno)
    states = _integer(parts[3])
    if states is None:
        raise GraphFormatError(f"state count {parts[3]!r} is not an integer", lineno)
    try:
        latent = Latent(parts[1], tuple(parts[5:]), states)
    except ValueError as exc:
        raise GraphFormatError(str(exc), lineno)
    scan.latents.append((lineno, latent))


def _scan_cpt(scan: _Scan, line: str, lineno: int) -> None:
    body = line[len("cpt") :].strip()
    if "|" not in body or ":" not in body:
        raise GraphFormatError(
            "cpt lines look like 'cpt B | A=0 : 0.2 0.8'", lineno
        )
    head, _, rest = body.partition("|")
    config, _, probs_text = rest.partition(":")
    node = head.strip()
    if not node:
        raise GraphFormatError("cpt line is missing the node name", lineno)
    probs = []
    for token in probs_text.split():
        try:
            probs.append(float(token))
        except ValueError:
            raise GraphFormatError(f"probability {token!r} is not a number", lineno)
        if not math.isfinite(probs[-1]):
            raise GraphFormatError(f"probability {token!r} is not finite", lineno)
    if not probs:
        raise GraphFormatError("cpt line has no probabilities", lineno)
    scan.cpts.append((lineno, node, config.strip(), probs))


def _read(text: str, kind: GraphKind, takes: str = "") -> Tuple[_Scan, MixedGraph]:
    """Scan a graph-family file and build its valid graph of ``kind``.

    ``takes`` is the extra line kind the format reads, ``"cpt"`` or
    ``"latent"``; the scan refuses any other. Each declared latent becomes
    a node unless a node line already declared it with as many states. A
    check that fails on a line names it, the first such line in file order.
    """
    scan = _scan(text, takes)
    if not scan.nodes:
        raise GraphFormatError("no node declarations found")
    declared = {latent.name for _l, latent in scan.latents}
    for name, (_card, _labels, lineno) in scan.nodes.items():
        if name.startswith(RESERVED_PREFIX) and name not in declared:
            raise GraphFormatError(
                f"node {name!r} uses the reserved '{RESERVED_PREFIX}' prefix but has no "
                f"latent declaration",
                lineno,
            )
    for lineno, latent in scan.latents:
        card = scan.nodes.setdefault(latent.name, (latent.states, (), lineno))[0]
        if card != latent.states:
            raise GraphFormatError(
                f"latent {latent.name} declares {latent.states} states but "
                f"node line says {card}",
                lineno,
            )
    pairs = set()
    for lineno, a, b, mark_a, mark_b in scan.edges:
        for name in (a, b):
            if name not in scan.nodes:
                raise GraphFormatError(f"unknown node {name!r}", lineno)
        pair = (min(a, b), max(a, b))
        if pair in pairs:
            raise GraphFormatError(f"second edge between {pair[0]} and {pair[1]}", lineno)
        pairs.add(pair)
        if kind is GraphKind.DAG and {mark_a, mark_b} != {Mark.TAIL, Mark.ARROW}:
            raise GraphFormatError("DAG edges must be directed", lineno)
    edges = tuple(Edge(a, b, ma, mb) for _lineno, a, b, ma, mb in scan.edges)
    graph = MixedGraph(kind, tuple(scan.nodes), edges)
    require_valid(graph, kind, "parsed graph")
    return scan, graph


def _declared(
    scan: _Scan, names: Sequence[str]
) -> Tuple[Dict[str, int], Dict[str, Tuple[str, ...]]]:
    """Cardinalities and labels of the declared nodes in ``names``, in file order."""
    kept = [(name, node) for name, node in scan.nodes.items() if name in names]
    return (
        {name: card for name, (card, _labels, _l) in kept},
        {name: labels for name, (_card, labels, _l) in kept if labels},
    )


def parse_graph_file(text: str, kind: GraphKind) -> GraphFile:
    scan, graph = _read(text, kind)
    return GraphFile(graph, *_declared(scan, graph.nodes))


def parse_pag(text: str) -> MixedGraph:
    return parse_graph_file(text, GraphKind.PAG).graph


def parse_mag(text: str) -> MixedGraph:
    return parse_graph_file(text, GraphKind.MAG).graph


def serialize_graph(
    graph: MixedGraph,
    cardinalities: Mapping[str, int],
    labels: Optional[Mapping[str, Sequence[str]]] = None,
) -> str:
    """Node and edge lines, the part of the text every format shares."""
    lines = []
    for name in graph.nodes:
        suffix = ""
        if labels and name in labels:
            suffix = " " + " ".join(labels[name])
        lines.append(f"node {name} {cardinalities[name]}{suffix}")
    lines.extend(
        f"{e.a} {_LEFT_CHARS[e.mark_a]}-{_RIGHT_CHARS[e.mark_b]} {e.b}" for e in graph.edges
    )
    return "\n".join(lines) + "\n"


def parse_model(text: str) -> BnModel:
    scan, dag = _read(text, GraphKind.DAG, "cpt")
    cards = _declared(scan, dag.nodes)[0]
    rows: Dict[str, Dict[int, List[float]]] = {node: {} for node in dag.nodes}
    for lineno, node, config, probs in scan.cpts:
        if node not in rows:
            raise GraphFormatError(f"cpt for unknown node {node!r}", lineno)
        j = _config_index(node, tuple(sorted(dag.parents(node))), cards, config, lineno)
        if j in rows[node]:
            raise GraphFormatError(
                f"duplicate configuration for {node}: {config or '(root)'}", lineno
            )
        if len(probs) != cards[node]:
            raise GraphFormatError(
                f"{node} has {cards[node]} states but {len(probs)} probabilities",
                lineno,
            )
        if any(p < 0 for p in probs):
            raise GraphFormatError("probabilities must be non-negative", lineno)
        if abs(sum(probs) - 1.0) > 1e-9:
            raise GraphFormatError("probabilities must sum to 1", lineno)
        rows[node][j] = probs
    tables = {}
    for node, found in rows.items():
        if not found:
            raise GraphFormatError(f"missing CPT for {node}")
        holes = math.prod(cards[p] for p in dag.parents(node)) - len(found)
        if holes:
            raise GraphFormatError(
                f"CPT for {node} is missing {holes} parent configuration(s)"
            )
        tables[node] = np.array([found[j] for j in range(len(found))])
    return BnModel(dag, cards, tables)


def _config_index(
    node: str,
    parents: Tuple[str, ...],
    cards: Mapping[str, int],
    config: str,
    lineno: int,
) -> int:
    assignments = {}
    if config:
        for pair in config.split(","):
            name, eq, value = pair.partition("=")
            name = name.strip()
            if not eq:
                raise GraphFormatError(
                    f"expected 'parent=value' pairs, got {pair.strip()!r}", lineno
                )
            if name in assignments:
                raise GraphFormatError(f"parent {name} is assigned twice", lineno)
            assignments[name] = _integer(value.strip())
            if assignments[name] is None:
                raise GraphFormatError(
                    f"parent value {value.strip()!r} is not an integer", lineno
                )
    if set(assignments) != set(parents):
        expected = ", ".join(parents) if parents else "(no parents)"
        raise GraphFormatError(
            f"configuration for {node} must assign exactly: {expected}", lineno
        )
    strides = parent_strides(parents, cards)
    j = 0
    for name, value in assignments.items():
        if not 0 <= value < cards[name]:
            raise GraphFormatError(
                f"value {value} out of range for {name}", lineno
            )
        j += strides[name] * value
    return j


def serialize_model(model: BnModel) -> str:
    cpts = []
    for node in model.nodes:
        parents = model.parents(node)
        table = model.cpt(node)
        for j, combo in enumerate(parent_configurations(parents, model.cardinalities)):
            config = ",".join(f"{p}={v}" for p, v in zip(parents, combo))
            probs = " ".join(_format_float(p) for p in table[j])
            middle = f"| {config} " if config else "| "
            cpts.append(f"cpt {node} {middle}: {probs}\n")
    return serialize_graph(model.dag, model.cardinalities) + "".join(cpts)


@dataclass(frozen=True)
class LatentizedFile:
    """A parsed latentized DAG plus node metadata from the text."""

    model: LatentizedDag
    cardinalities: Dict[str, int]
    labels: Dict[str, Tuple[str, ...]]


def parse_latentized(text: str) -> LatentizedDag:
    return parse_latentized_file(text).model


def parse_latentized_file(text: str) -> LatentizedFile:
    scan, dag = _read(text, GraphKind.DAG, "latent")
    spec = LatentSpec(tuple(latent for _l, latent in scan.latents))
    lines = {latent.name: lineno for lineno, latent in scan.latents}
    for latent, problem in placement_problems(dag, spec):
        raise GraphFormatError(problem, lines[latent.name])
    model = LatentizedDag(dag, spec)
    return LatentizedFile(model, *_declared(scan, model.observed))


def serialize_latentized(
    model: LatentizedDag,
    cardinalities: Mapping[str, int],
    labels: Optional[Mapping[str, Sequence[str]]] = None,
) -> str:
    cards = dict(cardinalities)
    lines = []
    for latent in model.spec.latents:
        cards[latent.name] = latent.states
        children = " ".join(latent.children)
        lines.append(f"latent {latent.name} states {latent.states} children {children}\n")
    return serialize_graph(model.dag, cards, labels) + "".join(lines)


def parse_data(
    text: str,
    cardinalities: Optional[Mapping[str, int]] = None,
    labels: Optional[Mapping[str, Sequence[str]]] = None,
) -> Dataset:
    header: Optional[List[str]] = None
    names: List[str] = []
    columns: List[List[int]] = []
    label_maps: Dict[str, Dict[str, int]] = {}
    for name, seq in (labels or {}).items():
        misread = _misread_label(seq)
        if misread is not None:
            raise GraphFormatError(
                f"column {name} label {misread!r} reads as another state's index"
            )
        label_maps[name] = {label: i for i, label in enumerate(seq)}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = [cell.strip() for cell in line.split(",")]
        if header is None:
            header = cells
            for name in cells:
                if not name:
                    raise GraphFormatError("empty column name", lineno)
                if name.startswith(RESERVED_PREFIX):
                    raise GraphFormatError(
                        f"column {name!r} uses the reserved '{RESERVED_PREFIX}' prefix", lineno
                    )
            if len(set(cells)) != len(cells):
                raise GraphFormatError("duplicate column names", lineno)
            names = cells
            columns = [[] for _ in cells]
            continue
        if len(cells) != len(names):
            raise GraphFormatError(
                f"expected {len(names)} values, got {len(cells)}", lineno
            )
        for i, (name, cell) in enumerate(zip(names, cells)):
            value = _integer(cell)
            if value is None:
                mapping = label_maps.get(name)
                if mapping is None or cell not in mapping:
                    raise GraphFormatError(
                        f"invalid value {cell!r} for column {name}", lineno
                    )
                value = mapping[cell]
            if value < 0:
                raise GraphFormatError(
                    f"negative state {value} for column {name}", lineno
                )
            if cardinalities and name in cardinalities:
                if value >= cardinalities[name]:
                    raise GraphFormatError(
                        f"state {value} out of range for {name} "
                        f"(cardinality {cardinalities[name]})",
                        lineno,
                    )
            columns[i].append(value)
    if header is None:
        raise GraphFormatError("no header line found")
    if not columns or not columns[0]:
        raise GraphFormatError("no data rows found")
    variables = []
    for i, name in enumerate(names):
        if cardinalities and name in cardinalities:
            card = cardinalities[name]
        else:
            card = max(2, max(columns[i]) + 1)
        variables.append((name, card))
    rows = np.column_stack([np.asarray(col, dtype=np.int64) for col in columns])
    return Dataset(tuple(variables), rows)


def serialize_data(dataset: Dataset) -> str:
    lines = [",".join(dataset.names)]
    for row in dataset.rows:
        lines.append(",".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def serialize_report(items: Mapping[str, object]) -> str:
    lines = []
    for key, value in items.items():
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = _format_float(value)
        else:
            text = str(value)
        lines.append(f"{key}: {text}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> Dict[str, str]:
    items = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            continue
        items[key.strip()] = value.strip()
    return items


def serialize_trace(trace: SearchTrace, normalize_times: bool = False) -> str:
    lines = [TRACE_HEADER]
    for entry in trace.entries:
        seconds = "0.000000" if normalize_times else f"{entry.seconds:.6f}"
        lines.append(
            f"{entry.stratum},{entry.model_id},{_format_float(entry.p_elbo)},{seconds}"
        )
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> Tuple[TraceEntry, ...]:
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line == TRACE_HEADER:
            continue
        cells = line.split(",")
        if len(cells) != 4:
            raise GraphFormatError("trace rows have 4 comma-separated fields", lineno)
        try:
            entries.append(
                TraceEntry(int(cells[0]), cells[1], float(cells[2]), float(cells[3]))
            )
        except ValueError as exc:
            raise GraphFormatError(str(exc), lineno)
    return tuple(entries)
