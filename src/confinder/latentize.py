"""MAG-to-DAG conversion with the fewest latent confounders.

Each bi-directed edge marks a confounded pair. Replacing every such edge by
its own parentless binary latent always reproduces the MAG's conditional
independencies over the observed variables, but connected groups of
bi-directed edges can sometimes share a single latent. This module
enumerates the connectivity-respecting groupings lazily, fewest latents
first (a block of edges is connected when ``graphs.connected_pieces``
finds it one piece), and returns the first candidate DAG whose margin over
the observed nodes equals the source MAG's maximal augmentation. The
exhaustive CI-signature comparison stays as the reference for that check.

No candidate is projected, and neither is a maximal source MAG, which is
its own augmentation. The finest grouping, one latent per bi-directed
edge, is the MAG's canonical DAG, whose margin is the maximal
augmentation (Richardson & Spirtes 2002), so its check asks no query. A
coarser candidate is checked only on the pairs where its margin can differ
from the finest one's. Merging latents maps every path of the finest DAG
to a walk of the candidate with the same colliders, so the candidate
separates no more than the finest DAG does, and its margin keeps every edge
of the augmentation, oriented by the same ancestry (latents add none). It
can only add edges, between pairs the augmentation leaves non-adjacent,
along inducing paths the finest DAG lacks, which pass through a latent
that covers two edges or more. Every observed interior node of such a path
is a collider, and two of them in a row share a latent, so the interior
lies in one bi-directed component C of the MAG, the one holding that
latent's children, and the endpoints lie in C or its parents.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

from confinder.errors import InconsistentStateError
from confinder.graphs import (
    Edge,
    GraphKind,
    MixedGraph,
    ci_signature,
    connected_pieces,
    has_inducing_path,
    maximal_augmentation,
    require_valid,
)

# names with this prefix are reserved for latents, in files and in models
RESERVED_PREFIX = "_"
LATENT_PREFIX = RESERVED_PREFIX + "L"
DEFAULT_LATENT_STATES = 2

# verify_ci_equivalence walks every conditioning set, 3^n growth: capped
EXHAUSTIVE_VERIFY_MAX_OBSERVED = 12


@dataclass(frozen=True)
class Latent:
    """One latent confounder: parentless, discrete, with observed children."""

    name: str
    children: Tuple[str, ...]
    states: int = DEFAULT_LATENT_STATES

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(sorted(set(self.children))))
        if len(self.children) < 2:
            raise ValueError(f"latent {self.name!r} needs at least two children")
        if self.states < 2:
            raise ValueError(f"latent {self.name!r} needs at least two states")
        if self.name in self.children:
            raise ValueError(f"latent {self.name!r} cannot be its own child")


@dataclass(frozen=True)
class LatentSpec:
    """Placement and cardinality of every latent confounder of a model."""

    latents: Tuple[Latent, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "latents", tuple(self.latents))
        names = [l.name for l in self.latents]
        if len(set(names)) != len(names):
            raise ValueError("duplicate latent names")

    def __len__(self) -> int:
        return len(self.latents)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(l.name for l in self.latents)

    def states_of(self, name: str) -> int:
        for l in self.latents:
            if l.name == name:
                return l.states
        raise KeyError(name)

    def with_states(self, states: Mapping[str, int]) -> "LatentSpec":
        """Copy with the given latents' state counts replaced."""
        unknown = set(states) - set(self.names)
        if unknown:
            raise KeyError(f"unknown latents: {sorted(unknown)}")
        return LatentSpec(
            tuple(
                Latent(l.name, l.children, states.get(l.name, l.states))
                for l in self.latents
            )
        )


def placement_problems(dag: MixedGraph, spec: LatentSpec) -> Iterator[Tuple[Latent, str]]:
    """Each latent of ``spec`` that the DAG does not place as a parentless
    node with exactly the latent's children, with what is wrong."""
    node_set = set(dag.nodes)
    for latent in spec.latents:
        if latent.name not in node_set:
            yield latent, f"latent {latent.name!r} missing from the DAG"
        elif dag.parents(latent.name):
            yield latent, f"latent {latent.name!r} has parents"
        elif dag.children(latent.name) != latent.children:
            yield latent, f"latent {latent.name!r} children do not match its placement"


@dataclass(frozen=True)
class LatentizedDag:
    """A DAG over observed plus latent nodes, tied to the MAG it encodes.

    ``source_mag`` is optional because serialized models cannot carry it;
    operations that need the independence reference require it explicitly.
    """

    dag: MixedGraph
    spec: LatentSpec
    source_mag: Optional[MixedGraph] = None

    def __post_init__(self):
        # parsers check their input first (fileio reports a bad model file
        # as a format error), so a failure here is a program fault
        try:
            require_valid(self.dag, GraphKind.DAG, "dag")
            if self.source_mag is not None:
                require_valid(self.source_mag, GraphKind.MAG, "source_mag")
        except ValueError as exc:
            raise InconsistentStateError(str(exc)) from None
        for _latent, problem in placement_problems(self.dag, self.spec):
            raise InconsistentStateError(problem)
        if self.source_mag is not None and self.source_mag.nodes != self.observed:
            raise InconsistentStateError("source MAG nodes differ from the observed nodes")

    @property
    def observed(self) -> Tuple[str, ...]:
        hidden = set(self.spec.names)
        return tuple(n for n in self.dag.nodes if n not in hidden)

    def with_states(self, states: Mapping[str, int]) -> "LatentizedDag":
        """Same placement, different latent cardinalities."""
        return LatentizedDag(self.dag, self.spec.with_states(states), self.source_mag)


def _partitions(items: Sequence, count: int) -> Iterator[List[List]]:
    """Every partition of ``items`` into ``count`` non-empty unordered blocks."""
    if not items:
        if count == 0:
            yield []
        return
    if not 0 < count <= len(items):
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest, count):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
    for part in _partitions(rest, count - 1):
        yield [[first]] + part


def _reject_reserved_names(nodes: Sequence[str]) -> None:
    reserved = [n for n in nodes if n.startswith(RESERVED_PREFIX)]
    if reserved:
        raise ValueError(
            f"observed names may not start with '{RESERVED_PREFIX}': {reserved} (reserved for latents)"
        )


def _spec(groups: Sequence[Tuple[str, ...]]) -> LatentSpec:
    return LatentSpec(
        tuple(
            Latent(f"{LATENT_PREFIX}{i}", children)
            for i, children in enumerate(groups, start=1)
        )
    )


def candidate_groupings(mag: MixedGraph) -> Iterator[LatentSpec]:
    """All connectivity-respecting ways to cover the bi-directed edges.

    Each partition block must be a connected subgraph of the bi-directed
    skeleton; the block's endpoint union becomes one binary latent's
    children. Candidates come lazily in ascending latent count, each count
    built only once the previous one is used up, and within a count in the
    canonical order of their children sets, so the first verified candidate
    is the deterministic minimum. The MAG is checked before this returns.
    """
    require_valid(mag, GraphKind.MAG, "mag")
    _reject_reserved_names(mag.nodes)
    pairs = list(mag.bidirected_edges())

    def by_count() -> Iterator[LatentSpec]:
        for count in range(min(1, len(pairs)), len(pairs) + 1):
            families = {
                tuple(sorted(tuple(sorted({n for e in block for n in e})) for block in part))
                for part in _partitions(pairs, count)
                if all(len(connected_pieces(block)) == 1 for block in part)
            }
            for groups in sorted(families):
                yield _spec(groups)

    return by_count()


def apply_spec(mag: MixedGraph, spec: LatentSpec) -> LatentizedDag:
    """Build the DAG keeping the MAG's directed edges and adding latents."""
    require_valid(mag, GraphKind.MAG, "mag")
    _reject_reserved_names(mag.nodes)
    covered = {n for l in spec.latents for n in l.children}
    touched = {n for pair in mag.bidirected_edges() for n in pair}
    if not touched <= covered:
        raise ValueError(
            f"spec leaves confounded nodes uncovered: {sorted(touched - covered)}"
        )
    edges = [Edge.directed(t, h) for t, h in mag.directed_edges()]
    for latent in spec.latents:
        edges.extend(Edge.directed(latent.name, c) for c in latent.children)
    dag = MixedGraph(
        GraphKind.DAG, mag.nodes + spec.names, tuple(edges)
    )
    return LatentizedDag(dag, spec, source_mag=mag)


def verify_ci_equivalence(candidate: LatentizedDag) -> bool:
    """Does the DAG entail exactly the MAG's independencies over observed?

    The exhaustive reference for :func:`preserves_independencies`, which
    the search uses instead; refuses more than EXHAUSTIVE_VERIFY_MAX_OBSERVED
    observed nodes, where the conditioning-set space is too large.
    """
    if candidate.source_mag is None:
        raise ValueError("candidate has no source MAG to compare against")
    observed = candidate.observed
    if len(observed) > EXHAUSTIVE_VERIFY_MAX_OBSERVED:
        raise ValueError(
            f"{len(observed)} observed nodes exceed the exhaustive limit of "
            f"{EXHAUSTIVE_VERIFY_MAX_OBSERVED}"
        )
    return ci_signature(candidate.dag, observed) == ci_signature(
        candidate.source_mag, observed
    )


def preserves_independencies(candidate: LatentizedDag, maximal: MixedGraph) -> bool:
    """Is the DAG's margin ``maximal``, the source MAG projected onto itself?

    A candidate keeps the MAG's directed edges and adds only parentless
    latents, so both graphs are maximal and orient every edge by the same
    ancestry: they are Markov equivalent iff they are equal. The margin
    holds every edge of ``maximal`` (see the module notes), so it equals
    ``maximal`` iff no inducing path joins a pair ``maximal`` leaves
    non-adjacent; only the pairs in the components of the latents with
    three children or more, and their parents, can have one.
    """
    mag, dag, hidden = candidate.source_mag, candidate.dag, candidate.spec.names
    # a latent over two connected edges or more has three children or more
    merged = [l.children for l in candidate.spec.latents if len(l.children) > 2]
    for component in connected_pieces(mag.bidirected_edges()):
        if not any(children[0] in component for children in merged):
            continue
        entries = set(component).union(*(mag.parents(n) for n in component))
        for x, y in itertools.combinations(sorted(entries), 2):
            if not maximal.has_edge(x, y) and has_inducing_path(dag, x, y, hidden):
                return False
    return True


def latentize_min(mag: MixedGraph, deadline: Optional[float] = None) -> LatentizedDag:
    """The DAG with the fewest binary latents preserving the MAG's CIs.

    Candidates are tried in ascending latent count. The last, the finest
    grouping (one latent per bi-directed edge), preserves the independencies
    by construction, and its check asks no query, so a valid MAG always
    yields a model; finding none is a program fault (InconsistentStateError).

    ``deadline`` is a ``time.monotonic()`` instant checked before each
    candidate. Once it has passed, the finest grouping comes back.
    """
    specs = candidate_groupings(mag)
    maximal = maximal_augmentation(mag)
    for spec in specs:
        if deadline is not None and time.monotonic() >= deadline:
            return apply_spec(mag, _spec(sorted(mag.bidirected_edges())))
        candidate = apply_spec(mag, spec)
        if preserves_independencies(candidate, maximal):
            return candidate
    raise InconsistentStateError(
        f"no independence-preserving latent placement found for MAG with edges "
        f"{[f'{e.a}{e.mark_a.value}-{e.mark_b.value}{e.b}' for e in mag.edges]}"
    )
