"""Latent confounder discovery over ancestral graphs with variational Bayes."""

from confinder.bn import BnModel, forward_sample, parent_configurations
from confinder.errors import (
    ConfinderError,
    ConstructionError,
    DataBindingError,
    EnumerationLimitError,
    GraphFormatError,
    InconsistentStateError,
    LatentizationError,
)
from confinder.experiment import (
    ExperimentSpec,
    ReportBundle,
    RunResult,
    bundle_report,
    derive_true_pag,
    run_experiment,
    true_latentized,
)
from confinder.fileio import (
    parse_data,
    parse_graph_file,
    parse_latentized,
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
from confinder.graphs import (
    Edge,
    GraphKind,
    Mark,
    MixedGraph,
    SeparationQuery,
    ValidityReport,
    ci_signature,
    d_separated,
    m_separated,
    markov_equivalent,
    validate,
)
from confinder.latentize import (
    Latent,
    LatentSpec,
    LatentizedDag,
    apply_spec,
    latentize_min,
    project_to_mag,
    verify_ci_equivalence,
)
from confinder.magspace import (
    MagStratum,
    enumerate_mags,
    orientation_neighbors,
    pag_of_mag,
    reference_mag,
)
from confinder.search import (
    ScoredModel,
    SearchConfig,
    SearchTrace,
    Strategy,
    TraceEntry,
    run_search,
)
from confinder.seeds import derive_seed
from confinder.vbem import (
    Dataset,
    FamilyPrior,
    ScoreReport,
    VariationalState,
    elbo,
    p_elbo,
    run_vbem,
    vb_e_step,
    vb_m_step,
)

__version__ = "0.1.0"
