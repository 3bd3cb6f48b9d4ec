"""spanembed: certified combinatorial machinery for embedding low-bandwidth
spanning subgraphs into locally dense hosts."""

from .graphs import (
    DenseGraph,
    InvalidParameters,
    StageFailure,
    ValidationResult,
    VertexLabelling,
    WitnessSequence,
    bandwidth_of,
    folded_labelling,
    graph_power,
    identity_labelling,
    is_labelled_subgraph,
    make_named,
    validate_witness,
)
from .density import (
    DensityParams,
    DensityVerdict,
    ExtendableClique,
    SizeLimitExceeded,
    enumerate_extendable_cliques,
    high_degree_vertices,
    is_locally_dense_exact,
    is_locally_dense_sampled,
    is_uniformly_dense,
)

__version__ = "0.1.0"

__all__ = [
    "DenseGraph",
    "InvalidParameters",
    "StageFailure",
    "ValidationResult",
    "VertexLabelling",
    "WitnessSequence",
    "bandwidth_of",
    "folded_labelling",
    "graph_power",
    "identity_labelling",
    "is_labelled_subgraph",
    "make_named",
    "validate_witness",
    "DensityParams",
    "DensityVerdict",
    "ExtendableClique",
    "SizeLimitExceeded",
    "enumerate_extendable_cliques",
    "high_degree_vertices",
    "is_locally_dense_exact",
    "is_locally_dense_sampled",
    "is_uniformly_dense",
    "__version__",
]
