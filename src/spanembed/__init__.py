"""spanembed: certified combinatorial machinery for embedding low-bandwidth
spanning subgraphs into locally dense hosts."""

from .graphs import (
    DenseGraph,
    InvalidParameters,
    StageFailure,
    VertexLabelling,
    WitnessSequence,
    bandwidth_of,
    folded_labelling,
    identity_labelling,
    make_named,
    validate_witness,
)
from .density import (
    DensityParams,
    cliques,
    is_locally_dense_exact,
    is_locally_dense_sampled,
)

__version__ = "0.1.0"

__all__ = [
    "DenseGraph",
    "InvalidParameters",
    "StageFailure",
    "VertexLabelling",
    "WitnessSequence",
    "bandwidth_of",
    "folded_labelling",
    "identity_labelling",
    "make_named",
    "validate_witness",
    "DensityParams",
    "cliques",
    "is_locally_dense_exact",
    "is_locally_dense_sampled",
    "__version__",
]
