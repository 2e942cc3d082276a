"""Exact variance-based sensitivity analysis for discrete Bayesian networks.

The pipeline turns a network into a bag of probability factors, adjoins a
factor mapping the output labels to reals, and computes Sobol variance
components and total indices for the evidential variables from a handful of
marginalization queries over squared and quotient networks. The function of
interest (the conditional expected output over the evidence grid) is never
tabulated or sampled, so evidence domains with tens of millions of
configurations stay tractable.
"""

from .errors import (
    AxisCardinalityMismatchError,
    BifSyntaxError,
    BnSensError,
    ContractionUnderflowWarning,
    CyclicGraphError,
    DegenerateOutputError,
    DependentInputsError,
    DivisionByZeroError,
    EmptyEvidenceSetError,
    InvalidAssignmentError,
    MissingValueMapError,
    NotEvidentialError,
    OverlappingPartitionError,
    PartialFunctionError,
    PartitionError,
    SchemaError,
    ShapeMismatchError,
    StateSpaceTooLargeError,
    UnknownAxisError,
    UnnormalizedCptError,
    UnsupportedFeatureError,
    ValidationError,
)
from .graph import (
    ancestors,
    d_separated,
    descendants,
    min_weight_order,
)
from .ingest import (
    NativeDocument,
    generate_random_bn,
    load_native,
    parse_bif,
    save_native,
)
from .model import (
    AnalysisSpec,
    Cpt,
    DiscreteBayesNet,
    Variable,
    joint_probability,
    output_values,
    validate_network,
    validate_partition,
)
from .network import (
    TensorNetwork,
    collapse,
    contract_all,
    function_tn,
    marginalize,
    mrf_from_bn,
    quotient,
    square_wrt,
)
from .oracle import (
    FunctionTable,
    JointTable,
    McReport,
    brute_force_f,
    brute_force_indices,
    enumerate_joint,
    mc_indices,
)
from .sobol import (
    ComputeOptions,
    IndexEntry,
    SobolReport,
    compute_all,
    encode_utility_node,
)
from .tensor import Factor

__version__ = "0.1.0"
