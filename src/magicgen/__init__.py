"""Enumeration, classification, and generator extraction for small normal
magic squares."""

from .squares import (
    Square,
    Transformation,
    encode_square,
    grid_symmetries,
    is_normal_magic,
    magic_constant,
    parse_square,
)
from .constraints import (
    ConstraintSystem,
    Dependency,
    build_system,
)
from .enumerator import (
    count_squares,
    enumerate_shards_parallel,
    iter_squares,
    shard_for,
    single_cell_shards,
    trial_cells,
)
from .classifier import (
    ClassLabel,
    DudeneyCensus,
    SignatureClass,
    assign_labels,
    discover_classes,
    signature,
)
from .groups import (
    GroupClosureError,
    Orbit,
    TransformationGroup,
    canonical_key,
    symmetry_group,
)
from .generators import (
    ClassCensus,
    Discrepancy,
    GeneratorCensus,
    OrbitPartition,
    census,
    decompose,
    symmetric_closure_partition,
)
from .pipeline import PipelineSummary, emit_report, run_pipeline

__all__ = [
    "ClassCensus",
    "ClassLabel",
    "ConstraintSystem",
    "Dependency",
    "Discrepancy",
    "DudeneyCensus",
    "GeneratorCensus",
    "GroupClosureError",
    "Orbit",
    "OrbitPartition",
    "PipelineSummary",
    "SignatureClass",
    "Square",
    "Transformation",
    "TransformationGroup",
    "assign_labels",
    "build_system",
    "canonical_key",
    "census",
    "count_squares",
    "decompose",
    "discover_classes",
    "emit_report",
    "encode_square",
    "enumerate_shards_parallel",
    "grid_symmetries",
    "is_normal_magic",
    "iter_squares",
    "magic_constant",
    "parse_square",
    "run_pipeline",
    "shard_for",
    "signature",
    "single_cell_shards",
    "symmetric_closure_partition",
    "symmetry_group",
    "trial_cells",
]

__version__ = "0.1.0"
