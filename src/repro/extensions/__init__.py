"""Extensions beyond the paper's core scheme.

Section 8 lists the refinements "actual machines impose": partitioning when
there are not enough processors [23], re-routing, projection.  This package
implements the first as an execution-model extension
(:mod:`repro.extensions.partition`): virtual processes are assigned to a
finite set of physical workers and the virtual-time accounting serializes
each worker, quantifying how the generated programs degrade when folded
onto a smaller machine.
"""

from repro.util import lazy_exports

__all__ = [
    "PipelinedProgram",
    "LiftedStream",
    "pipeline_program",
    "PartitionedSchedule",
    "StreamFold",
    "SymbolicPartition",
    "TileBand",
    "band_edges",
    "block_assignment",
    "compile_partition",
    "partitioned_execute",
    "partitioned_schedule",
    "round_robin_assignment",
    "wavefront_tile_bands",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.extensions.pipelining": (
        "PipelinedProgram",
        "LiftedStream",
        "pipeline_program",
    ),
    "repro.extensions.partition": (
        "PartitionedSchedule",
        "StreamFold",
        "SymbolicPartition",
        "TileBand",
        "band_edges",
        "block_assignment",
        "compile_partition",
        "partitioned_execute",
        "partitioned_schedule",
        "round_robin_assignment",
        "wavefront_tile_bands",
    ),
})
