"""Execution analysis: parallelism metrics and report formatting."""

from repro.util import lazy_exports

__all__ = [
    "sequential_operation_count",
    "synchronous_makespan",
    "parallelism_profile",
    "ParallelismProfile",
    "format_table",
    "synchronous_wavefronts",
    "render_wavefront_grid",
    "render_wavefront_film",
    "activity_histogram",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.metrics": (
        "sequential_operation_count",
        "synchronous_makespan",
        "parallelism_profile",
        "ParallelismProfile",
    ),
    "repro.analysis.report": ("format_table",),
    "repro.analysis.wavefront": (
        "synchronous_wavefronts",
        "render_wavefront_grid",
        "render_wavefront_film",
        "activity_histogram",
    ),
})
