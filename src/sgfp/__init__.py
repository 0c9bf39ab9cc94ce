"""Singular generalized friendship paradox toolkit."""

from .classify import (
    ANTI,
    DEGENERATE,
    PRO,
    Classification,
    ThresholdEstimate,
    attach_pendant_path,
    classify,
    perturb_to_positive_correlation,
    threshold_estimate,
)
from .construct import (
    GrowthState,
    example_graph_fig1,
    example_graph_fig4,
    grow_step,
    growth_correlation,
    initial_growth_state,
    knee,
    path,
    star,
)
from .graph import (
    Graph,
    build_graph,
    components,
    degrees,
    delta,
    is_connected,
    is_regular,
)
from .ingest import prop_own, read_attributes, read_edge_list, read_labels, write_graph
from .lp import HighCorrelationResult, max_failing_correlation
from .metrics import (
    GapReport,
    correlation,
    gap_report,
    list_gap,
    r_d_delta,
    second_order,
    singular_gap,
    singular_gap_delta_form,
)
from .randgen import (
    SplitMix64,
    configuration_rewire,
    configuration_rewire_with_stats,
    gnp,
    mix,
    sample_connected_nonregular,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
