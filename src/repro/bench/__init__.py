"""Study harness: sweeps, ratio statistics, analyses, baselines, reports."""

from .advisor import AdvisorReport, Recommendation, advise
from .analysis import (
    BEST_STYLE_AXES,
    COMBINATION_STYLES,
    best_style_percentages,
    property_correlations,
    style_combination_matrix,
)
from .baselines import BASELINES, BaselineRun, baseline_style, baseline_trace
from .boxen import LetterValues, letter_values
from .comparison import SpeedupCell, baseline_speedups, best_style_spec, table6
from .checkpoint import BlockOutcome, CheckpointStore
from .convergence import ConvergenceRecord, collect_convergence, render_convergence
from .export import (
    combination_matrix_to_csv,
    failure_manifest_to_csv,
    figure_ratios_to_csv,
    sweep_to_csv,
)
from .storage import (
    cached_sweep,
    code_fingerprint,
    load_results,
    save_results,
    sweep_cache_key,
    sweep_cache_path,
)
from .tracestore import (
    TraceStore,
    TraceStoreStats,
    default_trace_dir,
    kernel_code_fingerprint,
    resolve_trace_store,
    trace_digest,
)
from .guidelines import Guideline, derive_guidelines
from .harness import (
    PredictSettings,
    StudyResults,
    SweepConfig,
    run_sweep,
    sweep_block_runs,
)
from .predictor import (
    BoostedStumps,
    CellPrediction,
    PredictionSummary,
    PredictorArtifactError,
    StylePredictor,
    TrainingSet,
    default_predictor_path,
    export_training_set,
    mine_results,
    mine_trace_store,
    resolve_predictor,
    run_sweep_predicted,
)
from .parallel import (
    SweepBlock,
    partition_blocks,
    resolve_block_timeout,
    resolve_workers,
    run_sweep_parallel,
    semantic_shard_order,
    shard_blocks,
    stderr_progress,
)
from .ratios import axis_ratios, ratios_by_algorithm, throughputs_by_option
from . import report

__all__ = [
    "SweepConfig",
    "StudyResults",
    "PredictSettings",
    "BoostedStumps",
    "CellPrediction",
    "PredictionSummary",
    "PredictorArtifactError",
    "StylePredictor",
    "TrainingSet",
    "default_predictor_path",
    "export_training_set",
    "mine_results",
    "mine_trace_store",
    "resolve_predictor",
    "run_sweep_predicted",
    "run_sweep",
    "run_sweep_parallel",
    "sweep_block_runs",
    "SweepBlock",
    "BlockOutcome",
    "CheckpointStore",
    "partition_blocks",
    "resolve_block_timeout",
    "resolve_workers",
    "stderr_progress",
    "cached_sweep",
    "failure_manifest_to_csv",
    "code_fingerprint",
    "sweep_cache_key",
    "sweep_cache_path",
    "semantic_shard_order",
    "shard_blocks",
    "TraceStore",
    "TraceStoreStats",
    "default_trace_dir",
    "kernel_code_fingerprint",
    "resolve_trace_store",
    "trace_digest",
    "axis_ratios",
    "ratios_by_algorithm",
    "throughputs_by_option",
    "LetterValues",
    "letter_values",
    "BEST_STYLE_AXES",
    "COMBINATION_STYLES",
    "best_style_percentages",
    "style_combination_matrix",
    "property_correlations",
    "BaselineRun",
    "BASELINES",
    "baseline_trace",
    "baseline_style",
    "SpeedupCell",
    "best_style_spec",
    "baseline_speedups",
    "table6",
    "advise",
    "AdvisorReport",
    "Recommendation",
    "save_results",
    "load_results",
    "sweep_to_csv",
    "figure_ratios_to_csv",
    "combination_matrix_to_csv",
    "ConvergenceRecord",
    "collect_convergence",
    "render_convergence",
    "Guideline",
    "derive_guidelines",
    "report",
]
