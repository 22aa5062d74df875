"""gridbench: reproducible benchmarking of anomaly-detection classifiers.

The package covers the full evaluation loop: dataset handling
(:mod:`gridbench.data`), replayable preprocessing (:mod:`gridbench.preprocess`),
from-scratch classifiers and stacking (:mod:`gridbench.models`), Shapley-value
explanations including the basic-join ensemble composition
(:mod:`gridbench.explain`), explainability/robustness/classification metrics
(:mod:`gridbench.metrics`), cross-dataset statistics (:mod:`gridbench.stats`),
persistent study records (:mod:`gridbench.store`), deterministic reports
(:mod:`gridbench.report`), and the study orchestration plus CLI
(:mod:`gridbench.study`, :mod:`gridbench.cli`).
"""

__version__ = "0.1.0"

from .data import (  # noqa: F401
    Dataset,
    FeatureDescriptor,
    SplitPair,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    split,
)
from .explain import (  # noqa: F401
    Background,
    Explanation,
    basic_join_explain,
    build_explainer,
    join_attributions,
    sample_background,
    shapley_explain,
)
from .metrics import (  # noqa: F401
    ClassificationMetrics,
    ExplanationMetrics,
    RobustnessMetrics,
    adversarial_robustness,
    auc_morf,
    classification_metrics,
    lipschitz_lower,
    sens_max,
)
from .models import (  # noqa: F401
    StackedEnsemble,
    TrainedModel,
    train,
    train_stack,
)
from .preprocess import (  # noqa: F401
    FittedPipeline,
    PipelineConfig,
    apply_pipeline,
    fit_pipeline,
)
from .seeding import derive_seed  # noqa: F401
from .stats import (  # noqa: F401
    bootstrap_ci_mean_diff,
    cohens_d,
    compare,
    effect_label,
    wilcoxon_signed_rank,
)
from .report import write_reports  # noqa: F401
from .store import DocumentStore, capture_environment, validate  # noqa: F401
from .study import run_study, validate_config  # noqa: F401
