"""Instance-based active-learning selection engine and campaign simulator."""

from .records import (
    Box2D,
    CameraModel,
    Dataset,
    GroundTruthObject,
    InstanceRecord,
    ViewSpec,
    validate_dataset,
)
from .dataio import DatasetError, load_dataset, write_dataset
from .geometry import (
    MatchResult,
    Radius2D,
    labeling_radius,
    match_request,
    suppress_duplicate,
)
from .features import (
    Coverage,
    FusedCosineMetric,
    PcaModel,
    cosine_distance,
    fused_distance,
    pca_fit,
    pca_transform,
)
from .selection import (
    DepthFilters,
    StrategyConfig,
    coreset_select,
    image_level_select,
    rank_pool,
)
from .simulation import (
    CampaignConfig,
    RoundLog,
    RoundState,
    SyntheticSpec,
    bagging_fraction,
    covering_radius,
    generate_synthetic,
    run_campaign,
    run_round,
    sample_loss_weights,
)
from .metrics import Curve, CurvePoint, accounting_x, aurc_segment, interpolate_at_budget, naurc

__version__ = "0.1.0"
