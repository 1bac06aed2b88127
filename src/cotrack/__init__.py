"""Cooperative vehicle-infrastructure 3D tracking simulator.

The package simulates an ego vehicle and a roadside sensor observing the
same intersection, a bandwidth-accounted communication link between them,
and four cooperative fusion strategies evaluated with CLEAR-MOT metrics
under configurable transport latency.
"""

from .assignment import solve_assignment
from .channel import (
    Channel,
    ChannelMessage,
    LatencyModel,
    MessageKind,
    bps,
    compress_grid,
    decompress_grid,
    encode_message,
    latest_available,
    transmit,
)
from .detector import DetectParams, Detection, detect
from .errors import (
    AlignmentError,
    ConfigurationError,
    CotrackError,
    DecodeError,
    EncodeError,
    NumericError,
    OrderingError,
    ShapeMismatchError,
    UndefinedSimilarityError,
)
from .fusion import (
    EgoInputs,
    FusionKind,
    FusionMethod,
    GridReducer,
    align_grid,
    cooperative_feature,
    fuse_early,
    fuse_late,
    fuse_middle,
)
from .geometry import (
    Box3D,
    Category,
    Pose,
    Region,
    bev_iou,
    center_distance,
    compose,
    inverse,
    transform_box,
    wrap_angle,
)
from .metrics import MotResult, RunReport, aggregate_run, evaluate_clearmot
from .scenario import (
    Agent,
    AgentPopulation,
    Lane,
    Provenance,
    Scenario,
    ScenarioConfig,
    TrackedObject,
    cooperative_ground_truth,
    generate_scenario,
    ground_truth_at,
)
from .sensing import (
    FeatureGrid,
    GridSpec,
    NoiseConfig,
    PointCloud,
    View,
    extract_feature_flow,
    predict_feature,
    rasterize_bev,
    sample_point_cloud,
)
from .tracker import Track, Tracker, TrackerParams, associate, kf_predict, kf_update
from .presets import clean_straight_scenario, hidden_lane_scenario
from .experiment import (
    ExperimentConfig,
    RunFailure,
    emit_report,
    load_experiment_config,
    run_single,
    run_sweep,
    summarize,
    write_sweep_outputs,
)

__version__ = "0.1.0"
