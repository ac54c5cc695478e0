"""UAV swarm simulation, graph Koopman trajectory forecasting, and covert
transmit-power evaluation for terrestrial ad-hoc networks."""

__version__ = "0.1.0"

from .swarm import SwarmConfig, Trajectory, simulate, simulate_batch  # noqa: F401
from .graphs import (  # noqa: F401
    GraphSequence,
    GraphSnapshot,
    NormalizationSpec,
    build_snapshot,
    normalize,
)
from .gkae import (  # noqa: F401
    GkaeModel,
    TrainConfig,
    build_model,
    load_checkpoint,
    rollout_batch,
    rollout_predict,
    save_checkpoint,
    train,
)
from .covert import (  # noqa: F401
    CovertConfig,
    DetectionReport,
    GroundNetwork,
    baseline_constant_velocity,
    detection_probability,
    transmit_power_bound,
)
