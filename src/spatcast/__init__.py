"""spatcast: signal phase and timing prediction engine.

Fits empirical phase-duration distributions from dual-ring controller logs
(real or simulated), predicts residual phase times under several loss
functions, evaluates prediction error versus elapsed time, and streams
broadcastable SPaT messages as NDJSON.
"""

from .cycles import (
    DEFAULT_TOLERANCE_S,
    DURATION_KEY,
    PHASE_RING,
    PHASES,
    RING_SEQUENCE,
    CycleRecord,
    CycleTable,
    EventLog,
    day_number,
    ingest_events,
    read_cycle_csv,
    read_event_csv,
    stratify,
    window,
    write_cycle_csv,
    write_event_csv,
)
from .distributions import EmpiricalDist, JointSamples, fit, fit_joint
from .errors import (
    BarrierViolation,
    EmptyCondition,
    EmptyGrid,
    EmptyInput,
    EmptyStratum,
    InfeasiblePlan,
    MalformedRow,
    MixedStrata,
    NonpositiveWeight,
    OutOfOrderEvent,
    RingSequenceViolation,
    SinkClosed,
    SpatError,
)
from .evaluate import (
    ErrorCurve,
    compare,
    error_curve,
    write_comparison_csv,
    write_distribution_csv,
    write_plot_data,
)
from .messages import SpatMessage, compose, fit_message_dists, stream
from .predict import (
    DEFAULT_HOLD_S,
    PHASE_QUANTITY,
    AsymmetricLoss,
    Confidence,
    Expectation,
    parse_method,
    predict,
    predict_schedule,
)
from .simulate import (
    DemandProfile,
    SimulationConfig,
    TimingPlan,
    emit_events,
    format_config,
    load_config,
    parse_config,
    peaked_demand,
    ring1_durations,
    simulate,
)

__version__ = "0.1.0"
