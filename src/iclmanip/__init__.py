"""Turn recorded robot demonstrations into in-context prompts for
text-only language models, parse the predicted action sequences back
out, and score the whole loop in a deterministic tabletop simulator.
"""

from .discretize import (
    DEGREES_PER_BIN,
    ROTATION_BINS,
    TRANSLATION_BINS,
    DiscreteAction,
    DiscretePose,
    dediscretize_action,
    dediscretize_pose,
    dediscretize_rotation,
    dediscretize_translation,
    discretize_action,
    discretize_pose,
    discretize_rotation,
    discretize_translation,
)
from .harness import (
    DEFAULT_BOUNDS,
    EpisodeRecord,
    EvalReport,
    KeyframeMode,
    LoopMode,
    NoiseSpec,
    RunConfig,
    ablate_loop,
    ablate_noise,
    ablate_prompts,
    ablate_sampling,
    ablate_shots,
    demo_seeds,
    demo_task,
    emit_csv,
    eval_seeds,
    run_eval,
)
from .keyframes import KeyframeIndices, extract_keyframes, qualifying_indices, sample_uniform
from .llm import (
    CompletionResult,
    CompletionTimeout,
    OracleError,
    ProtocolError,
    Provider,
    TokenBucket,
    TransportError,
    complete_mock_compositional,
    complete_mock_nearest,
    complete_remote,
)
from .model import (
    Action,
    Episode,
    GripperState,
    JointVelocities,
    ObjectObservation,
    PersistenceError,
    Pose6,
    WorkspaceBounds,
    load_episodes,
    save_episodes,
    verify_object_consistency,
)
from .prompts import (
    IclExample,
    ParseError,
    PromptBundle,
    assemble_prompt,
    build_closed_loop_example,
    build_example_input,
    build_icl_example,
    default_system_prompts,
    format_action,
    format_observation,
    parse_response,
)
from .sim import (
    ExecutionError,
    ExpertError,
    Kind,
    PlacementError,
    SimObject,
    TaskId,
    TaskVariation,
    WorldState,
    add_pose_noise,
    check_success,
    execute_action,
    observations_of,
    render_instruction,
    reset,
    scripted_expert,
    synth_joint_velocities,
    task_spec,
)

__version__ = "0.1.0"
