"""Turn recorded robot demonstrations into in-context prompts for
text-only language models, parse the predicted action sequences back
out, and score the whole loop in a deterministic tabletop simulator.

The package exports what the pipeline's callers use; everything else is
in its submodule.
"""

from .discretize import (
    ROTATION_BINS,
    TRANSLATION_BINS,
    DiscreteAction,
    DiscretePose,
    dediscretize_action,
    dediscretize_rotation,
    dediscretize_translation,
    discretize_action,
    discretize_rotation,
    discretize_translation,
)
from .harness import (
    DEFAULT_BOUNDS,
    EpisodeRecord,
    LoopMode,
    RunConfig,
    ablate_loop,
    ablate_noise,
    ablate_prompts,
    ablate_sampling,
    ablate_shots,
    demo_seeds,
    emit_csv,
    run_eval,
)
from .keyframes import extract_keyframes, qualifying_indices, sample_uniform
from .llm import Provider, complete_mock_compositional
from .model import (
    Episode,
    GripperState,
    ObjectObservation,
    Pose6,
    WorkspaceBounds,
    save_episodes,
)
from .prompts import (
    ParseError,
    assemble_prompt,
    build_example_input,
    build_icl_example,
    default_system_prompts,
    format_action,
    parse_response,
)
from .sim import (
    ExecutionError,
    ExpertError,
    TaskId,
    add_pose_noise,
    check_success,
    execute_action,
    observations_of,
    reset,
    scripted_expert,
)

__version__ = "0.1.0"
