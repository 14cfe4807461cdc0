"""Multitask model-configuration search.

A task-conditioned recurrent controller learns to sample well-performing
model configurations for several tasks at once, trained off-policy with a
clipped policy-gradient objective on a replay bank, the event log's tail,
and per-task baseline-normalized advantages. Pre-trained controllers
transfer to new tasks by adding fresh task embeddings and an empty log.
"""

from .checkpoint import (
    CheckpointState,
    load_checkpoint,
    save_checkpoint,
    task_embedding_correlations,
    transfer_init,
)
from .config import (
    ExperimentConfig,
    build_evaluators,
    load_experiment_config,
    verify_reference_defaults,
)
from .controller import (
    ControllerDims,
    ControllerParams,
    action_distributions,
    add_task,
    exact_action_distributions,
    init_controller,
    sample_sequence,
    sequence_log_probs,
)
from .errors import ModelSearchError
from .evaluators import (
    EvaluatorBinding,
    OracleTable,
    ToyTask,
    brute_force_optimum,
    planted_table,
    reward_from_accuracy,
    tabular_evaluate,
    train_child_network,
)
from .harness import report_compare, run_experiment
from .smoothing import savgol_smooth
from .space import (
    ModelConfig,
    ParamSpec,
    SearchSpace,
    default_search_space,
    space_from_entries,
)
from .trainer import (
    BaselineTable,
    ReplayBank,
    TrainerConfig,
    TrainerState,
    compute_advantage,
    ppo_clipped_loss,
    run_search,
)

__version__ = "0.1.0"
