"""Block-routing networks with FNN and transformer baselines, plus the
training harness for the four compositional-generalization benchmarks."""

from .tensor import Tensor, parameter
from .nn import (
    Fnn,
    FnnConfig,
    Fnnr,
    Mfnnr,
    Multiplexer,
    Smfr,
    SmfrConfig,
    LayerTrace,
    routing_regularization_loss,
    max_abs_routing_logit,
    fnn_parameter_count,
    smfr_parameter_count,
    force_copy_routing,
)
from .transformer import Transformer, TransformerConfig
from .optim import AdamState, adam_step, clip_global_norm, global_grad_norm
from .checkpoint import save_checkpoint, load_checkpoint, restore_parameters
from .harness.config import ExperimentConfig, ConfigError, config_hash
from .harness.training import run_trial, build_model, evaluate_accuracy
from .harness.grid import GridSpec, grid_search

__version__ = "0.1.0"
