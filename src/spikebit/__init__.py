"""Binary event-driven spiking transformer engine.

Binarized weights and attention maps, LIF spiking dynamics over discrete
timesteps, exact float32 BLAS forward on 1-bit sign matrices with
bit-packed AND/popcount storage and oracle kernels, reversible encoder
blocks with an exact closed-form inverse, hard-label distillation
training, and resource instrumentation.
"""

from .binary import (
    LambdaScale,
    PackedBits,
    apply_lambda,
    binarize_weights,
    pack,
    packed_linear,
    ste_backward,
    unpack,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateWeightsError,
    EncodingError,
    NumericError,
    ShapeError,
    SpikebitError,
    TrainingError,
)
from .learn import (
    AdamW,
    LossReport,
    TeacherLogitsCache,
    TeacherOutput,
    cross_entropy,
    global_loss,
    grad_check,
    teacher_predict,
    train_epoch,
)
from .metrics import (
    CostReport,
    RepCapReport,
    count_sops,
    entropy_proxy,
    model_size_mb,
    ns_ace,
    value_set_size,
)
from .model import (
    BmlpBlock,
    BssaBlock,
    ModelConfig,
    ReversibleBlock,
    ReversibleState,
    SpikingTransformer,
    StemSpec,
    load_checkpoint,
    reversible_forward,
    reversible_inverse,
    save_checkpoint,
)
from .neuron import (
    LifParams,
    LifState,
    Reset,
    SurrogateKind,
    SurrogateSpec,
    boolean_binarize,
    lif_run,
    lif_step,
    surrogate_grad,
    surrogate_relaxation,
)
from .numeric import BatchNormParams, Rng, Tensor, batch_norm, finite_diff_grad, matmul

__version__ = "0.1.0"
