"""A compact NumPy-based neural-network substrate.

The original ImDiffusion implementation relies on PyTorch; this package
re-creates the minimal pieces of that stack needed by the paper — a
reverse-mode autograd engine, dense / convolutional / recurrent / attention
layers and the Adam optimizer — entirely on top of NumPy so the repository has
no binary deep-learning dependency.
"""

from .tensor import (
    Tensor,
    as_tensor,
    concat,
    is_grad_enabled,
    no_grad,
    set_grad_enabled,
    stack,
    where,
)
from . import functional
from .layers import (
    Conv1d,
    Dropout,
    Embedding,
    GELU,
    LayerNorm,
    Linear,
    MLP,
    Module,
    ModuleList,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    SiLU,
    Tanh,
)
from .attention import MultiHeadSelfAttention, TransformerEncoder, TransformerEncoderLayer
from .recurrent import GRU, GRUCell, LSTM, LSTMCell
from .optim import Adam, CosineLR, Optimizer, SGD, StepLR, clip_grad_norm
from .serialization import (
    load_checkpoint,
    load_checkpoint_metadata,
    load_module,
    load_state_dict,
    save_checkpoint,
    save_module,
    save_state_dict,
)

__all__ = [
    "Tensor",
    "as_tensor",
    "concat",
    "stack",
    "where",
    "no_grad",
    "is_grad_enabled",
    "set_grad_enabled",
    "functional",
    "Parameter",
    "Module",
    "ModuleList",
    "Linear",
    "Conv1d",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "ReLU",
    "GELU",
    "SiLU",
    "Tanh",
    "Sigmoid",
    "Sequential",
    "MLP",
    "MultiHeadSelfAttention",
    "TransformerEncoderLayer",
    "TransformerEncoder",
    "LSTMCell",
    "LSTM",
    "GRUCell",
    "GRU",
    "Optimizer",
    "SGD",
    "Adam",
    "StepLR",
    "CosineLR",
    "clip_grad_norm",
    "save_module",
    "load_module",
    "save_state_dict",
    "load_state_dict",
    "save_checkpoint",
    "load_checkpoint",
    "load_checkpoint_metadata",
]
