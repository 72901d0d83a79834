"""Path-space (dual) view laboratory for ReLU networks.

Forward passes for DNN / DGN / DLGN variants over fully connected,
circular-conv+GAP and residual families, brute-force path oracles,
closed-form neural path kernels, Monte-Carlo NTK verification, and
desk-scale training experiments.
"""

from .arch import (
    ArchSpec,
    ForwardResult,
    GateRouting,
    IDENTITY_ROUTING,
    forward_dlgn,
    forward_gated,
    forward_relu,
    init_params,
)
from .kernels import (
    GramMatrix,
    McResult,
    gram,
    mc_target,
    npk,
    npk_conv_rotsum,
    npk_fc,
    npk_res_ensemble,
    ntk_expectation_mc,
    ntk_fixed_gates,
    rot,
)
from .data import Dataset, generate_synthetic, load_dataset
from .numerics import finite_diff_grad, grad, init_bernoulli, make_rng
from .paths import (
    DualVectors,
    Path,
    PathBudgetError,
    count_paths,
    dual_vectors,
    enumerate_paths,
    enumerate_subfcns,
    iter_paths,
    overlap_vector,
    path_activity,
    path_value,
)
from .training import (
    Adam,
    Model,
    SGDMomentum,
    TrainConfig,
    TrainReport,
    appendix_schedule,
    evaluate,
    loss_softmax_ce,
    make_optimizer,
    train,
)

__version__ = "0.2.0"
