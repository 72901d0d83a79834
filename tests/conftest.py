import numpy as np
import pytest

from dualview.arch import ArchSpec, init_params, shallow_layer_specs
from dualview.numerics import make_rng


def normal_params(arch, rng, scale=0.8):
    """Continuous init for tests that must avoid hard-gate ties.

    Bernoulli +/-sigma weights collide on sign patterns at small d_in, which
    puts pre-activations exactly on gate boundaries; a continuous draw does
    not.
    """
    return init_params(arch, rng, sigma=scale, init="normal")


def feature_params(arch, rng, source):
    """Normal weights at the fan-in scale of the `source` feature network, as
    `train` draws them: None for a DNN's own gates, the per-layer maps for
    "shallow", else the weight layers."""
    if source == "self":
        return None
    specs = shallow_layer_specs(arch) if source == "shallow" else None
    return init_params(arch, rng, specs=specs, init="normal")


@pytest.fixture
def rng():
    return make_rng(1234)


FC_SMALL = ArchSpec(family="fc", d_in=3, depth=3, width=4)
CONV_SMALL = ArchSpec(family="conv_gap", d_in=5, w_cv=2, width=3, d_cv=2, d_fc=2)
RES_SMALL = ArchSpec(family="res", d_in=3, b=2, d_blk=1, width=4)
ALL_SMALL = (FC_SMALL, CONV_SMALL, RES_SMALL)
