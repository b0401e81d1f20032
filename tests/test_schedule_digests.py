"""SHA-256 pins on the schedule of every group of four partition sets: its
cycles, each stage's stamps (first and last output cycle, outputs emitted)
and each stage's stall cycles. A change to how a group is scheduled must
leave every one of them as it is, held stages included.

The sets are the 28 groups of VGG-7's partitions at 28x28 and at 224x224 at
VGG7_DEFAULT_DPAR, the 28 groups of the reduced VGG-7 at both
STALLING_CHAINS d_pars, and the 171 groups of the 18-layer VGG-16 stack,
each at its fit_groups d_par.
"""

import hashlib
import json

import pytest

from fusedconv.costmodel import ResourceBudget
from fusedconv.dataflow import simulate_group
from fusedconv.dse import fit_groups
from fusedconv.networks import VGG7_DEFAULT_DPAR, vgg_prefix_7

from conftest import reduced_vgg_prefix_7, vgg16_stack


def partition_groups(net, d_pars):
    """Every contiguous group (a, b) of net, in (a, b) order, as (layers,
    input dims, its convs' d_pars, a), the d_pars one per conv of net."""
    din = net.layer_input_dims()
    dpar_of = dict(zip(net.conv_indices(), d_pars))
    n = len(net.layers)
    return [(net.layers[a:b + 1], din[a], [dpar_of[i] for i in range(a, b + 1) if i in dpar_of],
             a) for a in range(n) for b in range(a, n)]


def vgg16_fit_groups():
    """The 171 groups of the 18-layer VGG-16 stack, each at its fit."""
    net = vgg16_stack(18)
    din = net.layer_input_dims()
    return [(net.layers[a:b + 1], din[a], list(d_pars), a)
            for (a, b), (d_pars, _) in fit_groups(net, ResourceBudget()).items()]


def schedule_digest(groups):
    """SHA-256 of every group's (cycles, stamps, stall_cycles), in order."""
    runs = []
    for layers, in_dims, d_pars, offset in groups:
        res = simulate_group(layers, in_dims, d_pars, layer_offset=offset)
        runs.append([res.cycles,
                     [[s.name, s.first_out, s.last_out, s.emitted] for s in res.stamps],
                     sorted(res.stall_cycles.items())])
    return hashlib.sha256(json.dumps(runs).encode()).hexdigest()


SETS = {
    "vgg7-28": lambda: partition_groups(vgg_prefix_7(input_hw=28), VGG7_DEFAULT_DPAR),
    "vgg7-224": lambda: partition_groups(vgg_prefix_7(), VGG7_DEFAULT_DPAR),
    "reduced7-3,1,1,1,1": lambda: partition_groups(reduced_vgg_prefix_7(), (3, 1, 1, 1, 1)),
    "reduced7-3,8,8,1,16": lambda: partition_groups(reduced_vgg_prefix_7(), (3, 8, 8, 1, 16)),
    "vgg16-fit": vgg16_fit_groups,
}

DIGESTS = {
    "vgg7-28":
        "5e374e6a79e83883a653ea7bf5091848866ab5b2a9a4843f70bcb85b36c6545d",
    "vgg7-224":
        "c28bd568bd3fbfc5ac8e82aaeca1df5d9e9625f5ca1981dcc264ae6ae91bdc6d",
    "reduced7-3,1,1,1,1":
        "6c0da7412d9090e876b0b47bb544572fc1541320fe7802f3c787f10b24c19c41",
    "reduced7-3,8,8,1,16":
        "dc363fb34f91d2c71519366fe9a6cf26cceffaef6cf64c988a98972e322181ab",
    "vgg16-fit":
        "463d4199aba55ef9608ae3c1d4e546b416089f96482d4e6f2cf2c9d31027ea26",
}


@pytest.mark.parametrize("name", list(SETS))
def test_every_group_schedule_is_pinned(name):
    groups = SETS[name]()
    assert len(groups) == (171 if name == "vgg16-fit" else 28)
    assert schedule_digest(groups) == DIGESTS[name]


@pytest.mark.parametrize("hw, stalls", [(28, 20_686), (224, 1_539_196)])
def test_vgg7_pool_held_by_the_conv_after_it(hw, stalls):
    # group 2-6 starts at the first pool, which the 128-filter conv after it
    # holds for most of the run
    net = vgg_prefix_7(input_hw=hw)
    layers, in_dims, d_pars, offset = partition_groups(net, VGG7_DEFAULT_DPAR)[17]
    assert offset == 2 and len(layers) == 5
    res = simulate_group(layers, in_dims, d_pars, layer_offset=offset)
    assert res.stall_cycles["l2.pool"] == stalls
