import json
import random

import pytest

from fusedconv.config import (ConvSpec, Dims, FusionPlan, GeometryError,
                              NetworkSpec, ParseError, PoolSpec, ValidationError,
                              dpar_to_text, full_depth_parallel, output_dims,
                              parse_network, parse_plan, plan_to_text,
                              serialize_network, validate_plan)

SMALL_DOC = """
{ "input": {"h": 5, "w": 5, "d": 3},
  "fixed_point": {"int_bits": 16, "frac_bits": 16},
  "layers": [ {"type": "conv", "kernel": 3, "filters": 3, "stride": 1, "pad": 1, "relu": true},
              {"type": "conv", "kernel": 3, "filters": 3, "stride": 1, "pad": 1, "relu": true},
              {"type": "maxpool", "window": 2, "stride": 2} ] }
"""


def test_parse_small_test_document():
    net = parse_network(SMALL_DOC)
    assert len(net.layers) == 3
    assert net.input_dims == Dims(5, 5, 3)
    assert net.layer_dims() == [Dims(5, 5, 3), Dims(5, 5, 3), Dims(2, 2, 3)]


def test_parse_rejects_empty_layers():
    doc = {"input": {"h": 5, "w": 5, "d": 3}, "layers": []}
    with pytest.raises(ValidationError, match="layers nonempty"):
        parse_network(json.dumps(doc))


def test_parse_rejects_inconsistent_declared_depth():
    doc = {"input": {"h": 5, "w": 5, "d": 3},
           "layers": [{"type": "conv", "kernel": 3, "filters": 3, "pad": 1},
                      {"type": "conv", "kernel": 3, "filters": 2, "pad": 1, "depth": 16}]}
    with pytest.raises(ValidationError, match="layer 1"):
        parse_network(json.dumps(doc))


@pytest.mark.parametrize("layer, message", [
    ({"type": "conv", "kernel": 3, "filters": 0},
     "layer 1: 'filters' must be >= 1, got 0"),
    ({"type": "maxpool", "window": 2, "stride": "2"},
     "layer 1: 'stride' must be an integer, got '2'"),
    ({"type": "conv", "kernel": 3, "filters": 2, "pad": 3},
     "layer 1: conv: pad must be in [0, kernel-1], got 3"),
], ids=["conv-key", "pool-key", "conv-rule"])
def test_parse_error_names_its_layer_once(layer, message):
    doc = {"input": {"h": 5, "w": 5, "d": 3},
           "layers": [{"type": "conv", "kernel": 3, "filters": 3, "pad": 1}, layer]}
    with pytest.raises(ValidationError) as err:
        parse_network(json.dumps(doc))
    assert str(err.value) == message


def test_parse_reports_syntax_position():
    with pytest.raises(ParseError, match=r"line \d+ column \d+"):
        parse_network('{"input": {"h": 5,,}}')


def test_output_dims_examples():
    assert output_dims(Dims(5, 5, 3), ConvSpec(3, 3, 1, 1)) == Dims(5, 5, 3)
    assert output_dims(Dims(224, 224, 64), PoolSpec(2, 2)) == Dims(112, 112, 64)
    with pytest.raises(GeometryError):
        output_dims(Dims(1, 1, 1), ConvSpec(3, 1, 1, 0))


def test_vgg_prefix_dims_chain():
    net = parse_network(json.dumps({
        "input": {"h": 224, "w": 224, "d": 3},
        "layers": [
            {"type": "conv", "kernel": 3, "filters": 64, "stride": 1, "pad": 1, "relu": True},
            {"type": "conv", "kernel": 3, "filters": 64, "stride": 1, "pad": 1, "relu": True},
            {"type": "maxpool", "window": 2, "stride": 2},
            {"type": "conv", "kernel": 3, "filters": 128, "stride": 1, "pad": 1, "relu": True},
            {"type": "conv", "kernel": 3, "filters": 128, "stride": 1, "pad": 1, "relu": True},
            {"type": "maxpool", "window": 2, "stride": 2},
            {"type": "conv", "kernel": 3, "filters": 256, "stride": 1, "pad": 1, "relu": True},
        ]}))
    assert net.layer_dims() == [
        Dims(224, 224, 64), Dims(224, 224, 64), Dims(112, 112, 64),
        Dims(112, 112, 128), Dims(112, 112, 128), Dims(56, 56, 128),
        Dims(56, 56, 256)]


def test_network_serialize_roundtrip():
    net = parse_network(SMALL_DOC)
    text = serialize_network(net)
    again = parse_network(text)
    assert again == net
    assert serialize_network(again) == text


def test_declared_conv_depth_survives_serialize_and_parse():
    net = NetworkSpec(Dims(6, 6, 3), (ConvSpec(3, 4, 1, 1, relu=True),
                                      ConvSpec(3, 2, 1, 1, declared_depth=4)))
    text = serialize_network(net)
    layers = json.loads(text)["layers"]
    assert "depth" not in layers[0]
    assert layers[1]["depth"] == 4
    again = parse_network(text)
    assert again == net
    assert again.layers[1].declared_depth == 4


def test_conv_slice_cuts_depth_parallel_at_group_boundaries():
    # VGG-7's convs are layers 0, 1, 3, 4 and 6; a pool-only group has none
    from fusedconv.networks import vgg_prefix_7
    net = vgg_prefix_7(28)
    plan = parse_plan("0-2|3|4-5|6", net, "3,32,64,128,64")
    assert [plan.depth_parallel[net.conv_slice(g)] for g in plan.groups] == \
        [(3, 32), (64,), (128,), (64,)]
    assert plan.depth_parallel[net.conv_slice((2, 2))] == ()


def test_conv_spec_invariants():
    with pytest.raises(ValidationError):
        ConvSpec(kernel=2, filters=1)          # even kernel
    with pytest.raises(ValidationError):
        ConvSpec(kernel=3, filters=1, pad=3)   # pad > kernel-1
    with pytest.raises(ValidationError):
        Dims(0, 1, 1)


def test_plan_parsing_single_group():
    net = parse_network(SMALL_DOC)
    plan = parse_plan("0-2", net)
    assert plan.groups == ((0, 2),)
    assert plan.depth_parallel == full_depth_parallel(net) == (3, 3)


def test_plan_parsing_singletons_and_dpar():
    net = parse_network(SMALL_DOC)
    plan = parse_plan("0|1|2", net, "1,3")
    assert plan.groups == ((0, 0), (1, 1), (2, 2))
    assert plan.depth_parallel == (1, 3)


def test_plan_rejects_overlap():
    net = parse_network(SMALL_DOC)
    with pytest.raises(ValidationError, match="contiguous"):
        parse_plan("0-2|1-2", net)
    with pytest.raises(ValidationError, match="contiguous"):
        parse_plan("0|2", net)
    with pytest.raises(ValidationError):
        parse_plan("0-1", net)  # does not cover all layers


def test_plan_rejects_bad_dpar():
    net = parse_network(SMALL_DOC)
    with pytest.raises(ValidationError, match="divide"):
        parse_plan("0-2", net, "2,3")
    with pytest.raises(ValidationError, match="depth-parallel values"):
        parse_plan("0-2", net, "3")


def test_plan_roundtrip():
    net = parse_network(SMALL_DOC)
    for expr, dpar in [("0-2", None), ("0|1|2", "1,3"), ("0-1|2", "3,1")]:
        plan = parse_plan(expr, net, dpar)
        again = parse_plan(plan_to_text(plan), net, dpar_to_text(plan))
        assert again == plan


def test_random_partitions_satisfy_invariants():
    net = parse_network(SMALL_DOC)
    rng = random.Random(42)
    n = len(net.layers)
    for _ in range(100):
        cuts = rng.randint(0, (1 << (n - 1)) - 1)
        groups, start = [], 0
        for i in range(n - 1):
            if cuts >> i & 1:
                groups.append((start, i))
                start = i + 1
        groups.append((start, n - 1))
        plan = validate_plan(FusionPlan(tuple(groups), full_depth_parallel(net)), net)
        covered = []
        for a, b in plan.groups:
            covered.extend(range(a, b + 1))
        assert covered == list(range(n))
