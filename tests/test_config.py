"""SimConfig validation and presets."""

from dataclasses import dataclass

import pytest

from repro.network.config import SimConfig, paper_vct_config, paper_wh_config


def test_defaults_follow_paper():
    cfg = SimConfig()
    assert cfg.local_latency == 10
    assert cfg.global_latency == 100
    assert cfg.local_buffer_phits == 32
    assert cfg.global_buffer_phits == 256
    assert cfg.local_vcs == 3 and cfg.global_vcs == 2
    assert cfg.threshold == 0.45
    assert cfg.pb_update_period == cfg.local_latency


def test_validation():
    with pytest.raises(ValueError):
        SimConfig(flow_control="bubble")
    with pytest.raises(ValueError):
        SimConfig(packet_phits=0)
    with pytest.raises(ValueError):
        SimConfig(threshold=-0.1)
    with pytest.raises(ValueError, match="latencies"):
        SimConfig(local_latency=0)
    with pytest.raises(ValueError, match="latencies"):
        SimConfig(global_latency=0)


def test_with_copies():
    cfg = SimConfig(h=2, routing="rlm")
    cfg2 = cfg.with_(threshold=0.6)
    assert cfg2.threshold == 0.6 and cfg.threshold == 0.45
    assert cfg2.routing == "rlm"


def test_paper_presets():
    v = paper_vct_config(h=3, routing="olm")
    assert (v.flow_control, v.packet_phits, v.h) == ("vct", 8, 3)
    w = paper_wh_config(h=3)
    assert (w.flow_control, w.packet_phits, w.flit_phits) == ("wh", 80, 10)


def test_explicit_pb_update_period_kept():
    cfg = SimConfig(pb_update_period=25)
    assert cfg.pb_update_period == 25


def test_with_recomputes_derived_defaults():
    """The auto pb_update_period must track a new local_latency (stale-default fix)."""
    cfg = SimConfig()
    assert cfg.with_(local_latency=20).pb_update_period == 20
    # chained copies keep re-deriving
    assert cfg.with_(local_latency=20).with_(local_latency=7).pb_update_period == 7
    # an explicit period survives any with_()
    explicit = SimConfig(pb_update_period=25)
    assert explicit.with_(local_latency=50).pb_update_period == 25
    # and with_ can still set the period directly
    assert cfg.with_(pb_update_period=3).pb_update_period == 3
    assert cfg.with_(pb_update_period=3).with_(local_latency=40).pb_update_period == 3


def test_to_dict_from_dict_round_trip():
    cfg = SimConfig(h=3, routing="rlm", flow_control="wh", packet_phits=80,
                    threshold=0.6, seed=9)
    data = cfg.to_dict()
    import json

    json.dumps(data)  # JSON-safe
    clone = SimConfig.from_dict(data)
    assert clone == cfg
    # the auto-derived period serializes as None so round-trips stay auto
    assert data["pb_update_period"] is None
    assert clone.with_(local_latency=21).pb_update_period == 21
    # explicit values serialize as-is
    assert SimConfig(pb_update_period=25).to_dict()["pb_update_period"] == 25


@dataclass
class TaggedConfig(SimConfig):
    tag: str = "plain"


def test_subclass_extra_field_round_trips():
    """Field names are cached per class: a dataclass subclass keeps its
    own extra field, also after the base class was serialized first."""
    assert "tag" not in SimConfig().to_dict()
    cfg = TaggedConfig(h=3, routing="rlm", tag="marked")
    data = cfg.to_dict()
    assert data["tag"] == "marked" and data["pb_update_period"] is None
    clone = TaggedConfig.from_dict(data)
    assert type(clone) is TaggedConfig and clone == cfg
    assert "tag" not in SimConfig().to_dict()
    with pytest.raises(ValueError, match="unknown SimConfig field"):
        SimConfig.from_dict(data)


def test_from_dict_rejects_unknown_keys():
    import pytest as _pytest

    with _pytest.raises(ValueError, match="unknown SimConfig field"):
        SimConfig.from_dict({"h": 2, "rooting": "olm"})
    with _pytest.raises(ValueError, match="needs a dict"):
        SimConfig.from_dict([("h", 2)])


def test_topology_field_defaults_and_validates():
    assert SimConfig().topology == "dragonfly"
    with pytest.raises(ValueError, match="unknown topology"):
        SimConfig(topology="hypercube")
