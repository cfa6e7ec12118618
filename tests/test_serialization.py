"""Round-trip serialization of SystemParams / ExperimentConfig.

These dicts are the identity used by the content-addressed result store
(:mod:`repro.sweep.store`), so the round-trip must be *exact*: rebuild from
``to_dict`` output, serialize again, and get the same dict — through a real
``json`` encode/decode, not just in memory.
"""

from __future__ import annotations

import inspect
import json

import pytest

from repro import ParameterError, SystemParams
from repro.harness import (
    AdversaryRef,
    ChurnRef,
    ExperimentConfig,
    OracleRef,
    SerializationError,
    configs,
)
from repro.harness.registry import (
    ADVERSARY_BUILDERS,
    CHURN_BUILDERS,
    ORACLE_BUILDERS,
    jsonify,
)
from repro.network.churn import RandomRewirer, ScriptedChurn
from repro.network.topology import path_edges


def roundtrip(cfg: ExperimentConfig) -> ExperimentConfig:
    wire = json.loads(json.dumps(cfg.to_dict()))
    return ExperimentConfig.from_dict(wire)


class TestSystemParams:
    def test_roundtrip_exact(self):
        p = SystemParams.for_network(12, rho=0.03)
        d = p.to_dict()
        q = SystemParams.from_dict(json.loads(json.dumps(d)))
        assert q == p
        assert q.to_dict() == d

    def test_from_dict_validates(self):
        d = SystemParams.for_network(8).to_dict()
        d["rho"] = 0.9
        with pytest.raises(ParameterError, match="rho"):
            SystemParams.from_dict(d)

    def test_unknown_field_rejected(self):
        d = SystemParams.for_network(8).to_dict()
        d["bogus"] = 1
        with pytest.raises(ParameterError, match="bogus"):
            SystemParams.from_dict(d)


class TestExperimentConfig:
    @pytest.mark.parametrize("name", sorted(configs.WORKLOADS))
    def test_all_canned_configs_roundtrip(self, name):
        """Every ``WORKLOADS`` entry builds at its defaults (a required size
        small) and round-trips."""
        make = configs.WORKLOADS[name]
        small = {"n": 6, "rows": 2, "cols": 3}
        params = inspect.signature(make).parameters.values()
        cfg = make(**{p.name: small[p.name] for p in params if p.default is p.empty})
        assert roundtrip(cfg).to_dict() == cfg.to_dict()

    def test_scripted_churn_roundtrips(self):
        cfg = ExperimentConfig(
            params=SystemParams.for_network(4),
            initial_edges=path_edges(4),
            churn=[ScriptedChurn([(5.0, "add", 0, 3), (9.0, "remove", 0, 3)])],
            horizon=12.0,
        )
        cfg2 = roundtrip(cfg)
        (proc,) = cfg2.churn
        assert isinstance(proc, ScriptedChurn)
        assert proc.events == [(5.0, "add", 0, 3), (9.0, "remove", 0, 3)]

    def test_callable_clock_spec_rejected_with_registry_hint(self):
        cfg = configs.static_path(4)
        cfg.clock_spec = lambda i, p, rng, h: None
        with pytest.raises(SerializationError, match="built-in spec strings: perfect, random_walk"):
            cfg.to_dict()

    def test_callable_delay_and_discovery_specs_rejected(self):
        cfg = configs.static_path(4)
        cfg.delay_spec = lambda p, rng: None
        with pytest.raises(SerializationError, match="built-in spec strings: uniform, max, half"):
            cfg.to_dict()
        cfg = configs.static_path(4)
        cfg.discovery_spec = lambda p, rng: None
        with pytest.raises(SerializationError, match="built-in spec strings: uniform, max, zero"):
            cfg.to_dict()

    def test_bare_churn_callable_rejected_with_registry_hint(self):
        cfg = configs.static_path(4)
        cfg.churn = [lambda p, rng: ScriptedChurn([])]
        with pytest.raises(SerializationError, match="CHURN_BUILDERS"):
            cfg.to_dict()

    def test_concrete_churn_instance_rejected_with_registry_hint(self):
        import numpy as np

        cfg = configs.static_path(4)
        cfg.churn = [RandomRewirer(4, 1, 5.0, np.random.default_rng(0))]
        with pytest.raises(SerializationError, match="register_churn"):
            cfg.to_dict()

    def test_unknown_field_rejected(self):
        d = configs.static_path(4).to_dict()
        d["bogus"] = True
        with pytest.raises(ValueError, match="bogus"):
            ExperimentConfig.from_dict(d)

    def test_unknown_churn_kind_rejected(self):
        d = configs.static_path(4).to_dict()
        d["churn"] = [{"kind": "mystery"}]
        with pytest.raises(ValueError, match="mystery"):
            ExperimentConfig.from_dict(d)


class TestChurnRef:
    def test_unknown_name_rejected_eagerly(self):
        with pytest.raises(KeyError, match="no_such_churn"):
            ChurnRef("no_such_churn", {})

    def test_every_canned_churn_class_has_a_registered_builder(self):
        # Every ChurnProcess a canned workload can produce (ScriptedChurn
        # serializes as a concrete instance instead) must be reachable via
        # CHURN_BUILDERS, or round-tripping its configs would be impossible.
        assert {
            "random_rewirer",
            "edge_flapper",
            "mobile_geometric",
            "rotating_backbone",
        } <= set(CHURN_BUILDERS)

    def test_edge_flapper_ref_builds_and_roundtrips(self, params8, rng):
        from repro.network.churn import EdgeFlapper

        ref = ChurnRef(
            "edge_flapper",
            {"edges": [(0, 3), (2, 5)], "up": 4.0, "down": 3.0, "horizon": 30.0},
        )
        assert isinstance(ref(params8, rng), EdgeFlapper)
        wire = json.loads(json.dumps(ref.to_dict()))
        assert ChurnRef.from_dict(wire).to_dict() == ref.to_dict()

    def test_mobile_geometric_ref_builds_and_roundtrips(self, params8, rng):
        from repro.network.churn import MobileGeometricChurn

        ref = ChurnRef(
            "mobile_geometric",
            {
                "positions": [[0.1 * i, 0.1 * i] for i in range(8)],
                "radius": 0.4,
                "speed": 0.01,
                "update_interval": 2.0,
                "protected": path_edges(8),
                "horizon": 30.0,
            },
        )
        assert isinstance(ref(params8, rng), MobileGeometricChurn)
        wire = json.loads(json.dumps(ref.to_dict()))
        assert ChurnRef.from_dict(wire).to_dict() == ref.to_dict()

    def test_kwargs_canonicalised(self):
        ref = ChurnRef("edge_flapper", {"edges": [(0, 2)], "up": 3, "down": 2.0})
        assert ref.kwargs["edges"] == [[0, 2]]
        assert ref.to_dict() == json.loads(json.dumps(ref.to_dict()))

    def test_ref_is_a_working_builder(self, params8, rng):
        ref = ChurnRef(
            "random_rewirer",
            {"n": 8, "k_extra": 2, "interval": 5.0, "protected": path_edges(8)},
        )
        proc = ref(params8, rng)
        assert isinstance(proc, RandomRewirer)

    def test_jsonify_rejects_opaque_objects(self):
        with pytest.raises(SerializationError, match="object"):
            jsonify({"x": object()})


class TestAdversaryRef:
    def test_registered_builders_present(self):
        assert {
            "adaptive_drift",
            "adaptive_delay",
            "greedy_topology",
            "combined",
        } <= set(ADVERSARY_BUILDERS)

    def test_adversary_field_roundtrips(self):
        cfg = configs.greedy_topology(8, horizon=20.0)
        d = cfg.to_dict()
        assert d["adversary"]["kind"] == "ref"
        cfg2 = roundtrip(cfg)
        assert isinstance(cfg2.adversary, AdversaryRef)
        assert cfg2.to_dict() == d

    def test_no_adversary_serializes_as_null(self):
        d = configs.static_path(4).to_dict()
        assert d["adversary"] is None
        assert roundtrip(configs.static_path(4)).adversary is None

    def test_concrete_adversary_rejected_with_registry_hint(self):
        from repro.adversary import DelayAdversary

        cfg = configs.static_path(4)
        cfg.adversary = DelayAdversary()
        with pytest.raises(SerializationError, match="ADVERSARY_BUILDERS"):
            cfg.to_dict()

    def test_adversary_builder_callable_rejected(self):
        from repro.adversary import DelayAdversary

        cfg = configs.static_path(4)
        cfg.adversary = lambda p, rng: DelayAdversary()
        with pytest.raises(SerializationError, match="register_adversary"):
            cfg.to_dict()

    def test_unknown_adversary_entry_kind_rejected(self):
        d = configs.static_path(4).to_dict()
        d["adversary"] = {"kind": "mystery"}
        with pytest.raises(ValueError, match="mystery"):
            ExperimentConfig.from_dict(d)


class TestOracleRef:
    def test_standard_builder_registered(self):
        assert "standard" in ORACLE_BUILDERS

    def test_unknown_name_rejected_eagerly(self):
        with pytest.raises(KeyError, match="no_such_oracle"):
            OracleRef("no_such_oracle", {})

    def test_oracle_field_roundtrips(self):
        cfg = configs.static_path(4)
        cfg.oracle = OracleRef("standard", {"bound_scale": 0.5, "monitors": ["progress"]})
        cfg.record = False
        d = cfg.to_dict()
        assert d["oracle"]["kind"] == "ref" and d["record"] is False
        cfg2 = roundtrip(cfg)
        assert isinstance(cfg2.oracle, OracleRef)
        assert cfg2.record is False
        assert cfg2.to_dict() == d

    def test_ref_is_a_working_builder(self, params8, rng):
        from repro.oracle import StreamingOracle

        oracle = OracleRef("standard", {"monitors": ["global_skew"]})(params8, rng)
        assert isinstance(oracle, StreamingOracle)
        assert [m.name for m in oracle.monitors] == ["global_skew"]

    def test_no_oracle_serializes_as_null(self):
        d = configs.static_path(4).to_dict()
        assert d["oracle"] is None and d["record"] is True
        assert roundtrip(configs.static_path(4)).oracle is None

    def test_concrete_oracle_rejected_with_registry_hint(self):
        from repro.oracle import StreamingOracle

        cfg = configs.static_path(4)
        cfg.oracle = StreamingOracle(cfg.params, interval=1.0)
        with pytest.raises(SerializationError, match="ORACLE_BUILDERS"):
            cfg.to_dict()

    def test_oracle_builder_callable_rejected(self):
        from repro.oracle import StreamingOracle

        cfg = configs.static_path(4)
        cfg.oracle = lambda p, rng: StreamingOracle(p, interval=1.0)
        with pytest.raises(SerializationError, match="register_oracle"):
            cfg.to_dict()

    def test_unknown_oracle_entry_kind_rejected(self):
        d = configs.static_path(4).to_dict()
        d["oracle"] = {"kind": "mystery"}
        with pytest.raises(ValueError, match="mystery"):
            ExperimentConfig.from_dict(d)
