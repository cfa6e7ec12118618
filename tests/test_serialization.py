"""Round-trip serialization of SystemParams / ExperimentConfig.

These dicts are the identity used by the content-addressed result store
(:mod:`repro.sweep.store`), so the round-trip must be *exact*: rebuild from
``to_dict`` output, serialize again, and get the same dict — through a real
``json`` encode/decode, not just in memory.
"""

from __future__ import annotations

import hashlib
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
from repro.harness.registry import ADVERSARY, CHURN, ORACLE, jsonify
from repro.network.churn import RandomRewirer, ScriptedChurn
from repro.network.topology import path_edges
from repro.sweep.store import config_hash
from repro.testing.strategies import fuzz_config, fuzz_sweep_spec


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
        cfg = make(**{k: small[k] for k in make.size if k not in make.spec})
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
        with pytest.raises(SerializationError, match=r"registry\.CHURN and"):
            cfg.to_dict()

    def test_concrete_churn_instance_rejected_with_registry_hint(self):
        import numpy as np

        cfg = configs.static_path(4)
        cfg.churn = [RandomRewirer(4, 1, 5.0, np.random.default_rng(0))]
        with pytest.raises(
            SerializationError, match=r"add an entry to repro\.harness\.registry\.CHURN "
        ):
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
        # serializes as a concrete instance instead) must be a CHURN entry
        # with a constructor, or round-tripping its configs would be
        # impossible.
        assert {
            "random_rewirer",
            "edge_flapper",
            "mobile_geometric",
            "rotating_backbone",
        } <= set(ChurnRef.builders())
        assert all(CHURN[name].build for name in ChurnRef.builders())

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
        # Spec names map to the serialised names every cached config holds.
        assert {
            name: entry.ref or name for name, entry in ADVERSARY.items() if entry.build
        } == {
            "drift": "adaptive_drift",
            "delay": "adaptive_delay",
            "topology": "greedy_topology",
            "combined": "combined",
        }
        assert set(AdversaryRef.builders()) == {
            "adaptive_drift", "adaptive_delay", "greedy_topology", "combined",
        }

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
        with pytest.raises(SerializationError, match=r"registry\.ADVERSARY and"):
            cfg.to_dict()

    def test_adversary_builder_callable_rejected(self):
        from repro.adversary import DelayAdversary

        cfg = configs.static_path(4)
        cfg.adversary = lambda p, rng: DelayAdversary()
        with pytest.raises(
            SerializationError, match=r"add an entry to repro\.harness\.registry\.ADVERSARY "
        ):
            cfg.to_dict()

    def test_unknown_adversary_entry_kind_rejected(self):
        d = configs.static_path(4).to_dict()
        d["adversary"] = {"kind": "mystery"}
        with pytest.raises(ValueError, match="mystery"):
            ExperimentConfig.from_dict(d)


class TestOracleRef:
    def test_standard_builder_registered(self):
        assert ORACLE["standard"].build is not None
        assert "standard" in OracleRef.builders()

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
        with pytest.raises(SerializationError, match=r"registry\.ORACLE and"):
            cfg.to_dict()

    def test_oracle_builder_callable_rejected(self):
        from repro.oracle import StreamingOracle

        cfg = configs.static_path(4)
        cfg.oracle = lambda p, rng: StreamingOracle(p, interval=1.0)
        with pytest.raises(
            SerializationError, match=r"add an entry to repro\.harness\.registry\.ORACLE "
        ):
            cfg.to_dict()

    def test_unknown_oracle_entry_kind_rejected(self):
        d = configs.static_path(4).to_dict()
        d["oracle"] = {"kind": "mystery"}
        with pytest.raises(ValueError, match="mystery"):
            ExperimentConfig.from_dict(d)


# --------------------------------------------------------------------- #
# Config identity pins
# --------------------------------------------------------------------- #

#: ``config_hash(cfg.to_dict())[:16]`` of every workload at a small size,
#: in positional and keyword form, at each keyword it takes changed alone,
#: and one size up.  These hashes are the sweep store's cache addresses:
#: a change to how a workload is assembled must not move them.
WORKLOAD_PINS = {
    "static_path(6)": "3cd7b8458bb0d801",
    "static_path(n=6)": "3cd7b8458bb0d801",
    "static_path(6, horizon=50.0)": "69b43817b3371a10",
    "static_path(6, seed=3)": "f558769e891090a9",
    "static_path(6, algorithm='max')": "a611c556a21bb8e2",
    "static_path(6, clock_spec='uniform')": "d7a081c41b9f1106",
    "static_path(6, b0=20.0)": "00f6369502b1d425",
    "static_path(n=7)": "73ab5617f79c828c",
    "static_ring(6)": "57fd7643db23ffaa",
    "static_ring(n=6)": "57fd7643db23ffaa",
    "static_ring(6, horizon=50.0)": "47d72409589b923a",
    "static_ring(6, seed=3)": "228a4d40364c5962",
    "static_ring(6, algorithm='max')": "442a1ca7ca1d5f13",
    "static_ring(6, clock_spec='uniform')": "e58d5b5fdbb74ceb",
    "static_ring(6, b0=20.0)": "fe2c654b744e038e",
    "static_ring(n=7)": "c2375fdfef95be8d",
    "large_ring(6)": "0daa8c63ec96bd6c",
    "large_ring(n=6)": "0daa8c63ec96bd6c",
    "large_ring(6, horizon=50.0)": "1a81202cfec11b82",
    "large_ring(6, seed=3)": "b80523297b2cea21",
    "large_ring(6, algorithm='max')": "1a5a901bbb759bb5",
    "large_ring(6, clock_spec='uniform')": "ccb500f9e6bb7926",
    "large_ring(6, sample_interval=1.5)": "a24fa99593d49a56",
    "large_ring(6, record=True)": "7769d62565d78df5",
    "large_ring(6, oracle=False)": "3b93144383fc52cc",
    "large_ring(6, b0=20.0)": "07b44da9a024adba",
    "large_ring(n=7)": "4c717b7110fae92d",
    "huge_ring(6)": "48583b15f98ff5a7",
    "huge_ring(n=6)": "48583b15f98ff5a7",
    "huge_ring(6, horizon=50.0)": "e84f459fd189704e",
    "huge_ring(6, seed=3)": "d0e29b94798b17fa",
    "huge_ring(6, algorithm='max')": "8d305487f6bea3d9",
    "huge_ring(6, clock_spec='perfect')": "5a649a2008eb23f1",
    "huge_ring(6, sample_interval=1.5)": "c8a56c2438f794b4",
    "huge_ring(6, oracle=False)": "ed57ca019efc7826",
    "huge_ring(6, b0=20.0)": "d594c43126581f1e",
    "huge_ring(n=7)": "89b33dbf81ee96ce",
    "huge_grid(2, 3)": "cccb59803e07d890",
    "huge_grid(rows=2, cols=3)": "cccb59803e07d890",
    "huge_grid(2, 3, horizon=50.0)": "50fed7f72e2dc2ab",
    "huge_grid(2, 3, seed=3)": "78366e3f75b1f40e",
    "huge_grid(2, 3, algorithm='max')": "3e14e123a13cc9b7",
    "huge_grid(2, 3, clock_spec='perfect')": "4cfc43dc52d7dd44",
    "huge_grid(2, 3, sample_interval=1.5)": "583a0f7bff16dfed",
    "huge_grid(2, 3, oracle=False)": "b8251c08291eaed4",
    "huge_grid(2, 3, b0=20.0)": "7a86e1c4a8363c7a",
    "huge_grid(rows=3, cols=4)": "21a1ec176e96039d",
    "huge_sync_ring(6)": "9a751203ac7aac44",
    "huge_sync_ring(n=6)": "9a751203ac7aac44",
    "huge_sync_ring(6, horizon=50.0)": "2c4d3568ea89e077",
    "huge_sync_ring(6, seed=3)": "d061d2aae636cc57",
    "huge_sync_ring(6, algorithm='max')": "f3887599335be6e9",
    "huge_sync_ring(6, sample_interval=1.5)": "620af17483dad4a8",
    "huge_sync_ring(6, oracle=False)": "7291f302b7ed97b2",
    "huge_sync_ring(6, b0=20.0)": "a106be88b3d9a5e9",
    "huge_sync_ring(n=7)": "987f3ec40a15e9e8",
    "huge_sync_grid(2, 3)": "6efaed68bd5fd8d8",
    "huge_sync_grid(rows=2, cols=3)": "6efaed68bd5fd8d8",
    "huge_sync_grid(2, 3, horizon=50.0)": "181b451caf30b5ee",
    "huge_sync_grid(2, 3, seed=3)": "6779aa6ea1229092",
    "huge_sync_grid(2, 3, algorithm='max')": "d6f072eeb9e294b7",
    "huge_sync_grid(2, 3, sample_interval=1.5)": "b21532b09d49b541",
    "huge_sync_grid(2, 3, oracle=False)": "071df94778b2f2ea",
    "huge_sync_grid(2, 3, b0=20.0)": "719c0b24e34508a4",
    "huge_sync_grid(rows=3, cols=4)": "684a28374be73bc2",
    "huge_churn_ring(6)": "1042b8e75a2dbb6c",
    "huge_churn_ring(n=6)": "1042b8e75a2dbb6c",
    "huge_churn_ring(6, k_extra=2)": "5566948a3fc38965",
    "huge_churn_ring(6, rewire_interval=3.0)": "f4372122bcdc1efa",
    "huge_churn_ring(6, horizon=50.0)": "55b965d4c3f8a031",
    "huge_churn_ring(6, seed=3)": "297e11aae743889e",
    "huge_churn_ring(6, algorithm='max')": "0ee8d596238cf119",
    "huge_churn_ring(6, clock_spec='perfect')": "6a0f9c299a2e134c",
    "huge_churn_ring(6, sample_interval=1.5)": "ef67bb41aecfea66",
    "huge_churn_ring(6, oracle=False)": "d3cc3d17cf458370",
    "huge_churn_ring(6, b0=20.0)": "2a7c653e9f7f2b3b",
    "huge_churn_ring(n=7)": "2edbe680447df334",
    "static_grid(2, 3)": "a71d5e22a83e7b33",
    "static_grid(rows=2, cols=3)": "a71d5e22a83e7b33",
    "static_grid(2, 3, horizon=50.0)": "571a8091bf0a7354",
    "static_grid(2, 3, seed=3)": "b188417fcf34b506",
    "static_grid(2, 3, algorithm='max')": "2afc444caa96e064",
    "static_grid(2, 3, b0=20.0)": "59debba6664d7da8",
    "static_grid(rows=3, cols=4)": "bd22ed0776c0923d",
    "backbone_churn(6)": "9dcc399bc5ae7dfa",
    "backbone_churn(n=6)": "9dcc399bc5ae7dfa",
    "backbone_churn(6, k_extra=2)": "180f8d9cad9bd255",
    "backbone_churn(6, rewire_interval=3.0)": "a716d0a3c2139897",
    "backbone_churn(6, horizon=50.0)": "36b21bffa47475fb",
    "backbone_churn(6, seed=3)": "9dad09079e0b251c",
    "backbone_churn(6, algorithm='max')": "3fb422d3e1a486fd",
    "backbone_churn(6, clock_spec='uniform')": "e5927490796f1b54",
    "backbone_churn(6, b0=20.0)": "fd443b825d6123ae",
    "backbone_churn(n=7)": "cd2f021f71aaa0b7",
    "rotating_backbone(6)": "66306320dc2ff1ab",
    "rotating_backbone(n=6)": "66306320dc2ff1ab",
    "rotating_backbone(6, window=40.0)": "b4862607c0243664",
    "rotating_backbone(6, overlap=3.0)": "e11b826baf400865",
    "rotating_backbone(6, horizon=50.0)": "a1e450e810de3eea",
    "rotating_backbone(6, seed=3)": "d9435f2d22006f35",
    "rotating_backbone(6, algorithm='max')": "aac2c75d111e5f54",
    "rotating_backbone(6, b0=20.0)": "250ed98eb62e29fc",
    "rotating_backbone(n=7)": "ec610906af74c4eb",
    "mobile_network(6)": "9f8ddd64a1aaf014",
    "mobile_network(n=6)": "9f8ddd64a1aaf014",
    "mobile_network(6, radius=0.5)": "9035db44db4c3a5e",
    "mobile_network(6, speed=0.02)": "cef4aa7e4842dc7f",
    "mobile_network(6, update_interval=3.0)": "85762952e51bf10b",
    "mobile_network(6, horizon=50.0)": "9b12dc37b3fb66cf",
    "mobile_network(6, seed=3)": "2f51d131bdd1a0c7",
    "mobile_network(6, algorithm='max')": "9eb29bee862e7d40",
    "mobile_network(6, keep_backbone=False)": "563c94cbddb78018",
    "mobile_network(6, b0=20.0)": "fcb90e9d5439eff1",
    "mobile_network(n=7)": "5fdd04e50e0d6474",
    "edge_insertion(6)": "9d0328aa1a92d341",
    "edge_insertion(n=6)": "9d0328aa1a92d341",
    "edge_insertion(6, t_insert=20.0)": "62a39468b0c8c0fb",
    "edge_insertion(6, endpoints=(1, 4))": "438665818aaad9a1",
    "edge_insertion(6, horizon=50.0)": "0c885e38b86d942f",
    "edge_insertion(6, seed=3)": "74e1edf5931fb8f5",
    "edge_insertion(6, algorithm='max')": "3ce8ca1ae7ec79b6",
    "edge_insertion(6, b0=20.0)": "a88e65d59c12fe0c",
    "edge_insertion(n=7)": "3078278972152435",
    "flapping_edges(6)": "98858dac48ae758e",
    "flapping_edges(n=6)": "98858dac48ae758e",
    "flapping_edges(6, n_flappers=2)": "78906ec8fc6362d9",
    "flapping_edges(6, up=5.0)": "ca51ab411b180b59",
    "flapping_edges(6, down=4.0)": "b47d5f7ec54ec3fc",
    "flapping_edges(6, horizon=50.0)": "72a0b9974ffe2a5b",
    "flapping_edges(6, seed=3)": "5ac38de61315b3c8",
    "flapping_edges(6, algorithm='max')": "96ac9cab0efe59a8",
    "flapping_edges(6, b0=20.0)": "d9bd1b2126e5145c",
    "flapping_edges(n=7)": "acc9d716a3a9ddc0",
    "two_chain_insertion(6)": "5a545aec29be3fe8",
    "two_chain_insertion(n=6)": "5a545aec29be3fe8",
    "two_chain_insertion(6, t_insert=20.0)": "450a96ac8b61f60c",
    "two_chain_insertion(6, horizon=50.0)": "92d5effac9d74587",
    "two_chain_insertion(6, seed=3)": "c4335493e5b07739",
    "two_chain_insertion(6, algorithm='max')": "2036759f16753ac2",
    "two_chain_insertion(6, b0=20.0)": "964ddddffdd9b4dd",
    "two_chain_insertion(n=7)": "f821a2784d337ffa",
    "adversarial_drift(6)": "2127abab875ec3b3",
    "adversarial_drift(n=6)": "2127abab875ec3b3",
    "adversarial_drift(6, period=3.0)": "a2b4a7f71dfbdae8",
    "adversarial_drift(6, strength=0.5)": "afb15f5ed643842c",
    "adversarial_drift(6, horizon=50.0)": "12e6736231723cba",
    "adversarial_drift(6, seed=3)": "5a545a6e467d42c9",
    "adversarial_drift(6, algorithm='max')": "7f2a41ab4f4bb978",
    "adversarial_drift(6, b0=20.0)": "064983c12f486744",
    "adversarial_drift(n=7)": "154f624121893d1f",
    "adversarial_delay(6)": "8787f9a995b90ef1",
    "adversarial_delay(n=6)": "8787f9a995b90ef1",
    "adversarial_delay(6, horizon=50.0)": "66025e5e7a181045",
    "adversarial_delay(6, seed=3)": "20a276134ca870fa",
    "adversarial_delay(6, algorithm='max')": "97a3be1e581f7e2e",
    "adversarial_delay(6, clock_spec='uniform')": "4f61d54b75ba6c6d",
    "adversarial_delay(6, b0=20.0)": "b13b1c6c1a1e48f4",
    "adversarial_delay(n=7)": "e1857b5f5aa5dc24",
    "greedy_topology(6)": "ca05730e2a7d450d",
    "greedy_topology(n=6)": "ca05730e2a7d450d",
    "greedy_topology(6, k_extra=2)": "66aff9076dc85e81",
    "greedy_topology(6, period=3.0)": "887e7cb000157622",
    "greedy_topology(6, hold=None)": "514260df41ba38dd",
    "greedy_topology(6, horizon=50.0)": "6764f37462dd3a21",
    "greedy_topology(6, seed=3)": "a801658316cd9a91",
    "greedy_topology(6, algorithm='max')": "949ccaec4b9866d2",
    "greedy_topology(6, clock_spec='uniform')": "7dee1554f7d5438d",
    "greedy_topology(6, b0=20.0)": "312f9f459ffd971b",
    "greedy_topology(n=7)": "c984bced5c7c0254",
    "combined_adversary(6)": "299f0fc862087c19",
    "combined_adversary(n=6)": "299f0fc862087c19",
    "combined_adversary(6, period=3.0)": "a6810519d132ca8e",
    "combined_adversary(6, strength=0.5)": "29627382afa101a2",
    "combined_adversary(6, k_extra=2)": "6a6fccb009e3bf0c",
    "combined_adversary(6, horizon=50.0)": "0022256ec6a62de0",
    "combined_adversary(6, seed=3)": "cba704db93eb3cc7",
    "combined_adversary(6, algorithm='max')": "7c060e75bc31b3cb",
    "combined_adversary(6, b0=20.0)": "5db3fa1fa78b5d9a",
    "combined_adversary(n=7)": "b0dcbc8c579fca0f",
    "live_ring(6)": "b92783ecb1e43029",
    "live_ring(n=6)": "b92783ecb1e43029",
    "live_ring(6, duration=2.0)": "20302b4190af07cd",
    "live_ring(6, seed=3)": "034c4c132da91839",
    "live_ring(6, algorithm='max')": "266df7e8adbcc4b3",
    "live_ring(6, clock_spec='perfect')": "629e71356fd13c4a",
    "live_ring(6, sample_interval=1.5)": "eaf432ede0bca6a9",
    "live_ring(6, channel='udp')": "455770d5dbb51388",
    "live_ring(6, jitter=0.01)": "b1df803d2b7d5918",
    "live_ring(6, oracle=False)": "1a6524033f64fe9a",
    "live_ring(6, b0=20.0)": "76715df829fbd655",
    "live_ring(n=7)": "c2821ca50279765f",
    "live_grid(2, 3)": "5c4fdaac260a3a00",
    "live_grid(rows=2, cols=3)": "5c4fdaac260a3a00",
    "live_grid(2, 3, duration=2.0)": "4d2056ab23ff33fd",
    "live_grid(2, 3, seed=3)": "3bcd6df6374726f4",
    "live_grid(2, 3, algorithm='max')": "d6ed20e45b79f73b",
    "live_grid(2, 3, sample_interval=1.5)": "15c3528e035ea283",
    "live_grid(2, 3, channel='udp')": "ffa7872908e04a44",
    "live_grid(2, 3, jitter=0.01)": "027102bf802825d8",
    "live_grid(2, 3, b0=20.0)": "54ceb6034a4cf4ab",
    "live_grid(rows=3, cols=4)": "0c8fb4e766394bcb",
    "live_churn_ring(6)": "6f56bc55240a184b",
    "live_churn_ring(n=6)": "6f56bc55240a184b",
    "live_churn_ring(6, duration=2.0)": "169e4156f83043e0",
    "live_churn_ring(6, seed=3)": "76d660b9485eb0c2",
    "live_churn_ring(6, algorithm='max')": "aaedde760ccf52ba",
    "live_churn_ring(6, sample_interval=1.5)": "4ec87fe1b7d71b75",
    "live_churn_ring(6, channel='udp')": "19e4974f26b81d99",
    "live_churn_ring(6, jitter=0.01)": "23621cc3142c4a0c",
    "live_churn_ring(6, b0=20.0)": "03a3f30c2174a3a2",
    "live_churn_ring(n=7)": "b974de8267df8d2a",
    "large_ring(6, horizon=50)": "54d3821500708137",
    "rotating_backbone(6, window=40)": "5c24e5fe7067be33",
    "edge_insertion(6, t_insert=20)": "aa86394240286a72",
    "adversarial_drift(6, strength=1)": "4296df0405908931",
}


def _digest(cfgs) -> str:
    h = hashlib.sha256()
    for cfg in cfgs:
        h.update(config_hash(cfg.to_dict()).encode())
    return h.hexdigest()[:16]


class TestConfigIdentity:
    @pytest.mark.parametrize("call", sorted(WORKLOAD_PINS))
    def test_workload_to_dict_is_pinned(self, call):
        cfg = eval(f"configs.{call}", {"configs": configs})
        assert config_hash(cfg.to_dict())[:16] == WORKLOAD_PINS[call]

    def test_every_workload_is_pinned(self):
        assert {call.split("(")[0] for call in WORKLOAD_PINS} == set(configs.WORKLOADS)

    def test_fuzz_configs_are_pinned(self):
        assert _digest(fuzz_config(seed) for seed in range(100)) == "215b19bb53a391b7"

    def test_fuzz_sweep_expansions_are_pinned(self):
        cfgs = (cfg for seed in range(20) for cfg in fuzz_sweep_spec(seed).expand())
        assert _digest(cfgs) == "b9a0574d48de3e13"
