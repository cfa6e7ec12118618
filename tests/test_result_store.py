"""Tests for the content-addressed result store."""

from __future__ import annotations

import json

import pytest

from repro.harness import configs
from repro.sweep import ResultStore, config_hash
from repro.sweep.store import write_json_atomic


@pytest.fixture
def store(tmp_path) -> ResultStore:
    return ResultStore(tmp_path / "cache")


def _key(seed: int = 0) -> tuple[str, dict]:
    cfg = configs.static_path(6, horizon=30.0, seed=seed).to_dict()
    return config_hash(cfg), cfg


class TestHashing:
    def test_hash_is_stable_across_processes_shape(self):
        # Same config dict -> same hash, independent of dict insertion order.
        key1, cfg = _key()
        shuffled = dict(reversed(list(cfg.items())))
        assert config_hash(shuffled) == key1

    def test_any_changed_field_changes_hash(self):
        key0, cfg = _key()
        for field, value in [
            ("seed", 1),
            ("horizon", 31.0),
            ("algorithm", "max"),
            ("name", "other"),
        ]:
            mutated = dict(cfg, **{field: value})
            assert config_hash(mutated) != key0, field

    def test_changed_params_subfield_changes_hash(self):
        key0, cfg = _key()
        mutated = dict(cfg, params=dict(cfg["params"], rho=0.02))
        assert config_hash(mutated) != key0


class TestStore:
    def test_miss_then_hit(self, store):
        key, cfg = _key()
        assert store.get(key) is None
        store.put(key, cfg, {"max_global_skew": 1.5})
        assert store.writes == 1
        entry = store.get(key)
        assert entry is not None
        assert entry["metrics"] == {"max_global_skew": 1.5}
        assert entry["config"] == cfg
        assert store.get(key) is not None

    def test_cache_miss_on_any_changed_field(self, store):
        key, cfg = _key()
        store.put(key, cfg, {"m": 1})
        other = dict(cfg, seed=99)
        assert store.get(config_hash(other)) is None

    def test_corrupted_entry_evicted_not_fatal(self, store):
        key, cfg = _key()
        store.put(key, cfg, {"m": 1})
        path = store.path_for(key)
        path.write_text("{not json", encoding="utf-8")
        assert store.get(key) is None
        assert store.evictions == 1
        assert not path.exists()
        # A fresh put repopulates the slot.
        store.put(key, cfg, {"m": 2})
        assert store.get(key)["metrics"] == {"m": 2}

    def test_unreadable_entry_is_a_miss(self, store):
        key, _cfg = _key()
        store.path_for(key).mkdir(parents=True)  # reading a directory fails
        assert store.get(key) is None
        assert store.evictions == 0

    def test_an_entry_already_evicted_elsewhere_is_counted(self, store):
        key, _cfg = _key()
        store._evict(store.path_for(key))  # never written, or removed by a racer
        assert store.evictions == 1

    def test_a_failed_write_leaves_no_temporary_file(self, store, tmp_path):
        """The one atomic writer (store entries and run bundles): a failed
        write removes its temp file and leaves the old file as it was."""
        path = tmp_path / "d" / "doc.json"
        write_json_atomic(path, {"a": 1})
        with pytest.raises(TypeError):
            write_json_atomic(path, {"bad": object()})
        assert list(path.parent.iterdir()) == [path]
        assert json.loads(path.read_text(encoding="utf-8")) == {"a": 1}
        key, cfg = _key()
        with pytest.raises(TypeError):
            store.put(key, cfg, {"m": object()})
        assert list(store.path_for(key).parent.iterdir()) == []
        assert store.writes == 0

    def test_wrong_shape_entry_evicted(self, store):
        key, cfg = _key()
        store.put(key, cfg, {"m": 1})
        store.path_for(key).write_text(json.dumps([1, 2, 3]), encoding="utf-8")
        assert store.get(key) is None
        assert store.evictions == 1

    def test_non_dict_metrics_evicted(self, store):
        key, cfg = _key()
        entry = store.put(key, cfg, {"m": 1})
        store.path_for(key).write_text(
            json.dumps(dict(entry, metrics=5)), encoding="utf-8"
        )
        assert store.get(key) is None
        assert store.evictions == 1

    @pytest.mark.parametrize("version", [0, 1, 2])
    def test_version_mismatch_evicted(self, store, version):
        key, cfg = _key()
        entry = store.put(key, cfg, {"m": 1})
        stale = dict(entry, version=version)
        store.path_for(key).write_text(json.dumps(stale), encoding="utf-8")
        assert store.get(key) is None
        assert store.evictions == 1

    def test_keys_entries_and_find(self, store):
        pairs = [_key(seed) for seed in range(3)]
        for key, cfg in pairs:
            store.put(key, cfg, {"seed": cfg["seed"]})
        assert len(store.keys()) == 3
        assert store.keys() == sorted(k for k, _ in pairs)
        assert {e["hash"] for e in store.entries()} == {k for k, _ in pairs}
        key0 = pairs[0][0]
        assert store.resolve(key0[:8]) == store.get(key0)

    def test_resolve_names_one_entry_or_fails(self, store):
        pairs = [_key(seed) for seed in range(2)]
        for key, cfg in pairs:
            store.put(key, cfg, {"seed": cfg["seed"]})
        key0 = pairs[0][0]
        assert store.resolve(key0)["hash"] == key0
        with pytest.raises(LookupError, match="no entry matches 'zz'"):
            store.resolve("zz")
        with pytest.raises(LookupError, match=r"'' is ambiguous \(2 matches"):
            store.resolve("")
        store.path_for(key0).write_text("{torn", encoding="utf-8")
        with pytest.raises(LookupError, match="unreadable and was evicted"):
            store.resolve(key0[:8])
        assert store.evictions == 1

    def test_empty_store_enumerates_empty(self, store):
        assert store.keys() == []
        assert list(store.entries()) == []

