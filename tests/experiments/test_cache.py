"""The on-disk result cache: keys, round-trips, corruption handling."""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig, MultiprocessorParams, to_canonical
from repro.core.simulator import RunResult
from repro.core.mpsimulator import MPResult
from repro.core.stats import CycleStats
from repro.experiments import cache as cache_mod
from repro.experiments.cache import (
    CACHE_SCHEMA,
    CachedProtocol,
    ResultCache,
    code_version,
    mp_from_state,
    mp_to_state,
    point_key,
    stats_from_state,
    stats_to_state,
    uniproc_from_state,
    uniproc_to_state,
)
from repro.service.jobs import JobSpec


def _stats(offset=0):
    s = CycleStats()
    s.counts = [i + offset for i in range(len(s.counts))]
    s.retired = 1000 + offset
    s.issued = 1100 + offset
    s.squashed = 7 + offset
    s.context_switches = 3
    s.backoffs = 5
    s.run_count = 40
    s.run_inst_sum = 900
    s.run_max = 60
    return s


def _uniproc_result():
    return RunResult(20_000, _stats(), {"mxm.0": 5000, "li.1": 4000})


def _mp_result():
    return MPResult(123_456, [_stats(0), _stats(2)],
                    CachedProtocol(10, 20, 30, 40, 50, 60, 70))


#: Key text with the characters JSON must escape, and non-ASCII.
_KEY_TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\x00\u00e9\u2603'
                                              '\U0001f600'),
                              st.characters()))
_KEY_CONFIGS = (SystemConfig.fast(), SystemConfig.paper(),
                SystemConfig.fast().with_pipeline(issue_width=2))
_KEY_MP_PARAMS = (MultiprocessorParams(), MultiprocessorParams(n_nodes=2),
                  MultiprocessorParams(lock_transfer_latency=40))


def _key(**overrides):
    base = dict(kind="uniproc", name="R1", scheme="interleaved",
                n_contexts=4, config=SystemConfig.fast(),
                mp_params=MultiprocessorParams(), seed=1994,
                warmup=2000, measure=10000, version="v0")
    base.update(overrides)
    return point_key(**base)


class TestPointKey:
    def test_deterministic(self):
        assert _key() == _key()

    @pytest.mark.parametrize("override", [
        {"kind": "mp"},
        {"name": "DC"},
        {"scheme": "blocked"},
        {"n_contexts": 2},
        {"seed": 1},
        {"warmup": 1},
        {"measure": 1},
        {"version": "v1"},
        {"mp_params": MultiprocessorParams(n_nodes=4)},
    ])
    def test_any_field_changes_key(self, override):
        assert _key(**override) != _key()

    def test_config_field_changes_key(self):
        tweaked = SystemConfig.fast().with_memory(l1_hit_latency=2)
        assert _key(config=tweaked) != _key()
        deep = SystemConfig.fast().with_pipeline(issue_width=2)
        assert _key(config=deep) != _key()

    @pytest.mark.parametrize("profile,point,window,digest", [
        ("fast", ("uniproc", "DC", "interleaved", 4), (30_000, 120_000),
         "fe4ea0e0e9d708f20674a9f038d884b340ca227d7d997833346efe834c19a050"),
        ("fast", ("mp", "mp3d", "blocked", 2), (0, 20_000_000),
         "3498bb87a5fac373eb9887a4c087c657ff2cf4c7367a1adb5bf5b32e9976dcec"),
        ("paper", ("uniproc", "DC", "interleaved", 4), (30_000, 120_000),
         "55eb5f109601b06f9dab0d81f2f7c405c6d33efa9fc8cd73e759a246d2d6e393"),
        ("paper", ("mp", "mp3d", "blocked", 2), (0, 20_000_000),
         "e3b2dbd204c1538bed3504d2e0d4f04f8772ff9550c92e483f975444d43299b0"),
    ])
    def test_key_bytes_are_pinned(self, monkeypatch, profile, point,
                                  window, digest):
        """Every key path hashes the same bytes as ever: a changed
        digest would orphan every existing cache entry."""
        from repro.experiments.runner import ExperimentContext
        config = getattr(SystemConfig, profile)()
        mpp = MultiprocessorParams()
        assert point_key(*point, config, mpp, 1994, *window,
                         version="0" * 64) == digest
        monkeypatch.setattr(cache_mod, "code_version", lambda: "0" * 64)
        ctx = ExperimentContext(config=config, mp_params=mpp, seed=1994,
                                warmup=30_000, measure=120_000)
        assert ctx.point_cache_key(*point) == digest
        assert ctx.point_cache_key(*point) == digest    # memoised
        # A service job that came over the wire keys from the shared
        # profile configs, through the same bytes.
        spec = JobSpec(points=(point,), config=config, mp_params=mpp,
                       seed=1994, warmup=30_000, measure=120_000)
        wire = JobSpec.from_dict(spec.to_dict())
        assert wire.cache_key(wire.points[0]) == digest

    @settings(max_examples=200, deadline=None)
    @given(kind=_KEY_TEXT, name=_KEY_TEXT, scheme=_KEY_TEXT,
           n_contexts=st.integers(min_value=0),
           seed=st.integers(min_value=0), warmup=st.integers(min_value=0),
           measure=st.integers(min_value=0), version=_KEY_TEXT,
           config=st.sampled_from(_KEY_CONFIGS),
           mp_params=st.sampled_from(_KEY_MP_PARAMS))
    def test_templated_key_is_the_whole_dict_blob(
            self, kind, name, scheme, n_contexts, seed, warmup, measure,
            version, config, mp_params):
        """The key fills a template with pre-encoded configs; its bytes
        are those of one ``json.dumps`` over the whole key dict."""
        payload = {
            "schema": CACHE_SCHEMA,
            "kind": kind,
            "name": name,
            "scheme": scheme,
            "n_contexts": n_contexts,
            "config": to_canonical(config),
            "mp_params": to_canonical(mp_params),
            "seed": seed,
            "warmup": warmup,
            "measure": measure,
            "code_version": version,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert point_key(kind, name, scheme, n_contexts, config, mp_params,
                         seed, warmup, measure, version=version) == (
            hashlib.sha256(blob.encode()).hexdigest())

    def test_code_version_component(self):
        """Default version comes from hashing the simulator sources."""
        v = code_version()
        assert len(v) == 64 and int(v, 16) >= 0
        assert code_version() == v          # memoised and stable
        assert _key(version=None) == _key(version=v)


class TestRoundTrips:
    def test_stats_roundtrip(self):
        s = _stats(3)
        s2 = stats_from_state(stats_to_state(s))
        assert stats_to_state(s2) == stats_to_state(s)
        assert s2.total_cycles == s.total_cycles
        assert s2.mean_runlength() == s.mean_runlength()

    def test_uniproc_roundtrip(self):
        r = _uniproc_result()
        r2 = uniproc_from_state(uniproc_to_state(r))
        assert r2.duration == r.duration
        assert r2.per_process == r.per_process
        assert list(r2.stats.counts) == list(r.stats.counts)

    def test_mp_roundtrip(self):
        r = _mp_result()
        r2 = mp_from_state(mp_to_state(r))
        assert r2.cycles == r.cycles
        assert len(r2.node_stats) == 2
        assert r2.machine.read_misses == 10
        assert r2.machine.dirty_remote_services == 50
        assert r2.machine.remote_fills == 60
        assert r2.machine.nack_retries == 70
        # merged stats are recomputed identically
        assert list(r2.stats.counts) == list(r.stats.counts)

    def test_json_safe(self):
        """States survive an actual JSON round-trip (the disk format)."""
        state = json.loads(json.dumps(mp_to_state(_mp_result())))
        assert mp_from_state(state).cycles == 123_456


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = _key()
        assert cache.get(key, "uniproc") is None
        cache.put(key, "uniproc", _uniproc_result())
        got = cache.get(key, "uniproc")
        assert got is not None and got.duration == 20_000
        assert cache.session_stats() == {
            "hits": 1, "misses": 1, "stores": 1, "corrupt": 0}

    def test_undecodable_entry_is_discarded_and_recomputable(
            self, tmp_path):
        cache = ResultCache(tmp_path)
        key = _key()
        path = cache.put(key, "uniproc", _uniproc_result())
        path.write_text("{not json at all")
        assert cache.get(key, "uniproc") is None
        assert cache.corrupt == 1
        assert not path.exists()            # discarded for recompute
        cache.put(key, "uniproc", _uniproc_result())
        assert cache.get(key, "uniproc").duration == 20_000

    def test_checksum_tamper_detected(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = _key()
        path = cache.put(key, "uniproc", _uniproc_result())
        payload = json.loads(path.read_text())
        payload["result"]["duration"] = 999
        path.write_text(json.dumps(payload))
        assert cache.get(key, "uniproc") is None
        assert cache.corrupt == 1

    def test_entry_stores_the_hashed_text_last(self, tmp_path):
        """The result is the entry's last value, stored as the compact
        canonical text its checksum hashes."""
        cache = ResultCache(tmp_path)
        state = cache_mod.uniproc_to_state(_uniproc_result())
        path = cache.put_state(_key(), "uniproc", state)
        text = json.dumps(state, sort_keys=True, separators=(",", ":"))
        data = path.read_bytes()
        assert data.endswith(b'"result": ' + text.encode() + b"}")
        payload = json.loads(data)
        assert list(payload)[-1] == "result"
        assert payload["checksum"] == hashlib.sha256(
            text.encode()).hexdigest()

    def test_flipped_byte_in_stored_result_is_corrupt(self, tmp_path):
        """A flipped digit still parses, so only the byte check sees
        it: the entry reads as corrupt and is deleted."""
        cache = ResultCache(tmp_path)
        key = _key()
        path = cache.put(key, "uniproc", _uniproc_result())
        data = path.read_bytes()
        at = data.index(b'"duration":20000')
        path.write_bytes(data[:at] + b'"duration":20001'
                         + data[at + 16:])
        assert json.loads(path.read_bytes())["result"]["duration"] \
            == 20001
        assert cache.get(key, "uniproc") is None
        assert cache.corrupt == 1
        assert not path.exists()

    def test_old_layout_entry_is_recomputed(self, tmp_path):
        """An entry written whole by ``json.dump`` (result not stored as
        its canonical text) fails the byte check."""
        cache = ResultCache(tmp_path)
        key = _key()
        path = cache.put(key, "uniproc", _uniproc_result())
        path.write_text(json.dumps(json.loads(path.read_bytes()),
                                   sort_keys=True))
        assert cache.get(key, "uniproc") is None
        assert cache.corrupt == 1

    def test_schema_and_kind_mismatch_detected(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = _key()
        path = cache.put(key, "uniproc", _uniproc_result())
        payload = json.loads(path.read_text())
        payload["schema"] = cache_mod.CACHE_SCHEMA + 1
        path.write_text(json.dumps(payload))
        assert cache.get(key, "uniproc") is None
        cache.put(key, "uniproc", _uniproc_result())
        assert cache.get(key, "mp") is None      # wrong kind never served

    def test_disk_stats_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_key(), "uniproc", _uniproc_result())
        cache.put(_key(kind="mp"), "mp", _mp_result())
        stats = cache.disk_stats()
        assert stats["entries"] == 2
        assert stats["by_kind"] == {"uniproc": 1, "mp": 1}
        assert stats["bytes"] > 0
        assert cache.clear() == 2
        assert cache.disk_stats()["entries"] == 0

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_key(), "uniproc", _uniproc_result())
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []
