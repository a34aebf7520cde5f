"""JobSpec validation, wire-dict round-trip, and cache-key interchange."""

import pytest

from repro.config import SystemConfig, MultiprocessorParams
from repro.experiments.runner import ExperimentContext
from repro.service.jobs import JobSpec

FAST = SystemConfig.fast()
MPP = MultiprocessorParams(n_nodes=2)

#: A spec dict as ``to_dict`` wrote it while jobs could pick a
#: scoreboard implementation: every current field plus ``"backend"``.
OLD_SPEC = {
    "schema_version": 1, "profile": "fast", "nodes": 2,
    "seed": 7, "warmup": 500, "measure": 2_000, "engine": "burst",
    "backend": "python", "timeout": 12.5, "max_retries": 4,
    "points": [["uniproc", "R1", "single", 1],
               ["mp", "cholesky", "interleaved", 2]],
}


def _spec(points, **kwargs):
    kwargs.setdefault("config", FAST)
    kwargs.setdefault("mp_params", MPP)
    return JobSpec(points=points, **kwargs)


def test_points_are_normalised_and_deduped():
    spec = _spec((("uniproc", "R1", "single", 1),
                  ("uniproc", "R1", "single", 1),
                  ("uniproc", "R1", "interleaved", 2)))
    assert len(spec.points) == 2
    assert spec.points[0].kind == "uniproc"


def test_empty_job_rejected():
    with pytest.raises(ValueError):
        _spec(())


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        _spec((("uniproc", "R1", "single", 1),), engine="warp")
    # The events engine is gone; only a stored spec may still name it.
    with pytest.raises(ValueError):
        _spec((("uniproc", "R1", "single", 1),), engine="events")


def test_default_engine_is_burst():
    assert _spec((("uniproc", "R1", "single", 1),)).engine == "burst"


def test_sweep_classmethod_covers_default_points():
    from repro.experiments.sweep import default_points
    spec = JobSpec.sweep(workloads=("R1",), apps=("cholesky",),
                        config=FAST, mp_params=MPP)
    assert spec.points == tuple(default_points(workloads=("R1",),
                                               apps=("cholesky",)))


def test_mp_points_use_the_mp_window():
    spec = _spec((("mp", "cholesky", "single", 1),), warmup=123,
                 measure=456)
    from repro.experiments.runner import MP_MAX_CYCLES
    assert spec.point_window(spec.points[0]) == (0, MP_MAX_CYCLES)


def test_cache_keys_interchangeable_with_batch_context():
    """The acceptance contract: service cache entries ARE batch entries."""
    from repro.experiments.cache import point_key
    for config in (FAST, SystemConfig.paper()):
        for mpp in (MPP, MultiprocessorParams()):
            spec = _spec((("uniproc", "R1", "interleaved", 2),
                          ("mp", "cholesky", "single", 1)),
                         config=config, mp_params=mpp,
                         warmup=1_000, measure=6_000)
            ctx = ExperimentContext(config=config, mp_params=mpp,
                                    warmup=1_000, measure=6_000)
            for point in spec.points:
                key = spec.cache_key(point)
                assert key == ctx.point_cache_key(*point)
                assert key == point_key(*point, config, mpp, 1994,
                                        *spec.point_window(point))


def test_cache_key_follows_reassigned_config():
    """Keys memoise the canonical configs per config object, so a
    reassigned config keys afresh on both paths."""
    point = ("uniproc", "R1", "single", 1)
    spec = _spec((point,))
    ctx = ExperimentContext(config=FAST, mp_params=MPP)
    fast_key = spec.cache_key(spec.points[0])
    assert ctx.point_cache_key(*point) == fast_key
    paper = SystemConfig.paper()
    spec.config = ctx.config = paper
    paper_key = spec.cache_key(spec.points[0])
    assert paper_key != fast_key
    assert ctx.point_cache_key(*point) == paper_key
    assert paper_key == _spec((point,), config=paper).cache_key(
        spec.points[0])
    spec.mp_params = ctx.mp_params = MultiprocessorParams()
    mp_point = spec.points[0]._replace(kind="mp")
    assert spec.cache_key(mp_point) == ctx.point_cache_key(*mp_point)
    assert spec.cache_key(mp_point) != _spec((point,), config=paper
                                             ).cache_key(mp_point)


def test_wire_dict_round_trip():
    spec = _spec((("uniproc", "R1", "single", 1),
                  ("mp", "cholesky", "interleaved", 2)),
                 seed=7, warmup=500, measure=2_000, engine="burst",
                 timeout=12.5, max_retries=4)
    back = JobSpec.from_dict(spec.to_dict())
    assert back.points == spec.points
    assert back.config == spec.config
    assert back.mp_params == spec.mp_params
    assert (back.seed, back.warmup, back.measure) == (7, 500, 2_000)
    assert back.engine == "burst"
    assert back.timeout == 12.5
    assert back.max_retries == 4


def test_wire_dict_rejects_events_engine():
    """The events engine was folded into burst; a stored spec naming it
    is rejected like any unknown engine, and a spec without an engine
    takes the default."""
    payload = _spec((("uniproc", "R1", "single", 1),)).to_dict()
    payload["engine"] = "events"
    with pytest.raises(ValueError, match="engine"):
        JobSpec.from_dict(payload)
    payload.pop("engine")
    assert JobSpec.from_dict(payload).engine == "burst"


@pytest.mark.parametrize("value", ["python", "numpy", "auto", None])
def test_wire_dict_ignores_old_backend_key(value):
    """Older clients wrote a ``backend`` key; whatever it names, the
    spec parses as if the key were absent, keys the same cache entries
    and writes itself back without the key."""
    without = dict(OLD_SPEC)
    del without["backend"]
    reference = JobSpec.from_dict(without)
    old = JobSpec.from_dict(dict(OLD_SPEC, backend=value))
    assert old == reference
    assert ([old.cache_key(p) for p in old.points]
            == [reference.cache_key(p) for p in reference.points])
    assert old.to_dict() == without


def test_wire_dict_rejects_unknown_schema():
    payload = _spec((("uniproc", "R1", "single", 1),)).to_dict()
    payload["schema_version"] = 999
    with pytest.raises(ValueError, match="schema_version"):
        JobSpec.from_dict(payload)


def test_wire_dict_rejects_custom_config():
    import dataclasses
    custom = dataclasses.replace(SystemConfig.fast(), workload_scale=3.5)
    spec = _spec((("uniproc", "R1", "single", 1),), config=custom)
    with pytest.raises(ValueError):
        spec.to_dict()


def test_wire_dict_rejects_custom_mp_params():
    """The wire carries only a node count, so any other multiprocessor
    setting would be swapped for the default machine's, and keyed and
    cached as it."""
    custom = MultiprocessorParams(n_nodes=2, lock_transfer_latency=40)
    spec = _spec((("mp", "cholesky", "single", 1),), mp_params=custom)
    with pytest.raises(ValueError, match="MultiprocessorParams"):
        spec.to_dict()


def test_wire_specs_canonicalise_each_profile_config_once(monkeypatch):
    """Wire specs share one config per profile and one
    MultiprocessorParams per node count, so keying every point of many
    wire jobs walks each of those configs once."""
    from repro import config as config_mod
    from repro.service import jobs as jobs_mod
    monkeypatch.setattr(jobs_mod, "_PROFILES",
                        {"fast": SystemConfig.fast(),
                         "paper": SystemConfig.paper()})
    jobs_mod._wire_mp_params.cache_clear()
    walked = []
    to_canonical = config_mod.to_canonical

    def counting(obj):
        if isinstance(obj, (SystemConfig, MultiprocessorParams)):
            walked.append(obj)
        return to_canonical(obj)

    monkeypatch.setattr(config_mod, "to_canonical", counting)
    wire = dict(OLD_SPEC)
    del wire["backend"]
    keys = set()
    for _ in range(3):
        for profile in ("fast", "paper"):
            for nodes in (2, 8):
                spec = JobSpec.from_dict(dict(wire, profile=profile,
                                              nodes=nodes))
                keys.update(spec.cache_key(p) for p in spec.points)
    assert len(keys) == 2 * 2 * len(wire["points"])
    assert sorted(type(c).__name__ for c in walked) == [
        "MultiprocessorParams", "MultiprocessorParams",
        "SystemConfig", "SystemConfig"]
    assert len({id(c) for c in walked}) == 4
