"""Content-addressed on-disk cache for experiment results.

Every simulation point behind the paper's tables and figures is pure: it
is fully determined by (machine configuration, workload/app name, scheme,
context count, seed, measurement window) plus the simulator code itself.
This module hashes exactly those inputs into a cache key and persists the
simulation's result as JSON, so

* shared runs (Table 7 / Figures 6-7; Table 10 / Figures 8-9) are
  computed once, across processes *and* across invocations;
* interrupted sweeps resume where they stopped;
* results computed by parallel workers are identical to — and
  interchangeable with — serial ones.

The *code version* component is a hash over the simulator's own source
files, so editing the simulator invalidates the cache automatically
instead of silently serving stale numbers.

Corruption is detected (bad JSON, schema drift, key or checksum
mismatch) and treated as a miss: the entry is discarded and recomputed.
"""

import hashlib
import json
import os
import pathlib
import tempfile
from json.encoder import encode_basestring_ascii

from repro.core.simulator import RunResult
from repro.core.stats import CycleStats
from repro.core.mpsimulator import MPResult

#: Bump when the on-disk payload layout changes.
#: 2: DSM protocol counters gained remote_fills and nack_retries.
CACHE_SCHEMA = 2

#: Default cache location (overridable via CLI flag or environment).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro_cache"

#: Subpackages whose source determines simulation results.  Experiment
#: rendering/orchestration code is deliberately excluded: reformatting a
#: table must not invalidate every simulation.
_VERSIONED_SOURCES = ("config.py", "isa", "pipeline", "memory", "core",
                      "coherence", "workloads")

_code_version_cache = None


def default_cache_dir():
    return os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)


def code_version():
    """Hash of the simulation-relevant source tree (memoised)."""
    global _code_version_cache
    if _code_version_cache is None:
        root = pathlib.Path(__file__).resolve().parent.parent
        h = hashlib.sha256()
        for entry in _VERSIONED_SOURCES:
            path = root / entry
            files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
            for f in files:
                h.update(str(f.relative_to(root)).encode())
                h.update(b"\0")
                h.update(f.read_bytes())
                h.update(b"\0")
        _code_version_cache = h.hexdigest()
    return _code_version_cache


#: The key's JSON text: the fields in ``sort_keys`` order, compact
#: separators, so filling it gives the bytes of ``json.dumps(payload,
#: sort_keys=True, separators=(",", ":"))`` over the same fields.
_KEY_TEMPLATE = ('{"code_version":%s,"config":%s,"kind":%s,"measure":%s,'
                 '"mp_params":%s,"n_contexts":%s,"name":%s,"schema":%s,'
                 '"scheme":%s,"seed":%s,"warmup":%s}')


def _json_value(value):
    """``json.dumps(value)`` with a fast path for text and exact ints."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is int:             # never a bool: JSON says true
        return "%d" % value
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def point_key(kind, name, scheme, n_contexts, config, mp_params, seed,
              warmup, measure, version=None):
    """The cache key of one simulation point.

    Any change to any field — any config value, the seed, the window, or
    the simulator source (``version``) — produces a different key.  The
    configs embed their :attr:`~repro.config.SystemConfig.canonical_json`
    text, encoded once per config object, so a key costs one SHA-256
    over about 1.4 KB of text.
    """
    blob = _KEY_TEMPLATE % (
        _json_value(version if version is not None else code_version()),
        config.canonical_json, _json_value(kind), _json_value(measure),
        mp_params.canonical_json, _json_value(n_contexts),
        _json_value(name), _json_value(CACHE_SCHEMA), _json_value(scheme),
        _json_value(seed), _json_value(warmup))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- result (de)serialisation -------------------------------------------------

def stats_to_state(stats):
    return {
        "counts": list(stats.counts),
        "retired": stats.retired,
        "issued": stats.issued,
        "squashed": stats.squashed,
        "context_switches": stats.context_switches,
        "backoffs": stats.backoffs,
        "run_count": stats.run_count,
        "run_inst_sum": stats.run_inst_sum,
        "run_max": stats.run_max,
    }


def stats_from_state(state):
    s = CycleStats()
    s.counts = list(state["counts"])
    s.retired = state["retired"]
    s.issued = state["issued"]
    s.squashed = state["squashed"]
    s.context_switches = state["context_switches"]
    s.backoffs = state["backoffs"]
    s.run_count = state["run_count"]
    s.run_inst_sum = state["run_inst_sum"]
    s.run_max = state["run_max"]
    return s


def uniproc_to_state(result):
    """A WorkstationSimulator RunResult as a plain dictionary."""
    return {
        "duration": result.duration,
        "per_process": dict(result.per_process),
        "stats": stats_to_state(result.stats),
    }


def uniproc_from_state(state):
    return RunResult(state["duration"], stats_from_state(state["stats"]),
                     dict(state["per_process"]))


class CachedProtocol:
    """The DSMachine protocol counters an exported MPResult needs."""

    __slots__ = ("read_misses", "write_misses", "upgrades",
                 "invalidations_sent", "dirty_remote_services",
                 "remote_fills", "nack_retries")

    def __init__(self, read_misses, write_misses, upgrades,
                 invalidations_sent, dirty_remote_services,
                 remote_fills, nack_retries):
        self.read_misses = read_misses
        self.write_misses = write_misses
        self.upgrades = upgrades
        self.invalidations_sent = invalidations_sent
        self.dirty_remote_services = dirty_remote_services
        self.remote_fills = remote_fills
        self.nack_retries = nack_retries


def mp_to_state(result):
    """An MPResult as a plain dictionary."""
    return {
        "cycles": result.cycles,
        "node_stats": [stats_to_state(s) for s in result.node_stats],
        "protocol": {
            "read_misses": result.machine.read_misses,
            "write_misses": result.machine.write_misses,
            "upgrades": result.machine.upgrades,
            "invalidations_sent": result.machine.invalidations_sent,
            "dirty_remote_services": result.machine.dirty_remote_services,
            "remote_fills": result.machine.remote_fills,
            "nack_retries": result.machine.nack_retries,
        },
    }


def mp_from_state(state):
    node_stats = [stats_from_state(s) for s in state["node_stats"]]
    return MPResult(state["cycles"], node_stats,
                    CachedProtocol(**state["protocol"]))


SERIALIZERS = {
    "uniproc": (uniproc_to_state, uniproc_from_state),
    "dedicated": (uniproc_to_state, uniproc_from_state),
    # Generated families run on the workstation simulator, so their
    # results serialise exactly like uniprocessor points; the cache key
    # carries the spec's canonical text, making generated points as
    # cacheable as committed ones.
    "gen": (uniproc_to_state, uniproc_from_state),
    "mp": (mp_to_state, mp_from_state),
}


def _canonical(result_state):
    """The result's compact canonical text: what an entry stores and
    its checksum (SHA-256, hex) hashes."""
    return json.dumps(result_state, sort_keys=True, separators=(",", ":"))


#: What precedes the stored result in an entry.  The header is written
#: with ``json.dumps``' default ``": "`` separator and the result in
#: compact form, which has no space after a colon, so the entry's last
#: occurrence of this marker is the one before its result.
_RESULT_MARKER = b'"result": '


class CorruptEntry(Exception):
    """An on-disk entry failed validation (treated as a miss)."""


class ResultCache:
    """Content-addressed store of simulation results under one directory.

    Layout: ``<root>/<key[:2]>/<key>.json``; each payload carries a
    schema number, its own key, a checksum of the result body, and a
    human-readable ``meta`` block describing the point, then the result
    itself, last, as the compact canonical text the checksum hashes.  A
    read therefore checks the stored bytes against the checksum without
    encoding the parsed result again.  Writes are atomic (temp file +
    rename) so a killed sweep never leaves a half-written entry that
    later reads as valid.
    """

    def __init__(self, root=None):
        self.root = pathlib.Path(root if root is not None
                                 else default_cache_dir())
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    def _path(self, key):
        return self.root / key[:2] / (key + ".json")

    def get(self, key, kind):
        """The deserialised result for ``key``, or None on miss (see
        :meth:`get_state`)."""
        state = self.get_state(key, kind)
        return None if state is None else SERIALIZERS[kind][1](state)

    def get_state(self, key, kind):
        """The still-serialised result state for ``key``, or None on miss.

        Any validation failure counts as corruption: the entry is
        deleted so the caller recomputes and overwrites it.  Callers
        that hold results in the wire format (the service's job
        manager) materialise objects only at the edge.
        """
        path = os.path.join(self.root, key[:2], key + ".json")
        try:
            payload = self._load_validated(path, key, kind)
        except FileNotFoundError:
            self.misses += 1
            return None
        except CorruptEntry:
            self.corrupt += 1
            self.misses += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self.hits += 1
        return payload["result"]

    def _load_validated(self, path, key, kind):
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            payload = json.loads(data)
        except (ValueError, UnicodeDecodeError) as exc:
            raise CorruptEntry("undecodable: %s" % exc)
        except OSError as exc:
            if isinstance(exc, FileNotFoundError):
                raise
            raise CorruptEntry("unreadable: %s" % exc)
        if not isinstance(payload, dict):
            raise CorruptEntry("payload is not an object")
        if payload.get("schema") != CACHE_SCHEMA:
            raise CorruptEntry("schema mismatch")
        if payload.get("key") != key or payload.get("kind") != kind:
            raise CorruptEntry("key/kind mismatch")
        result = payload.get("result")
        start = data.rfind(_RESULT_MARKER) + len(_RESULT_MARKER)
        stored = data[start:-1]
        if (not isinstance(result, dict)
                or start < len(_RESULT_MARKER)
                or payload.get("checksum")
                != hashlib.sha256(stored).hexdigest()):
            raise CorruptEntry("checksum mismatch")
        return payload

    def put(self, key, kind, result, meta=None):
        """Persist a result object under ``key`` (atomic)."""
        return self.put_state(key, kind, SERIALIZERS[kind][0](result),
                              meta=meta)

    def put_state(self, key, kind, state, meta=None):
        """Persist an already-serialised result state (sweep workers)."""
        result = _canonical(state).encode()
        header = json.dumps({
            "schema": CACHE_SCHEMA,
            "key": key,
            "kind": kind,
            "meta": dict(meta) if meta else {},
            "checksum": hashlib.sha256(result).hexdigest(),
        }, sort_keys=True).encode()
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(b"%s, %s%s}" % (header[:-1], _RESULT_MARKER,
                                         result))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1
        return path

    # -- maintenance ---------------------------------------------------------

    def _entries(self):
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*/*.json")):
            yield path

    def disk_stats(self):
        """Scan the directory: entry/byte counts, split by kind."""
        n = 0
        total_bytes = 0
        by_kind = {}
        for path in self._entries():
            n += 1
            total_bytes += path.stat().st_size
            try:
                kind = json.loads(path.read_text()).get("kind", "?")
            except (ValueError, OSError):
                kind = "corrupt"
            by_kind[kind] = by_kind.get(kind, 0) + 1
        return {"root": str(self.root), "entries": n,
                "bytes": total_bytes, "by_kind": by_kind}

    def clear(self):
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self._entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for sub in sorted(self.root.glob("*")):
            if sub.is_dir():
                try:
                    sub.rmdir()
                except OSError:
                    pass
        return removed

    def session_stats(self):
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "corrupt": self.corrupt}
