"""The artifact store: every persisted artifact under one root.

Stored traces (:mod:`repro.runtime.trace_cache`, namespace ``trace``)
and the persistent simulation memo (:mod:`repro.sim.simcache`,
namespace ``sim``) share one content-addressed store with one byte
budget.  :func:`default_store` is the only place that resolves the
store's root and budget from the environment.  The sharding and
``flock`` discipline follow :class:`repro.obs.store.RunStore`:

Layout (under one root directory)::

    <root>/
      store.lock                        fcntl advisory lock for writers
      shards/<0-f>/<ns>--<key><sfx>     payload (any format)
      shards/<0-f>/<ns>--<key>.meta.json  sidecar: bytes, sha256, file

* **Content-addressed keys** — a key is a SHA-256 hex digest computed
  by the owning subsystem from the artifact's full input identity (the
  trace cache's run key, the sim memo's geometry tuple).  Entries
  shard by the key's first hex digit, so hashes spread uniformly and a
  scan can prune shards independently.
* **Atomic publish** — payloads are produced into a temp file in the
  destination shard and published with ``os.replace``; the sidecar is
  written the same way, *after* the payload.  A reader therefore never
  observes a partial payload: either the sidecar names a fully
  published file or the entry does not exist yet.
* **Concurrent writers** — publishes and evictions serialize on
  ``store.lock`` (``fcntl.flock``), so two workers storing the same key
  race safely (last writer wins with an identical payload) and an
  eviction sweep can never interleave with a publish and drop an entry
  it should have exempted.  Readers take no lock.
* **LRU byte budget** — ``REPRO_ARTIFACTS_MAX_MB`` bounds the store;
  every read refreshes the payload's mtime and eviction drops the least
  recently *used* entries first, never the entry just published.
  Because POSIX ``unlink`` leaves open file handles valid, eviction
  never invalidates an entry a reader already has open.
* **Integrity on read** — the sidecar records the payload's byte count
  and SHA-256.  Reads check the size always, and the full digest when
  ``REPRO_ARTIFACTS_VERIFY=1`` (or via :meth:`ArtifactStore.fsck`);
  a mismatch or truncation drops the entry with a logged warning and
  reports a miss, never an error.

Environment knobs
-----------------

``REPRO_ARTIFACTS``
    Store root (``~/.cache/repro/artifacts`` when unset).  ``0`` /
    ``off`` / ``no`` / ``none`` / ``false`` turns all persistence off.
``REPRO_ARTIFACTS_MAX_MB``
    LRU byte budget (unset/0 = unbounded).
``REPRO_ARTIFACTS_VERIFY``
    ``1`` re-hashes every payload on read (slow; CI and debugging).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from repro import perf
from repro.config import env_number

log = logging.getLogger("repro.artifacts")

ENV_ROOT = "REPRO_ARTIFACTS"
ENV_MAX_MB = "REPRO_ARTIFACTS_MAX_MB"
ENV_VERIFY = "REPRO_ARTIFACTS_VERIFY"

SHARD_DIGITS = "0123456789abcdef"

#: Sidecar schema — bump to invalidate every stored entry.
META_SCHEMA = 1

#: The namespaces the store serves today (anything else is accepted).
NS_TRACE = "trace"
NS_SIM = "sim"

#: ``REPRO_ARTIFACTS`` values that turn persistence off.
_DISABLED = {"0", "off", "no", "none", "false"}


def default_store(
    root: str | Path | None = None,
) -> Optional["ArtifactStore"]:
    """The store every subsystem persists into, or None when
    ``REPRO_ARTIFACTS`` turns persistence off.

    ``root`` overrides ``REPRO_ARTIFACTS`` (``repro artifacts --root``);
    the byte budget is ``REPRO_ARTIFACTS_MAX_MB`` either way.
    """
    if root is None:
        raw = os.environ.get(ENV_ROOT, "").strip()
        if raw.lower() in _DISABLED:
            return None
        root = raw or Path.home() / ".cache" / "repro" / "artifacts"
    mb = env_number(ENV_MAX_MB, 0.0, float)
    return ArtifactStore(root, max_bytes=int(mb * 1024 * 1024) if mb > 0 else 0)


def verify_reads() -> bool:
    return os.environ.get(ENV_VERIFY, "").strip() == "1"


def content_key(*parts: str) -> str:
    """SHA-256 hex key over NUL-joined identity strings."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _shard_digit(key: str) -> str:
    d = key[:1].lower()
    return d if d in SHARD_DIGITS else "0"


def _unlink(path: Path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


# ---------------------------------------------------------------------------
# Entries
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class ArtifactInfo:
    """One published entry, as described by its sidecar."""

    namespace: str
    key: str
    path: Path
    bytes: int
    sha256: str

    @property
    def name(self) -> str:
        return self.path.name


class ArtifactWriter:
    """Incremental producer of one artifact.

    ``path`` is a temp file in the destination shard; write it with any
    tool (``zipfile``, ``np.savez``, plain bytes), then :meth:`commit`
    to publish atomically — or :meth:`abort` (or garbage collection) to
    leave no trace.  ``active`` is False when the store could not open
    a temp file (read-only disk); writes then become no-ops, matching
    the trace cache's never-fatal persistence discipline.
    """

    def __init__(self, store: "ArtifactStore", namespace: str, key: str,
                 suffix: str):
        self._store = store
        self.namespace = namespace
        self.key = key
        self.suffix = suffix
        self.path: Optional[Path] = None
        self._committed = False
        shard = store._shard_dir(key)
        try:
            shard.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=shard, prefix=".tmp-", suffix=suffix
            )
            os.close(fd)
            self.path = Path(tmp)
        except OSError:
            perf.add("artifacts.store_failed")
            self.path = None

    @property
    def active(self) -> bool:
        return self.path is not None and not self._committed

    def commit(self) -> Optional[ArtifactInfo]:
        """Publish the payload; None when the writer was inactive or
        publishing failed (the temp file is removed either way)."""
        if not self.active:
            self.abort()
            return None
        assert self.path is not None
        try:
            info = self._store._publish(
                self.namespace, self.key, self.path, self.suffix
            )
        except OSError:
            perf.add("artifacts.store_failed")
            self.abort()
            return None
        self._committed = True
        self.path = None
        return info

    def abort(self) -> None:
        if self.path is not None:
            _unlink(self.path)
            self.path = None

    def __del__(self):  # pragma: no cover - GC safety net
        self.abort()


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


class ArtifactStore:
    """Content-addressed, 16-shard artifact store rooted at ``root``
    with an LRU byte budget of ``max_bytes`` (0 = unbounded)."""

    def __init__(self, root: str | Path, *, max_bytes: int = 0):
        self.root = Path(root)
        self._max_bytes = max_bytes

    # -- paths --------------------------------------------------------------

    def _shard_dir(self, key: str) -> Path:
        return self.root / "shards" / _shard_digit(key)

    def _payload_path(self, namespace: str, key: str, suffix: str) -> Path:
        return self._shard_dir(key) / f"{namespace}--{key}{suffix}"

    def _meta_path(self, namespace: str, key: str) -> Path:
        return self._shard_dir(key) / f"{namespace}--{key}.meta.json"

    def max_bytes(self) -> int:
        return self._max_bytes

    @contextmanager
    def _write_lock(self):
        """Serialize publishes/evictions on ``store.lock`` (the
        :class:`~repro.obs.store.RunStore` discipline); lockless where
        flock is unsupported."""
        self.root.mkdir(parents=True, exist_ok=True)
        fh = open(self.root / "store.lock", "a+")
        try:
            try:
                import fcntl

                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            except (ImportError, OSError):
                pass
            yield
        finally:
            fh.close()  # releases the flock

    # -- writes -------------------------------------------------------------

    def writer(self, namespace: str, key: str,
               suffix: str = ".bin") -> ArtifactWriter:
        """An incremental writer whose :meth:`~ArtifactWriter.commit`
        publishes atomically under the store lock."""
        return ArtifactWriter(self, namespace, key, suffix)

    def put_bytes(self, namespace: str, key: str, data: bytes,
                  suffix: str = ".bin") -> Optional[ArtifactInfo]:
        """Publish a small artifact from memory."""
        w = self.writer(namespace, key, suffix)
        if not w.active:
            return None
        assert w.path is not None
        try:
            w.path.write_bytes(data)
        except OSError:
            perf.add("artifacts.store_failed")
            w.abort()
            return None
        return w.commit()

    def _publish(self, namespace: str, key: str, tmp: Path,
                 suffix: str) -> ArtifactInfo:
        """Atomically publish ``tmp`` as the entry's payload, write the
        sidecar, and enforce the byte budget — all under the store
        lock."""
        final = self._payload_path(namespace, key, suffix)
        size = tmp.stat().st_size
        digest = _file_sha256(tmp)
        meta = {
            "schema": META_SCHEMA,
            "namespace": namespace,
            "key": key,
            "file": final.name,
            "bytes": size,
            "sha256": digest,
        }
        with self._write_lock():
            os.replace(tmp, final)
            mpath = self._meta_path(namespace, key)
            fd, mtmp = tempfile.mkstemp(
                dir=final.parent, prefix=".tmp-", suffix=".meta.json"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(meta, fh)
            os.replace(mtmp, mpath)
            self._evict_over_budget(exempt=final)
        perf.add("artifacts.store")
        perf.add("artifacts.store_bytes", size)
        return ArtifactInfo(namespace, key, final, size, digest)

    # -- reads --------------------------------------------------------------

    def _load_meta(self, namespace: str, key: str) -> Optional[dict]:
        mpath = self._meta_path(namespace, key)
        try:
            meta = json.loads(mpath.read_bytes().decode())
        except (OSError, ValueError):
            return None
        if not isinstance(meta, dict) or meta.get("schema") != META_SCHEMA:
            return None
        return meta

    def get(self, namespace: str, key: str, *,
            verify: Optional[bool] = None) -> Optional[ArtifactInfo]:
        """Look an entry up, integrity-check it, refresh its recency.

        Returns None on miss; a corrupt entry (size mismatch, bad
        digest under full verification, missing payload) is dropped
        with a logged warning and reported as a miss.
        """
        meta = self._load_meta(namespace, key)
        if meta is None:
            perf.add("artifacts.miss")
            return None
        path = self._shard_dir(key) / str(meta.get("file", ""))
        problem = None
        try:
            size = path.stat().st_size
        except OSError:
            problem = "payload missing"
            size = -1
        if problem is None and size != meta.get("bytes"):
            problem = f"size {size} != recorded {meta.get('bytes')}"
        verify = verify_reads() if verify is None else verify
        if problem is None and verify:
            if _file_sha256(path) != meta.get("sha256"):
                problem = "sha256 mismatch"
        if problem is not None:
            perf.add("artifacts.corrupt")
            log.warning(
                "artifact %s/%s… is unusable (%s); dropping it",
                namespace, key[:12], problem,
            )
            self._drop_entry(namespace, key, meta)
            return None
        perf.add("artifacts.hit")
        try:
            os.utime(path, None)
        except OSError:
            pass
        return ArtifactInfo(
            namespace, key, path, int(meta["bytes"]), str(meta["sha256"])
        )

    def read_bytes(self, namespace: str, key: str) -> Optional[bytes]:
        info = self.get(namespace, key)
        if info is None:
            return None
        try:
            return info.path.read_bytes()
        except OSError:
            return None

    def _drop_entry(self, namespace: str, key: str,
                    meta: Optional[dict] = None) -> None:
        meta = meta if meta is not None else self._load_meta(namespace, key)
        if meta is not None and meta.get("file"):
            _unlink(self._shard_dir(key) / str(meta["file"]))
        _unlink(self._meta_path(namespace, key))

    def delete(self, namespace: str, key: str) -> None:
        with self._write_lock():
            self._drop_entry(namespace, key)

    # -- enumeration / stats ------------------------------------------------

    def entries(self, namespace: Optional[str] = None) -> Iterator[ArtifactInfo]:
        """Every well-formed entry (optionally one namespace)."""
        shards = self.root / "shards"
        if not shards.exists():
            return
        for mpath in sorted(shards.glob("*/*.meta.json")):
            try:
                meta = json.loads(mpath.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if not isinstance(meta, dict) or "key" not in meta:
                continue
            if namespace is not None and meta.get("namespace") != namespace:
                continue
            path = mpath.parent / str(meta.get("file", ""))
            yield ArtifactInfo(
                str(meta.get("namespace", "")), str(meta["key"]), path,
                int(meta.get("bytes", 0)), str(meta.get("sha256", "")),
            )

    def stats(self) -> dict:
        """``{"entries", "bytes", "namespaces": {ns: {...}}}``."""
        out: dict = {"root": str(self.root), "entries": 0, "bytes": 0,
                     "namespaces": {}}
        for info in self.entries():
            out["entries"] += 1
            out["bytes"] += info.bytes
            ns = out["namespaces"].setdefault(
                info.namespace, {"entries": 0, "bytes": 0}
            )
            ns["entries"] += 1
            ns["bytes"] += info.bytes
        budget = self.max_bytes()
        out["budget_bytes"] = budget or None
        return out

    # -- eviction -----------------------------------------------------------

    def _evict_over_budget(self, exempt: Optional[Path] = None) -> list[str]:
        """LRU-evict until the store fits its budget (caller holds the
        lock).  The just-published payload is exempt — a publish must
        never evict its own entry before first use."""
        budget = self.max_bytes()
        if not budget:
            return []
        aged: list[tuple[float, int, ArtifactInfo]] = []
        total = 0
        for info in self.entries():
            try:
                st = info.path.stat()
            except OSError:
                continue
            aged.append((st.st_mtime, st.st_size, info))
            total += st.st_size
        if total <= budget:
            return []
        evicted: list[str] = []
        aged.sort(key=lambda t: (t[0], t[2].name))  # LRU first
        for _mtime, size, info in aged:
            if total <= budget:
                break
            if exempt is not None and info.path == exempt:
                continue
            _unlink(info.path)
            _unlink(self._meta_path(info.namespace, info.key))
            total -= size
            evicted.append(info.name)
            perf.add("artifacts.evicted")
            perf.add("artifacts.evicted_bytes", size)
        if evicted:
            log.info(
                "artifact store over budget (%d MB): evicted %d LRU "
                "entries (%s)", budget // (1024 * 1024), len(evicted),
                ", ".join(evicted[:8]),
            )
        return evicted

    def evict_to_budget(self) -> list[str]:
        """Public entry point: one locked eviction sweep."""
        with self._write_lock():
            return self._evict_over_budget()

    # -- maintenance --------------------------------------------------------

    def prune(self, namespace: Optional[str] = None) -> int:
        """Delete every entry (optionally one namespace); returns the
        number removed."""
        n = 0
        with self._write_lock():
            for info in list(self.entries(namespace)):
                _unlink(info.path)
                _unlink(self._meta_path(info.namespace, info.key))
                n += 1
        return n

    def fsck(self) -> dict:
        """Full integrity scan: re-hash every payload, drop corrupt or
        orphaned entries.  Returns ``{"checked", "dropped": [names]}``."""
        checked = 0
        dropped: list[str] = []
        with self._write_lock():
            for info in list(self.entries()):
                checked += 1
                ok = True
                try:
                    ok = (info.path.stat().st_size == info.bytes
                          and _file_sha256(info.path) == info.sha256)
                except OSError:
                    ok = False
                if not ok:
                    self._drop_entry(info.namespace, info.key)
                    dropped.append(info.name)
        if dropped:
            log.warning(
                "artifact fsck dropped %d corrupt entries (%s)",
                len(dropped), ", ".join(dropped[:8]),
            )
        return {"checked": checked, "dropped": dropped}
