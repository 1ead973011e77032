"""Persistent content-addressed store of semantic execution traces.

The launcher's central efficiency trick — execute each *semantic* style
combination once, re-time it for every mapping combination — previously
stopped at the process boundary: the trace cache lived in memory, so every
sweep, every worker process, and every re-run re-executed (and
re-verified) the same kernels from scratch.  This store extends the trick
across processes and sessions: a trace is serialized once, keyed by
everything that determines its content, and any later launcher reassembles
it *bit-identically* with zero kernel executions.

The key of one entry is the tuple

    (graph content fingerprint, algorithm, semantic axes,
     kernel-code fingerprint, source vertex)

— precisely the inputs of ``kernel.run``.  The graph fingerprint hashes
the CSR arrays (:meth:`repro.graph.csr.CSRGraph.fingerprint`), so renamed
or rebuilt-but-identical graphs hit and *changed content misses*; the
kernel-code fingerprint hashes every source file the executed trace can
depend on, so any kernel edit invalidates exactly the stale entries; the
source vertex covers the one per-launcher seed (BFS/SSSP root).

Entries are single flat files: a ``repro-trace-v3 <sha256>`` header line,
then one deflate stream (the checksum covers its compressed bytes)
holding, in order,

* an 8-byte little-endian length and a JSON header: the key, the
  metadata, the trace scalars, the profile scalars as columns (one list
  per field, plus ``has_inner``; a launch's ``inner`` length is its
  ``n_items``), the values dtype and shape, and the ``inner_dtype``.
  Python's JSON round-trips floats losslessly;
* the ``values`` bytes, starting on a 16-byte boundary;
* every launch's ``inner`` array, concatenated, starting on the next
  16-byte boundary, in the narrowest little-endian unsigned dtype
  (``|u1``, ``<u2`` or ``<u4``) that holds the entry's largest trip
  count — ``<i4`` if any is negative.  Trip counts are mostly below
  256, so this buffer is a quarter of its int32 size and deflates in a
  fraction of the time.

A load checks the checksum, inflates once into a ``bytearray`` (so the
arrays are writable), parses the header with one ``json.loads``, slices
``values`` out of the body with ``np.frombuffer`` and widens the whole
``inner`` buffer to int32 with one ``astype`` before slicing each
launch's array out of it — no per-array container parsing, and every
consumer sees the same int32 arrays the kernels produced.  Writes are
atomic (``tmp`` + rename); a truncated, bit-flipped, unparseable or
inconsistent entry — including one in an older format — is
*quarantined* on read: moved aside with a stderr warning, never
silently deleted, and never able to crash a sweep.  Entry
files keep the ``trace-<key>.npz`` name of the earlier numpy-archive
format, so stores written by older versions are found, quarantined and
reclaimed by ``repro cache gc`` rather than left orphaned.

Resolution order for whether a launcher uses the store:

* ``$REPRO_TRACE_CACHE=0`` (or empty) — hard kill switch, wins over all;
* ``$REPRO_TRACE_CACHE=/path`` — use that directory;
* callers that opt in (the sweep paths; ``SweepConfig.trace_cache``,
  default on) — use ``~/.cache/repro/traces``;
* everything else (a bare ``Launcher()``) — off unless the environment
  opts in.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import sys
import zlib
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..graph.csr import CSRGraph
from ..kernels.base import KernelResult
from ..machine.trace import ExecutionTrace, IterationProfile
from ..runtime.locking import store_lock
from ..styles.spec import SemanticKey

__all__ = [
    "TRACE_CACHE_ENV",
    "TraceStore",
    "TraceStoreStats",
    "default_trace_dir",
    "resolve_trace_store",
    "kernel_code_fingerprint",
    "trace_digest",
]

#: Trace-store directory override / kill switch (``0``/empty disables).
TRACE_CACHE_ENV = "REPRO_TRACE_CACHE"

_MAGIC = b"repro-trace-v3"

#: IterationProfile fields serialized as JSON columns (everything but the
#: numpy ``inner`` array).  Loads pass them positionally, around ``inner``.
_PROFILE_SCALARS = tuple(
    f.name for f in fields(IterationProfile) if f.name != "inner"
)
assert [f.name for f in fields(IterationProfile)][:2] == ["n_items", "inner"]

#: Length prefix of the JSON header inside the inflated body.
_HEADER_LENGTH = struct.Struct("<Q")
#: Arrays start on this boundary inside the inflated body.
_ALIGN = 16
#: Stored ``inner`` dtypes by header name, narrowest first; an entry uses
#: the first unsigned one that holds its largest trip count, or ``<i4``
#: (what ``IterationProfile.inner`` holds in memory) if any is negative.
_INNER_DTYPES = {
    dtype.str: dtype for dtype in map(np.dtype, ("|u1", "<u2", "<u4", "<i4"))
}
#: zlib level of every entry's deflate stream.  On the 42 narrowed
#: entries of perfbench's sweep-cold grid (11.6 MB of bodies) level 1
#: deflates in 0.11 s to 2.59 MB, level 6 in 0.46 s to 1.74 MB; inflating
#: them takes 0.03-0.05 s at either level.
_DEFLATE_LEVEL = 1

_TRACE_SCALARS = ("n_edges", "n_vertices", "iterations", "converged", "label")


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
_kernel_fp_memo: Optional[str] = None


def kernel_code_fingerprint() -> str:
    """SHA-256 over every source file an execution trace depends on.

    Narrower than :func:`repro.bench.storage.code_fingerprint` (which
    hashes the whole package and guards *results*): a trace is determined
    by the kernels, the trace/profile model, and the verification oracles
    — editing a figure renderer must not invalidate stored traces.
    """
    global _kernel_fp_memo
    if _kernel_fp_memo is None:
        root = Path(__file__).resolve().parent.parent
        paths = sorted((root / "kernels").rglob("*.py"))
        paths.append(root / "machine" / "trace.py")
        paths.append(root / "runtime" / "verify.py")
        digest = hashlib.sha256()
        for path in paths:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _kernel_fp_memo = digest.hexdigest()
    return _kernel_fp_memo


def trace_digest(trace: ExecutionTrace) -> str:
    """Canonical SHA-256 of a trace's full content.

    Two traces with equal digests are byte-identical for every consumer
    (timing models, sanitizer, inspection); used by tests and ``repro
    cache verify`` to prove stored traces reassemble exactly.
    """
    digest = hashlib.sha256()
    meta = [_scalars_of(trace, _TRACE_SCALARS)]
    for profile in trace.profiles:
        meta.append(_scalars_of(profile, _PROFILE_SCALARS))
        digest.update(b"i" if profile.inner is not None else b"-")
        if profile.inner is not None:
            digest.update(profile.inner.tobytes())
    digest.update(json.dumps(meta, sort_keys=True).encode())
    return digest.hexdigest()


def _scalar(value):
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    return value


def _scalars_of(obj, names: Tuple[str, ...]) -> Dict[str, object]:
    return {name: _scalar(getattr(obj, name)) for name in names}


def _narrow_inner(profiles: List[IterationProfile]) -> np.ndarray:
    """Every launch's ``inner`` array, concatenated, in the narrowest
    stored dtype that holds all of them."""
    inners = [p.inner for p in profiles if p.inner is not None]
    if not inners:
        return np.zeros(0, np.uint8)
    inner = np.concatenate(inners, dtype=np.int32)
    if inner.min(initial=0) < 0:
        return inner.astype("<i4", copy=False)
    top = inner.max(initial=0)
    return inner.astype(
        next(d for d in _INNER_DTYPES.values() if top <= np.iinfo(d).max)
    )


#: Per-process memo of graph-property payloads, keyed by graph content
#: fingerprint: the diameter estimate costs a few BFS sweeps, and one
#: sweep saves many semantic traces of the same graph.
_graph_props_memo: Dict[str, Dict[str, object]] = {}


def _graph_properties_payload(graph: CSRGraph) -> Dict[str, object]:
    fp = graph.fingerprint()
    payload = _graph_props_memo.get(fp)
    if payload is None:
        from ..graph.properties import analyze

        payload = analyze(graph).to_dict()
        _graph_props_memo[fp] = payload
    return payload


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------
def default_trace_dir() -> Path:
    """``~/.cache/repro/traces`` (respecting ``$XDG_CACHE_HOME``)."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "traces"


def resolve_trace_store(
    enabled: Optional[bool] = None,
    directory: Optional[Union[str, Path]] = None,
) -> Optional["TraceStore"]:
    """The store an execution path should use, or ``None`` for disabled.

    ``enabled`` is the caller's default (``True`` for sweep paths,
    ``None`` for a bare launcher, ``False`` for an explicit opt-out);
    ``$REPRO_TRACE_CACHE`` overrides in both directions as described in
    the module docstring.
    """
    env = os.environ.get(TRACE_CACHE_ENV)
    if env is not None and env.strip() in ("", "0"):
        return None
    if enabled is False:
        return None
    if directory is not None:
        return TraceStore(directory)
    if env:
        return TraceStore(env)
    if enabled:
        return TraceStore(default_trace_dir())
    return None


@dataclass
class TraceStoreStats:
    """What ``repro cache stats`` reports."""

    directory: Path
    entries: int = 0
    total_bytes: int = 0
    stale: int = 0  #: entries whose kernel fingerprint is no longer current
    unverified: int = 0
    quarantined: int = 0
    by_algorithm: Dict[str, int] = None

    def render(self) -> str:
        lines = [
            f"trace store: {self.directory}",
            f"  entries:     {self.entries} ({self.total_bytes / 1e6:.2f} MB)",
            f"  stale:       {self.stale} (kernel code changed since stored)",
            f"  unverified:  {self.unverified}",
            f"  quarantined: {self.quarantined}",
        ]
        if self.by_algorithm:
            per = ", ".join(
                f"{k}: {v}" for k, v in sorted(self.by_algorithm.items())
            )
            lines.append(f"  by algorithm: {per}")
        return "\n".join(lines)


class TraceStore:
    """Directory of checksummed, deflated, content-addressed traces."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------
    @staticmethod
    def _semantic_payload(semantic: SemanticKey) -> Dict[str, Optional[str]]:
        return {
            f.name: (None if getattr(semantic, f.name) is None
                     else getattr(semantic, f.name).value)
            for f in fields(SemanticKey)
        }

    @classmethod
    def key_payload(
        cls, graph_fp: str, semantic: SemanticKey, source: int
    ) -> Dict[str, object]:
        return {
            "graph": graph_fp,
            "semantic": cls._semantic_payload(semantic),
            "kernel_code": kernel_code_fingerprint(),
            "source": int(source),
        }

    @classmethod
    def entry_key(
        cls, graph_fp: str, semantic: SemanticKey, source: int
    ) -> str:
        payload = json.dumps(
            cls.key_payload(graph_fp, semantic, source), sort_keys=True
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def entry_path(
        self, graph: CSRGraph, semantic: SemanticKey, source: int
    ) -> Path:
        key = self.entry_key(graph.fingerprint(), semantic, source)
        return self.directory / f"trace-{key}.npz"

    # ------------------------------------------------------------------
    # Save / load
    # ------------------------------------------------------------------
    def save(
        self,
        graph: CSRGraph,
        semantic: SemanticKey,
        source: int,
        result: KernelResult,
        *,
        verified: bool,
    ) -> Path:
        """Atomically persist one semantic execution (idempotent)."""
        trace = result.trace
        values = np.asarray(result.values, order="C")
        inner = _narrow_inner(trace.profiles)
        columns = {
            name: [_scalar(getattr(p, name)) for p in trace.profiles]
            for name in _PROFILE_SCALARS
        }
        columns["has_inner"] = [p.inner is not None for p in trace.profiles]
        header = {
            "key": self.key_payload(graph.fingerprint(), semantic, source),
            "graph_name": graph.name,
            "algorithm": semantic.algorithm.value,
            # Graph properties ride along (additively — not part of the
            # key) so the training-set miner can turn a stored trace into
            # feature rows without rebuilding the graph.
            "graph_properties": _graph_properties_payload(graph),
            "verified": bool(verified),
            "trace": _scalars_of(trace, _TRACE_SCALARS),
            "profiles": columns,
            "values_dtype": values.dtype.str,
            "values_shape": list(values.shape),
            "inner_dtype": inner.dtype.str,
        }
        text = json.dumps(header, sort_keys=True).encode("ascii")
        # Space-pad the JSON (still valid JSON) so the values start aligned.
        text += b" " * (-(_HEADER_LENGTH.size + len(text)) % _ALIGN)
        deflate = zlib.compressobj(_DEFLATE_LEVEL)
        chunks = [
            deflate.compress(_HEADER_LENGTH.pack(len(text))),
            deflate.compress(text),
            deflate.compress(values),
            deflate.compress(bytes(-values.nbytes % _ALIGN)),
            deflate.compress(inner),
            deflate.flush(),
        ]
        checksum = hashlib.sha256()
        for chunk in chunks:
            checksum.update(chunk)
        path = self.entry_path(graph, semantic, source)
        self.directory.mkdir(parents=True, exist_ok=True)
        # The advisory store lock orders this write against a concurrent
        # GC in another process (which could otherwise unlink the tmp file
        # or the just-renamed entry mid-cycle); single-process atomicity
        # comes from the tmp + rename, not the lock.
        with store_lock(self.directory):
            tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
            with open(tmp, "wb") as handle:
                handle.write(_MAGIC + b" ")
                handle.write(checksum.hexdigest().encode("ascii") + b"\n")
                handle.writelines(chunks)
            os.replace(tmp, path)
        self.stores += 1
        return path

    def load(
        self,
        graph: CSRGraph,
        semantic: SemanticKey,
        source: int,
        *,
        require_verified: bool = True,
    ) -> Optional[KernelResult]:
        """Reassemble one stored execution, or ``None`` on any miss.

        A corrupt entry (bad checksum, truncated body, wrong key) is
        quarantined and reads as a miss; an entry stored without
        verification is a miss for a verifying launcher.
        """
        path = self.entry_path(graph, semantic, source)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None
        try:
            meta, body, offset = self._decode(blob)
            expected = self.key_payload(graph.fingerprint(), semantic, source)
            if meta["key"] != expected:
                raise ValueError("entry key does not match its address")
            result = self._reassemble(meta, body, offset)
        except Exception as exc:
            self._quarantine(path, exc)
            self.misses += 1
            return None
        if require_verified and not meta["verified"]:
            self.misses += 1
            return None
        self.hits += 1
        return result

    # ------------------------------------------------------------------
    @staticmethod
    def _decode(blob: bytes) -> Tuple[dict, bytearray, int]:
        """Check and inflate one entry: ``(header, body, offset)``, where
        the body's arrays start at ``offset``."""
        header, sep, deflated = blob.partition(b"\n")
        if not sep or not header.startswith(_MAGIC + b" "):
            raise ValueError("missing trace-store header")
        checksum = header.split(b" ", 1)[1]
        if hashlib.sha256(deflated).hexdigest().encode("ascii") != checksum:
            raise ValueError("checksum mismatch (truncated or corrupt entry)")
        body = bytearray(zlib.decompress(deflated))
        (length,) = _HEADER_LENGTH.unpack_from(body)
        offset = _HEADER_LENGTH.size + length
        if offset > len(body):
            raise ValueError("entry header runs past the body")
        meta = json.loads(body[_HEADER_LENGTH.size:offset])
        return meta, body, offset

    @staticmethod
    def _reassemble(meta: dict, body: bytearray, offset: int) -> KernelResult:
        dtype = np.dtype(meta["values_dtype"])
        shape = tuple(meta["values_shape"])
        inner_dtype = _INNER_DTYPES.get(meta["inner_dtype"])
        if inner_dtype is None:
            raise ValueError(f"unsupported inner dtype {meta['inner_dtype']!r}")
        columns = meta["profiles"]
        has_inner = columns["has_inner"]
        if any(len(columns[name]) != len(has_inner)
               for name in _PROFILE_SCALARS):
            raise ValueError("profile columns differ in length")
        count = math.prod(shape)
        lengths = [n for n, has in zip(columns["n_items"], has_inner) if has]
        if min(shape, default=0) < 0 or min(lengths, default=0) < 0:
            raise ValueError("negative array length in entry header")
        inner_start = offset + count * dtype.itemsize
        inner_start += -inner_start % _ALIGN
        inner_total = sum(lengths)
        if inner_start + inner_total * inner_dtype.itemsize != len(body):
            raise ValueError("entry body size does not match its header")
        values = np.frombuffer(body, dtype, count, offset).reshape(shape)
        inner = np.frombuffer(
            body, inner_dtype, inner_total, inner_start
        ).astype(np.int32, copy=False)
        profiles = []
        position = 0
        rows = zip(*(columns[name] for name in _PROFILE_SCALARS))
        for (n_items, *rest), has in zip(rows, has_inner):
            if has:
                end = position + n_items
                launch_inner = inner[position:end]
                position = end
            else:
                launch_inner = None
            profiles.append(IterationProfile(n_items, launch_inner, *rest))
        trace = ExecutionTrace(profiles=profiles, **meta["trace"])
        return KernelResult(values=values, trace=trace)

    def _quarantine(self, path: Path, reason: Exception) -> None:
        quarantine = self.directory / "quarantine"
        dest = quarantine / path.name
        try:
            with store_lock(self.directory):
                quarantine.mkdir(parents=True, exist_ok=True)
                os.replace(path, dest)
        except OSError:
            return
        print(
            f"warning: corrupt trace-store entry quarantined to {dest}: "
            f"{reason}",
            file=sys.stderr,
        )

    # ------------------------------------------------------------------
    # Maintenance (the `repro cache` subcommands)
    # ------------------------------------------------------------------
    def _entries(self) -> List[Path]:
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("trace-*.npz"))

    def iter_entries(self):
        """Yield ``(meta, KernelResult)`` for every decodable entry.

        Undecodable entries are silently skipped (``verify``/``gc`` own
        quarantining); callers filter on the metadata — the training-set
        miner wants current-kernel-code, verified entries that carry
        ``graph_properties``.
        """
        for path in self._entries():
            try:
                meta, body, offset = self._decode(path.read_bytes())
                result = self._reassemble(meta, body, offset)
            except Exception:
                continue
            yield meta, result

    def stats(self) -> TraceStoreStats:
        """Scan the store (reads every entry's metadata)."""
        stats = TraceStoreStats(directory=self.directory, by_algorithm={})
        current = kernel_code_fingerprint()
        quarantine = self.directory / "quarantine"
        if quarantine.is_dir():
            stats.quarantined = sum(1 for _ in quarantine.iterdir())
        for path in self._entries():
            stats.entries += 1
            stats.total_bytes += path.stat().st_size
            try:
                meta, _, _ = self._decode(path.read_bytes())
            except Exception:
                continue  # verify/gc deal with corrupt entries
            algorithm = meta.get("algorithm", "?")
            stats.by_algorithm[algorithm] = (
                stats.by_algorithm.get(algorithm, 0) + 1
            )
            if meta["key"].get("kernel_code") != current:
                stats.stale += 1
            if not meta.get("verified", False):
                stats.unverified += 1
        return stats

    def gc(self, *, everything: bool = False) -> Tuple[int, int]:
        """Drop stale entries (kernel code changed) and the quarantine.

        ``everything=True`` clears the whole store.  Returns
        ``(entries_removed, bytes_reclaimed)``.  Holds the store's
        advisory lock throughout, so two servers (or a server and a
        ``repro cache gc``) on one machine cannot double-run GC or unlink
        an entry out from under a concurrent writer's tmp/rename cycle.
        """
        current = kernel_code_fingerprint()
        with store_lock(self.directory):
            return self._gc_locked(everything, current)

    def _gc_locked(self, everything: bool, current: str) -> Tuple[int, int]:
        removed = 0
        reclaimed = 0
        for path in self._entries():
            drop = everything
            if not drop:
                try:
                    meta, _, _ = self._decode(path.read_bytes())
                    drop = meta["key"].get("kernel_code") != current
                except Exception:
                    drop = True  # unreadable: gc reclaims it
            if drop:
                size = path.stat().st_size
                try:
                    path.unlink()
                except OSError:
                    continue
                removed += 1
                reclaimed += size
        quarantine = self.directory / "quarantine"
        if quarantine.is_dir():
            for path in quarantine.iterdir():
                size = path.stat().st_size
                try:
                    path.unlink()
                except OSError:
                    continue
                removed += 1
                reclaimed += size
        return removed, reclaimed

    def verify_entries(self) -> Tuple[int, List[Tuple[Path, str]]]:
        """Fully decode every entry; quarantine the ones that fail.

        Returns ``(ok_count, [(quarantined_path, reason), ...])``.
        """
        ok = 0
        bad: List[Tuple[Path, str]] = []
        for path in self._entries():
            try:
                meta, body, offset = self._decode(path.read_bytes())
                result = self._reassemble(meta, body, offset)
                trace_digest(result.trace)  # full content walk
            except Exception as exc:
                reason = f"{type(exc).__name__}: {exc}"
                self._quarantine(path, exc)
                bad.append((self.directory / "quarantine" / path.name, reason))
                continue
            ok += 1
        return ok, bad

    def __len__(self) -> int:
        return len(self._entries())

    def __bool__(self) -> bool:
        # A store object is always "on" — an *empty* store must not read
        # as "no store" in `store or ...` / `if store:` expressions.
        return True
