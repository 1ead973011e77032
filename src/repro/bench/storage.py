"""Persist sweep results across sessions.

A full-study sweep takes minutes; analyses are instant.  These helpers
save a :class:`StudyResults` to disk and load it back, so figure
regeneration, ad-hoc queries and notebook work don't re-run the sweep.

Graphs are not serialized (they can be megabytes and are deterministic to
rebuild); the save records each input's name and the requested scale, and
the loader rebuilds them through the dataset registry on demand.

On top of the explicit save/load pair sits a *content-addressed sweep
cache*: :func:`cached_sweep` keys a sweep by its full configuration (axes,
devices, inputs, scale) plus a fingerprint of the simulator's source code,
so a cache entry can never outlive the code that produced it.  The CLI's
``table``/``figure`` commands run the sweep at most once per (config,
code) pair.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sys
from pathlib import Path
from typing import Callable, Optional, Union

from ..graph.datasets import DATASETS, EXTRA_DATASETS
from ..runtime.locking import store_lock
from .harness import StudyResults, SweepConfig

__all__ = [
    "save_results",
    "load_results",
    "code_fingerprint",
    "sweep_cache_key",
    "sweep_cache_path",
    "default_cache_dir",
    "cached_sweep",
]

PathLike = Union[str, Path]

_MAGIC = "repro-study-results-v1"

#: Current on-disk format: a text header line with the format name and a
#: SHA-256 checksum of the pickled payload, then the payload itself.  A
#: truncated or bit-flipped file fails the checksum with a clear error
#: instead of a pickle traceback (or, worse, silently wrong data).
_MAGIC_V2 = b"repro-study-results-v2"

#: Environment override for the sweep-cache directory.
CACHE_DIR_ENV = "REPRO_SWEEP_CACHE"


def save_results(
    results: StudyResults, path: PathLike, *, scale: str = "default"
) -> Path:
    """Write the sweep's runs (not the graphs) to ``path``.

    ``scale`` is recorded so :func:`load_results` can rebuild the inputs.
    """
    path = Path(path)
    payload = {
        "magic": _MAGIC,
        "scale": scale,
        "graph_names": list(results.graphs),
        "runs": results.runs,
        "failures": results.failures,
    }
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    header = _MAGIC_V2 + b" " + hashlib.sha256(body).hexdigest().encode("ascii")
    # tmp + rename: a crash mid-write leaves the old file (or nothing),
    # never a truncated one under the real name.
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    tmp.write_bytes(header + b"\n" + body)
    os.replace(tmp, path)
    return path


def load_results(
    path: PathLike, *, rebuild_graphs: bool = True
) -> StudyResults:
    """Load a saved sweep; optionally rebuild its input graphs.

    Rebuilding uses the dataset registry (standard and extra inputs); runs
    over custom graphs load fine with ``rebuild_graphs=False`` but the
    analyses that need graph properties (correlations, baselines) will
    need the graphs supplied manually.
    """
    path = Path(path)
    blob = path.read_bytes()
    if blob.startswith(_MAGIC_V2):
        header, sep, body = blob.partition(b"\n")
        checksum = header.split(b" ", 1)[1] if b" " in header else b""
        if not sep or hashlib.sha256(body).hexdigest().encode("ascii") != checksum:
            raise ValueError(
                f"{path} is truncated or corrupt (checksum mismatch)"
            )
        payload = pickle.loads(body)
    else:
        # Legacy v1 entries: a bare pickle, no integrity check.
        try:
            payload = pickle.loads(blob)
        except Exception as exc:
            raise ValueError(
                f"{path} is not a saved repro study result ({exc})"
            ) from None
    if not isinstance(payload, dict) or payload.get("magic") != _MAGIC:
        raise ValueError(f"{path} is not a saved repro study result")
    results = StudyResults()
    for run in payload["runs"]:
        results.add(run)
    for failure in payload.get("failures", ()):
        results.add_failure(failure)
    if rebuild_graphs:
        scale = payload["scale"]
        registry = {**DATASETS, **EXTRA_DATASETS}
        for name in payload["graph_names"]:
            spec = registry.get(name)
            if spec is not None and scale in spec.builders:
                results.graphs[name] = spec.build(scale)
    return results


# ----------------------------------------------------------------------
# Content-addressed sweep cache
# ----------------------------------------------------------------------
_fingerprint_memo: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over every source file of the ``repro`` package.

    Cached results are only valid for the exact simulator that produced
    them; folding the code's content into the cache key makes any source
    edit an automatic cache invalidation.  Hashing the installed tree
    (~60 files) takes single-digit milliseconds and is memoized per
    process.
    """
    global _fingerprint_memo
    if _fingerprint_memo is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _fingerprint_memo = digest.hexdigest()
    return _fingerprint_memo


def sweep_cache_key(config: SweepConfig) -> str:
    """Content address of one sweep: config + scale + code fingerprint
    (``config.predict`` excluded: pruned sweeps are never cached)."""
    payload = {
        "code": code_fingerprint(),
        "scale": config.scale,
        "models": [m.value for m in config.models],
        "algorithms": [a.value for a in config.algorithms],
        "gpus": list(config.gpu_names),
        "cpus": list(config.cpu_names),
        "graphs": None if config.graphs is None else list(config.graphs),
        "verify": config.verify,
        "max_footprint_bytes": config.max_footprint_bytes,
    }
    serialized = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(serialized).hexdigest()


def default_cache_dir() -> Path:
    """``$REPRO_SWEEP_CACHE``, else ``~/.cache/repro/sweeps``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "sweeps"


def sweep_cache_path(
    config: SweepConfig, cache_dir: Optional[PathLike] = None
) -> Path:
    """Where the cache entry for this sweep lives (whether or not it exists)."""
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return directory / f"sweep-{sweep_cache_key(config)}.pkl"


def cached_sweep(
    config: SweepConfig = SweepConfig(),
    *,
    cache_dir: Optional[PathLike] = None,
    refresh: bool = False,
    runner: Optional[Callable[[SweepConfig], StudyResults]] = None,
    workers: Optional[int] = 1,
) -> StudyResults:
    """The sweep's results, loading the on-disk cache when it is warm.

    A hit requires the same configuration *and* the same simulator source
    (see :func:`sweep_cache_key`) — no kernel is re-executed.  On a miss
    the sweep runs (parallel when ``workers`` says so) and the entry is
    written atomically, so concurrent processes at worst duplicate work,
    never corrupt the cache.  ``refresh=True`` bypasses the lookup but
    still refreshes the entry; ``runner`` overrides how the sweep is
    executed (used by tests).  A pruned sweep (``config.predict``)
    bypasses the cache: its rows depend on the predictor artifact's
    contents, which the key cannot see.
    """
    path = sweep_cache_path(config, cache_dir)
    cacheable = config.predict is None
    if cacheable and not refresh and path.exists():
        try:
            return load_results(path)
        except (ValueError, OSError, pickle.PickleError, EOFError) as exc:
            # Unreadable or corrupt entry: quarantine it (never silently
            # discard — the file is evidence) and rebuild.
            _quarantine_cache_entry(path, exc)
    if runner is None:
        from .parallel import run_sweep_parallel

        results = run_sweep_parallel(config, workers=workers)
    else:
        results = runner(config)
    # A sweep with quarantined blocks is incomplete for reasons that may
    # be transient (a killed worker, a timeout under load); caching it
    # would pin the gap.  Per-variant failures are deterministic kernel
    # bugs and cache fine.
    if not cacheable or any(f.stage == "block" for f in results.failures):
        return results
    path.parent.mkdir(parents=True, exist_ok=True)
    # Advisory cache-directory lock: concurrent sweeps (or servers) on one
    # machine may duplicate work, but their tmp/rename cycles and
    # quarantine moves must never interleave.
    with store_lock(path.parent):
        save_results(results, path, scale=config.scale)
    return results


def _quarantine_cache_entry(path: Path, reason: Exception) -> None:
    """Move an unreadable cache file into a ``quarantine/`` sibling dir."""
    quarantine = path.parent / "quarantine"
    dest = quarantine / path.name
    try:
        with store_lock(path.parent):
            quarantine.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
    except OSError:
        return  # cannot move it; the rebuild below overwrites it anyway
    print(
        f"warning: unreadable sweep-cache entry moved to {dest}: {reason}",
        file=sys.stderr,
    )
