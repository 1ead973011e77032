"""Tests of the persistent trace store (repro.bench.tracestore).

The store's contract has two halves the tests pin down separately:

* a **hit** must reassemble the stored execution *bit-identically* —
  same values array, same trace digest, same downstream timings — with
  zero kernel executions;
* everything that could make a stored trace wrong — kernel code edits,
  different graph content, a different source vertex, corruption, an
  unverified entry read by a verifying launcher — must read as a clean
  *miss*, never a wrong answer and never a crash.
"""

import dataclasses
import hashlib
import io
import json
import os
import struct
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.bench.tracestore as tracestore
from repro.bench import SweepConfig, run_sweep, run_sweep_parallel
from repro.bench.tracestore import (
    TRACE_CACHE_ENV,
    TraceStore,
    default_trace_dir,
    kernel_code_fingerprint,
    resolve_trace_store,
    trace_digest,
)
from repro.cli.main import main
from repro.graph import load_dataset
from repro.kernels.base import KernelResult
from repro.machine.devices import RTX_3090
from repro.machine.trace import ExecutionTrace, IterationProfile
from repro.runtime import Launcher
from repro.styles import Algorithm, Model, enumerate_specs

SPEC = enumerate_specs(Algorithm.SSSP, Model.CUDA)[0]


@pytest.fixture()
def graph():
    return load_dataset("soc-LiveJournal1", "tiny")


def warm_store(tmp_path, graph, **launcher_kwargs):
    """Execute SPEC once into a fresh store; returns (store, run, result)."""
    store = TraceStore(tmp_path)
    launcher = Launcher(trace_store=store, **launcher_kwargs)
    run = launcher.run(SPEC, graph, RTX_3090)
    result = launcher.execute_semantic(SPEC, graph)
    return store, run, result


def sealed(deflated: bytes) -> bytes:
    """A v3 entry file around ``deflated``, with a matching checksum."""
    checksum = hashlib.sha256(deflated).hexdigest().encode("ascii")
    return b"repro-trace-v3 " + checksum + b"\n" + deflated


def encode_body(meta: dict, arrays: bytes) -> bytearray:
    """An inflated entry body: length-prefixed JSON header, space-padded so
    ``arrays`` (values, gap, inner) start on a 16-byte boundary."""
    text = json.dumps(meta, sort_keys=True).encode("ascii")
    text += b" " * (-(8 + len(text)) % 16)
    return bytearray(struct.pack("<Q", len(text)) + text + arrays)


def rewrite_body(path, mutate, *, reseal=True):
    """Inflate a stored entry, apply ``mutate(body, offset)`` (``offset``:
    where the arrays start) and deflate it back.  ``reseal`` recomputes
    the checksum so the damage reaches the decoder; otherwise the stored
    checksum is kept and must catch it."""
    header, _, deflated = path.read_bytes().partition(b"\n")
    body = bytearray(zlib.decompress(deflated))
    (length,) = struct.unpack_from("<Q", body)
    deflated = zlib.compress(bytes(mutate(body, 8 + length)))
    if reseal:
        path.write_bytes(sealed(deflated))
    else:
        path.write_bytes(header + b"\n" + deflated)


class TestResolve:
    def test_kill_switch_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_CACHE_ENV, "0")
        assert resolve_trace_store(enabled=True) is None
        assert resolve_trace_store(directory=tmp_path) is None

    def test_env_path_enables_bare_launchers(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path))
        store = resolve_trace_store()
        assert store is not None and store.directory == tmp_path
        assert Launcher().trace_store is not None

    def test_bare_launcher_is_off_without_env(self, monkeypatch):
        monkeypatch.delenv(TRACE_CACHE_ENV, raising=False)
        assert resolve_trace_store() is None
        assert Launcher().trace_store is None

    def test_opt_in_uses_default_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv(TRACE_CACHE_ENV, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        store = resolve_trace_store(enabled=True)
        assert store.directory == default_trace_dir()
        assert resolve_trace_store(enabled=False) is None

    def test_launcher_false_forces_off(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path))
        assert Launcher(trace_store=False).trace_store is None

    def test_empty_store_instance_is_kept(self, tmp_path):
        # An empty TraceStore is falsy (len 0); the launcher must not
        # drop it on that account.
        store = TraceStore(tmp_path)
        assert Launcher(trace_store=store).trace_store is store


class TestRoundTrip:
    def test_warm_launcher_executes_nothing(self, tmp_path, graph):
        store, cold_run, cold = warm_store(tmp_path, graph)
        assert store.stores == 1

        warm = TraceStore(tmp_path)
        launcher = Launcher(trace_store=warm)
        warm_run = launcher.run(SPEC, graph, RTX_3090)
        assert launcher.kernel_executions == 0
        assert warm.hits == 1
        assert warm_run == cold_run

    def test_hit_is_bit_identical(self, tmp_path, graph):
        _, _, cold = warm_store(tmp_path, graph)
        warm = Launcher(trace_store=TraceStore(tmp_path))
        result = warm.execute_semantic(SPEC, graph)
        assert np.array_equal(result.values, cold.values)
        assert result.values.dtype == cold.values.dtype
        assert trace_digest(result.trace) == trace_digest(cold.trace)

    def test_content_identical_graph_hits(self, tmp_path, graph):
        warm_store(tmp_path, graph)
        rebuilt = load_dataset("soc-LiveJournal1", "tiny")
        assert rebuilt is not graph
        launcher = Launcher(trace_store=TraceStore(tmp_path))
        launcher.run(SPEC, rebuilt, RTX_3090)
        assert launcher.kernel_executions == 0

    def test_entries_survive_verify_scan(self, tmp_path, graph):
        store, _, _ = warm_store(tmp_path, graph)
        ok, bad = store.verify_entries()
        assert (ok, bad) == (1, [])
        assert len(store) == 1


#: Every ``values`` dtype the kernels emit (BFS/SSSP/CC/TC int64, MIS
#: int8, PR float64), plus narrower and unsigned ones.
VALUE_DTYPES = ("<i8", "|i1", "<f8", "<i4", "<f4", "|u1", "|b1")

INT32 = st.integers(-(2**31), 2**31 - 1)
COUNTS = st.floats() | st.integers(0, 2**53)


@st.composite
def profiles(draw):
    n_items = draw(st.integers(0, 12))
    inner = draw(st.none() | st.lists(INT32, min_size=n_items,
                                      max_size=n_items))
    return IterationProfile(
        n_items=n_items,
        inner=None if inner is None else np.array(inner, dtype=np.int32),
        base_cycles=draw(COUNTS),
        inner_cycles=draw(COUNTS),
        struct_loads_inner=draw(COUNTS),
        shared_stores_base=draw(COUNTS),
        atomics_inner=draw(COUNTS),
        atomic_minmax=draw(st.booleans()),
        atomics_same_address_per_item=draw(st.booleans()),
        conflict_extra=draw(COUNTS),
        max_conflict=draw(st.integers(0, 2**40)),
        wl_pushes=draw(st.integers(-1, 2**40)),
        reduction_items=draw(COUNTS),
        label=draw(st.text(max_size=8)),
    )


@st.composite
def kernel_results(draw):
    trace = ExecutionTrace(
        profiles=draw(st.lists(profiles(), max_size=6)),
        n_edges=draw(st.integers(0, 2**40)),
        n_vertices=draw(st.integers(0, 2**40)),
        iterations=draw(st.integers(0, 1000)),
        converged=draw(st.booleans()),
        label=draw(st.text(max_size=12)),
    )
    dtype = np.dtype(draw(st.sampled_from(VALUE_DTYPES)))
    raw = draw(st.binary(max_size=8 * 40))
    values = np.frombuffer(raw[: len(raw) // dtype.itemsize * dtype.itemsize],
                           dtype=dtype).copy()
    return KernelResult(values=values, trace=trace)


#: Cases every run must cover: no profiles; profiles without ``inner``;
#: a zero-length ``inner`` on an ``n_items == 0`` step; non-ASCII labels;
#: a 0-d values array.
EDGE_CASES = (
    KernelResult(values=np.zeros(0), trace=ExecutionTrace(label="empty")),
    KernelResult(
        values=np.array(7, np.int64),
        trace=ExecutionTrace(
            profiles=[IterationProfile(5), IterationProfile(0)]
        ),
    ),
    KernelResult(
        values=np.ones(3, np.int8),
        trace=ExecutionTrace(
            profiles=[
                IterationProfile(0, inner=np.zeros(0, np.int32),
                                 label="größe ✓ 步"),
                IterationProfile(3, inner=[1, 0, 2**31 - 1]),
                IterationProfile(0),
            ],
            label="σ-trace 🚀",
        ),
    ),
)


def one_launch(inner):
    """A one-launch trace whose ``inner`` trip counts are ``inner``."""
    return KernelResult(
        values=np.arange(3, dtype=np.int64),
        trace=ExecutionTrace(
            profiles=[IterationProfile(len(inner), inner=inner)]
        ),
    )


#: (``inner`` trip counts, the dtype an entry stores them in): each
#: width's boundary on both sides, an empty ``inner``, and a negative
#: count, which keeps the in-memory ``<i4``.
INNER_BOUNDARIES = (
    ([0, 0], "|u1"),
    ([3, 255], "|u1"),
    ([256, 0], "<u2"),
    ([65_535], "<u2"),
    ([1, 65_536], "<u4"),
    ([2**31 - 1, 7], "<u4"),
    ([], "|u1"),
    ([5, -1, 2**31 - 1], "<i4"),
)

#: The boundary traces, plus one with no ``inner`` at all.
NARROWING_CASES = tuple(one_launch(inner) for inner, _ in INNER_BOUNDARIES)
NARROWING_CASES += (
    KernelResult(values=np.zeros(2), trace=ExecutionTrace(
        profiles=[IterationProfile(4), IterationProfile(0)]
    )),
)


def with_examples(cases):
    def decorate(test):
        for case in cases:
            test = example(result=case)(test)
        return test
    return decorate


class TestFormat:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(result=kernel_results())
    @with_examples(EDGE_CASES + NARROWING_CASES)
    def test_round_trip_is_bit_identical(self, graph, result):
        semantic = SPEC.semantic_key()
        with tempfile.TemporaryDirectory() as directory:
            store = TraceStore(directory)
            store.save(graph, semantic, 0, result, verified=True)
            back = store.load(graph, semantic, 0)
            assert store.hits == 1 and not os.path.exists(
                os.path.join(directory, "quarantine")
            )
        assert trace_digest(back.trace) == trace_digest(result.trace)
        assert back.values.tobytes() == result.values.tobytes()
        assert back.values.dtype == result.values.dtype
        assert back.values.shape == result.values.shape
        assert back.values.flags.writeable
        for profile in back.trace.profiles:
            if profile.inner is not None:
                assert profile.inner.dtype == np.int32
                assert profile.inner.flags.writeable

    @pytest.mark.parametrize(
        "inner, dtype", INNER_BOUNDARIES,
        ids=[dtype + str(inner) for inner, dtype in INNER_BOUNDARIES],
    )
    def test_inner_dtype_is_the_narrowest_that_fits(
        self, tmp_path, graph, inner, dtype
    ):
        result = one_launch(inner)
        store = TraceStore(tmp_path)
        entry = store.save(graph, SPEC.semantic_key(), 0, result,
                           verified=True)
        body = zlib.decompress(entry.read_bytes().partition(b"\n")[2])
        (length,) = struct.unpack_from("<Q", body)
        assert json.loads(body[8:8 + length])["inner_dtype"] == dtype
        back = store.load(graph, SPEC.semantic_key(), 0)
        (profile,) = back.trace.profiles
        assert profile.inner.dtype == np.int32
        assert profile.inner.tolist() == inner

    def test_entry_layout(self, tmp_path, graph):
        store, _, cold = warm_store(tmp_path, graph)
        (entry,) = store._entries()
        header, _, deflated = entry.read_bytes().partition(b"\n")
        magic, checksum = header.split(b" ")
        assert magic == b"repro-trace-v3"
        assert checksum == hashlib.sha256(deflated).hexdigest().encode()
        body = zlib.decompress(deflated)
        (length,) = struct.unpack_from("<Q", body)
        offset = 8 + length
        assert offset % 16 == 0
        meta = json.loads(body[8:offset])
        values = cold.values
        assert body[offset:offset + values.nbytes] == values.tobytes()
        # One buffer of every launch's trip counts, in the narrowest
        # unsigned dtype that holds their maximum.
        trips = np.concatenate([p.inner for p in cold.trace.profiles
                                if p.inner is not None])
        dtype = np.dtype(meta["inner_dtype"])
        assert dtype.kind == "u" and trips.max() <= np.iinfo(dtype).max
        if dtype.itemsize > 1:
            narrower = np.dtype(f"<u{dtype.itemsize // 2}")
            assert trips.max() > np.iinfo(narrower).max
        inner = trips.astype(dtype).tobytes()
        assert body.endswith(inner)
        assert len(body) - len(inner) - offset - values.nbytes < 16
        assert meta["values_dtype"] == values.dtype.str
        assert meta["values_shape"] == list(values.shape)
        assert len(meta["profiles"]["has_inner"]) == len(cold.trace.profiles)


def scalars(obj, names):
    values = {name: getattr(obj, name) for name in names}
    return {name: value.item() if isinstance(value, np.generic) else value
            for name, value in values.items()}


PROFILE_NAMES = [f.name for f in dataclasses.fields(IterationProfile)
                 if f.name != "inner"]
TRACE_NAMES = ("n_edges", "n_vertices", "iterations", "converged", "label")


def write_v1_entry(path, graph, semantic, source, result):
    """A frozen copy of the numpy-archive (``repro-trace-v1``) writer."""
    from repro.graph.properties import analyze

    trace = result.trace
    meta = {
        "magic": "repro-trace-v1",
        "key": TraceStore.key_payload(graph.fingerprint(), semantic, source),
        "graph_name": graph.name,
        "algorithm": semantic.algorithm.value,
        "graph_properties": analyze(graph).to_dict(),
        "verified": True,
        "trace": scalars(trace, TRACE_NAMES),
        "profiles": [
            dict(scalars(profile, PROFILE_NAMES),
                 has_inner=profile.inner is not None)
            for profile in trace.profiles
        ],
        "values_dtype": result.values.dtype.str,
    }
    arrays = {
        "meta": np.frombuffer(
            json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
        ),
        "values": result.values,
    }
    for i, profile in enumerate(trace.profiles):
        if profile.inner is not None:
            arrays[f"inner_{i}"] = profile.inner
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    body = buffer.getvalue()
    checksum = hashlib.sha256(body).hexdigest().encode("ascii")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"repro-trace-v1 " + checksum + b"\n" + body)


def write_v2_entry(path, graph, semantic, source, result):
    """A frozen copy of the flat int32-``inner`` (``repro-trace-v2``)
    writer: no ``inner_dtype`` in the header, every trip count 4 bytes."""
    from repro.graph.properties import analyze

    trace = result.trace
    values = np.asarray(result.values, order="C")
    columns = {name: [scalars(p, (name,))[name] for p in trace.profiles]
               for name in PROFILE_NAMES}
    columns["has_inner"] = [p.inner is not None for p in trace.profiles]
    meta = {
        "key": TraceStore.key_payload(graph.fingerprint(), semantic, source),
        "graph_name": graph.name,
        "algorithm": semantic.algorithm.value,
        "graph_properties": analyze(graph).to_dict(),
        "verified": True,
        "trace": scalars(trace, TRACE_NAMES),
        "profiles": columns,
        "values_dtype": values.dtype.str,
        "values_shape": list(values.shape),
    }
    inner = b"".join(np.ascontiguousarray(p.inner, "<i4").tobytes()
                     for p in trace.profiles if p.inner is not None)
    arrays = values.tobytes() + bytes(-values.nbytes % 16) + inner
    deflated = zlib.compress(bytes(encode_body(meta, arrays)), 6)
    checksum = hashlib.sha256(deflated).hexdigest().encode("ascii")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"repro-trace-v2 " + checksum + b"\n" + deflated)


class TestOldEntries:
    def quarantined_then_healed(self, tmp_path, graph, capsys, write, magic):
        semantic = SPEC.semantic_key()
        launcher = Launcher()
        source = launcher.source_for(graph)
        cold = launcher.execute_semantic(SPEC, graph)
        store = TraceStore(tmp_path)
        entry = store.entry_path(graph, semantic, source)
        write(entry, graph, semantic, source, cold)

        launcher = Launcher(trace_store=TraceStore(tmp_path))
        launcher.run(SPEC, graph, RTX_3090)
        assert launcher.kernel_executions == 1
        assert (tmp_path / "quarantine" / entry.name).read_bytes().startswith(
            magic + b" "
        )
        assert entry.read_bytes().startswith(b"repro-trace-v3 ")  # re-stored

        fresh = Launcher(trace_store=TraceStore(tmp_path))
        result = fresh.execute_semantic(SPEC, graph)
        assert fresh.kernel_executions == 0
        assert trace_digest(result.trace) == trace_digest(cold.trace)

        capsys.readouterr()
        assert main(["cache", "gc", "--dir", str(tmp_path)]) == 0
        assert not any((tmp_path / "quarantine").iterdir())
        assert store._entries() == [entry]  # the healed entry stays

    def test_v1_entry_is_a_quarantined_miss_then_healed(
        self, tmp_path, graph, capsys
    ):
        self.quarantined_then_healed(
            tmp_path, graph, capsys, write_v1_entry, b"repro-trace-v1"
        )

    def test_v2_entry_is_a_quarantined_miss_then_healed(
        self, tmp_path, graph, capsys
    ):
        self.quarantined_then_healed(
            tmp_path, graph, capsys, write_v2_entry, b"repro-trace-v2"
        )

    def test_gc_reclaims_unread_v1_entries(self, tmp_path, graph):
        semantic = SPEC.semantic_key()
        cold = Launcher().execute_semantic(SPEC, graph)
        store = TraceStore(tmp_path)
        write_v1_entry(store.entry_path(graph, semantic, 0), graph,
                       semantic, 0, cold)
        assert store.stats().entries == 1
        removed, reclaimed = store.gc()
        assert removed == 1 and reclaimed > 0
        assert len(store) == 0


class TestInvalidation:
    def test_kernel_code_change_misses(self, tmp_path, graph, monkeypatch):
        warm_store(tmp_path, graph)
        monkeypatch.setattr(tracestore, "_kernel_fp_memo", "f" * 64)
        launcher = Launcher(trace_store=TraceStore(tmp_path))
        launcher.run(SPEC, graph, RTX_3090)
        assert launcher.kernel_executions == 1  # stale entry not used

    def test_different_graph_content_misses(self, tmp_path, graph):
        warm_store(tmp_path, graph)
        other = load_dataset("USA-road-d.NY", "tiny")
        launcher = Launcher(trace_store=TraceStore(tmp_path))
        launcher.run(SPEC, other, RTX_3090)
        assert launcher.kernel_executions == 1

    def test_different_source_misses(self, tmp_path, graph):
        store, _, _ = warm_store(tmp_path, graph, source=0)
        launcher = Launcher(trace_store=TraceStore(tmp_path), source=1)
        launcher.run(SPEC, graph, RTX_3090)
        assert launcher.kernel_executions == 1
        assert len(store) == 2  # both seeds stored side by side

    def test_unverified_entry_misses_for_verifying_launcher(
        self, tmp_path, graph
    ):
        warm_store(tmp_path, graph, verify=False)
        verifying = Launcher(trace_store=TraceStore(tmp_path))
        verifying.run(SPEC, graph, RTX_3090)
        assert verifying.kernel_executions == 1  # would not trust it
        # ... and its re-execution overwrote the entry as verified.
        relaxed = Launcher(trace_store=TraceStore(tmp_path), verify=False)
        relaxed.run(SPEC, graph, RTX_3090)
        assert relaxed.kernel_executions == 0

    def test_stale_entries_are_gc_candidates(self, tmp_path, graph, monkeypatch):
        store, _, _ = warm_store(tmp_path, graph)
        monkeypatch.setattr(tracestore, "_kernel_fp_memo", "f" * 64)
        stats = store.stats()
        assert stats.stale == stats.entries == 1
        removed, reclaimed = store.gc()
        assert removed == 1 and reclaimed > 0
        assert len(store) == 0


class TestCorruption:
    def corrupt_and_load(self, tmp_path, graph, mutate):
        store, _, _ = warm_store(tmp_path, graph)
        (entry,) = store._entries()
        mutate(entry)
        launcher = Launcher(trace_store=TraceStore(tmp_path))
        launcher.run(SPEC, graph, RTX_3090)  # must not crash
        assert launcher.kernel_executions == 1  # clean miss, re-executed
        quarantine = tmp_path / "quarantine"
        assert quarantine.is_dir() and any(quarantine.iterdir())

    def test_truncated_entry_quarantines(self, tmp_path, graph):
        self.corrupt_and_load(
            tmp_path, graph,
            lambda p: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2]),
        )

    def test_bit_flip_quarantines(self, tmp_path, graph):
        def flip(path):
            blob = bytearray(path.read_bytes())
            blob[-1] ^= 0xFF
            path.write_bytes(bytes(blob))

        self.corrupt_and_load(tmp_path, graph, flip)

    def test_garbage_entry_quarantines(self, tmp_path, graph):
        self.corrupt_and_load(
            tmp_path, graph, lambda p: p.write_bytes(b"not a trace at all")
        )

    def test_json_header_bit_flip_quarantines(self, tmp_path, graph):
        def flip_header(body, offset):
            # The JSON is ASCII: a flipped high bit leaves invalid UTF-8.
            body[8 + (offset - 8) // 2] ^= 0x80
            return body

        # Past the checksum (resealed), and caught by the checksum.
        self.corrupt_and_load(
            tmp_path / "resealed", graph,
            lambda p: rewrite_body(p, flip_header),
        )
        self.corrupt_and_load(
            tmp_path / "raw", graph,
            lambda p: rewrite_body(p, flip_header, reseal=False),
        )

    @pytest.mark.parametrize("where", ["values", "inner"])
    def test_array_body_bit_flip_quarantines(self, tmp_path, graph, where):
        def flip(body, offset):
            body[offset if where == "values" else -1] ^= 0x01
            return body

        self.corrupt_and_load(
            tmp_path, graph, lambda p: rewrite_body(p, flip, reseal=False)
        )

    def test_truncated_deflate_stream_quarantines(self, tmp_path, graph):
        def truncate(path):
            deflated = path.read_bytes().partition(b"\n")[2]
            path.write_bytes(sealed(deflated[: len(deflated) // 2]))

        self.corrupt_and_load(tmp_path, graph, truncate)

    @pytest.mark.parametrize("claim", ["inner", "values"])
    def test_header_claiming_more_bytes_quarantines(
        self, tmp_path, graph, claim
    ):
        def overclaim(body, offset):
            meta = json.loads(body[8:offset])
            columns = meta["profiles"]
            if claim == "inner":
                # The inner arrays end the body: one more trip overruns.
                columns["n_items"][columns["has_inner"].index(True)] += 1
            else:
                # More than the alignment gap after the values can absorb.
                meta["values_shape"][0] += 16
            return encode_body(meta, body[offset:])

        self.corrupt_and_load(
            tmp_path, graph, lambda p: rewrite_body(p, overclaim)
        )

    @pytest.mark.parametrize("claim", ["<f4", "|O", ">u2", ">i4", "<u8"])
    def test_unsupported_inner_dtype_quarantines(self, tmp_path, graph, claim):
        def reclaim(body, offset):
            # Re-encode the inner buffer at the claimed width, so only the
            # dtype itself is wrong.
            meta = json.loads(body[8:offset])
            dtype = np.dtype(meta["values_dtype"])
            start = offset + dtype.itemsize * int(np.prod(meta["values_shape"]))
            start += -start % 16
            columns = meta["profiles"]
            trips = sum(n for n, has in zip(columns["n_items"],
                                            columns["has_inner"]) if has)
            meta["inner_dtype"] = claim
            inner = bytes(trips * np.dtype(claim).itemsize)
            return encode_body(meta, body[offset:start] + inner)

        self.corrupt_and_load(
            tmp_path, graph, lambda p: rewrite_body(p, reclaim)
        )

    def test_reexecution_heals_the_store(self, tmp_path, graph):
        store, _, cold = warm_store(tmp_path, graph)
        (entry,) = store._entries()
        entry.write_bytes(b"garbage")
        healer = Launcher(trace_store=TraceStore(tmp_path))
        healer.run(SPEC, graph, RTX_3090)  # quarantines, re-executes, saves
        fresh = Launcher(trace_store=TraceStore(tmp_path))
        result = fresh.execute_semantic(SPEC, graph)
        assert fresh.kernel_executions == 0
        assert trace_digest(result.trace) == trace_digest(cold.trace)


SWEEP = SweepConfig(
    scale="tiny",
    algorithms=(Algorithm.BFS,),
    models=(Model.CUDA,),
    graphs=("USA-road-d.NY",),
    gpu_names=("RTX 3090",),
)


class TestWarmSweeps:
    def test_second_sweep_executes_zero_kernels(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path / "traces"))
        cold = run_sweep_parallel(SWEEP, workers=1)
        assert cold.kernel_executions > 0
        warm = run_sweep_parallel(SWEEP, workers=1)
        assert warm.kernel_executions == 0
        assert warm.runs == cold.runs

    def test_new_device_retimes_from_stored_traces(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path / "traces"))
        run_sweep_parallel(SWEEP, workers=1)
        # Add a second GPU: mapping variants must re-time from the stored
        # traces — the paper's semantic/mapping split, across sessions.
        both = SweepConfig(
            scale=SWEEP.scale,
            algorithms=SWEEP.algorithms,
            models=SWEEP.models,
            graphs=SWEEP.graphs,
            gpu_names=("RTX 3090", "Titan V"),
        )
        extended = run_sweep_parallel(both, workers=1)
        assert extended.kernel_executions == 0
        assert {r.device for r in extended.runs} == {"RTX 3090", "Titan V"}

    def test_serial_sweep_uses_the_store_too(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path))
        cold = run_sweep(SWEEP)
        warm = run_sweep(SWEEP)
        assert cold.kernel_executions > 0
        assert warm.kernel_executions == 0
        assert warm.runs == cold.runs

    def test_no_trace_cache_opts_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path))
        config = SweepConfig(
            scale=SWEEP.scale,
            algorithms=SWEEP.algorithms,
            models=SWEEP.models,
            graphs=SWEEP.graphs,
            gpu_names=SWEEP.gpu_names,
            trace_cache=False,
        )
        run_sweep(config)
        again = run_sweep(config)
        assert again.kernel_executions > 0  # nothing stored, nothing hit
        assert len(TraceStore(tmp_path)) == 0


class TestCacheCLI:
    def test_stats_gc_verify(self, tmp_path, graph, capsys):
        store, _, _ = warm_store(tmp_path, graph)
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries:     1" in out

        assert main(["cache", "verify", "--dir", str(tmp_path)]) == 0
        assert "verified 1 entries" in capsys.readouterr().out

        (entry,) = store._entries()
        entry.write_bytes(b"garbage")
        assert main(["cache", "verify", "--dir", str(tmp_path)]) == 1

        assert main(["cache", "gc", "--dir", str(tmp_path), "--all"]) == 0
        assert len(TraceStore(tmp_path)) == 0

    def test_cache_honours_env_dir(self, tmp_path, graph, monkeypatch, capsys):
        warm_store(tmp_path, graph)
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path))
        assert main(["cache", "stats"]) == 0
        assert str(tmp_path) in capsys.readouterr().out

    def test_sweep_no_trace_cache_flag_parses(self, tmp_path, monkeypatch):
        from repro.cli.main import build_parser

        args = build_parser().parse_args(["sweep", "--no-trace-cache"])
        assert args.no_trace_cache


class TestFingerprints:
    def test_kernel_code_fingerprint_is_memoized_and_stable(self):
        assert kernel_code_fingerprint() == kernel_code_fingerprint()
        assert len(kernel_code_fingerprint()) == 64

    def test_graph_fingerprint_tracks_content_not_name(self, graph):
        same = load_dataset("soc-LiveJournal1", "tiny")
        assert same.fingerprint() == graph.fingerprint()
        other = load_dataset("USA-road-d.NY", "tiny")
        assert other.fingerprint() != graph.fingerprint()

    def test_trace_digest_separates_traces(self, graph):
        launcher = Launcher()
        bfs = launcher.execute_semantic(
            enumerate_specs(Algorithm.BFS, Model.CUDA)[0], graph
        )
        sssp = launcher.execute_semantic(SPEC, graph)
        assert trace_digest(bfs.trace) != trace_digest(sssp.trace)
