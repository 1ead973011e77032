"""Tests for results persistence and the style advisor."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.bench import (
    advise,
    load_results,
    save_results,
)
from repro.graph import grid2d, load_dataset, power_law
from repro.styles import Algorithm, Model


#: Reloads a saved StudyResults and looks every run up through freshly
#: built specs; prints a JSON report.
_RELOAD_SCRIPT = """
import json, sys
from dataclasses import fields
from repro.bench import load_results
from repro.styles import Algorithm, StyleSpec

results = load_results(sys.argv[1], rebuild_graphs=False)
def rebuilt(spec):
    return StyleSpec(**{f.name: getattr(spec, f.name)
                        for f in fields(StyleSpec)})

equal = same_hash = matched = 0
for run in results.runs:
    fresh = rebuilt(run.spec)
    equal += fresh == run.spec
    same_hash += hash(fresh) == hash(run.spec)
    matched += results.get(fresh, run.device, run.graph) is run
print(json.dumps({
    "runs": len(results.runs),
    "equal": equal,
    "same_hash": same_hash,
    "matched": matched,
    "seed_hash": hash(rebuilt(results.runs[0].spec)),
    "per_algorithm": {
        a.value: sum(1 for _ in results.select(algorithms=[a]))
        for a in Algorithm
    },
}))
"""


class TestStorage:
    def test_round_trip(self, tiny_sweep, tmp_path):
        path = save_results(tiny_sweep, tmp_path / "study.pkl", scale="tiny")
        back = load_results(path)
        assert len(back) == len(tiny_sweep)
        assert back.n_programs == tiny_sweep.n_programs
        # Graphs rebuilt deterministically from the registry.
        assert set(back.graphs) == set(tiny_sweep.graphs)
        for name in back.graphs:
            assert back.graphs[name].n_edges == tiny_sweep.graphs[name].n_edges

    def test_lookup_index_restored(self, tiny_sweep, tmp_path):
        path = save_results(tiny_sweep, tmp_path / "s.pkl", scale="tiny")
        back = load_results(path)
        run = tiny_sweep.runs[0]
        assert back.get(run.spec, run.device, run.graph) is not None

    def test_skip_graph_rebuild(self, tiny_sweep, tmp_path):
        path = save_results(tiny_sweep, tmp_path / "s.pkl", scale="tiny")
        back = load_results(path, rebuild_graphs=False)
        assert back.graphs == {}

    def test_specs_rehash_under_another_hash_seed(self, tiny_sweep, tmp_path):
        # StyleSpec caches its hash, and enum hashes follow the per-process
        # string-hash seed: a cached hash that travelled in the pickle
        # would make the reloaded index miss every freshly built spec.
        spec = tiny_sweep.runs[0].spec
        assert "_hash" in vars(spec)  # cached by StudyResults.add
        path = save_results(tiny_sweep, tmp_path / "s.pkl", scale="tiny")
        env = dict(os.environ, PYTHONHASHSEED="12345",
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", _RELOAD_SCRIPT, str(path)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        report = json.loads(out)
        assert report["seed_hash"] != hash(spec)  # the seed really differs
        runs = len(tiny_sweep.runs)
        assert report["runs"] == report["equal"] == runs
        assert report["same_hash"] == report["matched"] == runs
        assert report["per_algorithm"] == {
            algorithm.value: sum(1 for _ in tiny_sweep.select(
                algorithms=[algorithm]))
            for algorithm in Algorithm
        }

    def test_rejects_foreign_pickles(self, tmp_path):
        import pickle

        path = tmp_path / "x.pkl"
        path.write_bytes(pickle.dumps({"nope": 1}))
        with pytest.raises(ValueError, match="not a saved repro"):
            load_results(path)


class TestAdvisor:
    def test_road_like_input(self):
        report = advise(grid2d(24, 24))
        by_axis = {
            (r.axis, r.model): r.choice for r in report.recommendations
        }
        assert by_axis[("granularity", Model.CUDA)] == "thread"
        assert by_axis[("driver", None)] == "data"  # huge diameter
        assert by_axis[("determinism", None)] == "nondet"
        assert by_axis[("flow", None)] == "push"

    def test_social_like_input(self):
        g = power_law(1500, 16, seed=3)
        report = advise(g)
        by_axis = {
            (r.axis, r.model): r.choice for r in report.recommendations
        }
        assert by_axis[("granularity", Model.CUDA)] == "warp"
        assert by_axis[("driver", None)] == "topology"  # tiny diameter

    def test_hub_heavy_input_gets_cyclic_schedule(self):
        from repro.graph import hub_and_spokes

        g = hub_and_spokes(800, n_hubs=2, spoke_degree=3.0, seed=5)
        report = advise(g)
        by_axis = {
            (r.axis, r.model): r.choice for r in report.recommendations
        }
        assert by_axis[("cpp_schedule", Model.CPP_THREADS)] == "cyclic"

    def test_model_filter(self):
        report = advise(grid2d(10, 10))
        cuda = report.for_model(Model.CUDA)
        assert any(r.axis == "granularity" for r in cuda)
        assert all(r.model in (None, Model.CUDA) for r in cuda)

    def test_render_mentions_sections(self):
        text = advise(load_dataset("USA-road-d.NY", "tiny")).render()
        assert "§5.8" in text or "5.8" in text
        assert "input:" in text

    def test_explicit_diameter_respected(self):
        g = power_law(300, 8, seed=1)
        fast = advise(g, diameter=2)
        slow = advise(g, diameter=500)

        def get(rep):
            return next(
                r.choice for r in rep.recommendations
                if r.axis == "driver" and r.model is None
            )

        assert get(fast) == "topology"
        assert get(slow) == "data"
