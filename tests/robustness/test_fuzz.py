"""Differential fuzzing harness: determinism, oracle power, replay."""

import json

import numpy as np
import pytest

from repro.cli.main import main
from repro.robustness.fuzz import (
    SHAPES,
    PlantedBugLauncher,
    build_case,
    load_manifest,
    mutate_values,
    replay_entry,
    run_fuzz,
    run_self_test,
    write_manifest,
)
from repro.runtime.verify import VerificationError
from repro.styles.axes import Algorithm, Model
from repro.styles.combos import enumerate_specs

pytestmark = pytest.mark.fuzz


class TestDeterminism:
    def test_same_pair_same_case(self):
        a_case, a_graph, a_spec, a_device = build_case(7, 3)
        b_case, b_graph, b_spec, b_device = build_case(7, 3)
        assert a_case == b_case
        assert np.array_equal(a_graph.row_ptr, b_graph.row_ptr)
        assert np.array_equal(a_graph.col_idx, b_graph.col_idx)
        assert np.array_equal(a_graph.weights, b_graph.weights)
        assert a_spec.label() == b_spec.label()
        assert a_device.name == b_device.name

    def test_cases_cover_the_shape_space(self):
        shapes = {build_case(0, i)[0].shape for i in range(80)}
        assert len(shapes) >= len(SHAPES) - 2

    def test_spec_index_recovers_the_spec(self):
        case, _graph, spec, _device = build_case(11, 5)
        recovered = enumerate_specs(case.algorithm, case.model)[case.spec_index]
        assert recovered.label() == spec.label() == case.spec_label

    def test_graphs_are_weighted_and_canonical(self):
        for i in range(40):
            _case, graph, _spec, _device = build_case(1, i)
            assert graph.weights is not None
            if graph.n_edges:
                assert int(graph.weights.min()) >= 1


class TestCleanKernelsHaveNoEscapes:
    def test_seed_zero_is_clean(self):
        report = run_fuzz(cases=60, seed=0)
        assert report.escapes == []
        assert report.ok + len(report.skips) == report.cases
        # Degenerate shapes must surface as typed skips, not crashes.
        assert all(
            e["failure"]["error_class"] in ("degenerate", "budget")
            for e in report.skips
        )


class TestPlantedBugs:
    def test_self_test_detects_every_algorithm(self):
        report = run_self_test()
        assert report.planted_ok
        assert report.planted_total == len(Algorithm) * 2
        assert all(
            e["failure"]["error_class"] == "verification"
            for e in report.entries
        )

    def test_planted_launcher_raises_verification(self):
        from repro.machine.devices import TITAN_V
        from repro.robustness.fuzz import _self_test_graph

        graph = _self_test_graph()
        launcher = PlantedBugLauncher(algorithm=Algorithm.BFS)
        spec = enumerate_specs(Algorithm.BFS, Model.CUDA)[0]
        with pytest.raises(VerificationError):
            launcher.run(spec, graph, TITAN_V)

    def test_cc_mutation_changes_the_partition(self):
        # canonical_components() normalizes injective relabelings, so the
        # CC mutation must move a vertex between components to be visible.
        from repro.kernels.serial import canonical_components

        single = np.zeros(4, dtype=np.int64)
        mutated = mutate_values(Algorithm.CC, single, None)
        assert not np.array_equal(
            canonical_components(mutated), canonical_components(single)
        )
        multi = np.array([0, 0, 1, 1], dtype=np.int64)
        mutated = mutate_values(Algorithm.CC, multi, None)
        assert not np.array_equal(
            canonical_components(mutated), canonical_components(multi)
        )


class TestManifestAndReplay:
    def test_round_trip_and_replay(self, tmp_path):
        self_test = run_self_test()
        fuzz = run_fuzz(cases=40, seed=0)
        path = write_manifest(tmp_path / "m.json", self_test, fuzz)
        manifest = load_manifest(path)
        assert manifest["planted_detected"] == manifest["planted_total"]
        assert manifest["escapes"] == 0
        entries = manifest["entries"]
        assert entries, "expected at least one skip or planted entry"
        for entry in entries:
            assert replay_entry(entry)["reproduced"], entry

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="manifest"):
            load_manifest(path)

    def test_skip_entries_replay(self):
        report = run_fuzz(cases=60, seed=0)
        skips = report.skips
        assert skips, "seed 0 should produce at least one degenerate skip"
        outcome = replay_entry(skips[0])
        assert outcome["reproduced"]
        assert outcome["status"] == "skip"


class TestCLI:
    def test_fuzz_exits_zero_on_clean_run(self, capsys):
        assert main(["fuzz", "--cases", "15", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "15 cases" in out

    def test_self_test_only(self, capsys):
        assert main(["fuzz", "--self-test"]) == 0
        out = capsys.readouterr().out
        assert "12/12" in out
        assert "cases" not in out  # no random fuzzing ran

    def test_smoke_writes_replayable_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "smoke.json"
        assert (
            main(
                [
                    "fuzz",
                    "--smoke",
                    "--cases",
                    "20",
                    "--manifest",
                    str(manifest),
                ]
            )
            == 0
        )
        assert manifest.exists()
        capsys.readouterr()
        assert main(["fuzz", "--replay", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "DID NOT REPRODUCE" not in out
