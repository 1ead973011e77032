"""Style-conformance linter: the full suite lints clean, and injected
codegen mutations produce exactly one finding with the right rule id."""

import collections
import re
import shutil

import pytest

from repro.analysis import lint_source, lint_suite, spec_from_label
from repro.styles.axes import Algorithm, Model
from repro.styles.combos import enumerate_specs

pytestmark = pytest.mark.analysis


def read_manifest(root):
    lines = (root / "MANIFEST.tsv").read_text().splitlines()
    assert lines[0] == "model\talgorithm\tbits\tfile\tstyle"
    return [line.split("\t") for line in lines[1:] if line.strip()]


class TestLabelRoundTrip:
    def test_every_enumerated_label_round_trips(self):
        for model in Model:
            for alg in Algorithm:
                for spec in enumerate_specs(alg, model):
                    assert spec_from_label(spec.label()) == spec

    @pytest.mark.parametrize(
        "label",
        [
            "bfs",                      # too short
            "bfs-noduch-vertex",        # unknown model
            "bfs-cuda-nonsense",        # unknown axis value
            "bfs-cuda-vertex-vertex",   # duplicate axis
            "pr-cuda-vertex-data",      # invalid combination (PR is topology)
        ],
    )
    def test_bad_labels_raise(self, label):
        with pytest.raises(ValueError):
            spec_from_label(label)


class TestFullSuiteCleans:
    def test_full_suite_zero_findings(self, full_suite):
        report = lint_suite(full_suite)
        assert report.checked == 1698
        assert report.findings == []
        assert report.ok

    def test_sampled_suite_zero_findings(self, sampled_suite):
        report = lint_suite(sampled_suite)
        assert report.checked > 0
        assert report.findings == []

    def test_sampled_suite_strict_flags_missing(self, sampled_suite):
        report = lint_suite(sampled_suite, strict=True)
        assert not report.ok
        assert set(report.by_rule()) == {"MAN-MISSING"}


class TestManifestRoundTrip:
    """Satellite: MANIFEST.tsv rows parse back to the exact enumerated
    StyleSpec set, with the Table 3 counts (1166 / 266 / 266)."""

    TABLE3 = {Model.CUDA: 1166, Model.OPENMP: 266, Model.CPP_THREADS: 266}

    def test_counts_match_experiments_table3(self):
        for model, expected in self.TABLE3.items():
            count = sum(len(enumerate_specs(a, model)) for a in Algorithm)
            assert count == expected
        assert sum(self.TABLE3.values()) == 1698

    def test_manifest_rows_reproduce_enumeration(self, full_suite):
        rows = read_manifest(full_suite)
        assert len(rows) == 1698
        per_model = {}
        for model_s, alg_s, bits, rel, label in rows:
            spec = spec_from_label(label)
            assert spec.model.value == model_s
            assert spec.algorithm.value == alg_s
            assert bits == "32"
            assert (full_suite / rel).is_file()
            per_model.setdefault(spec.model, set()).add(spec)
        for model, expected in self.TABLE3.items():
            enumerated = {
                s for a in Algorithm for s in enumerate_specs(a, model)
            }
            assert per_model[model] == enumerated
            assert len(per_model[model]) == expected


def _mutate_suite(src_root, tmp_path, mutate):
    root = tmp_path / "mutated"
    shutil.copytree(src_root, root)
    mutate(root)
    return root


class TestManifestMutations:
    def test_deleting_one_row_is_one_missing_finding(self, full_suite, tmp_path):
        def mutate(root):
            man = root / "MANIFEST.tsv"
            lines = man.read_text().splitlines()
            man.write_text("\n".join(lines[:1] + lines[2:]) + "\n")

        # A one-row gap turns the group into a (valid) sample, so the gap
        # is only a finding when the full enumeration is demanded.
        root = _mutate_suite(full_suite, tmp_path, mutate)
        assert lint_suite(root).ok
        report = lint_suite(root, strict=True)
        assert [f.rule for f in report.findings] == ["MAN-MISSING"]

    def test_unknown_variant_row(self, full_suite, tmp_path):
        def mutate(root):
            man = root / "MANIFEST.tsv"
            # PR is topology-driven: a data-driven PR label is enumerable
            # nowhere, but parse-able nowhere either — use a valid spec of
            # the wrong (64) bits width instead, which parses but is not
            # part of this 32-bit-only suite... bits are per-row, so fake
            # an extra row duplicating a real label under a bogus file.
            row = man.read_text().splitlines()[1].split("\t")
            row[3] = "cuda/bfs/does-not-exist.cu"
            man.write_text(man.read_text() + "\t".join(row) + "\n")

        report = lint_suite(_mutate_suite(full_suite, tmp_path, mutate))
        assert [f.rule for f in report.findings] == ["MAN-INVALID"]

    def test_duplicate_row(self, full_suite, tmp_path):
        def mutate(root):
            man = root / "MANIFEST.tsv"
            text = man.read_text()
            man.write_text(text + text.splitlines()[1] + "\n")

        report = lint_suite(_mutate_suite(full_suite, tmp_path, mutate))
        assert [f.rule for f in report.findings] == ["MAN-DUP"]

    def test_missing_file(self, full_suite, tmp_path):
        def mutate(root):
            rel = read_manifest(root)[0][3]
            (root / rel).unlink()

        report = lint_suite(_mutate_suite(full_suite, tmp_path, mutate))
        assert [f.rule for f in report.findings] == ["MAN-FILE"]

    def test_garbage_label(self, full_suite, tmp_path):
        def mutate(root):
            man = root / "MANIFEST.tsv"
            man.write_text(
                man.read_text() + "cuda\tbfs\t32\tcuda/bfs/x.cu\tnot-a-label\n"
            )

        report = lint_suite(_mutate_suite(full_suite, tmp_path, mutate))
        assert [f.rule for f in report.findings] == ["MAN-PARSE"]

    def test_missing_manifest(self, tmp_path):
        report = lint_suite(tmp_path)
        assert [f.rule for f in report.findings] == ["MAN-PARSE"]


def _first_file(root, pattern):
    matches = sorted(root.glob(pattern))
    assert matches, pattern
    return matches[0]


class TestSourceMutations:
    """Each injected codegen mutation produces exactly one finding with
    the right rule id (the ISSUE acceptance demonstration)."""

    def lint_path(self, path, text=None):
        spec = spec_from_label(path.stem.replace("-i64", ""))
        return lint_source(
            spec, text if text is not None else path.read_text(), locus=path.name
        )

    def test_unmutated_samples_are_clean(self, full_suite):
        for pattern in (
            "cuda/bfs/*data-nodup*.cu",
            "openmp/sssp/*.cpp",
            "cpp/cc/*.cpp",
            "cuda/pr/*det*.cu",
        ):
            path = _first_file(full_suite, pattern)
            assert self.lint_path(path) == []

    def test_dropping_stamp_is_one_conf_stamp(self, full_suite):
        path = _first_file(full_suite, "cuda/bfs/*data-nodup*.cu")
        text = path.read_text()
        mutated = re.sub(r" *if \(atomicMax\(&stat\[[^\n]*\n", "", text)
        assert mutated != text
        findings = self.lint_path(path, mutated)
        assert [f.rule for f in findings] == ["CONF-STAMP"]

    def test_swapping_update_is_one_conf_update(self, full_suite):
        path = _first_file(full_suite, "cuda/sssp/*topology*rmw*.cu")
        mutated = path.read_text().replace("atomicMin(&", "plainMin(&")
        findings = self.lint_path(path, mutated)
        assert [f.rule for f in findings] == ["CONF-UPDATE"]

    def test_static_schedule_is_one_conf_omp_schedule(self, full_suite):
        path = _first_file(full_suite, "openmp/pr/*-dynamic*.cpp")
        mutated = path.read_text().replace("schedule(dynamic)", "schedule(static)")
        findings = self.lint_path(path, mutated)
        assert [f.rule for f in findings] == ["CONF-OMP-SCHEDULE"]

    def test_degrading_granularity_is_one_conf_granularity(self, full_suite):
        path = _first_file(full_suite, "cuda/bfs/*-warp-*.cu")
        mutated = path.read_text().replace("item = gidx / WS;", "item = gidx;")
        findings = self.lint_path(path, mutated)
        assert [f.rule for f in findings] == ["CONF-GRANULARITY"]

    def test_unrolling_persistence_is_one_conf_persistence(self, full_suite):
        path = _first_file(full_suite, "cuda/cc/*-persistent-*.cu")
        mutated = path.read_text().replace("for (; item <", "if (item <")
        findings = self.lint_path(path, mutated)
        assert [f.rule for f in findings] == ["CONF-PERSISTENCE"]

    def test_dropping_cuda_atomic_header_is_one_finding(self, full_suite):
        path = _first_file(full_suite, "cuda/tc/*cudaatomic*.cu")
        mutated = path.read_text().replace("#include <cuda/atomic>", "")
        findings = self.lint_path(path, mutated)
        assert [f.rule for f in findings] == ["CONF-CUDA-ATOMIC"]

    def test_dropping_exchange_stamp_cpp(self, full_suite):
        path = _first_file(full_suite, "cpp/bfs/*data-nodup*.cpp")
        mutated = path.read_text().replace(".exchange(itr)", ".load()")
        findings = self.lint_path(path, mutated)
        assert [f.rule for f in findings] == ["CONF-STAMP"]

    def test_dropping_shuffle_reduction(self, full_suite):
        path = _first_file(full_suite, "cuda/pr/*reduction_add*.cu")
        mutated = path.read_text().replace("__shfl_down_sync", "__shfl_down")
        findings = self.lint_path(path, mutated)
        assert [f.rule for f in findings] == ["CONF-GPU-REDUCTION"]

    # Host-side evidence: the driver/determinism macros and the second
    # device buffer a deterministic kernel launch binds.
    @staticmethod
    def replace_once(text, old, new):
        assert text.count(old) == 1, old
        return text.replace(old, new)

    def test_clearing_data_driven_macro_is_one_conf_worklist(self, full_suite):
        path = _first_file(full_suite, "cuda/bfs/*-data-*.cu")
        mutated = self.replace_once(
            path.read_text(), "#define DATA_DRIVEN 1", "#define DATA_DRIVEN 0"
        )
        findings = self.lint_path(path, mutated)
        assert [f.rule for f in findings] == ["CONF-WORKLIST"]

    def test_clearing_deterministic_macro_is_one_conf_determinism(
        self, full_suite
    ):
        path = _first_file(full_suite, "cuda/sssp/*-topology-*-det-*.cu")
        mutated = self.replace_once(
            path.read_text(), "#define DETERMINISTIC 1", "#define DETERMINISTIC 0"
        )
        findings = self.lint_path(path, mutated)
        assert [f.rule for f in findings] == ["CONF-DETERMINISM"]

    @pytest.mark.parametrize(
        "pattern, second, first",
        [
            ("cuda/mis/*-det-*.cu", "d_status2", "d_status"),
            ("cuda/pr/*-det-*.cu", "d_rank2", "d_rank"),
        ],
    )
    def test_collapsing_second_device_buffer_is_one_conf_determinism(
        self, full_suite, pattern, second, first
    ):
        path = _first_file(full_suite, pattern)
        text = path.read_text()
        assert second in text
        findings = self.lint_path(path, text.replace(second, first))
        assert [f.rule for f in findings] == ["CONF-DETERMINISM"]


class TestEitherDirection:
    """A construct contradicts its style whether it is missing where the
    style demands it or present where the style forbids it."""

    @pytest.mark.parametrize(
        "pattern, old, new, rule",
        [
            # present where the style forbids it
            ("cuda/bfs/*-topology-*.cu", "#define DATA_DRIVEN 0",
             "#define DATA_DRIVEN 1", "CONF-WORKLIST"),
            ("cuda/sssp/*-topology-*-nondet-*.cu", "#define DETERMINISTIC 0",
             "#define DETERMINISTIC 1", "CONF-DETERMINISM"),
            ("cuda/pr/*reduction_add*.cu", "auto warp_val = warp_reduce(delta);",
             "atomicAdd_block(err, delta);\n    "
             "auto warp_val = warp_reduce(delta);", "CONF-GPU-REDUCTION"),
            # missing where the style demands it
            ("cuda/sssp/*-data-*.cu", "wl_next[slot] = k;", ";",
             "CONF-WORKLIST"),
            ("openmp/bfs/*-data-nodup-*.cpp",
             "#pragma omp critical  // the stamp is an atomicMax", "",
             "CONF-STAMP"),
            ("cuda/cc/*cudaatomic.cu", "typedef cuda::atomic<val_t> VAL_T;",
             "typedef val_t VAL_T;", "CONF-CUDA-ATOMIC"),
        ],
        ids=[
            "data-driven-macro-set",
            "deterministic-macro-set",
            "block-add-beside-shuffle",
            "push-dropped",
            "stamp-unguarded",
            "value-type-not-cuda-atomic",
        ],
    )
    def test_contradicting_construct_is_one_finding(
        self, full_suite, pattern, old, new, rule
    ):
        path = _first_file(full_suite, pattern)
        text = path.read_text()
        assert text.count(old) == 1, old
        spec = spec_from_label(path.stem)
        findings = lint_source(spec, text.replace(old, new), locus=path.name)
        assert [f.rule for f in findings] == [rule]


class TestOneParsePerFile:
    def test_ir_lint_parses_and_infers_each_file_once(
        self, sampled_suite, monkeypatch
    ):
        from repro.analysis import conformance, infer, ir

        calls = collections.Counter()

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            for mod in (conformance, infer, ir):
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted)

        count(ir, "parse_source")
        count(infer, "infer_axes")
        report = lint_suite(sampled_suite, ir=True, jobs=1)
        assert report.checked > 0
        assert calls == {
            "parse_source": report.checked,
            "infer_axes": report.checked,
        }
