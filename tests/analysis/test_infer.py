"""Style inference and the static race detector.

Two halves:

* the acceptance gate — the IR engine re-derives every carried axis for
  every variant in the full suite and agrees with the manifest (zero
  error findings; the Section 2.5 benign races surface as notes only);
* a planted-mutation harness — each hand-injected style break yields
  exactly one error finding with the expected rule id, which is the
  self-test that the detector actually detects.
"""

import pytest

from repro.analysis import analyze_source_ir, lint_suite, parse_source
from repro.analysis.findings import Severity
from repro.analysis.infer import infer_axes
from repro.codegen import generate_source
from repro.styles.axes import (
    AXIS_FIELDS,
    Algorithm,
    CppSchedule,
    CpuReduction,
    Determinism,
    Driver,
    Dup,
    Flow,
    GpuReduction,
    Model,
    OmpSchedule,
    Update,
)
from repro.styles.combos import enumerate_specs

pytestmark = pytest.mark.analysis


def spec_for(alg, model, **conds):
    for spec in enumerate_specs(alg, model):
        if all(getattr(spec, k) is v for k, v in conds.items()):
            return spec
    raise AssertionError(f"no spec for {alg}/{model}/{conds}")


@pytest.fixture(scope="module")
def full_suite_report(full_suite):
    """One IR lint pass over the full suite, shared by the tests below."""
    return lint_suite(full_suite, ir=True)


class TestFullSuiteAgreement:
    """The tentpole acceptance criterion: for every file in the full
    generated suite, IR-inferred style == declared style on all 13 axes."""

    def test_full_suite_ir_clean(self, full_suite_report):
        report = full_suite_report
        assert report.checked == 1698
        assert report.errors == [], report.render_text()[:4000]
        # The only expected findings are the documented Section 2.5
        # benign races, and they are notes.
        assert {f.rule for f in report.findings} <= {"RACE-BENIGN"}
        assert report.ok

    def test_benign_races_are_reported_not_hidden(self, full_suite_report):
        benign = [
            f for f in full_suite_report.findings if f.rule == "RACE-BENIGN"
        ]
        # The suite contains Section 2.5 races by design: docs/analysis.md
        # counts 680 on the full 32-bit suite.
        assert len(benign) == 680
        assert all(f.severity is Severity.NOTE for f in benign)

    @pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
    def test_inferred_axes_match_declared_spot_checks(self, model):
        # One variant per algorithm per model, checked field by field.
        for alg in Algorithm:
            spec = enumerate_specs(alg, model)[-1]
            ir = parse_source(generate_source(spec))
            inferred = infer_axes(alg, model, ir)
            for field in AXIS_FIELDS:
                declared = getattr(spec, field)
                if declared is None:
                    continue
                assert inferred[field] is declared, (
                    f"{spec.label()}: {field} inferred {inferred[field]} "
                    f"!= declared {declared}"
                )


def errors_of(spec, text):
    return [
        f
        for f in analyze_source_ir(spec, text, locus=spec.label())
        if f.severity is Severity.ERROR
    ]


def mutate(text, old, new, count=1):
    assert text.count(old) == count, (
        f"mutation anchor {old!r} found {text.count(old)}x, wanted {count}"
    )
    return text.replace(old, new)


class TestPlantedMutations:
    """Each planted style break yields exactly one error with the
    expected rule id — no more, no less."""

    def test_clean_sources_have_no_errors(self):
        for model in Model:
            spec = enumerate_specs(Algorithm.SSSP, model)[0]
            assert errors_of(spec, generate_source(spec)) == []

    def test_dropped_atomic_is_infer_update(self):
        # Demote the CUDA atomicMin relaxation to a plain conditional
        # store: the update axis evidence flips rmw -> rw.
        spec = spec_for(
            Algorithm.SSSP, Model.CUDA,
            update=Update.READ_MODIFY_WRITE,
            driver=Driver.TOPOLOGY, flow=Flow.PUSH,
        )
        text = mutate(
            generate_source(spec),
            "atomicMin(&val_out[u], new_val);",
            "if (new_val < val_out[u]) val_out[u] = new_val;",
        )
        errors = errors_of(spec, text)
        assert [f.rule for f in errors] == ["INFER-UPDATE"]

    def test_swapped_schedule_clause_is_infer_omp_schedule(self):
        spec = spec_for(
            Algorithm.SSSP, Model.OPENMP,
            omp_schedule=OmpSchedule.DYNAMIC, driver=Driver.TOPOLOGY,
        )
        text = generate_source(spec)
        assert " schedule(dynamic)" in text
        text = text.replace(" schedule(dynamic)", "")
        errors = errors_of(spec, text)
        assert [f.rule for f in errors] == ["INFER-OMP-SCHEDULE"]

    def test_broken_double_buffering_is_infer_determinism(self):
        # Collapse the two-array val_in/val_out scheme onto one array.
        spec = spec_for(
            Algorithm.CC, Model.OPENMP,
            determinism=Determinism.DETERMINISTIC,
            update=Update.READ_WRITE, driver=Driver.TOPOLOGY,
        )
        text = generate_source(spec).replace("val_out", "val_in")
        errors = errors_of(spec, text)
        assert [f.rule for f in errors] == ["INFER-DETERMINISM"]

    def test_aliased_worklist_index_is_race_wl_alias(self):
        # Push through the neighbor id instead of the atomically-claimed
        # slot: concurrent pushes overwrite each other.
        spec = spec_for(
            Algorithm.SSSP, Model.OPENMP,
            driver=Driver.DATA, dup=Dup.NODUP, flow=Flow.PUSH,
            update=Update.READ_WRITE,
        )
        text = mutate(generate_source(spec), "wl_next[slot] = u;",
                      "wl_next[u] = u;")
        errors = errors_of(spec, text)
        assert [f.rule for f in errors] == ["RACE-WL-ALIAS"]

    def test_unguarded_accumulation_is_race_reduction(self):
        # Delete the atomic pragma in front of the PageRank scatter.
        spec = spec_for(
            Algorithm.PR, Model.OPENMP,
            cpu_reduction=CpuReduction.ATOMIC, flow=Flow.PUSH,
        )
        text = mutate(
            generate_source(spec),
            "#pragma omp atomic\n        rank_out[g.nbr_list[i]] += c;",
            "rank_out[g.nbr_list[i]] += c;",
        )
        errors = errors_of(spec, text)
        assert [f.rule for f in errors] == ["RACE-REDUCTION"]


class TestLockFromStructure:
    """A mutex is taken by a ``std::lock_guard<...> name(mutex)``
    declaration, not by any statement that mentions ``lock_guard``."""

    @pytest.mark.parametrize("alg", [Algorithm.PR, Algorithm.TC],
                             ids=lambda a: a.value)
    def test_renamed_lock_guard_is_not_a_critical_reduction(self, alg):
        spec = spec_for(alg, Model.CPP_THREADS,
                        cpu_reduction=CpuReduction.CRITICAL)
        text = mutate(generate_source(spec), "std::lock_guard",
                      "std::lock_guardQ")
        inferred = infer_axes(alg, Model.CPP_THREADS, parse_source(text))
        assert inferred["cpu_reduction"] is CpuReduction.ATOMIC
        # The accumulation it guarded is now a plain shared write.
        assert sorted(f.rule for f in errors_of(spec, text)) == [
            "INFER-CPU-REDUCTION", "RACE-REDUCTION",
        ]


class TestLocalAccFromStructure:
    """A C++ clause-equivalent reduction adds a per-thread partial (a
    local declared before the item loop) to the shared accumulator; the
    partial's name carries no evidence."""

    @staticmethod
    def reduction(alg, text):
        inferred = infer_axes(alg, Model.CPP_THREADS, parse_source(text))
        return inferred["cpu_reduction"]

    @pytest.mark.parametrize("alg", [Algorithm.PR, Algorithm.TC],
                             ids=lambda a: a.value)
    def test_renamed_local_acc_still_reads_clause(self, alg):
        spec = spec_for(alg, Model.CPP_THREADS,
                        cpu_reduction=CpuReduction.CLAUSE)
        text = generate_source(spec)
        assert self.reduction(alg, text) is CpuReduction.CLAUSE
        text = mutate(text, "local_acc", "partial", count=3)
        assert self.reduction(alg, text) is CpuReduction.CLAUSE
        assert errors_of(spec, text) == []

    @pytest.mark.parametrize("alg", [Algorithm.PR, Algorithm.TC],
                             ids=lambda a: a.value)
    def test_unused_local_acc_does_not_read_clause(self, alg):
        spec = spec_for(alg, Model.CPP_THREADS,
                        cpu_reduction=CpuReduction.ATOMIC)
        text = generate_source(spec)
        anchor = "parallel_step([&](int tid) {"
        text = text.replace(
            anchor, anchor + "\n      long long local_acc = 0;"
        )
        assert "local_acc" in text
        assert self.reduction(alg, text) is CpuReduction.ATOMIC


class TestCriticalReductionFromStructure:
    """An OpenMP critical-section reduction adds to a shared scalar
    inside ``#pragma omp critical``; the added value's name carries no
    evidence, and a critical flag store is no reduction."""

    @pytest.mark.parametrize("alg, uses", [(Algorithm.PR, 2), (Algorithm.TC, 3)],
                             ids=lambda a: getattr(a, "value", a))
    def test_renamed_contribution_still_reads_critical(self, alg, uses):
        spec = spec_for(alg, Model.OPENMP,
                        cpu_reduction=CpuReduction.CRITICAL)
        text = mutate(generate_source(spec), "contribution", "delta",
                      count=uses)
        inferred = infer_axes(alg, Model.OPENMP, parse_source(text))
        assert inferred["cpu_reduction"] is CpuReduction.CRITICAL
        assert errors_of(spec, text) == []

    def test_critical_flag_store_is_not_a_reduction(self):
        from repro.analysis.infer import _infer_cpu_reduction

        spec = spec_for(Algorithm.SSSP, Model.OPENMP,
                        update=Update.READ_MODIFY_WRITE)
        text = generate_source(spec)
        assert "#pragma omp critical" in text and "changed = 1;" in text
        reduction = _infer_cpu_reduction(parse_source(text), Model.OPENMP)
        assert reduction is CpuReduction.ATOMIC


class TestReductionFromStructure:
    """An OpenMP reduction is the ``+`` clause the pragma parser splits,
    however the clause is spaced."""

    @pytest.mark.parametrize("alg", [Algorithm.PR, Algorithm.TC],
                             ids=lambda a: a.value)
    def test_spaced_reduction_clause_is_a_clause_reduction(self, alg):
        spec = spec_for(alg, Model.OPENMP,
                        cpu_reduction=CpuReduction.CLAUSE)
        text = mutate(generate_source(spec), "reduction(+:",
                      "reduction( + : ")
        inferred = infer_axes(alg, Model.OPENMP, parse_source(text))
        assert inferred["cpu_reduction"] is CpuReduction.CLAUSE
        assert errors_of(spec, text) == []


class TestBlockAddFromStructure:
    """A block-scoped reduction is an ``atomicAdd_block`` call the IR's
    atomic scanner records, not any text that contains that name."""

    @pytest.mark.parametrize("alg", [Algorithm.PR, Algorithm.TC],
                             ids=lambda a: a.value)
    def test_renamed_block_atomic_is_not_a_block_reduction(self, alg):
        spec = spec_for(alg, Model.CUDA,
                        gpu_reduction=GpuReduction.BLOCK_ADD)
        text = generate_source(spec)
        assert infer_axes(alg, Model.CUDA, parse_source(text))[
            "gpu_reduction"] is GpuReduction.BLOCK_ADD
        text = mutate(text, "atomicAdd_block(", "atomicAdd_blockQ(")
        inferred = infer_axes(alg, Model.CUDA, parse_source(text))
        assert inferred["gpu_reduction"] is GpuReduction.GLOBAL_ADD


class TestScheduleFromStructure:
    """A C++ thread's schedule is its item loop's step: one item at a time
    is a blocked range, a ``+= NTHREADS`` stride is cyclic.  The names of
    the range bounds carry no evidence."""

    @staticmethod
    def schedule(text):
        ir = parse_source(text)
        return infer_axes(Algorithm.BFS, Model.CPP_THREADS, ir)["cpp_schedule"]

    @pytest.mark.parametrize("name", ["beg_itQ", "first_it"])
    def test_renamed_range_start_still_reads_blocked(self, name):
        spec = spec_for(Algorithm.BFS, Model.CPP_THREADS,
                        cpp_schedule=CppSchedule.BLOCKED)
        text = generate_source(spec)
        assert self.schedule(text) is CppSchedule.BLOCKED
        text = mutate(text, "beg_it", name, count=2)
        assert self.schedule(text) is CppSchedule.BLOCKED
        assert errors_of(spec, text) == []

    def test_unused_range_name_does_not_read_blocked(self):
        spec = spec_for(Algorithm.BFS, Model.CPP_THREADS,
                        cpp_schedule=CppSchedule.CYCLIC)
        text = mutate(
            generate_source(spec),
            "parallel_step([&](int tid) {",
            "parallel_step([&](int tid) {\n      const int beg_it = tid;",
        )
        assert self.schedule(text) is CppSchedule.CYCLIC
