"""IR layer: comment stripping, brace matching, region discovery and
access classification — the structural substrate under the race detector
and the style-inference engine."""

import pytest

from repro.analysis.ir import (
    AccessKind,
    Guard,
    IndexClass,
    RegionKind,
    match_brace_block,
    parse_source,
    strip_comments,
)
from repro.codegen import generate_source
from repro.styles.axes import Algorithm, Driver, Dup, Model, Update
from repro.styles.combos import enumerate_specs

pytestmark = pytest.mark.analysis


def spec_for(alg, model, **conds):
    for spec in enumerate_specs(alg, model):
        if all(getattr(spec, k) is v for k, v in conds.items()):
            return spec
    raise AssertionError(f"no spec for {alg}/{model}/{conds}")


class TestStripComments:
    def test_line_and_block_comments_blank_but_preserve_layout(self):
        src = "int a; // trailing\n/* b */ int c;\n"
        out = strip_comments(src)
        assert "trailing" not in out and "b" not in out
        assert out.count("\n") == src.count("\n")
        assert out.index("int c;") == src.index("int c;")

    def test_stripping_preserves_offsets(self):
        src = "int a; /* multi\nline */ int b; // tail\nint c;\n"
        out = strip_comments(src)
        assert len(out) == len(src)
        assert out.index("int c;") == src.index("int c;")


class TestBraceMatching:
    def test_nested_blocks(self):
        text = "{ a { b } c { d { e } } }"
        assert match_brace_block(text, 0) == len(text)

    @staticmethod
    def guards(src):
        (region,) = parse_source(src).regions
        return {a.array: a.guard for a in region.accesses}

    def test_critical_blocks_are_brace_matched(self):
        # A critical section containing nested braces guards every access
        # up to its own closing brace, not just up to the first "}".
        src = (
            "#pragma omp parallel for\n"
            "for (int v = 0; v < n; v++) {\n"
            "  #pragma omp critical\n"
            "  {\n"
            "    if (x[v]) { inner[v] = 1; }\n"
            "    tail[v] = 2;\n"
            "  }\n"
            "  after[v] = 3;\n"
            "}\n"
        )
        assert self.guards(src) == {
            "x": Guard.CRITICAL,
            "inner": Guard.CRITICAL,
            "tail": Guard.CRITICAL,
            "after": Guard.NONE,
        }

    def test_braceless_critical_statement(self):
        src = (
            "#pragma omp parallel for\n"
            "for (int v = 0; v < n; v++) {\n"
            "  #pragma omp critical\n"
            "  val[v] = new_val;\n"
            "  after[v] = 1;\n"
            "}\n"
        )
        assert self.guards(src) == {"val": Guard.CRITICAL, "after": Guard.NONE}


class TestRegionDiscovery:
    def test_cuda_kernel_region(self):
        spec = spec_for(Algorithm.BFS, Model.CUDA)
        ir = parse_source(generate_source(spec))
        kinds = {r.kind for r in ir.regions}
        assert RegionKind.CUDA_KERNEL in kinds
        assert all(r.kind is RegionKind.CUDA_KERNEL for r in ir.regions)

    def test_openmp_region(self):
        spec = spec_for(Algorithm.CC, Model.OPENMP)
        ir = parse_source(generate_source(spec))
        assert ir.regions
        assert all(r.kind is RegionKind.OMP_FOR for r in ir.regions)
        assert all(r.pragma.startswith("#pragma omp parallel for")
                   for r in ir.regions)

    def test_cpp_threads_region_is_call_site_not_template(self):
        spec = spec_for(Algorithm.SSSP, Model.CPP_THREADS)
        ir = parse_source(generate_source(spec))
        assert ir.regions
        for region in ir.regions:
            assert region.kind is RegionKind.CPP_THREADS
            # The parallel_step *template definition* must not be captured.
            assert "template" not in region.body

    def test_every_suite_file_has_at_least_one_region(self):
        for model in Model:
            for alg in Algorithm:
                spec = enumerate_specs(alg, model)[0]
                ir = parse_source(generate_source(spec))
                assert ir.regions, spec.label()


class TestAccessClassification:
    def test_nested_subscript_write_is_recorded(self):
        # The OpenMP nodup stamp: a critical-guarded store through a
        # nested subscript.  A first-]-terminated regex loses this write.
        spec = spec_for(Algorithm.CC, Model.OPENMP, driver=Driver.DATA,
                        dup=Dup.NODUP)
        ir = parse_source(generate_source(spec))
        stat = [
            a
            for r in ir.regions
            for a in r.accesses_to("stat")
            if a.kind is not AccessKind.READ
        ]
        assert stat, "nested-subscript stat stamp write was not extracted"
        assert all(a.guard is Guard.CRITICAL for a in stat)

    def test_worklist_push_is_slot_indexed(self):
        spec = spec_for(Algorithm.SSSP, Model.OPENMP, driver=Driver.DATA)
        ir = parse_source(generate_source(spec))
        pushes = [
            a
            for r in ir.regions
            for a in r.accesses_to("wl_next")
            if a.kind is AccessKind.WRITE
        ]
        assert pushes
        assert all(a.index_class is IndexClass.SLOT for a in pushes)

    def test_atomic_call_classified_rmw(self):
        spec = spec_for(Algorithm.SSSP, Model.CUDA,
                        update=Update.READ_MODIFY_WRITE)
        ir = parse_source(generate_source(spec))
        rmw = [
            a
            for r in ir.regions
            for a in r.accesses
            if a.kind is AccessKind.ATOMIC_RMW
        ]
        assert rmw

    def test_parse_source_is_memoized(self):
        # Satellite 2: per-file parses are cached, so re-parsing the same
        # text must return the identical IR object.
        text = generate_source(enumerate_specs(Algorithm.BFS, Model.CUDA)[0])
        assert parse_source(text) is parse_source(text)
