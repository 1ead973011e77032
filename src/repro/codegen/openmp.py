"""OpenMP source generation: one complete ``.cpp`` file per StyleSpec.

Constructs tracked per axis: ``#pragma omp parallel for`` with default or
``schedule(dynamic)`` (Listing 12), ``#pragma omp critical`` for min/max
RMW (Section 5.3.1's consequence of ``omp atomic`` supporting only simple
operators), worklists with atomic-capture pushes and ``critical`` stamps
(Listing 3), push/pull relaxation (Listing 4), double buffering
(Listing 6), and the three CPU reduction styles (Listing 11).
"""

from __future__ import annotations

from ..styles.axes import (
    Algorithm,
    CpuReduction,
    Determinism,
    Driver,
    Dup,
    Flow,
    Iteration,
    OmpSchedule,
    Update,
)
from ..styles.spec import StyleSpec
from .common import ALGORITHM_TITLES, CodeWriter
from .cpu_shared import (
    CPU_GRAPH,
    CPU_PREAMBLE,
    cost_expr,
    emit_serial_reference,
    emit_verification_main,
    hash_pri,
)

__all__ = ["generate_openmp"]


def _pragma(spec: StyleSpec) -> str:
    if spec.omp_schedule is OmpSchedule.DYNAMIC:
        return "#pragma omp parallel for schedule(dynamic)"
    return "#pragma omp parallel for"


def _emit_update(w: CodeWriter, spec: StyleSpec, target: str) -> None:
    """Listing 5 in OpenMP: RMW min/max needs a critical section
    (Section 5.3.1), read-write is a plain check + store."""
    cell = f"val[{target}]"
    if spec.determinism is Determinism.DETERMINISTIC:
        cell = f"val_out[{target}]"
    if spec.update is Update.READ_MODIFY_WRITE:
        w.lines(
            "// OpenMP has no atomic min: the RMW update is a critical",
            "// section (Section 5.3.1).",
            "bool improved = false;",
            "#pragma omp critical",
        )
        w.open("")
        w.line(f"if (new_val < {cell}) {{ {cell} = new_val; "
               f"changed = 1; improved = true; }}")
        w.close()
    else:
        w.lines(
            f"const val_t old_val = {cell};",
            "bool improved = false;",
        )
        w.open("if (new_val < old_val)")
        w.lines(f"{cell} = new_val;", "changed = 1;", "improved = true;")
        w.close()
    if spec.driver is Driver.DATA:
        _emit_push(w, spec, target)
    else:
        w.line("(void)improved;")


def _emit_push(w: CodeWriter, spec: StyleSpec, target: str) -> None:
    """Listing 3: populate the next worklist on improvement.

    Push flow enqueues the improved vertex (vertex items) or its out-edges
    (edge items); pull flow enqueues every neighbor of the improved
    vertex — the "useless items" trade-off of Section 2.4.
    """
    vertex = spec.iteration is Iteration.VERTEX
    pull = spec.flow is Flow.PULL

    def enqueue(expr: str) -> None:
        if spec.dup is Dup.NODUP:
            w.lines("int seen;",
                    "#pragma omp critical  // the stamp is an atomicMax")
            w.open("")
            w.line(f"seen = stat[{expr}]; stat[{expr}] = itr;")
            w.close()
            w.open("if (seen != itr)")
        else:
            w.open("if (true)")
        w.lines(
            "int slot;",
            "#pragma omp atomic capture",
            "slot = wl_next_size++;",
            f"wl_next[slot] = {expr};",
        )
        w.close()

    w.open("if (improved)")
    if vertex and not pull:
        enqueue(target)
    elif vertex and pull:
        w.open(f"for (int k = g.nbr_idx[{target}]; k < g.nbr_idx[{target} + 1]; k++)")
        enqueue("g.nbr_list[k]")
        w.close()
    else:  # edge items (push flow only)
        w.open(f"for (int k = g.nbr_idx[{target}]; k < g.nbr_idx[{target} + 1]; k++)")
        enqueue("k")
        w.close()
    w.close()


def _emit_relax_body(w: CodeWriter, spec: StyleSpec) -> None:
    alg = spec.algorithm
    data = spec.driver is Driver.DATA
    pull = spec.flow is Flow.PULL
    det = spec.determinism is Determinism.DETERMINISTIC
    read = "val_in" if det else "val"

    if spec.iteration is Iteration.VERTEX:
        count = "wl_size" if data else "g.nodes"
        w.line(_pragma(spec))
        w.open(f"for (int item = 0; item < {count}; item++)")
        w.line("const int v = " + ("wl[item];" if data else "item;"))
        w.open("for (int i = g.nbr_idx[v]; i < g.nbr_idx[v + 1]; i++)")
        w.line("const int u = g.nbr_list[i];")
        if pull:
            w.line(f"if ({read}[u] == VAL_MAX) continue;")
            w.line(f"const val_t new_val = {read}[u] + {cost_expr(alg, 'i')};")
            _emit_update(w, spec, "v")
        else:
            w.line(f"if ({read}[v] == VAL_MAX) break;")
            w.line(f"const val_t new_val = {read}[v] + {cost_expr(alg, 'i')};")
            _emit_update(w, spec, "u")
        w.close()
        w.close()
    else:
        count = "wl_size" if data else "g.edges"
        w.line(_pragma(spec))
        w.open(f"for (int item = 0; item < {count}; item++)")
        w.line("const int e = " + ("wl[item];" if data else "item;"))
        if pull:
            w.lines("const int v = g.src_list[e];", "const int u = g.dst_list[e];")
        else:
            w.lines("const int v = g.dst_list[e];", "const int u = g.src_list[e];")
        w.open(f"if ({read}[u] != VAL_MAX)")
        w.line(f"const val_t new_val = {read}[u] + {cost_expr(alg, 'e')};")
        _emit_update(w, spec, "v")
        w.close()
        w.close()


def _emit_reduction_loop(w: CodeWriter, spec: StyleSpec, body: str,
                         acc: str, count: str) -> None:
    """Listing 11: atomic- / critical- / clause-reduction."""
    red = spec.cpu_reduction
    if red is CpuReduction.CLAUSE:
        w.line(f"#pragma omp parallel for reduction(+:{acc})"
               + (" schedule(dynamic)" if spec.omp_schedule is OmpSchedule.DYNAMIC else ""))
        w.open(f"for (int v = 0; v < {count}; v++)")
        w.raw(body)
        w.line(f"{acc} += contribution;")
        w.close()
    else:
        w.line(_pragma(spec))
        w.open(f"for (int v = 0; v < {count}; v++)")
        w.raw(body)
        if red is CpuReduction.ATOMIC:
            w.line("#pragma omp atomic")
        else:
            w.line("#pragma omp critical")
        w.line(f"{acc} += contribution;")
        w.close()


def _emit_pr(w: CodeWriter, spec: StyleSpec) -> None:
    det = spec.determinism is Determinism.DETERMINISTIC
    pull = spec.flow is Flow.PULL
    w.open("static void pagerank(const Graph& g, std::vector<rank_t>& rank)")
    if det:
        w.raw(
            """
std::vector<rank_t> rank2(g.nodes);
rank_t* rank_in = rank.data();
rank_t* rank_out = rank2.data();
"""
        )
        read, write = "rank_in", "rank_out"
    else:
        w.line("rank_t* rank_in = rank.data();  // in-place (non-deterministic)")
        read, write = "rank_in", "rank_in"
    w.open("for (int iter = 0; iter < 10000; iter++)")
    w.line("rank_t err = 0;")
    if pull:
        body = f"""
rank_t sum = 0;
for (int i = g.nbr_idx[v]; i < g.nbr_idx[v + 1]; i++) {{
  const int u = g.nbr_list[i];
  sum += {read}[u] / g.degree(u);
}}
const rank_t new_rank = (1 - DAMPING) / g.nodes + DAMPING * sum;
const rank_t contribution = fabs(new_rank - {read}[v]);
{write}[v] = new_rank;
"""
        _emit_reduction_loop(w, spec, body, "err", "g.nodes")
    else:
        # Push (deterministic only): reset, scatter with atomic adds, then
        # accumulate the error with the selected reduction style.
        w.raw(
            f"""
#pragma omp parallel for
for (int v = 0; v < g.nodes; v++) {write}[v] = (1 - DAMPING) / g.nodes;
#pragma omp parallel for
for (int v = 0; v < g.nodes; v++) {{
  if (!g.degree(v)) continue;
  const rank_t c = DAMPING * {read}[v] / g.degree(v);
  for (int i = g.nbr_idx[v]; i < g.nbr_idx[v + 1]; i++) {{
    #pragma omp atomic
    {write}[g.nbr_list[i]] += c;
  }}
}}
"""
        )
        err_body = f"""
const rank_t contribution = fabs({write}[v] - {read}[v]);
"""
        _emit_reduction_loop(w, spec, err_body, "err", "g.nodes")
    if det:
        w.line("std::swap(rank_in, rank_out);")
    w.line("if (err < TOLERANCE) break;")
    w.close()
    if det:
        w.raw(
            """
if (rank_in != rank.data())
  std::copy(rank_in, rank_in + g.nodes, rank.data());
"""
        )
    w.close()


def _emit_tc(w: CodeWriter, spec: StyleSpec) -> None:
    vertex = spec.iteration is Iteration.VERTEX
    count = "g.nodes" if vertex else "g.edges"
    w.open("static long long triangle_count(const Graph& g)")
    w.line("long long total = 0;")
    if vertex:
        body = """
long long contribution = 0;
for (int j = g.nbr_idx[v]; j < g.nbr_idx[v + 1]; j++) {
  const int u = g.nbr_list[j];
  if (u <= v) continue;
  contribution += merge_count(g, v, u);
}
"""
    else:
        body = """
long long contribution = 0;
{
  const int s = g.src_list[v], d = g.dst_list[v];
  if (d > s) contribution = merge_count(g, s, d);
}
"""
    _emit_reduction_loop(w, spec, body, "total", count)
    w.line("return total;")
    w.close()


def _emit_mis(w: CodeWriter, spec: StyleSpec) -> None:
    det = spec.determinism is Determinism.DETERMINISTIC
    data = spec.driver is Driver.DATA
    push = spec.flow is Flow.PUSH
    edge = spec.iteration is Iteration.EDGE
    read = "status_in" if det else "status_ptr"
    write = "status_out" if det else "status_ptr"
    mine = "g.dst_list[e]" if push else "g.src_list[e]"
    other = "g.src_list[e]" if push else "g.dst_list[e]"
    w.open("static void mis(const Graph& g, std::vector<signed char>& status)")
    w.line("std::vector<signed char> status2(g.nodes, 0);")
    w.line(f"signed char* {read} = status.data();")
    if det:
        w.line(f"signed char* {write} = status2.data();")
    if edge:
        w.line("std::vector<signed char> blocked(g.nodes, 0);")
    if data:
        if edge:
            w.raw(
                """
std::vector<int> wl(g.edges);
for (int e = 0; e < g.edges; e++) wl[e] = e;
"""
            )
        else:
            w.raw(
                """
std::vector<int> wl(g.nodes);
for (int v = 0; v < g.nodes; v++) wl[v] = v;
"""
            )
    w.open("for (;;)")
    if det:
        w.line(f"std::copy({read}, {read} + g.nodes, {write});")
    w.line("int changed = 0;")
    if edge:
        # Phase 1 over edges (mirrors the CUDA edge kernel): each edge
        # excludes or blocks its "mine" endpoint; a serial joiner pass
        # then admits every unblocked undecided vertex.
        w.line("std::fill(blocked.begin(), blocked.end(), 0);")
        count = "(int)wl.size()" if data else "g.edges"
        w.line(_pragma(spec))
        w.open(f"for (int item = 0; item < {count}; item++)")
        w.line("const int e = " + ("wl[item];" if data else "item;"))
        w.lines(f"const int mine = {mine};", f"const int other = {other};")
        w.open(f"if ({read}[mine] == 0)")
        w.line(f"if ({read}[other] == 1) {{ {write}[mine] = 2; changed = 1; }}")
        w.line(f"else if ({read}[other] == 0 && "
               "hash_pri(other) > hash_pri(mine)) blocked[mine] = 1;")
        w.close()
        w.close()  # parallel for
        w.open("for (int v = 0; v < g.nodes; v++)")
        w.line(f"if ({write}[v] == 0 && !blocked[v]) "
               f"{{ {write}[v] = 1; changed = 1; }}")
        w.close()
    else:
        count = "(int)wl.size()" if data else "g.nodes"
        w.line(_pragma(spec))
        w.open(f"for (int item = 0; item < {count}; item++)")
        w.line("const int v = " + ("wl[item];" if data else "item;"))
        w.open(f"if ({read}[v] == 0)")
        w.raw(
            f"""
bool in_set = true;
for (int i = g.nbr_idx[v]; i < g.nbr_idx[v + 1]; i++) {{
  const int u = g.nbr_list[i];
  if ({read}[u] == 1) {{ {write}[v] = 2; changed = 1; in_set = false; break; }}
  if ({read}[u] == 0 && hash_pri(u) > hash_pri(v)) {{ in_set = false; break; }}
}}
"""
        )
        w.open("if (in_set)")
        w.lines(f"{write}[v] = 1;", "changed = 1;")
        if push:
            w.open("for (int i = g.nbr_idx[v]; i < g.nbr_idx[v + 1]; i++)")
            w.line(f"if ({read}[g.nbr_list[i]] == 0) {write}[g.nbr_list[i]] = 2;")
            w.close()
        w.close()
        w.close()
        w.close()  # parallel for
    if det:
        w.line(f"std::swap({read}, {write});")
    if data:
        if edge:
            w.raw(
                f"""
std::vector<int> next;
for (int e : wl) if ({read}[{mine}] == 0) next.push_back(e);
wl.swap(next);
if (wl.empty()) break;
"""
            )
        else:
            w.raw(
                f"""
std::vector<int> next;
for (int v : wl) if ({read}[v] == 0) next.push_back(v);
wl.swap(next);
if (wl.empty()) break;
"""
            )
    else:
        w.line("if (!changed) break;")
    w.close()
    if det:
        w.raw(
            f"""
if ({read} != status.data())
  std::copy({read}, {read} + g.nodes, status.data());
"""
        )
    w.close()


def generate_openmp(spec: StyleSpec, *, data_bits: int = 32) -> str:
    """Generate the complete OpenMP source of one program variant.

    ``data_bits`` selects the value width (32: int/float as evaluated in
    the paper; 64: long long / double as also shipped by Indigo2).
    """
    if data_bits not in (32, 64):
        raise ValueError("data_bits must be 32 or 64")
    spec.validate()
    alg = spec.algorithm
    w = CodeWriter()
    styles = ", ".join(f"{k}={v}" for k, v in spec.describe().items()
                       if k not in ("algorithm", "model"))
    w.lines(
        "// " + "-" * 70,
        f"// {ALGORITHM_TITLES[alg]} — OpenMP",
        f"// style: {styles}",
        "// generated by repro.codegen (Indigo2-style program variant)",
        "// compile: g++ -O3 -fopenmp",
        "// " + "-" * 70,
    )
    w.raw(CPU_PREAMBLE)
    w.line("#include <omp.h>")
    if data_bits == 32:
        w.lines("typedef int val_t;", "#define VAL_MAX INT_MAX")
    else:
        w.lines("typedef long long val_t;", "#define VAL_MAX LLONG_MAX")
    if alg is Algorithm.PR:
        if data_bits == 32:
            w.lines("typedef float rank_t;",
                    "#define DAMPING 0.85f", "#define TOLERANCE 1e-4f")
        else:
            w.lines("typedef double rank_t;",
                    "#define DAMPING 0.85", "#define TOLERANCE 1e-8")
    w.blank()
    w.raw(CPU_GRAPH)
    w.blank()
    if alg is Algorithm.MIS:
        w.raw(hash_pri())
        w.blank()
    emit_serial_reference(w, alg)
    w.blank()
    if alg in (Algorithm.BFS, Algorithm.SSSP, Algorithm.CC):
        _emit_relax_driver(w, spec)
    elif alg is Algorithm.MIS:
        _emit_mis(w, spec)
    elif alg is Algorithm.PR:
        _emit_pr(w, spec)
    else:
        w.raw(
            """
static long long merge_count(const Graph& g, int v, int u) {
  long long c = 0;
  int a = g.nbr_idx[v], b = g.nbr_idx[u];
  while (a < g.nbr_idx[v + 1] && b < g.nbr_idx[u + 1]) {
    const int x = g.nbr_list[a], y = g.nbr_list[b];
    if (x <= v) { a++; continue; }
    if (y <= u) { b++; continue; }
    if (x == y) { c++; a++; b++; }
    else if (x < y) a++; else b++;
  }
  return c;
}
"""
        )
        w.blank()
        _emit_tc(w, spec)
    w.blank()
    emit_verification_main(w, alg)
    return w.render()


def _emit_relax_driver(w: CodeWriter, spec: StyleSpec) -> None:
    data = spec.driver is Driver.DATA
    det = spec.determinism is Determinism.DETERMINISTIC
    if data:
        _emit_initial_worklist(w, spec)
        w.blank()
    w.open("static void compute(const Graph& g, std::vector<val_t>& val, int source)")
    w.raw(
        """
for (int v = 0; v < g.nodes; v++) val[v] = SOURCE_BASED ? VAL_MAX : (val_t)v;
if (SOURCE_BASED) val[source] = 0;
"""
    )
    if det:
        w.line("std::vector<val_t> val2(val);")
        w.lines("val_t* val_in = val.data();", "val_t* val_out = val2.data();")
    if data:
        w.raw(
            """
std::vector<int> wl = initial_worklist(g, source);
std::vector<int> wl_next_buf(g.edges + g.nodes);
std::vector<int> stat_buf(g.nodes, -1);
int* wl_next = wl_next_buf.data();
int* stat = stat_buf.data();
"""
        )
    w.open("for (int itr = 1; ; itr++)")
    w.line("int changed = 0;")
    if det:
        w.line("std::copy(val_in, val_in + g.nodes, val_out);")
    if data:
        w.lines("int wl_size = (int)wl.size();",
                "if (wl_size == 0) break;",
                "int wl_next_size = 0;")

    _emit_relax_body(w, spec)
    if data:
        w.line("wl.assign(wl_next, wl_next + wl_next_size);")
    else:
        w.line("if (!changed) break;")
    if det:
        w.line("std::swap(val_in, val_out);")
    w.close()
    if det:
        w.raw(
            """
if (val_in != val.data())
  std::copy(val_in, val_in + g.nodes, val.data());
"""
        )
    w.close()

def _emit_initial_worklist(w: CodeWriter, spec: StyleSpec) -> None:
    """The data-driven styles' starting worklist (vertex or edge items)."""
    if spec.iteration is Iteration.VERTEX:
        if spec.flow is Flow.PULL:
            w.raw(
                """
static std::vector<int> initial_worklist(const Graph& g, int source) {
  if (!SOURCE_BASED) {
    std::vector<int> all(g.nodes);
    for (int v = 0; v < g.nodes; v++) all[v] = v;
    return all;
  }
  // Pull worklists hold vertices to *recompute*: the source's neighbors.
  return std::vector<int>(g.nbr_list.begin() + g.nbr_idx[source],
                          g.nbr_list.begin() + g.nbr_idx[source + 1]);
}
"""
            )
        else:
            w.raw(
                """
static std::vector<int> initial_worklist(const Graph& g, int source) {
  if (!SOURCE_BASED) {
    std::vector<int> all(g.nodes);
    for (int v = 0; v < g.nodes; v++) all[v] = v;
    return all;
  }
  return std::vector<int>{source};
}
"""
            )
    else:
        w.raw(
            """
static std::vector<int> initial_worklist(const Graph& g, int source) {
  std::vector<int> wl;
  if (!SOURCE_BASED) {
    wl.resize(g.edges);
    for (int e = 0; e < g.edges; e++) wl[e] = e;
  } else {
    for (int i = g.nbr_idx[source]; i < g.nbr_idx[source + 1]; i++)
      wl.push_back(i);
  }
  return wl;
}
"""
        )
