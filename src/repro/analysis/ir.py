"""A loop-structured IR for the generated CUDA / OpenMP / C++ sources.

This module is the one reader of the emitted programs: every static
check of a source (style conformance, style inference, races) runs on
the :class:`SourceIR` it builds.  The pipeline is

1. a **lexer**, one regex substitution, that blanks comments and
   string/char literals while preserving line numbers,
2. a **structural parser** that brace-matches the stream of structural
   tokens into a tree of blocks, statements and preprocessor directives,
   and
3. a **region extractor** that lifts each parallel construct — CUDA
   ``__global__`` kernels, ``#pragma omp parallel for`` loops, and
   ``parallel_step`` C++-thread lambdas — into a
   :class:`ParallelRegion`: its loop nest (with induction variables), a
   tiny dataflow environment (``var -> defining expression``), and every
   shared-array access classified as read / plain write / atomic RMW /
   capture with its index expression resolved to node-, edge- or
   neighbor-indirect form.

File-level facts ride along: includes, ``#define`` values, typedefs,
function signatures (a kernel's parameter names, a ``__device__``
helper's callees) and the host's kernel launches with their bound
arguments.

The generators emit a closed construct set (the paper's Listings 1-13),
so this parser does not need to be a C++ front end — but it is
*structural*: moving an atomic, renaming a buffer or re-indexing a
worklist changes the IR even when the old text survives somewhere in
the file (in a comment, say).  The race detector
(:mod:`repro.analysis.races`) and the style-inference engine
(:mod:`repro.analysis.infer`, which the ``CONF-*`` conformance rules of
:mod:`repro.analysis.conformance` report) both run on this IR.
"""

from __future__ import annotations

import enum
import re
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

__all__ = [
    "AccessKind",
    "IndexClass",
    "Guard",
    "RegionKind",
    "ArrayAccess",
    "Loop",
    "ParallelRegion",
    "FunctionInfo",
    "KernelLaunch",
    "SourceIR",
    "parse_source",
    "strip_comments",
    "match_brace_block",
]


# ----------------------------------------------------------------------
# Lexer
# ----------------------------------------------------------------------
#: One comment or string/char literal.  Block comments and literals may
#: run unterminated to the end of the text; a literal cut off right after
#: its escaping backslash ends at that backslash (``\\?\Z``).
_LEXEME_RE = re.compile(
    r"//[^\n]*"
    r"|/\*[\s\S]*?(?:\*/|\Z)"
    r'|"[^"\\]*(?:\\[\s\S][^"\\]*)*(?:"|\\?\Z)'
    r"|'[^'\\]*(?:\\[\s\S][^'\\]*)*(?:'|\\?\Z)"
)
_NOT_NEWLINE_RE = re.compile(r"[^\n]")
_BRACE_RE = re.compile(r"[{}]")


def _blank(m: re.Match) -> str:
    s = m.group()
    return _NOT_NEWLINE_RE.sub(" ", s) if "\n" in s else " " * len(s)


def strip_comments(text: str) -> str:
    """Blank out comments and string/char literals, keeping the layout.

    Every replaced character becomes a space (newlines survive), so line
    numbers and column structure of the result match the input exactly.
    """
    return _LEXEME_RE.sub(_blank, text)


def match_brace_block(text: str, open_index: int) -> int:
    """Index just past the ``}`` matching the ``{`` at ``open_index``.

    ``text`` must already be comment/string-stripped.  Returns ``len(text)``
    when the block never closes (truncated source).
    """
    assert text[open_index] == "{"
    depth = 0
    for m in _BRACE_RE.finditer(text, open_index):
        if m.group() == "{":
            depth += 1
        else:
            depth -= 1
            if depth == 0:
                return m.end()
    return len(text)


# ----------------------------------------------------------------------
# Structural parse tree
# ----------------------------------------------------------------------
@dataclass
class Stmt:
    """One semicolon-terminated statement."""

    text: str
    line: int


@dataclass
class Directive:
    """One preprocessor line (``#pragma``, ``#define``, ``#include`` ...)."""

    text: str
    line: int


@dataclass
class Block:
    """A brace-delimited block: its header text and ordered children."""

    header: str
    line: int
    children: List[Union["Block", Stmt, Directive]] = field(default_factory=list)


_BLOCK_HEADER_KEYWORDS = (
    "struct", "class", "enum", "union", "namespace", "extern", "else", "do", "try",
)


def _opens_block(pending: str) -> bool:
    """Whether a ``{`` after ``pending`` starts a block (vs. a brace init).

    The generators' block openers always end in ``)`` (function bodies,
    control statements, lambdas) or are bare ``{`` lines (critical
    sections); everything else (``std::atomic<int> changed{0}``,
    ``std::vector<int>{source}``) is an initializer.
    """
    p = pending.strip()
    if not p or p.endswith(")"):
        return True
    first = p.split(None, 1)[0] if p else ""
    return first in _BLOCK_HEADER_KEYWORDS or p.endswith("else")


_TREE_TOKEN_RE = re.compile(r"[#{};()]")


def _parse_tree(stripped: str) -> Block:
    """Parse comment-stripped source into a root block.

    Driven by the structural characters ``# { } ; ( )``.  The text since
    the last statement, block or directive boundary is the pending buffer
    ``stripped[start:i]``: its newlines read as spaces, except inside
    brace initializers, which are kept verbatim.  A node's line is the
    line of its first non-blank character.

    A ``#`` that starts a buffer makes a :class:`Directive` of the rest
    of its *physical* line: a ``\\``-continuation is not followed, and
    the continued text parses as ordinary statements.  The generators
    emit no continuation lines (none in the 3396 files of the two-width
    suite).
    """
    root = Block(header="", line=1)
    stack = [root]
    children = root.children
    paren_stack: List[int] = []
    paren = 0
    n = len(stripped)
    start = 0  # the pending buffer is stripped[start:i] ...
    inits: List[Tuple[int, int]] = []  # ... minus these brace initializers
    line, line_pos = 1, 0  # line number of stripped[line_pos]
    pos = 0  # tokens before here were consumed by a directive or init
    count = stripped.count

    def buffer_text(end: int) -> str:
        if not inits:
            return stripped[start:end].replace("\n", " ")
        parts, at = [], start
        for s, e in inits:
            parts.append(stripped[at:s].replace("\n", " "))
            parts.append(stripped[s:e])
            at = e
        parts.append(stripped[at:end].replace("\n", " "))
        return "".join(parts)

    for m in _TREE_TOKEN_RE.finditer(stripped):
        i = m.start()
        if i < pos:
            continue
        pos = i + 1
        ch = m.group()
        if ch == "(":
            paren += 1
            continue
        if ch == ")":
            if paren:
                paren -= 1
            continue
        if ch == "#":
            pending = stripped[start:i]
            if pending and not pending.isspace():
                continue  # mid-statement: an ordinary character
            j = stripped.find("\n", i)
            if j < 0:
                j = n
            line += count("\n", line_pos, i)
            line_pos = i
            children.append(Directive(text=stripped[i:j].strip(), line=line))
            start = pos = j
            inits = []
            continue
        if ch == "{":
            pending = buffer_text(i)
            if _opens_block(pending):
                # A lambda body inside a call ("parallel_step([&](int tid) {")
                # opens at paren depth > 0; suspend the depth for its scope.
                header = pending.strip()
                at = start + pending.index(header[0]) if header else i
                line += count("\n", line_pos, at)
                line_pos = at
                block = Block(header=header, line=line)
                children.append(block)
                stack.append(block)
                children = block.children
                paren_stack.append(paren)
                paren = 0
                start = pos
                inits = []
                continue
            # Brace initializer: consume inline up to the matching brace.
            pos = match_brace_block(stripped, i)
            inits.append((i, pos))
            continue
        if paren:  # "}" or ";" inside parentheses
            continue
        raw = buffer_text(pos if ch == ";" else i)
        text = raw.strip()
        if text:
            at = start + raw.index(text[0])
            line += count("\n", line_pos, at)
            line_pos = at
            children.append(Stmt(text=text, line=line))
        start = pos
        inits = []
        if ch == "}" and len(stack) > 1:
            stack.pop()
            children = stack[-1].children
            paren = paren_stack.pop()
    raw = buffer_text(n)
    text = raw.strip()
    if text:
        line += count("\n", line_pos, start + raw.index(text[0]))
        children.append(Stmt(text=text, line=line))
    return root


# ----------------------------------------------------------------------
# IR dataclasses
# ----------------------------------------------------------------------
class AccessKind(enum.Enum):
    """How a statement touches a shared location."""

    READ = "read"
    WRITE = "write"  #: plain (or relaxed ``.store``) write — racy if shared
    ATOMIC_RMW = "rmw"  #: atomicMin/Add/Max, fetch_*, exchange, CAS, guarded RMW
    CAPTURE = "capture"  #: atomic RMW whose old value is consumed (slot claim)


class IndexClass(enum.Enum):
    """What the resolved index expression ranges over (Listing 1/3/4/8)."""

    ITEM = "item"  #: the work-item id itself — injective across items
    WORKLIST = "worklist"  #: ``wl[item]`` — duplicates possible (dup styles)
    NEIGHBOR = "neighbor"  #: ``nbr_list[...]`` indirect — many-to-one
    ENDPOINT = "endpoint"  #: ``src_list``/``dst_list`` endpoint — many-to-one
    SLOT = "slot"  #: claimed via an atomic capture — injective by construction
    THREAD = "thread"  #: derived from the thread/lane/tid id — per-thread slot
    LITERAL = "literal"  #: a compile-time constant — all threads collide
    SCALAR = "scalar"  #: no index: the location is a shared scalar
    OTHER = "other"  #: unresolved — treated as potentially many-to-one


class Guard(enum.Enum):
    """The synchronization context an access executes under."""

    NONE = "none"
    CRITICAL = "critical"  #: inside ``#pragma omp critical``
    ATOMIC_PRAGMA = "atomic"  #: statement under ``#pragma omp atomic``
    CAPTURE_PRAGMA = "capture"  #: statement under ``#pragma omp atomic capture``
    MUTEX = "mutex"  #: after a ``std::lock_guard`` in the same block
    REDUCTION = "reduction"  #: variable named in a ``reduction(+:...)`` clause


class RegionKind(enum.Enum):
    CUDA_KERNEL = "cuda_kernel"
    OMP_FOR = "omp_for"
    CPP_THREADS = "cpp_threads"


@dataclass(frozen=True)
class ArrayAccess:
    """One classified access to a shared location inside a parallel region."""

    array: str  #: base name (``val``, ``wl_next``, ``status_out`` ...)
    index: str  #: raw index expression ("" for scalars)
    kind: AccessKind
    index_class: IndexClass
    guard: Guard
    line: int
    rhs: str = ""  #: stored expression for writes ("" otherwise)
    condition: str = ""  #: innermost enclosing ``if`` header text

    @property
    def injective(self) -> bool:
        """Whether distinct parallel work items hit distinct cells."""
        return self.index_class in (
            IndexClass.ITEM,
            IndexClass.SLOT,
            IndexClass.THREAD,
        )


@dataclass(frozen=True)
class Loop:
    """One loop of a region's nest."""

    header: str
    var: Optional[str]
    line: int
    depth: int  #: 0 = the region's item loop


@dataclass
class ParallelRegion:
    """One parallel construct with its loop nest and classified accesses."""

    kind: RegionKind
    name: str  #: kernel/function name, or a short pragma/lambda tag
    line: int
    pragma: str  #: the owning ``#pragma omp ...`` text ("" otherwise)
    item_var: Optional[str]  #: induction variable of the item loop
    #: ``(operator, variable)`` of the pragma's ``reduction`` clause
    reduction: Optional[Tuple[str, str]] = None
    loops: List[Loop] = field(default_factory=list)
    accesses: List[ArrayAccess] = field(default_factory=list)
    env: Dict[str, str] = field(default_factory=dict)
    locals: set = field(default_factory=set)
    #: atomic intrinsics the region calls (``atomicAdd_block``, ...)
    atomic_calls: set = field(default_factory=set)
    body: str = ""  #: flattened statement text (joined, for call/guard probes)

    def accesses_to(self, array: str) -> List[ArrayAccess]:
        return [a for a in self.accesses if a.array == array]

    def arrays(self) -> List[str]:
        seen: Dict[str, None] = {}
        for a in self.accesses:
            seen.setdefault(a.array, None)
        return list(seen)


#: one shared empty callee set (an empty ``frozenset()`` call allocates)
_NO_CALLS: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class FunctionInfo:
    """One function definition found at file scope."""

    name: str
    header: str
    line: int
    is_kernel: bool  #: ``__global__``
    is_device: bool  #: ``__device__``
    #: a kernel's parameter names in declaration order (what its launches
    #: bind); empty for other functions
    params: Tuple[str, ...] = ()
    #: names the body calls (see ``_block_calls``); collected for
    #: ``__device__`` functions only, the only functions a kernel can call
    calls: FrozenSet[str] = _NO_CALLS


@dataclass(frozen=True)
class KernelLaunch:
    """One host-side ``kernel<<<grid, block>>>(args)`` launch."""

    kernel: str
    #: the argument expressions, with object-like ``#define`` arguments
    #: (``RELAX_ARGS``) expanded one level
    args: Tuple[str, ...]
    line: int


@dataclass
class SourceIR:
    """The parsed form of one emitted source file."""

    includes: List[str]
    defines: Dict[str, str]
    typedefs: Dict[str, str]
    functions: List[FunctionInfo]
    launches: List[KernelLaunch]
    regions: List[ParallelRegion]
    text: str  #: the comment-stripped source

    def has_include(self, name: str) -> bool:
        return any(name in inc for inc in self.includes)

    def region_bodies(self) -> str:
        return "\n".join(r.body for r in self.regions)


# ----------------------------------------------------------------------
# Region extraction
# ----------------------------------------------------------------------
_GLOBAL_RE = re.compile(r"__global__\s+void\s+(\w+)")
_FOR_VAR_RE = re.compile(r"for\s*\(\s*(?:[\w:<>]+\s+)*?(\w+)\s*=")
_FOR_CONT_RE = re.compile(r"for\s*\(\s*;\s*(\w+)")
_DECL_RE = re.compile(
    r"^(?:const\s+|static\s+|unsigned\s+|signed\s+|long\s+|short\s+)*"
    r"(?:[\w:]+(?:<[^;{}()]*>)?)(?:\s*[*&]+\s*|\s+)(\w+)\s*(?:=|;|\{|,|\[)"
)
_ASSIGN_RE = re.compile(r"(\*?\w+(?:\[[^\]]*\])?)\s*(?<![=!<>+\-*/%&|^])=(?!=)\s*")
_INT_LITERAL_RE = re.compile(r"^[({\s]*-?\d+[)}\s]*$")
_CAST_RE = re.compile(r"\((?:int|long long|val_t|rank_t|size_t|signed char)\)")
_DECLARATOR_RE = re.compile(r"(\w+)\s*(?:=|;|$|\{|\[)")
_WORD_RE = re.compile(r"\w+")
_FOR_HEAD_RE = re.compile(r"\s*for\s*\(")
_INLINE_FOR_RE = re.compile(r"\s*for\s*\(([^;]*);[^;]*;[^)]*\)\s*(.*)$")
_REDUCTION_RE = re.compile(r"reduction\s*\(\s*([+*])\s*:\s*(\w+)")
_WORKLIST_INDEX_RE = re.compile(r"^wl\s*\[")
_ATOMIC_ADD_CALL_RE = re.compile(r"\batomicAdd\s*\(")
_POST_INCREMENT_RE = re.compile(r"\w+\s*\+\+")
_OPEN_BRACKET_END_RE = re.compile(r"\[\s*$")
_OPEN_PAREN_END_RE = re.compile(r"\(\s*$")
_TYPEDEF_RE = re.compile(r"typedef\s+(.+?)\s+(\w+)\s*;")
_CALL_NAME_RE = re.compile(r"([A-Za-z_]\w*)\s*\(")
_POINTER_PARAM_RE = re.compile(r"[*&]\s*(?:__restrict__\s+)?(\w+)\s*$")
_PARAM_NAME_RE = re.compile(r"(\w+)\s*(?:\[[^\]]*\]\s*)*$")
_LAUNCH_RE = re.compile(r"(\w+)\s*<<<.*?>>>\s*\((.*)\)\s*;?\s*$")

#: declaration keywords that precede a variable name
_TYPE_WORDS = frozenset(
    "const static signed unsigned int long float double bool char auto void".split()
)


def _loop_var(header: str) -> Optional[str]:
    m = _FOR_VAR_RE.search(header)
    if m:
        return m.group(1)
    m = _FOR_CONT_RE.search(header)
    if m:
        return m.group(1)
    return None


def _declared_names(stmt_text: str) -> List[str]:
    """Names declared by a statement (``const int v = ...``, ``int a, b;``)."""
    t = stmt_text.strip().rstrip(";").strip()
    m = _DECL_RE.match(t + ";")
    if not m:
        return []
    names = [m.group(1)]
    # Multi-declarations: "const int s = g.src_list[v], d = g.dst_list[v]".
    for part in _split_top_level(t):
        part = part.strip()
        pm = _DECLARATOR_RE.match(part)
        if pm and pm.group(1) not in _TYPE_WORDS and pm.group(1) not in names:
            # Only count pieces that look like follow-on declarators.
            if "=" in part or _WORD_RE.fullmatch(part):
                names.append(pm.group(1))
    return names


_SPLIT_TOKEN_RE = re.compile(r"[(\[{<)\]}>,]")


def _split_top_level(text: str) -> List[str]:
    """Split on the commas outside ``()``, ``[]``, ``{}`` and ``<>``."""
    if "," not in text:
        return [text]
    out, depth, start = [], 0, 0
    for m in _SPLIT_TOKEN_RE.finditer(text):
        ch = m.group()
        if ch == ",":
            if depth == 0:
                out.append(text[start : m.start()])
                start = m.end()
        elif ch in "([{<":
            depth += 1
        elif depth:
            depth -= 1
    out.append(text[start:])
    return out


def _assignments(stmt_text: str) -> List[Tuple[str, str]]:
    """All top-level ``name = expr`` pairs in one statement."""
    pairs = []
    t = stmt_text.strip().rstrip(";")
    for piece in _split_top_level(t):
        m = _ASSIGN_RE.search(piece)
        if not m:
            continue
        lhs = m.group(1).lstrip("*").strip()
        rhs = piece[m.end():].strip()
        if "[" in lhs:  # array-element store, not a dataflow definition
            continue
        pairs.append((lhs, rhs))
    return pairs


# -- atomic-call patterns ----------------------------------------------
_ATOMIC_HEAD_RE = re.compile(
    r"\b(atomicMin|atomicMax|atomicAdd_block|atomicAdd|atomic_min|atomic_fetch_add)"
    r"\s*\(\s*&?\s*([\w.]+)\s*"
)
_METHOD_NAME_RE = re.compile(
    r"\.\s*(fetch_min|fetch_add|fetch_max|exchange|compare_exchange_weak"
    r"|store|load)\s*\("
)
_PLAIN_ARRAY_RE = re.compile(r"\b(\w+)\s*\[")
_LVALUE_HEAD_RE = re.compile(r"^\s*\*?\s*([\w.]+)")
_WRITE_OP_RE = re.compile(r"\s*(\+\+|(?:[+\-*/|&^])?=(?!=))")
_INLINE_HEAD_RE = re.compile(r"\s*(?:else\s+)?(for|if|while)\s*\(")
_BARE_ELSE_RE = re.compile(r"\s*else\b(?!\s+(?:if|for|while)\b)")
_BRACKET_RE = re.compile(r"[\[\]]")
#: ``std::lock_guard<...> name(mutex);`` — the one statement that takes
#: a mutex for the rest of its block
_LOCK_GUARD_RE = re.compile(
    r"\s*std::lock_guard\s*<[^;]*>\s*\w+\s*[({]\s*\w+\s*[)}]\s*;?\s*$"
)


def _scan_bracket(text: str, start: int) -> Optional[int]:
    """``text[start] == '['``: index just past the matching ``]``, or None.

    Handles nested subscripts (``stat[g.nbr_list[k]]``), which a
    first-``]`` regex group silently truncates.
    """
    close = text.find("]", start)
    if close >= 0 and text.find("[", start + 1, close) < 0:
        return close + 1  # no nested subscript
    depth = 0
    for m in _BRACKET_RE.finditer(text, start):
        if m.group() == "[":
            depth += 1
        else:
            depth -= 1
            if depth == 0:
                return m.end()
    return None


def _iter_atomic_calls(text: str):
    """Yield ``(intrinsic, target, bracket, span, call_start)`` for every
    atomic intrinsic call."""
    for m in _ATOMIC_HEAD_RE.finditer(text):
        bracket = None
        end = m.end()
        if end < len(text) and text[end] == "[":
            close = _scan_bracket(text, end)
            if close is not None:
                bracket = text[end:close]
                end = close
        # Leave the index sub-expression outside the consumed span so the
        # read pass still records arrays mentioned inside it.
        span_end = m.end() + 1 if bracket else end
        yield m.group(1), m.group(2), bracket, (m.start(), span_end), m.start()


def _iter_method_calls(text: str):
    """Yield ``(target, bracket, method, spans, call_start)`` for
    ``x[...].fetch_min(...)``-style std::atomic method calls, scanning
    backwards through nested subscripts from the method name."""
    for m in _METHOD_NAME_RE.finditer(text):
        pos = m.start() - 1
        while pos >= 0 and text[pos].isspace():
            pos -= 1
        bracket = None
        bracket_start = None
        if pos >= 0 and text[pos] == "]":
            depth, j = 0, pos
            while j >= 0:
                if text[j] == "]":
                    depth += 1
                elif text[j] == "[":
                    depth -= 1
                    if depth == 0:
                        break
                j -= 1
            if j < 0:
                continue
            bracket, bracket_start = text[j : pos + 1], j
            pos = j - 1
            while pos >= 0 and text[pos].isspace():
                pos -= 1
        end_id = pos + 1
        while pos >= 0 and (text[pos].isalnum() or text[pos] == "_"):
            pos -= 1
        target = text[pos + 1 : end_id]
        if not target:
            continue
        spans = (
            [(pos + 1, bracket_start + 1), (m.start(), m.end())]
            if bracket is not None
            else [(pos + 1, m.end())]
        )
        yield target, bracket, m.group(1), spans, pos + 1


def _peel_inline_heads(text: str) -> Tuple[int, List[str]]:
    """Consume leading ``for (...)`` / ``if (...)`` wrappers of a one-line
    statement; return (core start offset, peeled condition headers)."""
    conds: List[str] = []
    pos = 0
    bare_else = _BARE_ELSE_RE.match(text)
    if bare_else:
        pos = bare_else.end()
    while True:
        m = _INLINE_HEAD_RE.match(text, pos)
        if not m:
            break
        depth, i, close = 0, m.end() - 1, None
        while i < len(text):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    close = i
                    break
            i += 1
        if close is None:
            break
        if m.group(1) in ("if", "while"):
            conds.append(text[m.start() : close + 1].strip())
        pos = close + 1
    return pos, conds


def _match_write_lhs(text: str):
    """Depth-aware replacement for the old write-LHS regex: returns
    ``(target, bracket, op, lhs_start, op_end)`` or None."""
    hm = _LVALUE_HEAD_RE.match(text)
    if not hm:
        return None
    target, pos = hm.group(1), hm.end()
    bracket = None
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos < len(text) and text[pos] == "[":
        close = _scan_bracket(text, pos)
        if close is None:
            return None
        bracket, pos = text[pos:close], close
    om = _WRITE_OP_RE.match(text, pos)
    if not om:
        return None
    return target, bracket, om.group(1), hm.start(1), om.end()

_GRAPH_ARRAYS = frozenset(
    {"nbr_idx", "nbr_list", "e_weight", "src_list", "dst_list", "deg", "wl"}
)


def _bracket_expr(raw: Optional[str]) -> str:
    if not raw:
        return ""
    return raw.strip()[1:-1].strip()


class _RegionBuilder:
    """Walks one region's block tree, classifying accesses as it goes."""

    def __init__(self, kind: RegionKind, name: str, line: int, pragma: str):
        self.region = ParallelRegion(
            kind=kind, name=name, line=line, pragma=pragma, item_var=None
        )
        self.body_parts: List[str] = []
        red = _REDUCTION_RE.search(pragma or "")
        self.region.reduction = red.groups() if red else None
        self.reduction_var = red.group(2) if red else None
        self.capture_vars: set = set()

    # -- dataflow ------------------------------------------------------
    def note_declarations(self, stmt_text: str) -> None:
        for name in _declared_names(stmt_text):
            self.region.locals.add(name)

    def note_assignments(self, stmt_text: str, guard: Guard) -> None:
        for lhs, rhs in _assignments(stmt_text):
            self.region.env[lhs] = rhs
            if guard is Guard.CAPTURE_PRAGMA or _is_capture_rhs(rhs):
                self.capture_vars.add(lhs)

    def resolve_index(self, expr: str) -> IndexClass:
        return _classify_index(
            expr, self.region.env, self.region.item_var, self.capture_vars
        )

    # -- access emission -----------------------------------------------
    def add_access(
        self,
        array: str,
        index_raw: Optional[str],
        kind: AccessKind,
        guard: Guard,
        line: int,
        rhs: str = "",
        condition: str = "",
    ) -> None:
        array = array.split(".")[-1] if array.startswith("g.") else array
        if array in self.region.locals:
            return
        index = _bracket_expr(index_raw)
        if index_raw is None:
            icls = IndexClass.SCALAR
        else:
            icls = self.resolve_index(index)
        if array == self.reduction_var and kind is AccessKind.WRITE:
            guard = Guard.REDUCTION
        self.region.accesses.append(
            ArrayAccess(
                array=array,
                index=index,
                kind=kind,
                index_class=icls,
                guard=guard,
                line=line,
                rhs=rhs.strip(),
                condition=condition.strip(),
            )
        )

    def scan_statement(self, stmt: Stmt, guard: Guard, condition: str) -> None:
        # Inline single-statement loops: "for (...) body;" — classify the
        # body with the loop var in scope.
        if _FOR_HEAD_RE.match(stmt.text):
            var = _loop_var(stmt.text)
            self.region.loops.append(
                Loop(
                    header=stmt.text,
                    var=var,
                    line=stmt.line,
                    depth=len(self.region.loops),
                )
            )
            if var:
                self.region.locals.add(var)
                self.region.env[var] = var  # self-definition: a raw loop index
            if self.region.item_var is None:
                self.region.item_var = var
        self.scan_text(stmt.text, stmt.line, guard, condition)

    def scan_text(
        self, text: str, line: int, guard: Guard, condition: str
    ) -> None:
        """Extract and classify every access in one statement/header text."""
        self.body_parts.append(text)
        self.note_declarations(text)
        # A for-header is "init; test; step" — recording "test; step)" as
        # the induction variable's defining expression poisons every index
        # that resolves through it, so headers keep env.setdefault(var, var).
        is_for_header = bool(_FOR_HEAD_RE.match(text))
        if not is_for_header:
            self.note_assignments(text, guard)
        consumed_spans: List[Tuple[int, int]] = []

        # 1) atomic call forms
        for intrinsic, target, bracket, span, call_start in _iter_atomic_calls(
            text
        ):
            self.region.atomic_calls.add(intrinsic)
            kind = AccessKind.ATOMIC_RMW
            prefix = text[:call_start]
            if _ASSIGN_RE.search(prefix.split(";")[-1]) or (
                prefix.rstrip()[-1:] in ("=", "(")
            ):
                kind = AccessKind.CAPTURE
            self.add_access(
                target, bracket, kind, guard, line, condition=condition
            )
            consumed_spans.append(span)

        # 2) std::atomic method forms
        for target, bracket, method, spans, call_start in _iter_method_calls(
            text
        ):
            if method == "load":
                kind = AccessKind.READ
            elif method == "store":
                kind = AccessKind.WRITE
            elif method in ("fetch_add", "exchange") and _used_as_value(
                text, call_start
            ):
                kind = AccessKind.CAPTURE
            else:
                kind = AccessKind.ATOMIC_RMW
            rhs = ""
            if kind is AccessKind.WRITE:
                # ".store(1, std::memory_order_relaxed)" stores 1: the
                # memory-order argument is not part of the value.
                method_end = spans[-1][1]
                rhs = text[method_end:].split(")")[0].split(",")[0]
            self.add_access(
                target, bracket, kind, guard, line, rhs=rhs,
                condition=condition,
            )
            consumed_spans.extend(spans)

        # 3) plain write on the statement's left-hand side.  One-line
        # statements keep their control wrappers ("if (..) cell = v;"), so
        # peel those first — the peeled if-headers join the condition
        # context (they gate the store, which the race rules inspect).
        core_start, inline_conds = _peel_inline_heads(text)
        store_condition = " && ".join(
            ([condition] if condition else []) + inline_conds
        )
        wm = _match_write_lhs(text[core_start:])
        if wm:
            target, bracket, op, lhs_rel, op_rel_end = wm
            lhs_start = core_start + lhs_rel
            op_end = core_start + op_rel_end
            looks_decl = bool(_DECL_RE.match(text[core_start:].strip()))
            if not looks_decl and not any(
                s <= lhs_start < e for s, e in consumed_spans
            ):
                # Normalize compound assignments into explicit RMW form so
                # the race rules can see the cell on the right-hand side.
                if op == "++":
                    rhs = f"{target} + 1"
                elif op != "=":
                    tail = text[op_end:].rstrip(";").strip()
                    rhs = f"{target} {op[0]} ({tail})"
                else:
                    rhs = text[op_end:].rstrip(";").strip()
                kind = AccessKind.WRITE
                if guard in (Guard.ATOMIC_PRAGMA, Guard.CRITICAL, Guard.MUTEX):
                    kind = AccessKind.ATOMIC_RMW
                elif guard is Guard.CAPTURE_PRAGMA:
                    kind = AccessKind.CAPTURE
                self.add_access(
                    target, bracket, kind, guard, line, rhs=rhs,
                    condition=store_condition or condition,
                )
                # Consume the target name and its opening bracket only, so
                # arrays inside the subscript still surface as reads below.
                consumed_spans.append(
                    (lhs_start, lhs_start + len(target) + (1 if bracket else 0))
                )

        # 4) remaining bracketed occurrences are reads
        for m in _PLAIN_ARRAY_RE.finditer(text):
            if any(s <= m.start() < e for s, e in consumed_spans):
                continue
            name = m.group(1)
            if name in ("g", "if", "for", "while", "int") or name in self.region.locals:
                continue
            close = _scan_bracket(text, m.end() - 1)
            if close is None:
                continue
            self.add_access(
                name, text[m.end() - 1 : close],
                AccessKind.READ, guard, line, condition=condition,
            )

    # -- tree walk ------------------------------------------------------
    def walk(self, block: Block, depth: int, guard: Guard, condition: str) -> None:
        pending_guard: Optional[Guard] = None
        mutex_held = False
        for child in block.children:
            if isinstance(child, Directive):
                d = child.text
                if d.startswith("#pragma omp critical"):
                    pending_guard = Guard.CRITICAL
                elif d.startswith("#pragma omp atomic capture"):
                    pending_guard = Guard.CAPTURE_PRAGMA
                elif d.startswith("#pragma omp atomic"):
                    pending_guard = Guard.ATOMIC_PRAGMA
                continue
            child_guard = pending_guard or (Guard.MUTEX if mutex_held else guard)
            pending_guard = None
            if isinstance(child, Stmt):
                if _LOCK_GUARD_RE.match(child.text):
                    mutex_held = True
                    self.body_parts.append(child.text)
                    continue
                self.scan_statement(child, child_guard, condition)
            else:  # Block
                header = child.header
                new_condition = condition
                if header.startswith(("for", "while")):
                    var = _loop_var(header)
                    self.region.loops.append(
                        Loop(header=header, var=var, line=child.line, depth=depth)
                    )
                    if var:
                        # A for-header declaration scopes the var locally;
                        # map it to itself so indices resolve to "raw loop
                        # index" unless an assignment refines it.
                        if _FOR_VAR_RE.search(header):
                            self.region.locals.add(var)
                        self.region.env.setdefault(var, var)
                    if self.region.item_var is None:
                        self.region.item_var = var
                    self.scan_text(header, child.line, child_guard, condition)
                    self.walk(child, depth + 1, child_guard, new_condition)
                elif header.startswith("if"):
                    new_condition = header
                    # Headers carry accesses too — reads, and atomics used
                    # as conditions ("if (atomicMax(&stat[u], itr) != itr)").
                    self.scan_text(header, child.line, child_guard, condition)
                    self.walk(child, depth, child_guard, new_condition)
                else:  # bare critical block, lambdas, else-blocks ...
                    self.body_parts.append(header)
                    self.walk(child, depth, child_guard, new_condition)

    def finish(self) -> ParallelRegion:
        self.region.body = "\n".join(self.body_parts)
        return self.region


def _is_capture_rhs(rhs: str) -> bool:
    return bool(
        _ATOMIC_ADD_CALL_RE.search(rhs)
        or ".fetch_add(" in rhs
        or _POST_INCREMENT_RE.search(rhs)
    )


def _used_as_value(text: str, call_start: int) -> bool:
    """Whether a fetch_add/exchange result is consumed (index or compare)."""
    prefix = text[:call_start]
    return bool(
        _OPEN_BRACKET_END_RE.search(prefix)
        or _ASSIGN_RE.search(prefix.split(";")[-1])
        or _OPEN_PAREN_END_RE.search(prefix)
        or "if" in prefix.split(";")[-1]
    )


def _classify_index(
    expr: str,
    env: Dict[str, str],
    item_var: Optional[str],
    capture_vars: set,
    _depth: int = 0,
) -> IndexClass:
    e = _CAST_RE.sub("", expr).strip()
    e = e.strip("()").strip()
    if not e:
        return IndexClass.SCALAR
    if _INT_LITERAL_RE.match(e):
        return IndexClass.LITERAL
    if ".fetch_add(" in e or "atomicAdd" in e or "++" in e:
        return IndexClass.SLOT
    if "nbr_list[" in e:
        return IndexClass.NEIGHBOR
    if "src_list[" in e or "dst_list[" in e:
        return IndexClass.ENDPOINT
    if _WORKLIST_INDEX_RE.match(e):
        return IndexClass.WORKLIST
    if "threadIdx" in e or "blockIdx" in e or e in ("tid", "lane", "wid", "gidx"):
        return IndexClass.THREAD
    if _depth > 8:
        return IndexClass.OTHER
    if e in capture_vars:
        return IndexClass.SLOT
    if item_var is not None and e == item_var:
        return IndexClass.ITEM
    # Simple arithmetic on a resolvable base ("item + 1", "expr + k") keeps
    # the base's class only for pure additive-with-constant forms.
    if e in env and env[e] != e:
        return _classify_index(env[e], env, item_var, capture_vars, _depth + 1)
    if e in env and env[e] == e:
        # A raw loop index: the region's own item loop var is the item;
        # inner loop indices walk neighbor/edge ranges.
        return IndexClass.ITEM if e == item_var else IndexClass.NEIGHBOR
    return IndexClass.OTHER


# ----------------------------------------------------------------------
# File-level extraction
# ----------------------------------------------------------------------
def _extract_file_facts(
    root: Block,
) -> Tuple[
    List[str], Dict[str, str], Dict[str, str], List[FunctionInfo],
    List[KernelLaunch],
]:
    includes: List[str] = []
    defines: Dict[str, str] = {}
    typedefs: Dict[str, str] = {}
    functions: List[FunctionInfo] = []
    launches: List[Tuple[str, str, int]] = []

    def visit(block: Block) -> None:
        for child in block.children:
            if isinstance(child, Directive):
                t = child.text
                if t.startswith("#include"):
                    includes.append(t[len("#include"):].strip())
                elif t.startswith("#define"):
                    parts = t.split(None, 2)
                    if len(parts) >= 2:
                        defines[parts[1].split("(")[0]] = (
                            parts[2] if len(parts) > 2 else ""
                        )
            elif isinstance(child, Stmt):
                m = _TYPEDEF_RE.match(child.text)
                if m:
                    typedefs[m.group(2)] = m.group(1)
                elif "<<<" in child.text:
                    m = _LAUNCH_RE.search(child.text)
                    if m:
                        launches.append((m.group(1), m.group(2), child.line))
            elif isinstance(child, Block):
                header = child.header
                if "(" in header and not header.startswith(
                    ("for", "if", "while", "switch")
                ):
                    name_m = _CALL_NAME_RE.search(header)
                    if name_m:
                        is_kernel = "__global__" in header
                        is_device = "__device__" in header
                        functions.append(
                            FunctionInfo(
                                name=name_m.group(1),
                                header=header,
                                line=child.line,
                                is_kernel=is_kernel,
                                is_device=is_device,
                                params=_param_names(header) if is_kernel else (),
                                calls=_block_calls(child) if is_device else _NO_CALLS,
                            )
                        )
                visit(child)

    visit(root)
    return includes, defines, typedefs, functions, [
        KernelLaunch(kernel=kernel, args=_launch_args(args, defines), line=line)
        for kernel, args, line in launches
    ]


def _param_names(header: str) -> Tuple[str, ...]:
    """Parameter names of a function signature, in declaration order
    (interned, like launch arguments)."""
    if "(" not in header:
        return ()
    params = header[header.index("(") + 1 :].rstrip(") ")
    names = []
    for piece in _split_top_level(params):
        m = _PARAM_NAME_RE.search(piece)
        if m:
            names.append(sys.intern(m.group(1)))
    return tuple(names)


def _block_calls(block: Block) -> FrozenSet[str]:
    """Every name followed by ``(`` anywhere in ``block`` (callees, and
    control keywords such as ``for``), nested blocks included."""
    names = set()
    for child in block.children:
        if isinstance(child, Stmt):
            names.update(_CALL_NAME_RE.findall(child.text))
        elif isinstance(child, Block):
            names.update(_CALL_NAME_RE.findall(child.header))
            names |= _block_calls(child)
    return frozenset(names)


def _launch_args(text: str, defines: Dict[str, str]) -> Tuple[str, ...]:
    """Split a launch's argument list, expanding object-like macro
    arguments (``RELAX_ARGS``) one level.  Names are interned: the
    memoized IRs of a suite repeat the same few hundred."""
    args: List[str] = []
    for arg in _split_top_level(text):
        arg = arg.strip()
        if arg in defines:
            args.extend(sys.intern(a.strip()) for a in _split_top_level(defines[arg]))
        elif arg:
            args.append(sys.intern(arg))
    return tuple(args)


def _kernel_param_arrays(header: str) -> List[str]:
    """Pointer parameter names of a kernel signature (shared arrays)."""
    if "(" not in header:
        return []
    params = header[header.index("(") + 1 :]
    out = []
    for piece in _split_top_level(params.rstrip(") ")):
        piece = piece.strip()
        m = _POINTER_PARAM_RE.search(piece)
        if m:
            out.append(m.group(1))
    return out


def _stmt_region(
    kind: RegionKind, name: str, stmt: Stmt, pragma: str
) -> ParallelRegion:
    """A region whose whole body is one inline ``for (...) stmt;`` line."""
    builder = _RegionBuilder(kind, name, stmt.line, pragma)
    m = _INLINE_FOR_RE.match(stmt.text)
    body = stmt.text
    if m:
        var = _loop_var(stmt.text)
        builder.region.item_var = var
        builder.region.loops.append(
            Loop(header=stmt.text, var=var, line=stmt.line, depth=0)
        )
        if var:
            builder.region.locals.add(var)
            builder.region.env[var] = var
        body = m.group(2)
    builder.scan_statement(Stmt(text=body, line=stmt.line), Guard.NONE, "")
    return builder.finish()


def _collect_regions(root: Block) -> List[ParallelRegion]:
    regions: List[ParallelRegion] = []

    def visit(block: Block) -> None:
        pending_pragma: Optional[Directive] = None
        for child in block.children:
            if isinstance(child, Directive):
                if child.text.startswith("#pragma omp parallel for"):
                    pending_pragma = child
                continue
            if pending_pragma is not None:
                pragma = pending_pragma.text
                pending_pragma = None
                if isinstance(child, Block) and child.header.startswith("for"):
                    builder = _RegionBuilder(
                        RegionKind.OMP_FOR, "omp parallel for", child.line, pragma
                    )
                    var = _loop_var(child.header)
                    builder.region.item_var = var
                    builder.region.loops.append(
                        Loop(header=child.header, var=var, line=child.line, depth=0)
                    )
                    if var:
                        builder.region.locals.add(var)
                        builder.region.env[var] = var
                    builder.walk(child, 1, Guard.NONE, "")
                    regions.append(builder.finish())
                    visit_skip(child)
                    continue
                if isinstance(child, Stmt) and child.text.lstrip().startswith("for"):
                    regions.append(
                        _stmt_region(
                            RegionKind.OMP_FOR, "omp parallel for", child, pragma
                        )
                    )
                    continue
            if isinstance(child, Block):
                header = child.header
                if "__global__" in header:
                    m = _GLOBAL_RE.search(header)
                    name = m.group(1) if m else "kernel"
                    builder = _RegionBuilder(
                        RegionKind.CUDA_KERNEL, name, child.line, ""
                    )
                    # The generators always call the work-item id `item`
                    # (nonpersistent kernels guard it with `if`, so no
                    # loop header names it).
                    builder.region.item_var = "item"
                    for p in _kernel_param_arrays(header):
                        builder.region.env.setdefault(p, p + "[param]")
                    builder.walk(child, 0, Guard.NONE, "")
                    regions.append(builder.finish())
                    continue
                if "parallel_step(" in header and "void" not in header:
                    builder = _RegionBuilder(
                        RegionKind.CPP_THREADS, "parallel_step", child.line, ""
                    )
                    builder.region.locals.add("tid")
                    builder.walk(child, 0, Guard.NONE, "")
                    regions.append(builder.finish())
                    continue
                visit(child)

    def visit_skip(block: Block) -> None:  # regions never nest in this suite
        return

    visit(root)
    return regions


@lru_cache(maxsize=4096)
def parse_source(text: str) -> SourceIR:
    """Parse one emitted source into its :class:`SourceIR`.

    Memoized on the source text, so repeated ``lint_suite`` calls in one
    process — e.g. the analyze CI gate plus the analysis tests — reuse
    each file's parse.
    """
    stripped = strip_comments(text)
    root = _parse_tree(stripped)
    includes, defines, typedefs, functions, launches = _extract_file_facts(root)
    regions = _collect_regions(root)
    return SourceIR(
        includes=includes,
        defines=defines,
        typedefs=typedefs,
        functions=functions,
        launches=launches,
        regions=regions,
        text=stripped,
    )
