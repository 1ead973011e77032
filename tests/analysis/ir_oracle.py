"""Frozen character-walk reference for the IR lexer and tree parser.

These are the original per-character implementations of
``strip_comments``, ``match_brace_block``, ``_opens_block``,
``_parse_tree``, ``_split_top_level`` and ``_scan_bracket`` from
:mod:`repro.analysis.ir`, kept verbatim as a test oracle.  The module
itself runs regex-driven versions; ``test_ir_oracle.py`` checks that both
produce identical stripped text, ``Block`` trees and ``SourceIR``
objects.  Do not edit these bodies: they pin the parser's behaviour.
"""

from typing import List, Optional
from unittest import mock

from repro.analysis import ir
from repro.analysis.ir import Block, Directive, SourceIR, Stmt


# ----------------------------------------------------------------------
# Lexer
# ----------------------------------------------------------------------
def strip_comments(text: str) -> str:
    """Blank out comments and string/char literals, keeping the layout.

    Every replaced character becomes a space (newlines survive), so line
    numbers and column structure of the result match the input exactly.
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif ch == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif ch in "\"'":
            quote = ch
            out[i] = " "
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                        i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                i += 1
        else:
            i += 1
    return "".join(out)


def match_brace_block(text: str, open_index: int) -> int:
    """Index just past the ``}`` matching the ``{`` at ``open_index``.

    ``text`` must already be comment/string-stripped.  Returns ``len(text)``
    when the block never closes (truncated source).
    """
    assert text[open_index] == "{"
    depth = 0
    for i in range(open_index, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


# ----------------------------------------------------------------------
# Structural parse tree
# ----------------------------------------------------------------------
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


def _parse_tree(stripped: str) -> Block:
    """Parse comment-stripped source into a root block."""
    root = Block(header="", line=1)
    stack = [root]
    paren_stack: List[int] = []
    buf: List[str] = []
    buf_line = 1
    line = 1
    paren = 0
    i, n = 0, len(stripped)

    def flush_stmt() -> None:
        nonlocal buf, buf_line
        text = "".join(buf).strip()
        if text:
            stack[-1].children.append(Stmt(text=text, line=buf_line))
        buf = []
        buf_line = line

    while i < n:
        ch = stripped[i]
        # Preprocessor directives own the rest of their (logical) line.
        if ch == "#" and not "".join(buf).strip():
            j = i
            while j < n and stripped[j] != "\n":
                j += 1
            stack[-1].children.append(
                Directive(text=stripped[i:j].strip(), line=line)
            )
            i = j
            buf = []
            buf_line = line
            continue
        if ch == "\n":
            line += 1
            buf.append(" ")
            if not "".join(buf).strip():
                buf_line = line
            i += 1
            continue
        if ch == "(":
            paren += 1
        elif ch == ")":
            paren = max(0, paren - 1)
        if ch == "{":
            pending = "".join(buf)
            if _opens_block(pending):
                # A lambda body inside a call ("parallel_step([&](int tid) {")
                # opens at paren depth > 0; suspend the depth for its scope.
                block = Block(header=pending.strip(), line=buf_line)
                stack[-1].children.append(block)
                stack.append(block)
                paren_stack.append(paren)
                paren = 0
                buf = []
                buf_line = line
                i += 1
                continue
            # Brace initializer: consume inline up to the matching brace.
            end = match_brace_block(stripped, i)
            chunk = stripped[i:end]
            line += chunk.count("\n")
            buf.append(chunk)
            i = end
            continue
        if ch == "}" and paren == 0:
            flush_stmt()
            if len(stack) > 1:
                stack.pop()
                paren = paren_stack.pop() if paren_stack else 0
            i += 1
            continue
        if ch == ";" and paren == 0:
            buf.append(";")
            flush_stmt()
            i += 1
            continue
        buf.append(ch)
        i += 1
    flush_stmt()
    return root


# ----------------------------------------------------------------------
# Region-extraction scanners
# ----------------------------------------------------------------------
def _split_top_level(text: str, sep: str) -> List[str]:
    out, depth, cur = [], 0, []
    for ch in text:
        if ch in "([{<":
            depth += 1
        elif ch in ")]}>":
            depth = max(0, depth - 1)
        if ch == sep and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return out


def _scan_bracket(text: str, start: int) -> Optional[int]:
    """``text[start] == '['``: index just past the matching ``]``, or None.

    Handles nested subscripts (``stat[g.nbr_list[k]]``), which a
    first-``]`` regex group silently truncates.
    """
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "[":
            depth += 1
        elif text[i] == "]":
            depth -= 1
            if depth == 0:
                return i + 1
    return None


# ----------------------------------------------------------------------
# Whole-file reference
# ----------------------------------------------------------------------
def source_ir(stripped: str, root: Block) -> SourceIR:
    """The ``SourceIR`` that ``ir.parse_source`` builds from ``stripped``
    and its tree ``root``, with the frozen scanners above swapped in.

    Region extraction itself is the module's; only its bracket and comma
    scanners are the frozen ones, so a difference from
    ``ir.parse_source`` isolates the rewritten lexer, parser and scanners.
    """
    with mock.patch.multiple(
        ir,
        _scan_bracket=_scan_bracket,
        _split_top_level=lambda text: _split_top_level(text, ","),
    ):
        includes, defines, typedefs, functions, launches = (
            ir._extract_file_facts(root)
        )
        regions = ir._collect_regions(root)
    return SourceIR(
        includes=includes,
        defines=defines,
        typedefs=typedefs,
        functions=functions,
        launches=launches,
        regions=regions,
        text=stripped,
    )
