"""Differential test: the regex-driven IR lexer and parser against the
frozen character-walk oracle (``ir_oracle.py``).

Two sources of input: seeded random C-like fragments built from the
characters and constructs the lexer and parser special-case, and every
file of the full generated suite.  Outputs must be identical — stripped
text, ``Block`` tree, scanner results and the whole ``SourceIR``.
"""

import random

import pytest

from repro.analysis import ir
from tests.analysis import ir_oracle

pytestmark = pytest.mark.analysis

#: Building blocks of the fuzz fragments: every character the lexer or the
#: tree parser treats specially, plus the constructs whose braces must be
#: told apart (lambda heads, brace initializers, keyword blocks).
ATOMS = (
    "/", "*", '"', "'", "\\", "\n", "#", "{", "}", "(", ")", ";", ",",
    "[", "]", "<", ">", " ", "  ", "\t", "\r", "a", "x = 1", "f(x)",
    "int ", "v[i]", "g.nbr_list[k]", "//", "/*", "*/", "\\\n",
    "[&](int t) {", "std::vector<int>{1,2}", "std::atomic<int> c{0}",
    "for (int i = 0; i < n; i++) {", "if (x) ", "else {", "do {",
    "struct S {", "#pragma omp parallel for\n", "#define M(a) (a)\n",
    "#include <omp.h>\n", '"s;{"', "'}'", "'\\''", '"\\\\"',
)

SEED = 14
FRAGMENTS = 8000


def fragments():
    rng = random.Random(SEED)
    for _ in range(FRAGMENTS):
        yield "".join(rng.choice(ATOMS) for _ in range(rng.randint(0, 40)))


class TestFuzz:
    def test_strip_comments(self):
        for frag in fragments():
            assert ir.strip_comments(frag) == ir_oracle.strip_comments(frag), frag

    def test_parse_tree(self):
        for frag in fragments():
            # The raw fragment too: its quotes and comment markers reach
            # the parser as ordinary characters.
            for text in (ir_oracle.strip_comments(frag), frag):
                assert ir._parse_tree(text) == ir_oracle._parse_tree(text), text

    def test_scanners(self):
        for frag in fragments():
            for i, ch in enumerate(frag):
                if ch == "{":
                    assert ir.match_brace_block(
                        frag, i
                    ) == ir_oracle.match_brace_block(frag, i), (frag, i)
                elif ch == "[":
                    assert ir._scan_bracket(frag, i) == ir_oracle._scan_bracket(
                        frag, i
                    ), (frag, i)
            assert ir._split_top_level(frag) == ir_oracle._split_top_level(
                frag, ","
            ), frag

    @pytest.mark.parametrize(
        "text",
        [
            '"abc\\',  # unterminated string cut off after its backslash
            "'\\",
            'x = "\\',
            "f('a', \"b\\",
            '"\\\n',  # escaped newline, then EOF
            "/* never closed",
            "/*/ x",
            '"unterminated\nacross lines',
        ],
    )
    def test_unterminated_literals(self, text):
        assert ir.strip_comments(text) == ir_oracle.strip_comments(text)


def test_full_suite_matches_oracle(full_suite):
    files = sorted(full_suite.rglob("*.cu")) + sorted(full_suite.rglob("*.cpp"))
    assert len(files) == 1698
    for path in files:
        text = path.read_text()
        stripped = ir_oracle.strip_comments(text)
        root = ir_oracle._parse_tree(stripped)
        assert ir.strip_comments(text) == stripped, path
        assert ir._parse_tree(stripped) == root, path
        assert ir.parse_source(text) == ir_oracle.source_ir(stripped, root), path
