"""The tokenizer agrees with the one it replaced, token by token.

tokenize returns token texts from one regex pass, and token_starts finds
where each token starts by scanning the source again, only when an error
reports a token's line and column.  The reference below is the tokenizer the library once had: it
built a Token with its kind, line and column for every token as it went.
Both must give the same texts, the same position for every token, and the
same error for input they refuse.
"""

import inspect
import re
import sys
from typing import NamedTuple

import pytest

from filterlab.dsl import ParseError, line_col, parse_filter, token_starts, tokenize
from test_dsl import LANGUAGE_EXAMPLES, _mutants, _pinned_cases


class Token(NamedTuple):
    kind: str  # "name" | "nat" | "punct" | "newline" | "eof"
    text: str
    line: int
    col: int


_TOKEN = re.compile(
    r"(?P<nat>\d+)|(?P<name>[^\W\d]\w*)|(?P<punct>[(){}\[\],:;=@/-])|(?P<newline>\n)"
    r"|(?P<skip>[ \t\r]+|#[^\n]*)|(?P<bad>.)",
    re.DOTALL,
)


def reference_tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        if kind == "skip":
            continue
        text = m.group()
        col = m.start() - line_start + 1
        if kind == "newline":
            if not toks or toks[-1].kind != "newline":
                toks.append(Token("newline", "\n", line, col))
            line += 1
            line_start = m.end()
        elif kind == "bad" or (kind == "name" and not (text[0].isalpha() or text[0] == "_")):
            raise ParseError(f"unexpected character {text[0]!r}", line, col)
        else:
            toks.append(Token(kind, text, line, col))
    toks.append(Token("eof", "", line, len(src) - line_start + 1))
    return toks


def _reference(src):
    try:
        return [(t.text, t.line, t.col) for t in reference_tokenize(src)]
    except ParseError as e:
        return (e.message, e.line, e.col)


def _tokens(src):
    try:
        toks = tokenize(src)
    except ParseError as e:
        return (e.message, e.line, e.col)
    return [(t, *line_col(src, at)) for t, at in zip(toks, token_starts(src), strict=True)]


def test_pinned_sources_and_their_mutants_tokenize_alike():
    sources = [src for _, src, _ in _pinned_cases()]
    assert len(sources) == 1200
    for src in sources:
        for s in [src, *_mutants(src)]:
            assert _tokens(s) == _reference(s), s


@pytest.mark.parametrize("src", LANGUAGE_EXAMPLES)
def test_language_examples_tokenize_alike(src):
    assert _tokens(src) == _reference(src)


@pytest.mark.parametrize(
    "src",
    [
        "",
        "   ",
        "\n",
        "frechet  \t ",
        "frechet # note",
        "# only a comment",
        "# first\n# second\nfrechet",
        "meet(frechet, # note\n  # more\n\n frechet)\n\n",
        "a = fin{1} # c\n \t# d\n\nb = a\r\nb",
        "x\r\n\r\ny\r\n",
        "\n \n# c\n\t\nfrechet\n \n",
        "a² = frechet\né = a²\né",
        "é",
        "fin{٣}",
        "fin{¼}",
        "fin{1²}",
        "fin{²}",
        "meet(frechet, $)",
        "frechet\n\n$",
        "# $ in a comment\n€",
        "fin{1}\x0b",
        "\x0bfrechet",
        "meet(frechet,\x0cfrechet)",
        "frechet # $, ~ and ` in a comment\n",
    ],
)
def test_hand_written_inputs_tokenize_alike(src):
    assert _tokens(src) == _reference(src)


def test_deep_nesting_costs_one_frame_per_level():
    # parse_filter calls itself once per level, and the innermost operand
    # and its constructor take a few frames more; a second frame per level
    # would stop this at about half the depth
    depth = sys.getrecursionlimit() - len(inspect.stack(0)) - 50
    src = "meet(frechet," * depth + "frechet" + ")" * depth
    f = parse_filter(src)
    for _ in range(depth):
        f = f.right
    assert f == parse_filter("frechet")
