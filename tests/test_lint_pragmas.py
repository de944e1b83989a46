"""``# mapglint:`` pragmas are read from comments, never from strings.

A pragma quoted in a docstring or a string literal is documentation or
test data; only the same text in a comment is live.
"""

import io
import tokenize
from pathlib import Path

import pytest

from repro.lint.base import parse_suppressions
from repro.lint.project.source import _STRING_OR_COMMENT, read_pragmas

ROOT = Path(__file__).resolve().parent.parent

#: kind -> (pragma text, what read_pragmas records for it on line 3)
KINDS = {
    "disable": ("disable=UNIT01", lambda p: p.disable.get(3)),
    "twin-exempt": ("twin-exempt=row_policy",
                    lambda p: [n for n, line in p.twin_exempt if line == 3]),
    "guarded-by": ("guarded-by=_LOCK", lambda p: p.guarded_by.get(3)),
    "declared-cache": ("declared-cache", lambda p: 3 in p.declared_cache),
    "error-boundary": ("error-boundary", lambda p: 3 in p.error_boundary),
}

PLACES = {
    "docstring": ('def f():\n    """Example::\n'
                  '        x = 1  # mapglint: {}\n    """\n'),
    "string": 'def f():\n    return (\n        "x = 1  # mapglint: {}")\n',
    "comment": 'def f():\n    return (\n        1)  # mapglint: {}\n',
}


@pytest.mark.parametrize("place", sorted(PLACES))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_pragma_is_live_only_in_a_comment(kind, place):
    text, recorded = KINDS[kind]
    source = PLACES[place].format(text)
    assert bool(recorded(read_pragmas(source))) == (place == "comment")


def test_disable_reader_is_the_suppression_table():
    source = ('x = "# mapglint: disable=ERR04"'
              '  # mapglint: disable=unit01, FLT01\n')
    assert parse_suppressions(source) == {1: frozenset({"UNIT01", "FLT01"})}


def test_comment_scan_agrees_with_tokenize_on_the_tree():
    # Every file spelling a pragma, lexed both ways: the regex scan must
    # find exactly the tokenizer's comments.
    for path in sorted((ROOT / "src").rglob("*.py")) + \
            sorted((ROOT / "tests").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        if "mapglint:" not in source:
            continue
        lines = source.splitlines(keepends=True)
        starts = [0]
        for line in lines:
            starts.append(starts[-1] + len(line))
        expected = [
            starts[token.start[0] - 1] + token.start[1]
            for token in tokenize.generate_tokens(
                io.StringIO(source).readline)
            if token.type == tokenize.COMMENT]
        found = [token.start() for token in
                 _STRING_OR_COMMENT.finditer(source)
                 if token.lastgroup == "comment"]
        assert found == expected, path
