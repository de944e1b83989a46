"""Source-text lookups shared by the phase-1 extractors.

``ast.get_source_segment`` re-splits the whole module on every call, so
quoting each call argument made phase 1 quadratic in file size.
:func:`source_segment` returns the identical text from one split per
module, memoized on the source string, which every extractor of that
module then reuses.

:func:`read_pragmas` is the one reader of ``# mapglint:`` pragmas.  It
reads comments only, so a pragma quoted in a docstring or a string
literal (documentation, test fixtures) is inert.
"""

from __future__ import annotations

import ast
import bisect
import functools
import itertools
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

# The parser's line ends: only \r\n, \r and \n (never \f, \v, \x1c, ...).
_CODE_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+\Z")


@functools.lru_cache(maxsize=1)
def _code_lines(source: str) -> Tuple[str, ...]:
    return tuple(_CODE_LINE.findall(source))


def source_segment(source: str, node: ast.AST) -> Optional[str]:
    """Exactly ``ast.get_source_segment(source, node)``, in linear time.

    Column offsets are UTF-8 byte offsets, as in the AST.
    """
    end_lineno = getattr(node, "end_lineno", None)
    end = getattr(node, "end_col_offset", None)
    if end_lineno is None or end is None:
        return None
    try:
        first, start = node.lineno - 1, node.col_offset  # type: ignore[attr-defined]
    except AttributeError:
        return None
    last = end_lineno - 1
    lines = _code_lines(source)
    if first == last:
        return lines[first].encode()[start:end].decode()
    return "".join((lines[first].encode()[start:].decode(),
                    *lines[first + 1:last],
                    lines[last].encode()[:end].decode()))


def source_repr(source: str, node: ast.AST, limit: int = 60) -> str:
    """``node``'s source on one line, whitespace collapsed, cut at ``limit``."""
    segment = source_segment(source, node)
    if segment is None:
        return ""
    segment = " ".join(segment.split())
    return segment if len(segment) <= limit else segment[:limit - 3] + "..."


def line_text(lines: List[str], line: int) -> str:
    """Line ``line`` (1-based) of ``source.splitlines()``, or ``""``."""
    if 1 <= line <= len(lines):
        return lines[line - 1]
    return ""


# String literals and comments are the only tokens that can hold a quote
# or a ``#``, so a left-to-right scan that skips each string whole finds
# exactly the comment tokens.
_STRING_OR_COMMENT = re.compile(r"""
    (?P<string>[rRbBuUfF]{0,2}
        (?: '''[^'\\]*(?:(?:\\.|'(?!''))[^'\\]*)*'''
          | \"\"\"[^"\\]*(?:(?:\\.|"(?!""))[^"\\]*)*\"\"\"
          | '[^'\\\n]*(?:\\.[^'\\\n]*)*'
          | "[^"\\\n]*(?:\\.[^"\\\n]*)*" ))
  | (?P<comment>\#[^\r\n]*)
""", re.S | re.X)

_PRAGMA = re.compile(
    r"#\s*mapglint:\s*(?:disable=(?P<disable>[A-Za-z0-9_,\s]+)"
    r"|twin-exempt=(?P<twin_exempt>[A-Za-z0-9_,\s]+)"
    r"|guarded-by=(?P<guarded_by>[A-Za-z_][A-Za-z0-9_.]*)"
    r"|(?P<declared_cache>declared-cache)\b"
    r"|(?P<error_boundary>error-boundary)\b)")


@dataclass(frozen=True)
class Pragmas:
    """Every ``# mapglint:`` pragma of a module, by kind, keyed by line."""

    disable: Dict[int, FrozenSet[str]]          # line -> upper-cased rules
    twin_exempt: Tuple[Tuple[str, int], ...]    # (name, line)
    guarded_by: Dict[int, str]                  # line -> lock spelling
    declared_cache: FrozenSet[int]
    error_boundary: FrozenSet[int]


def is_suppressed(suppressions: Dict[int, FrozenSet[str]], rule_id: str,
                  line: int) -> bool:
    """Whether a ``disable`` table silences ``rule_id`` on ``line``."""
    rules = suppressions.get(line, frozenset())
    return rule_id.upper() in rules or "ALL" in rules


def _names(value: str) -> List[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


@functools.lru_cache(maxsize=1)
def read_pragmas(source: str) -> Pragmas:
    """The pragmas written in ``source``'s comments.

    Per line and kind, the first pragma counts.  Modules that never
    spell ``mapglint:`` are not scanned.
    """
    disable: Dict[int, FrozenSet[str]] = {}
    twin_exempt: List[Tuple[str, int]] = []
    guarded_by: Dict[int, str] = {}
    declared_cache: Set[int] = set()
    error_boundary: Set[int] = set()
    if "mapglint:" not in source:
        return Pragmas(disable, (), guarded_by, frozenset(), frozenset())
    starts = list(itertools.accumulate(
        (len(line) for line in _code_lines(source)), initial=0))
    for token in _STRING_OR_COMMENT.finditer(source):
        if token.lastgroup != "comment" or "mapglint:" not in token.group():
            continue
        line = bisect.bisect_right(starts, token.start())
        seen: Set[str] = set()
        for match in _PRAGMA.finditer(token.group()):
            kind = match.lastgroup
            if kind is None or kind in seen:
                continue
            seen.add(kind)
            value = match.group(kind)
            if kind == "disable":
                disable[line] = frozenset(
                    name.upper() for name in _names(value))
            elif kind == "twin_exempt":
                twin_exempt.extend((name, line) for name in _names(value))
            elif kind == "guarded_by":
                guarded_by[line] = value
            elif kind == "declared_cache":
                declared_cache.add(line)
            else:
                error_boundary.add(line)
    return Pragmas(disable, tuple(twin_exempt), guarded_by,
                   frozenset(declared_cache), frozenset(error_boundary))
