"""Source-text lookups shared by the phase-1 extractors.

``ast.get_source_segment`` re-splits the whole module on every call, so
quoting each call argument made phase 1 quadratic in file size.
:func:`source_segment` returns the identical text from one split per
module, memoized on the source string, which every extractor of that
module then reuses.
"""

from __future__ import annotations

import ast
import functools
import re
from typing import List, Optional, Tuple

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
