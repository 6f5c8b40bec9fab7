"""Parsing of header-marked plain text into document topic trees.

Input format: UTF-8 text with ATX headers ("#" * n + space + text, n in
1..6, the text not blank) and an optional front-matter block at the very
top, delimited by lines containing only "---", holding "key: value" lines.
Recognized keys: title, content_types (comma separated), special_content
(comma separated).

A level-n header becomes a child of the nearest preceding header of a
lower level; level jumps attach to the nearest valid ancestor. The root is
the front-matter title when present, else the first header when that
header is level 1, else a synthesized node labeled with the doc id.

Headers are found in one multi-line regex scan of the body when the text
breaks lines only with "\n", the common case. Text holding any other
line boundary ``str.splitlines`` knows ("\r", "\x0b", "\x85", "\u2028",
...) is scanned line by line instead, so both give the same headers and
spans. The front matter is found by matching the opening fence and searching
for the closing one, with the same line boundaries, so the text is read only
up to the closing fence.
"""
from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from pathlib import Path

from .model import (
    DocumentMetadata,
    DocumentTopicTree,
    LexicalForms,
    TopicNode,
    normalize,
)

log = logging.getLogger(__name__)

# the label must hold a non-space character: "#  " is body text, not a header
_HEADER = re.compile(r"^(#{1,6}) (.*?\S)\s*$")
# the same headers in one scan of a "\n"-only body: trailing whitespace must
# stop at the line's "\n", where $ matches. The label still ends at the
# line's last non-space character; matching it greedily backtracks only
# over the trailing whitespace.
_HEADER_LINES = re.compile(r"^(#{1,6}) (.*\S)[^\S\n]*$", re.M)
# every line boundary of str.splitlines ("\r\n" is one as well)
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# every line boundary of str.splitlines except "\n"
_OTHER_BREAK = re.compile(f"[{_BREAKS[1:]}]")
# a front-matter fence: a line of "---" and whitespace, up to its break or
# the end of the text; a closing fence starts a line, so it follows a break
_FENCE_LINE = f"---[^\\S{_BREAKS}]*(?:\r\n|[{_BREAKS}]|\\Z)"
_OPENING_FENCE = re.compile(_FENCE_LINE)
_CLOSING_FENCE = re.compile(f"(?<=[{_BREAKS}]){_FENCE_LINE}")
_META_LINE = re.compile(r"^([A-Za-z_][A-Za-z0-9_ -]*):\s*(.*)$")

SOURCE_EXTENSIONS = (".md", ".txt")


class CorpusReadError(OSError):
    """A corpus file or directory could not be read."""


@dataclass
class CorpusSet:
    """An ordered set of parsed documents loaded from one directory."""

    docs: list[DocumentTopicTree] = field(default_factory=list)
    origin: str = ""


def parse_metadata(front_matter: str, source_path: str = "") -> DocumentMetadata:
    """Parse a front-matter block into metadata.

    Unknown keys are ignored; malformed lines are skipped with a warning,
    never fatally. An empty block yields all-empty metadata.
    """
    title: str | None = None
    content_types: set[str] = set()
    special_content: set[str] = set()
    for raw in front_matter.splitlines():
        line = raw.strip()
        if not line:
            continue
        match = _META_LINE.match(line)
        if match is None:
            log.warning("skipping malformed metadata line %r in %s", raw, source_path or "<text>")
            continue
        key = match.group(1).strip().lower()
        value = match.group(2).strip()
        if key == "title":
            title = value or None
        elif key == "content_types":
            content_types.update(_tags(value))
        elif key == "special_content":
            special_content.update(_tags(value))
        # anything else is a foreign key: ignore
    return DocumentMetadata(
        title=title,
        content_types=frozenset(content_types),
        special_content=frozenset(special_content),
        source_path=source_path,
    )


def _tags(value: str) -> list[str]:
    return [n for n in (normalize(part) for part in value.split(",")) if n]


def _split_front_matter(text: str, source: str) -> tuple[str, int]:
    """Return (front-matter body, offset where the document body starts).

    Reads the text only up to the closing fence. An opening fence without a
    closing one is not front matter; the text is then treated as plain body
    (with a warning naming source).
    """
    opening = _OPENING_FENCE.match(text)
    if opening is None:
        return "", 0
    closing = _CLOSING_FENCE.search(text, opening.end())
    if closing is None:
        log.warning("unterminated front-matter fence in %s; treating file as plain body", source)
        return "", 0
    return text[opening.end():closing.start()], closing.end()


_Header = tuple[int, str, tuple[int, int]]


def _scan_headers(text: str, start: int) -> list[_Header]:
    """(level, label, span) of every header from start on, in one scan of a
    text whose only line break is "\n"."""
    return [
        (len(match.group(1)), match.group(2), match.span())
        for match in _HEADER_LINES.finditer(text, start)
    ]


def _scan_header_lines(text: str, start: int) -> list[_Header]:
    """(level, label, span) of every header from start on, line by line; a
    span ends before the line's break."""
    headers: list[_Header] = []
    offset = start
    for line in text[start:].splitlines(keepends=True):
        # only a line that starts with "#" can match the header pattern
        if line.startswith("#"):
            stripped = line.rstrip("\n")
            match = _HEADER.match(stripped)
            if match:
                headers.append((len(match.group(1)), match.group(2), (offset, offset + len(stripped))))
        offset += len(line)
    return headers


def parse_document(text: str, doc_id: str, source_path: str = "") -> DocumentTopicTree:
    """Build a document topic tree from header-marked text.

    Deterministic: identical text yields an identical tree with identical
    pre-order node ids. Documents without headers yield a single-node tree.
    """
    front, body_start = _split_front_matter(text, source_path or doc_id)
    metadata = parse_metadata(front, source_path)
    # body_start is 0 or just past a "\n" in a "\n"-only text, so ^ matches there
    if _OTHER_BREAK.search(text) is None:
        headers = _scan_headers(text, body_start)
    else:
        headers = _scan_header_lines(text, body_start)

    # a title is stripped and non-empty, and a header label ends in a
    # non-space character, so neither can be blank: one form, as it stands
    trusted = LexicalForms._trusted
    if metadata.title:
        root = TopicNode(0, trusted((metadata.title,)), [], None)
        root_level = 0
    elif headers and headers[0][0] == 1:
        root = TopicNode(0, trusted((headers[0][1],)), [], headers[0][2])
        root_level = 1
        headers = headers[1:]
    else:
        root = TopicNode(0, LexicalForms.of(doc_id), [], None)
        root_level = 0

    # stack of (level, node); never popped past the root, so level jumps and
    # repeated top-level headers land on the nearest valid ancestor
    stack: list[tuple[int, TopicNode]] = [(root_level, root)]
    for node_id, (level, label, span) in enumerate(headers, 1):
        while len(stack) > 1 and stack[-1][0] >= level:
            stack.pop()
        node = TopicNode(node_id, trusted((label,)), [], span)
        stack[-1][1].children.append(node)
        stack.append((level, node))

    return DocumentTopicTree(doc_id=doc_id, root=root, metadata=metadata)


def load_corpus(directory: str | Path) -> CorpusSet:
    """Parse every .md/.txt file in a directory, in file-name order.

    An unreadable or non-UTF-8 file aborts the load with an error naming the
    file. An empty directory yields an empty corpus.
    """
    root = Path(directory)
    if not root.is_dir():
        raise CorpusReadError(f"not a readable directory: {root}")
    docs: list[DocumentTopicTree] = []
    for path in sorted(root.iterdir(), key=lambda p: p.name):
        if not path.is_file() or path.suffix.lower() not in SOURCE_EXTENSIONS:
            continue
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise CorpusReadError(f"cannot read corpus file {path.name}: {exc}") from exc
        docs.append(parse_document(text, doc_id=path.name, source_path=str(path)))
    return CorpusSet(docs=docs, origin=str(root))
