"""Parsing of header-marked plain text into document topic trees, and
loading a directory of such files as a corpus.

Input format: UTF-8 text with ATX headers ("#" * n + space + text, n in
1..6, the text not blank) and an optional front-matter block at the very
top, delimited by lines containing only "---", holding "key: value" lines.
Recognized keys: title, content_types (comma separated), special_content
(comma separated).

A level-n header becomes a child of the nearest preceding header of a
lower level; level jumps attach to the nearest valid ancestor. The root is
the front-matter title when present, else the first header when that
header is level 1, else a synthesized node labeled with the doc id.

A text that breaks lines with anything but "\n" ("\r\n", "\r", "\x85",
"\u2028", or any other line boundary ``str.splitlines`` knows) is first
rewritten with "\n" breaks. The front-matter fences and then the headers
are each found in one multi-line regex scan of that text.

The parser writes the document straight into its pre-order lists (see
``model.DocumentTopicTree``): each header's spelling, its parent's id,
taken from the stack of open headers the parser keeps anyway, and its
depth. It builds no node objects and tokenizes nothing; the stages that
compare labels take the token sets from the norm's label memo.
"""
from __future__ import annotations

import logging
import re
from pathlib import Path

from .model import LINE_BREAKS, DocumentMetadata, DocumentTopicTree, Record, check_line, normalize

log = logging.getLogger(__name__)

# the label runs to the line's last non-space character, so "#  " is body
# text, not a header; matching it greedily backtracks only over the trailing
# whitespace
_HEADER = re.compile(r"^(#{1,6}) (.*\S)[^\S\n]*$", re.M)
# every line boundary of str.splitlines except "\n"; nine substring tests
# cost a tenth of one character-class regex search over a whole document
_OTHER_BREAKS = LINE_BREAKS[1:]
# a front-matter fence: a line of "---" and whitespace
_FENCE = re.compile(r"^---[^\S\n]*$", re.M)
_META_LINE = re.compile(r"^([A-Za-z_][A-Za-z0-9_ -]*):\s*(.*)$")

SOURCE_EXTENSIONS = (".md", ".txt")


class CorpusReadError(OSError):
    """A corpus file or directory could not be read."""


class CorpusNameError(ValueError):
    """A corpus file's name, which becomes its doc id, is not one line of
    UTF-8 text."""


class CorpusSet(Record):
    """An ordered set of parsed documents loaded from one directory."""

    __slots__ = _fields = ("docs", "origin")

    def __init__(self, docs: list[DocumentTopicTree] | None = None, origin: str = "") -> None:
        self.docs = [] if docs is None else docs
        self.origin = origin


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
    """Return (front-matter body, offset where the document body starts) of
    a text whose only line break is "\n".

    Reads the text only up to the closing fence. An opening fence without a
    closing one is not front matter; the text is then treated as plain body
    (with a warning naming source).
    """
    opening = _FENCE.match(text)
    if opening is None:
        return "", 0
    # the search starts at the opening fence's "\n", so ^ first matches on the next line
    closing = _FENCE.search(text, opening.end())
    if closing is None:
        log.warning("unterminated front-matter fence in %s; treating file as plain body", source)
        return "", 0
    return text[opening.end():closing.start()], closing.end()


def parse_document(text: str, doc_id: str, source_path: str = "") -> DocumentTopicTree:
    """Build a document topic tree from header-marked text.

    Deterministic: identical text yields identical lists. Documents without
    headers yield a single-node tree. A blank doc_id raises ValueError when
    the root would be labeled with it.
    """
    for mark in _OTHER_BREAKS:
        if mark in text:
            text = "\n".join(text.splitlines())
            break
    front, body_start = _split_front_matter(text, source_path or doc_id)
    metadata = parse_metadata(front, source_path)
    # (marks, label) per header
    headers = _HEADER.findall(text, body_start)

    # a title is stripped and non-empty, and a header label ends in a
    # non-space character, so no label is blank
    first = 0
    if metadata.title:
        labels = [metadata.title]
    elif headers and headers[0][0] == "#":
        labels = [headers[0][1]]
        first = 1
    elif doc_id.strip():
        labels = [doc_id]
    else:
        raise ValueError("a document with no title and no level-1 header needs a non-blank doc id")

    # the open headers, as parallel stacks of levels and ids. The root sits
    # at level 0, below every header, so it is never popped: level jumps and
    # repeated top-level headers land on the nearest valid ancestor
    parents = [-1]
    depths = [0]
    levels = [0]
    open_ids = [0]
    for node_id, (marks, label) in enumerate(headers[first:], 1):
        level = len(marks)
        while levels[-1] >= level:
            levels.pop()
            open_ids.pop()
        labels.append(label)
        parents.append(open_ids[-1])
        depths.append(len(open_ids))
        levels.append(level)
        open_ids.append(node_id)

    return DocumentTopicTree._trusted(doc_id, labels, parents, depths, metadata)


def load_corpus(directory: str | Path) -> CorpusSet:
    """Parse every .md/.txt file in a directory, in file-name order.

    A directory that cannot be listed, or an unreadable or non-UTF-8 file,
    aborts the load with a CorpusReadError naming it. A file whose name
    holds a line break or text that is not valid UTF-8 aborts it with a
    CorpusNameError: the name becomes the doc id, which the trace and the
    summary print on one line. An empty directory yields an empty corpus.
    A leading UTF-8 byte-order mark is dropped, so it hides neither front
    matter nor a first header.
    """
    root = Path(directory)
    try:
        paths = sorted(root.iterdir(), key=lambda p: p.name)
    except OSError as exc:
        raise CorpusReadError(f"cannot list corpus directory {root}: {exc.strerror or exc}") from exc
    docs: list[DocumentTopicTree] = []
    for path in paths:
        if path.suffix.lower() not in SOURCE_EXTENSIONS:
            continue
        try:
            # is_file raises when the directory lets names be listed but not looked up
            if not path.is_file():
                continue
            check_line(path.name, "the name of corpus file", CorpusNameError)
            text = path.read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise CorpusReadError(f"cannot read corpus file {path.name}: {exc}") from exc
        docs.append(parse_document(text, doc_id=path.name, source_path=str(path)))
    return CorpusSet(docs=docs, origin=str(root))
