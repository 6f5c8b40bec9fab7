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
rewritten with "\n" breaks. The front-matter block, both fences and the
body between them, and then the headers are each found in one regex scan
of that text. The header scan runs over the text behind one "\n", from
where the body starts, with a pattern that begins with that literal "\n":
the regex engine then jumps from one line break to the next instead of
trying every character as a header start, and the "\n" put in front stands
for the start of the text.

``load_corpus`` lists the directory in one ``os.scandir`` pass and builds
no ``Path`` per file: it names each file from the directory's normalized
``Path`` text and the entry's name, and asks the entry whether it is a file,
which for anything but a symbolic link costs no system call. It reads each
file with ``os.open``, ``os.fstat`` and one ``os.read`` of one byte more
than the reported size, and reads on only when that read does not return
exactly that size (the file changed, or its size was misreported); it
decodes the bytes in one call, which is cheaper than a text-mode read. The
parser's line-break rewrite stands in for text mode's newline translation.

The parser writes the document straight into its pre-order lists (see
``model.DocumentTopicTree``): each header's spelling, its parent's id,
taken from the stack of open headers the parser keeps anyway, and its
depth. It builds no node objects and tokenizes nothing; the stages that
compare labels take the token sets from the norm's label memo.
"""
from __future__ import annotations

import errno
import os
import re
from io import FileIO
from pathlib import Path

from .model import LINE_BREAKS, DocumentMetadata, DocumentTopicTree, Record, check_line, normalize

# a header line, behind the "\n" that ends the line before it. The label
# runs to the line's last non-space character, so "#  " is body text, not a
# header: "." stops at the line's end and the greedy ".*" backs off only
# over trailing whitespace, which is left unmatched
_HEADER = re.compile(r"\n(#{1,6}) (.*\S)")
# every line boundary of str.splitlines except "\n"; nine substring tests
# cost a tenth of one character-class regex search over a whole document
_OTHER_BREAKS = LINE_BREAKS[1:]
# a front-matter fence: a line of "---" and whitespace
_FENCE = re.compile(r"^---[^\S\n]*$", re.M)
# a front-matter block from the text's start: the opening fence, the body
# from the "\n" that ends that fence's line, and the first closing fence
_FRONT_MATTER = re.compile(r"---[^\S\n]*(\n(?:.*\n)*?)---[^\S\n]*$", re.M)
_META_LINE = re.compile(r"^([A-Za-z_][A-Za-z0-9_ -]*):\s*(.*)$")

SOURCE_EXTENSIONS = (".md", ".txt")
# the lookup errors Path.is_file answers False to: a file that went away, a
# name that is no longer a directory entry, a symbolic link loop
_GONE = frozenset((errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP))


class CorpusReadError(OSError):
    """A corpus file or directory could not be read."""


class CorpusNameError(ValueError):
    """A corpus file's name, which becomes its doc id, is not one line of
    UTF-8 text."""


class CorpusSet(Record):
    """An ordered set of parsed documents loaded from one directory."""

    __slots__ = _fields = ("docs", "origin")
    _defaults = {"docs": [], "origin": ""}


def parse_metadata(front_matter: str, source_path: str = "") -> DocumentMetadata:
    """Parse a front-matter block into metadata.

    Unknown keys are ignored; malformed lines are skipped with a warning,
    never fatally. An empty block yields all-empty metadata.
    """
    return _read_metadata(front_matter, source_path, source_path or "<text>")


def _read_metadata(front_matter: str, source_path: str, source: str) -> DocumentMetadata:
    """``parse_metadata``, naming source in its warnings."""
    title: str | None = None
    content_types: list[str] = []
    special_content: list[str] = []
    for raw in front_matter.splitlines():
        line = raw.strip()
        if not line:
            continue
        match = _META_LINE.match(line)
        if match is None:
            import logging  # imported only to warn, so importing the package skips it

            logging.getLogger(__name__).warning("skipping malformed metadata line %r in %s", raw, source)
            continue
        # the line is stripped and the pattern takes the whitespace after
        # the colon, so the value is stripped too; a key may end in spaces
        key, value = match.groups()
        key = key.rstrip().lower()
        if key == "title":
            title = value or None
        elif key == "content_types":
            content_types += _tags(value)
        elif key == "special_content":
            special_content += _tags(value)
        # anything else is a foreign key: ignore
    return DocumentMetadata(title, frozenset(content_types), frozenset(special_content), source_path)


def _tags(value: str) -> list[str]:
    return [n for n in (normalize(part) for part in value.split(",")) if n]


def _split_front_matter(text: str, source: str) -> tuple[str, int]:
    """Return (front-matter body, offset where the document body starts) of
    a text whose only line break is "\n".

    Reads the text only up to the closing fence, in one match. An opening
    fence without a closing one is not front matter; the text is then
    treated as plain body (with a warning naming source). Only a text with
    no front-matter block is matched against the lone fence, to tell the two
    apart.
    """
    block = _FRONT_MATTER.match(text)
    if block is not None:
        return block.group(1), block.end()
    if _FENCE.match(text) is not None:
        import logging

        logging.getLogger(__name__).warning(
            "unterminated front-matter fence in %s; treating file as plain body", source
        )
    return "", 0


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
    # warnings name the file, or the doc id of a text parsed without one
    source = source_path or doc_id
    front, body_start = _split_front_matter(text, source)
    metadata = _read_metadata(front, source_path, source)
    # (marks, label) per header; the "\n" put in front shifts every offset
    # by one, so the scan starts at the break before the body's first line
    headers = _HEADER.findall("\n" + text, body_start)

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


def _is_source(name: str) -> bool:
    """Whether a file name has a source suffix, as ``PurePath(name).suffix``
    reads it: from the last dot, when that dot neither starts nor ends the
    name, compared case-insensitively."""
    dot = name.rfind(".")
    return 0 < dot < len(name) - 1 and name[dot:].lower() in SOURCE_EXTENSIONS


def _is_file(entry: os.DirEntry) -> bool:
    """``entry.is_file()``, False where ``Path.is_file`` answers False to a
    failed lookup: a symbolic link loop raises from the entry."""
    try:
        return entry.is_file()
    except OSError as exc:
        if exc.errno in _GONE:
            return False
        raise


def _read_bytes(path: str) -> bytes:
    """The bytes of the file at path, in one ``os.read`` of one byte more
    than ``os.fstat`` reports. Only a read that does not come back with
    exactly the reported size (the file grew or shrank, or its size is not
    what the file system reports) reads on, to the end of the file."""
    fd = os.open(path, os.O_RDONLY)
    try:
        size = os.fstat(fd).st_size
        data = os.read(fd, size + 1)
        if len(data) != size:
            data += FileIO(fd, closefd=False).readall()
        return data
    finally:
        os.close(fd)


def load_corpus(directory: str | Path) -> CorpusSet:
    """Parse every .md/.txt file in a directory, in file-name order.

    A directory that cannot be listed, or an unreadable or non-UTF-8 file,
    aborts the load with a CorpusReadError naming it. A file whose name
    holds a line break or text that is not valid UTF-8 aborts it with a
    CorpusNameError: the name becomes the doc id, which the trace and the
    summary print on one line. An empty directory yields an empty corpus.
    A leading UTF-8 byte-order mark is dropped, so it hides neither front
    matter nor a first header.

    The directory is normalized once, through ``Path``: "d", "d/", "./d" and
    "d//" give the same origin and source paths.
    """
    root = Path(directory)
    # each file's path as str(root / name) spells it ("x.md" under ".")
    prefix = str(root / "_")[:-1]
    try:
        with os.scandir(root) as listing:
            entries = sorted(listing, key=lambda entry: entry.name)
    except OSError as exc:
        raise CorpusReadError(f"cannot list corpus directory {root}: {exc.strerror or exc}") from exc
    docs: list[DocumentTopicTree] = []
    for entry in entries:
        name = entry.name
        if not _is_source(name):
            continue
        source_path = prefix + name
        try:
            # a symbolic link's target is looked up, and a lookup fails when
            # the directory lets names be listed but not looked up
            if not _is_file(entry):
                continue
            check_line(name, "the name of corpus file", CorpusNameError)
            text = _read_bytes(source_path).decode("utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise CorpusReadError(f"cannot read corpus file {name}: {exc}") from exc
        docs.append(parse_document(text, doc_id=name, source_path=source_path))
    return CorpusSet(docs=docs, origin=str(root))
