from __future__ import annotations

from pathlib import Path

import pytest

from topicsift import DocumentMetadata, DocumentTopicTree, TopicType
from topicsift.topic_typing import TypedTree

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def make_doc(spec, doc_id="doc", title=None, content_types=(), special_content=()) -> DocumentTopicTree:
    """A flat document from a nested spec: "Label" or ("Label", [children]),
    the root first; node ids are pre-order positions."""
    labels: list[str] = []
    parents: list[int] = []
    depths: list[int] = []
    stack = [(spec, -1, 0)]
    while stack:
        node, parent, depth = stack.pop()
        label, children = (node, []) if isinstance(node, str) else node
        stack.extend((child, len(labels), depth + 1) for child in reversed(children))
        labels.append(label)
        parents.append(parent)
        depths.append(depth)
    meta = DocumentMetadata(
        title=title,
        content_types=frozenset(content_types),
        special_content=frozenset(special_content),
        source_path="",
    )
    return DocumentTopicTree(doc_id=doc_id, labels=labels, parents=parents, depths=depths, metadata=meta)


def make_typed(
    doc_id: str,
    child_types: list[tuple[str, TopicType]],
    root_type: TopicType = TopicType.TYPICAL,
    query: str = "angina",
    content_types=(),
    special_content=(),
) -> TypedTree:
    """Fabricate a typed flat document (root + one child per labeled type)."""
    doc = make_doc(
        (doc_id, [label for label, _ in child_types]),
        doc_id=doc_id,
        content_types=content_types,
        special_content=special_content,
    )
    types = [root_type] + [topic_type for _, topic_type in child_types]
    return TypedTree(doc=doc, query=query, query_node=0, types=types)


def write_corpus(directory: Path, files: dict[str, str]) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory


@pytest.fixture
def angina_reference() -> Path:
    return FIXTURES / "angina" / "reference"


@pytest.fixture
def angina_docs() -> Path:
    return FIXTURES / "angina" / "docs"
