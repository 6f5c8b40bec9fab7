from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

from topicsift import CompositeTopicTree, DocumentMetadata, DocumentTopicTree, TopicType, load_composite
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


def norm_node(node_id, label, position, *children, support=1) -> dict:
    """A schema-v1 norm node payload of one spelling."""
    return {"id": node_id, "forms": [label], "position": position, "support": support, "children": list(children)}


def make_norm(root: dict, doc_count: int = 1) -> CompositeTopicTree:
    """The norm a schema-v1 file holding root (a node payload, such as
    norm_node's) loads as: norms are built by hand through the loader,
    which checks them."""
    payload = {"version": "1", "domain_genre": "t", "doc_count": doc_count, "root": root}
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "norm.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return load_composite(path)


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
