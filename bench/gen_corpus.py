"""Seeded, stdlib-only input generator for the topicsift benchmark.

Every document is drawn from one latent genre skeleton: a title, eight
sections, six subsections per section and three leaf topics under the first
subsection of each section. Each skeleton topic has an inclusion probability,
so the norm built from many documents has typical topics (support at least
half the documents) and rare ones. Noise headers come from a 400-word
pseudo-word vocabulary as two- or three-word labels built on shared bigrams,
so partial token-Jaccard matches (2/3, 2/4) happen during alignment. Headers
get surface variants (case changes, a trailing ":") that normalization must
undo, and front matter carries ``content_types`` and ``special_content``.

Documents that are characterized against a norm come in kinds shaped to land
in each of the seven document categories for a query on their focus
section, plus full documents and documents focused elsewhere.

The norms used by ``query-stream`` and ``batch-audit`` are written directly
as schema-v1 composite files, so those inputs do not depend on the build
code. The output for a given seed is byte-identical whatever
``PYTHONHASHSEED`` is: only seeded ``random.Random`` instances and ordered
containers decide what is written.

Usage: python3 bench/gen_corpus.py WORKLOAD SEED OUT_DIR
"""
from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("build-norm", "query-stream", "batch-audit")

# Sizes. The reference corpus yields a norm of about 1.35k nodes when
# built; the directly written norms have 1981 and 401 nodes.
REFERENCE_DOCS = 110
HEADERS_PER_FULL_DOC = 45
STREAM_NORM = {"doc_count": 200, "noise_nodes": 1900}
AUDIT_NORM = {"doc_count": 60, "noise_nodes": 320}
STREAM_PAGES = 24
STREAM_REQUEST_KINDS = 32

SECTION_P = (0.95, 0.9, 0.9, 0.85, 0.8, 0.7, 0.4, 0.25)
SUB_P = (0.9, 0.8, 0.7, 0.6, 0.3, 0.15)
LEAF_P = (0.6, 0.4, 0.2)
QUERY_SECTIONS = 4  # the four most frequent sections are queried and focused on

CONTENT_TYPES = ("text", "images", "tables", "video")
SPECIAL_CONTENT = ("glossary", "faq", "references", "calculator")
TITLE_NOUNS = ("guide", "overview", "handbook", "notes", "primer", "review")

# letters outside the vocabulary, so this query matches no topic anywhere
NOMATCH_QUERY = "qwyx hyjc"

# (kind, count) per corpus; counts are exact so a run's cost does not drift
# with the seed. "full" documents carry the whole skeleton plus noise; the
# focused kinds hold only their focus section and are shaped for one
# category each under a query on that section.
# A query-stream page always holds the same mix of kinds, so one request
# costs about the same as another whatever the seed; the pool holds six
# documents per page slot.
PAGE_KINDS = (
    ("full", 3), ("thin", 1), ("prototypical", 1), ("specialized", 1),
    ("atypical", 1), ("deep", 1), ("generic", 1), ("elsewhere", 1),
)
POOL_PER_SLOT = 6
AUDIT_KINDS = (
    ("full", 34), ("thin", 12), ("prototypical", 12), ("specialized", 12),
    ("atypical", 12), ("deep", 12), ("generic", 12), ("elsewhere", 14),
)


def vocabulary(size: int = 400) -> list[str]:
    """A fixed list of two-syllable pseudo-words, the same for every seed."""
    syllables = [onset + vowel for onset in "bdfgklmnprstvz" for vowel in "aeiou"]
    words = [a + b for a in syllables for b in syllables]
    return words[:: len(words) // size][:size]


@dataclass
class Topic:
    label: str
    p: float = 1.0
    children: list["Topic"] = field(default_factory=list)


@dataclass
class Genre:
    root: Topic
    noise: list[str]

    @property
    def sections(self) -> list[Topic]:
        return self.root.children

    def query_sections(self) -> list[Topic]:
        return sorted(self.sections, key=lambda s: -s.p)[:QUERY_SECTIONS]


def _label(words: list[str]) -> str:
    text = " ".join(words)
    return text[:1].upper() + text[1:]


def make_genre(seed: int) -> Genre:
    """The latent skeleton plus the noise-label pool for one seed."""
    rng = random.Random(seed * 7919 + 1)
    words = vocabulary()
    pool = rng.sample(words, len(words))
    take = iter(pool)

    def bigram() -> str:
        return _label([next(take), next(take)])

    section_p = list(SECTION_P)
    rng.shuffle(section_p)
    root = Topic(bigram())
    for sp in section_p:
        section = Topic(bigram(), sp)
        for index, p in enumerate(SUB_P):
            sub = Topic(bigram(), p)
            if index == 0:
                sub.children = [Topic(bigram(), lp) for lp in LEAF_P]
            section.children.append(sub)
        root.children.append(section)

    # noise labels: 300 bigram bases, each alone or with a modifier word;
    # bases share tokens with each other and with skeleton labels
    skeleton = {t.label.casefold() for t in _walk(root)}
    bases: list[list[str]] = []
    while len(bases) < 300:
        pair = rng.sample(words, 2)
        if _label(pair).casefold() not in skeleton:
            bases.append(pair)
    noise = []
    for base in bases:
        noise.append(_label(base))
        noise.append(_label(base + [rng.choice(words)]))
    return Genre(root=root, noise=noise)


def _walk(topic: Topic):
    yield topic
    for child in topic.children:
        yield from _walk(child)


# --- documents ---------------------------------------------------------------

@dataclass
class Header:
    label: str
    children: list["Header"] = field(default_factory=list)


def _surface(rng: random.Random, label: str) -> str:
    roll = rng.random()
    if roll < 0.12:
        return label.upper()
    if roll < 0.24:
        return label.lower()
    if roll < 0.36:
        return label + ":"
    return label


def _include(rng: random.Random, topic: Topic) -> Header:
    header = Header(topic.label)
    for child in topic.children:
        if rng.random() < child.p:
            header.children.append(_include(rng, child))
    return header


def _count(headers: list[Header]) -> int:
    return sum(1 + _count(h.children) for h in headers)


def _add_noise(rng: random.Random, genre: Genre, sections: list[Header], wanted: int) -> None:
    """Insert noise headers at random spots: top level, under a section or
    under a subsection."""
    for _ in range(wanted):
        roll = rng.random()
        if roll < 0.2 or not sections:
            siblings = sections
        else:
            section = rng.choice(sections)
            if roll < 0.7 or not section.children:
                siblings = section.children
            else:
                siblings = rng.choice(section.children).children
        siblings.insert(rng.randint(0, len(siblings)), Header(rng.choice(genre.noise)))


def _typical(topics: list[Topic]) -> list[Topic]:
    return [t for t in topics if t.p >= 0.5]


def _noise_headers(rng: random.Random, genre: Genre, count: int) -> list[Header]:
    return [Header(label) for label in rng.sample(genre.noise, count)]


def _full(rng: random.Random, genre: Genre, focus: Topic | None = None, thin: bool = False) -> list[Header]:
    sections = []
    for section in genre.sections:
        if section is focus:
            header = Header(section.label)
            subs = _typical(section.children)
            keep = rng.randint(0, 1) if thin else len(subs)
            header.children = [_include(rng, sub) for sub in subs[:keep]]
            sections.append(header)
        elif rng.random() < section.p:
            sections.append(_include(rng, section))
    _add_noise(rng, genre, sections, max(0, HEADERS_PER_FULL_DOC - _count(sections)))
    return sections


def _focused(rng: random.Random, genre: Genre, kind: str, focus: Topic) -> list[Header]:
    """One focus section shaped so a query on it lands in the named category."""
    subs = _typical(focus.children)
    top = Header(focus.label)
    if kind == "prototypical":
        top.children = [Header(sub.label) for sub in subs if rng.random() < 0.9] or [Header(subs[0].label)]
        leaves = _typical(focus.children[0].children)
        if top.children[0].label == focus.children[0].label and leaves:
            top.children[0].children = [Header(leaf.label) for leaf in leaves]
        if rng.random() < 0.5:
            top.children.append(Header(rng.choice(genre.noise)))
        return [top]
    if kind == "specialized":
        top.children = [Header(sub.label) for sub in rng.sample(subs, rng.randint(1, 2))]
        return [top]
    if kind == "atypical":
        optional = [Header(t.label) for t in focus.children if t.p < 0.5]
        top.children = optional + _noise_headers(rng, genre, rng.randint(4, 6) - len(optional))
        rng.shuffle(top.children)
        return [top]
    if kind == "deep":
        anchor = Header(rng.choice(genre.noise), _noise_headers(rng, genre, rng.randint(5, 7)))
        anchor.children[0].children = _noise_headers(rng, genre, rng.randint(1, 2))
        top.children = [Header(subs[0].label, [anchor])]
        return [top]
    if kind == "generic":
        others = [s for s in genre.sections if s is not focus]
        sections = []
        for section in rng.sample(others, 2):
            sections.append(Header(section.label, [Header(rng.choice(section.children).label)]))
        rare = _noise_headers(rng, genre, 3)
        rare[0].children = [Header(rng.choice(genre.noise), _noise_headers(rng, genre, 3))]
        top.children = rare
        sections.insert(rng.randint(0, 2), top)
        return sections
    raise ValueError(f"unknown document kind {kind!r}")


def _body(rng: random.Random, genre: Genre, kind: str, focus: Topic) -> list[Header]:
    if kind == "full":
        return _full(rng, genre, focus)
    if kind == "thin":
        return _full(rng, genre, focus, thin=True)
    if kind == "elsewhere":
        return _focused(rng, genre, "prototypical", rng.choice([s for s in genre.sections if s is not focus]))
    return _focused(rng, genre, kind, focus)


def _tags(rng: random.Random, names: tuple[str, ...]) -> list[str]:
    if rng.random() < 0.4:
        return []
    return sorted(rng.sample(names, rng.randint(1, 2)))


def render_document(rng: random.Random, title: str, body: list[Header]) -> str:
    lines = ["---", f"title: {title}"]
    content_types = _tags(rng, CONTENT_TYPES)
    special = _tags(rng, SPECIAL_CONTENT)
    if content_types:
        lines.append("content_types: " + ", ".join(content_types))
    if special:
        lines.append("special_content: " + ", ".join(special))
    lines.append("---")

    def emit(header: Header, level: int) -> None:
        lines.append("")
        lines.append("#" * min(level, 6) + " " + _surface(rng, header.label))
        lines.append(f"Notes on {header.label.lower().rstrip(':')}.")
        for child in header.children:
            emit(child, level + 1)

    for header in body:
        emit(header, 1)
    return "\n".join(lines) + "\n"


def write_documents(
    rng: random.Random, genre: Genre, directory: Path, kinds: list[tuple[str, Topic]]
) -> list[str]:
    """Write one file per (kind, focus); returns the file names in order."""
    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for index, (kind, focus) in enumerate(kinds):
        title = f"{genre.root.label} {rng.choice(TITLE_NOUNS)} {index + 1}"
        text = render_document(rng, title, _body(rng, genre, kind, focus))
        name = f"doc-{index:04d}.md"
        (directory / name).write_text(text, encoding="utf-8", newline="\n")
        names.append(name)
    return names


def _kind_list(rng: random.Random, spec, focuses: list[Topic]) -> list[tuple[str, Topic]]:
    kinds = [(kind, focuses[i % len(focuses)]) for kind, count in spec for i in range(count)]
    rng.shuffle(kinds)
    return kinds


# --- norms -------------------------------------------------------------------

def write_norm(rng: random.Random, genre: Genre, path: Path, doc_count: int, noise_nodes: int) -> None:
    """Write a schema-v1 composite: the skeleton with support p * doc_count,
    plus low-support noise topics spread under the root, the sections and
    the subsections (wide child lists)."""
    next_id = 0

    def node(label: str, support: int, position: float) -> dict:
        nonlocal next_id
        forms = [label] if rng.random() < 0.7 else [label, label + ":"]
        payload = {
            "id": next_id,
            "forms": forms,
            "typicality": round(support / doc_count, 12),
            "position": position,
            "support": support,
            "children": [],
        }
        next_id += 1
        return payload

    def convert(topic: Topic, position: float, depth: int) -> dict:
        support = doc_count if depth == 0 else max(1, min(doc_count, round(topic.p * doc_count)))
        payload = node(topic.label, support, position)
        last = max(len(topic.children) - 1, 1)
        payload["children"] = [convert(child, i / last, depth + 1) for i, child in enumerate(topic.children)]
        return payload

    root = convert(genre.root, 0.0, 0)
    sections = root["children"]
    subs = [sub for section in sections for sub in section["children"]]
    for _ in range(noise_nodes):
        roll = rng.random()
        parent = root if roll < 0.15 else rng.choice(sections) if roll < 0.6 else rng.choice(subs)
        parent["children"].append(node(rng.choice(genre.noise), rng.randint(1, 4), round(rng.random(), 6)))

    def order(payload: dict) -> None:
        payload["children"].sort(key=lambda child: (child["position"], child["id"]))
        for child in payload["children"]:
            order(child)

    order(root)
    composite = {"version": "1", "domain_genre": "synthetic", "doc_count": doc_count, "root": root}
    path.write_text(json.dumps(composite, indent=1) + "\n", encoding="utf-8", newline="\n")


# --- workloads ---------------------------------------------------------------

def generate(workload: str, seed: int, out: Path) -> dict:
    """Write one workload's inputs under out and return its manifest."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    genre = make_genre(seed)
    rng = random.Random(seed * 104729 + WORKLOADS.index(workload))
    focuses = genre.query_sections()
    manifest: dict = {"workload": workload, "seed": seed}
    if workload == "build-norm":
        kinds = [("full", None)] * REFERENCE_DOCS
        write_documents(rng, genre, out / "reference", kinds)
        manifest["corpus"] = "reference"
    elif workload == "query-stream":
        manifest["norm"] = "norm.json"
        write_norm(rng, genre, out / "norm.json", **STREAM_NORM)
        pool_kinds = _kind_list(rng, [(kind, count * POOL_PER_SLOT) for kind, count in PAGE_KINDS], focuses)
        names = write_documents(rng, genre, out / "pool", pool_kinds)
        buckets: dict[str, list[str]] = {}
        for name, (kind, _) in zip(names, pool_kinds):
            buckets.setdefault(kind, []).append(name)
        pages = [
            sorted(name for kind, count in PAGE_KINDS for name in rng.sample(buckets[kind], count))
            for _ in range(STREAM_PAGES)
        ]
        sub_queries = [focus.children[0].label.lower() for focus in focuses[:2]]
        section_queries = [focus.label.lower() for focus in focuses]
        # fixed shares: 5/8 section queries, 2/8 subsection queries, 1/8 no match
        queries = (section_queries * 5 + sub_queries * 4 + [NOMATCH_QUERY] * 4)[:STREAM_REQUEST_KINDS]
        manifest["pool"] = "pool"
        manifest["requests"] = [
            {"query": query, "page": pages[i % STREAM_PAGES]} for i, query in enumerate(queries)
        ]
    elif workload == "batch-audit":
        focus = focuses[0]
        manifest["norm"] = "norm.json"
        write_norm(rng, genre, out / "norm.json", **AUDIT_NORM)
        write_documents(rng, genre, out / "docs", _kind_list(rng, AUDIT_KINDS, [focus]))
        manifest["docs"] = "docs"
        manifest["query"] = focus.label.lower()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8", newline="\n")
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write one benchmark workload's inputs.")
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("out")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
