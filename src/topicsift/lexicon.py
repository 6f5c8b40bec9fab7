"""Phrase-level lexicon for the realizer.

Lexical choice happens on whole phrases: every document category has a small
set of description phrases, every message relation a small set of sentence
patterns, and a seeded random draw picks among them. Patterns carry slot
markers ({DESCRIPTION}, {MEMBERS}, {COUNT}, {EXEMPLAR}, {TOPICS},
{FEATURES}, {SUBSET}) plus verb slots ({BE}, {HAVE}, {OFFER}, {CONTAIN},
{INCLUDE}) that agree in number with the pattern's declared controller.

Description phrases may mention the query via {QUERY}. Phrases containing
{EXTRACT_REF} refer to the companion similarity extract and are only
eligible when the caller says such an extract exists.

Lexicon files reuse the composite file's meta format: versioned JSON.
"""
from __future__ import annotations

import json
import re
from pathlib import Path

from .model import FrozenRecord, Record, brief_repr, check_line, read_json

SCHEMA_VERSION = "1"

# a slot marker: an upper-case name in braces
_SLOT = re.compile(r"\{([A-Z_]+)\}")

# pattern-group keys, one per realized sentence kind
OVERVIEW_LIST = "overview_list"
OVERVIEW_EXEMPLAR = "overview_exemplar"
SAMPLE_TOPICS = "sample_topics"
SHARED_FEATURES = "shared_features"

# the content slots the realizer binds; a morphology lemma is bound as its
# upper-cased self after them, so a lemma of one of these names would replace
# the content
CONTENT_SLOTS = frozenset({"DESCRIPTION", "QUERY", "MEMBERS", "COUNT", "EXEMPLAR", "TOPICS", "FEATURES", "SUBSET"})


class LexiconError(ValueError):
    """A lexicon file failed schema validation."""


class LexiconGapError(KeyError):
    """The lexicon lacks an entry the plan needs; names the missing piece."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:
        return self.message


class Pattern(FrozenRecord):
    """One sentence pattern; agree names the slot whose count controls verb number.

    ``parts`` is the text split once at its slot markers: literal text at
    even positions, slot names at odd ones, so the realizer fills a pattern
    without scanning it. The pattern is frozen, so its parts always match
    its text; they are neither compared nor shown.

    An id or text that is not one line of UTF-8 raises LexiconError: the
    trace prints the pattern id and a sentence holds the pattern's text, so
    a line break would forge output lines, and a lone surrogate cannot be
    written to a UTF-8 stdout.
    """

    __slots__ = ("id", "text", "agree", "parts")
    _fields = ("id", "text", "agree")

    def __init__(self, id: str, text: str, agree: str = "members") -> None:
        check_line(id, "pattern id", LexiconError)
        check_line(text, "pattern text", LexiconError)
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "agree", agree)
        object.__setattr__(self, "parts", tuple(_SLOT.split(text)))


class Lexicon(Record):
    """Description phrases per category, patterns per relation and
    (singular, plural) verb forms per lemma. Its phrases and forms are
    checked where they are used: by the realizer, for each sentence, and by
    the lexicon file's writer and reader.

    Besides its fields, a lexicon holds the realizer's draws under the last
    master seed it realized under (``_draws``, unset until then; see
    ``realizer._Draws``). They depend on no field, so they are neither
    compared, shown, nor written to a lexicon file."""

    __slots__ = ("descriptions", "patterns", "morphology", "_draws")
    _fields = __slots__[:-1]
    _defaults = {"descriptions": {}, "patterns": {}, "morphology": {}}


def default_lexicon() -> Lexicon:
    """The built-in lexicon."""
    return Lexicon(
        descriptions={
            "prototypical": [
                "typical information on {QUERY} that readers would expect from this kind of document",
                "the standard coverage of {QUERY} for documents of this kind",
                "the common information on {QUERY} that is summarized in {EXTRACT_REF}",
            ],
            "comprehensive": [
                "broad coverage of the usual topics on {QUERY} along with some added material",
                "most of the typical content on {QUERY} plus further topics",
            ],
            "specialized": [
                "focused information on a few of the usual topics of {QUERY}",
                "a narrower selection of the typical topics on {QUERY}",
            ],
            "atypical": [
                "more information on additional topics which are not included in the extract",
                "coverage of unusual topics that fall outside the common material on {QUERY}",
            ],
            "deep": [
                "detailed information on a particular subtopic of {QUERY}",
                "in-depth material on one narrow aspect of {QUERY}",
            ],
            "irrelevant": [
                "material that is largely unrelated to {QUERY}",
                "content mostly outside the scope of {QUERY}",
            ],
            "generic": [
                "a mix of topics without a strong leaning toward any particular kind of content",
                "an even spread of material without a dominant focus on {QUERY}",
            ],
        },
        patterns={
            OVERVIEW_LIST: [
                Pattern(id="available-in", text="{DESCRIPTION} {BE} available in the {MEMBERS}.", agree="description"),
                Pattern(id="files-offer", text="The {MEMBERS} {OFFER} {DESCRIPTION}.", agree="members"),
            ],
            OVERVIEW_EXEMPLAR: [
                Pattern(
                    id="there-are",
                    text="There {BE} {COUNT} documents (such as {EXEMPLAR}) that {HAVE} {DESCRIPTION}.",
                    agree="members",
                ),
                Pattern(
                    id="count-offer",
                    text="{COUNT} documents (such as {EXEMPLAR}) {OFFER} {DESCRIPTION}.",
                    agree="members",
                ),
            ],
            SAMPLE_TOPICS: [
                Pattern(id="topics-include", text="Topics include {TOPICS}.", agree="topics"),
                Pattern(id="sample-topics", text="Sample topics include {TOPICS}.", agree="topics"),
            ],
            SHARED_FEATURES: [
                Pattern(id="contain-as-well", text="{SUBSET} {CONTAIN} {FEATURES} as well.", agree="subset"),
                Pattern(id="also-include", text="{SUBSET} also {INCLUDE} {FEATURES}.", agree="subset"),
            ],
        },
        morphology={
            "be": ("is", "are"),
            "have": ("has", "have"),
            "offer": ("offers", "offer"),
            "contain": ("contains", "contain"),
            "include": ("includes", "include"),
        },
    )


def save_lexicon(lexicon: Lexicon, path: str | Path) -> None:
    """Write a lexicon file. Before the file is opened, a description
    phrase or verb form that load_lexicon would refuse as not one line of
    UTF-8 raises LexiconError (a pattern checks its own text), and the text
    is encoded."""
    for phrases in lexicon.descriptions.values():
        for phrase in phrases:
            check_line(phrase, "description phrase", LexiconError)
    for forms in lexicon.morphology.values():
        for form in forms:
            check_line(form, "morphology form", LexiconError)
    payload = {
        "version": SCHEMA_VERSION,
        "descriptions": lexicon.descriptions,
        "patterns": {
            relation: [{"id": p.id, "text": p.text, "agree": p.agree} for p in patterns]
            for relation, patterns in lexicon.patterns.items()
        },
        "morphology": {lemma: list(forms) for lemma, forms in lexicon.morphology.items()},
    }
    Path(path).write_bytes((json.dumps(payload, indent=2, ensure_ascii=False) + "\n").encode("utf-8"))


def load_lexicon(path: str | Path) -> Lexicon:
    """Load and validate a lexicon file (UTF-8, a leading byte-order mark
    dropped); any fault raises LexiconError."""
    payload = read_json(path, "lexicon", LexiconError)
    if not isinstance(payload, dict) or payload.get("version") != SCHEMA_VERSION:
        raise LexiconError(f"unsupported lexicon schema version {brief_repr(payload.get('version'))}" if isinstance(payload, dict) else "lexicon file must hold an object")
    descriptions = payload.get("descriptions")
    patterns_raw = payload.get("patterns")
    morphology_raw = payload.get("morphology")
    if not isinstance(descriptions, dict) or not isinstance(patterns_raw, dict) or not isinstance(morphology_raw, dict):
        raise LexiconError("lexicon file needs descriptions, patterns and morphology objects")
    patterns: dict[str, list[Pattern]] = {}
    for relation, entries in patterns_raw.items():
        if not isinstance(entries, list):
            raise LexiconError(f"patterns for {brief_repr(relation)} must be a list")
        parsed = []
        for entry in entries:
            if not isinstance(entry, dict) or not isinstance(entry.get("text"), str):
                raise LexiconError(f"malformed pattern entry under {brief_repr(relation)}")
            pattern_id, agree = entry.get("id", ""), entry.get("agree", "members")
            if not isinstance(pattern_id, str) or not isinstance(agree, str):
                raise LexiconError(f"pattern id and agree under {brief_repr(relation)} must be strings")
            parsed.append(Pattern(id=pattern_id, text=entry["text"], agree=agree))
        patterns[relation] = parsed
    morphology: dict[str, tuple[str, str]] = {}
    for lemma, forms in morphology_raw.items():
        if not isinstance(forms, list) or len(forms) != 2 or not all(isinstance(f, str) for f in forms):
            raise LexiconError(f"morphology entry {brief_repr(lemma)} must be [singular, plural]")
        if lemma.upper() in CONTENT_SLOTS:
            raise LexiconError(f"morphology entry {brief_repr(lemma)} would replace the content slot {{{lemma.upper()}}}")
        for form in forms:
            check_line(form, "morphology form", LexiconError)
        morphology[lemma] = (forms[0], forms[1])
    for category, phrases in descriptions.items():
        if not isinstance(phrases, list) or not all(isinstance(p, str) for p in phrases):
            raise LexiconError(f"descriptions for {brief_repr(category)} must be a list of strings")
        for phrase in phrases:
            check_line(phrase, "description phrase", LexiconError)
    return Lexicon(descriptions=dict(descriptions), patterns=patterns, morphology=morphology)
