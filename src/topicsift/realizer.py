"""Surface realization: from a summary plan to prose.

Each instantiated category becomes one bulleted list item. The obligatory
description + member messages fuse into the first sentence; every optional
message gets a sentence of its own. Referring expressions keep sentences
short: small document sets are enumerated by title, large ones are described
by count plus one exemplar, and feature subsets are ranges ("The first five
documents") when the planner made them contiguous, ordinal lists otherwise.

All choices are drawn from a seeded PRNG, so (plan, lexicon, seed) maps to
byte-identical text.

A sentence is filled without scanning its pattern: each ``Pattern`` splits
its text at the slot markers once, when it is made, and one loop over those
parts binds the slots. ``realize_plan`` builds the verb table (slot name to
verb forms) once for all its sentences, and the final-period rule is
checked on the sentence's last three characters only, the one place it can
match.
"""
from __future__ import annotations

import random
import re
from collections.abc import Mapping, Sequence

from .lexicon import (
    OVERVIEW_EXEMPLAR,
    OVERVIEW_LIST,
    SAMPLE_TOPICS,
    SHARED_FEATURES,
    Lexicon,
    LexiconError,
    LexiconGapError,
)
from .model import DocumentCategory, FrozenRecord, Record, check_line
from .planner import CategoryPlan, HasFeature, HasTopics, SummaryPlan

NO_MATCH_NOTICE = "No documents matched the query."

_FINAL_PERIOD = re.compile(r"([.?!])\.$")

_NUMBER_WORDS = (
    "zero", "one", "two", "three", "four", "five", "six", "seven", "eight",
    "nine", "ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen",
    "sixteen", "seventeen", "eighteen", "nineteen", "twenty",
)
_ORDINAL_WORDS = (
    "zeroth", "first", "second", "third", "fourth", "fifth", "sixth",
    "seventh", "eighth", "ninth", "tenth", "eleventh", "twelfth",
    "thirteenth", "fourteenth", "fifteenth", "sixteenth", "seventeenth",
    "eighteenth", "nineteenth", "twentieth",
)


def number_word(n: int) -> str:
    return _NUMBER_WORDS[n] if 0 <= n < len(_NUMBER_WORDS) else str(n)


def ordinal_word(n: int) -> str:
    if 0 <= n < len(_ORDINAL_WORDS):
        return _ORDINAL_WORDS[n]
    if 10 <= n % 100 <= 13:
        return f"{n}th"
    return f"{n}{ {1: 'st', 2: 'nd', 3: 'rd'}.get(n % 10, 'th') }"


def join_and(items: Sequence[str]) -> str:
    """"a", "a and b", "a, b and c"."""
    items = list(items)
    if not items:
        return ""
    if len(items) == 1:
        return items[0]
    return ", ".join(items[:-1]) + " and " + items[-1]


# --- referring expressions --------------------------------------------------

class Enumeration(FrozenRecord):
    __slots__ = _fields = ("titles",)

    def __init__(self, titles: tuple[str, ...]) -> None:
        object.__setattr__(self, "titles", titles)


class Exemplar(FrozenRecord):
    __slots__ = _fields = ("count", "sample")

    def __init__(self, count: int, sample: str) -> None:
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "sample", sample)


class RangeRef(FrozenRecord):
    __slots__ = _fields = ("start", "stop", "total")

    def __init__(self, start: int, stop: int, total: int) -> None:
        # 1-based positions, both inclusive
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "stop", stop)
        object.__setattr__(self, "total", total)


class OrdinalList(FrozenRecord):
    __slots__ = _fields = ("positions", "total")

    def __init__(self, positions: tuple[int, ...], total: int) -> None:
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "total", total)


RefExpr = Enumeration | Exemplar | RangeRef | OrdinalList


def refer_to_set(
    members: Sequence[str], limit: int, *, within: Sequence[str] | None = None
) -> RefExpr:
    """Pick a referring expression for an ordered set of document titles.

    Without ``within``: enumerate when there are at most ``limit`` members,
    otherwise fall back to a count + exemplar (the first member). With
    ``within`` (the full ordered member list of the category), the members
    are a subset referred to by position: a contiguous run becomes a range,
    anything else an explicit ordinal list.
    """
    if not members:
        raise ValueError("cannot refer to an empty set")
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if within is None:
        if len(members) <= limit:
            return Enumeration(titles=tuple(members))
        return Exemplar(count=len(members), sample=members[0])
    positions = _subset_positions(members, within)
    if positions[-1] - positions[0] + 1 == len(positions):
        return RangeRef(start=positions[0], stop=positions[-1], total=len(within))
    return OrdinalList(positions=tuple(positions), total=len(within))


def _subset_positions(members: Sequence[str], within: Sequence[str]) -> list[int]:
    used: set[int] = set()
    positions: list[int] = []
    for member in members:
        for index, candidate in enumerate(within):
            if index not in used and candidate == member:
                used.add(index)
                positions.append(index + 1)
                break
        else:
            raise ValueError(f"subset member {member!r} is not in the containing set")
    return sorted(positions)


def render_members(expr: Enumeration) -> str:
    noun = "file" if len(expr.titles) == 1 else "files"
    return f"{noun} ({join_and(expr.titles)})"


def render_subset(expr: RangeRef | OrdinalList) -> str:
    if isinstance(expr, OrdinalList):
        return "The " + join_and([ordinal_word(p) for p in expr.positions]) + " documents"
    size = expr.stop - expr.start + 1
    if size == 1:
        return "The document" if expr.total == 1 else f"The {ordinal_word(expr.start)} document"
    if size == expr.total:
        return f"All {number_word(size)} documents"
    if expr.start == 1:
        return f"The first {number_word(size)} documents"
    return f"The {ordinal_word(expr.start)} through {ordinal_word(expr.stop)} documents"


# --- sentence planning -------------------------------------------------------

class SentencePlan(Record):
    """One sentence to realize: a pattern group plus its slot bindings.

    counts carries the cardinality of each agreement controller; the chosen
    pattern/description indices are filled in during lexicalization so traces
    can report them.
    """

    __slots__ = _fields = (
        "relation", "category", "slots", "counts", "extract_available", "chosen_pattern", "chosen_description",
    )

    def __init__(
        self,
        relation: str,
        category: DocumentCategory,
        slots: dict[str, str],
        counts: dict[str, int] | None = None,
        extract_available: bool = False,
        chosen_pattern: str | None = None,
        chosen_description: int | None = None,
    ) -> None:
        self.relation = relation
        self.category = category
        self.slots = slots
        self.counts = {} if counts is None else counts
        self.extract_available = extract_available
        self.chosen_pattern = chosen_pattern
        self.chosen_description = chosen_description


def build_sentence_plans(
    category_plan: CategoryPlan,
    *,
    query: str,
    titles: Mapping[str, str],
    limit: int = 5,
    extract_available: bool = False,
) -> list[SentencePlan]:
    """Group a category's messages into sentence plans.

    The Description and SetElements messages fuse into one sentence; each
    optional message becomes its own sentence, in plan order.
    """
    def title(doc_id: str) -> str:
        return titles.get(doc_id, doc_id)

    members = category_plan.members()
    member_titles = [title(doc_id) for doc_id in members]
    overview = refer_to_set(member_titles, limit)
    common = {"QUERY": query}
    if isinstance(overview, Enumeration):
        first = SentencePlan(
            relation=OVERVIEW_LIST,
            category=category_plan.category,
            slots={**common, "MEMBERS": render_members(overview)},
            counts={"members": len(members), "description": 1},
            extract_available=extract_available,
        )
    else:
        first = SentencePlan(
            relation=OVERVIEW_EXEMPLAR,
            category=category_plan.category,
            slots={**common, "COUNT": str(overview.count), "EXEMPLAR": overview.sample},
            counts={"members": len(members), "description": 1},
            extract_available=extract_available,
        )
    plans = [first]
    for message in category_plan.messages:
        if isinstance(message, HasTopics):
            plans.append(
                SentencePlan(
                    relation=SAMPLE_TOPICS,
                    category=category_plan.category,
                    slots={**common, "TOPICS": join_and(message.topics)},
                    counts={"topics": len(message.topics), "description": 1},
                    extract_available=extract_available,
                )
            )
        elif isinstance(message, HasFeature):
            subset = refer_to_set([title(m) for m in message.members], limit, within=member_titles)
            plans.append(
                SentencePlan(
                    relation=SHARED_FEATURES,
                    category=category_plan.category,
                    slots={
                        **common,
                        "SUBSET": render_subset(subset),
                        "FEATURES": join_and(message.values),
                    },
                    counts={"subset": len(message.members), "description": 1},
                    extract_available=extract_available,
                )
            )
    return plans


# --- lexicalization ----------------------------------------------------------

def lexicalize(plan: SentencePlan, lexicon: Lexicon, rng_seed: int) -> str:
    """Realize one sentence plan; deterministic for a given seed.

    Raises LexiconGapError, naming the missing entry, when the lexicon does
    not cover the plan's relation or category, or a slot stays unbound, and
    LexiconError when a description phrase or verb form the sentence uses
    is not one line of UTF-8 text (a pattern checks its own text).
    """
    return _lexicalize(plan, lexicon, rng_seed, _verb_table(lexicon))


def _verb_table(lexicon: Lexicon) -> dict[str, tuple[str, str]]:
    """Verb slot name -> (singular, plural) forms. A verb slot is a lemma's
    upper-cased self and wins over a content slot of that name; of the
    lemmas sharing an upper case, the last wins."""
    return {lemma.upper(): forms for lemma, forms in lexicon.morphology.items()}


def _lexicalize(plan: SentencePlan, lexicon: Lexicon, rng_seed: int, verbs: dict[str, tuple[str, str]]) -> str:
    """lexicalize over a verb table the caller built from the lexicon's
    morphology, once for all the sentences it realizes."""
    rng = random.Random(rng_seed)
    patterns = lexicon.patterns.get(plan.relation)
    if not patterns:
        raise LexiconGapError(
            f"lexicon gap: no patterns for relation {plan.relation!r} (category {plan.category.value!r})"
        )
    pattern = patterns[rng.randrange(len(patterns))]
    plan.chosen_pattern = pattern.id

    slots = plan.slots
    description = None
    if "{DESCRIPTION}" in pattern.text:
        variants = lexicon.descriptions.get(plan.category.value, [])
        eligible = [
            (index, phrase)
            for index, phrase in enumerate(variants)
            if plan.extract_available or "{EXTRACT_REF}" not in phrase
        ]
        if not eligible:
            raise LexiconGapError(
                f"lexicon gap: no description for category {plan.category.value!r} (relation {plan.relation!r})"
            )
        index, phrase = eligible[rng.randrange(len(eligible))]
        check_line(phrase, "description phrase", LexiconError)
        plan.chosen_description = index
        phrase = phrase.replace("{QUERY}", slots.get("QUERY", ""))
        description = phrase.replace("{EXTRACT_REF}", "the extract above")

    # literal text at even positions, slot names at odd ones
    pieces = list(pattern.parts)
    plural = plan.counts.get(pattern.agree, 1) != 1
    missing: list[str] = []
    for position in range(1, len(pieces), 2):
        name = pieces[position]
        forms = verbs.get(name)
        if forms is not None:
            form = forms[plural]
            check_line(form, "morphology form", LexiconError)
            pieces[position] = form
        elif name == "DESCRIPTION" and description is not None:
            pieces[position] = description
        elif name in slots:
            pieces[position] = slots[name]
        else:
            missing.append(name)
    if missing:
        raise LexiconGapError(
            f"lexicon gap: pattern {pattern.id!r} leaves slots unbound: {', '.join(sorted(set(missing)))}"
        )
    text = "".join(pieces)
    # slot values may end in their own punctuation ("what are the risks?");
    # drop the pattern's final period rather than stacking marks. The rule
    # can only match on the last three characters: "$" matches at the end
    # or before a final "\n"
    final = _FINAL_PERIOD.search(text, max(len(text) - 3, 0))
    if final is not None:
        text = text[:final.end(1)] + text[final.end():]
    return text[:1].upper() + text[1:]


class RealizedCategory(Record):
    """One category bullet with its realized sentence plans, for tracing."""

    __slots__ = _fields = ("plan", "sentences", "texts")

    def __init__(self, plan: CategoryPlan, sentences: list[SentencePlan], texts: list[str]) -> None:
        self.plan = plan
        self.sentences = sentences
        self.texts = texts

    @property
    def bullet(self) -> str:
        return "- " + " ".join(self.texts)


def realize_plan(
    plan: SummaryPlan,
    lexicon: Lexicon,
    seed: int,
    *,
    titles: Mapping[str, str] | None = None,
    limit: int = 5,
    extract_exists: bool = False,
) -> list[RealizedCategory]:
    """Realize every category of the plan, keeping the sentence plans around."""
    master = random.Random(seed)
    verbs = _verb_table(lexicon)
    titles = titles or {}
    realized: list[RealizedCategory] = []
    for category_plan in plan.categories:
        sentence_plans = build_sentence_plans(
            category_plan,
            query=plan.query,
            titles=titles,
            limit=limit,
            extract_available=extract_exists,
        )
        texts = [_lexicalize(sp, lexicon, master.randrange(2**32), verbs) for sp in sentence_plans]
        realized.append(RealizedCategory(plan=category_plan, sentences=sentence_plans, texts=texts))
    return realized


def realize_summary(
    plan: SummaryPlan,
    lexicon: Lexicon,
    seed: int,
    *,
    titles: Mapping[str, str] | None = None,
    limit: int = 5,
    extract_exists: bool = False,
) -> str:
    """The whole summary: one bullet per category, fixed notice when empty."""
    realized = realize_plan(
        plan, lexicon, seed, titles=titles, limit=limit, extract_exists=extract_exists
    )
    return "\n".join(summary_lines(realized))


def summary_lines(realized: Sequence[RealizedCategory]) -> list[str]:
    """The summary's lines: one bullet per category, or the no-match notice."""
    return [item.bullet for item in realized] or [NO_MATCH_NOTICE]
