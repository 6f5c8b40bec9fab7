"""Surface realization: from a summary plan to prose.

Each instantiated category becomes one bulleted list item. The obligatory
description + member messages fuse into the first sentence; every optional
message gets a sentence of its own. Sentences stay short: small document
sets are enumerated by title, large ones are described by count plus one
exemplar, and feature subsets are named by position in the category's member
order, as ranges ("The first five documents") when the planner made them
contiguous, ordinal lists otherwise.

All choices are drawn from seeded PRNGs, so (plan, lexicon, seed) maps to
byte-identical text. The draws: a generator seeded with the master seed
gives each sentence, in plan order, its own seed ``randrange(2**32)``; a
generator seeded with that gives the pattern index
``randrange(len(patterns))`` and then the description index
``randrange(len(eligible))``, eligible being the category's description
phrases the sentence may use. A sentence's draws are thus a pure function
of (sentence seed, pattern count, eligible count). ``realize_plan`` keeps
them on the lexicon it is given, with the sentence seeds of the last master
seed it realized under (see ``_Draws``), so realizing again under that seed
seeds no generator. ``lexicalize`` seeds its own.

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
from .model import DocumentCategory, Record, check_line
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


def _subset_phrase(positions: Sequence[int], total: int) -> str:
    """Name the documents at the sorted 1-based positions of a category of
    total documents: a contiguous run as a range ("The first five
    documents"), anything else as an ordinal list."""
    first, last, size = positions[0], positions[-1], len(positions)
    if last - first + 1 != size:
        return "The " + join_and([ordinal_word(p) for p in positions]) + " documents"
    if size == 1:
        return "The document" if total == 1 else f"The {ordinal_word(first)} document"
    if size == total:
        return f"All {number_word(size)} documents"
    if first == 1:
        return f"The first {number_word(size)} documents"
    return f"The {ordinal_word(first)} through {ordinal_word(last)} documents"


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

    The Description and SetElements messages fuse into one sentence: it
    lists the members' titles when there are at most limit of them, and
    otherwise gives their count and the first member's title. Each optional
    message becomes its own sentence, in plan order; a feature names its
    documents by their positions in the category's member order.
    Raises ValueError when limit is below 1, the category or a feature has
    no members, or a feature's member is not in the category.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    members = category_plan.members()
    if not members:
        raise ValueError("cannot refer to an empty set")
    if len(members) <= limit:
        noun = "file" if len(members) == 1 else "files"
        named = join_and([titles.get(doc_id, doc_id) for doc_id in members])
        relation, slots = OVERVIEW_LIST, {"QUERY": query, "MEMBERS": f"{noun} ({named})"}
    else:
        exemplar = titles.get(members[0], members[0])
        relation, slots = OVERVIEW_EXEMPLAR, {"QUERY": query, "COUNT": str(len(members)), "EXEMPLAR": exemplar}
    plans = [
        SentencePlan(
            relation=relation,
            category=category_plan.category,
            slots=slots,
            counts={"members": len(members), "description": 1},
            extract_available=extract_available,
        )
    ]
    # doc ids are unique within a category (planner.plan refuses repeats)
    position = {doc_id: index for index, doc_id in enumerate(members, 1)}
    for message in category_plan.messages:
        if isinstance(message, HasTopics):
            plans.append(
                SentencePlan(
                    relation=SAMPLE_TOPICS,
                    category=category_plan.category,
                    slots={"QUERY": query, "TOPICS": join_and(message.topics)},
                    counts={"topics": len(message.topics), "description": 1},
                    extract_available=extract_available,
                )
            )
        elif isinstance(message, HasFeature):
            if not message.members:
                raise ValueError("cannot refer to an empty set")
            try:
                positions = sorted([position[doc_id] for doc_id in message.members])
            except KeyError as missing:
                raise ValueError(f"subset member {missing.args[0]!r} is not in the category") from None
            plans.append(
                SentencePlan(
                    relation=SHARED_FEATURES,
                    category=category_plan.category,
                    slots={
                        "QUERY": query,
                        "SUBSET": _subset_phrase(positions, len(members)),
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
    eligible = _eligible(lexicon, plan.category, plan.extract_available)
    return _lexicalize(plan, lexicon, _verb_table(lexicon), eligible, rng_seed, {})


def _verb_table(lexicon: Lexicon) -> dict[str, tuple[str, str]]:
    """Verb slot name -> (singular, plural) forms. A verb slot is a lemma's
    upper-cased self and wins over a content slot of that name; of the
    lemmas sharing an upper case, the last wins."""
    return {lemma.upper(): forms for lemma, forms in lexicon.morphology.items()}


def _eligible(lexicon: Lexicon, category: DocumentCategory, extract_available: bool) -> list[tuple[int, str]]:
    """(index, phrase) of each description phrase of the category that a
    sentence may use: one naming the extract only when the extract exists."""
    return [
        (index, phrase)
        for index, phrase in enumerate(lexicon.descriptions.get(category.value, []))
        if extract_available or "{EXTRACT_REF}" not in phrase
    ]


class _Draws:
    """What ``realize_plan`` holds on a lexicon (its ``_draws`` slot) for
    one int master seed: the sentence seeds the master generator gave, in
    order, and each sentence's draws, (pattern index, description index),
    keyed by (sentence seed, pattern count, eligible count). Every value
    is a pure function of its key, so threads sharing a lexicon can at
    worst draw the same values twice, and a lexicon edited since keeps
    whatever draws still apply. A different master seed replaces the
    record, so it never holds more than one seed's sentences."""

    __slots__ = ("seed", "seeds", "picks")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.seeds: tuple[int, ...] = ()
        self.picks: dict[tuple[int, int, int], tuple[int, int | None]] = {}

    def sentence_seeds(self, count: int) -> tuple[int, ...]:
        """At least the first count sentence seeds. The held ones are never
        drawn on: a fresh generator draws them all again, and the rest."""
        seeds = self.seeds
        if len(seeds) < count:
            master = random.Random(self.seed)
            seeds = self.seeds = tuple([master.randrange(2**32) for _ in range(count)])
        return seeds


def _held_draws(lexicon: Lexicon, seed: int) -> _Draws:
    """The draws the lexicon holds for seed, or new ones held in their
    place. Only an int seed is held: an equal seed of another type may
    seed a different generator (-1.0 and -1 do, as do 2.0**64 and 2**64),
    and None seeds a random one."""
    if seed.__class__ is not int:
        return _Draws(seed)
    draws = getattr(lexicon, "_draws", None)
    if draws is None or draws.seed != seed:
        draws = lexicon._draws = _Draws(seed)
    return draws


def _lexicalize(
    plan: SentencePlan,
    lexicon: Lexicon,
    verbs: dict[str, tuple[str, str]],
    eligible: list[tuple[int, str]],
    seed: int,
    picks: dict[tuple[int, int, int], tuple[int, int | None]],
) -> str:
    """lexicalize over a verb table and eligible descriptions the caller
    built from the lexicon, once for all the sentences it realizes, taking
    the sentence's draws from picks, and drawing them into it when absent."""
    patterns = lexicon.patterns.get(plan.relation)
    if not patterns:
        raise LexiconGapError(
            f"lexicon gap: no patterns for relation {plan.relation!r} (category {plan.category.value!r})"
        )
    key = (seed, len(patterns), len(eligible))
    drawn = picks.get(key)
    if drawn is None:
        # the pattern index, then the description index, which no sentence
        # uses when no description is eligible
        rng = random.Random(seed)
        drawn = picks[key] = (rng.randrange(len(patterns)), rng.randrange(len(eligible)) if eligible else None)
    pattern = patterns[drawn[0]]
    plan.chosen_pattern = pattern.id

    slots = plan.slots
    description = None
    if "{DESCRIPTION}" in pattern.text:
        if not eligible:
            raise LexiconGapError(
                f"lexicon gap: no description for category {plan.category.value!r} (relation {plan.relation!r})"
            )
        index, phrase = eligible[drawn[1]]
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
    """Realize every category of the plan, keeping the sentence plans around.

    Every category's sentence plans are built before any is lexicalized,
    so that one master generator, at most, gives the sentence seeds."""
    titles = titles or {}
    grouped = [
        build_sentence_plans(
            category_plan,
            query=plan.query,
            titles=titles,
            limit=limit,
            extract_available=extract_exists,
        )
        for category_plan in plan.categories
    ]
    draws = _held_draws(lexicon, seed)
    seeds = iter(draws.sentence_seeds(sum(map(len, grouped))))
    picks = draws.picks
    verbs = _verb_table(lexicon)
    realized: list[RealizedCategory] = []
    for category_plan, sentence_plans in zip(plan.categories, grouped):
        eligible = _eligible(lexicon, category_plan.category, extract_exists)
        texts = [_lexicalize(sp, lexicon, verbs, eligible, next(seeds), picks) for sp in sentence_plans]
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
