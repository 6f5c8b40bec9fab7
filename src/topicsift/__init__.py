"""topicsift: query-based indicative characterization of document sets.

Documents are parsed into topic trees from their section headers, compared
against a composite norm built from a reference corpus, classified into
seven categories by their topic-type distribution, and described by a short
templated summary, one bullet per instantiated category.

``summarize`` runs that pipeline over a parsed document set and a norm and
returns a ``Summary`` of every stage; ``summary_lines`` gives its bullets
(or the no-match notice) and ``render_trace`` its line-oriented trace. The
``topicsift`` command (``cli``) only parses flags, loads files and prints.
"""
from .classify import TypeDistribution, classify, distribution, possible_typical_topics
from .composite import (
    Alignment,
    CompositeSchemaError,
    EmptyCorpusError,
    align_tree,
    build_composite,
    load_composite,
    save_composite,
)
from .ingest import CorpusNameError, CorpusReadError, CorpusSet, load_corpus, parse_document, parse_metadata
from .lexicon import Lexicon, LexiconError, LexiconGapError, default_lexicon, load_lexicon, save_lexicon
from .model import (
    CATEGORY_ORDER,
    CompositeTopicTree,
    DocumentCategory,
    DocumentMetadata,
    DocumentTopicTree,
    LexicalForms,
    NormNode,
    TopicType,
    TypingParams,
    UnknownNodeError,
    normalize,
)
from .planner import (
    CategoryPlan,
    Description,
    HasFeature,
    HasTopics,
    Message,
    SetElements,
    SummaryPlan,
    instantiate,
    plan,
)
from .realizer import (
    NO_MATCH_NOTICE,
    Enumeration,
    Exemplar,
    OrdinalList,
    RangeRef,
    SentencePlan,
    build_sentence_plans,
    lexicalize,
    realize_plan,
    realize_summary,
    refer_to_set,
    summary_lines,
)
from .pipeline import DocResult, Summary, render_trace, summarize
from .topic_typing import TypedTree, assign_types, map_query, type_document

__version__ = "0.1.0"

__all__ = [
    "Alignment",
    "CATEGORY_ORDER",
    "CategoryPlan",
    "CompositeSchemaError",
    "CompositeTopicTree",
    "CorpusNameError",
    "CorpusReadError",
    "CorpusSet",
    "Description",
    "DocResult",
    "DocumentCategory",
    "DocumentMetadata",
    "DocumentTopicTree",
    "EmptyCorpusError",
    "Enumeration",
    "Exemplar",
    "HasFeature",
    "HasTopics",
    "LexicalForms",
    "Lexicon",
    "LexiconError",
    "LexiconGapError",
    "Message",
    "NO_MATCH_NOTICE",
    "NormNode",
    "OrdinalList",
    "RangeRef",
    "SentencePlan",
    "SetElements",
    "Summary",
    "SummaryPlan",
    "TopicType",
    "TypeDistribution",
    "TypedTree",
    "TypingParams",
    "UnknownNodeError",
    "align_tree",
    "assign_types",
    "build_composite",
    "build_sentence_plans",
    "classify",
    "default_lexicon",
    "distribution",
    "instantiate",
    "lexicalize",
    "load_composite",
    "load_corpus",
    "load_lexicon",
    "map_query",
    "normalize",
    "parse_document",
    "parse_metadata",
    "plan",
    "possible_typical_topics",
    "realize_plan",
    "realize_summary",
    "refer_to_set",
    "render_trace",
    "save_composite",
    "save_lexicon",
    "summarize",
    "summary_lines",
    "type_document",
]
