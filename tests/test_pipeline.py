"""The library pipeline: summarize and render_trace reproduce the golden
angina outputs without the command line, and call every stage through its
module."""
from __future__ import annotations

import importlib
import inspect

import pytest

import topicsift
from topicsift import (
    NO_MATCH_NOTICE,
    TypingParams,
    build_composite,
    default_lexicon,
    load_corpus,
    realize_summary,
    render_trace,
    summarize,
    summary_lines,
)

from conftest import GOLDEN


def _angina_summary(angina_reference, angina_docs):
    composite = build_composite(load_corpus(angina_reference), 0.5)
    return summarize(
        load_corpus(angina_docs).docs,
        composite,
        "angina",
        TypingParams(),
        default_lexicon(),
        seed=0,
        limit=5,
        align_threshold=0.5,
        extract_exists=False,
    )


def _with_line_break(source, target, line_break):
    """Copy a fixture directory to target, every "\n" written as line_break."""
    target.mkdir(parents=True)
    for path in source.iterdir():
        (target / path.name).write_bytes(path.read_text(encoding="utf-8").replace("\n", line_break).encode("utf-8"))
    return target


@pytest.mark.parametrize("line_break", ["\n", "\r\n", "\r", "\u2028"], ids=["lf", "crlf", "cr", "u2028"])
def test_summarize_and_render_trace_reproduce_the_golden_files(angina_reference, angina_docs, tmp_path, line_break):
    if line_break != "\n":
        # same directory and file names: the trace shows the domain-genre and doc ids
        angina_reference, angina_docs = (
            _with_line_break(source, tmp_path / "angina" / source.name, line_break)
            for source in (angina_reference, angina_docs)
        )
    summary = _angina_summary(angina_reference, angina_docs)
    trace = "".join(line + "\n" for line in render_trace(summary))
    assert trace == (GOLDEN / "angina_trace.txt").read_text(encoding="utf-8")
    text = "".join(line + "\n" for line in summary_lines(summary.realized))
    assert text == (GOLDEN / "angina_summary.txt").read_text(encoding="utf-8")


def test_summary_lines_of_nothing_is_the_notice():
    assert summary_lines([]) == [NO_MATCH_NOTICE]


STAGES = (
    ("topic_typing", "type_document"),
    ("classify", "distribution"),
    ("classify", "classify"),
    ("planner", "plan"),
    ("realizer", "realize_plan"),
)


def test_summarize_calls_each_stage_through_its_module(angina_reference, angina_docs, monkeypatch):
    """A stage bound by name at import would escape a wrapper patched onto
    its module, as the benchmark's tracer patches them."""
    calls = dict.fromkeys(STAGES, 0)

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for key in STAGES:
        module = importlib.import_module(f"topicsift.{key[0]}")
        monkeypatch.setattr(module, key[1], counting(key, getattr(module, key[1])))
    summary = _angina_summary(angina_reference, angina_docs)
    documents = len(summary.results)
    assert documents == 4
    assert calls == {
        ("topic_typing", "type_document"): documents,
        ("classify", "distribution"): documents,
        ("classify", "classify"): documents,
        ("planner", "plan"): 1,
        ("realizer", "realize_plan"): 1,
    }


def test_realize_summary_joins_the_summary_lines(angina_reference, angina_docs):
    summary = _angina_summary(angina_reference, angina_docs)
    titles = {r.typed.doc.doc_id: r.typed.doc.display_title() for r in summary.results}
    text = realize_summary(summary.plan, default_lexicon(), summary.seed, titles=titles, limit=summary.limit)
    assert text == "\n".join(summary_lines(summary.realized))


def test_all_lists_exactly_the_public_names():
    """A name removed from the package cannot stay in __all__, nor one added
    be left out of it."""
    public = {
        name for name, value in vars(topicsift).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(topicsift.__all__) == sorted(public)
