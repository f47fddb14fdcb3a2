"""Where the tracer hooks into each slotfill layer, what it counts there,
and how spans and counts become the per-layer metrics.

Wrapped, from the outside: every slotfill function that ``slotfill.pipeline``
and ``slotfill.trainer`` import or define, ``retrieval.query_and`` and
``retrieval.query_or`` (to count the documents each tier scores), and the
``forward`` and ``loss_and_grads`` methods of both network classes.  A span's
layer is the module that defines the function (``nnets`` for the package).

Time metrics are self times: span durations minus their children's.  The
query-path ones count only spans of a top-level query (trace ids
``query:...``); the training ones only spans of a training job
(``train:...``).  Every ratio is returned with its numerator and
denominator.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import END, LAYER, NAME, START, TRACE, Tracer, self_times


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _ingest(t: Tracer, args, kwargs, store) -> None:
    t.add("corpus.docs", len(store))
    t.add("corpus.sentences", sum(len(d.sentences) for d in store))


def _index(t: Tracer, args, kwargs, index) -> None:
    t.add("retrieval.terms", len(index.postings))


def _retrieved(t: Tracer, args, kwargs, doc_ids) -> None:
    t.add("retrieval.docs_returned", len(doc_ids))


def _scored(t: Tracer, args, kwargs, results) -> None:
    t.add("retrieval.docs_scored", len(results))


def _link(t: Tracer, args, kwargs, result) -> None:
    t.add("query.link_calls")


def _gate(t: Tracer, args, kwargs, keep: bool) -> None:
    t.add("query.link_calls")
    t.add("query.gate_docs_in")
    t.add("query.gate_dropped", not keep)


def _mentions(t: Tracer, args, kwargs, found) -> None:
    doc = _arg(args, kwargs, 0, "doc")
    names = _arg(args, kwargs, 1, "names")
    t.add("mentions.find_calls")
    t.add("mentions.sentences_scanned", len(doc.sentences))
    t.add("mentions.hit_calls", bool(found))
    t.add("mentions.repeat_calls", t.repeat("mentions", (doc.id, tuple(names))))
    for m in found:
        t.add(f"mentions.found.{m.kind}")


def _coref(t: Tracer, args, kwargs, found) -> None:
    t.add("mentions.found.coref", len(found))


def _nominal(t: Tracer, args, kwargs, found) -> None:
    t.add("mentions.found.nominal_heuristic", len(found))


def _tag(t: Tracer, args, kwargs, spans) -> None:
    sentence = _arg(args, kwargs, 0, "sentence")
    t.add("extract.tag_calls")
    # sentences live in the document store for the whole run
    t.add("extract.tag_repeat_calls", t.repeat("tag", id(sentence)))


def _filter(t: Tracer, args, kwargs, possible: bool) -> None:
    t.add("extract.filter_calls")
    t.add("extract.impossible", not possible)


def _candidates(t: Tracer, args, kwargs, candidates) -> None:
    t.add("extract.candidates", len(candidates))


def _pattern(t: Tracer, args, kwargs, score) -> None:
    t.add("classify.scored")


def _rank(t: Tracer, args, kwargs, kept) -> None:
    t.add("postprocess.ranked_in", len(_arg(args, kwargs, 0, "answers")))
    t.add("postprocess.kept", len(kept))


def _run_query(t: Tracer, args, kwargs, answers) -> None:
    t.add("pipeline.hop1_queries", _arg(args, kwargs, 1, "query").hop == 1)


def _positives(t: Tracer, args, kwargs, examples) -> None:
    t.add("traindata.positives", len(examples))


def _negatives(t: Tracer, args, kwargs, examples) -> None:
    t.add("traindata.negatives", len(examples))


def _select(t: Tracer, args, kwargs, selected) -> None:
    t.add("traindata.noisy", len(_arg(args, kwargs, 0, "noisy")))
    t.add("traindata.selected", len(selected))


def _svm_train(t: Tracer, args, kwargs, model) -> None:
    from slotfill.classify import SVMConfig
    dataset = _arg(args, kwargs, 0, "dataset")
    config = (args[1] if len(args) > 1 else kwargs.get("config")) or SVMConfig()
    t.add("classify.svm_train_steps", len(dataset) * config.epochs)


def _grads(kind: str):
    def count(t: Tracer, args, kwargs, result) -> None:
        t.add(f"nnets.loss_and_grads_calls.{kind}")
        t.add(f"nnets.grad_bytes.{kind}",
              sum(g.nbytes for g in result[1].values()))
    return count


PIPELINE_COUNTERS = {
    "ingest_documents": _ingest, "build_index": _index,
    "retrieve_for_entity": _retrieved, "link_entity": _link,
    "document_matches_entity": _gate, "find_name_mentions": _mentions,
    "attach_coref_mentions": _coref, "nominal_anaphora_heuristic": _nominal,
    "tag_entities": _tag, "filter_impossible": _filter,
    "extract_candidates": _candidates, "match_patterns": _pattern,
    "rank_and_truncate": _rank, "run_query": _run_query,
}
TRAINER_COUNTERS = {
    "generate_positive_examples": _positives,
    "generate_negative_examples": _negatives,
    "select_training_data": _select, "svm_train": _svm_train,
}


def install(tracer: Tracer) -> None:
    """Wrap every traced name; ``tracer.restore()`` undoes all of it."""
    from slotfill import pipeline, retrieval, trainer
    from slotfill.nnets import CNNClassifier, RNNClassifier
    tracer.wrap_module_functions(pipeline, PIPELINE_COUNTERS)
    tracer.wrap_module_functions(trainer, TRAINER_COUNTERS)
    tracer.wrap(retrieval, "query_and", _scored)
    tracer.wrap(retrieval, "query_or", _scored)
    for cls in (CNNClassifier, RNNClassifier):
        tracer.wrap(cls, "forward")
        tracer.wrap(cls, "loss_and_grads", _grads(cls.kind))


def _self_by_name(tracer: Tracer, prefix: str = "") -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for span, s in zip(tracer.spans, self_times(tracer.spans)):
        if span[TRACE].startswith(prefix):
            out[span[NAME]] += s
    return out


def ranking(tracer: Tracer, prefix: str) -> dict[str, float]:
    """Self time per layer over the spans whose trace id starts with
    ``prefix``, largest first."""
    by_layer: dict[str, float] = defaultdict(float)
    for span, s in zip(tracer.spans, self_times(tracer.spans)):
        if span[TRACE].startswith(prefix):
            by_layer[span[LAYER]] += s
    return dict(sorted(by_layer.items(), key=lambda kv: -kv[1]))


def metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics as ``{name: (value, unit)}`` and the numerator and
    denominator of every ratio as ``{name: (num, den)}``."""
    c = tracer.counts
    query = _self_by_name(tracer, "query:")
    train = _self_by_name(tracer, "train:")
    anywhere = _self_by_name(tracer)
    setup = _self_by_name(tracer, "setup")
    query_layers = ranking(tracer, "query:")
    query_pass_s = sum(s[END] - s[START] for s in tracer.spans
                       if s[TRACE].startswith("query:")
                       and s[NAME] == "pipeline.run_cold_start")
    inclusive: dict[str, float] = defaultdict(float)
    for s in tracer.spans:
        if s[NAME] == "nnets.train":
            inclusive[s[TRACE].rsplit(":", 1)[-1]] += s[END] - s[START]

    out: dict[str, tuple[float, str]] = {}
    bases: dict[str, tuple[float, float]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = (float(value), unit)

    def count(name: str) -> None:
        put(name, c[name], "count")

    def ratio(name: str, num: float, den: float, unit: str = "ratio") -> None:
        put(name, num / den if den else 0.0, unit)
        bases[name] = (num, den)

    put("corpus.ingest_s", setup["corpus.ingest_documents"], "s")
    count("corpus.docs")
    count("corpus.sentences")
    put("retrieval.build_index_s", setup["retrieval.build_index"], "s")
    count("retrieval.terms")
    put("retrieval.retrieve_s", query_layers.get("retrieval", 0.0), "s")
    count("retrieval.docs_scored")
    count("retrieval.docs_returned")
    ratio("retrieval.returned_per_scored", c["retrieval.docs_returned"],
          c["retrieval.docs_scored"])
    put("query.alias_s", query["query.clean_aliases"]
        + query["query.select_ir_alias"], "s")
    count("query.link_calls")
    ratio("query.link_share", query["query.link_entity"]
          + query["query.document_matches_entity"], query_pass_s)
    count("query.gate_docs_in")
    ratio("query.gate_drop_share", c["query.gate_dropped"],
          c["query.gate_docs_in"])
    put("mentions.find_s", query_layers.get("mentions", 0.0), "s")
    for name in ("find_calls", "sentences_scanned", "found.exact",
                 "found.fuzzy", "found.coref", "found.nominal_heuristic"):
        count(f"mentions.{name}")
    ratio("mentions.hit_share", c["mentions.hit_calls"], c["mentions.find_calls"])
    count("mentions.repeat_calls")
    ratio("mentions.repeat_share", c["mentions.repeat_calls"],
          c["mentions.find_calls"])
    put("extract.tag_s", query["extract.tag_entities"], "s")
    count("extract.tag_calls")
    ratio("extract.tag_repeat_share", c["extract.tag_repeat_calls"],
          c["extract.tag_calls"])
    put("extract.candidates_s", query_layers.get("extract", 0.0)
        - query["extract.tag_entities"], "s")
    count("extract.candidates")
    count("extract.filter_calls")
    ratio("extract.impossible_share", c["extract.impossible"],
          c["extract.filter_calls"])
    put("classify.pattern_s", query["classify.match_patterns"], "s")
    put("classify.svm_score_s", query["classify.svm_score"], "s")
    put("nnets.cnn_forward_s", anywhere["nnets.CNNClassifier.forward"], "s")
    put("nnets.rnn_forward_s", anywhere["nnets.RNNClassifier.forward"], "s")
    count("classify.scored")
    put("postprocess.s", query_layers.get("postprocess", 0.0), "s")
    count("postprocess.ranked_in")
    count("postprocess.kept")
    ratio("pipeline.kept_per_candidate", c["postprocess.kept"],
          c["extract.candidates"])
    put("pipeline.self_s", query_layers.get("pipeline", 0.0), "s")
    count("pipeline.hop1_queries")
    put("pipeline.query_pass_s", query_pass_s, "s")
    put("traindata.distant_s", train["traindata.generate_positive_examples"]
        + train["traindata.generate_negative_examples"], "s")
    count("traindata.positives")
    count("traindata.negatives")
    put("traindata.select_s", train["traindata.select_training_data"], "s")
    count("traindata.selected")
    ratio("traindata.selected_share", c["traindata.selected"],
          c["traindata.noisy"])
    put("classify.svm_train_s", train["classify.svm_train"], "s")
    count("classify.svm_train_steps")
    for kind in ("cnn", "rnn"):
        put(f"nnets.train_s.{kind}", inclusive[kind], "s")
        count(f"nnets.loss_and_grads_calls.{kind}")
        ratio(f"nnets.grad_bytes_per_example.{kind}",
              c[f"nnets.grad_bytes.{kind}"],
              c[f"nnets.loss_and_grads_calls.{kind}"], "B")
    put("trace.spans", len(tracer.spans), "count")
    return out, bases
