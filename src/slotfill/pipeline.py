"""End-to-end query orchestration: alias expansion, retrieval, the optional
entity-linking gate, mention finding (with coreference), candidate
extraction, ensemble scoring, postprocessing, and micro-averaged evaluation.

Five run configurations are supported: a high-precision run (+0.2
thresholds), the pattern+SVM+CNN base run, a run adding RNNs, a run adding
the entity-linking gate, and a traditional pattern+SVM run.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import groupby
from operator import attrgetter
from pathlib import Path

import numpy as np

from .classify import (
    check_weights,
    combine_scores,
    is_finite,
    match_patterns,
    svm_from_arrays,
    svm_score,
)
from .corpus import DocumentStore, ingest_documents
from .extract import (
    candidates_for_slot,
    filter_impossible,
    tag_entities,
)
from .mentions import (
    attach_coref_mentions,
    find_name_mentions,
    lowered_name,
    merge_mentions,
    nominal_anaphora_heuristic,
)
from .nnets import rnn_ensemble_score
from .nnets.persist import model_from_arrays, read_header
from .nnets.rnn import VARIANTS as RNN_VARIANTS
from .postprocess import (
    Answer,
    disambiguate_location,
    effective_threshold,
    infer_locations,
    normalize_date,
    rank_and_truncate,
)
from .query import (
    ENTITY_TYPES,
    SlotQuery,
    clean_aliases,
    document_matches_entity,
    kb_idf,
    kb_name_candidates,
    link_entity,
    select_ir_alias,
)
from .retrieval import InvertedIndex, build_index, retrieve_for_entity
from . import resources

ENTITY_NE_TYPES = ("PER", "ORG", "GPE")


class ModelMissingError(RuntimeError):
    pass


@dataclass(frozen=True)
class RunConfig:
    classifiers: frozenset[str]
    entity_linking: bool = False
    threshold_bonus: float = 0.0
    coref_enabled: bool = True


def configure_run(run_id: int, coref_enabled: bool = True) -> RunConfig:
    """The five standard run configurations."""
    base = frozenset({"pattern", "svm", "cnn"})
    table = {
        1: RunConfig(base, threshold_bonus=0.2, coref_enabled=coref_enabled),
        2: RunConfig(base, coref_enabled=coref_enabled),
        3: RunConfig(base | {"rnn"}, coref_enabled=coref_enabled),
        4: RunConfig(base, entity_linking=True, coref_enabled=coref_enabled),
        5: RunConfig(frozenset({"pattern", "svm"}), coref_enabled=coref_enabled),
    }
    if run_id not in table:
        raise ValueError(f"unknown run id {run_id}; expected 1..5")
    return table[run_id]


@dataclass(frozen=True)
class EvalCounts:
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class ClassifierView:
    """A candidate or labeled example as the patterns, SVM, CNN and RNN read
    it, with the argument order flipped for inverse slots."""
    left: tuple[str, ...]
    middle: tuple[str, ...]
    right: tuple[str, ...]
    entity_first: bool


def classifier_view(example, swapped: bool) -> ClassifierView:
    entity_first = not example.entity_first if swapped else example.entity_first
    return ClassifierView(example.left, example.middle, example.right,
                          entity_first)


class ModelRegistry:
    """Trained per-slot models: ``models[slot][kind]`` lists the models of
    one classifier kind for one canonical slot, one SVM or CNN, or the RNN
    variants present in ``VARIANTS`` order (the ensemble's tie order)."""

    def __init__(self):
        self.models: dict[str, dict[str, list]] = {}

    @classmethod
    def from_dir(cls, directory: str | Path) -> "ModelRegistry":
        """Every ``.npz`` model in ``directory``; two files holding the
        model of one slot, kind and RNN variant are refused."""
        directory = Path(directory)
        if not directory.is_dir():
            raise FileNotFoundError(f"models directory not found: {directory}")
        found: dict[tuple[str, str, int], tuple[Path, object]] = {}
        for path in sorted(directory.glob("*.npz")):
            with np.load(path) as data:
                if "header" in data.files:
                    header = read_header(data)
                    slot = header.get("slot", "")
                    kind = header["kind"]
                    model = model_from_arrays(header, data)
                else:
                    slot = bytes(data["slot"]).decode("utf-8")
                    kind = "svm"
                    model = svm_from_arrays(data, path)
            key = (slot, kind,
                   RNN_VARIANTS.index(model.variant) if kind == "rnn" else 0)
            if key in found:
                raise ValueError(f"{found[key][0]} and {path} hold the same "
                                 f"{kind} model for slot {slot!r}")
            found[key] = (path, model)
        registry = cls()
        for slot, kind, rank in sorted(found):
            registry.models.setdefault(slot, {}).setdefault(kind, []).append(
                found[slot, kind, rank][1])
        return registry

    def models_for(self, slot: str, kind: str) -> list:
        """The models of ``kind`` for ``slot``; ModelMissingError if none."""
        if not self.models.get(slot, {}).get(kind):
            raise ModelMissingError(f"no {kind} model for slot {slot!r}")
        return self.models[slot][kind]

    def kinds_for(self, slot: str) -> frozenset[str]:
        """The classifier kinds with a trained model for ``slot``."""
        return frozenset(self.models.get(slot, ()))


def classifier_scores(models: ModelRegistry, canonical: str, views,
                      kinds) -> dict[str, list[float]]:
    """The SVM, CNN and RNN-ensemble scores of each of ``views``, per model
    kind in ``kinds`` (other kinds, such as "pattern", are ignored).  The
    CNN scores all views in one pass.  A kind without a model for
    ``canonical`` raises ModelMissingError."""
    scores = {}
    if "svm" in kinds:
        svm = models.models_for(canonical, "svm")[0]
        scores["svm"] = [svm_score(svm, view) for view in views]
    if "cnn" in kinds:
        scores["cnn"] = models.models_for(canonical, "cnn")[0].forward_batch(
            views)
    if "rnn" in kinds:
        rnns = models.models_for(canonical, "rnn")
        scores["rnn"] = [rnn_ensemble_score([m.forward(view) for m in rnns])
                         for view in views]
    return scores


# extraction-site entries the memo holds before it is cleared: an entity
# with 100 retrieved documents holds about 18 KB of extraction sites, so
# the memo stays near 4.5 MB
MEMO_ENTITIES = 256


@dataclass
class SystemState:
    """Resources shared by all queries of a run, the KB among them, which
    are read-only once the first query ran, plus the one memo those
    queries fill: ``sites`` maps ``((entity_name, entity_type),
    entity_linking, coref_enabled)`` to the entity's extraction sites (see
    ``_sites``).  It starts empty and holds tuples.  A state that serves
    several linking or coreference settings retrieves an entity once per
    setting."""
    store: DocumentStore
    index: InvertedIndex
    slot_configs: dict
    validation: dict
    gazetteers: object
    patterns: dict
    alias_table: dict
    nicknames: dict
    kb: list
    location_maps: object
    weights: dict
    coref: dict
    models: ModelRegistry = field(default_factory=ModelRegistry)
    sites: dict = field(init=False, default_factory=dict)


def load_system(corpus_path: str | Path, coref_path: str | Path | None = None,
                models_dir: str | Path | None = None,
                tuned_path: str | Path | None = None) -> SystemState:
    """Assemble a system over a corpus file, with bundled default resources.

    ``tuned_path`` names a ``slotfill tune`` output; its weights and per-slot
    thresholds replace the bundled ones.  The models and the tuned file load
    first, so a bad one fails before any corpus work.
    """
    from .mentions import load_coref_resource

    models = ModelRegistry.from_dir(models_dir) if models_dir else ModelRegistry()
    tuned = _read_tuned(tuned_path) if tuned_path else {}
    weights = (check_weights(tuned["weights"], tuned_path) if "weights" in tuned
               else resources.default_weights())
    store = ingest_documents(corpus_path)
    state = SystemState(
        store=store,
        index=build_index(store),
        slot_configs=dict(resources.default_slot_configs()),
        validation=resources.default_validation(),
        gazetteers=resources.default_gazetteers(),
        patterns=resources.default_patterns(),
        alias_table=resources.default_alias_table(),
        nicknames=resources.default_nicknames(),
        kb=resources.default_kb(),
        location_maps=resources.default_location_maps(),
        weights=weights,
        coref=load_coref_resource(coref_path) if coref_path else {},
        models=models,
    )
    for slot, theta in tuned.get("thresholds", {}).items():
        if slot in state.slot_configs:
            state.slot_configs[slot] = replace(state.slot_configs[slot],
                                               threshold=float(theta))
    return state


def _read_tuned(path: str | Path) -> dict:
    """A ``slotfill tune`` output: a JSON object whose ``thresholds``, if
    present, map slots to finite numbers.  Anything else raises ValueError
    naming the file, and the slot of a threshold that is not a number or
    not finite."""
    try:
        tuned = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc.msg}: line "
                         f"{exc.lineno} column {exc.colno})") from None
    if not (isinstance(tuned, dict)
            and isinstance(tuned.get("thresholds", {}), dict)):
        raise ValueError(f"{path}: must be a JSON object whose thresholds map "
                         "slots to numbers")
    for slot, theta in tuned.get("thresholds", {}).items():
        if type(theta) not in (int, float):
            raise ValueError(f"{path}: threshold of slot {slot!r} must be a "
                             f"number, got {theta!r}")
        if not is_finite(theta):
            raise ValueError(f"{path}: threshold of slot {slot!r} must be "
                             f"finite, got {theta!r}")
    return tuned


def _context_bag(doc, mentions) -> Counter:
    """Union of lowercased term bags of the sentences holding ``mentions``."""
    bag: Counter = Counter()
    for m in mentions:
        bag.update(doc.sentences[m.sentence_index].lower)
    return bag


def _exact_name_mentions(seed: list, name: str) -> list:
    """The mentions of ``seed`` that a pass over ``name`` alone marks exact."""
    target = lowered_name(name)
    return [m for m in seed if m.kind == "exact" and m.surface.lower() == target]


def _gated(state: SystemState, name: str, seeded: tuple) -> tuple:
    """Run 4's entity-linking gate: link ``name`` to one of its KB entries
    by the context of its exact mentions, then keep the documents whose
    mention context does not favour another of those entries."""
    context: Counter = Counter()
    for doc, seed in seeded:
        context.update(_context_bag(doc, _exact_name_mentions(seed, name)))
    kb_entries = kb_name_candidates(name, state.kb)
    idf = kb_idf(state.kb)
    target = link_entity(kb_entries, idf, context)
    if target is None:
        return seeded
    return tuple((doc, seed) for doc, seed in seeded
                 if document_matches_entity(_context_bag(doc, seed), target,
                                            kb_entries, idf))


def _collect_mentions(doc, seed: tuple, chains: list, tagged) -> tuple:
    """The seed name mentions plus the ones of the document's coref
    ``chains`` and the nominal heuristic, which ``tagged(doc,
    sentence_index)`` NE spans block; the seed tuple itself when nothing
    is added."""
    merged = merge_mentions(seed, attach_coref_mentions(doc, chains, seed))
    if merged:
        blocked: dict[int, set[int]] = {}
        for t in {m.sentence_index + 1 for m in merged}:
            if t < len(doc.sentences):
                spans = tagged(doc, t)
                blocked[t] = {i for s in spans if s.ne_type in ("PER", "ORG")
                              for i in range(s.token_start, s.token_end)}
        heuristic = nominal_anaphora_heuristic(doc, merged, blocked)
        merged = merge_mentions(merged, heuristic)
    # merging keeps every seed span, so equal lengths mean no addition
    return tuple(merged) if len(merged) > len(seed) else seed


def _seeded(state: SystemState, name: str, entity_type: str) -> tuple:
    """The entity's retrieved documents, each paired with its seed name
    mentions: one mention pass per document serves linking, the gate and
    extraction."""
    aliases = clean_aliases(name, state.alias_table.get(name, []),
                            entity_type, state.nicknames)
    doc_ids = retrieve_for_entity(state.index, name,
                                  select_ir_alias(name, aliases), entity_type)
    names = [name] + aliases
    return tuple((doc, tuple(find_name_mentions(doc, names)))
                 for doc in map(state.store.get, doc_ids))


def _sites(state: SystemState, query: SlotQuery, cfg: RunConfig) -> tuple:
    """The query entity's extraction sites under ``cfg``'s linking and
    coreference settings, memoised: one ``(doc, sentence_index, mentions,
    spans, chains)`` per sentence holding an entity mention in a document
    the gate keeps, in retrieval then sentence order.  ``mentions`` are the
    sentence's (the seed plus, with coreference, the coref and heuristic
    ones), ``spans`` its NE spans and ``chains`` the document's coref
    chains, empty without coreference.  Each sentence is tagged once per
    entity.  Only the slot-specific work is left to each query."""
    key = ((query.entity_name, query.entity_type), cfg.entity_linking,
           cfg.coref_enabled)
    sites = state.sites.get(key)
    if sites is not None:
        return sites
    if len(state.sites) >= MEMO_ENTITIES:
        state.sites.clear()
    tags: dict = {}

    def tagged(doc, sentence_index: int) -> tuple:
        at = doc.id, sentence_index
        if at not in tags:
            tags[at] = tuple(tag_entities(doc.sentences[sentence_index],
                                          state.gazetteers))
        return tags[at]

    seeded = _seeded(state, query.entity_name, query.entity_type)
    if cfg.entity_linking and seeded:
        seeded = _gated(state, query.entity_name, seeded)
    found = []
    for doc, seed in seeded:
        mentions, chains = seed, []
        if cfg.coref_enabled:
            chains = state.coref.get(doc.id, [])
            mentions = _collect_mentions(doc, seed, chains, tagged)
        # mentions are sorted by span, so each sentence's form one run; a
        # document with one such sentence shares its mentions tuple
        for sentence_index, here in groupby(
                mentions, key=attrgetter("sentence_index")):
            here = tuple(here)
            found.append((doc, sentence_index,
                          mentions if len(here) == len(mentions) else here,
                          tagged(doc, sentence_index), chains))
    sites = state.sites[key] = tuple(found)
    return sites


def _score_candidates(state: SystemState, cfg: RunConfig, candidates: list,
                      canonical: str, swapped: bool) -> list[float]:
    """The interpolated score of each candidate: its pattern score alone
    for a classifier-less slot, else combined with the classifier scores of
    the run, which one ``classifier_scores`` call gives for all of them."""
    views = [classifier_view(c, swapped) for c in candidates]
    patterns = state.patterns.get(canonical, [])
    pattern_scores = [match_patterns(v, patterns) for v in views]
    if not candidates or state.slot_configs[canonical].classifier_less:
        return pattern_scores
    by_kind = classifier_scores(state.models, canonical, views,
                                cfg.classifiers)
    return [combine_scores(
        {"pattern": p, **{kind: v[i] for kind, v in by_kind.items()}},
        state.weights) for i, p in enumerate(pattern_scores)]


def _postprocess_candidate(state: SystemState, query: SlotQuery, slot_cfg,
                           candidate, score: float) -> Answer | None:
    filler = candidate.canonical_filler
    if slot_cfg.filler_type == "DATE":
        filler = normalize_date(filler)  # not None: filter_impossible checked
    provenance = (f"{candidate.doc_id}:{candidate.filler.sentence_index}:"
                  f"{candidate.entity_mention.token_start}-"
                  f"{candidate.entity_mention.token_end}:"
                  f"{candidate.filler.token_start}-{candidate.filler.token_end}")
    answer = Answer(query.id, query.hop, query.slot, filler, candidate.doc_id,
                    provenance, score)
    granularity = slot_cfg.granularity
    if granularity is None:
        return answer
    kind = disambiguate_location(answer.filler, state.location_maps)
    if kind == "unknown":
        return None
    if granularity == "any" or kind == granularity:
        return answer
    return infer_locations(answer, granularity, state.location_maps)


def extract_candidates(state: SystemState, query: SlotQuery,
                       cfg: RunConfig) -> list:
    """The pre-classification pipeline stages: the entity's extraction
    sites (alias expansion, retrieval, mention finding, the optional
    entity-linking gate, coreference and tagging, memoised per entity on
    ``state``), then the slot's candidates at each site, impossible fillers
    dropped."""
    slot_cfg = state.slot_configs.get(query.slot)
    if slot_cfg is None:
        raise ValueError(f"unknown slot {query.slot!r}")
    candidates = []
    for doc, sentence_index, mentions, spans, chains in _sites(state, query,
                                                               cfg):
        found = candidates_for_slot(doc, sentence_index, mentions, slot_cfg,
                                    spans, chains=chains)
        candidates.extend(c for c in found
                          if filter_impossible(c, slot_cfg, state.validation))
    return candidates


def run_query(state: SystemState, query: SlotQuery, cfg: RunConfig) -> list[Answer]:
    """Execute the full pipeline for one query at its hop."""
    candidates = extract_candidates(state, query, cfg)
    slot_cfg = state.slot_configs[query.slot]
    scores = _score_candidates(state, cfg, candidates,
                               slot_cfg.canonical_slot, slot_cfg.swapped)

    answers = []
    for candidate, score in zip(candidates, scores):
        if score < effective_threshold(slot_cfg.threshold, query.hop,
                                       cfg.threshold_bonus):
            continue
        answer = _postprocess_candidate(state, query, slot_cfg, candidate,
                                        score)
        if answer is not None:
            answers.append(answer)
    return rank_and_truncate(answers, slot_cfg)


def validate_cold_start(query: SlotQuery, slot_configs: dict) -> None:
    """A hop-1 slot requires the hop-0 filler to be an entity type.  An
    unknown hop-0 slot is left to ``extract_candidates``'s check."""
    if query.next_slot is None:
        return
    if query.next_slot not in slot_configs:
        raise ValueError(f"unknown hop-1 slot {query.next_slot!r}")
    hop0_cfg = slot_configs.get(query.slot)
    if hop0_cfg is not None and hop0_cfg.filler_type not in ENTITY_NE_TYPES:
        raise ValueError(
            f"hop-0 slot {query.slot!r} fills type "
            f"{hop0_cfg.filler_type}, which cannot seed a hop-1 query")


def run_cold_start(state: SystemState, query: SlotQuery,
                   cfg: RunConfig) -> list[Answer]:
    """Run hop 0, then re-query each hop-0 filler against the hop-1 slot
    (with its +0.1 threshold adjustment); provenance chains are recorded."""
    validate_cold_start(query, state.slot_configs)
    hop0_answers = run_query(state, replace(query, hop=0), cfg)
    answers = list(hop0_answers)
    if query.next_slot is None:
        return answers
    filler_type = state.slot_configs[query.slot].filler_type
    for parent in hop0_answers:
        hop1_query = SlotQuery(query.id, parent.filler, filler_type,
                               query.next_slot, hop=1)
        for a in run_query(state, hop1_query, cfg):
            answers.append(replace(
                a, provenance=f"{a.provenance}|hop0:{parent.provenance}"))
    return answers


def run_queries(state: SystemState, queries: list[SlotQuery],
                cfg: RunConfig) -> list[Answer]:
    """All queries (cold-start expansion included), deduplicated rows."""
    answers: dict[tuple, Answer] = {}
    for query in queries:
        for a in run_cold_start(state, query, cfg):
            key = (a.query_id, a.hop, a.slot, a.filler, a.doc_id)
            if key not in answers or a.score > answers[key].score:
                answers[key] = a
    return sorted(answers.values(),
                  key=lambda a: (a.query_id, a.hop, a.slot, a.filler, a.doc_id))


# ---------------------------------------------------------------------------
# evaluation


def score_output(answers: list[Answer], gold: list[tuple[str, int, str, str]],
                 ) -> tuple[float, float, float, EvalCounts]:
    """Micro-averaged P/R/F1 over all queries and hops; answers match gold on
    (query, hop, slot, normalized surface), case-insensitively."""
    sys_keys = {(a.query_id, a.hop, a.slot, a.filler.lower()) for a in answers}
    gold_keys = {(q, h, s, f.lower()) for q, h, s, f in gold}
    tp = len(sys_keys & gold_keys)
    fp = len(sys_keys - gold_keys)
    fn = len(gold_keys - sys_keys)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1_frac = (2 * precision * recall / (precision + recall)
               if precision + recall else 0.0)
    return precision, recall, f1_frac, EvalCounts(tp, fp, fn)


# ---------------------------------------------------------------------------
# file formats


_QUERY_CHECKS = {
    "id": resources.STRING, "name": resources.STRING,
    "type": (" or ".join(ENTITY_TYPES), lambda v: v in ENTITY_TYPES),
    "slot": resources.STRING,
    "hop": resources.ZERO_OR_ONE,
    "next_slot": ("a string or null", lambda v: v is None or type(v) is str),
}


def load_queries(path: str | Path) -> list[SlotQuery]:
    """JSON Lines {id, name, type, slot, hop, next_slot?}; a bad record, a
    value of the wrong type or a slot missing from the bundled slot table
    raises ValueError naming the file, line and field."""
    slots = resources.default_slot_configs()
    known = {"slot": ("a slot of the bundled slot table",
                      lambda v: v in slots),
             "next_slot": ("null or a slot of the bundled slot table",
                           lambda v: v is None or v in slots)}
    fields = ("id", "name", "type", "slot")
    return [SlotQuery(rec["id"], rec["name"], rec["type"], rec["slot"],
                      rec.get("hop", 0), rec.get("next_slot"))
            for _, rec in resources.read_jsonl(path, fields, _QUERY_CHECKS,
                                               known)]


def write_answers(answers: list[Answer], path: str | Path) -> None:
    """TSV query_id, hop, slot, filler, doc_id, score; rows sorted by the
    content-independent key so output files are reproducible byte-for-byte."""
    rows = sorted(answers,
                  key=lambda a: (a.query_id, a.hop, a.slot, a.filler, a.doc_id))
    with open(path, "w", encoding="utf-8") as fh:
        for a in rows:
            fh.write(f"{a.query_id}\t{a.hop}\t{a.slot}\t{a.filler}\t"
                     f"{a.doc_id}\t{a.score:.4f}\n")


def _number(path, line_no: int, name: str, text: str, kind: type):
    """``text`` read as ``kind`` (int or float); a ValueError naming the
    file and line if it is not one."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{path}: line {line_no}: {name} {text!r} is not "
                         f"{what}") from None


def read_answers(path: str | Path) -> list[Answer]:
    """TSV as ``write_answers`` writes it; a line without 6 fields, a
    non-integer hop or a score that is not a number raises ValueError
    naming the file and line."""
    return [Answer(qid, _number(path, line_no, "hop", hop, int), slot, filler,
                   doc_id, "", _number(path, line_no, "score", score, float))
            for line_no, (qid, hop, slot, filler, doc_id, score)
            in resources.read_tsv(path, 6)]


def load_gold(path: str | Path) -> list[tuple[str, int, str, str]]:
    """TSV query_id, hop, slot, filler; a line without 4 fields or a
    non-integer hop raises ValueError naming the file and line."""
    return [(qid, _number(path, line_no, "hop", hop, int), slot, filler)
            for line_no, (qid, hop, slot, filler)
            in resources.read_tsv(path, 4)]
