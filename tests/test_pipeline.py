"""Orchestration: run configs, scorer arithmetic, end-to-end behavior."""

import json
import shutil
from collections import Counter
from dataclasses import replace

import pytest

from slotfill.corpus import make_document
from slotfill.extract import tag_entities
from slotfill.pipeline import (
    ClassifierView,
    EvalCounts,
    ModelMissingError,
    ModelRegistry,
    SystemState,
    _seeded,
    classifier_scores,
    configure_run,
    load_gold,
    load_queries,
    load_system,
    read_answers,
    run_cold_start,
    run_queries,
    run_query,
    score_output,
    validate_cold_start,
    write_answers,
)
from slotfill.nnets.rnn import VARIANTS as RNN_VARIANTS
from slotfill.query import SlotQuery
from slotfill.retrieval import build_index
from slotfill import resources

from helpers import f1, news_store

# reference (P, R, F1) operating points, per hop and overall, for the five
# runs and for the coreference ablation; the scorer's harmonic mean must
# reproduce each F1 from its P and R within rounding slack
RUN_RESULTS = [
    (57.60, 12.85, 21.02), (31.67, 23.97, 27.29), (29.87, 26.50, 28.08),
    (31.71, 24.13, 27.41), (19.11, 22.32, 20.59),
    (15.89, 1.89, 3.38), (10.46, 6.33, 7.89), (14.13, 5.89, 8.31),
    (11.82, 7.00, 8.79), (5.08, 4.11, 4.54),
    (46.15, 8.30, 14.07), (23.99, 16.65, 19.66), (25.93, 17.94, 21.21),
    (24.63, 17.02, 20.13), (14.48, 14.76, 14.62),
]
COREF_ABLATION_RESULTS = [
    (31.67, 23.97, 27.29), (19.33, 22.40, 20.75),
    (10.46, 6.33, 7.89), (5.32, 4.11, 4.64),
    (23.99, 16.65, 19.66), (14.83, 14.81, 14.82),
]


class TestConfigureRun:
    def test_run_table(self):
        assert configure_run(1).classifiers == {"pattern", "svm", "cnn"}
        assert configure_run(1).threshold_bonus == 0.2
        assert configure_run(2).threshold_bonus == 0.0
        assert "rnn" in configure_run(3).classifiers
        assert configure_run(4).entity_linking is True
        assert configure_run(5).classifiers == {"pattern", "svm"}

    def test_coref_default_on(self):
        assert configure_run(2).coref_enabled is True
        assert configure_run(2, coref_enabled=False).coref_enabled is False

    def test_unknown_run_rejected(self):
        with pytest.raises(ValueError):
            configure_run(6)


class TestF1:
    @pytest.mark.parametrize("p,r,printed", RUN_RESULTS + COREF_ABLATION_RESULTS)
    def test_table_rows(self, p, r, printed):
        assert abs(f1(p, r) - printed) <= 0.02

    def test_equal_inputs(self):
        assert f1(40.0, 40.0) == 40.0

    def test_zero(self):
        assert f1(0.0, 0.0) == 0.0


class TestScoreOutput:
    def test_arithmetic(self):
        from slotfill.postprocess import Answer
        answers = [Answer("q1", 0, "s", "a", "d", "", 1.0),
                   Answer("q1", 0, "s", "b", "d", "", 1.0),
                   Answer("q1", 0, "s", "c", "d", "", 1.0)]
        gold = [("q1", 0, "s", "a"), ("q1", 0, "s", "b"),
                ("q1", 0, "s", "x"), ("q1", 0, "s", "y")]
        p, r, f, counts = score_output(answers, gold)
        assert p == pytest.approx(2 / 3)
        assert r == pytest.approx(1 / 2)
        assert f == pytest.approx(4 / 7)
        assert counts == EvalCounts(2, 1, 2)

    def test_empty_system_output(self):
        p, r, f, counts = score_output([], [("q", 0, "s", "a")])
        assert (p, r, f) == (0.0, 0.0, 0.0)
        assert counts.fn == 1

    def test_zero_tp_with_fp(self):
        from slotfill.postprocess import Answer
        answers = [Answer("q1", 0, "s", "wrong", "d", "", 1.0)]
        p, r, f, _ = score_output(answers, [("q1", 0, "s", "right")])
        assert (p, r, f) == (0.0, 0.0, 0.0)

    def test_match_is_case_insensitive(self):
        from slotfill.postprocess import Answer
        answers = [Answer("q1", 0, "s", "MUNICH", "d", "", 1.0)]
        p, _, _, _ = score_output(answers, [("q1", 0, "s", "Munich")])
        assert p == 1.0


@pytest.fixture(scope="module")
def queries(fixtures_dir):
    return load_queries(fixtures_dir / "queries.jsonl")


@pytest.fixture(scope="module")
def gold(fixtures_dir):
    return load_gold(fixtures_dir / "gold.tsv")


class TestEndToEnd:
    def test_zero_retrieval_empty_answers(self, system_state):
        q = SlotQuery("qx", "Jane Doe", "PER", "per:city_of_birth")
        assert run_query(system_state, q, configure_run(2)) == []

    def test_run2_matches_gold_fixture(self, system_state, queries, fixtures_dir):
        answers = run_queries(system_state, queries, configure_run(2))
        got = [(a.query_id, a.hop, a.slot, a.filler, a.doc_id) for a in answers]
        expected = []
        with open(fixtures_dir / "expected_answers_run2.tsv") as fh:
            for line in fh:
                qid, hop, slot, filler, doc = line.rstrip("\n").split("\t")
                expected.append((qid, int(hop), slot, filler, doc))
        assert got == expected

    def test_run2_scores_against_gold(self, system_state, queries, gold):
        answers = run_queries(system_state, queries, configure_run(2))
        p, r, f, counts = score_output(answers, gold)
        assert p == pytest.approx(1.0)
        assert r == pytest.approx(11 / 13)
        assert f == pytest.approx(22 / 24)
        assert counts == EvalCounts(11, 0, 2)

    def test_run1_subset_of_run2(self, system_state, queries):
        run1 = run_queries(system_state, queries, configure_run(1))
        run2 = run_queries(system_state, queries, configure_run(2))
        keys = lambda ans: {(a.query_id, a.hop, a.slot, a.filler, a.doc_id)
                            for a in ans}
        assert keys(run1) <= keys(run2)

    def test_run4_gate_never_adds(self, system_state, queries):
        run2 = run_queries(system_state, queries, configure_run(2))
        run4 = run_queries(system_state, queries, configure_run(4))
        keys = lambda ans: {(a.query_id, a.hop, a.slot, a.filler, a.doc_id)
                            for a in ans}
        assert keys(run4) <= keys(run2)

    def test_run5_patterns_and_svm_only(self, system_state, queries):
        answers = run_queries(system_state, queries, configure_run(5))
        assert answers  # the traditional run still answers

    def test_run3_with_rnn_models(self, system_state, queries):
        sub = [q for q in queries if q.id in ("q01", "q07", "q10")]
        answers = run_queries(system_state, sub, configure_run(3))
        fillers = {(a.query_id, a.filler) for a in answers}
        assert ("q01", "Munich") in fillers
        assert ("q07", "Bavaria") in fillers

    def test_coref_ablation_direction(self, system_state, queries, gold):
        on = run_queries(system_state, queries, configure_run(2))
        off = run_queries(system_state, queries,
                          configure_run(2, coref_enabled=False))
        _, _, _, counts_on = score_output(on, gold)
        _, _, _, counts_off = score_output(off, gold)
        assert counts_on.tp >= counts_off.tp
        off_keys = {(a.query_id, a.filler) for a in off}
        # answers reachable only through a coref chain or the nominal
        # heuristic disappear without coreference
        assert ("q01", "Munich") not in off_keys
        assert ("q02", "Garching") not in off_keys
        assert ("q04", "John Smith") not in off_keys

    def test_determinism_byte_identical(self, system_state, queries, tmp_path):
        a = run_queries(system_state, queries, configure_run(2))
        b = run_queries(system_state, queries, configure_run(2))
        pa, pb = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_answers(a, pa)
        write_answers(b, pb)
        assert pa.read_bytes() == pb.read_bytes()


class TestColdStart:
    def test_hop1_slot_chained(self, system_state, queries):
        q03 = next(q for q in queries if q.id == "q03")
        answers = run_cold_start(system_state, q03, configure_run(2))
        hops = {a.hop for a in answers}
        assert hops == {0, 1}
        hop1 = [a for a in answers if a.hop == 1]
        assert [(a.slot, a.filler) for a in hop1] == \
            [("org:city_of_headquarters", "Munich")]
        assert "hop0:" in hop1[0].provenance

    def test_empty_hop0_empty_hop1(self, system_state):
        q = SlotQuery("qx", "Jane Doe", "PER", "per:schools_attended",
                      next_slot="org:city_of_headquarters")
        assert run_cold_start(system_state, q, configure_run(2)) == []

    def test_non_entity_hop0_filler_rejected(self, system_state):
        q = SlotQuery("qx", "Steve Miller", "PER", "per:age",
                      next_slot="org:city_of_headquarters")
        with pytest.raises(ValueError, match="cannot seed"):
            validate_cold_start(q, system_state.slot_configs)

    def test_unknown_hop0_slot_named_before_hop1(self, system_state):
        q = SlotQuery("qx", "Steve Miller", "PER", "per:shoe_size",
                      next_slot="org:city_of_headquarters")
        with pytest.raises(ValueError, match="unknown slot 'per:shoe_size'"):
            run_cold_start(system_state, q, configure_run(2))

    def test_hop1_threshold_strictly_higher(self, system_state):
        from slotfill.postprocess import effective_threshold
        for slot, cfg in system_state.slot_configs.items():
            eff0 = effective_threshold(cfg.threshold, 0)
            eff1 = effective_threshold(cfg.threshold, 1)
            assert eff1 > eff0
            assert eff1 - eff0 == pytest.approx(0.1, abs=1e-12)


class TestMissingModel:
    @staticmethod
    def modelless_state() -> SystemState:
        store = news_store({"d1": "Steve Miller married Anna Miller."})
        return SystemState(
            store=store,
            index=build_index(store),
            slot_configs=resources.default_slot_configs(),
            validation=resources.default_validation(),
            gazetteers=resources.default_gazetteers(),
            patterns=resources.default_patterns(),
            alias_table={},
            nicknames={},
            kb=[],
            location_maps=resources.default_location_maps(),
            weights=resources.default_weights(),
            coref={},
            models=ModelRegistry(),
        )

    def test_error_lists_slot(self):
        q = SlotQuery("qx", "Steve Miller", "PER", "per:spouse")
        with pytest.raises(ModelMissingError,
                           match=r"^no svm model for slot 'per:spouse'$"):
            run_query(self.modelless_state(), q, configure_run(2))

    @pytest.mark.parametrize("name, slot", [
        ("Steve Miller", "per:date_of_birth"),   # retrieved, no DATE filler
        ("Nobody Known", "per:spouse"),          # nothing retrieved
    ])
    def test_no_candidate_needs_no_model(self, name, slot):
        state = self.modelless_state()
        q = SlotQuery("qy", name, "PER", slot)
        assert not state.slot_configs[slot].classifier_less
        assert run_query(state, q, configure_run(2)) == []


VIEW = ClassifierView(("He",), ("studied", "at"), (".",), True)


class TestClassifierScores:
    def test_run_kind_without_model_raises(self, system_state):
        # the fixture models hold no RNNs for per:schools_attended
        with pytest.raises(ModelMissingError, match="per:schools_attended"):
            classifier_scores(system_state.models, "per:schools_attended",
                              [VIEW], configure_run(3).classifiers)

    @pytest.mark.parametrize("slot, kinds", [
        ("per:location_of_birth", {"svm", "cnn", "rnn"}),
        ("per:schools_attended", {"svm", "cnn"}),
        ("per:age", set()),
    ])
    def test_registry_kinds_give_exactly_those_keys(self, system_state, slot,
                                                    kinds):
        models = system_state.models
        assert models.kinds_for(slot) == kinds
        scores = classifier_scores(models, slot, [VIEW], models.kinds_for(slot))
        assert set(scores) == kinds
        assert all(0.0 <= v <= 1.0 for vs in scores.values() for v in vs)


    def test_batch_scores_equal_one_view_calls(self, system_state):
        # the CNN scores a batch in one pass; the SVM and the RNNs per view
        slot = "per:location_of_birth"
        models = system_state.models
        views = [VIEW, ClassifierView((), ("was", "born", "in"), ("Ulm",),
                                      False),
                 ClassifierView(("Born",), (), (), True), VIEW]
        kinds = models.kinds_for(slot)
        batch = classifier_scores(models, slot, views, kinds)
        assert list(batch) == ["svm", "cnn", "rnn"]
        for i, view in enumerate(views):
            one = classifier_scores(models, slot, [view], kinds)
            for kind in kinds:
                assert len(batch[kind]) == len(views)
                assert batch[kind][i] == pytest.approx(one[kind][0], rel=0,
                                                       abs=1e-12)
        assert batch == classifier_scores(models, slot, views, kinds)


class TestModelTable:
    def test_rnn_variants_in_ensemble_order(self, system_state):
        # the file names sort bi, multitask, uni
        rnns = system_state.models.models_for("per:location_of_birth", "rnn")
        assert tuple(m.variant for m in rnns) == RNN_VARIANTS

    def test_missing_model_names_slot_and_kind(self, system_state):
        with pytest.raises(ModelMissingError,
                           match=r"rnn model for slot 'per:schools_attended'"):
            system_state.models.models_for("per:schools_attended", "rnn")


class TestModelsDir:
    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="typo"):
            ModelRegistry.from_dir(tmp_path / "typo")

    def test_load_system_fails_before_ingest(self, tmp_path):
        # the corpus does not exist either: the models dir is checked first
        with pytest.raises(FileNotFoundError, match="models directory"):
            load_system(tmp_path / "corpus.jsonl",
                        models_dir=tmp_path / "typo")

    def test_duplicate_model_files_refused_before_ingest(
            self, trained_models_dir, tmp_path):
        models = tmp_path / "models"
        models.mkdir()
        svm = trained_models_dir / "per_location_of_birth.svm.npz"
        shutil.copy(svm, models / svm.name)
        shutil.copy(svm, models / "copy.svm.npz")
        # the corpus does not exist: the models are read first
        with pytest.raises(ValueError, match=r"copy\.svm\.npz and .*"
                           r"per_location_of_birth\.svm\.npz .*svm model for "
                           r"slot 'per:location_of_birth'"):
            load_system(tmp_path / "corpus.jsonl", models_dir=models)


class TestTunedFile:
    def test_weights_and_thresholds_applied(self, fixtures_dir, tmp_path):
        tuned = tmp_path / "tuned.json"
        tuned.write_text(json.dumps({
            "weights": {"pattern": 1.0},
            "thresholds": {"per:age": 0.9, "per:no_such_slot": 0.1}}))
        state = load_system(fixtures_dir / "corpus.jsonl", tuned_path=tuned)
        assert state.weights == {"pattern": 1.0}
        assert state.slot_configs["per:age"].threshold == 0.9
        assert "per:no_such_slot" not in state.slot_configs

    def test_thresholds_stay_in_their_state(self, fixtures_dir, tmp_path,
                                            monkeypatch):
        from slotfill import extract
        parses = []

        def counted(path):
            parses.append(path)
            return load_slot_configs(path)

        load_slot_configs = extract.load_slot_configs
        monkeypatch.setattr(extract, "load_slot_configs", counted)
        resources.default_slot_configs.cache_clear()
        default = resources.default_slot_configs()["per:age"].threshold
        tuned = tmp_path / "tuned.json"
        tuned.write_text(json.dumps({"thresholds": {"per:age": 0.99}}))
        tuned_state = load_system(fixtures_dir / "corpus.jsonl",
                                  tuned_path=tuned)
        plain = load_system(fixtures_dir / "corpus.jsonl")
        queries = tmp_path / "queries.jsonl"
        queries.write_text('{"id": "q", "name": "Ann", "type": "PER", '
                           '"slot": "per:age"}\n')
        assert load_queries(queries)[0].slot == "per:age"
        assert tuned_state.slot_configs["per:age"].threshold == 0.99
        assert plain.slot_configs["per:age"].threshold == default != 0.99
        assert resources.default_slot_configs()["per:age"].threshold == default
        assert len(parses) == 1
        with pytest.raises(TypeError):
            resources.default_slot_configs()["per:age"] = None

    def test_per_slot_weights_rejected_naming_file(self, fixtures_dir,
                                                   tmp_path):
        tuned = tmp_path / "per_slot.json"
        tuned.write_text(json.dumps({"weights": {
            "default": {"pattern": 1.0}, "per:age": {"svm": 1.0}}}))
        with pytest.raises(ValueError, match=r"per_slot\.json"):
            load_system(fixtures_dir / "corpus.jsonl", tuned_path=tuned)

    def test_invalid_json_names_file_before_ingest(self, tmp_path):
        tuned = tmp_path / "cut.json"
        tuned.write_text('{\n  "weights": {"pattern": 1.0},\n  "thresholds":')
        # the corpus does not exist: the tuned file is read first
        with pytest.raises(ValueError, match=r"cut\.json: invalid JSON "
                           r"\(Expecting value: line 3 column 16\)"):
            load_system(tmp_path / "corpus.jsonl", tuned_path=tuned)

    @pytest.mark.parametrize("content, message", [
        ('{"thresholds": {"per:age": null}}',
         "threshold of slot 'per:age' must be a number, got None"),
        ('{"thresholds": {"per:age": "high"}}',
         "threshold of slot 'per:age' must be a number, got 'high'"),
        ('{"thresholds": {"per:no_such_slot": true}}',
         "threshold of slot 'per:no_such_slot' must be a number, got True"),
        ('{"thresholds": [0.5]}',
         "must be a JSON object whose thresholds map slots to numbers"),
        ('[{"thresholds": {"per:age": 0.5}}]',
         "must be a JSON object whose thresholds map slots to numbers"),
    ])
    def test_bad_tuned_file_names_file_before_ingest(self, tmp_path, content,
                                                     message):
        tuned = tmp_path / "tuned.json"
        tuned.write_text(content)
        # the corpus does not exist: the tuned file is checked first
        with pytest.raises(ValueError) as err:
            load_system(tmp_path / "corpus.jsonl", tuned_path=tuned)
        assert str(err.value) == f"{tuned}: {message}"


class TestOneMentionPass:
    def test_run4_finds_mentions_once_per_retrieved_doc(
            self, load_fixture_system, queries, monkeypatch):
        from slotfill import pipeline

        retrieved, searched, gated = [], [], []

        def retrieve(*args, **kwargs):
            doc_ids = real_retrieve(*args, **kwargs)
            retrieved.extend(doc_ids)
            return doc_ids

        def find(doc, names, *args, **kwargs):
            searched.append(doc.id)
            return real_find(doc, names, *args, **kwargs)

        def gate(*args, **kwargs):
            gated.append(args)
            return real_gate(*args, **kwargs)

        real_retrieve = pipeline.retrieve_for_entity
        real_find = pipeline.find_name_mentions
        real_gate = pipeline.document_matches_entity
        monkeypatch.setattr(pipeline, "retrieve_for_entity", retrieve)
        monkeypatch.setattr(pipeline, "find_name_mentions", find)
        monkeypatch.setattr(pipeline, "document_matches_entity", gate)
        # a fresh state: memo hits from other tests would retrieve and
        # search nothing
        state = load_fixture_system()
        first_searched, entities = [], set()
        for query in queries:
            retrieved.clear()
            searched.clear()
            run_query(state, query, configure_run(4))
            assert sorted(searched) == sorted(retrieved), query.id
            entity = (query.entity_name, query.entity_type)
            if entity in entities:
                assert searched == [], query.id
            else:
                first_searched += searched
            entities.add(entity)
        assert first_searched, "no fixture query retrieved a document"
        assert gated, "no fixture query reached the linking gate"

    def test_gate_inputs_computed_once_per_query(self, load_fixture_system,
                                                 queries, monkeypatch):
        from slotfill import pipeline
        from slotfill.query import kb_idf, kb_name_candidates

        calls, idf_calls = [], []

        def gate(context, target, candidates, idf, *args):
            keep = real_gate(context, target, candidates, idf, *args)
            calls.append((context, target, candidates, idf, keep))
            return keep

        def idf_once(kb):
            idf_calls.append(kb)
            return real_idf(kb)

        real_gate, real_idf = pipeline.document_matches_entity, pipeline.kb_idf
        monkeypatch.setattr(pipeline, "document_matches_entity", gate)
        monkeypatch.setattr(pipeline, "kb_idf", idf_once)
        state = with_homonyms(load_fixture_system())
        decisions = Counter()
        for query in queries:
            calls.clear()
            idf_calls.clear()
            run_query(state, query, configure_run(4))
            if not calls:
                continue
            assert len(idf_calls) == 1, query.id
            # the per-document oracle: candidates and idf computed afresh
            for context, target, candidates, idf, keep in calls:
                assert candidates is calls[0][2] and idf is calls[0][3]
                fresh = kb_name_candidates(query.entity_name, state.kb)
                assert keep == real_gate(context, target, fresh,
                                         kb_idf(state.kb)), query.id
                decisions[keep] += 1
        assert decisions[True] and decisions[False], decisions

    def test_exact_name_mentions_match_single_name_pass(self, system_state,
                                                        queries):
        from slotfill.mentions import find_name_mentions
        from slotfill.pipeline import _exact_name_mentions
        from slotfill.query import clean_aliases

        # the fixture corpus names no alias exactly; this document does
        docs = list(system_state.store) + [make_document(
            "d_alias", "news", "Steven Miller, or STEVE MILLER, taught at LMU "
            "and Munich University. Steve Millers and Acme Incorporated.")]
        found, dropped = 0, 0
        for query in {(q.entity_name, q.entity_type): q for q in queries}.values():
            name = query.entity_name
            aliases = clean_aliases(name, system_state.alias_table.get(name, []),
                                    query.entity_type, system_state.nicknames)
            for doc in docs:
                oracle = [m for m in find_name_mentions(doc, [name])
                          if m.kind == "exact"]
                seed = find_name_mentions(doc, [name] + aliases)
                assert _exact_name_mentions(seed, name) == oracle, (name, doc.id)
                found += len(oracle)
                dropped += sum(m.kind == "exact" for m in seed) - len(oracle)
        assert found and dropped


# one name asked both as PER and as GPE, which skips the OR tier of retrieval
GPE_QUERY = SlotQuery("qg", "Steve Miller", "GPE", "per:cities_of_residence")
MEMO_RUNS = [(run_id, coref) for run_id in (1, 2, 4, 5)
             for coref in (True, False)]


def with_homonyms(state):
    """``state`` with KB homonyms of two fixture entities, so that run 4's
    gate compares contexts and drops some documents."""
    from slotfill.query import KBEntry, term_bag

    state.kb = state.kb + [
        KBEntry("kb_steve_miller_2", "Steve Miller", [],
                term_bag("raised germany hamburg guitar")),
        KBEntry("kb_acme_2", "Acme Corp", [],
                term_bag("cartoon anvil percent grew"))]
    return state


def _count_memoised_work(state, monkeypatch):
    """Counters of the entities the queries reach, of retrieval per
    (entity_name, entity_type) and of tagging per (entity, doc_id,
    sentence_index), the entity being the one whose query is extracting,
    filled through wrappers of ``pipeline``'s names."""
    from slotfill import pipeline

    real_extract = pipeline.extract_candidates
    real_retrieve = pipeline.retrieve_for_entity
    real_tag = pipeline.tag_entities
    where = {id(s): (d.id, s.index) for d in state.store for s in d.sentences}
    reached, retrieved, tagged = set(), Counter(), Counter()
    current = []

    def extract(state, query, cfg):
        current[:] = [(query.entity_name, query.entity_type)]
        reached.add(current[0])
        return real_extract(state, query, cfg)

    def retrieve(index, name, ir_alias, entity_type):
        retrieved[name, entity_type] += 1
        return real_retrieve(index, name, ir_alias, entity_type)

    def tag(sentence, gazetteers):
        tagged[(current[0], *where[id(sentence)])] += 1
        return real_tag(sentence, gazetteers)

    monkeypatch.setattr(pipeline, "extract_candidates", extract)
    monkeypatch.setattr(pipeline, "retrieve_for_entity", retrieve)
    monkeypatch.setattr(pipeline, "tag_entities", tag)
    return reached, retrieved, tagged


class TestSharedMemo:
    """One state answers every query of a run; per-entity retrieval and
    mention finding and per-sentence tagging are memoised on it."""

    @pytest.mark.parametrize("run_id,coref", MEMO_RUNS)
    def test_shared_state_matches_fresh_state_per_query(
            self, load_fixture_system, queries, run_id, coref, monkeypatch,
            tmp_path):
        cfg = configure_run(run_id, coref_enabled=coref)
        asked = queries + [GPE_QUERY]
        fresh = [a for q in asked
                 for a in run_queries(load_fixture_system(), [q], cfg)]
        state = load_fixture_system()
        reached, retrieved, tagged = _count_memoised_work(state, monkeypatch)
        shared = run_queries(state, asked, cfg)
        write_answers(fresh, tmp_path / "fresh.tsv")
        write_answers(shared, tmp_path / "shared.tsv")
        assert (tmp_path / "shared.tsv").read_bytes() == \
            (tmp_path / "fresh.tsv").read_bytes()
        assert shared
        # every entity reached is retrieved once, PER and GPE apart
        assert retrieved == Counter(reached)
        assert {("Steve Miller", "PER"), ("Steve Miller", "GPE")} <= reached
        # each entity tags a sentence once
        assert tagged and max(tagged.values()) == 1
        assert {entity for entity, _, _ in state.sites} == reached
        docs = {t: [doc.id for doc, _ in _seeded(state, "Steve Miller", t)]
                for t in ("PER", "GPE")}
        assert set(docs["GPE"]) < set(docs["PER"])

    @pytest.mark.parametrize("run_id", [2, 4])
    def test_cap_clears_memo_and_keeps_answers(
            self, load_fixture_system, queries, run_id, monkeypatch, tmp_path):
        from slotfill import pipeline

        cfg = configure_run(run_id)
        asked = queries + [GPE_QUERY]
        write_answers(run_queries(load_fixture_system(), asked, cfg),
                      tmp_path / "uncapped.tsv")
        monkeypatch.setattr(pipeline, "MEMO_ENTITIES", 1)
        state = load_fixture_system()
        reached, retrieved, _ = _count_memoised_work(state, monkeypatch)
        write_answers(run_queries(state, asked, cfg), tmp_path / "capped.tsv")
        assert (tmp_path / "capped.tsv").read_bytes() == \
            (tmp_path / "uncapped.tsv").read_bytes()
        # an entity asked again after another one is retrieved again
        assert sum(retrieved.values()) > len(reached)
        # the one entry left is the last entity asked's
        assert list(state.sites) == [(("Steve Miller", "GPE"), run_id == 4,
                                      True)]


COLLECTING = ("attach_coref_mentions", "nominal_anaphora_heuristic")
LINKING = ("kb_name_candidates", "kb_idf", "link_entity",
           "document_matches_entity")


def _count_calls(monkeypatch, names=COLLECTING) -> Counter:
    """Calls of each of ``pipeline``'s ``names`` (by default the coref
    attachment and the nominal heuristic), counted through wrappers."""
    from slotfill import pipeline

    calls: Counter = Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(pipeline, name,
                            counted(name, getattr(pipeline, name)))
    return calls


class TestCollectedMentionsMemo:
    """The mentions extraction reads (seed, coref and nominal heuristic) are
    collected once per entity and coref setting, into the extraction
    sites."""

    def test_second_query_of_an_entity_collects_nothing(
            self, load_fixture_system, queries, monkeypatch):
        state = load_fixture_system()
        calls = _count_calls(monkeypatch)
        cfg = configure_run(2)
        by_entity: dict[tuple, list] = {}
        for q in queries:
            by_entity.setdefault((q.entity_name, q.entity_type), []).append(q)
        repeated = [qs for qs in by_entity.values() if len(qs) > 1]
        assert repeated
        first_calls = Counter()
        for first, *rest in repeated:
            calls.clear()
            run_query(state, first, cfg)
            first_calls += calls
            for q in rest:
                calls.clear()
                run_query(state, q, cfg)
                assert calls == Counter(), q.id
        assert first_calls["attach_coref_mentions"] \
            and first_calls["nominal_anaphora_heuristic"]

    def test_coref_on_and_off_keep_separate_entries(
            self, load_fixture_system, queries, monkeypatch, tmp_path):
        from slotfill import pipeline

        asked = queries + [GPE_QUERY]
        state = load_fixture_system()
        # the seeded documents each coref setting's sites were built from
        seeds = {True: {}, False: {}}

        def seeded(on, name, entity_type):
            found = real_seeded(on, name, entity_type)
            if on is state:
                assert (name, entity_type) not in seeds[coref]
                seeds[coref][name, entity_type] = found
            return found

        real_seeded = pipeline._seeded
        monkeypatch.setattr(pipeline, "_seeded", seeded)
        for coref in (True, False, True):
            cfg = configure_run(2, coref_enabled=coref)
            write_answers(run_queries(state, asked, cfg),
                          tmp_path / "shared.tsv")
            write_answers(run_queries(load_fixture_system(), asked, cfg),
                          tmp_path / "fresh.tsv")
            assert (tmp_path / "shared.tsv").read_bytes() == \
                (tmp_path / "fresh.tsv").read_bytes()
        # one retrieval and mention pass per entity and coref setting
        assert seeds[True].keys() == seeds[False].keys() == {
            entity for entity, _, _ in state.sites}
        assert seeds[True] == seeds[False]
        # each document's mentions, one tuple per sentence that holds any
        on, off = {}, {}
        for (entity, linking, coref), sites in state.sites.items():
            assert not linking
            for doc, sentence_index, mentions, spans, chains in sites:
                assert type(mentions) is tuple and mentions
                assert {m.sentence_index for m in mentions} == {sentence_index}
                assert spans == tuple(tag_entities(
                    doc.sentences[sentence_index], state.gazetteers))
                assert chains == (state.coref.get(doc.id, []) if coref
                                  else [])
                (on if coref else off).setdefault(
                    (entity, doc.id), []).append(mentions)
        # a document is collected in both settings, and has sites when it
        # holds a mention
        seed_of = {coref: {(entity, doc.id): seed
                           for entity, seeded in by_entity.items()
                           for doc, seed in seeded}
                   for coref, by_entity in seeds.items()}
        held = {key for key, seed in seed_of[False].items() if seed}
        assert on.keys() == off.keys() == held
        for key in held:
            # nothing added: the seed's own mentions, and a seed in one
            # sentence is the seed tuple itself
            seed = seed_of[False][key]
            assert sum(off[key], ()) == seed
            assert len(off[key]) > 1 or off[key][0] is seed
            seed = seed_of[True][key]
            collected = sum(on[key], ())
            assert collected == seed or (len(collected) > len(seed)
                                         and set(seed) <= set(collected))
            assert collected != seed or len(on[key]) > 1 \
                or on[key][0] is seed
        assert any(sum(on[key], ()) != seed_of[True][key] for key in held)

    @pytest.mark.parametrize("run_id", [2, 4])
    def test_cap_clears_collected_mentions(
            self, load_fixture_system, queries, run_id, monkeypatch, tmp_path):
        from slotfill import pipeline

        cfg = configure_run(run_id)
        asked = queries + [GPE_QUERY]
        calls = _count_calls(monkeypatch, COLLECTING + LINKING)
        write_answers(run_queries(load_fixture_system(), asked, cfg),
                      tmp_path / "uncapped.tsv")
        uncapped = Counter(calls)
        calls.clear()
        monkeypatch.setattr(pipeline, "MEMO_ENTITIES", 1)
        state = load_fixture_system()
        write_answers(run_queries(state, asked, cfg), tmp_path / "capped.tsv")
        assert (tmp_path / "capped.tsv").read_bytes() == \
            (tmp_path / "uncapped.tsv").read_bytes()
        [(_, linking, coref)] = state.sites
        assert (linking, coref) == (cfg.entity_linking, True)
        # an entity asked again after another one is collected again, and
        # under run 4 linked again
        assert calls["attach_coref_mentions"] \
            > uncapped["attach_coref_mentions"]
        assert calls["kb_idf"] > uncapped["kb_idf"] if run_id == 4 \
            else calls["kb_idf"] == 0


class TestSitesMemo:
    """Each entity's extraction sites, the linking gate included, are built
    once per state and per linking and coref setting."""

    @pytest.mark.parametrize("coref", [True, False])
    def test_run4_shared_state_matches_fresh_state_per_query(
            self, load_fixture_system, queries, coref, monkeypatch, tmp_path):
        from slotfill import pipeline

        cfg = configure_run(4, coref_enabled=coref)
        asked = queries + [GPE_QUERY]
        fresh = [a for q in asked
                 for a in run_queries(with_homonyms(load_fixture_system()),
                                      [q], cfg)]
        kept = Counter()
        real_gate = pipeline.document_matches_entity

        def gate(*args, **kwargs):
            keep = real_gate(*args, **kwargs)
            kept[keep] += 1
            return keep

        monkeypatch.setattr(pipeline, "document_matches_entity", gate)
        state = with_homonyms(load_fixture_system())
        calls = _count_calls(monkeypatch, LINKING)
        shared = run_queries(state, asked, cfg)
        write_answers(fresh, tmp_path / "fresh.tsv")
        write_answers(shared, tmp_path / "shared.tsv")
        assert (tmp_path / "shared.tsv").read_bytes() == \
            (tmp_path / "fresh.tsv").read_bytes()
        assert shared and kept[True] and kept[False]
        # the gate runs once per entity with retrieved documents
        linked = sum(1 for (name, entity_type), _, _ in state.sites
                     if _seeded(state, name, entity_type))
        assert calls["kb_idf"] == calls["link_entity"] == linked
        assert calls["document_matches_entity"] == sum(kept.values())
        # and never again for the same state
        calls.clear()
        assert run_queries(state, asked, cfg) == shared
        assert calls == Counter()

    def test_second_query_of_an_entity_links_nothing(
            self, load_fixture_system, queries, monkeypatch):
        state = with_homonyms(load_fixture_system())
        calls = _count_calls(monkeypatch, COLLECTING + LINKING)
        cfg = configure_run(4)
        seen, first_calls = set(), Counter()
        for q in queries:
            calls.clear()
            run_query(state, q, cfg)
            entity = (q.entity_name, q.entity_type)
            if entity in seen:
                assert calls == Counter(), q.id
            else:
                first_calls += calls
            seen.add(entity)
        assert len(seen) < len(queries)
        assert all(first_calls[name] for name in LINKING + COLLECTING), \
            first_calls

    def test_linking_and_coref_keep_separate_entries(
            self, load_fixture_system, queries, tmp_path):
        asked = queries + [GPE_QUERY]
        state = with_homonyms(load_fixture_system())
        for run_id, coref in ((2, True), (4, True), (4, False), (2, False),
                              (4, True), (2, True)):
            cfg = configure_run(run_id, coref_enabled=coref)
            write_answers(run_queries(state, asked, cfg),
                          tmp_path / "shared.tsv")
            write_answers(run_queries(with_homonyms(load_fixture_system()),
                                      asked, cfg), tmp_path / "fresh.tsv")
            assert (tmp_path / "shared.tsv").read_bytes() == \
                (tmp_path / "fresh.tsv").read_bytes()
        assert {(linking, coref) for _, linking, coref in state.sites} == {
            (False, True), (True, True), (False, False), (True, False)}
        dropped = 0
        for (entity, linking, coref), sites in state.sites.items():
            if not linking:
                continue
            ungated = state.sites[entity, False, coref]
            # the gate only drops whole documents
            kept = {doc.id for doc, *_ in sites}
            assert sites == tuple(s for s in ungated if s[0].id in kept)
            dropped += len(ungated) - len(sites)
        assert dropped


class TestLoadQueries:
    def test_missing_field_names_file_line_and_field(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        path.write_text(
            '{"id": "q1", "name": "Steve Miller", "type": "PER", '
            '"slot": "per:age"}\n\n'
            '{"id": "q2", "name": "Steve Miller", "slot": "per:age"}\n')
        with pytest.raises(ValueError,
                           match=r"queries\.jsonl: line 3: missing field 'type'"):
            load_queries(path)

    def test_invalid_json_names_file_line(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        path.write_text(
            '{"id": "q1", "name": "Steve Miller", "type": "PER", '
            '"slot": "per:age"}\n'
            '{"id": "q2", "name": "Steve Mil\n')
        with pytest.raises(ValueError,
                           match=r"queries\.jsonl: line 2: invalid JSON \("):
            load_queries(path)


    @pytest.mark.parametrize("field,value,want", [
        ("type", '"LOC"', "PER or ORG or GPE"),
        ("hop", "2", "0 or 1"),
        ("hop", '"1"', "0 or 1"),
        ("hop", "0.5", "0 or 1"),
        ("name", '["Steve", "Miller"]', "a string"),
        ("next_slot", "7", "a string or null"),
    ])
    def test_bad_value_names_file_line_and_field(self, tmp_path, field,
                                                 value, want):
        good = {"id": '"q1"', "name": '"Steve Miller"', "type": '"PER"',
                "slot": '"per:age"', "hop": "0"}
        bad = {**good, field: value}
        path = tmp_path / "queries.jsonl"
        path.write_text("".join(
            "{" + ", ".join(f'"{k}": {v}' for k, v in rec.items()) + "}\n"
            for rec in (good, good, bad)))
        with pytest.raises(ValueError, match=(
                rf"queries\.jsonl: line 3: field '{field}' must be {want}, "
                rf"got ")):
            load_queries(path)

    @pytest.mark.parametrize("field,want", [
        ("slot", "a slot of the bundled slot table"),
        ("next_slot", "null or a slot of the bundled slot table"),
    ])
    def test_unknown_slot_names_file_line_and_field(self, tmp_path, field,
                                                   want):
        path = tmp_path / "queries.jsonl"
        path.write_text(json.dumps(
            {"id": "q1", "name": "Steve Miller", "type": "PER",
             "slot": "per:schools_attended", field: "per:nonsense"}) + "\n")
        with pytest.raises(ValueError, match=(
                rf"queries\.jsonl: line 1: field '{field}' must be {want}, "
                r"got 'per:nonsense'$")):
            load_queries(path)


class TestLoadGold:
    def test_short_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("# query hop slot filler\n"
                        "q1\t0\tper:age\t42\n"
                        "q2\t0\tper:age\n")
        with pytest.raises(ValueError, match=r"gold\.tsv: line 3: expected 4 "
                                             r"tab-separated fields, got 3$"):
            load_gold(path)

    def test_bad_hop_names_file_and_line(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("q1\tzero\tper:age\t42\n")
        with pytest.raises(ValueError, match=r"gold\.tsv: line 1: hop 'zero' "
                                             r"is not an integer$"):
            load_gold(path)


class TestReadAnswers:
    def test_round_trip(self, system_state, queries, tmp_path):
        answers = run_queries(system_state, queries, configure_run(2))
        assert answers
        write_answers(answers, tmp_path / "answers.tsv")
        read = read_answers(tmp_path / "answers.tsv")
        assert [(a.query_id, a.hop, a.slot, a.filler, a.doc_id)
                for a in read] == [(a.query_id, a.hop, a.slot, a.filler,
                                    a.doc_id) for a in answers]
        assert all(abs(r.score - a.score) <= 5e-5
                   for r, a in zip(read, answers))

    @pytest.mark.parametrize("line,error", [
        ("q2\t0\tper:age", "expected 6 tab-separated fields, got 3"),
        ("q2\t0\tper:age\t42\td1\t0.9\textra",
         "expected 6 tab-separated fields, got 7"),
        ("q2\tzero\tper:age\t42\td1\t0.9", "hop 'zero' is not an integer"),
        ("q2\t0\tper:age\t42\td1\thigh", "score 'high' is not a number"),
    ])
    def test_bad_line_names_file_and_line(self, tmp_path, line, error):
        path = tmp_path / "answers.tsv"
        path.write_text("q1\t0\tper:age\t42\td1\t0.9000\n\n" + line + "\n")
        with pytest.raises(ValueError,
                           match=rf"answers\.tsv: line 3: {error}$"):
            read_answers(path)


class TestQuotePreprocessingEndToEnd:
    def test_quoted_birth_claim_is_invisible(self, system_state, queries):
        # doc_quote claims a Hamburg birth inside a <quote> block; quote
        # stripping must keep it out of the answers entirely
        answers = run_queries(system_state, queries, configure_run(2))
        assert not any(a.filler == "Hamburg" for a in answers)


class TestExtractionRecall:
    def test_candidate_recall_reported(self, system_state, queries, gold):
        # extraction recall (fraction of hop-0 gold fillers present among the
        # pre-classification candidates) is reported, not pinned to any
        # full-scale figure
        from slotfill.pipeline import extract_candidates

        cfg = configure_run(2)
        found = set()
        for q in queries:
            for c in extract_candidates(system_state, q, cfg):
                found.add((q.id, q.hop, q.slot, c.canonical_filler.lower()))
        # candidates carry raw surfaces: date normalization and location
        # inference happen later, so those gold rows count as misses here
        hop0_gold = [g for g in gold if g[1] == 0]
        hit = sum(1 for qid, hop, slot, filler in hop0_gold
                  if (qid, hop, slot, filler.lower()) in found)
        recall = hit / len(hop0_gold)
        print(f"\nextraction recall on the mini-corpus: {hit}/{len(hop0_gold)}"
              f" = {recall:.2f}")
        assert recall > 0.5  # sanity floor only; the exact value is reported


class TestScorerSelfConsistency:
    def test_f1_matches_direct_computation(self):
        import random
        rng = random.Random(3)
        for _ in range(200):
            tp, fp, fn = rng.randint(0, 50), rng.randint(0, 50), rng.randint(0, 50)
            p = 100.0 * tp / (tp + fp) if tp + fp else 0.0
            r = 100.0 * tp / (tp + fn) if tp + fn else 0.0
            direct = 2 * p * r / (p + r) if p + r else 0.0
            assert abs(f1(round(p, 2), round(r, 2)) - direct) < 0.02


class TestClassifierLessScoring:
    def test_combined_equals_pattern_exactly(self, system_state):
        # classifier-less slots score through patterns alone, even with an
        # empty model registry
        from slotfill.pipeline import _score_candidates, extract_candidates

        cfg = configure_run(2)
        q = SlotQuery("qx", "Maria Gomez", "PER", "per:charges")
        candidates = extract_candidates(system_state, q, cfg)
        assert candidates
        bare = replace(system_state, models=ModelRegistry())
        scores = _score_candidates(bare, cfg, candidates, "per:charges", False)
        assert len(scores) == len(candidates)
        for score in scores:
            assert score in (0.0, 1.0)
