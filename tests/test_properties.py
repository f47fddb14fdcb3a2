"""Property tests over randomly generated inputs."""

import hashlib
import io
import json
from dataclasses import dataclass

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cnn_oracle
import pattern_oracle
import svm_oracle
import token_oracle
from slotfill.classify import (
    ENTITY_SLOT,
    FILLER_SLOT,
    HASH_BITS,
    MAX_WILDCARD,
    LinearModel,
    Pattern,
    SVMConfig,
    _hash_feature,
    combine_scores,
    featurize,
    load_svm,
    match_patterns,
    save_svm,
    svm_margin,
    svm_score,
    svm_train,
)
from slotfill.corpus import (
    ingest_documents,
    make_document,
    strip_quote_spans,
    tokenize,
)
from slotfill.extract import Gazetteers, split_contexts, tag_entities
from slotfill.mentions import bounded_levenshtein, split_pieces
from slotfill.nnets import CNNClassifier, EmbeddingMatrix
from slotfill.nnets.cnn import WIDTH
from slotfill.pipeline import ClassifierView, classifier_view
from slotfill.postprocess import normalize_date, read_date
from slotfill.query import levenshtein
from slotfill.resources import default_gazetteers
from helpers import DATE_RE
from tag_oracle import gazetteer_entries
from tag_oracle import tag_entities as oracle_tag_entities
from token_oracle import document_tokens

words = st.text(alphabet="abcde", min_size=0, max_size=15)
safe_text = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"),
                           whitelist_characters=" .,'-\n"),
    max_size=120)


class TestLevenshteinMetric:
    @given(words, words)
    def test_symmetry_and_identity(self, a, b):
        d = levenshtein(a, b)
        assert d >= 0
        assert d == levenshtein(b, a)
        assert (d == 0) == (a == b)

    @given(words, words, words)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, b) <= levenshtein(a, c) + levenshtein(c, b)

    @given(words, words)
    def test_bounded_by_longer_string(self, a, b):
        assert levenshtein(a, b) <= max(len(a), len(b))


class TestBoundedLevenshtein:
    @given(st.text(alphabet="abé中 ", max_size=12),
           st.text(alphabet="abé中 ", max_size=12))
    @example("", "")
    @example("", "ab")
    @example("abc", "abc")
    @example("naïve café", "naive cafe")
    def test_matches_levenshtein_for_every_k(self, a, b):
        d = levenshtein(a, b)
        for k in range(max(len(a), len(b)) + 3):
            assert bounded_levenshtein(a, b, k) == (d if d <= k else k + 1)


edit_alphabet = "abé中 "


@st.composite
def edited(draw, max_edits=4):
    """A string and a copy of it after up to ``max_edits`` random edits."""
    b = draw(st.text(alphabet=edit_alphabet, max_size=14))
    a = list(b)
    for _ in range(draw(st.integers(0, max_edits))):
        op = draw(st.sampled_from("sid"))
        pos = draw(st.integers(0, len(a)))
        char = draw(st.sampled_from(edit_alphabet))
        if op == "i":
            a.insert(pos, char)
        elif pos < len(a):
            if op == "s":
                a[pos] = char
            else:
                del a[pos]
    return "".join(a), b


class TestExactPieces:
    """The partition filter of mention finding: within edit distance k of
    ``b``, a string holds one of the k + 1 pieces of ``b`` unchanged."""

    @given(st.one_of(edited(), st.tuples(st.text(alphabet=edit_alphabet,
                                                 max_size=12),
                                         st.text(alphabet=edit_alphabet,
                                                 max_size=12))))
    @example(("", ""))
    @example(("", "ab"))
    @example(("abc", "abc"))
    @example(("x", "abc"))            # k >= len(b): some piece is empty
    @example(("ab中", "a中"))
    @example(("naïve café", "naive cafe"))
    @example(("ab aab", "aab ab"))
    def test_some_piece_survives_every_accepted_k(self, pair):
        a, b = pair
        d = levenshtein(a, b)
        for k in range(d, max(len(a), len(b)) + 3):
            pieces = split_pieces(b, k + 1)
            assert len(pieces) == k + 1
            assert "".join(pieces) == b
            assert max(map(len, pieces)) - min(map(len, pieces)) <= 1
            assert any(p in a for p in pieces), (a, b, k, pieces)


# gazetteers whose entries share first tokens within and across types, and
# whose entries overlap across types
OVERLAP_GAZETTEERS = Gazetteers({
    "GPE": {("new", "york"), ("georgia",), ("new", "york", "city"),
            ("paris",)},
    "ORG": {("new", "york", "times"), ("paris", "group"), ("acme",),
            ("acme", "corp", "holdings")},
    "PER": {("georgia",), ("paris", "hilton"), ("john", "smith")},
    "TITLE": {("new",), ("york", "times"), ("chef",)},
    "CHARGE": set(),
})
_ENTRY_WORDS = sorted({" ".join(e[:n]) for g in (OVERLAP_GAZETTEERS,
                                                  default_gazetteers())
                       for es in gazetteer_entries(g).values() for e in es
                       for n in range(1, len(e) + 1)})
_TAG_PIECES = _ENTRY_WORDS + [
    "New York", "GEORGIA", "Paris Hilton Group", "March 4 , 1988",
    "4 March 1988", "march 1999", "Sept 12 2001", "2001-02-03", "3/4/2001",
    "1999", "0999", "12", "3.5", "1,000", "1,00", "٣", "²", "http://x.org",
    "https://a.b/c", "www.example.com", "HTTP://X.ORG", "www", "the", "in",
    "said", ",", "Acme Corp", "June 99 , 1985", "0 May 1999", "May 3000",
    "2000-13-45", "00/10/2000", "MAY",
]
tag_sentences = st.lists(st.sampled_from(_TAG_PIECES), max_size=14).map(
    " ".join)


class TestOneTableTagger:
    """``tag_entities``'s one pass against the per-type oracle."""

    @given(tag_sentences)
    @example("New York Times said New York City in Georgia")
    @example("Paris Hilton Group met acme corp holdings on March 4 , 1988")
    @example("see www.example.com or http://x.org for 1,000 and 3.5 in 1999")
    @example("a date cut short by the sentence end : May 12 ,")
    @example("a date cut short by the sentence end : 4 March")
    @example("a date cut short by the sentence end : May 12")
    def test_spans_match_per_type_oracle(self, text):
        for gazetteers in (OVERLAP_GAZETTEERS, default_gazetteers()):
            for sent in make_document("d", "news", text).sentences:
                assert tag_entities(sent, gazetteers) \
                    == oracle_tag_entities(sent, gazetteers)

    @given(tag_sentences)
    @example("born June 99 , 1985 or 0 May 1999 , not May 3000 or 2000-13-45")
    def test_date_spans_normalize_as_read(self, text):
        for sent in make_document("d", "news", text).sentences:
            for span in tag_entities(sent, default_gazetteers()):
                if span.ne_type == "DATE":
                    assert normalize_date(span.surface) == \
                        read_date(sent.lower, span.token_start)[1]


class TestQuoteStripping:
    @given(safe_text, safe_text, safe_text)
    def test_removal_and_map(self, pre, inner, post):
        text = f"{pre}<quote>{inner}</quote>{post}"
        clean, _ = strip_quote_spans(text)
        assert clean == pre + post
        oracle_clean, char_map, _ = token_oracle.strip_quote_spans(text)
        assert oracle_clean == clean
        assert all(text[char_map[i]] == clean[i] for i in range(len(clean)))

    @given(safe_text)
    def test_idempotent_without_tags(self, text):
        clean, warnings = strip_quote_spans(text)
        assert clean == text
        assert warnings == []


# pieces that reach every branch of sentence splitting and tokenisation
_PIECES = [" ", "  ", "\n", "\t", "Dr.", "dr.", "U.S.", "the U.S.",
           "U.S.-based", "a.b.", "Obama's", "JONES'S", "'s", "s's", "...",
           "?!", ".", ",", "!", "?", ")", '"', "(\"", "\u201d", "\u2019", "'",
           "-", "word", "Word", "sErVice", "NASA", "\u0130", "\u0130stanbul",
           "\u03a3", "\u0391\u03a3", "\u03a3\u0391\u03a3", "\u03c3\u03c2",
           "\u00df", "STRA\u00dfE", "stra\u00dfe", "<quote>", "</quote>",
           "<quote><quote>", "</quote></quote>"] \
    + [c for c in map(chr, range(0x3001)) if c.isspace()]  # all 29 of them
documents = st.lists(
    st.one_of(st.sampled_from(_PIECES),
              st.text(alphabet="aZ\u0130\u03a3\u00df.'s!? \n<>/", max_size=6)),
    max_size=40).map("".join)


class TestTokenizer:
    @given(documents)
    @example("a\x1cb\u3000c's\u2029(d)\x85")
    def test_words_match_token_oracle(self, text):
        assert tokenize(text) == [t.text for t in token_oracle.tokenize(text)]

    @given(documents)
    def test_tokens_cover_non_whitespace(self, text):
        assert "".join(tokenize(text)) == "".join(text.split())


class TestColumnarSentences:
    """``make_document``'s columns against one token record per word."""

    @given(documents, st.sampled_from(["news", "forum"]))
    @example("A <quote>b <quote>c</quote> d</quote> E's f.", "forum")
    @example("x </quote> Y. <quote>z", "forum")
    @example("Dr. \u0130SA went to the U.S. <quote>\u03a3A\u03a3 stra\u00dfe!",
             "forum")
    @example("\u0391\u03a3's \u0391\u03a3 (\u0391\u03a3) \u00df. ...?! Ok.", "news")
    def test_columns_match_token_oracle(self, text, genre):
        doc = make_document("d", genre, text)
        oracle = document_tokens(genre, text)
        assert [s.index for s in doc.sentences] == list(range(len(oracle)))
        for sent, toks in zip(doc.sentences, oracle, strict=True):
            assert sent.texts == tuple(t.text for t in toks)
            for word, low in zip(sent.texts, sent.lower, strict=True):
                assert low == word.lower()
                assert (low is word) == (low == word)
            n = len(sent.texts)
            for i in range(n):
                for j in range(i + 1, n + 1):
                    assert " ".join(sent.lower[i:j]) \
                        == " ".join(sent.texts[i:j]).lower()


# mixed-case words (with letters whose lowercase form is longer, or equal
# to another word), sentence ends, possessives and quote tags
mixed_words = st.one_of(
    st.text(alphabet="aAbB\u0130\u03a3\u00df", min_size=1, max_size=4),
    st.sampled_from([".", "!", "'s", ",", "<quote>", "</quote>", "\n"]))
corpora = st.lists(
    st.tuples(st.sampled_from(["news", "forum"]),
              st.lists(mixed_words, max_size=30).map(" ".join)),
    min_size=1, max_size=5)


class TestWordTable:
    """``ingest_documents``'s one word table per corpus."""

    @given(corpora)
    @example([("news", "The the THE tHe ."), ("forum", "tHe The the")])
    def test_one_string_per_word(self, tmp_path_factory, corpus):
        path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
        path.write_text("".join(
            json.dumps({"id": f"d{i}", "genre": genre, "text": text}) + "\n"
            for i, (genre, text) in enumerate(corpus)), encoding="utf-8")
        store = ingest_documents(path)
        seen: dict[str, str] = {}
        for doc, (genre, text) in zip(store, corpus, strict=True):
            oracle = document_tokens(genre, text)
            alone = make_document(doc.id, genre, text)
            assert doc == alone
            for sent, toks in zip(doc.sentences, oracle, strict=True):
                assert sent.texts == tuple(t.text for t in toks)
                assert sent.lower == tuple(t.text.lower() for t in toks)
                for word, low in zip(sent.texts, sent.lower, strict=True):
                    assert (low is word) == (low == word)
                    assert seen.setdefault(word, word) is word
                    assert seen.setdefault(low, low) is low
            for sent in alone.sentences:
                for word, low in zip(sent.texts, sent.lower, strict=True):
                    assert (low is word) == (low == word)


class TestSplitContexts:
    @given(st.integers(2, 14), st.data())
    def test_partition(self, n, data):
        tokens = [f"t{i}" for i in range(n)]
        a = data.draw(st.integers(0, n - 2))
        b = data.draw(st.integers(a + 1, n - 1))
        c = data.draw(st.integers(b, n - 1))
        d = data.draw(st.integers(c + 1, n))
        left, middle, right, _ = split_contexts(tokens, (a, b), (c, d))
        assert left + [f"t{i}" for i in range(a, b)] + middle \
            + [f"t{i}" for i in range(c, d)] + right == tokens


class TestCombineScores:
    @given(st.dictionaries(st.sampled_from(["pattern", "svm", "cnn", "rnn"]),
                           st.floats(0, 1), min_size=1),
           st.floats(0.05, 1.0))
    def test_convexity(self, scores, w):
        weights = {k: w for k in scores}
        combined = combine_scores(scores, weights)
        assert min(scores.values()) - 1e-12 <= combined \
            <= max(scores.values()) + 1e-12


CNN_WORDS = ["he", "was", "born", "in", "paris", "studied", "at", "école"]
# known words, their case variants, and words outside the vocabulary
cnn_tokens = st.sampled_from(CNN_WORDS + ["He", "BORN", "Paris", "ÉCOLE",
                                          "zzz", "Ünknown", ",", "."])
cnn_segments = st.lists(cnn_tokens, max_size=2 * WIDTH + 1).map(tuple)
cnn_views = st.builds(ClassifierView, cnn_segments, cnn_segments,
                      cnn_segments, st.booleans())


def _cnn_model() -> CNNClassifier:
    emb = EmbeddingMatrix.build(CNN_WORDS, dim=16, seed=5)
    return CNNClassifier(emb, filters=12, hidden=16, seed=5)


class TestFusedCNN:
    """The CNN's one pass over a batch's token block against the
    per-segment oracle."""

    model = _cnn_model()

    @given(st.lists(cnn_views, min_size=1, max_size=40))
    @example([ClassifierView((), (), (), True)])
    @example([ClassifierView(("He",), ("was", "born", "in"), ("Paris",),
                             False), ClassifierView((), (), (), True)])
    def test_batch_matches_per_segment_oracle(self, views):
        scores = self.model.forward_batch(views)
        assert len(scores) == len(views)
        for view, score in zip(views, scores):
            assert abs(score - cnn_oracle.forward(self.model, view)) <= 1e-12
        assert self.model.forward_batch(views) == scores

    @given(cnn_views)
    def test_segment_views_match_oracle(self, view):
        cache = self.model._forward(view)
        tokens = (view.left, view.middle, view.right)
        for seg, segment in zip(cache["segs"], tokens):
            want = cnn_oracle.segment_forward(self.model, segment)
            assert seg["ids"] == want["ids"]
            assert np.array_equal(seg["windows"], want["windows"])
            assert np.allclose(seg["z"], want["z"], rtol=0, atol=1e-12)
            assert np.allclose(seg["pooled"], want["pooled"], rtol=0,
                               atol=1e-12)


PATTERN_WORDS = ["born", "in", "at"]
# template literals and context tokens share words, in mixed case
pattern_items = st.one_of(
    st.sampled_from(PATTERN_WORDS + ["Born", "IN"]),
    st.integers(1, MAX_WILDCARD).map(lambda k: f"*{k}"))
pattern_runs = st.lists(pattern_items, max_size=4)
context_tokens = st.sampled_from(PATTERN_WORDS + ["BORN", "At", "zzz"])
context_segments = st.lists(context_tokens, max_size=12).map(tuple)
span_tokens = st.lists(context_tokens, min_size=1, max_size=3).map(tuple)


@dataclass(frozen=True)
class SpanExample:
    """An example with its span surfaces, which the oracle lays out."""
    left: tuple
    middle: tuple
    right: tuple
    entity_first: bool
    entity_tokens: tuple
    filler_tokens: tuple


@st.composite
def pattern_cases(draw):
    """A template, an example and a swap flag.  Half of the examples are
    built to fit the template's runs (each literal in some case, each *k as
    up to k tokens), with random tokens around and any argument order."""
    before, between, after = (draw(pattern_runs) for _ in range(3))
    first, second = draw(st.permutations([ENTITY_SLOT, FILLER_SLOT]))
    pattern = Pattern(tuple(before + [first] + between + [second] + after))

    def fill(run):
        out = []
        for item in run:
            if item.startswith("*"):
                out += draw(st.lists(context_tokens, max_size=int(item[1:])))
            else:
                out.append(draw(st.sampled_from(
                    [item, item.lower(), item.upper(), item.title()])))
        return tuple(out)

    if draw(st.booleans()):
        left = draw(context_segments) + fill(before)
        middle = fill(between)
        right = fill(after) + draw(context_segments)
    else:
        left, middle, right = (draw(context_segments) for _ in range(3))
    ex = SpanExample(left, middle, right, draw(st.booleans()),
                     draw(span_tokens), draw(span_tokens))
    return pattern, ex, draw(st.booleans())


class TestPatternOracle:
    """The three-run match on the view against the sentence rebuilt and
    scanned from every start."""

    @settings(max_examples=500)
    @given(pattern_cases())
    @example((Pattern(("<ENTITY>", "<FILLER>")),
              SpanExample((), (), (), True, ("a",), ("b",)), False))
    @example((Pattern(("at", "*2", "in", "<FILLER>", "born",
                       "<ENTITY>", "*1", "in")),
              SpanExample(("x", "AT", "zzz", "In"), ("BORN",), ("y", "in"),
                          True, ("a",), ("b", "c")), True))
    def test_view_match_equals_sentence_scan(self, case):
        pattern, ex, swapped = case
        want = pattern_oracle.match_patterns(ex, [pattern], swapped)
        assert match_patterns(classifier_view(ex, swapped), [pattern]) == want


SVM_WORDS = ["was", "born", "in", "works", "for", "sued", "Paris", "école"]
svm_segments = st.lists(st.sampled_from(SVM_WORDS), max_size=5).map(tuple)
svm_views = st.builds(ClassifierView, svm_segments, svm_segments,
                      svm_segments, st.booleans())
# finite weights whose sums stay finite; zeros (and -0.0) are not weights
svm_weights = st.one_of(
    st.floats(-1e300, 1e300, allow_nan=False, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -1.5, 2.0, 1e16, -1e16]))
svm_biases = st.one_of(
    st.floats(-1e300, 1e300, allow_nan=False),
    st.sampled_from([0.0, -236.6, -236.5, -300.0, 300.0, -1e300, 1e300]))


@st.composite
def svm_cases(draw):
    """A model as a dict of weights, some on the features of the drawn view
    (the rest of the view's features absent from the dict), others
    elsewhere in the hashed space, and the view."""
    view = draw(svm_views)
    own = sorted(featurize(view))
    present = draw(st.lists(st.sampled_from(own), unique=True))
    elsewhere = draw(st.lists(st.integers(0, (1 << HASH_BITS) - 1),
                              max_size=6))
    weights = {i: draw(svm_weights) for i in present + elsewhere}
    return LinearModel(weights, draw(svm_biases)), view


def _cancelling_case():
    """Weights whose sum depends on the order of addition: 1e16 + 1 - 1e16."""
    view = ClassifierView((), ("a",), (), True)
    first, second, third = featurize(view)
    return LinearModel({first: 1e16, second: 1.0, third: -1e16}, 0.0), view


def _saved(save, model) -> dict:
    buf = io.BytesIO()
    save(model, buf, slot="per:age")
    buf.seek(0)
    with np.load(buf) as data:
        return {k: (data[k].dtype, data[k].shape, data[k].tobytes())
                for k in data.files}


class TestSVMOracle:
    """The sparse linear model against the dense one it replaced: the same
    trained weights, bit-identical margins and scores, byte-identical saved
    arrays."""

    @settings(max_examples=300)
    @given(svm_cases())
    @example((LinearModel({}, 0.0), ClassifierView((), ("x",), (), True)))
    @example((LinearModel({}, -1e300), ClassifierView((), (), (), False)))
    @example(_cancelling_case())
    def test_scores_bit_identical_to_dense(self, case):
        model, view = case
        dense = svm_oracle.dense(model.weights, model.bias)
        assert svm_margin(model, view).hex() == \
            svm_oracle.svm_margin(dense, view).hex()
        assert svm_score(model, view).hex() == \
            svm_oracle.svm_score(dense, view).hex()

    @settings(max_examples=100)
    @given(svm_cases())
    def test_saved_arrays_byte_identical_to_dense(self, case):
        model, _ = case
        dense = svm_oracle.dense(model.weights, model.bias)
        assert _saved(save_svm, model) == _saved(svm_oracle.save_svm, dense)
        buf = io.BytesIO()
        save_svm(model, buf)
        buf.seek(0)
        loaded = load_svm(buf)
        assert loaded.weights == {i: w for i, w in model.weights.items() if w}
        assert loaded.bias == model.bias

    def test_colliding_features_add_up_and_score_as_dense(self):
        # the property cases rarely collide in 2^18 slots; these two middle
        # unigrams share one index
        assert _hash_feature("M:w423") == _hash_feature("M:w633") == 258912
        view = ClassifierView((), ("w423", "w633"), (), True)
        features = featurize(view)
        assert features[258912] == 2.0
        model = LinearModel({i: 0.1 * (n + 1) - 0.25
                             for n, i in enumerate(features)}, -0.3)
        dense = svm_oracle.dense(model.weights, model.bias)
        assert svm_margin(model, view).hex() == \
            svm_oracle.svm_margin(dense, view).hex()
        assert svm_score(model, view).hex() == \
            svm_oracle.svm_score(dense, view).hex()

    @settings(max_examples=40)
    @given(st.lists(st.tuples(svm_views, st.integers(0, 1)), min_size=1,
                    max_size=12),
           st.integers(1, 3), st.integers(0, 9))
    def test_training_keeps_the_dense_nonzero_weights(self, data, epochs,
                                                      seed):
        config = SVMConfig(epochs=epochs, seed=seed)
        model = svm_train(data, config)
        dense = svm_oracle.svm_train(data, config)
        nonzero = np.flatnonzero(dense.weights)
        assert list(model.weights) == nonzero.tolist()
        assert [w.hex() for w in model.weights.values()] == \
            [float(w).hex() for w in dense.weights[nonzero]]
        assert model.bias.hex() == float(dense.bias).hex()
        assert _saved(save_svm, model) == _saved(svm_oracle.save_svm, dense)


class TestFeatureHashMemo:
    @given(st.text(max_size=30))
    @example("M:école")
    @example("L:中文")
    def test_memo_equals_blake2b(self, name):
        digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
        want = int.from_bytes(digest, "big") % (1 << HASH_BITS)
        assert _hash_feature.__wrapped__(name) == want
        assert _hash_feature(name) == want
        assert _hash_feature(name) == want


class TestDates:
    @given(st.text(max_size=20))
    def test_never_crashes_and_output_well_formed(self, surface):
        got = normalize_date(surface)
        if got is not None:
            assert DATE_RE.fullmatch(got)
