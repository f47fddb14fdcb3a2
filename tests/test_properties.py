"""Property tests over randomly generated inputs."""

from hypothesis import example, given
from hypothesis import strategies as st

from slotfill.classify import combine_scores
from slotfill.corpus import make_document, strip_quote_spans, tokenize
from slotfill.extract import split_contexts
from slotfill.mentions import bounded_levenshtein
from slotfill.postprocess import DATE_RE, normalize_date
from slotfill.query import levenshtein

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


class TestQuoteStripping:
    @given(safe_text, safe_text, safe_text)
    def test_removal_and_map(self, pre, inner, post):
        text = f"{pre}<quote>{inner}</quote>{post}"
        clean, char_map, _ = strip_quote_spans(text)
        assert clean == pre + post
        assert all(text[char_map[i]] == clean[i] for i in range(len(clean)))

    @given(safe_text)
    def test_idempotent_without_tags(self, text):
        clean, _, warnings = strip_quote_spans(text)
        assert clean == text
        assert warnings == []


class TestTokenizer:
    @given(safe_text)
    def test_offsets_match_slices(self, text):
        for tok in tokenize(text):
            assert text[tok.char_start:tok.char_end] == tok.text

    @given(safe_text)
    def test_tokens_cover_non_whitespace(self, text):
        covered = set()
        for tok in tokenize(text):
            covered.update(range(tok.char_start, tok.char_end))
        for i, ch in enumerate(text):
            if not ch.isspace():
                assert i in covered

    @given(safe_text)
    def test_document_token_spans_nested(self, text):
        doc = make_document("d", "news", text)
        for sent in doc.sentences:
            assert sent.tokens
            for tok in sent.tokens:
                assert 0 <= tok.char_start < tok.char_end <= len(text)


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


class TestDates:
    @given(st.text(max_size=20))
    def test_never_crashes_and_output_well_formed(self, surface):
        got = normalize_date(surface)
        if got is not None:
            assert DATE_RE.fullmatch(got)
