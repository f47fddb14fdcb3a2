"""Mention finding: exact/fuzzy matching, coref chains, nominal heuristic."""

import random

from slotfill.corpus import make_document
from slotfill.mentions import (
    MENTION_KINDS,
    ChainMention,
    CorefChain,
    attach_coref_mentions,
    expand_person_fillers,
    find_name_mentions,
    load_coref_resource,
    merge_mentions,
    nominal_anaphora_heuristic,
)
from slotfill.query import levenshtein
from token_oracle import tokenize


def doc_from(text: str, doc_id: str = "d1"):
    return make_document(doc_id, "news", text)


class TestLoadCorefResource:
    def test_three_line_chain(self, tmp_path):
        p = tmp_path / "coref.tsv"
        p.write_text(
            "d1\tc1\t0\t0\t2\tproper\tBarack Obama\n"
            "d1\tc1\t1\t0\t1\tpronoun\the\n"
            "d1\tc1\t2\t1\t3\tnominal\tthe president\n"
        )
        chains = load_coref_resource(p)
        assert list(chains) == ["d1"]
        assert len(chains["d1"]) == 1
        assert len(chains["d1"][0]) == 3

    def test_empty_file(self, tmp_path):
        p = tmp_path / "coref.tsv"
        p.write_text("")
        assert load_coref_resource(p) == {}

    def test_invalid_span_skipped(self, tmp_path):
        p = tmp_path / "coref.tsv"
        p.write_text(
            "d1\tc1\t0\t0\t2\tproper\tBarack Obama\n"
            "d1\tc1\t1\t3\t3\tpronoun\the\n"      # end <= start: skipped
            "d1\tc1\t1\t0\t1\tpronoun\the\n"
        )
        chains = load_coref_resource(p)
        assert len(chains["d1"][0]) == 2

    def test_single_mention_chain_dropped(self, tmp_path):
        p = tmp_path / "coref.tsv"
        p.write_text("d1\tc1\t0\t0\t1\tproper\tObama\n")
        assert load_coref_resource(p) == {}


class TestFindNameMentions:
    def test_exact(self):
        doc = doc_from("Barack Obama spoke today.")
        ms = find_name_mentions(doc, ["Barack Obama"])
        assert len(ms) == 1
        assert ms[0].kind == "exact"
        assert ms[0].surface == "Barack Obama"
        assert (ms[0].token_start, ms[0].token_end) == (0, 2)

    def test_fuzzy_within_threshold(self):
        doc = doc_from("Barak Obama spoke today.")
        ms = find_name_mentions(doc, ["Barack Obama"])
        assert len(ms) == 1
        assert ms[0].kind == "fuzzy"
        # oracle: distance 1, longer string 12 characters
        assert levenshtein("barak obama", "barack obama") == 1
        assert 1 / 12 <= 0.2

    def test_unrelated_sentence(self):
        doc = doc_from("Nothing to see here at all.")
        assert find_name_mentions(doc, ["Barack Obama"]) == []

    def test_over_threshold_rejected(self):
        doc = doc_from("Barton Osman spoke.")
        # "barton osman" vs "barack obama": way past 20%
        assert find_name_mentions(doc, ["Barack Obama"]) == []

    def test_case_insensitive(self):
        doc = doc_from("BARACK OBAMA SPOKE.")
        ms = find_name_mentions(doc, ["Barack Obama"])
        assert len(ms) == 1 and ms[0].kind == "exact"

    def test_multiple_names_multiple_windows(self):
        doc = doc_from("Obama met Barack Obama.")
        ms = find_name_mentions(doc, ["Barack Obama", "Obama"])
        spans = {(m.token_start, m.token_end) for m in ms}
        assert (2, 4) in spans   # two-token window
        assert (0, 1) in spans   # single-token alias
        assert (3, 4) in spans


def reference_name_mentions(doc, names, max_norm_dist=0.2):
    """The matching rule with the full-DP levenshtein on every window."""
    targets = []
    for name in names:
        toks = [t.text for t in tokenize(name)]
        if toks:
            targets.append((" ".join(toks).lower(), len(toks)))
    found = {}
    for sent in doc.sentences:
        texts = sent.texts
        for target, width in targets:
            for i in range(len(texts) - width + 1):
                surface = " ".join(texts[i:i + width])
                longer = max(len(surface), len(target))
                dist = levenshtein(surface.lower(), target)
                if dist / longer > max_norm_dist:
                    continue
                kind = "exact" if dist == 0 else "fuzzy"
                span = (sent.index, i, i + width)
                prev = found.get(span)
                if prev is None or MENTION_KINDS.index(kind) \
                        < MENTION_KINDS.index(prev.kind):
                    found[span] = (sent.index, i, i + width, surface, kind)
    return sorted(found.values(), key=lambda m: m[:3])


def near_miss(rng: random.Random, name: str, edits: int) -> str:
    """``name`` after ``edits`` random letter edits, its case varied."""
    chars = list(name)
    for _ in range(edits):
        op = rng.choice("sid")
        pos = rng.randrange(len(chars))
        if op == "s":
            chars[pos] = rng.choice("abcdefghij")
        elif op == "i":
            chars.insert(pos, rng.choice("abcdefghij"))
        elif len(chars) > 1:
            del chars[pos]
    word = "".join(chars)
    return word.upper() if rng.random() < 0.2 else word


class TestFindNameMentionsOracle:
    def test_matches_full_levenshtein_rule(self):
        # lowered lengths 5, 10, 15, 20: 0.2 * length is a whole distance,
        # so near-misses land on both sides of the largest accepted one
        rng = random.Random(5)
        fillers = ["the", "met", "said", "on", "Friday", "cafe", "née", "."]
        for trial in range(60):
            names = []
            for length in (5, 10, 15, 20):
                first = "".join(rng.choices("abcdefghij", k=length // 2 - 1))
                last = "".join(rng.choices("abcdefghij",
                                           k=length - len(first) - 1))
                names.append(f"{first.title()} {last.title()}")
            names.append("".join(rng.choices("abcdefghij", k=5)).title())
            words = []
            for _ in range(40):
                if rng.random() < 0.4:
                    name = rng.choice(names)
                    k = len(name) // 5
                    words.append(near_miss(rng, name, rng.choice(
                        [0, k - 1, k, k, k + 1, k + 1, k + 2])))
                else:
                    words.append(rng.choice(fillers))
            doc = doc_from(" ".join(words), doc_id=f"d{trial}")
            got = [(m.sentence_index, m.token_start, m.token_end, m.surface,
                    m.kind)
                   for m in find_name_mentions(doc, names)]
            assert got == reference_name_mentions(doc, names)

    def test_edits_spread_over_pieces_of_several_widths(self):
        # names of 1, 2 and 3 tokens; each near-miss puts one edit in every
        # piece but one of a k + 1 split, or in every piece of a k split,
        # for the k of the name's own length and the largest k of any
        # accepted window length (reached by k insertions)
        rng = random.Random(11)
        fuzzy = 0
        for trial in range(60):
            names = []
            for width, lo, hi in ((1, 8, 14), (2, 10, 20), (3, 14, 24)):
                length = rng.randint(lo, hi) - (width - 1)
                cuts = sorted(rng.sample(range(2, length - 1), width - 1))
                letters = "".join(rng.choices("abcdefghij", k=length))
                names.append(" ".join(
                    letters[a:b].title()
                    for a, b in zip([0] + cuts, cuts + [length])))
            words = []
            for _ in range(16):
                name = rng.choice(names)
                n = len(name)
                window = rng.choice([n, n + n // 4])
                k = window // 5
                parts = rng.choice([k, k + 1])
                near = spread_near_miss(
                    rng, name, window - n, rng.choice([k, min(k + 1, parts)]),
                    parts, at_boundary=rng.random() < 0.5)
                words += [near, rng.choice(["met", "the", "said", "."])]
            doc = doc_from(" ".join(words), doc_id=f"w{trial}")
            got = [(m.sentence_index, m.token_start, m.token_end, m.surface,
                    m.kind)
                   for m in find_name_mentions(doc, names)]
            assert got == reference_name_mentions(doc, names)
            fuzzy += sum(m[-1] == "fuzzy" for m in got)
        assert fuzzy > 300


def spread_near_miss(rng: random.Random, name: str, insertions: int,
                     edits: int, parts: int, at_boundary: bool) -> str:
    """``name`` after ``edits`` letter edits, the first ``insertions`` of
    them insertions and the rest substitutions, one in each of ``edits`` of
    the ``parts`` near-equal pieces the name is cut into: at a piece's
    first or last character when ``at_boundary``, else in its middle."""
    n = len(name)
    bounds = [n * j // parts for j in range(parts + 1)]
    chars = list(name)
    # right to left, so an edit moves no piece still to be edited
    pieces = sorted(rng.sample(range(parts), edits), reverse=True)
    for e, piece in enumerate(pieces):
        lo, hi = bounds[piece], bounds[piece + 1]
        if e < insertions:
            pos = rng.choice([lo, hi]) if at_boundary else (lo + hi) // 2
            chars.insert(pos, rng.choice("abcdefghij"))
            continue
        pos = rng.choice([lo, hi - 1]) if at_boundary else (lo + hi) // 2
        if chars[pos] == " ":
            pos = pos + 1 if pos == lo else pos - 1
        chars[pos] = rng.choice([c for c in "abcdefghij" if c != chars[pos]])
    return "".join(chars)


def chain(*mentions):
    return CorefChain(ChainMention(*m) for m in mentions)


class TestAttachCoref:
    def test_chain_contributes_all_other_mentions(self):
        doc = doc_from("Barack Obama arrived. He spoke. The president left.")
        seed = find_name_mentions(doc, ["Barack Obama"])
        ch = chain((0, 0, 2, "Barack Obama", "proper"),
                   (1, 0, 1, "He", "pronoun"),
                   (2, 0, 2, "The president", "nominal"))
        new = attach_coref_mentions(doc, [ch], seed)
        assert len(new) == 2
        assert all(m.kind == "coref" for m in new)
        assert {m.span for m in new} == {(1, 0, 1), (2, 0, 2)}

    def test_disjoint_chain_contributes_nothing(self):
        doc = doc_from("Barack Obama arrived. She left.")
        seed = find_name_mentions(doc, ["Barack Obama"])
        ch = chain((1, 0, 1, "She", "pronoun"), (1, 1, 2, "left", "proper"))
        assert attach_coref_mentions(doc, [ch], seed) == []

    def test_chain_overlapping_two_seeds_added_once(self):
        doc = doc_from("Barack Obama met Barack Obama. He spoke.")
        seed = find_name_mentions(doc, ["Barack Obama"])
        assert len(seed) == 2
        ch = chain((0, 0, 2, "Barack Obama", "proper"),
                   (0, 3, 5, "Barack Obama", "proper"),
                   (1, 0, 1, "He", "pronoun"))
        new = attach_coref_mentions(doc, [ch], seed)
        assert [m.span for m in new] == [(1, 0, 1)]

    def test_out_of_bounds_chain_mentions_dropped(self):
        doc = doc_from("Barack Obama arrived.")
        seed = find_name_mentions(doc, ["Barack Obama"])
        ch = chain((0, 0, 2, "Barack Obama", "proper"),
                   (5, 0, 1, "He", "pronoun"),
                   (0, 2, 99, "arrived!!!", "nominal"))
        assert attach_coref_mentions(doc, [ch], seed) == []

    def test_random_chains_never_exceed_bounds(self):
        rng = random.Random(4)
        doc = doc_from("Barack Obama arrived here. He spoke a lot today.")
        seed = find_name_mentions(doc, ["Barack Obama"])
        for _ in range(100):
            ms = [ChainMention(0, 0, 2, "Barack Obama", "proper")]
            for _ in range(rng.randint(1, 4)):
                s = rng.randint(0, 3)
                a = rng.randint(0, 10)
                b = a + rng.randint(1, 10)
                ms.append(ChainMention(s, a, b, "x", "pronoun"))
            new = attach_coref_mentions(doc, [CorefChain(ms)], seed)
            for m in new:
                assert m.sentence_index < len(doc.sentences)
                sent = doc.sentences[m.sentence_index]
                assert 0 <= m.token_start < m.token_end <= len(sent.texts)


class TestNominalHeuristic:
    def test_year_old_pattern(self):
        doc = doc_from("Steve Miller arrived. The 30-year-old said yes.")
        seed = find_name_mentions(doc, ["Steve Miller"])
        ms = nominal_anaphora_heuristic(doc, seed)
        assert len(ms) == 1
        assert ms[0].kind == "nominal_heuristic"
        assert ms[0].surface == "The 30-year-old"
        assert ms[0].span == (1, 0, 2)

    def test_based_company_pattern(self):
        doc = doc_from("Acme grew fast. The Munich-based company hired.")
        seed = find_name_mentions(doc, ["Acme"])
        ms = nominal_anaphora_heuristic(doc, seed)
        assert len(ms) == 1
        assert ms[0].surface == "The Munich-based company"

    def test_born_pattern_with_multi_token_run(self):
        doc = doc_from("Anna Berg wrote this. The New York-born artist smiled.")
        seed = find_name_mentions(doc, ["Anna Berg"])
        ms = nominal_anaphora_heuristic(doc, seed)
        assert len(ms) == 1
        assert ms[0].surface == "The New York-born"

    def test_entity_follows_blocks(self):
        doc = doc_from("Steve Miller arrived. The 30-year-old manager John Doe resigned.")
        seed = find_name_mentions(doc, ["Steve Miller"])
        # tokens 3-4 of sentence 1 are a PER span ("John Doe")
        blocked = {1: {3, 4}}
        assert nominal_anaphora_heuristic(doc, seed, blocked) == []

    def test_mid_sentence_pattern_ignored(self):
        doc = doc_from("Steve Miller arrived. Later the 30-year-old said yes.")
        seed = find_name_mentions(doc, ["Steve Miller"])
        assert nominal_anaphora_heuristic(doc, seed) == []

    def test_no_next_sentence(self):
        doc = doc_from("Steve Miller arrived.")
        seed = find_name_mentions(doc, ["Steve Miller"])
        assert nominal_anaphora_heuristic(doc, seed) == []


class TestExpandPersonFillers:
    def test_pronoun_resolves_to_proper_name(self):
        doc = doc_from("John Smith is here. He went to University of Munich.")
        ch = chain((0, 0, 2, "John Smith", "proper"), (1, 0, 1, "He", "pronoun"))
        got = expand_person_fillers(doc, [ch], (1, 0, 1), "He", is_pronoun=True)
        assert got == "John Smith"

    def test_pronoun_in_no_chain(self):
        doc = doc_from("He went home.")
        assert expand_person_fillers(doc, [], (0, 0, 1), "He", is_pronoun=True) is None

    def test_proper_name_unchanged(self):
        doc = doc_from("John Smith is here. He left.")
        ch = chain((0, 0, 2, "John Smith", "proper"), (1, 0, 1, "He", "pronoun"))
        got = expand_person_fillers(doc, [ch], (0, 0, 2), "John Smith")
        assert got == "John Smith"

    def test_proper_name_without_chain_unchanged(self):
        doc = doc_from("John Smith is here.")
        got = expand_person_fillers(doc, [], (0, 0, 2), "John Smith")
        assert got == "John Smith"


class TestMonotonicity:
    def test_pipeline_growth(self):
        doc = doc_from("Barack Obama arrived. He spoke. The 44-year-old left.")
        seed = find_name_mentions(doc, ["Barack Obama"])
        ch = chain((0, 0, 2, "Barack Obama", "proper"), (1, 0, 1, "He", "pronoun"))
        coref = attach_coref_mentions(doc, [ch], seed)
        with_coref = merge_mentions(seed, coref)
        heur = nominal_anaphora_heuristic(doc, with_coref)
        with_all = merge_mentions(with_coref, heur)
        assert {m.span for m in seed} <= {m.span for m in with_coref}
        assert {m.span for m in with_coref} <= {m.span for m in with_all}
        assert len(with_all) == 3
