"""Seeded input generator for the slotfill benchmark.

Every input is built from the package's bundled data (person, organization
and location gazetteers, the location maps, charges, religions, titles and
the relation patterns) plus pseudo-words made of consonant-vowel syllables,
so nothing is downloaded.  The same workload and seed give byte-identical
files.  The program under test only ever sees the files written here.

Files written into the output directory:

    corpus.jsonl        documents to query (news and forum genres)
    coref.tsv           coreference chains for the corpus (may be empty)
    queries.jsonl       slot queries, some cold-start with a next_slot
    gold.tsv            the planted answers, for ``pipeline.load_gold``
    kb.jsonl            the entity-linking KB (same-name entries included)
    train_corpus.jsonl  the distant-supervision corpus
    train_kb.tsv        KB relation instances for distant supervision
    seed_examples.jsonl clean seed examples for the selection loop
    heldout.jsonl       held-out labelled examples, for model accuracy
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from slotfill.resources import data_path

# Per-workload sizes.  Counts are fixed; the seed only decides contents.
SIZES = {
    "entity_fanout": dict(
        entities=6, homonyms=2, docs_per_entity=6, homonym_docs=3, vocab=3000,
        train_slots=("per:location_of_birth", "per:schools_attended")),
    "large_index": dict(
        docs=10000, queries=104, vocab=12000,
        train_slots=("per:location_of_birth",)),
}
# The training inputs are the same size for every workload: ~200 examples
# per slot, a model vocabulary of ~1,000 words, and a corpus of more than
# 20,000 distinct words.
TRAIN_DOCS = 100
TRAIN_VOCAB = 24000
TRAIN_CONTEXT = (1, 3)
TRAIN_FILLER_SENTENCES = 16
TRAIN_FILLER_LENGTH = (12, 20)

# filler sentences per entity_fanout document, and how many of them start
# with a misspelling of the entity's name
FANOUT_FILLER_SENTENCES = 4
FANOUT_MISSPELLED = 2
SEED_EXAMPLES = 20
HELDOUT_EXAMPLES = 200

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"

# Relation phrasings that do not express the slot: the negatives.
DISTRACTOR_MIDDLES = (("visited",), ("flew", "to"), ("wrote", "about"),
                      ("moved", "to"))


def _lines(*parts: str) -> list[str]:
    text = data_path(*parts).read_text(encoding="utf-8")
    return [l.strip() for l in text.splitlines()
            if l.strip() and not l.startswith("#")]


def _tsv(*parts: str) -> dict[str, str]:
    return dict(l.split("\t")[:2] for l in _lines(*parts))


@dataclass(frozen=True)
class Bundled:
    """The bundled lists the generator draws from."""
    persons: list[str]
    schools: list[str]
    birth_cities: list[str]     # cities with a state and a country mapping
    other_cities: list[str]
    city_state: dict[str, str]
    city_country: dict[str, str]
    charges: list[str]
    religions: list[str]
    titles: list[str]
    patterns: dict[str, list[list[str]]]
    first_names: list[str]
    last_names: list[str]
    reserved: frozenset[str]

    @classmethod
    def load(cls) -> "Bundled":
        persons = _lines("gazetteers", "per.txt")
        orgs = _lines("gazetteers", "org.txt")
        cities = _lines("locations", "cities.txt")
        city_state = _tsv("locations", "city_state.tsv")
        city_country = _tsv("locations", "city_country.tsv")
        patterns: dict[str, list[list[str]]] = {}
        for line in _lines("patterns.tsv"):
            slot, template = line.split("\t")
            patterns.setdefault(slot, []).append(template.split())
        nicknames = [w for l in _lines("nicknames.tsv") for w in l.split("\t")]
        first = list(dict.fromkeys([p.split()[0] for p in persons] + nicknames))
        last = list(dict.fromkeys(p.split()[-1] for p in persons))
        reserved = set()
        for path in data_path().rglob("*"):
            if path.is_file() and path.suffix in (".txt", ".tsv", ".jsonl"):
                reserved.update(w.lower() for w in
                                path.read_text(encoding="utf-8").split())
        return cls(
            persons=persons,
            schools=[o for o in orgs
                     if any(w in o for w in ("University", "College", "Institute"))],
            birth_cities=[c for c in cities
                          if c in city_state and c in city_country],
            other_cities=[c for c in cities if c not in city_state],
            city_state=city_state, city_country=city_country,
            charges=_lines("gazetteers", "charge.txt"),
            religions=_lines("gazetteers", "religion.txt"),
            titles=_lines("gazetteers", "title.txt"),
            patterns=patterns, first_names=first, last_names=last,
            reserved=frozenset(reserved))


def pseudo_words(n: int, reserved: frozenset[str]) -> list[str]:
    """``n`` lowercase pseudo-words of two to four syllables, in a fixed
    order that does not depend on the workload seed."""
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    rng = np.random.default_rng(0)
    out: list[str] = []
    for k in (2, 3, 4):
        combos = len(syllables) ** k
        for code in rng.permutation(combos)[:4 * n]:
            parts = []
            for _ in range(k):
                code, r = divmod(int(code), len(syllables))
                parts.append(syllables[r])
            word = "".join(parts)
            if word not in reserved:
                out.append(word)
            if len(out) == n:
                return out
    raise ValueError(f"cannot make {n} pseudo-words")


class Words:
    """Zipf-distributed filler words plus a round-robin cursor that walks
    the whole vocabulary, so every word of it occurs."""

    def __init__(self, vocab: list[str], rng: np.random.Generator,
                 s: float = 1.0):
        self.vocab = vocab
        self.rng = rng
        p = np.arange(1, len(vocab) + 1, dtype=float) ** -s
        self.cdf = np.cumsum(p / p.sum())
        self.cursor = 0

    def zipf(self, n: int) -> list[str]:
        idx = np.searchsorted(self.cdf, self.rng.random(n), side="right")
        return [self.vocab[min(int(i), len(self.vocab) - 1)] for i in idx]

    def fresh(self, n: int) -> list[str]:
        out = []
        for _ in range(n):
            out.append(self.vocab[self.cursor])
            self.cursor = (self.cursor + 1) % len(self.vocab)
        return out

    def mix(self, n: int) -> list[str]:
        """Half Zipf draws, half round-robin words, shuffled."""
        words = self.zipf(n - n // 2) + self.fresh(n // 2)
        return [words[int(i)] for i in self.rng.permutation(len(words))]


def sentence_text(tokens: list[str]) -> str:
    return " ".join(tokens).replace(" ,", ",").replace(" .", ".")


def misspell(name: str, rng: np.random.Generator) -> str:
    """One edit inside the last name token: drop, double or swap letters."""
    first, _, last = name.rpartition(" ")
    i = int(rng.integers(1, len(last) - 1))
    op = int(rng.integers(3))
    if op == 0:
        last = last[:i] + last[i + 1:]
    elif op == 1:
        last = last[:i] + last[i] + last[i:]
    else:
        last = last[:i] + last[i + 1] + last[i] + last[i + 2:]
    return f"{first} {last}".strip()


class Doc:
    """A document built sentence by sentence, with coreference chains kept
    in the sentence and token indices the program's tokenizer produces."""

    def __init__(self, doc_id: str, genre: str):
        self.id = doc_id
        self.genre = genre
        self.lines: list[str] = []
        self.n_sentences = 0
        self.coref: list[tuple] = []

    def add(self, tokens: list[str]) -> int:
        self.lines.append(sentence_text(tokens))
        self.n_sentences += 1
        return self.n_sentences - 1

    def add_quote(self, tokens: list[str]) -> None:
        """A forum quote line; the program strips it before splitting."""
        self.lines.append(f"<quote>{sentence_text(tokens)}</quote>")

    def chain(self, chain_id: str, mentions: list[tuple]) -> None:
        for sent, start, end, mclass, surface in mentions:
            self.coref.append((self.id, chain_id, sent, start, end, mclass,
                               surface))

    def record(self) -> dict:
        sep = "\n" if self.genre == "forum" else " "
        return {"id": self.id, "genre": self.genre, "text": sep.join(self.lines)}


def _fill(template: list[str], entity: list[str], filler: list[str],
          words: Words) -> list[str]:
    """Instantiate a pattern template; a ``*k`` wildcard takes one word."""
    out: list[str] = []
    for item in template:
        if item == "<ENTITY>":
            out.extend(entity)
        elif item == "<FILLER>":
            out.extend(filler)
        elif item.startswith("*"):
            out.extend(words.zipf(1))
        else:
            out.append(item)
    return out


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _write_tsv(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write("\t".join(str(x) for x in row) + "\n")


# ---------------------------------------------------------------------------
# training corpus, seed and held-out examples (all workloads)


def _example(left, middle, right, entity_first, label, slot, origin):
    return {"left": list(left), "middle": list(middle), "right": list(right),
            "entity_first": entity_first, "label": label, "slot": slot,
            "origin": origin}


POSITIVE_MIDDLES = {
    "per:location_of_birth": (("was", "born", "in"),),
    "per:schools_attended": (("studied", "at"), ("graduated", "from")),
}


def _labelled_examples(n: int, slot: str, words: Words,
                       rng: np.random.Generator, context: tuple[int, int],
                       origin: str) -> list[dict]:
    """Alternating positive and distractor examples of one slot, shaped
    like the corpus sentences: context words, the entity, the relation
    phrase, the filler, and the closing period."""
    out = []
    for i in range(n):
        label = int(i % 2 == 0)
        middles = POSITIVE_MIDDLES[slot] if label else DISTRACTOR_MIDDLES
        middle = middles[int(rng.integers(len(middles)))]
        left = words.mix(int(rng.integers(context[0], context[1] + 1)))
        out.append(_example(left, middle, ["."], True, label, slot, origin))
    return out


def write_training_inputs(out: Path, bundled: Bundled, rng: np.random.Generator,
                          size: dict) -> dict:
    """The distant-supervision corpus and KB, seed and held-out examples.

    Each training person (a gazetteer name, so the negative generator can
    tag it) has a birth city and a school; documents state them with the
    bundled patterns, and add one distractor sentence about another place
    and one about another school.  In one document in ten the place is the
    person's own birth city, a noisy distant positive for the selection
    loop.  Every sentence ends with its filler; context words go before the
    entity.  Filler-only sentences walk the rest of the vocabulary, so the
    corpus holds all of it.
    """
    vocab = pseudo_words(TRAIN_VOCAB, bundled.reserved)
    words = Words(vocab, rng, s=0.8)
    lo, hi = TRAIN_CONTEXT
    facts = {}
    for p in bundled.persons:
        facts[p] = (bundled.birth_cities[int(rng.integers(len(bundled.birth_cities)))],
                    bundled.schools[int(rng.integers(len(bundled.schools)))])
    places = bundled.birth_cities + bundled.other_cities
    docs = []
    for i in range(TRAIN_DOCS):
        person = bundled.persons[i % len(bundled.persons)]
        city, school = facts[person]
        ent = person.split()
        doc = Doc(f"t{i:05d}", "news")
        kinds = ["birth", "school", "place", "org"]
        for j in rng.permutation(len(kinds)):
            kind = kinds[int(j)]
            if kind == "birth":
                tmpl = bundled.patterns["per:location_of_birth"]
                core = _fill(tmpl[int(rng.integers(len(tmpl)))], ent,
                             city.split(), words)
            elif kind == "school":
                tmpl = bundled.patterns["per:schools_attended"]
                core = _fill(tmpl[int(rng.integers(len(tmpl)))], ent,
                             school.split(), words)
            else:
                middle = DISTRACTOR_MIDDLES[int(rng.integers(len(DISTRACTOR_MIDDLES)))]
                if kind == "org":
                    pool = [o for o in bundled.schools if o != school]
                elif i % 10 == 0:
                    pool = [city]   # a noisy distant positive
                else:
                    pool = [c for c in places if c != city]
                target = pool[int(rng.integers(len(pool)))]
                core = ent + list(middle) + target.split()
            doc.add(words.mix(int(rng.integers(lo, hi + 1))) + core + ["."])
        for _ in range(TRAIN_FILLER_SENTENCES):
            doc.add(words.fresh(int(rng.integers(*TRAIN_FILLER_LENGTH))) + ["."])
        docs.append(doc.record())
    _write_jsonl(out / "train_corpus.jsonl", docs)
    kb_rows = []
    for p in bundled.persons:
        kb_rows.append((p, "per:location_of_birth", facts[p][0]))
        kb_rows.append((p, "per:schools_attended", facts[p][1]))
    _write_tsv(out / "train_kb.tsv", kb_rows)
    seed_rows, heldout = [], []
    for slot in size["train_slots"]:
        seed_rows += _labelled_examples(SEED_EXAMPLES, slot, words, rng,
                                        (lo, hi), "seed")
        heldout += _labelled_examples(HELDOUT_EXAMPLES, slot, words, rng,
                                      (lo, hi), "heldout")
    _write_jsonl(out / "seed_examples.jsonl", seed_rows)
    _write_jsonl(out / "heldout.jsonl", heldout)
    distinct = {w for d in docs for w in d["text"].split()}
    return {"train_docs": len(docs), "train_distinct_words": len(distinct)}


# ---------------------------------------------------------------------------
# entity_fanout


def _fanout_corpus(out: Path, bundled: Bundled, rng: np.random.Generator,
                   size: dict) -> dict:
    """A few persons, each asked every slot of a fixed set, in multi-sentence
    news and forum documents with misspelled names, coreference chains and
    same-name persons the linking gate has to tell apart."""
    vocab = pseudo_words(size["vocab"], bundled.reserved)
    words = Words(vocab, rng)
    topic_pool = vocab[200:]
    # names whose two tokens no other gazetteer name shares
    tokens = [t for p in bundled.persons for t in p.split()]
    unique = [p for p in bundled.persons
              if all(tokens.count(t) == 1 for t in p.split())]
    names = unique[:size["entities"]]
    others = [p for p in bundled.persons if p not in names]
    female = {"Maria", "Anna", "Jane", "Lisa", "Emma", "Clara"}

    # Fixed multisets keep the work per seed equal: two entities per school
    # for the first three schools (the hop-1 org:students fan-out, which
    # sets the slowest queries, so its pairs are fixed too) and one homonym
    # each for the next ones; birth cities and cousins, shuffled by the
    # seed, whose name tokens no other cousin shares.
    n_people = size["entities"] + size["homonyms"]
    schools = [bundled.schools[i // 2] for i in range(size["entities"])] \
        + bundled.schools[3:3 + size["homonyms"]]
    cities = [bundled.birth_cities[i % len(bundled.birth_cities)]
              for i in range(n_people)]
    cities = [cities[int(i)] for i in rng.permutation(n_people)]
    cousin_pool, taken = [], set()
    for p in others:
        if not taken & set(p.split()):
            cousin_pool.append(p)
            taken |= set(p.split())
    cousins = [cousin_pool[int(i)] for i in rng.permutation(n_people)]

    def person(i: int, name: str, key: str) -> dict:
        return {
            "name": name, "key": key,
            "pronoun": "She" if name.split()[0] in female else "He",
            "city": cities[i],
            "school": schools[i],
            "charges": sorted(bundled.charges[int(j)] for j in
                              rng.choice(len(bundled.charges), 2, replace=False)),
            "religion": bundled.religions[int(rng.integers(len(bundled.religions)))],
            "cousin": cousins[i],
            "title": bundled.titles[int(rng.integers(len(bundled.titles)))],
            "topic": [topic_pool[int(j)] for j in
                      rng.choice(len(topic_pool), size=4, replace=False)],
            "age": int(rng.integers(25, 80)),
        }

    people = [person(i, n, f"e{i}") for i, n in enumerate(names)]
    homonyms = [person(size["entities"] + i, n, f"e{i}h") for i, n in
                enumerate(names[:size["homonyms"]])]

    docs: list[Doc] = []
    for p, n_docs in [(p, size["docs_per_entity"]) for p in people] + \
            [(h, size["homonym_docs"]) for h in homonyms]:
        for k in range(n_docs):
            docs.append(_fanout_doc(p, k, len(docs), words, rng, bundled))
    order = rng.permutation(len(docs))
    docs = [docs[int(i)] for i in order]
    _write_jsonl(out / "corpus.jsonl", [d.record() for d in docs])
    _write_tsv(out / "coref.tsv", [row for d in docs for row in d.coref])
    kb = [{"id": f"kb_{p['key']}", "name": p["name"], "aliases": [],
           "description": " ".join([p["title"]] + p["topic"])}
          for p in people + homonyms]
    _write_jsonl(out / "kb.jsonl", kb)

    students: dict[str, set[str]] = {}
    for p in people + homonyms:
        students.setdefault(p["school"], set()).add(p["name"])
    queries, gold = [], []
    for p in people:
        slots = [
            ("per:city_of_birth", None, [p["city"]]),
            ("per:stateorprovince_of_birth", None, [bundled.city_state[p["city"]]]),
            ("per:country_of_birth", None, [bundled.city_country[p["city"]]]),
            ("per:schools_attended", "org:students", [p["school"]]),
            ("per:charges", None, p["charges"]),
            ("per:religion", None, [p["religion"]]),
            ("per:other_family", "per:city_of_birth", [p["cousin"]]),
        ]
        for slot, next_slot, fillers in slots:
            qid = f"{p['key']}_{slot.split(':')[1]}"
            rec = {"id": qid, "name": p["name"], "type": "PER", "slot": slot,
                   "hop": 0}
            if next_slot:
                rec["next_slot"] = next_slot
            queries.append(rec)
            gold += [(qid, 0, slot, f) for f in fillers]
            if next_slot == "org:students":
                gold += [(qid, 1, next_slot, s)
                         for s in sorted(students[p["school"]])]
    _write_jsonl(out / "queries.jsonl", queries)
    _write_tsv(out / "gold.tsv", gold)
    return {"docs": len(docs), "sentences": sum(d.n_sentences for d in docs),
            "queries": len(queries), "entities": len(people),
            "homonyms": len(homonyms), "vocab": len(vocab)}


def _fanout_doc(p: dict, k: int, n: int, words: Words,
                rng: np.random.Generator, bundled: Bundled) -> Doc:
    genre = "forum" if k % 3 == 2 else "news"
    doc = Doc(f"d{n:04d}", genre)
    name = p["name"].split()
    pron = [p["pronoun"]]
    doc.add(name + [",", "the", p["title"], ",", "spoke", "about",
                    p["topic"][k % 4], "and", p["topic"][(k + 1) % 4], "."])
    facts = [("birth", "name"), ("school", "name"), ("charge", "name"),
             ("religion", "name"), ("cousin", "name"), ("birth", "pronoun"),
             ("school", "pronoun"), ("birth", "nominal")]
    mine = [facts[(2 * k + j) % len(facts)] for j in range(2)]
    blocks: list[list] = [[("fact", f, form)] for f, form in mine]
    blocks.append([("distractor",)])
    for j in range(FANOUT_FILLER_SENTENCES):
        blocks.append([("filler", j < FANOUT_MISSPELLED)])
    for i in rng.permutation(len(blocks)):
        for item in blocks[int(i)]:
            _fanout_sentence(doc, item, p, name, pron, words, rng, bundled)
    if genre == "forum":
        doc.add_quote(words.zipf(8))
    return doc


def _fanout_sentence(doc: Doc, item: tuple, p: dict, name: list[str],
                     pron: list[str], words: Words, rng: np.random.Generator,
                     bundled: Bundled) -> None:
    if item[0] == "filler":
        body = words.zipf(int(rng.integers(8, 15)))
        if doc.genre == "forum":
            i = int(rng.integers(len(body)))
            w = body[i]
            body[i] = w[0] + w[1].upper() + w[2:]   # normalized to lowercase
        if item[1]:
            body = misspell(p["name"], rng).split() + body
        doc.add(body + ["."])
        return
    if item[0] == "distractor":
        middle = DISTRACTOR_MIDDLES[int(rng.integers(len(DISTRACTOR_MIDDLES)))]
        place = bundled.other_cities[int(rng.integers(len(bundled.other_cities)))]
        doc.add(name + list(middle) + place.split() + ["."])
        return
    _, fact, form = item
    if form == "name":
        subject = name
    else:
        # the subject sentence that the pronoun or nominal refers back to
        s0 = doc.add(name + words.zipf(int(rng.integers(4, 8))) + ["."])
        if form == "pronoun":
            subject = pron
            doc.chain(f"c{s0}", [(s0, 0, len(name), "proper", p["name"]),
                                 (s0 + 1, 0, 1, "pronoun", pron[0])])
        else:
            subject = ["The", f"{p['age']}-year-old"]
    if fact == "birth":
        core = subject + ["was", "born", "in", p["city"]]
    elif fact == "school":
        verb = ["studied", "at"] if rng.random() < 0.5 else ["graduated", "from"]
        core = subject + verb + p["school"].split()
    elif fact == "charge":
        core = subject + ["was", "charged", "with", p["charges"][0]]
        if len(p["charges"]) > 1:
            core += ["and", p["charges"][1]]
    elif fact == "religion":
        core = subject + ["converted", "to", p["religion"]]
    else:
        core = subject + ["is", "a", "cousin", "of"] + p["cousin"].split()
    doc.add(core + ["."])


# ---------------------------------------------------------------------------
# large_index


def _large_index_corpus(out: Path, bundled: Bundled, rng: np.random.Generator,
                        size: dict) -> dict:
    """Many two-sentence documents; every one names a person built from
    shared first and last name tokens, so the OR query tier of each name
    hits on the order of a thousand documents."""
    vocab = pseudo_words(size["vocab"], bundled.reserved)
    words = Words(vocab, rng)
    names = [f"{f} {l}" for f in bundled.first_names for l in bundled.last_names]
    facts = {n: (bundled.birth_cities[int(rng.integers(len(bundled.birth_cities)))],
                 bundled.charges[int(rng.integers(len(bundled.charges)))])
             for n in names}
    places = bundled.other_cities
    docs = []
    for i in range(size["docs"]):
        name = names[int(rng.integers(len(names)))]
        city, charge = facts[name]
        r = rng.random()
        ent = name.split()
        if r < 0.3:
            core = ent + ["was", "born", "in", city]
        elif r < 0.5:
            core = ent + ["was", "charged", "with", charge]
        else:
            middle = DISTRACTOR_MIDDLES[int(rng.integers(len(DISTRACTOR_MIDDLES)))]
            core = ent + list(middle) + places[int(rng.integers(len(places)))].split()
        doc = Doc(f"n{i:05d}", "news")
        sentences = [core + words.zipf(int(rng.integers(0, 4))) + ["."],
                     words.zipf(int(rng.integers(8, 17))) + ["."]]
        for j in rng.permutation(2):
            doc.add(sentences[int(j)])
        docs.append((doc, name, core))
    _write_jsonl(out / "corpus.jsonl", [d.record() for d, _, _ in docs])
    _write_tsv(out / "coref.tsv", [])
    _write_jsonl(out / "kb.jsonl", [])
    stated_birth = {n for _, n, core in docs if "born" in core}
    stated_charge = {n for _, n, core in docs if "charged" in core}
    # the same number of queries per first name, so the share of names with
    # nickname aliases (an extra retrieval tier) is the same for every seed
    per_first = size["queries"] // len(bundled.first_names)
    chosen = [f"{f} {bundled.last_names[int(j)]}" for f in bundled.first_names
              for j in rng.choice(len(bundled.last_names), per_first,
                                  replace=False)]
    queries, gold = [], []
    for i, name in enumerate(chosen):
        if i % 3 == 2:
            slot, fill, stated = "per:charges", facts[name][1], stated_charge
        else:
            slot, fill, stated = "per:city_of_birth", facts[name][0], stated_birth
        qid = f"q{i:03d}"
        queries.append({"id": qid, "name": name, "type": "PER", "slot": slot,
                        "hop": 0})
        if name in stated:
            gold.append((qid, 0, slot, fill))
    _write_jsonl(out / "queries.jsonl", queries)
    _write_tsv(out / "gold.tsv", gold)
    return {"docs": len(docs), "sentences": 2 * len(docs),
            "queries": len(queries), "names": len(names), "vocab": len(vocab)}


def generate(workload: str, seed: int, out: str | Path) -> dict:
    """Write every input of ``workload`` for ``seed`` into ``out`` and
    return a summary of the sizes."""
    if workload not in SIZES:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"expected one of {sorted(SIZES)}")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    size = SIZES[workload]
    bundled = Bundled.load()
    rng = np.random.default_rng([seed, sorted(SIZES).index(workload)])
    summary = {"workload": workload, "seed": seed}
    if workload == "entity_fanout":
        summary.update(_fanout_corpus(out, bundled, rng, size))
    elif workload == "large_index":
        summary.update(_large_index_corpus(out, bundled, rng, size))
    summary.update(write_training_inputs(out, bundled, rng, size))
    summary["train_slots"] = list(size["train_slots"])
    return summary
