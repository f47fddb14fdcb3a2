"""Answer postprocessing: thresholds with hop/run adjustments, location
disambiguation and inference, date normalization, ranked truncation."""

from __future__ import annotations

import datetime
import logging
import re
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

from .resources import read_tsv

log = logging.getLogger(__name__)

HOP1_THRESHOLD_BONUS = 0.1

MONTHS = {
    "january": 1, "february": 2, "march": 3, "april": 4, "may": 5, "june": 6,
    "july": 7, "august": 8, "september": 9, "october": 10, "november": 11,
    "december": 12,
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "jun": 6, "jul": 7, "aug": 8,
    "sep": 9, "sept": 9, "oct": 10, "nov": 11, "dec": 12,
}

_YEAR_RE = re.compile(r"\d{4}")
_DAY_RE = re.compile(r"\d{1,2}")
_ISO_RE = re.compile(r"(\d{4})-(\d{2})-(\d{2})")
_SLASH_RE = re.compile(r"(\d{1,2})/(\d{1,2})/(\d{4})")


@dataclass(frozen=True)
class Answer:
    query_id: str
    hop: int
    slot: str
    filler: str
    doc_id: str
    provenance: str
    score: float


def effective_threshold(theta: float, hop: int, threshold_bonus: float = 0.0) -> float:
    """Base threshold + 0.1 for hop 1 + the run's bonus, capped at 1.0."""
    value = theta + (HOP1_THRESHOLD_BONUS if hop == 1 else 0.0) + threshold_bonus
    return min(value, 1.0)


class LocationMaps:
    """City/state/country membership lists plus the inference mappings.

    Keys are lowercased; values keep their original casing.  Cities whose
    city->country mapping disagrees with state->country(city->state) are
    rejected at load time.
    """

    def __init__(self, city_to_state: dict[str, str], city_to_country: dict[str, str],
                 state_to_country: dict[str, str], cities: set[str],
                 states: set[str], countries: set[str]):
        self.city_to_state = city_to_state
        self.city_to_country = city_to_country
        self.state_to_country = state_to_country
        self.cities = cities
        self.states = states
        self.countries = countries
        self._validate()

    def _validate(self) -> None:
        bad = []
        for city, state in self.city_to_state.items():
            country = self.city_to_country.get(city)
            via_state = self.state_to_country.get(state.lower())
            if country is not None and via_state is not None \
                    and country.lower() != via_state.lower():
                bad.append(city)
        for city in bad:
            log.warning("inconsistent location mappings for %r, entry rejected", city)
            self.city_to_state.pop(city, None)
            self.city_to_country.pop(city, None)


def load_location_maps(directory: str | Path) -> LocationMaps:
    """The three TSV maps ``name<TAB>name`` (keys lowercased) and the three
    name lists (lowercased) of ``directory``."""
    d = Path(directory)

    def mapping(name: str) -> dict[str, str]:
        return {key.lower(): value for _, (key, value) in read_tsv(d / name, 2)}

    def names(name: str) -> set[str]:
        return {entry.strip().lower() for _, (entry,) in read_tsv(d / name, 1)}

    return LocationMaps(
        city_to_state=mapping("city_state.tsv"),
        city_to_country=mapping("city_country.tsv"),
        state_to_country=mapping("state_country.tsv"),
        cities=names("cities.txt"),
        states=names("states.txt"),
        countries=names("countries.txt"),
    )


def disambiguate_location(surface: str, maps: LocationMaps) -> str:
    """Classify a location surface; multi-list hits resolve
    country > stateorprovince > city; unknown otherwise."""
    key = surface.lower()
    if key in maps.countries:
        return "country"
    if key in maps.states:
        return "stateorprovince"
    if key in maps.cities:
        return "city"
    return "unknown"


def infer_locations(answer: Answer, requested: str, maps: LocationMaps) -> Answer | None:
    """Map a city/state answer up to the requested granularity (state or
    country); score and provenance are preserved.  None when no mapping."""
    found = disambiguate_location(answer.filler, maps)
    key = answer.filler.lower()
    mapped: str | None = None
    if found == "city" and requested == "stateorprovince":
        mapped = maps.city_to_state.get(key)
    elif found == "city" and requested == "country":
        mapped = maps.city_to_country.get(key)
    elif found == "stateorprovince" and requested == "country":
        mapped = maps.state_to_country.get(key)
    if mapped is None:
        return None
    return replace(answer, filler=mapped)


def _render(year: int, month: int | None, day: int | None) -> str | None:
    """YYYY-MM-DD with XX for an unknown month or day; None when the year
    is outside 1000-2999 or the month and day are not on the calendar.  A
    day is only ever known with its month, and a month known alone comes
    from ``MONTHS``."""
    if not 1000 <= year <= 2999:
        return None
    if day is None:
        return f"{year:04d}-{month:02d}-XX" if month else f"{year:04d}-XX-XX"
    try:
        return datetime.date(year, month, day).isoformat()
    except ValueError:
        return None


def read_date(words: Sequence[str], i: int = 0) -> tuple[int, str | None]:
    """The longest date that starts at the lowercased ``words[i]``: its
    width in words (0 when none starts there) and its YYYY-MM-DD form with
    XX for an unknown part, or None when a part is out of range or the day
    is not on the calendar.  The forms, longest first: "Month D , YYYY",
    "Month D YYYY", "D Month YYYY", "Month YYYY", "YYYY-MM-DD" or
    "MM/DD/YYYY", a bare year 1000-2999."""
    n = len(words)
    if i >= n:
        return 0, None
    w0 = words[i]
    w1 = words[i + 1] if i + 1 < n else ""
    w2 = words[i + 2] if i + 2 < n else ""
    month = MONTHS.get(w0)
    if month:
        if _DAY_RE.fullmatch(w1):
            if w2 == "," and i + 3 < n and _YEAR_RE.fullmatch(words[i + 3]):
                return 4, _render(int(words[i + 3]), month, int(w1))
            if _YEAR_RE.fullmatch(w2):
                return 3, _render(int(w2), month, int(w1))
        elif _YEAR_RE.fullmatch(w1):
            return 2, _render(int(w1), month, None)
        return 0, None
    if _DAY_RE.fullmatch(w0) and w1 in MONTHS and _YEAR_RE.fullmatch(w2):
        return 3, _render(int(w2), MONTHS[w1], int(w0))
    m = _ISO_RE.fullmatch(w0)
    if m:
        return 1, _render(int(m[1]), int(m[2]), int(m[3]))
    m = _SLASH_RE.fullmatch(w0)
    if m:
        return 1, _render(int(m[3]), int(m[1]), int(m[2]))
    date = _render(int(w0), None, None) if _YEAR_RE.fullmatch(w0) else None
    return (1, date) if date else (0, None)


def normalize_date(surface: str) -> str | None:
    """A date surface as YYYY-MM-DD with XX for an unknown part: the date
    ``read_date`` reads when it covers every word, commas aside; else None.
    The tagger tags DATE spans with the same rule."""
    words = surface.lower().replace(",", " ").split()
    width, date = read_date(words)
    return date if width == len(words) else None


def rank_and_truncate(answers: list[Answer], slot_config) -> list[Answer]:
    """Sort by score desc (ties: doc id, then filler), collapse duplicate
    normalized surfaces, compared case-insensitively as scoring matches
    them, keeping the best-ranked, keep the slot's top N (1 for a
    single-valued slot)."""
    ranked = sorted(answers, key=lambda a: (-a.score, a.doc_id, a.filler))
    deduped: list[Answer] = []
    seen: set[str] = set()
    for a in ranked:
        key = a.filler.lower()
        if key in seen:
            continue
        seen.add(key)
        deduped.append(a)
    return deduped[:slot_config.top_n]
