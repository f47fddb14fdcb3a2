"""Answer postprocessing: thresholds with hop/run adjustments, location
disambiguation and inference, date normalization, ranked truncation."""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, replace
from pathlib import Path

log = logging.getLogger(__name__)

HOP1_THRESHOLD_BONUS = 0.1

MONTHS = {
    "january": 1, "february": 2, "march": 3, "april": 4, "may": 5, "june": 6,
    "july": 7, "august": 8, "september": 9, "october": 10, "november": 11,
    "december": 12,
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "jun": 6, "jul": 7, "aug": 8,
    "sep": 9, "sept": 9, "oct": 10, "nov": 11, "dec": 12,
}


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


def _load_tsv_map(path: Path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) == 2:
                out[parts[0].lower()] = parts[1]
    return out


def _load_name_list(path: Path) -> set[str]:
    with open(path, encoding="utf-8") as fh:
        return {line.strip().lower() for line in fh
                if line.strip() and not line.startswith("#")}


def load_location_maps(directory: str | Path) -> LocationMaps:
    d = Path(directory)
    return LocationMaps(
        city_to_state=_load_tsv_map(d / "city_state.tsv"),
        city_to_country=_load_tsv_map(d / "city_country.tsv"),
        state_to_country=_load_tsv_map(d / "state_country.tsv"),
        cities=_load_name_list(d / "cities.txt"),
        states=_load_name_list(d / "states.txt"),
        countries=_load_name_list(d / "countries.txt"),
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


def _year_ok(y: int) -> bool:
    return 1000 <= y <= 2999


def _render(year: int, month: int | None, day: int | None) -> str:
    mm = f"{month:02d}" if month else "XX"
    dd = f"{day:02d}" if day else "XX"
    return f"{year:04d}-{mm}-{dd}"


def _month_number(word: str) -> int | None:
    return MONTHS.get(word.lower().rstrip("."))


def normalize_date(surface: str) -> str | None:
    """Normalize a date surface to YYYY-MM-DD with XX for unknown components.

    Recognized: "Month D, YYYY", "D Month YYYY", "Month YYYY", "YYYY-MM-DD",
    "MM/DD/YYYY" and bare "YYYY".  Anything else yields None.
    """
    parts = [p for p in surface.replace(",", " ").split() if p]
    if len(parts) == 1:
        tok = parts[0]
        m = re.fullmatch(r"(\d{4})-(\d{2})-(\d{2})", tok)
        if m:
            y, mo, d = int(m.group(1)), int(m.group(2)), int(m.group(3))
            if _year_ok(y) and 1 <= mo <= 12 and 1 <= d <= 31:
                return _render(y, mo, d)
            return None
        m = re.fullmatch(r"(\d{1,2})/(\d{1,2})/(\d{4})", tok)
        if m:
            mo, d, y = int(m.group(1)), int(m.group(2)), int(m.group(3))
            if _year_ok(y) and 1 <= mo <= 12 and 1 <= d <= 31:
                return _render(y, mo, d)
            return None
        if re.fullmatch(r"\d{4}", tok) and _year_ok(int(tok)):
            return _render(int(tok), None, None)
        return None
    if len(parts) == 2:
        mo = _month_number(parts[0])
        if mo and re.fullmatch(r"\d{4}", parts[1]) and _year_ok(int(parts[1])):
            return _render(int(parts[1]), mo, None)
        return None
    if len(parts) == 3:
        # Month D YYYY
        mo = _month_number(parts[0])
        if mo and re.fullmatch(r"\d{1,2}", parts[1]) \
                and re.fullmatch(r"\d{4}", parts[2]):
            d, y = int(parts[1]), int(parts[2])
            if _year_ok(y) and 1 <= d <= 31:
                return _render(y, mo, d)
            return None
        # D Month YYYY
        mo = _month_number(parts[1])
        if mo and re.fullmatch(r"\d{1,2}", parts[0]) \
                and re.fullmatch(r"\d{4}", parts[2]):
            d, y = int(parts[0]), int(parts[2])
            if _year_ok(y) and 1 <= d <= 31:
                return _render(y, mo, d)
        return None
    return None


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
