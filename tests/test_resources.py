"""The one TSV reader, and every tab-separated loader that goes through it."""

import re

import pytest

from slotfill.classify import load_patterns
from slotfill.extract import Gazetteers
from slotfill.mentions import load_coref_resource
from slotfill.pipeline import load_gold, read_answers
from slotfill.postprocess import load_location_maps
from slotfill.query import load_alias_table, load_nicknames
from slotfill.resources import read_tsv
from slotfill.traindata import load_kb_instances, load_triggers

LOCATION_FILES = ("city_state.tsv", "city_country.tsv", "state_country.tsv",
                  "cities.txt", "states.txt", "countries.txt")
GAZETTEER_FILES = ("per.txt", "org.txt", "gpe.txt", "title.txt", "charge.txt",
                   "religion.txt", "cause_of_death.txt")


class TestReadTsv:
    def test_skipped_lines_still_count(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("# header\n\na\tb\n   \n\t\n#x\ty\n a \t#b\n")
        assert list(read_tsv(p, 2)) == [(3, ["a", "b"]), (7, [" a ", "#b"])]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("")
        assert list(read_tsv(p, 3)) == []

    @pytest.mark.parametrize("width, line, got", [
        (2, "a", 1), (2, "a\tb\tc", 3), (2, "a\tb\t", 3), (1, "a\tb", 2)])
    def test_wrong_width_names_file_and_line(self, tmp_path, width, line, got):
        p = tmp_path / "t.tsv"
        p.write_text(f"# c\n\n  \n{line}\n")
        with pytest.raises(ValueError) as err:
            list(read_tsv(p, width))
        assert str(err.value) == (f"{p}: line 4: expected {width} "
                                  f"tab-separated fields, got {got}")

    def test_list_file(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("Dr.\n# not an entry\n\n New York \n")
        assert list(read_tsv(p, 1)) == [(1, ["Dr."]), (4, [" New York "])]

    def test_empty_kb_instance_field(self, tmp_path):
        p = tmp_path / "kb.tsv"
        p.write_text("Karl Braun\tper:location_of_birth\tDresden\n"
                     "Karl Braun\t\tDresden\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: "
                           r"line 2: empty field$"):
            load_kb_instances(p)


def _in_dir(loader, names):
    """A loader of a directory holding ``names``, called with one of them."""
    def load(path):
        for name in names:
            (path.parent / name).touch()
        return loader(path.parent)
    return load


# (loader, file name, width, a good line)
LOADERS = {
    "patterns": (load_patterns, "patterns.tsv", 2,
                 "per:age\t<ENTITY> is <FILLER>"),
    "triggers": (load_triggers, "triggers.tsv", 2, "per:age\tborn"),
    "kb_instances": (load_kb_instances, "kb.tsv", 3,
                     "Karl Braun\tper:location_of_birth\tDresden"),
    "alias_table": (load_alias_table, "alias_table.tsv", 3,
                    "Karl Braun\tK. Braun\tPER"),
    "nicknames": (load_nicknames, "nicknames.tsv", 2, "robert\tbob"),
    "coref": (load_coref_resource, "coref.tsv", 7,
              "d1\tc1\t0\t0\t2\tproper\tBarack Obama"),
    "gold": (load_gold, "gold.tsv", 4, "q1\t0\tper:age\t42"),
    "answers": (read_answers, "answers.tsv", 6,
                "q1\t0\tper:age\t42\td1\t0.5"),
    "location_map": (_in_dir(load_location_maps, LOCATION_FILES),
                     "city_state.tsv", 2, "Munich\tBavaria"),
    "location_list": (_in_dir(load_location_maps, LOCATION_FILES),
                      "cities.txt", 1, "Munich"),
    "gazetteer": (_in_dir(Gazetteers.from_dir, GAZETTEER_FILES), "per.txt", 1,
                  "Karl Braun"),
}


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_every_loader_refuses_a_line_of_the_wrong_width(tmp_path, name):
    """Line 1 loads; line 4, the same line with one more field, raises."""
    loader, file_name, width, good = LOADERS[name]
    p = tmp_path / file_name
    p.write_text(f"{good}\n# comment\n\n{good}\textra\n")
    with pytest.raises(ValueError) as err:
        loader(p)
    assert str(err.value) == (f"{p}: line 4: expected {width} "
                              f"tab-separated fields, got {width + 1}")

