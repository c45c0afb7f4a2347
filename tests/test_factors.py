"""Tests for the factor database: taxonomy, parsing, ranking, merging."""

import csv
import unicodedata

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_db, make_factor, make_source
from ecodiag.errors import FactorParseError, MissingFactorError, UnknownFluidError
from ecodiag.factors import (
    ASSET_CATEGORIES,
    CATEGORIES,
    GROUPS,
    FactorDatabase,
    GwpEntry,
    SourceMeta,
    category,
    check_text_field,
    gwp_value,
    load_factor_db,
    lookup_factor,
    merge_factors,
    reliability_rank,
    render_factor_file,
)
from ecodiag.samples import SAMPLE_FACTOR_FILE
from fleet_strategies import factor_databases, source_metas
from seed_factor_loader import seed_load_factor_db

LAPTOP_ROW = "laptop,156.0,2.5,30,0.30,sample-base,2019,public_base,true,false"
GRID_ROW = "grid_factor_kgco2e_per_kwh,0.1"


class TestTaxonomy:
    def test_closed_taxonomy_size(self):
        assert len(CATEGORIES) == 25

    def test_groups_partition(self):
        expected = {
            "office": {
                "desktop", "laptop", "tablet", "screen", "keyboard", "mouse",
                "office_printer", "usb_key", "external_hdd",
            },
            "telephony": {"ip_phone", "mobile_phone"},
            "server_room": {
                "server", "workstation_24x7", "network_switch", "router",
                "storage_array", "ups", "air_conditioner",
            },
            "shared": {"videoprojector", "visio_system", "wifi_ap", "multifunction_copier"},
            "compute": {"compute_campaign"},
            "bulk": {"cable_cat5", "cable_hdmi"},
        }
        for group in GROUPS:
            assert {c.id for c in CATEGORIES.values() if c.group == group} == expected[group]

    def test_scope_masks(self):
        assert category("air_conditioner").scope_mask == {"S1", "S2"}
        assert category("ups").scope_mask == {"S2"}
        assert category("compute_campaign").scope_mask == {"S2"}
        assert category("cable_cat5").scope_mask == {"S3"}
        assert category("cable_hdmi").scope_mask == {"S3"}
        for cat_id in ("server", "workstation_24x7", "network_switch", "router", "storage_array"):
            assert category(cat_id).scope_mask == {"S2", "S3"}
        for c in CATEGORIES.values():
            if c.group in ("office", "telephony", "shared"):
                assert c.scope_mask == {"S2", "S3"}

    def test_hour_profiles(self):
        for c in CATEGORIES.values():
            if c.group == "office":
                assert c.hour_profile_default == "work_year"
            elif c.group == "server_room":
                assert c.hour_profile_default == "continuous"
        assert category("ip_phone").hour_profile_default == "continuous"
        assert category("wifi_ap").hour_profile_default == "continuous"
        assert category("mobile_phone").hour_profile_default == "work_year"
        assert category("multifunction_copier").hour_profile_default == "work_year"
        assert category("videoprojector").hour_profile_default == "work_year"
        assert category("visio_system").hour_profile_default == "work_year"
        assert category("compute_campaign").hour_profile_default == "none"
        assert category("cable_cat5").hour_profile_default == "none"

    def test_asset_categories_exclude_bulk_and_compute(self):
        assert "cable_cat5" not in ASSET_CATEGORIES
        assert "compute_campaign" not in ASSET_CATEGORIES
        assert "laptop" in ASSET_CATEGORIES

    def test_unknown_category_raises(self):
        with pytest.raises(ValueError, match="mainframe"):
            category("mainframe")


class TestLoadFactorDb:
    def test_single_laptop_row(self):
        db = load_factor_db(f"[factors]\n{LAPTOP_ROW}\n")
        assert len(db.factors) == 1
        f = db.factors[0]
        assert f.category == "laptop"
        assert f.fab_transport_kgco2e == 156.0
        assert f.eol_kgco2e == 2.5
        assert f.typical_power_w == 30.0
        assert f.rel_uncertainty == 0.30
        assert f.source == SourceMeta("sample-base", 2019, "public_base", True, False)

    def test_empty_sections_keep_grid(self):
        db = load_factor_db("[factors]\n[gwp]\n[grid]\ngrid_factor_kgco2e_per_kwh,0.119\n")
        assert db.factors == ()
        assert db.gwp_table == ()
        assert db.default_grid_factor_kgco2e_per_kwh == 0.119

    def test_missing_grid_section_defaults(self):
        db = load_factor_db("[factors]\n")
        assert db.default_grid_factor_kgco2e_per_kwh == 0.119

    def test_unknown_category_rejected(self):
        bad = LAPTOP_ROW.replace("laptop", "mainframe", 1)
        with pytest.raises(FactorParseError, match="mainframe") as exc:
            load_factor_db(f"[factors]\n{bad}\n")
        assert exc.value.line == 2

    def test_negative_value_rejected(self):
        bad = LAPTOP_ROW.replace("156.0", "-156.0")
        with pytest.raises(FactorParseError, match="fab_transport"):
            load_factor_db(f"[factors]\n{bad}\n")

    def test_field_count_reported_with_line(self):
        with pytest.raises(FactorParseError, match="expected 10 fields") as exc:
            load_factor_db("# header\n[factors]\nlaptop,1.0\n")
        assert exc.value.line == 3

    def test_bad_boolean(self):
        bad = LAPTOP_ROW.replace("true", "yes")
        with pytest.raises(FactorParseError, match="true|false"):
            load_factor_db(f"[factors]\n{bad}\n")

    def test_duplicate_gwp_fluid(self):
        text = "[gwp]\nR410A,2088.0\nR410A,2000.0\n"
        with pytest.raises(FactorParseError, match="duplicate GWP fluid: R410A") as exc:
            load_factor_db(text)
        assert exc.value.line == 3

    def test_data_before_section(self):
        with pytest.raises(FactorParseError, match="before any section"):
            load_factor_db(f"{LAPTOP_ROW}\n")

    def test_unknown_section(self):
        with pytest.raises(FactorParseError, match=r"unknown section \[power\]"):
            load_factor_db("[power]\n")

    def test_comments_and_blanks_ignored(self):
        text = f"# top\n\n[factors]\n# mid\n{LAPTOP_ROW}\n\n"
        assert len(load_factor_db(text).factors) == 1

    def test_grid_must_be_positive(self):
        with pytest.raises(FactorParseError, match="> 0"):
            load_factor_db("[grid]\ngrid_factor_kgco2e_per_kwh,0\n")

    def test_nan_rejected(self):
        bad = LAPTOP_ROW.replace("156.0", "nan")
        with pytest.raises(FactorParseError):
            load_factor_db(f"[factors]\n{bad}\n")

    @pytest.mark.parametrize(
        "text, line, match",
        [
            (f"[grid]\n{GRID_ROW}\n\n{GRID_ROW}\n", 4, "duplicate grid"),
            ("[grid]\ngrid,0.2\n", 2, "grid_factor_kgco2e_per_kwh"),
            ("[gwp]\nR32,675,1\n", 2, "expected 2 fields, got 3"),
            (f"[factors]\n{LAPTOP_ROW.replace('2019', '2019.5')}\n", 2,
             "field source_year: not an integer: '2019.5'"),
            ("[gwp]\nR\x0032,675\n", 2, "control characters"),
            ("[factors]\n[a,b]\n", 2, None),
        ],
    )
    def test_error_names_its_line(self, text, line, match):
        with pytest.raises(FactorParseError, match=match) as exc:
            load_factor_db(text)
        assert exc.value.line == line

    def test_fluid_starting_with_hash_rejected_with_line(self):
        with pytest.raises(FactorParseError, match="must not start with '#'") as exc:
            load_factor_db('[gwp]\nR410A,2088\n"#R32",675\n')
        assert exc.value.line == 3

    def test_quoted_header_is_a_header(self):
        # A header is a one-cell row, recognised after CSV unquoting.
        db = load_factor_db('"[gwp]"\nR32,675\n')
        assert db.gwp_table == (GwpEntry("R32", 675.0),)


class TestReliabilityRank:
    def test_peer_reviewed_and_neutral(self):
        assert reliability_rank(make_source(kind="public_base", neutral=True, peer=True)) == 6

    def test_all_zero(self):
        assert reliability_rank(make_source(kind="vendor_fiche", neutral=False, peer=False)) == 0

    def test_internal_measure_bonus(self):
        assert reliability_rank(make_source(kind="internal_measure", neutral=False, peer=False)) == 1
        assert reliability_rank(make_source(kind="internal_measure", neutral=True, peer=True)) == 7

    @given(a=source_metas(), b=source_metas())
    def test_total_order(self, a, b):
        key_a = (reliability_rank(a), a.year, a.name)
        key_b = (reliability_rank(b), b.year, b.name)
        assert (key_a < key_b) + (key_a == key_b) + (key_a > key_b) == 1


class TestMergeFactors:
    def test_highest_rank_wins(self):
        strong = make_factor(fab=100.0, source=make_source(name="s", neutral=True, peer=True))
        weak = make_factor(fab=200.0, source=make_source(name="w", kind="vendor_fiche", neutral=False))
        merged = merge_factors(make_db(weak, strong))
        assert merged.factors == (strong,)

    def test_recent_year_breaks_tie(self):
        older = make_factor(fab=1.0, source=make_source(year=2015))
        newer = make_factor(fab=2.0, source=make_source(year=2019))
        assert merge_factors(make_db(older, newer)).factors == (newer,)

    def test_name_breaks_remaining_tie(self):
        a = make_factor(fab=1.0, source=make_source(name="a"))
        b = make_factor(fab=2.0, source=make_source(name="b"))
        assert merge_factors(make_db(b, a)).factors == (a,)

    def test_one_factor_per_category_unchanged(self):
        laptop = make_factor("laptop")
        server = make_factor("server", fab=1000.0)
        merged = merge_factors(make_db(laptop, server))
        assert set(merged.factors) == {laptop, server}

    @given(db=factor_databases())
    def test_idempotent(self, db):
        once = merge_factors(db)
        assert merge_factors(once) == once

    @given(db=factor_databases(), seed=st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_winner_invariant_under_permutation(self, db, seed):
        shuffled = list(db.factors)
        seed.shuffle(shuffled)
        permuted = FactorDatabase(
            tuple(shuffled), db.gwp_table, db.default_grid_factor_kgco2e_per_kwh
        )
        assert merge_factors(permuted) == merge_factors(db)


class TestLookup:
    def test_present(self):
        laptop = make_factor("laptop")
        assert lookup_factor(make_db(laptop), "laptop") is laptop

    def test_absent_names_category(self):
        with pytest.raises(MissingFactorError, match="missing factor: tablet"):
            lookup_factor(make_db(make_factor("laptop")), "tablet")

    def test_unmerged_database_returns_first_row(self):
        first, second = make_factor(fab=100.0), make_factor(fab=200.0)
        db = make_db(make_factor("desktop"), first, second)
        assert lookup_factor(db, "laptop") is first

    def test_lookup_after_merge_returns_winner(self):
        strong = make_factor(fab=100.0, source=make_source(name="s", peer=True))
        weak = make_factor(fab=200.0, source=make_source(name="w", neutral=False))
        merged = merge_factors(make_db(weak, strong))
        assert lookup_factor(merged, "laptop") == strong

    def test_gwp_value(self):
        table = (GwpEntry("R410A", 2088.0),)
        assert gwp_value(table, "R410A") == 2088.0
        with pytest.raises(UnknownFluidError, match="R32"):
            gwp_value(table, "R32")


class TestRoundTrip:
    @given(db=factor_databases())
    @settings(max_examples=80)
    def test_load_render_identity(self, db):
        assert load_factor_db(render_factor_file(db)) == db

    def test_sample_file_round_trips(self):
        db = merge_factors(load_factor_db(SAMPLE_FACTOR_FILE))
        assert load_factor_db(render_factor_file(db)) == db

    @given(fluid=st.text(alphabet="#R32 \xa0\"[],", min_size=1, max_size=5))
    @settings(max_examples=200, derandomize=True, database=None)
    def test_every_accepted_fluid_round_trips(self, fluid):
        # A fluid starting with '#' would be written as a comment line and
        # vanish on reload; GwpEntry refuses it, so every fluid it accepts survives.
        try:
            entry = GwpEntry(fluid, 675.0)
        except ValueError:
            return
        db = make_db(gwps=(entry, GwpEntry("R410A", 2088.0)))
        assert load_factor_db(render_factor_file(db)) == db


#: Lines, cells and rows of factor files: valid rows and near misses of each rule.
_LINES = (
    "[factors]", "[gwp]", "[grid]", " [gwp] ", "[power]", "[a,b]", "[factors",
    "# comment", "  # indented", "", "   ", '"unterminated', "a\x00b",
)
_CELLS = (
    "", "x", "nan", "inf", "-1", "0", "1.5", "2019", "2019.5", "1980", " 7 ", "1_0",
    "true", "false", "yes", "laptop", "mainframe", "vendor_fiche", "blog",
    "R32", " R32", "#R32", '"#R32"', '"q,uoted"', "grid_factor_kgco2e_per_kwh",
)
_ROWS = {
    "[factors]": LAPTOP_ROW.split(","),
    "[gwp]": ["R410A", "2088"],
    "[grid]": GRID_ROW.split(","),
}


def _quoted_header(line: str) -> bool:
    """A line that is a header only once its CSV quotes are removed."""
    try:
        cells = next(csv.reader([line]), [])
    except csv.Error:
        return False
    head = cells[0].strip() if len(cells) == 1 else ""
    bare = line.strip()
    return head[:1] == "[" and head[-1:] == "]" and not (bare[:1] == "[" and bare[-1:] == "]")


@st.composite
def factor_rows(draw, header: str) -> str:
    """A row of the section, one in four with a cell replaced, added or dropped."""
    cells = list(_ROWS[header])
    if header == "[gwp]":
        cells[0] = draw(st.sampled_from(("R410A", "R32", "R404A", "R134a", "R407C")))
    change = draw(st.integers(0, 11))
    if change in (0, 1):
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(_CELLS))
    elif change == 2:
        cells = cells[:-1] if draw(st.booleans()) else cells + [draw(st.sampled_from(_CELLS))]
    return ",".join(cells)


@st.composite
def factor_texts(draw):
    """Sections of rows, with a near-miss line one time in six."""
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        header = draw(st.sampled_from(tuple(_ROWS)))
        for i in range(draw(st.integers(1, 4))):
            near_miss = draw(st.integers(0, 5)) == 0
            if near_miss:
                lines.append(draw(st.sampled_from(_LINES)))
            else:
                lines.append(draw(factor_rows(header)) if i else header)
    assume(not any(map(_quoted_header, lines)))
    return draw(st.sampled_from(("\n", "\r\n"))).join(lines)


def _outcome(load, text):
    try:
        return load(text)
    except FactorParseError as exc:
        return exc


class TestAgainstSeedLoader:
    @given(factor_texts())
    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    def test_same_database_or_same_error_line(self, text):
        seed, table = _outcome(seed_load_factor_db, text), _outcome(load_factor_db, text)
        assert type(table) is type(seed)
        if isinstance(seed, FactorParseError):
            assert table.line == seed.line
        else:
            assert table == seed


class TestSampleFile:
    def test_covers_every_usable_category(self):
        # Campaigns declare energy directly, so compute_campaign needs no factor.
        db = merge_factors(load_factor_db(SAMPLE_FACTOR_FILE))
        assert {f.category for f in db.factors} == set(CATEGORIES) - {"compute_campaign"}

    def test_grid_and_gwp(self):
        db = load_factor_db(SAMPLE_FACTOR_FILE)
        assert db.default_grid_factor_kgco2e_per_kwh == 0.119
        assert gwp_value(db.gwp_table, "R410A") == 2088.0


class TestInvariants:
    def test_rejects_uncertainty_above_one(self):
        with pytest.raises(ValueError, match="rel_uncertainty"):
            make_factor(unc=1.5)

    def test_rejects_year_before_1990(self):
        with pytest.raises(ValueError, match="1990"):
            make_source(year=1980)

    def test_rejects_empty_source_name(self):
        with pytest.raises(ValueError, match="non-empty"):
            make_source(name="")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            make_source(kind="blog_post")

    def test_db_rejects_duplicate_fluid(self):
        with pytest.raises(ValueError, match="duplicate GWP fluid"):
            make_db(gwps=(GwpEntry("R32", 675.0), GwpEntry("R32", 600.0)))

    @pytest.mark.parametrize("fluid", ["#R32", " #R32", "#"])
    def test_rejects_fluid_starting_with_hash(self, fluid):
        with pytest.raises(ValueError, match="must not start with '#'"):
            GwpEntry(fluid, 675.0)

    def test_db_rejects_nonpositive_grid(self):
        with pytest.raises(ValueError, match="grid"):
            make_db(grid=0.0)

    def test_text_check_matches_unicode_categories_on_every_code_point(self):
        # The rule is Unicode categories Cc, Cs, Zl and Zp. One call on all
        # accepted code points rules out false alarms; one call per rejected
        # code point rules out misses.
        unsafe = ("Cc", "Cs", "Zl", "Zp")
        rejected = [cp for cp in range(0x110000) if unicodedata.category(chr(cp)) in unsafe]
        assert len(rejected) == 65 + 2048 + 2
        everything = "".join(map(chr, range(0x110000)))
        check_text_field(everything.translate(dict.fromkeys(rejected)), "t")
        for c in map(chr, rejected):
            with pytest.raises(ValueError, match="control characters"):
                check_text_field(f"a{c}b", "t")


@pytest.mark.parametrize("build, error, message", [
    (lambda: GwpEntry("", 675.0), ValueError, "fluid token must be non-empty"),
    (lambda: load_factor_db("[gwp]\nR410A,2088\n,675\n"), FactorParseError,
     "line 3: fluid token must be non-empty"),
], ids=["gwp fluid", "gwp fluid row"])
def test_boundary_checks(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
