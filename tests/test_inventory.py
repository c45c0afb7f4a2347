"""Tests for fleet parsing, rendering, GLPI import and validation."""

import csv
import dataclasses
import fnmatch
import io
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_db, make_factor
from ecodiag.errors import FleetParseError
from ecodiag.factors import ASSET_CATEGORIES
from ecodiag.inventory import (
    Asset,
    CableBulk,
    ComputeCampaign,
    ExternalServiceEntry,
    Fleet,
    MappingRule,
    ServerRoom,
    csv_rows,
    parse_fleet_csv,
    parse_glpi_export,
    parse_mapping_rules,
    render_fleet_csv,
    validate_fleet,
)
from ecodiag.samples import sample_fleet, sample_fleet_csv
from fleet_strategies import fleets
from randgen import random_db, random_fleet

HEADER = (
    "kind,id,category,quantity,acquisition_year,disposal_year,status,"
    "measured_power_w,vendor_fab_kgco2e,extra"
)


def parse(body: str, year: int = 2019, perimeter: str = "Lab X") -> Fleet:
    return parse_fleet_csv(f"{HEADER}\n{body}", year, perimeter)


class TestParseFleetCsv:
    def test_single_asset_row(self):
        fleet = parse("asset,srv01,server,1,2015,,in_use,350,,")
        assert len(fleet.assets) == 1
        a = fleet.assets[0]
        assert a.id == "srv01"
        assert a.category == "server"
        assert a.quantity == 1
        assert a.acquisition_year == 2015
        assert a.disposal_year is None
        assert a.status == "in_use"
        assert a.measured_power_w == 350.0
        assert a.vendor_fab_transport_kgco2e is None

    def test_empty_body_is_valid(self):
        fleet = parse_fleet_csv("", 2019, "Lab X")
        assert fleet == Fleet("Lab X", 2019)

    def test_header_only_is_valid(self):
        fleet = parse("")
        assert fleet.assets == ()
        assert fleet.perimeter_description == "Lab X"
        assert fleet.reporting_year == 2019

    def test_disposal_before_acquisition_names_both_years(self):
        with pytest.raises(FleetParseError, match="2014.*2015") as exc:
            parse("asset,a1,laptop,1,2015,2014,in_use,,,")
        assert exc.value.row == 2

    def test_bad_header_rejected(self):
        with pytest.raises(FleetParseError, match="expected header"):
            parse_fleet_csv("id,category\n", 2019, "Lab X")

    def test_unknown_kind(self):
        with pytest.raises(FleetParseError, match="unknown kind: 'truck'"):
            parse("truck,t1,,,,,,,,")

    def test_unknown_category(self):
        with pytest.raises(FleetParseError, match="mainframe"):
            parse("asset,a1,mainframe,1,2019,,in_use,,,")

    def test_duplicate_asset_id(self):
        with pytest.raises(FleetParseError, match="duplicate asset id: a1"):
            parse("asset,a1,laptop,1,2019,,in_use,,,\nasset,a1,laptop,1,2019,,in_use,,,")

    def test_field_count(self):
        with pytest.raises(FleetParseError, match="expected 10 fields"):
            parse("asset,a1,laptop")

    def test_room_row(self):
        fleet = parse("room,sr1,,,,,,,,fluid=R410A;leak_kg=0.5;ups_overhead=0.08")
        room = fleet.rooms[0]
        assert room.refrigerant_fluid == "R410A"
        assert room.refrigerant_leak_kg_per_year == 0.5
        assert room.ups_overhead_fraction == 0.08
        assert room.measured_room_kwh_per_year is None

    def test_room_with_meter(self):
        fleet = parse("room,sr1,,,,,,,,room_kwh=5000")
        assert fleet.rooms[0].measured_room_kwh_per_year == 5000.0

    def test_campaign_kwh_row(self):
        fleet = parse("campaign,hpc,,,,,,,,kwh=1500")
        assert fleet.campaigns[0].kwh == 1500.0

    def test_campaign_core_hours_row(self):
        fleet = parse("campaign,hpc,,,,,,,,core_hours=100000;watts_per_core=10;pue=1.5")
        c = fleet.campaigns[0]
        assert (c.core_hours, c.watts_per_core, c.pue) == (100000.0, 10.0, 1.5)

    def test_external_row(self):
        fleet = parse("external,mail,,,,,,,,kgco2e=42;scope=S3;note=provider statement")
        e = fleet.external_services[0]
        assert (e.declared_kgco2e, e.scope_label, e.note) == (42.0, "S3", "provider statement")

    def test_external_requires_value(self):
        with pytest.raises(FleetParseError, match="kgco2e"):
            parse("external,mail,,,,,,,,scope=S3")

    def test_cable_row(self):
        fleet = parse("cable,,cable_cat5,20,,,,,,")
        assert fleet.cable_bulks[0] == CableBulk("cable_cat5", 20)

    def test_cable_rejects_non_cable_category(self):
        with pytest.raises(FleetParseError, match="not a cable category"):
            parse("cable,,laptop,20,,,,,,")

    def test_unknown_extra_key(self):
        with pytest.raises(FleetParseError, match="unknown extra key 'speed'"):
            parse("asset,a1,laptop,1,2019,,in_use,,,speed=9")

    def test_room_requires_empty_asset_columns(self):
        with pytest.raises(FleetParseError, match="must be empty for kind room"):
            parse("room,sr1,server,,,,,,,")

    def test_hour_override_in_extra(self):
        fleet = parse("asset,a1,laptop,1,2019,,in_use,,,hours=continuous")
        assert fleet.assets[0].hour_profile_override == "continuous"

    def test_comments_skipped(self):
        fleet = parse("# a comment\nasset,a1,laptop,1,2019,,in_use,,,")
        assert len(fleet.assets) == 1

    def test_empty_cells_mean_schema_defaults(self):
        fleet = parse("room,sr1,,,,,,,,\ncampaign,hpc,,,,,,,,kwh=5")
        assert fleet.rooms == (ServerRoom("sr1"),)
        assert fleet.campaigns == (ComputeCampaign("hpc", kwh=5.0),)

    def test_required_extra_key_named(self):
        with pytest.raises(FleetParseError, match="field kgco2e is required for kind external") as exc:
            parse("external,mail,,,,,,,,scope=S3")
        assert exc.value.row == 2

    def test_bad_number_names_field_and_row(self):
        with pytest.raises(FleetParseError, match="field leak_kg: not a number: 'lots'") as exc:
            parse("room,sr1,,,,,,,,leak_kg=lots")
        assert exc.value.row == 2

    def test_cable_rejects_extra(self):
        with pytest.raises(FleetParseError, match="field extra must be empty for kind cable"):
            parse("cable,,cable_cat5,3,,,,,,hours=continuous")


_FIELD_LIMIT = csv.field_size_limit()
#: The characters of the boundary words in fleet_strategies that csv treats
#: apart, line breaks, and fields at and just past csv's field size limit.
_CSV_PIECES = (
    '"', "\x00", "\x85", " ", ";", "=", ",", "a", "#", "\r", "\n", "\u2028",
    "x" * _FIELD_LIMIT, "y" * (_FIELD_LIMIT + 1),
)


class TestCsvRows:
    @staticmethod
    def rows(lines):
        """(row, fields) pairs, then (row, None) for a FleetParseError."""
        out = []
        try:
            out.extend(lines)
        except FleetParseError as exc:
            out.append((exc.row, None))
        return out

    @staticmethod
    def one_reader_per_line(text):
        for rownum, raw in enumerate(text.splitlines(), start=1):
            head = raw.lstrip()
            if not head or head[0] == "#":
                continue
            try:
                yield rownum, next(csv.reader([raw]))
            except csv.Error:
                raise FleetParseError("malformed CSV", row=rownum) from None

    @given(st.lists(st.sampled_from(_CSV_PIECES), max_size=10).map("".join))
    @example("a,b" + "y" * _FIELD_LIMIT)
    @example("x" * _FIELD_LIMIT + ",")
    @example('a,"b,c",d\n x ,\x00,"')
    @settings(max_examples=300, deadline=None)
    def test_same_fields_or_error_row_as_csv_reader(self, text):
        assert self.rows(csv_rows(text)) == self.rows(self.one_reader_per_line(text))

    def test_error_keeps_its_message(self):
        with pytest.raises(FleetParseError, match="row 2: malformed CSV: field larger than"):
            list(csv_rows("a,b\n" + "y" * (_FIELD_LIMIT + 1)))


class TestRenderRoundTrip:
    @given(fleet=fleets())
    @settings(max_examples=100)
    def test_parse_render_identity(self, fleet):
        text = render_fleet_csv(fleet)
        parsed = parse_fleet_csv(text, fleet.reporting_year, fleet.perimeter_description)
        assert parsed == fleet

    def test_sample_fleet_round_trips(self):
        fleet = sample_fleet()
        text = render_fleet_csv(fleet)
        assert parse_fleet_csv(text, fleet.reporting_year, fleet.perimeter_description) == fleet

    def test_sample_csv_is_canonical(self):
        text = sample_fleet_csv()
        fleet = parse_fleet_csv(text, 2019, "x")
        assert render_fleet_csv(fleet) == text

    def test_render_omits_defaults(self):
        fleet = Fleet(
            "p", 2019,
            rooms=(ServerRoom("sr1", ups_overhead_fraction=0.1),),
            campaigns=(ComputeCampaign("hpc", kwh=2.0),),
            external_services=(ExternalServiceEntry("mail", 3.0, "S2"),),
        )
        assert render_fleet_csv(fleet).splitlines()[1:] == [
            "room,sr1,,,,,,,,ups_overhead=0.1",
            "campaign,hpc,,,,,,,,kwh=2.0",
            "external,mail,,,,,,,,kgco2e=3.0;scope=S2",
        ]


GLPI_HEADER = "name,type,model,purchase_date,status"
RULES = (
    MappingRule("type", "laptop", "laptop"),
    MappingRule("type", "server", "server"),
    MappingRule("model", "latitude", "laptop"),
)


def glpi(body: str, rules=RULES):
    return parse_glpi_export(f"{GLPI_HEADER}\n{body}", rules, 2019, "Lab X")


class TestParseGlpi:
    def test_substring_match(self):
        fleet, unmapped = glpi("pc-77,Laptop Dell 5400,L5400,2019-05-14,en service")
        assert unmapped == ()
        a = fleet.assets[0]
        assert a.category == "laptop"
        assert a.id == "pc-77"
        assert a.acquisition_year == 2019
        assert a.quantity == 1
        assert a.status == "in_use"

    def test_unmatched_goes_to_unmapped(self):
        fleet, unmapped = glpi("mf1,Mainframe,Z15,2019-01-01,en service")
        assert fleet.assets == ()
        assert len(unmapped) == 1
        assert unmapped[0].reason == "no matching rule"
        assert unmapped[0].record["type"] == "Mainframe"

    def test_first_rule_wins(self):
        rules = (
            MappingRule("type", "server", "server"),
            MappingRule("type", "serv", "network_switch"),
        )
        fleet, _ = glpi("r1,server rack,X,2018-01-01,used", rules)
        assert fleet.assets[0].category == "server"

    def test_glob_pattern(self):
        rules = (MappingRule("name", "wifi*", "wifi_ap"),)
        fleet, unmapped = glpi("wifi-hall,AP,AC200,2018-02-02,en service", rules)
        assert fleet.assets[0].category == "wifi_ap"
        _, unmapped = glpi("hall-wifi,AP,AC200,2018-02-02,en service", rules)
        assert len(unmapped) == 1  # glob anchors at both ends

    def test_status_aliases(self):
        fleet, _ = glpi(
            "a,laptop,L,2018-01-01,stock\n"
            "b,laptop,L,2018-01-01,Réserve\n"
            "c,laptop,L,2018-01-01,In Use\n"
        )
        assert [a.status for a in fleet.assets] == ["stored", "stored", "in_use"]

    def test_unknown_status_defaults_in_use_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            fleet, _ = glpi("a,laptop,L,2018-01-01,cassé")
        assert fleet.assets[0].status == "in_use"
        assert "cassé" in caplog.text

    def test_date_formats(self):
        fleet, unmapped = glpi(
            "a,laptop,L,2018-01-31,used\n"
            "b,laptop,L,14/05/2017,used\n"
            "c,laptop,L,2016,used\n"
            "d,laptop,L,last spring,used\n"
        )
        assert [a.acquisition_year for a in fleet.assets] == [2018, 2017, 2016]
        assert len(unmapped) == 1
        assert "purchase_date" in unmapped[0].reason

    def test_no_record_lost(self):
        body = "\n".join(
            f"pc-{i},{'laptop' if i % 2 else 'Mystery'},M,2018-01-01,used" for i in range(20)
        )
        fleet, unmapped = glpi(body)
        assert len(fleet.assets) + len(unmapped) == 20

    def test_duplicate_names_deduplicated(self):
        fleet, _ = glpi("pc,laptop,L,2018-01-01,used\npc,laptop,L,2019-01-01,used")
        assert [a.id for a in fleet.assets] == ["pc", "pc#2"]

    def test_generated_ids_never_collide(self):
        fleet, _ = glpi(
            "pc,laptop,L,2018-01-01,used\n"
            "pc,laptop,L,2018-01-01,used\n"
            "pc#2,laptop,L,2018-01-01,used\n"
            "pc,laptop,L,2018-01-01,used"
        )
        assert [a.id for a in fleet.assets] == ["pc", "pc#2", "pc#2#2", "pc#3"]

    def test_invalid_name_is_row_error(self):
        with pytest.raises(FleetParseError, match="control characters") as exc:
            glpi("ok,laptop,L,2018-01-01,used\npc\x01,laptop,L,2018-01-01,used")
        assert exc.value.row == 3

    def test_csv_module_rejection_is_row_error(self):
        with pytest.raises(FleetParseError, match="malformed CSV") as exc:
            glpi("ok,laptop,L,2018-01-01,used\npc,lap\rtop,L,2018-01-01,used")
        assert exc.value.row == 3

    def test_missing_column(self):
        with pytest.raises(FleetParseError, match="missing required column"):
            parse_glpi_export("name,type\n", RULES, 2019, "Lab X")

    def test_empty_export(self):
        fleet, unmapped = parse_glpi_export("", RULES, 2019, "Lab X")
        assert fleet.assets == () and unmapped == ()

    def test_header_only_export(self):
        fleet, unmapped = glpi("")
        assert fleet.assets == () and unmapped == ()

    def test_blank_first_line_is_missing_columns(self):
        with pytest.raises(FleetParseError, match="missing required column"):
            parse_glpi_export(f"\n{GLPI_HEADER}\npc,laptop,L,2018-01-01,used\n", RULES, 2019, "Lab X")

    def test_blank_lines_take_no_row_number(self):
        _, unmapped = glpi("\nmf1,Mainframe,Z,2019-01-01,used\n\n\nmf2,Mainframe,Z,2019-01-01,used\n")
        assert [u.row_number for u in unmapped] == [2, 3]

    def test_quoted_field_spanning_lines_is_one_row(self):
        _, unmapped = glpi('mf1,"Main\nframe",Z,2019-01-01,used\nmf2,Mainframe,Z,2019-01-01,used')
        assert [(u.row_number, u.record["type"]) for u in unmapped] == [
            (2, "Main\nframe"), (3, "Mainframe"),
        ]

    def test_short_row_pads_the_record(self):
        _, (u,) = glpi("mf1,Mainframe")
        assert u.record == {
            "name": "mf1", "type": "Mainframe", "model": "", "purchase_date": "", "status": "",
        }

    def test_cells_past_the_header_dropped(self):
        fleet, (u,) = glpi("pc,laptop,L,2018-01-01,used,x\nmf1,Mainframe,Z,2019-01-01,used,x,y")
        assert [a.id for a in fleet.assets] == ["pc"]
        assert u.record == {
            "name": "mf1", "type": "Mainframe", "model": "Z", "purchase_date": "2019-01-01",
            "status": "used",
        }

    def test_duplicated_header_last_column_wins(self):
        text = (
            f"{GLPI_HEADER},type\n"
            "pc,Mainframe,L,2018-01-01,used,laptop\n"
            "mf,laptop,L,2018-01-01,used,Mainframe\n"
            "short,laptop,L,2018-01-01,used\n"
        )
        fleet, unmapped = parse_glpi_export(text, RULES, 2019, "Lab X")
        assert [a.id for a in fleet.assets] == ["pc"]
        assert [(u.row_number, u.record["type"]) for u in unmapped] == [(3, "Mainframe"), (4, "")]

    def test_csv_module_rejection_names_the_record_row(self):
        # The row reported is the number of the record being read, as in
        # every other GLPI message: quoted line breaks and blank lines add nothing.
        for body in (
            'ok,"lap\ntop",L,2018-01-01,used\npc,lap\rtop,L,2018-01-01,used',
            "ok,laptop,L,2018-01-01,used\n\npc,lap\rtop,L,2018-01-01,used",
            "ok,laptop,L,2018-01-01,used\n\n\n\npc,lap\rtop,L,2018-01-01,used",
            "\n\nok,laptop,L,2018-01-01,used\npc,lap\rtop,L,2018-01-01,used",
        ):
            with pytest.raises(FleetParseError, match="malformed CSV") as exc:
                glpi(body)
            assert exc.value.row == 3
        with pytest.raises(FleetParseError, match="malformed CSV") as exc:
            parse_glpi_export("name,ty\rpe\n", RULES, 2019, "Lab X")
        assert exc.value.row == 1


def seed_first_match(rules, record):
    """First-match rule selection as first implemented, kept verbatim as the reference."""
    def matches(self, record):
        value = (record.get(self.match_field) or "").lower()
        pattern = self.pattern.lower()
        if any(ch in pattern for ch in "*?["):
            return fnmatch.fnmatchcase(value, pattern)
        return pattern in value
    return next((r for r in rules if matches(r, record)), None)


# Mixed case, the glob characters (an unbalanced '[' included) and letters
# whose lower case differs in length or form.
MATCH_TEXT = st.text(alphabet="aAbB-. *?[]!İıiIßẞΣσς", max_size=6)
TARGETS = sorted(ASSET_CATEGORIES)


@st.composite
def rules_and_records(draw):
    fields = ("type", "model", "name")
    rules = tuple(
        MappingRule(draw(st.sampled_from(fields)), draw(MATCH_TEXT.filter(bool)), target)
        for target in TARGETS[: draw(st.integers(0, 6))]
    )
    records = draw(st.lists(st.fixed_dictionaries({f: MATCH_TEXT for f in fields}), max_size=8))
    return rules, records


class TestGlpiMatching:
    @given(rules_and_records())
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    def test_import_matches_the_first_matching_rule(self, drawn):
        rules, records = drawn
        expected = [seed_first_match(rules, record) for record in records]
        assert [next((r for r in rules if r.matches(rec)), None) for rec in records] == expected
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(GLPI_HEADER.split(","))
        writer.writerows([r["name"], r["type"], r["model"], "2018-01-01", "used"] for r in records)
        fleet, unmapped = parse_glpi_export(buf.getvalue(), rules, 2019, "Lab X")
        assert [a.category for a in fleet.assets] == [
            r.target_category for r in expected if r is not None
        ]
        assert [(u.row_number, u.record["type"]) for u in unmapped] == [
            (i + 2, rec["type"]) for i, (rec, r) in enumerate(zip(records, expected)) if r is None
        ]


class TestValidateFleet:
    def test_missing_factor_reported(self):
        fleet = Fleet("p", 2019, assets=(Asset("t1", "tablet", 1, 2019),))
        issues = validate_fleet(fleet, make_db(make_factor("laptop")))
        assert [i.severity for i in issues] == ["error"]
        assert issues[0].message == "missing factor: tablet"
        assert issues[0].subject_id == "tablet"

    def test_empty_fleet_no_issues(self):
        assert validate_fleet(Fleet("p", 2019), make_db()) == []

    def test_old_asset_age_warning(self):
        fleet = Fleet("p", 2019, assets=(Asset("srv", "server", 1, 2005, measured_power_w=350.0),))
        issues = validate_fleet(fleet, make_db(make_factor("server", fab=1000.0)))
        assert [i.severity for i in issues] == ["warning"]
        assert "asset age 14 years" in issues[0].message

    def test_age_threshold_configurable(self):
        fleet = Fleet("p", 2019, assets=(Asset("srv", "server", 1, 2005, measured_power_w=1.0),))
        db = make_db(make_factor("server"))
        assert validate_fleet(fleet, db, age_warning_years=20) == []

    def test_asset_outside_the_reporting_year_warned(self):
        fleet = Fleet(
            "p", 2019,
            assets=(
                Asset("gone", "laptop", 1, 2012, disposal_year=2018),
                Asset("kept", "laptop", 1, 2012, disposal_year=2019),
                Asset("early", "laptop", 1, 2020),
                Asset("now", "laptop", 1, 2019),
            ),
        )
        issues = validate_fleet(fleet, make_db(make_factor()))
        assert [(i.severity, i.subject_id, i.message) for i in issues] == [
            ("warning", "gone",
             "disposed of in 2018, before reporting year 2019: a full year of usage is still charged"),
            ("warning", "early",
             "acquired in 2020, after reporting year 2019: a full year of usage is still charged"),
        ]

    def test_unknown_fluid(self):
        fleet = Fleet(
            "p", 2019,
            rooms=(ServerRoom("sr", refrigerant_fluid="R999", refrigerant_leak_kg_per_year=1.0),),
        )
        issues = validate_fleet(fleet, make_db())
        assert issues == [
            type(issues[0])("error", "sr", "unknown refrigerant fluid: R999")
        ]

    def test_campaign_without_energy_spec(self):
        fleet = Fleet("p", 2019, campaigns=(ComputeCampaign("c1", core_hours=10.0),))
        issues = validate_fleet(fleet, make_db())
        assert issues[0].severity == "error"
        assert "neither kwh" in issues[0].message

    def test_zero_power_warning(self):
        fleet = Fleet("p", 2019, assets=(Asset("u1", "ups", 1, 2018),))
        issues = validate_fleet(fleet, make_db(make_factor("ups", power=0.0)))
        assert [i.severity for i in issues] == ["warning"]
        assert "zero-power" in issues[0].message

    def test_no_zero_power_warning_when_measured(self):
        fleet = Fleet("p", 2019, assets=(Asset("u1", "ups", 1, 2018, measured_power_w=800.0),))
        assert validate_fleet(fleet, make_db(make_factor("ups", power=0.0))) == []

    def test_clean_fleet_with_complete_db(self, sample_fleet, sample_db):
        issues = validate_fleet(sample_fleet, sample_db)
        assert all(i.severity == "warning" for i in issues)

    def test_randomized_fleets_have_no_errors_against_complete_db(self):
        # A database covering every category and every known fluid never
        # produces error-severity issues for well-formed fleets.
        rng = random.Random(99)
        for _ in range(200):
            db = random_db(rng)
            fleet = random_fleet(rng)
            errors = [i for i in validate_fleet(fleet, db) if i.severity == "error"]
            assert errors == [], errors


class TestDomainInvariants:
    def test_quantity_must_be_positive(self):
        with pytest.raises(ValueError, match="quantity"):
            Asset("a", "laptop", 0, 2019)

    def test_status_checked(self):
        with pytest.raises(ValueError, match="status"):
            Asset("a", "laptop", 1, 2019, status="retired")

    def test_bulk_category_not_an_asset(self):
        with pytest.raises(ValueError, match="non-asset"):
            Asset("a", "cable_cat5", 1, 2019)

    def test_asset_is_frozen(self):
        asset = Asset("a", "laptop", 1, 2019)
        with pytest.raises(dataclasses.FrozenInstanceError):
            asset.quantity = 2
        assert asset.quantity == 1

    def test_replace_still_checks_the_years(self):
        asset = Asset("a", "laptop", 1, 2015, disposal_year=2018)
        assert dataclasses.replace(asset, acquisition_year=2016).acquisition_year == 2016
        with pytest.raises(ValueError, match="earlier than acquisition_year 2019"):
            dataclasses.replace(asset, acquisition_year=2019)

    def test_asset_equality_and_hash(self):
        a, b = Asset("a", "laptop", 2, 2019), Asset("a", "laptop", 2, 2019)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != dataclasses.replace(a, quantity=3)
        assert [f.name for f in dataclasses.fields(Asset)][:4] == [
            "id", "category", "quantity", "acquisition_year"
        ]

    def test_room_leak_requires_fluid(self):
        with pytest.raises(ValueError, match="refrigerant_fluid required"):
            ServerRoom("sr", refrigerant_leak_kg_per_year=0.5)

    def test_ups_fraction_bounded(self):
        with pytest.raises(ValueError, match="ups_overhead_fraction"):
            ServerRoom("sr", ups_overhead_fraction=1.5)

    def test_pue_at_least_one(self):
        with pytest.raises(ValueError, match="pue"):
            ComputeCampaign("c", kwh=1.0, pue=0.9)

    def test_scope_label_checked(self):
        with pytest.raises(ValueError, match="scope_label"):
            ExternalServiceEntry("x", 1.0, "S1")

    def test_perimeter_must_be_non_empty(self):
        with pytest.raises(ValueError, match="perimeter"):
            Fleet("  ", 2019)

    def test_fleet_rejects_duplicate_room_ids(self):
        with pytest.raises(ValueError, match="duplicate room id"):
            Fleet("p", 2019, rooms=(ServerRoom("sr"), ServerRoom("sr")))

    def test_mapping_rule_fields(self):
        with pytest.raises(ValueError, match="match_field"):
            MappingRule("serial", "x", "laptop")
        with pytest.raises(ValueError, match="non-asset"):
            MappingRule("type", "x", "compute_campaign")


class TestMappingRulesFile:
    def test_parse_rules(self):
        rules = parse_mapping_rules("# c\ntype,laptop,laptop\nmodel,latitude,laptop\n")
        assert len(rules) == 2
        assert rules[0] == MappingRule("type", "laptop", "laptop")

    def test_bad_field_count(self):
        with pytest.raises(FleetParseError, match="expected 3 fields"):
            parse_mapping_rules("type,laptop\n")

    def test_bad_target(self):
        with pytest.raises(FleetParseError, match="unknown or non-asset"):
            parse_mapping_rules("type,x,mainframe\n")
