"""Tests for fleet parsing, rendering, GLPI import and validation."""

import contextlib
import csv
import dataclasses
import fnmatch
import io
import math
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from conftest import make_db, make_factor
from ecodiag import factors, inventory
from ecodiag.errors import FleetParseError
from ecodiag.factors import ASSET_CATEGORIES, text_lines
from ecodiag.inventory import (
    FLEET_CSV_COLUMNS,
    FLEET_SCHEMA,
    Asset,
    CableBulk,
    ComputeCampaign,
    ExternalServiceEntry,
    Fleet,
    MappingRule,
    ServerRoom,
    csv_rows,
    parse_fleet_csv,
    parse_fleet_row,
    parse_glpi_export,
    parse_mapping_rules,
    render_fleet_csv,
    validate_fleet,
)
from ecodiag.report import ScenarioAction, parse_actions_csv
from ecodiag.samples import sample_fleet, sample_fleet_csv
from fleet_strategies import _WORDS, boundary_texts, fleets
from randgen import random_asset, random_campaign, random_db, random_fleet, random_room
from seed_fleet_row import seed_parse_fleet_row
from seed_glpi import seed_parse_glpi_export

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


def row_walk_parse(text: str, reporting_year: int, perimeter_description: str) -> Fleet:
    """parse_fleet_csv as it was before block conversion, kept verbatim as the
    reference, on the row converter kept in seed_fleet_row."""
    rows: dict[str, list] = {kind: [] for kind in FLEET_SCHEMA}
    seen_ids = {kind: set() for kind in ("asset", "room", "campaign", "external")}
    lines = csv_rows(text)
    header = next(lines, None)
    if header is not None and header[1] != FLEET_CSV_COLUMNS:
        raise FleetParseError(f"expected header {','.join(FLEET_CSV_COLUMNS)!r}", row=header[0])
    for rownum, fields in lines:
        if len(fields) != len(FLEET_CSV_COLUMNS):
            raise FleetParseError(
                f"expected {len(FLEET_CSV_COLUMNS)} fields, got {len(fields)}", row=rownum
            )
        kind, rest = fields[0], fields[1:]
        ids = seen_ids.get(kind)
        if ids is not None:
            if rest[0] in ids:
                raise FleetParseError(f"duplicate {kind} id: {rest[0]}", row=rownum)
            ids.add(rest[0])
        item = seed_parse_fleet_row(kind, rest, rownum)
        rows[kind].append(item)

    collections = {attr: tuple(rows[kind]) for kind, (_, attr, _) in FLEET_SCHEMA.items()}
    try:
        return Fleet(perimeter_description, reporting_year, **collections)
    except ValueError as exc:
        raise FleetParseError(str(exc)) from None


def outcome(parse, text: str):
    """The fleet parsed, or the type, text and row of the FleetParseError raised."""
    try:
        return parse(text, 2019, "Lab X")
    except FleetParseError as exc:
        return type(exc), str(exc), exc.row


@st.composite
def fleet_texts_with_one_word(draw):
    """A rendered random fleet with one cell replaced by a boundary word, its
    body lines shuffled on some draws so that blocks mix kinds."""
    fleet = random_fleet(random.Random(draw(st.integers(0, 2**32))), max_entries=12)
    lines = render_fleet_csv(fleet).splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    cells = lines[i].split(",")
    cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(_WORDS))
    lines[i] = ",".join(cells)
    if draw(st.booleans()):
        lines[1:] = draw(st.permutations(lines[1:]))
    return "\n".join(lines)


#: Edits of one asset row that each break exactly one Asset rule, or sit on
#: the edge of one: (FLEET_CSV_COLUMNS index, new cell, or None for the
#: acquisition year minus one).
_RULE_EDGES = [
    *((i, text) for i in (7, 8) for text in ("nan", "inf", "-inf", "-0.0")),
    *((3, str(n)) for n in (0, 2**53, 2**53 + 1)),
    (5, None),
    (6, "retired"), (2, "mainframe"), (2, "cable_cat5"), (9, "hours=weekly"),
    *((1, word) for word in ("", "pc\x00", "pc\x85", "pc\u2028")),
]


@st.composite
def fleet_texts_breaking_one_rule(draw):
    """A rendered fleet of 60 to 150 random assets, so several blocks, with one
    row edited by one of _RULE_EDGES."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    assets = tuple(random_asset(rng, i, 2019) for i in range(draw(st.integers(60, 150))))
    lines = render_fleet_csv(Fleet("p", 2019, assets=assets)).splitlines()
    i = draw(st.integers(1, len(assets)))
    column, text = draw(st.sampled_from(_RULE_EDGES))
    cells = lines[i].split(",")
    cells[column] = str(int(cells[4]) - 1) if text is None else text
    lines[i] = ",".join(cells)
    return "\n".join(lines)


@st.composite
def untidy_valid_fleet_texts(draw):
    """A valid rendered fleet of 305 to 378 rows of every kind in shuffled
    order, so more than one block at the default size and blocks that mix
    kinds, with '#' comments (one with nine commas), blank lines and quoted
    cells among them and \r\n line ends."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    fleet = Fleet(
        "Lab X", 2019,
        assets=tuple(random_asset(rng, i, 2019) for i in range(rng.randint(300, 360))),
        rooms=tuple(random_room(rng, i) for i in range(rng.randint(1, 10))),
        campaigns=tuple(random_campaign(rng, i) for i in range(rng.randint(1, 5))),
        external_services=(ExternalServiceEntry("x0", 12.5, "S3", "a note"),),
        cable_bulks=(CableBulk("cable_cat5", 3), CableBulk("cable_hdmi", 0)),
    )
    header, *rows = render_fleet_csv(fleet).splitlines()
    rng.shuffle(rows)
    lines = [header]
    for row in rows:
        lines += rng.choice(([], [], ["# a comment"], ["#" + ",x" * 9], [""], ["  "]))
        cells = row.split(",")
        if rng.random() < 0.1:
            i = rng.randrange(len(cells))
            cells[i] = f'"{cells[i]}"'
        lines.append(",".join(cells))
    return "\r\n".join(lines) + "\r\n"


def asset_rows(n: int) -> list[str]:
    return [f"asset,a{i},laptop,1,2015,,in_use,,," for i in range(n)]


def body(*rows: str) -> str:
    return "\n".join([HEADER, *rows])


_BAD_DATE = "asset,d,laptop,1,2018-01-01,,in_use,,,"


class TestBlockParse:
    """parse_fleet_csv converts blocks of rows a column at a time; it must
    agree with the one-row-at-a-time walk on every fleet and every error."""

    @staticmethod
    def check_against_row_walk(text):
        expected = outcome(row_walk_parse, text)
        for size in (1, 2, 3, inventory._BLOCK_ROWS):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(inventory, "_BLOCK_ROWS", size)
                assert outcome(parse_fleet_csv, text) == expected

    @given(boundary_texts(HEADER))
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    def test_boundary_texts_agree_with_row_walk(self, text):
        self.check_against_row_walk(text)

    @given(fleet_texts_with_one_word())
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    def test_fleets_with_one_bad_word_agree_with_row_walk(self, text):
        self.check_against_row_walk(text)

    @given(fleet_texts_breaking_one_rule())
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    def test_fleets_breaking_one_asset_rule_agree_with_row_walk(self, text):
        self.check_against_row_walk(text)

    @pytest.mark.parametrize("text,row,message", [
        pytest.param(
            body("asset,a0,laptop,1,2015,,in_use,,,", "asset,a1,laptop,x,2015,,in_use,,,",
                 "asset,a2,laptop,1,2015,,in_use,,,", "gadget,g1,,,,,,,,"),
            3, "field quantity: not an integer: 'x'",
            id="bad-number-before-unknown-kind"),
        pytest.param(
            body(*asset_rows(1100), "asset,a5,laptop,1,2015,,in_use,,,"),
            1102, "duplicate asset id: a5",
            id="duplicate-of-an-earlier-block"),
        pytest.param(
            body(_BAD_DATE, '"a"b'),
            2, "field acquisition_year: not an integer: '2018-01-01'",
            id="bad-date-before-short-quoted-line"),
        pytest.param(
            body(_BAD_DATE, '"' + "y" * (_FIELD_LIMIT + 1) + '"'),
            2, "field acquisition_year: not an integer: '2018-01-01'",
            id="bad-date-before-malformed-csv"),
        pytest.param(
            body(*asset_rows(1030), "asset,a1030,laptop,0,2015,,in_use,,,"),
            1032, "quantity must be >= 1, got 0",
            id="bad-row-in-last-partial-block"),
        pytest.param(
            body(*asset_rows(2), "room,sr1,,3,,,,,,", "asset,a2,laptop,1,2015,,in_use,,,"),
            4, "field quantity must be empty for kind room, got '3'",
            id="room-with-quantity-among-assets"),
        pytest.param(
            body(*asset_rows(1998), "asset,w,laptop,1,2015,,in_use,,,hours=weekly",
                 *asset_rows(3000)[1999:]),
            2000, "hour_profile_override must be one of ('work_year', 'continuous')",
            id="bad-hours-on-row-2000-of-3000"),
        pytest.param(
            body("asset,a0,laptop,1,2015,,in_use,,,", "room,sr1,,,,,,,,ups_overhead=x",
                 "asset,a1,laptop,x,2015,,in_use,,,"),
            3, "field ups_overhead: not a number: 'x'",
            id="bad-room-before-bad-asset-in-one-block"),
        pytest.param(
            body(*asset_rows(10), "asset,a5,laptop,1,2015,,in_use,,,",
                 "asset,a2,laptop,1,2015,,in_use,,,"),
            12, "duplicate asset id: a5",
            id="two-duplicates-in-one-block"),
        pytest.param(
            body("asset,sr1,laptop,1,2015,,in_use,,,", "room,sr1,,,,,,,,",
                 "asset,a1,laptop,1,2015,,in_use,,,", "room,sr1,,,,,,,,"),
            5, "duplicate room id: sr1",
            id="duplicate-room-in-a-mixed-block"),
        pytest.param(
            body(*asset_rows(100), "asset,a7,laptop,1,2015,,in_use,,,",
                 "asset,a99,laptop,1,2015,,in_use,,,", "asset,a1,laptop,1,2015,,in_use,,,"),
            102, "duplicate asset id: a7",
            id="duplicates-of-two-earlier-blocks"),
        pytest.param(
            body(*asset_rows(60), "asset,a70,laptop,0,2015,,in_use,,,", *asset_rows(80)[60:]),
            62, "quantity must be >= 1, got 0",
            id="bad-row-before-a-duplicate-in-its-block"),
        pytest.param(
            body(*asset_rows(300), '"' + "y" * (_FIELD_LIMIT + 1) + '"'),
            302, f"malformed CSV: field larger than field limit ({_FIELD_LIMIT})",
            id="malformed-csv-in-a-later-block"),
        pytest.param(
            body(*asset_rows(298), "asset,a298,laptop,1,2015,,in_use,,", *asset_rows(400)[299:]),
            300, "expected 10 fields, got 9",
            id="nine-fields-inside-the-second-block"),
        pytest.param(
            body(*asset_rows(300), "#" + ",x" * 9, "", "asset,a300,laptop,0,2015,,in_use,,,",
                 *asset_rows(400)[301:]),
            304, "quantity must be >= 1, got 0",
            id="comment-and-blank-line-before-the-bad-row"),
        pytest.param(
            body(*asset_rows(256), "asset,a255,laptop,1,2015,,in_use,,,", *asset_rows(400)[256:]),
            258, "duplicate asset id: a255",
            id="last-id-of-a-block-repeated-first-in-the-next"),
        pytest.param(
            body(*asset_rows(5), "asset,a2,laptop,0,2015,,in_use,,,"),
            7, "duplicate asset id: a2",
            id="duplicate-on-the-bad-row-itself"),
        pytest.param(
            body(*asset_rows(10), "asset,a3,laptop,1,2015,,in_use,,,", *asset_rows(400)[10:],
                 "asset,z,laptop,0,2015,,in_use,,,"),
            12, "duplicate asset id: a3",
            id="duplicate-before-a-bad-row-in-a-later-block"),
        pytest.param(
            body("room,sr1,,,,,,,,", *asset_rows(3), "asset,a9,laptop,x,2015,,in_use,,,",
                 "room,sr1,,,,,,,,"),
            6, "field quantity: not an integer: 'x'",
            id="bad-row-before-a-duplicate-of-another-kind"),
        pytest.param(
            body("room,sr1,,,,,,,,", "room,sr1,,,,,,,,", *asset_rows(300),
                 "asset,a0,laptop,1,2015,,in_use,,,"),
            3, "duplicate room id: sr1",
            id="room-duplicate-before-an-asset-duplicate"),
        pytest.param(
            body("campaign,c1,,,,,,,,kwh=1", *asset_rows(300), "asset,a7,laptop,1,2015,,in_use,,,",
                 "campaign,c1,,,,,,,,kwh=2"),
            303, "duplicate asset id: a7",
            id="asset-duplicate-before-a-campaign-duplicate"),
        pytest.param(
            body("external,mail,,,,,,,,kgco2e=1;scope=S3", *asset_rows(300),
                 "external,mail,,,,,,,,kgco2e=2;scope=S3"),
            303, "duplicate external id: mail",
            id="external-duplicate-named-by-its-kind"),
    ])
    def test_first_bad_row_in_file_order(self, text, row, message):
        expected = (FleetParseError, f"row {row}: {message}", row)
        assert outcome(row_walk_parse, text) == expected
        assert outcome(parse_fleet_csv, text) == expected

    @pytest.mark.parametrize("column,name", [(7, "measured_power_w"),
                                             (8, "vendor_fab_transport_kgco2e")])
    @pytest.mark.parametrize("number", ["nan", "NaN", "-nan", "inf", "-inf", "1e999"])
    def test_non_finite_numbers_are_rejected(self, column, name, number):
        rows = [row.split(",") for row in asset_rows(3 * inventory._BLOCK_ROWS)]
        for cells in rows:
            cells[column] = "1.5"
        rows[100][column] = number
        expected = f"row 102: {name} must be finite and >= 0, got {float(number)}"
        assert outcome(parse_fleet_csv, body(*map(",".join, rows))) == (
            FleetParseError, expected, 102
        )

    @staticmethod
    def record_conversions(mp):
        """Make _convert_block record the rows of each call, as (kind, *cells),
        in a list that is returned."""
        calls, convert = [], inventory._convert_block

        def recording(kind, texts, memos):
            calls.append([(kind, *cells) for cells in zip(*texts)])
            return convert(kind, texts, memos)
        mp.setattr(inventory, "_convert_block", recording)
        return calls

    @given(untidy_valid_fleet_texts())
    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    def test_valid_fleet_converts_no_row_alone(self, text):
        expected = outcome(row_walk_parse, text)
        assert isinstance(expected, Fleet)
        with pytest.MonkeyPatch.context() as mp:
            calls = self.record_conversions(mp)
            assert outcome(parse_fleet_csv, text) == expected
        data_rows = [tuple(fields) for _, fields in csv_rows(text)][1:]
        assert sorted(row for call in calls for row in call) == sorted(data_rows)
        lines, size = text.splitlines()[1:], inventory._BLOCK_ROWS
        kinds_per_block = [{fields[0] for _, fields in csv_rows("\n".join(lines[i:i + size]))}
                           for i in range(0, len(lines), size)]
        assert len(calls) <= sum(map(len, kinds_per_block))
        self.check_against_row_walk(text)

    def test_error_path_converts_only_the_pending_rows(self, monkeypatch):
        rows = asset_rows(4999)
        rows[::500] = [f"room,sr{i},,,,,,,,ups_overhead=0.1" for i in range(10)]
        text = body(*rows, "asset,last,laptop,0,2015,,in_use,,,")
        calls = self.record_conversions(monkeypatch)
        assert outcome(parse_fleet_csv, text) == (
            FleetParseError, "row 5001: quantity must be >= 1, got 0", 5001
        )
        # A full block converts its assets in one call, so an asset converted alone was read again.
        assets_alone = [call for call in calls if len(call) == 1 and call[0][0] == "asset"]
        assert 0 < len(assets_alone) <= inventory._BLOCK_ROWS

    def test_peak_memory_stays_near_the_row_walk(self):
        rng = random.Random(5)
        fleet = Fleet("p", 2020, assets=tuple(random_asset(rng, i, 2020) for i in range(10_000)))
        text = render_fleet_csv(fleet)

        def traced(parse):
            """The fleet parsed, kept past tracing so its release is not traced, and the peak."""
            tracemalloc.start()
            try:
                return parse(text, 2020, "p"), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        parsed, peak = traced(parse_fleet_csv)
        assert parsed == fleet
        del parsed
        assert peak <= 1.1 * traced(row_walk_parse)[1]


class TestDuplicateIds:
    """Repeated ids are left to the Fleet's check; the parser looks for the first
    one in file order only when that check or a row fails."""

    def test_a_valid_parse_looks_for_no_duplicate(self, monkeypatch):
        calls = []
        monkeypatch.setattr(inventory, "_first_bad_row", lambda *a: calls.append(a))
        text = body(*asset_rows(600), "room,sr1,,,,,,,,", "asset,sr1,laptop,1,2015,,in_use,,,")
        assert len(parse_fleet_csv(text, 2019, "p").assets) == 601
        assert calls == []

    @pytest.mark.parametrize("perimeter", [pytest.param("", id="empty"),
                                           pytest.param("  ", id="blank")])
    def test_a_duplicate_comes_before_the_perimeter(self, perimeter):
        text = body(*asset_rows(300), "room,sr1,,,,,,,,", "room,sr1,,,,,,,,")
        expected = (FleetParseError, "row 303: duplicate room id: sr1", 303)
        assert row_outcome(parse_fleet_csv, text, 2019, perimeter) == expected
        assert row_outcome(row_walk_parse, text, 2019, perimeter) == expected
        expected = (FleetParseError, "perimeter_description must be non-empty", None)
        assert row_outcome(parse_fleet_csv, body(*asset_rows(3)), 2019, perimeter) == expected

    def test_each_extra_text_is_split_once_per_parse(self, monkeypatch):
        calls = Counter()
        split = inventory._extra_values

        def counting(text, kind, keys):
            calls[kind, text] += 1
            return split(text, kind, keys)
        monkeypatch.setattr(inventory, "_extra_values", counting)
        rows = [f"room,sr{i},,,,,,,,ups_overhead=0.{i % 3 + 1}" for i in range(600)]
        rows += [f"asset,a{i},server,1,2015,,in_use,,,{'hours=continuous' if i % 2 else ''}"
                 for i in range(600)]
        fleet = parse_fleet_csv(body(*rows), 2019, "p")
        assert len(fleet.rooms) == len(fleet.assets) == 600
        assert calls == {("room", f"ups_overhead=0.{n}"): 1 for n in (1, 2, 3)} | {
            ("asset", "hours=continuous"): 1}


def first_repeat(items) -> str | None:
    """The first id that repeats in the given order, by a plain seen-set loop."""
    seen = set()
    for item in items:
        if item.id in seen:
            return item.id
        seen.add(item.id)
    return None


class TestFleetIdOrder:
    """Fleet(...) sorts its assets by id once, into assets_by_id, and a repeated
    id raises for the first one that repeats in the given order, of the first
    kind, in the order assets, rooms, campaigns, external services, that has one."""

    KINDS = (("asset", "assets"), ("room", "rooms"), ("campaign", "campaigns"),
             ("external service", "external_services"))

    def test_first_repeat_and_id_order_on_random_fleets(self):
        rng = random.Random(27)
        seen = Counter()
        for _ in range(600):
            fleet = random_fleet(rng, max_entries=30)  # ids unique within each kind
            given = {}
            for label, attr in self.KINDS:
                items = list(getattr(fleet, attr))
                rng.shuffle(items)
                for _ in range(rng.choice((0, 0, 0, 1, 2)) if items else 0):  # plant repeats
                    copy = rng.choice(items)
                    if label == "asset":  # the same id with other fields
                        copy = copy._replace(quantity=copy.quantity + 1)
                    items.insert(rng.randint(0, len(items)), copy)
                given[attr] = tuple(items)
            expected = next((f"duplicate {label} id: {repeat}" for label, attr in self.KINDS
                             if (repeat := first_repeat(given[attr])) is not None), None)

            def build():
                return Fleet(fleet.perimeter_description, fleet.reporting_year,
                             cable_bulks=fleet.cable_bulks, **given)
            if expected is not None:
                with pytest.raises(ValueError) as exc:
                    build()
                assert str(exc.value) == expected
                seen[expected.split(":")[0]] += 1
                by_id = sorted(given["assets"], key=lambda a: a.id)
                seen["first repeat in id order is not the first given"] += (
                    expected.startswith("duplicate asset")
                    and next(a.id for a, b in zip(by_id, by_id[1:]) if a.id == b.id)
                    != first_repeat(given["assets"]))
                continue
            built = build()
            assert built.assets == given["assets"]
            assert built.assets_by_id == tuple(sorted(given["assets"], key=lambda a: a.id))
            assert "assets_by_id" not in repr(built)
            others = list(given["assets"])
            rng.shuffle(others)
            replaced = dataclasses.replace(built, assets=others[: rng.randint(0, len(others))])
            assert replaced.assets_by_id == tuple(sorted(replaced.assets, key=lambda a: a.id))
            assert dataclasses.replace(built) == built
            seen["no repeat"] += 1
        assert len(seen) == 6 and min(seen.values()) >= 10, seen

    def test_assets_by_id_takes_no_part_in_equality(self):
        assets = (Asset("b", "laptop", 1, 2015), Asset("a", "laptop", 1, 2015))
        fleet = Fleet("p", 2019, assets=assets)
        assert fleet.assets_by_id == assets[::-1]
        assert fleet == dataclasses.replace(fleet) and hash(fleet) == hash(Fleet("p", 2019, assets))
        assert [f.name for f in dataclasses.fields(Fleet) if not f.init] == ["assets_by_id"]
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(fleet, assets_by_id=assets)


@contextlib.contextmanager
def sliced(size: int):
    """A context in which text_lines splits a text about size characters at a time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factors, "_SLICE_CHARS", size)
        yield


class TestSlicedLines:
    """text_lines splits a text a slice at a time, each cut just after a '\n':
    the lines and their numbers are those of str.splitlines whatever the slices."""

    @given(st.lists(st.sampled_from(["\r", "\n", "\r\n", "a", ",", "#", " ", "\f", "\x85",
                                     "\u2028", "\v"]), max_size=40).map("".join),
           st.integers(1, 6))
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    def test_the_lines_of_splitlines(self, text, size):
        with sliced(size):
            assert list(text_lines(text)) == text.splitlines()

    @staticmethod
    def rendered(n: int, ends: str) -> tuple[Fleet, str]:
        rng = random.Random(n)
        fleet = Fleet("p", 2019, assets=tuple(random_asset(rng, i, 2019) for i in range(n)),
                      rooms=(ServerRoom("sr1", ups_overhead_fraction=0.1),))
        return fleet, ends.join(render_fleet_csv(fleet).splitlines()) + ends

    @pytest.mark.parametrize("ends", ["\r\n", "\r"])
    def test_line_ends_of_a_text_longer_than_a_slice(self, ends):
        fleet, text = self.rendered(2000, ends)
        assert len(text) > 3 * factors._SLICE_CHARS
        assert parse_fleet_csv(text, 2019, "p") == fleet
        with sliced(37):
            assert parse_fleet_csv(text, 2019, "p") == fleet

    def test_a_bad_row_past_the_first_slice_keeps_its_number(self):
        _, text = self.rendered(2000, "\r\n")
        lines = text.split("\r\n")
        cells = lines[1500].split(",")
        cells[3] = "0"
        lines[1500] = ",".join(cells)
        text = "\r\n".join(lines)
        assert text.index(lines[1500]) > 2 * factors._SLICE_CHARS
        expected = outcome(row_walk_parse, text)
        assert expected == (FleetParseError, "row 1501: quantity must be >= 1, got 0", 1501)
        assert outcome(parse_fleet_csv, text) == expected
        with sliced(100):
            assert outcome(parse_fleet_csv, text) == expected

    def test_a_header_after_a_long_comment_block(self):
        comments = ["# " + "x" * 60] * 2000 + [""] * 10
        fleet, text = self.rendered(300, "\n")
        assert parse_fleet_csv("\n".join(comments) + "\n" + text, 2019, "p") == fleet
        bad = "\n".join(comments + [HEADER.replace("kind", "kinds"), "asset,a1,laptop,1,2015,,,,,"])
        assert len(bad) > 3 * factors._SLICE_CHARS
        assert outcome(parse_fleet_csv, bad) == outcome(row_walk_parse, bad) == (
            FleetParseError, f"row 2011: expected header {','.join(FLEET_CSV_COLUMNS)!r}", 2011)

    def test_a_form_feed_in_a_comment_starts_a_row(self):
        # A documented limit: str.splitlines ends a line at '\f', so the rest of
        # the comment is a row of its own, numbered as a line of its own.
        text = body("# retired\fasset,a9,laptop,1,2015,,in_use,,,", "asset,a1,laptop,1,2015,,in_use,,,")
        assert [a.id for a in parse_fleet_csv(text, 2019, "p").assets] == ["a9", "a1"]
        text = body("# retired\fsee the 2018 list", "asset,a1,laptop,x,2015,,in_use,,,")
        assert outcome(parse_fleet_csv, text) == (
            FleetParseError, "row 3: expected 10 fields, got 1", 3)


@st.composite
def fleet_rows(draw):
    """A kind and the nine cells after it: format words under one of the five
    kinds, or a rendered row of a valid fleet with one of its ten cells
    replaced by a word or, on some draws, kept."""
    rows = render_fleet_csv(draw(fleets())).splitlines()[1:]
    if rows and draw(st.booleans()):
        cells = next(csv.reader([draw(st.sampled_from(rows))]))
        i = draw(st.integers(0, len(cells) - 1))
        cells[i] = draw(st.sampled_from(_WORDS) | st.just(cells[i]))
        return cells[0], cells[1:]
    words = st.lists(st.sampled_from(_WORDS), min_size=9, max_size=9)
    return draw(st.sampled_from(sorted(FLEET_SCHEMA))), draw(words)


def row_outcome(parse, *args):
    """The type and value of what parse returns, or the type, text and row of
    the FleetParseError it raises."""
    try:
        value = parse(*args)
    except FleetParseError as exc:
        return type(exc), str(exc), exc.row
    return type(value), value


class TestParseFleetRow:
    """parse_fleet_row, a one-row call of the column converter, builds what
    the row converter it replaced built and raises the same errors, on its own
    and in scenario action rows."""

    @given(fleet_rows(), st.none() | st.integers(1, 10**6))
    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    def test_agrees_with_the_seed_row_converter(self, row, rownum):
        kind, cells = row
        rownums = () if rownum is None else (rownum,)  # None: the default row 0
        assert row_outcome(parse_fleet_row, kind, list(cells), *rownums) == row_outcome(
            seed_parse_fleet_row, kind, list(cells), *rownums
        )

    @given(fleet_rows(), st.sampled_from(["add", "replace"]), st.integers(0, 3))
    @example(("asset", [""] * 8 + ["\r"]), "add", 0)
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    def test_action_rows_agree_with_the_seed_row_converter(self, row, op, comments):
        target = "srv-old" if op == "replace" else ""
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([op, target, *row[1]])
        line = buf.getvalue()
        assume(len(line.splitlines()) == 1 and "\0" not in line)  # one row that csv reads back
        # The cells the file holds: csv.writer leaves a "\r" unquoted, so one
        # that ends the last cell joins the line end.
        cells = next(csv.reader(line.splitlines()))[2:]
        expected = row_outcome(seed_parse_fleet_row, "asset", cells, comments + 1)
        if expected[0] is not FleetParseError:
            expected = (tuple, (ScenarioAction(op, target or None, expected[1]),))
        assert row_outcome(parse_actions_csv, "# plan\n" * comments + line) == expected


SHARED_FIELDS = ("category", "status", "hour_profile_override", "acquisition_year",
                 "disposal_year")


def objects_per_value(assets, attr: str) -> tuple[int, int]:
    """The number of distinct objects and of distinct values of a field of the assets."""
    values = [getattr(a, attr) for a in assets]
    return len({id(v) for v in values}), len(set(values))


class TestSharedValues:
    """A parsed fleet holds one object per value of each repeated field; the
    values, their types and signs, and the errors stay as they were."""

    @pytest.mark.parametrize("block_rows", [1, 7, inventory._BLOCK_ROWS])
    def test_fleet_csv_holds_one_object_per_value(self, block_rows, monkeypatch):
        monkeypatch.setattr(inventory, "_BLOCK_ROWS", block_rows)
        rng = random.Random(21)
        assets = tuple(random_asset(rng, i, 2020) for i in range(600))
        fleet = Fleet("p", 2020, assets=assets)
        parsed = parse_fleet_csv(render_fleet_csv(fleet), 2020, "p")
        assert parsed == fleet
        for attr in SHARED_FIELDS:
            objects, values = objects_per_value(parsed.assets, attr)
            assert objects == values < len(assets), attr

    def test_years_written_differently_are_one_object(self):
        fleet = parse("\n".join(["asset,a1,laptop,1,2019,,in_use,,,",
                                 "asset,a2,laptop,1,02019,+2019,in_use,,,",
                                 "asset,a3,laptop,1, 2019,2019 ,in_use,,,"]))
        assert objects_per_value(fleet.assets, "acquisition_year") == (1, 1)
        assert objects_per_value(fleet.assets, "disposal_year") == (2, 2)  # None and 2019

    def test_glpi_export_holds_one_object_per_value(self):
        # Two rules name each category, and each year is written three ways.
        rules = parse_mapping_rules("type,laptop,laptop\nmodel,latitude,laptop\n"
                                    "type,server,server\nmodel,poweredge,server\n")
        rng = random.Random(4)
        rows = []
        for k in range(600):
            kind, model = rng.choice((("Laptop", "X"), ("PC", "Latitude"), ("Server", "Y"),
                                      ("Box", "PowerEdge")))
            year = rng.randint(2010, 2019)
            date = rng.choice((f"{year}", f"{year}-0{rng.randint(1, 9)}-11",
                               f"1{rng.randint(0, 9)}/0{rng.randint(1, 9)}/{year}"))
            status = rng.choice(("used", "stock", "en service", "odd"))
            rows.append(f"pc-{k},{kind},{model},{date},{status}")
        text = "\n".join([GLPI_HEADER, *rows])
        fleet, unmapped = parse_glpi_export(text, rules, 2019, "Lab X")
        assert (fleet, unmapped) == seed_parse_glpi_export(text, rules, 2019, "Lab X")
        assert len(fleet.assets) == 600
        for attr in SHARED_FIELDS:
            objects, values = objects_per_value(fleet.assets, attr)
            assert objects == values, attr

    def test_round_trip_keeps_types_and_signs(self):
        text = body(
            "asset,laptop,laptop,2019,2019,2019,in_use,-0.0,1.0,",
            "asset,a1,laptop,1,2019,,stored,0.0,-0.0,hours=continuous",
            "asset,a2,server,1,2018,2019,in_use,1.0,1.0,hours=continuous",
            "room,in_use,,,,,,,,fluid=2019;leak_kg=1.0",
            "cable,,cable_hdmi,1,,,,,,",
        ) + "\n"
        fleet = parse_fleet_csv(text, 2019, "Lab X")
        assert render_fleet_csv(fleet) == text
        first, second, third = fleet.assets
        assert [type(v) for v in first] == [str, str, int, int, int, str, float, float, type(None)]
        assert math.copysign(1, first.measured_power_w) == -1
        assert math.copysign(1, second.measured_power_w) == 1
        assert math.copysign(1, second.vendor_fab_transport_kgco2e) == -1
        assert third.quantity == 1 and type(third.quantity) is int
        assert type(third.measured_power_w) is float
        assert fleet.rooms[0].refrigerant_fluid == "2019"
        assert fleet.cable_bulks[0].count_acquired_this_year == 1

    @pytest.mark.parametrize("column,text,message", [
        (2, "lapt0p", "unknown or non-asset category: lapt0p"),
        (6, "broken", "status must be one of ('in_use', 'stored'), got 'broken'"),
        (4, "20l9", "field acquisition_year: not an integer: '20l9'"),
        (5, "2O21", "field disposal_year: not an integer: '2O21'"),
        (4, "", "field acquisition_year is required for kind asset"),
    ])
    def test_bad_value_mid_block_keeps_its_message_and_row(self, column, text, message):
        rng = random.Random(8)
        fleet = Fleet("p", 2020, assets=tuple(random_asset(rng, i, 2020) for i in range(600)))
        rows = [row.split(",") for row in render_fleet_csv(fleet).splitlines()[1:]]
        rows[400][column] = text  # the middle of the second block, whose values repeat the first's
        text = body(*map(",".join, rows))
        expected = (FleetParseError, f"row 402: {message}", 402)
        assert outcome(parse_fleet_csv, text) == expected
        assert outcome(row_walk_parse, text) == expected


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

    def test_bad_record_among_blank_lines_names_its_row(self):
        # A blank line after every tenth record: blank lines take no row number.
        records = [f"pc-{k},laptop,L,2018-01-01,used" for k in range(1, 201)]
        records[149] = "pc\x07-150,laptop,L,2018-01-01,used"
        lines = [line for k, r in enumerate(records, 1) for line in ([r, ""] if k % 10 else [r])]
        with pytest.raises(FleetParseError, match=r"row 151: .*control characters") as exc:
            glpi("\n".join(lines))
        assert exc.value.row == 151

    def test_bad_record_before_a_malformed_line_is_the_error(self, caplog):
        text = (
            "ok,laptop,L,2018-01-01,odd\n"
            "pc\x01,laptop,L,2018-01-01,used\n"
            "late,laptop,L,2018-01-01,odd\n"
            "pc,lap\rtop,L,2018-01-01,used"
        )
        with pytest.raises(FleetParseError, match="control characters") as exc:
            glpi(text)
        assert exc.value.row == 3
        # No warning about a record past the bad one.
        assert [r.getMessage() for r in caplog.records] == [
            "GLPI row 2: unknown status 'odd', assuming in_use"
        ]

    def test_seeded_export_equals_the_assets_built_one_by_one(self):
        rng = random.Random(11)
        aliases = {"en service": "in_use", "Stock": "stored", "used": "in_use", "broken": "in_use"}
        rows, expected = [], []
        for k in range(300):
            kind = rng.choice(("Laptop", "Server", "Desk"))
            year = rng.randint(1990, 2019)
            status = rng.choice(sorted(aliases))
            rows.append(f"pc-{k},{kind},M{k},{year}-03-01,{status}")
            if kind != "Desk":
                expected.append(Asset(f"pc-{k}", kind.lower(), 1, year, status=aliases[status]))
        fleet, unmapped = glpi("\n".join(rows))
        assert fleet == Fleet("Lab X", 2019, assets=tuple(expected))
        assert all(type(a) is Asset for a in fleet.assets)
        assert len(unmapped) == 300 - len(expected)

    def test_rules_and_dates_worked_out_once_per_distinct_value(self, monkeypatch):
        rules = (
            MappingRule("name", "wifi*", "wifi_ap"),
            MappingRule("type", "laptop", "laptop"),
            MappingRule("model", "opti*", "desktop"),
            MappingRule("type", "serv", "server"),
            MappingRule("name", "pc", "desktop"),
        )
        pairs = [(kind, f"M{k % 2}") for k, kind in enumerate(
            ("Laptop", "LAPTOP", "Server", "Mainframe", "Computer") * 2)]
        dates = [f"{2000 + k % 20}-0{1 + k // 20}-01" for k in range(40)]
        rng = random.Random(5)
        text = f"{GLPI_HEADER}\n" + "\n".join(
            f"{rng.choice(('pc', 'wifi', 'host'))}-{k},{kind},{model},{dates[k % 40]},used"
            for k, (kind, model) in enumerate(rng.choice(pairs) for _ in range(2000))
        )
        assert len(set(pairs)) == 10
        expected = seed_parse_glpi_export(text, rules, 2019, "Lab X")
        tests = Counter()

        def counting(rule, test):
            def counted(value):
                tests[rule] += 1
                return test(value)
            return counted

        for rule in rules:
            if rule.match_field != "name":
                object.__setattr__(rule, "_test", counting(rule, rule._test))
        years = Counter()
        real = inventory._year_from_date

        def year_from_date(text):
            years[text] += 1
            return real(text)

        monkeypatch.setattr(inventory, "_year_from_date", year_from_date)
        fleet, unmapped = parse_glpi_export(text, rules, 2019, "Lab X")
        assert fleet == expected[0] and unmapped == expected[1] and len(unmapped) > 0
        assert tests and max(tests.values()) <= 10
        assert years == Counter(dates)

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


# Pools a drawn export takes its cells from, so that (type, model) pairs, dates
# and statuses repeat across records, as in a real export.
GLPI_POOLS = {
    "name": ("pc", "PC", "pc#2", "pc#3", "wifi-hall", "WiFi-1", "hall-wifi", "srv-1", "", "  "),
    "type": ("Laptop", "LAPTOP", "laptop", "Desktop", "Server", "Access point", "Mainframe"),
    "model": ("Latitude 5490", "ThinkPad T480", "OptiPlex", "X", ""),
    "purchase_date": ("2018-01-31", "2016", "14/05/2017", "14-05-2017", " 2019 ",
                      "\t03/06/2015 ", "last spring", "", "2018-1-1", "17/05/17"),
    "status": ("en service", "EN SERVICE", " used ", "Stock", "réserve", "RÉSERVE",
               "In  Use", "cassé", "", "storage\t"),
    "serial": ("SN1",),
}
GLPI_PATTERNS = {
    "type": ("laptop", "LAP", "desk*", "*point", "serv", "[lm]a*"),
    "model": ("latitude", "think*", "x", "Opti", "*4*"),
    "name": ("wifi*", "pc", "*hall", "srv?1", "PC#"),
}
#: Put among the records: a record with a control-character name, and a line
#: the csv module rejects.
GLPI_BAD_NAME = {"name": "pc\x07", "type": "Laptop", "model": "X", "purchase_date": "2018",
                 "status": "used", "serial": ""}
GLPI_MALFORMED = "pc,lap\rtop,X,2018-01-01,used"


@st.composite
def glpi_exports(draw):
    """(rules, export text): 0-300 records from GLPI_POOLS under a shuffled
    header, with short rows, blank lines and at most one each of the
    GLPI_BAD_NAME and GLPI_MALFORMED lines."""
    fields = draw(st.lists(st.sampled_from(("type", "model", "name")), max_size=7))
    rules = tuple(
        MappingRule(f, draw(st.sampled_from(GLPI_PATTERNS[f])), draw(st.sampled_from(TARGETS)))
        for f in fields
    )
    header = draw(st.permutations(list(GLPI_POOLS)))
    rng = draw(st.randoms(use_true_random=False))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 300))):
        width = rng.choice((6, 6, 6, 6, 6, 5, 3, 1))
        writer.writerow([rng.choice(GLPI_POOLS[c]) for c in header][:width])
    bad_name = ",".join(GLPI_BAD_NAME[c] for c in header)
    lines = buf.getvalue().split("\n")[:-1]
    extra = [""] * rng.randint(0, 3) + rng.choice(
        ([], [bad_name], [GLPI_MALFORMED], [bad_name, GLPI_MALFORMED])
    )
    for line in extra:
        lines.insert(rng.randint(1, len(lines)), line)
    return rules, "\n".join(lines)


def glpi_outcome(parse, rules, text, caplog):
    """What an import returns or raises, and the warnings it logs, in order."""
    caplog.clear()
    try:
        fleet, unmapped = parse(text, rules, 2019, "Lab X")
        result = fleet, [(u.row_number, u.record, u.reason) for u in unmapped]
    except FleetParseError as exc:
        result = type(exc), str(exc), exc.row
    return result, [r.getMessage() for r in caplog.records]


class TestGlpiAgainstSeed:
    @given(drawn=glpi_exports())
    @settings(max_examples=300, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(drawn=(
        (MappingRule("name", "wifi*", "wifi_ap"), MappingRule("type", "laptop", "laptop"),
         MappingRule("name", "pc", "desktop"), MappingRule("model", "x", "server")),
        "\n".join([GLPI_HEADER, "pc,Laptop,X,2018,cassé", "wifi-1,Laptop,X,2018,used",
                   "pc,Desktop,X,14/05/2017,odd", "pc\x07,Laptop,X,2018,used",
                   "b,Laptop,X,2018,broken", GLPI_MALFORMED, "c,Laptop,X,2018,late"]),
    ))
    @example(drawn=(RULES, "\n".join([GLPI_HEADER, "a,Laptop,X,2018,odd", GLPI_MALFORMED,
                                      "pc\x07,Laptop,X,2018,used"])))
    def test_import_equals_the_seed_import(self, drawn, caplog):
        rules, text = drawn
        assert glpi_outcome(parse_glpi_export, rules, text, caplog) == glpi_outcome(
            seed_parse_glpi_export, rules, text, caplog
        )


class TestGlpiIdCheck:
    """The import checks each mapped record's id as it reads the row."""

    @pytest.mark.parametrize("name", [
        "a\xa0b", "a\xadb", "a\u200db", "café",  # not unsafe, and all but the last not printable
        "a\x85b", "a\u2028b", "a\x7fb", "a\tb",  # unsafe
    ], ids=["nbsp", "soft-hyphen", "zwj", "accent", "nel", "line-separator", "del", "tab"])
    def test_names_not_printable_agree_with_the_seed(self, name, caplog):
        text = "\n".join([GLPI_HEADER, "a,Laptop,X,2018,odd", f'"{name}",Laptop,X,2018,odd',
                          "b,Laptop,X,2018,odd"])
        assert glpi_outcome(parse_glpi_export, RULES, text, caplog) == glpi_outcome(
            seed_parse_glpi_export, RULES, text, caplog
        )

    def test_reads_no_row_past_a_bad_id(self, monkeypatch):
        read, rows = [], inventory._glpi_rows

        def counting(text):
            for row in rows(text):
                read.append(row)
                yield row
        monkeypatch.setattr(inventory, "_glpi_rows", counting)
        valid = [f"pc-{k},laptop,L,2018-01-01,used" for k in range(1000)]
        text = "\n".join([GLPI_HEADER, "ok,laptop,L,2018-01-01,used",
                          "pc\x07,laptop,L,2018-01-01,used", *valid])
        with pytest.raises(FleetParseError, match="control characters") as exc:
            parse_glpi_export(text, RULES, 2019, "Lab X")
        assert exc.value.row == 3
        assert len(read) == 3  # the header and rows 2 and 3


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
        with pytest.raises(AttributeError):
            asset.quantity = 2
        assert asset.quantity == 1

    def test_replace_still_checks_the_years(self):
        asset = Asset("a", "laptop", 1, 2015, disposal_year=2018)
        assert asset._replace(acquisition_year=2016).acquisition_year == 2016
        with pytest.raises(ValueError, match="earlier than acquisition_year 2019"):
            asset._replace(acquisition_year=2019)

    def test_asset_equals_the_plain_tuple_of_its_fields(self):
        a = Asset("a", "laptop", 2, 2019, status="stored", measured_power_w=3.5)
        assert a == ("a", "laptop", 2, 2019, None, "stored", 3.5, None, None)
        assert tuple(a) == tuple(getattr(a, name) for name in Asset._fields)

    def test_argument_errors_name_asset(self):
        with pytest.raises(TypeError) as exc:
            Asset("a", "laptop")
        assert str(exc.value) == (
            "Asset.__new__() missing 2 required positional arguments: "
            "'quantity' and 'acquisition_year'"
        )
        with pytest.raises(TypeError) as exc:
            Asset("a", "laptop", 1, 2019, colour="red")
        assert str(exc.value) == "Asset.__new__() got an unexpected keyword argument 'colour'"
        assert repr(Asset("a", "laptop", 1, 2019)).startswith("Asset(id='a', category='laptop', ")

    def test_asset_equality_and_hash(self):
        a, b = Asset("a", "laptop", 2, 2019), Asset("a", "laptop", 2, 2019)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != a._replace(quantity=3)
        assert list(Asset._fields)[:4] == [
            "id", "category", "quantity", "acquisition_year"
        ]

    def test_room_leak_requires_fluid(self):
        for fluid in (None, ""):
            with pytest.raises(ValueError, match="refrigerant_fluid required"):
                ServerRoom("sr", refrigerant_fluid=fluid, refrigerant_leak_kg_per_year=0.5)
        # An empty fluid would render as no fluid and parse back as None.
        with pytest.raises(ValueError, match="refrigerant_fluid must be None or non-empty"):
            ServerRoom("sr", refrigerant_fluid="")
        # Either fluid would render a fleet-CSV row that does not parse back.
        for fluid, rule in (("R4;10A", "';'"), ("R\x85", "control characters")):
            with pytest.raises(ValueError, match=f"refrigerant_fluid must not contain {rule}"):
                ServerRoom("sr", refrigerant_fluid=fluid, refrigerant_leak_kg_per_year=1)

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


@pytest.mark.parametrize("build, message, row", [
    (lambda: parse("room,,,,,,,,,\n"), "room id must be non-empty", 2),
    (lambda: parse("campaign,,,,,,,,,kwh=1\n"), "campaign id must be non-empty", 2),
    (lambda: parse("external,,,,,,,,,kgco2e=1;scope=S3\n"),
     "external service id must be non-empty", 2),
    (lambda: parse("room,r,,,,,,,,fluid=R410A;leak_kg=-1\n"),
     "refrigerant_leak_kg_per_year must be >= 0, got -1.0", 2),
    (lambda: parse("room,r,,,,,,,,fluid=R410A;leak_kg=nan\n"),
     "refrigerant_leak_kg_per_year must be >= 0, got nan", 2),
    (lambda: parse("external,x,,,,,,,,kgco2e=-1;scope=S3\n"),
     "declared_kgco2e must be >= 0, got -1.0", 2),
    (lambda: parse("external,x,,,,,,,,kgco2e=nan;scope=S3\n"),
     "declared_kgco2e must be >= 0, got nan", 2),
    # The fleet CSV cannot hold a ';' in a note: it splits the 'extra' cell there.
    (lambda: ExternalServiceEntry("x", 1.0, "S3", "a;b"),
     "note must not contain ';', ',' or '=': 'a;b'", None),
    (lambda: parse_mapping_rules("type,laptop,laptop\ntype,,laptop\n"),
     "pattern must be non-empty", 2),
    (lambda: parse("room,r,,,,,,,,fluid=R410A;fluid=R32\n"), "duplicate extra key 'fluid'", 2),
    (lambda: parse("campaign,c,,,,,,,,kwh=-1\n"), "kwh must be finite and >= 0, got -1.0", 2),
], ids=["room id", "campaign id", "external id", "negative leak", "nan leak", "negative declared",
        "nan declared", "note", "rule pattern", "extra key", "negative optional"])
def test_boundary_checks(build, message, row):
    with pytest.raises(FleetParseError if row else ValueError) as info:
        build()
    assert str(info.value) == (f"row {row}: {message}" if row else message)
