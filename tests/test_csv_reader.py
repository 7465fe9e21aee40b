"""The column reader behind the four CSV parsers, against the per-row oracle.

Each parser reads a document in one vectorized pass; tests/oracles.py keeps
the same four parsers one record at a time. Fed the same documents, the two
must return bit-equal columns or raise the same message for the same row.
The documents start from valid exports and are then damaged: blank lines,
quoted cells, short and long rows, unknown and overlong words, non-finite
numbers, bad times, and for traces header aliases, shuffled and extra
columns. The reader's few deliberate refusals are pinned separately below.
"""

from dataclasses import fields
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from v2xcal.dataio import (
    _HEADER_SPELLINGS,
    EPOCH,
    HEATMAP_HEADERS,
    LOG_HEADERS,
    PDR_HEADERS,
    TRACE_HEADERS,
    Trace,
    TraceParseError,
    export_heatmap_csv,
    export_log_csv,
    export_pdr_csv,
    export_trace_csv,
    parse_heatmap_csv,
    parse_log_csv,
    parse_pdr_csv,
    parse_trace_csv,
)
from v2xcal.propagation import BELOW_SNR, DELIVERED, REASONS
from v2xcal.simulator import DeliveryLog, Direction, HeatmapGrid, PdrCurve, link_distance_m

import oracles

# ---------------------------------------------------------------------------
# cell pools
# ---------------------------------------------------------------------------

_NUMBERS = ("0", "-0", "1.5", "-2.25", " 3.125 ", "+7", ".5", "5.", "1e3", "-2.5E-3", "\t4\t",
            '"6.5"', "12.000000000")
_NON_FINITE = ("nan", "NaN", "inf", "-inf", "Infinity", "+inf")
_BAD_NUMBERS = ("", " ", "ten", "1.2.3", "--1", "0x10", "1e", '"1,5"', "1 5", "nan(1)")
_COUNTS = ("0", "7", " 12 ", "+3", "-4", '"5"', "9223372036854775807")
_BAD_COUNTS = ("1.0", "1e3", "ten", "", "99999999999999999999", "-9223372036854775809")
_LOG_WORDS = {
    "direction": ("vehicle_to_rsu", "rsu_to_vehicle", '"rsu_to_vehicle"', "sideways",
                  " vehicle_to_rsu", "VEHICLE_TO_RSU", "vehicle_to_rsu_and_back_again", ""),
    "delivered": ("true", "false", '"false"', "yes", "True", " true", "truest_of_them_all", ""),
    "reason": (*(r.value for r in REASONS), '"delivered"', "lost", "delivered_late_and_overlong",
               ""),
}
_TRACE_WORDS = {
    "transmission_type": ("DSRC", "CV2X", "dsrc", "c-v2x", " C-V2X  ", '"cv2x"', "LTE",
                          "transmission_over_the_air", ""),
    "message_type": ("BSM", "SPaT", "spat", "\tBSM", '"bsm"', "PSM", "basic_safety_message_x", ""),
    "direction": ("Sent", "Received", "rx", "TX", " received ", '"sent"', "sideways",
                  "received_and_sent_too", ""),
}
_ISO_TIMES = ("2024-03-14 15:00:01", "2024-03-14T15:00:02+05:00", " 2024-03-14T15:00:03.250000Z ",
              "2024-03-14T15:00:04z", "2024-03-14T15:00:05.123", "2024-02-29T12:00:00.000000Z",
              "0001-01-01T00:00:00.000000Z", "9999-12-31T23:59:59.999999Z",
              "2024-02-30T00:00:00.000000Z", "2023-02-29T00:00:00.000000Z",
              "2024-13-01T00:00:00.000000Z", "0000-01-01T00:00:00.000000Z",
              "2024-03-14T24:00:00.000000Z", "2024-03-14T15:60:00.000000Z",
              "2024-03-14T15:00:60.000000Z", "2024-03-14T15:00:00.00000xZ", "garbage", "")
_EPOCH_TIMES = ("1710428400000", " 1710428400100 ", "+1710428400200", "-62135596800000",
                "253402300799999", '"1710428400300"', "1.5", "abc", "", "1e12",
                "99999999999999999999", "-62135596800001", "253402300800000")
_TRACE_NUMBERS = ("45.0", "-93.0", "0", "359.5", "95.0", "-181", "360", "-1", *_NON_FINITE)
_BLANK_LINES = ("", "  ", ",,", " , ,\t", "\r")


#: The cells a damaged document may hold in a column of each kind.
_POOLS = {
    "number": _NUMBERS + _NON_FINITE + _BAD_NUMBERS,
    "count": _COUNTS + _BAD_COUNTS,
    "iso": _ISO_TIMES,
    "epoch": _EPOCH_TIMES,
    "trace number": _TRACE_NUMBERS + _NUMBERS + _BAD_NUMBERS,
    **{"log " + name: words for name, words in _LOG_WORDS.items()},
    **{"trace " + name: words for name, words in _TRACE_WORDS.items()},
}


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


@st.composite
def _damaged(draw, rows: list, kinds: list) -> str:
    """The rows (lists of cells, header first) as CSV text after a few random injuries.

    kinds[j] names the pool a replacement for cell j is drawn from.
    """
    rows = [list(row) for row in rows]
    for _ in range(draw(st.integers(0, 3)) if len(rows) > 1 else 0):
        r = draw(st.integers(1, len(rows) - 1))
        j = draw(st.integers(0, len(kinds) - 1))
        injury = draw(st.sampled_from(["cell", "cell", "cell", "quote", "short", "long"]))
        if injury == "cell" and j < len(rows[r]):
            rows[r][j] = draw(st.sampled_from(_POOLS[kinds[j]]))
        elif injury == "quote" and j < len(rows[r]) and '"' not in rows[r][j]:
            rows[r][j] = f'"{rows[r][j]}"'
        elif injury == "short" and rows[r]:
            del rows[r][draw(st.integers(0, len(rows[r]) - 1)):]
        elif injury == "long":
            rows[r].append(draw(st.sampled_from(["", "x", "1.5", '"a,b"'])))
    if draw(st.booleans()):  # a quoted header cell reads as the same header
        j = draw(st.integers(0, len(rows[0]) - 1))
        rows[0][j] = f'"{rows[0][j]}"'
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_BLANK_LINES)))
    end = draw(st.sampled_from(["\n", "\r\n", "\r\r\n"]))
    return end.join(lines) + (end if draw(st.booleans()) else "")


def _rows(text: str) -> list:
    return [line.split(",") for line in text.splitlines()]


_coord = st.floats(min_value=-3000.0, max_value=3000.0).map(lambda v: round(v, 3))


@st.composite
def log_documents(draw):
    n = draw(st.integers(0, 6))
    x, y = (draw(st.lists(_coord, min_size=n, max_size=n)) for _ in range(2))
    tx, rx = np.column_stack([x, y, np.zeros(n)]), np.zeros((n, 3))
    log = DeliveryLog(
        timestamp_s=np.arange(n) * 0.05,
        direction_code=np.full(n, Direction.VEHICLE_TO_RSU.stream_code),
        tx_position_m=tx, rx_position_m=rx, distance_m=link_distance_m(tx, rx),
        rx_power_dbm=np.full(n, -70.0),
        reason_code=np.where(draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                             DELIVERED, BELOW_SNR).astype(int))
    kinds = ["number", "log direction", *["number"] * 8, "log delivered", "log reason"]
    return draw(_damaged(_rows(export_log_csv(log)), kinds))


@st.composite
def pdr_documents(draw):
    n = draw(st.integers(0, 6))
    width = draw(st.sampled_from([20.0, 12.5, 100.0 / 3.0]))
    sent = draw(st.lists(st.integers(0, 50), min_size=n, max_size=n))
    delivered = [draw(st.integers(0, s)) for s in sent]
    k = np.arange(n)
    rows = ([list(PDR_HEADERS)] if not n else _rows(export_pdr_csv(PdrCurve(
        width, k * width, (k + 1) * width, sent, delivered))))
    return draw(_damaged(rows, ["number", "number", "count", "count", "number"]))


@st.composite
def heatmap_documents(draw):
    n = draw(st.integers(0, 6))
    cell = draw(st.sampled_from([20.0, 25.0]))
    centers = draw(st.lists(st.tuples(_coord, _coord), min_size=n, max_size=n, unique=True))
    sent = draw(st.lists(st.integers(0, 50), min_size=n, max_size=n))
    delivered = [draw(st.integers(0, s)) for s in sent]
    rows = ([list(HEATMAP_HEADERS)] if not n else _rows(export_heatmap_csv(HeatmapGrid(
        cell, [c[0] for c in centers], [c[1] for c in centers], sent, delivered))))
    return draw(_damaged(rows, ["number", "number", "number", "count", "count", "number"]))


_T0_US = (datetime(2024, 3, 14, 15, tzinfo=timezone.utc) - EPOCH) // timedelta(microseconds=1)


@st.composite
def trace_documents(draw):
    """(text, epoch_ms) of a trace with drawn header spellings, column order and extra columns."""
    n = draw(st.integers(1, 5))
    steps = draw(st.lists(st.integers(0, 2 * 10**6), min_size=n, max_size=n))
    trace = Trace(time_us=_T0_US + np.cumsum(steps), latitude_deg=np.full(n, 45.0),
                  longitude_deg=draw(st.lists(st.sampled_from([-93.0, -93.001, -92.5]),
                                              min_size=n, max_size=n)),
                  altitude_ft=np.full(n, 900.0), heading_deg=np.full(n, 90.0),
                  speed_mph=np.full(n, 30.0),
                  transmission_code=draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                  message_code=draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                  direction_code=draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    rows = _rows(export_trace_csv(trace))
    epoch_ms = draw(st.booleans())
    if epoch_ms:
        for row, us in zip(rows[1:], trace.time_us.tolist()):
            row[0] = str(us // 1000)
    kinds = ["epoch" if epoch_ms else "iso", *["trace number"] * 5,
             *("trace " + name for name in _TRACE_WORDS)]
    rows[0] = [draw(st.sampled_from([name, *aliases, name.upper(), name.title()]))
               for name, aliases in _HEADER_SPELLINGS.items()]
    for _ in range(draw(st.integers(0, 2))):  # extra columns, one perhaps a repeated header
        name = draw(st.sampled_from(["rssi_dbm", "notes", "lat", "Direction"]))
        cells = [draw(st.sampled_from(["", "-71", "ok", "95.0", '"x,y"'])) for _ in rows[1:]]
        for row, cell in zip(rows, [name, *cells]):
            row.append(cell)
        kinds.append("number")
    if draw(st.booleans()):
        order = draw(st.permutations(range(len(kinds))))
        rows, kinds = [[row[j] for j in order] for row in rows], [kinds[j] for j in order]
    if draw(st.integers(0, 9)) == 5:  # a missing column
        j = draw(st.integers(0, len(kinds) - 1))
        rows, kinds = [row[:j] + row[j + 1:] for row in rows], kinds[:j] + kinds[j + 1:]
    return draw(_damaged(rows, kinds)), epoch_ms


def _outcome(parse, text, **kwargs):
    """The error type and message, or every field's dtype, shape and bytes."""
    try:
        result = parse(text, **kwargs)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return [(f.name, value.dtype.str, value.shape, value.tobytes())
            for f in fields(result) for value in [np.asarray(getattr(result, f.name))]]


_PARITY = settings(max_examples=300, deadline=None, derandomize=True,
                   suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("documents, parse, oracle", [
    (log_documents(), parse_log_csv, oracles.parse_log_csv),
    (pdr_documents(), parse_pdr_csv, oracles.parse_pdr_csv),
    (heatmap_documents(), parse_heatmap_csv, oracles.parse_heatmap_csv),
], ids=["log", "pdr", "heatmap"])
@_PARITY
@given(data=st.data())
def test_parsers_match_the_per_row_oracle(documents, parse, oracle, data):
    text = data.draw(documents)
    assert _outcome(parse, text) == _outcome(oracle, text)


@_PARITY
@given(document=trace_documents())
def test_trace_parser_matches_the_per_row_oracle(document):
    text, epoch_ms = document
    assert (_outcome(parse_trace_csv, text, epoch_ms=epoch_ms)
            == _outcome(oracles.parse_trace_csv, text, epoch_ms=epoch_ms))


# ---------------------------------------------------------------------------
# the reader's own rules
# ---------------------------------------------------------------------------

_LOG_ROW = ("0.000000000,vehicle_to_rsu,3.000000000,4.000000000,0.000000000,0.000000000,"
            "0.000000000,0.000000000,5.000000000,-70.000000000,true,delivered")
_TRACE_ROW = "2024-03-14T15:00:00.000000Z,45.0,-93.0,900,90,30,DSRC,BSM,Sent"
_PDR_ROW, _HEATMAP_ROW = "0,20,10,5,", "10,10,20,10,5,"
#: (parser, header, a good row, that row with its first number spelled as given).
_FORMATS = {
    "log": (parse_log_csv, ",".join(LOG_HEADERS), _LOG_ROW, "{}" + _LOG_ROW[11:]),
    "trace": (parse_trace_csv, ",".join(TRACE_HEADERS), _TRACE_ROW,
              _TRACE_ROW.replace("45.0", "{}")),
    "pdr": (parse_pdr_csv, ",".join(PDR_HEADERS), _PDR_ROW, "{}" + _PDR_ROW[1:]),
    "heatmap": (parse_heatmap_csv, ",".join(HEATMAP_HEADERS), _HEATMAP_ROW,
                "{}" + _HEATMAP_ROW[2:]),
}


@pytest.mark.parametrize("kind", _FORMATS)
def test_blank_lines_are_skipped_and_counted_in_every_format(kind):
    parse, header, row, spelled = _FORMATS[kind]
    # A leading blank line used to read as a missing header in all but the trace.
    assert len(parse("\n \t\n" + header + "\n,,\n" + row + "\n\n")) == 1
    with pytest.raises(ValueError, match=r"row 6: could not convert string to float: 'x'"):
        parse("\n" + header + "\n" + row + "\n , \n\r\n" + spelled.format("x") + "\n")


@pytest.mark.parametrize("spelling", ["1_0", "١"])
@pytest.mark.parametrize("kind", _FORMATS)
def test_numbers_are_ascii_without_underscores(kind, spelling):
    # float() reads both spellings (as 10.0 and 1.0) and loadtxt neither, so
    # the reader refuses them by row: its number grammar's gaps against float().
    parse, header, row, spelled = _FORMATS[kind]
    text = header + "\n" + row + "\n" + spelled.format(spelling) + "\n"
    message = f"row 3: could not convert string to float: '{spelling}'"
    with pytest.raises(ValueError, match=message):
        parse(text)
    oracle = getattr(oracles, parse.__name__)
    try:
        oracle(text)
    except ValueError as exc:  # a rule of the format may still refuse the value it read
        assert "could not convert" not in str(exc)


def test_counts_are_ascii_without_underscores():
    with pytest.raises(ValueError, match=r"row 2: invalid literal for int\(\) with base 10: "
                                         "'1_0'"):
        parse_pdr_csv(",".join(PDR_HEADERS) + "\n0,20,1_0,5,\n")


def test_trace_word_and_time_cells_have_a_width_limit():
    header = ",".join(TRACE_HEADERS) + "\n"
    padded = _TRACE_ROW.replace("DSRC", "DSRC" + " " * 13)
    with pytest.raises(TraceParseError, match=r"row 2: transmission_type cell 'DSRC +' is wider "
                                               "than 16 characters"):
        parse_trace_csv(header + padded + "\n")
    assert len(parse_trace_csv(header + _TRACE_ROW.replace("DSRC", "DSRC" + " " * 12) + "\n")) == 1
    padded = " " * 14 + _TRACE_ROW
    with pytest.raises(TraceParseError, match=r"row 2: time cell ' +2024-03-14T15:00:00\.000000Z' "
                                               "is wider than 40 characters"):
        parse_trace_csv(header + padded + "\n")
    assert len(parse_trace_csv(header + " " * 13 + _TRACE_ROW + "\n")) == 1


def test_a_quoted_cell_cannot_span_lines():
    text = ",".join(PDR_HEADERS) + '\n0,20,10,5,"a\nb"\n20,40,1,0,\n'
    with pytest.raises(ValueError, match="row 2: a quoted cell runs past the end of the line"):
        parse_pdr_csv(text)


def test_a_short_pdr_row_after_good_ones_is_named():
    # The per-row parser collected the edge cells of every row for its
    # messages, and a one-cell row after a good one escaped as an IndexError.
    with pytest.raises(ValueError, match="row 3: list index out of range"):
        parse_pdr_csv(",".join(PDR_HEADERS) + "\n0,20,10,5,\n20\n")
