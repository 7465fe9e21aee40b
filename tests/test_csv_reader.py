"""The column reader behind the four CSV parsers, against the per-row oracle.

Each parser reads a document in one vectorized pass; tests/oracles.py keeps
the same four parsers one record at a time. Fed the same documents, the two
must return bit-equal columns or raise the same message for the same row.
The documents start from valid exports and are then damaged: blank lines,
quoted cells, short and long rows, unknown and overlong words, words and
trace times followed by NULs, non-finite numbers, bad times, and for traces
header aliases, shuffled and extra columns, and non-ASCII cells, which keep
a trace's cells in UCS-4 where an ASCII trace's are bytes. The reader's few
deliberate refusals are pinned separately below. A log or trace file given
open in binary mode must read as the text of its text-mode read does, whether
it is loaded from the file or falls back to that text.
"""

import tracemalloc
from dataclasses import fields
from datetime import datetime, timedelta, timezone
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from v2xcal.dataio import (
    _CODE_COLUMNS,
    _HEADER_SPELLINGS,
    _LOG_WORDS as LOG_CODES,
    EPOCH,
    HEATMAP_HEADERS,
    LOG_HEADERS,
    PDR_HEADERS,
    TRACE_HEADERS,
    SynthSection,
    Trace,
    TraceParseError,
    _codes,
    _exported_time_us,
    _word_code,
    export_heatmap_csv,
    export_log_csv,
    export_pdr_csv,
    export_trace_csv,
    generate_synthetic,
    parse_heatmap_csv,
    parse_log_csv,
    parse_pdr_csv,
    parse_trace_csv,
    project_enu,
)
from v2xcal.config import RunConfig, apply_preset
from v2xcal.propagation import BELOW_SNR, DELIVERED, REASONS
from v2xcal.simulator import (DeliveryLog, Direction, HeatmapGrid, PdrCurve, link_distance_m,
                              run_scenario)

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
                  " vehicle_to_rsu", "VEHICLE_TO_RSU", "vehicle_to_rsu_and_back_again",
                  "vehicle_to_rsu\0", ""),
    "delivered": ("true", "false", '"false"', "yes", "True", " true", "truest_of_them_all",
                  "false\0", ""),
    "reason": (*(r.value for r in REASONS), '"delivered"', "lost", "delivered_late_and_overlong",
               "below_snr\0", ""),
}
#: Trace words include NBSP and em-space padding, which str.strip() removes, and a
#: full-width word, which no alias matches; either makes the document non-ASCII.
_TRACE_WORDS = {
    "transmission_type": ("DSRC", "CV2X", "dsrc", "c-v2x", " C-V2X  ", '"cv2x"', "LTE",
                          "transmission_over_the_air", "DSRC\0", "\u00a0DSRC\u00a0", ""),
    "message_type": ("BSM", "SPaT", "spat", "\tBSM", '"bsm"', "PSM", "basic_safety_message_x",
                     "ＢＳＭ", ""),
    "direction": ("Sent", "Received", "rx", "TX", " received ", '"sent"', "sideways",
                  "received_and_sent_too", "Sent\0\0", "\u2003rx", ""),
}
_ISO_TIMES = ("2024-03-14 15:00:01", "2024-03-14T15:00:02+05:00", " 2024-03-14T15:00:03.250000Z ",
              "2024-03-14T15:00:04z", "2024-03-14T15:00:05.123", "2024-02-29T12:00:00.000000Z",
              "0001-01-01T00:00:00.000000Z", "9999-12-31T23:59:59.999999Z",
              "2024-02-30T00:00:00.000000Z", "2023-02-29T00:00:00.000000Z",
              "2024-13-01T00:00:00.000000Z", "0000-01-01T00:00:00.000000Z",
              "2024-03-14T24:00:00.000000Z", "2024-03-14T15:60:00.000000Z",
              "2024-03-14T15:00:60.000000Z", "2024-03-14T15:00:00.00000xZ",
              "\u00a02024-03-14T15:00:06.000000Z", "garbage", "")
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
def exported_logs(draw):
    """The text export_log_csv writes for a log of 0-6 packets."""
    n = draw(st.integers(0, 6))
    x, y = (draw(st.lists(_coord, min_size=n, max_size=n)) for _ in range(2))
    tx, rx = np.column_stack([x, y, np.zeros(n)]), np.zeros((n, 3))
    return export_log_csv(DeliveryLog(
        timestamp_s=np.arange(n) * 0.05,
        direction_code=np.full(n, Direction.VEHICLE_TO_RSU.stream_code),
        tx_position_m=tx, rx_position_m=rx, distance_m=link_distance_m(tx, rx),
        rx_power_dbm=np.full(n, -70.0),
        reason_code=np.where(draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                             DELIVERED, BELOW_SNR).astype(int)))


@st.composite
def log_documents(draw):
    kinds = ["number", "log direction", *["number"] * 8, "log delivered", "log reason"]
    return draw(_damaged(_rows(draw(exported_logs())), kinds))


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
def exported_traces(draw):
    """(rows, epoch_ms) of the text export_trace_csv writes for a trace of 1-5 records, header
    first, its times perhaps rewritten as epoch milliseconds."""
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
    return rows, epoch_ms


def _trace_kinds(epoch_ms: bool) -> list:
    """The pool of each trace column, in TRACE_HEADERS order."""
    return ["epoch" if epoch_ms else "iso", *["trace number"] * 5,
            *("trace " + name for name in _TRACE_WORDS)]


@st.composite
def trace_documents(draw):
    """(text, epoch_ms) of a trace with drawn header spellings, column order and extra columns."""
    rows, epoch_ms = draw(exported_traces())
    if draw(st.integers(0, 3)) == 0:  # a good time or word with NULs after it
        row, j = draw(st.sampled_from(rows[1:])), draw(st.sampled_from([0, 6, 7, 8]))
        row[j] += draw(st.sampled_from(["\0", "\0\0", "\0x"]))
    kinds = _trace_kinds(epoch_ms)
    rows[0] = [draw(st.sampled_from([name, *aliases, name.upper(), name.title()]))
               for name, aliases in _HEADER_SPELLINGS.items()]
    for _ in range(draw(st.integers(0, 2))):  # extra columns, one perhaps a repeated header
        name = draw(st.sampled_from(["rssi_dbm", "notes", "lat", "Direction"]))
        cells = [draw(st.sampled_from(["", "-71", "ok", "95.0", '"x,y"', "café", "☕"]))
                 for _ in rows[1:]]
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


# A fixed-width word field drops a cell's trailing NULs, so the column pass
# alone would read each of these cells as the bare word.
@pytest.mark.parametrize("row, refusal", [
    (_LOG_ROW.replace("vehicle_to_rsu", "vehicle_to_rsu\0"),
     "unknown enum value 'vehicle_to_rsu\\x00'"),
    (_LOG_ROW.replace("true,delivered", "false\0,below_snr"),
     "delivered must be true or false, got 'false\\x00'"),
    (_LOG_ROW.replace("true,delivered", "false,below_snr\0"),
     "unknown enum value 'below_snr\\x00'"),
], ids=["direction", "delivered", "reason"])
def test_log_words_ending_in_nul_are_refused_by_row(row, refusal):
    for parse in (parse_log_csv, oracles.parse_log_csv):
        with pytest.raises(ValueError) as error:
            parse(",".join(LOG_HEADERS) + "\n" + row + "\n")
        assert str(error.value) == "row 2: " + refusal


@pytest.mark.parametrize("row, refusal", [
    ("," + _TRACE_ROW.replace("DSRC", "DSRC\0"), "unknown transmission_type 'DSRC\\x00'"),
    ("," + _TRACE_ROW.replace("Sent", "Sent\0\0"), "unknown direction 'Sent\\x00\\x00'"),
    ("no\0te\0," + _TRACE_ROW, None),  # NULs in a column the reader does not load
], ids=["transmission_type", "direction", "unread_column"])
def test_trace_words_ending_in_nul_are_refused_by_row(row, refusal):
    text = "notes," + ",".join(TRACE_HEADERS) + "\n" + row + "\n"
    for parse in (parse_trace_csv, oracles.parse_trace_csv):
        if refusal is None:
            assert len(parse(text)) == 1
            continue
        with pytest.raises(TraceParseError) as error:
            parse(text)
        assert str(error.value) == "malformed rows: row 2: " + refusal


@pytest.mark.parametrize("suffix", ["\0", "\0\0", "\0x"], ids=["nul", "nuls", "nul_x"])
@pytest.mark.parametrize("time", ["2024-03-14T15:00:01.000000Z", "2024-03-14T15:00:01+00:00",
                                  "2024-03-14T15:00:01"])
def test_trace_times_holding_a_nul_are_refused_by_row(time, suffix):
    # datetime.fromisoformat read "...Z\0x" as the time before the NUL, and the
    # column pass matched the export's pattern, whose last unit is the NUL pad.
    cell = time + suffix
    text = (",".join(TRACE_HEADERS) + "\n" + _TRACE_ROW + "\n"
            + _TRACE_ROW.replace("2024-03-14T15:00:00.000000Z", cell) + "\n")
    for parse in (parse_trace_csv, oracles.parse_trace_csv):
        with pytest.raises(TraceParseError) as error:
            parse(text)
        assert str(error.value) == f"malformed rows: row 3: time {cell!r} holds a NUL"


def test_an_ascii_trace_reads_in_little_more_memory_than_its_text():
    # The 3,001-row acceptance trace, 321 kB of text. Held as bytes, its cells
    # take 133 bytes a row and the read peaks about 1.4 MB above its input;
    # held as UCS-4, they take 412 and the read peaks 2.86 MB above it.
    config = RunConfig()
    route = SynthSection(waypoints_enu_m=((-2000.0, 8.0, 0.0), (2000.0, 8.0, 0.0)),
                         duration_s=300.0)
    text = export_trace_csv(generate_synthetic(route, config.radio, config.fading, config.rsu,
                                               config.scenario)[0])
    parse_trace_csv(text)  # the first call imports what the reader uses lazily
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = parse_trace_csv(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) == 3001
    assert peak - before <= 2.0e6


# ---------------------------------------------------------------------------
# a log read from its file
# ---------------------------------------------------------------------------


@st.composite
def log_files(draw) -> bytes:
    """The bytes of a log file: an export, as written or damaged, perhaps with one more injury
    that takes it out of the exported form or out of UTF-8."""
    text = draw(st.one_of(exported_logs(), log_documents()))
    at = draw(st.integers(0, len(text)))
    injury = draw(st.sampled_from([
        None, None, None, "\r\n", "\r", "\0", "é", " ", '"', "\n", ",,\n", "unended",
        "empty", "undecodable"]))
    if injury in ("\r\n", "\r"):
        text = text.replace("\n", injury)
    elif injury == "unended":
        text = text.rstrip("\n")
    elif injury == "empty":
        text = ""
    elif injury not in (None, "undecodable"):
        text = text[:at] + injury + text[at:]
    data = text.encode()
    return data[:at] + b"\xff" + data[at:] if injury == "undecodable" else data


def _text_mode_outcome(path, parse, **kwargs):
    """_outcome of parse on the text of a text-mode read, or that read's own error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return _outcome(parse, text, **kwargs)


_LOG_FILE = (",".join(LOG_HEADERS) + "\n" + _LOG_ROW + "\n").encode()


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=log_files())
@example(data=_LOG_FILE)
@example(data=_LOG_FILE.replace(b"vehicle_to_rsu", b"vehicle_to_rsu\0"))  # a cell drops its NUL
@example(data=_LOG_FILE.replace(b"3.000000000", b"3.000000000\xa0"))  # not UTF-8; loadtxt strips it
@example(data=_LOG_FILE.replace(b"reason", b"reasom", 1))  # a header of the exported length
@example(data=_LOG_FILE.replace(b"delivered\n", b"delivered\r\n"))
@example(data=_LOG_FILE.replace(b",-70.000000000,", b',"-70.000000000\r",'))  # \r is \n as text
@example(data=_LOG_FILE.replace(b",-70.000000000,", b',"-70.000000000\n",'))  # one row, two lines
def test_a_log_file_reads_as_its_text_mode_read(tmp_path, data):
    path = tmp_path / "log.csv"
    path.write_bytes(data)
    with open(path, "rb") as fh:
        assert _outcome(parse_log_csv, fh) == _text_mode_outcome(path, parse_log_csv)


def test_an_exported_log_reads_from_its_file_in_less_memory_than_its_text(tmp_path):
    # The 6,000-row acceptance log, 886 kB. Loaded from the open file, the read
    # peaks about 1.3 MB above its input; read as text, which it holds next to
    # the file's bytes and a list of its lines, it peaks 3.4 MB above it.
    config = apply_preset(RunConfig(), "calibrated")
    route = SynthSection(waypoints_enu_m=((-2000.0, 8.0, 0.0), (2000.0, 8.0, 0.0)),
                         duration_s=300.0)
    trace = generate_synthetic(route, config.radio, config.fading, config.rsu,
                               config.scenario)[0]
    path = tmp_path / "log.csv"
    path.write_bytes(export_log_csv(run_scenario(project_enu(trace, config.rsu), config.scenario,
                                                 config.radio, config.fading)).encode())
    with open(path, "rb") as fh:
        parse_log_csv(fh)  # the first call imports what the reader uses lazily
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            log = parse_log_csv(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(log) == 6000
    assert peak - before <= 1.6e6


# ---------------------------------------------------------------------------
# a trace read from its file
# ---------------------------------------------------------------------------


@st.composite
def trace_files(draw) -> tuple:
    """(bytes, epoch_ms) of a trace file: an export, its times perhaps in epoch milliseconds and
    the flag perhaps not matching them, the export with damaged rows, or a damaged trace
    document; perhaps with one more injury that takes it out of the exported form or out of
    UTF-8."""
    rows, epoch_ms = draw(exported_traces())
    text, epoch_ms = draw(st.one_of(
        st.just(("\n".join(",".join(row) for row in rows) + "\n", epoch_ms)),
        _damaged(rows, _trace_kinds(epoch_ms)).map(lambda text: (text, epoch_ms)),
        trace_documents()))
    epoch_ms ^= draw(st.integers(0, 4)) == 0
    at = draw(st.integers(0, len(text)))
    injury = draw(st.sampled_from([
        *[None] * 6, "\r\n", "\r", "\0", "é", " ", '"', "\n", ",,\n", "unended", "empty",
        "undecodable", "header only", "alias", "swap"]))
    lines = text.split("\n")
    if injury in ("\r\n", "\r"):
        text = text.replace("\n", injury)
    elif injury == "unended":
        text = text.rstrip("\n")
    elif injury == "empty":
        text = ""
    elif injury == "header only":
        text = lines[0] + "\n"
    elif injury == "alias":
        text = text.replace("time,latitude,", "timestamp,lat,", 1)
    elif injury == "swap":  # two records, and so most often their times, out of order
        text = "\n".join([lines[0], *lines[2:3], *lines[1:2], *lines[3:]])
    elif injury not in (None, "undecodable"):
        text = text[:at] + injury + text[at:]
    data = text.encode()
    return (data[:at] + b"\xff" + data[at:] if injury == "undecodable" else data), epoch_ms


_TRACE_FILE = export_trace_csv(Trace(
    time_us=_T0_US + np.array([0, 10**5]), latitude_deg=[45.0, 45.0],
    longitude_deg=[-93.0, -93.0], altitude_ft=[900.0, 900.0], heading_deg=[90.0, 90.0],
    speed_mph=[30.0, 30.0], transmission_code=[0, 1], message_code=[0, 1],
    direction_code=[0, 1])).encode()
_HEADER_LINE, _FIRST, _SECOND, _ = _TRACE_FILE.split(b"\n")
#: _TRACE_FILE with a second time of a day that does not exist: numpy refuses its whole column.
_LEAP_DAY_FILE = _TRACE_FILE.replace(_SECOND, b"2023-02-29" + _SECOND[10:])


# The examples from the swapped header to the backward times each take the file route, and
# read otherwise than their text does, if one guard of that route is dropped.
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(file=trace_files())
@example(file=(_TRACE_FILE, False))
@example(file=(_TRACE_FILE, True))  # epoch_ms: the text route, which refuses ISO times
@example(file=(_TRACE_FILE.replace(b"latitude,longitude", b"longitude,latitude"), False))
@example(file=(_TRACE_FILE.replace(b"900.000000000", b"900.000000000\xa0", 1), False))  # not UTF-8
@example(file=(_TRACE_FILE.replace(b",900.000000000,", b',"900.000000000\r",', 1), False))
@example(file=(_TRACE_FILE.replace(b"Sent", b"Sent\0"), False))  # a cell drops its NUL
@example(file=(_TRACE_FILE.replace(b",900.000000000,", b',"900.000000000\n",', 1), False))
@example(file=(_TRACE_FILE.replace(b"45.000000000", b"91.000000000", 1), False))  # a row rule
@example(file=(b"\n".join([_HEADER_LINE, _SECOND, _FIRST, b""]), False))  # times run backwards
@example(file=(_TRACE_FILE.replace(b"DSRC", b"LTE"), False))  # a word no column decodes
@example(file=(_TRACE_FILE.replace(b"time,latitude", b"timestamp,lat", 1), False))  # an alias
@example(file=(_LEAP_DAY_FILE, False))  # row 3: day is out of range for month
@example(file=(_LEAP_DAY_FILE.replace(b"\n", b"\r\n"), False))
def test_a_trace_file_reads_as_its_text_mode_read(tmp_path, file):
    data, epoch_ms = file
    path = tmp_path / "trace.csv"
    path.write_bytes(data)
    with open(path, "rb") as fh:
        assert (_outcome(parse_trace_csv, fh, epoch_ms=epoch_ms)
                == _text_mode_outcome(path, parse_trace_csv, epoch_ms=epoch_ms))


#: _TRACE_FILE with its times in epoch milliseconds.
_EPOCH_TRACE_FILE = b"\n".join([_HEADER_LINE, b"%d" % (_T0_US // 1000) + _FIRST[27:],
                                b"%d" % (_T0_US // 1000 + 100) + _SECOND[27:], b""])


@pytest.mark.parametrize("parse, data, kwargs, error", [
    (parse_log_csv, _LOG_FILE + _LOG_ROW.replace(",5.0", ",5.5").encode() + b"\n",
     {}, ("ValueError", "row 3: distance column 5.5 disagrees with positions (5.000000000)")),
    (parse_trace_csv, b"\n".join([_HEADER_LINE, _FIRST, _SECOND.replace(b"45.", b"95."), b""]),
     {}, ("TraceParseError", "malformed rows: row 3: latitude 95.0 outside [-90, 90]")),
    (parse_trace_csv, b"\n".join([_HEADER_LINE, _SECOND, _FIRST, b""]),
     {}, ("TraceParseError", "timestamps not non-decreasing at record 1")),
    (parse_trace_csv, _EPOCH_TRACE_FILE, {"epoch_ms": True}, None),
], ids=["log-distance", "trace-latitude", "trace-backwards", "trace-epoch-ms"])
def test_an_exported_file_loads_from_it_with_a_bad_row_or_epoch_times(tmp_path, caplog, parse,
                                                                        data, kwargs, error):
    # Each file is in its exported form and every line loads, so it is read straight from the
    # file, yet its rows meet the text route's rules and messages; its CRLF copy is read as text.
    exported, crlf = tmp_path / "exported.csv", tmp_path / "crlf.csv"
    exported.write_bytes(data)
    crlf.write_bytes(data.replace(b"\n", b"\r\n"))
    outcomes = []
    with caplog.at_level("DEBUG", logger="v2xcal.dataio"):
        for path in (exported, crlf):
            with open(path, "rb") as fh:
                outcomes.append(_outcome(parse, fh, **kwargs))
    assert outcomes == [_text_mode_outcome(exported, parse, **kwargs)] * 2
    assert isinstance(outcomes[0], list) if error is None else outcomes[0] == error
    assert [record.getMessage() for record in caplog.records] == [
        f"{exported}: loaded straight from its file", f"{crlf}: read as text"]


def _acceptance_trace_file(tmp_path):
    """The 3,001-row acceptance trace, written by export_trace_csv to a file."""
    config = RunConfig()
    route = SynthSection(waypoints_enu_m=((-2000.0, 8.0, 0.0), (2000.0, 8.0, 0.0)),
                         duration_s=300.0)
    path = tmp_path / "trace.csv"
    path.write_bytes(export_trace_csv(generate_synthetic(route, config.radio, config.fading,
                                                         config.rsu, config.scenario)[0]).encode())
    return path


def test_an_exported_trace_reads_from_its_file_in_less_memory_than_its_text(tmp_path):
    # The 3,001-row acceptance trace, 321 kB. Loaded from the open file, the read
    # peaks about 0.76 MB above its input; read as text, which it holds next to
    # a list of its lines, it peaks about 1.6 MB above it.
    path = _acceptance_trace_file(tmp_path)
    with open(path, "rb") as fh:
        parse_trace_csv(fh)  # the first call imports what the reader uses lazily
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = parse_trace_csv(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(trace) == 3001
    assert peak - before <= 1.1e6


def test_exported_times_decode_in_less_memory_than_calendar_arithmetic(tmp_path, monkeypatch):
    # The time field of the 3,001-row acceptance trace as loaded from its file, 41-byte cells
    # of the loaded table. numpy's datetime64 parse peaks about 0.18 MB above it; the
    # integer calendar arithmetic it replaced peaked at 0.36 MB.
    path = _acceptance_trace_file(tmp_path)
    loaded = []
    monkeypatch.setattr("v2xcal.dataio._exported_time_us",
                        lambda cells: loaded.append(cells) or _exported_time_us(cells))
    with open(path, "rb") as fh:
        parse_trace_csv(fh)
    (cells,) = loaded
    assert cells.shape == (3001,) and cells.dtype == "S41"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, ok = _exported_time_us(cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok.all()
    assert peak - before <= 0.26e6


# ---------------------------------------------------------------------------
# the column decoders
# ---------------------------------------------------------------------------


def _iso_us(text: str):
    """Microseconds of an export-spelled time by datetime.fromisoformat, or None if refused."""
    try:
        t = datetime.fromisoformat(text[:-1] + "+00:00")
    except ValueError:
        return None
    return (t - EPOCH) // timedelta(microseconds=1)


def _numpy_us(text: str):
    """Microseconds of an export-spelled time by numpy's datetime64 parse, or None if refused."""
    try:
        return int(np.array([text[:-1]]).astype("M8[us]").view(np.int64)[0])
    except ValueError:
        return None


def _read_alone(text: str, string_kind: str):
    """_exported_time_us of a column of this one time: its microseconds, or None if unread."""
    time_us, ok = _exported_time_us(np.array([text], dtype=string_kind + "41"))
    return int(time_us[0]) if ok[0] else None


def _assert_times_read_as_the_parsers_do(texts: list, string_kind: str):
    for text in texts:
        expected = _iso_us(text)
        assert _read_alone(text, string_kind) == expected, text
        if expected is not None:  # numpy also reads year 0, which datetime refuses
            assert _numpy_us(text) == expected, text
    # numpy refuses a whole column for one time that does not exist; then no cell is read.
    time_us, ok = _exported_time_us(np.array(texts, dtype=string_kind + "41"))
    column = all(_numpy_us(text) is not None for text in texts)
    assert [us if read else None for us, read in zip(time_us.tolist(), ok.tolist())] == [
        _read_alone(text, string_kind) if column else None for text in texts]


def _spelled(y, mo, d, h, mi, s, us):
    return f"{y:04d}-{mo:02d}-{d:02d}T{h:02d}:{mi:02d}:{s:02d}.{us:06d}Z"


_instants = st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59,
                                                                          999999))
_fields = st.tuples(st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32),
                    st.integers(0, 24), st.integers(0, 60), st.integers(0, 60),
                    st.integers(0, 999999))


#: The trace reader holds an ASCII document's cells as bytes (S), any other's as UCS-4 (U).
_KINDS = pytest.mark.parametrize("string_kind", ["U", "S"])


@_KINDS
@settings(max_examples=200, deadline=None, derandomize=True)
@given(texts=st.lists(st.one_of(
    _instants.map(lambda t: _spelled(t.year, t.month, t.day, t.hour, t.minute, t.second,
                                     t.microsecond)),
    _fields.map(lambda f: _spelled(*f))), min_size=1, max_size=20))
def test_exported_times_read_as_datetime_and_numpy_read_them(texts, string_kind):
    _assert_times_read_as_the_parsers_do(texts, string_kind)


@_KINDS
def test_exported_times_at_the_calendar_edges(string_kind):
    valid = ["0001-01-01T00:00:00.000000Z", "9999-12-31T23:59:59.999999Z",
             *(f"{y}-02-29T12:00:00.000000Z" for y in (1600, 2000, 2024)),
             *(f"{y}-03-01T00:00:00.000000Z" for y in (1600, 1900, 2000))]
    damaged = ["2024-00-10T00:00:00.000000Z", "2024-13-10T00:00:00.000000Z",
               "2024-03-00T00:00:00.000000Z", "2024-03-32T00:00:00.000000Z",
               "2023-02-29T00:00:00.000000Z", "1900-02-29T00:00:00.000000Z",
               "2024-04-31T00:00:00.000000Z", "2024-03-14T24:00:00.000000Z",
               "2024-03-14T15:60:00.000000Z", "2024-03-14T15:00:60.000000Z",
               "0000-01-01T00:00:00.000000Z"]
    _assert_times_read_as_the_parsers_do(valid + damaged, string_kind)
    assert [_read_alone(text, string_kind) is not None for text in valid + damaged] == (
        [True] * len(valid) + [False] * len(damaged))
    assert _exported_time_us(np.array(valid, dtype=string_kind + "41"))[1].all()


def test_every_exported_log_word_decodes_as_the_per_distinct_lookup():
    # Both directions, every reason, and the delivered flag each implies.
    n = 2 * len(REASONS)
    tx = np.column_stack([np.arange(n) * 3.0, np.full(n, 4.0), np.zeros(n)])
    log = DeliveryLog(np.arange(n) * 0.05, np.arange(n) % 2, tx, np.zeros((n, 3)),
                      link_distance_m(tx, np.zeros((n, 3))), np.full(n, -70.0),
                      np.arange(n) // 2)
    text = export_log_csv(log)
    parsed = parse_log_csv(text)
    assert parsed.direction_code.tolist() == log.direction_code.tolist()
    assert parsed.reason_code.tolist() == log.reason_code.tolist()
    assert _outcome(parse_log_csv, text) == _outcome(oracles.parse_log_csv, text)
    for name, words in LOG_CODES.items():
        cells = np.array([line.split(",")[LOG_HEADERS.index(name)]
                          for line in text.splitlines()[1:]] + ["", "TRUE"], dtype="S")
        spelled = _codes(cells, {word.encode(): code for word, code in words.items()})
        looked_up = _codes(cells, {}, lambda cell, words=words: words.get(cell.decode(), -1))
        assert spelled.tolist() == looked_up.tolist()
        assert sorted(set(spelled.tolist())) == [-1, *sorted(words.values())]


@_KINDS
def test_trace_words_in_mixed_spellings_decode_as_the_per_distinct_lookup(string_kind):
    spellings = (("DSRC", "dsrc", " C-V2X ", "CV2X", "c-v2x", "Cv2x"),
                 ("BSM", "spat", "SPaT", "\tbsm", "SPAT", "BSM"),
                 ("Sent", "rx", "Received", " TX", "received", "Sent"))
    rows = [f"2024-03-14T15:00:0{i}.000000Z,45.0,-93.0,900,90,30," + ",".join(words)
            for i, words in enumerate(zip(*spellings))]
    text = ",".join(TRACE_HEADERS) + "\n" + "\n".join(rows) + "\n"
    assert len(parse_trace_csv(text)) == len(rows)
    assert _outcome(parse_trace_csv, text) == _outcome(oracles.parse_trace_csv, text)
    for (_, _, kinds, aliases), words in zip(_CODE_COLUMNS, spellings):
        cells = np.array([*words, "LTE", "DSRC" + " " * 13], dtype=string_kind + "17")
        code_of = partial(_word_code, kinds=kinds, aliases=aliases)
        spelled = _codes(cells, {kind.value: code for code, kind in enumerate(kinds)}, code_of)
        assert spelled.tolist() == _codes(cells, {}, code_of).tolist()
        assert spelled.tolist() == [kinds.index(aliases[word.strip().lower()])
                                    for word in words] + [-1, -1]
