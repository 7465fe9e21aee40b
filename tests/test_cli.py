"""End-to-end command-line checks: exit codes, artifacts, determinism."""

import contextlib
import io
import json
import logging
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import v2xcal
from v2xcal.calibration import parse_history_csv
from v2xcal.cli import build_parser, main
from v2xcal.config import RunConfig, apply_preset, parse_config, planted_params_text, render_config
from v2xcal.dataio import export_log_csv, export_pdr_csv, parse_log_csv, parse_pdr_csv
from v2xcal.simulator import DeliveryLog, PdrCurve, link_distance_m

SHORT_ROUTE = (
    "synth.waypoints_enu_m = -400.0,8.0,0.0; 400.0,8.0,0.0\n"
    "synth.duration_s = 60.0\n"
)


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A small calibrated-channel synthetic dataset built through the CLI."""
    root = tmp_path_factory.mktemp("dataset")
    spec = root / "route.txt"
    spec.write_text(SHORT_ROUTE, encoding="utf-8")
    out = root / "synth"
    code = main(["synth", str(spec), "--preset", "calibrated", "--out", str(out)])
    assert code == 0
    return {
        "spec": str(spec),
        "trace": str(out / "trace.csv"),
        "observed": str(out / "observed_pdr.csv"),
        "planted": str(out / "planted_params.txt"),
        "config": str(out / "resolved_config.txt"),
    }


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_writes_expected_artifacts(dataset, capsys):
    for key in ("trace", "observed", "planted", "config"):
        assert os.path.isfile(dataset[key])
    capsys.readouterr()


def test_synth_is_byte_deterministic(dataset, tmp_path):
    again = tmp_path / "again"
    assert main(["synth", dataset["spec"], "--preset", "calibrated", "--out", str(again)]) == 0
    for name in ("trace.csv", "observed_pdr.csv", "planted_params.txt", "resolved_config.txt"):
        assert read(str(again / name)) == read(os.path.join(os.path.dirname(dataset["trace"]), name))


def test_synth_planted_params_match_preset(dataset):
    expected = planted_params_text(apply_preset(parse_config(SHORT_ROUTE), "calibrated"))
    assert read(dataset["planted"]) == expected


def test_synth_resolved_config_is_reparseable(dataset):
    text = read(dataset["config"])
    assert render_config(parse_config(text)) == text


def test_synth_seed_flag_changes_dataset(dataset, tmp_path):
    out = tmp_path / "reseeded"
    assert main(["synth", dataset["spec"], "--preset", "calibrated",
                 "--seed", "77", "--out", str(out)]) == 0
    assert read(str(out / "observed_pdr.csv")) != read(dataset["observed"])
    assert "seed = 77" in read(str(out / "planted_params.txt"))


def test_synth_rejects_bad_route(tmp_path):
    spec = tmp_path / "bad.txt"
    spec.write_text("synth.waypoints_enu_m = 0.0,0.0,0.0\n", encoding="utf-8")
    assert main(["synth", str(spec), "--out", str(tmp_path / "o")]) == 2


def test_synth_refuses_a_route_that_sends_no_packet(tmp_path, capsys):
    # A 0.5 s drive at 1 Hz sends nothing. synth wrote a header-only
    # observed_pdr.csv, which calibrate then refused, and exited 0.
    spec = tmp_path / "short.txt"
    spec.write_text("synth.duration_s = 0.5\nscenario.bsm_rate_hz = 1.0\n"
                    "scenario.spat_rate_hz = 1.0\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["synth", str(spec), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: synthetic route: the 0.5 s drive sends no packet "
                                       "at its message rates\n")
    assert not out.exists()


def test_synth_rejects_unknown_spec_key(tmp_path, capsys):
    spec = tmp_path / "bad.txt"
    spec.write_text("synth.velocity = 99\n", encoding="utf-8")
    assert main(["synth", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert "synth.velocity" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_reproduces_synthetic_observation(dataset, tmp_path, capsys):
    # Same planted channel, same seed: the replay regenerates the synthetic
    # curve byte for byte.
    out = tmp_path / "sim"
    code = main(["simulate", dataset["trace"], "--preset", "calibrated", "--out", str(out)])
    assert code == 0
    assert read(str(out / "pdr.csv")) == read(dataset["observed"])
    stdout = capsys.readouterr().out
    assert "packets sent 1200, delivered" in stdout
    assert "overall pdr" in stdout


def test_simulate_is_byte_deterministic(dataset, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["simulate", dataset["trace"], "--preset", "calibrated",
                     "--out", str(out)]) == 0
    for name in ("log.csv", "pdr.csv", "heatmap.csv", "resolved_config.txt"):
        assert read(str(a / name)) == read(str(b / name))


def test_each_main_call_logs_to_its_own_stderr(dataset, tmp_path):
    # main used to bind a root handler to the stderr of the call that made
    # it. Once that stream closed, as a test's capture does, a later warning
    # raised "I/O operation on closed file" inside logging.
    for k in range(2):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", dataset["trace"], "-v", "--out", str(tmp_path / str(k))]) == 0
        assert "INFO v2xcal.cli: parsed" in err.getvalue()
        err.close()
    after = io.StringIO()
    with contextlib.redirect_stderr(after):
        logging.getLogger("v2xcal.calibration").warning("logged after main returned")
    assert "Logging error" not in after.getvalue()


def test_simulate_missing_trace_is_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.csv")
    assert main(["simulate", missing, "--out", str(tmp_path)]) == 2
    assert missing in capsys.readouterr().err


def test_simulate_malformed_trace_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "time,latitude,longitude,altitude_ft,heading_deg,speed_mph,"
        "transmission_type,message_type,direction\n"
        "2024-03-14T15:00:00Z,99.0,-93.0,900,90,30,DSRC,BSM,Sent\n"
        "2024-03-14T15:00:01Z,45.0,-93.0,900,90,30,DSRC,BSM,Sent\n",
        encoding="utf-8",
    )
    assert main(["simulate", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "row 2" in capsys.readouterr().err


def test_simulate_direction_filter_halves_the_curve(dataset, tmp_path):
    both = tmp_path / "both"
    bsm = tmp_path / "bsm"
    assert main(["simulate", dataset["trace"], "--preset", "calibrated", "--out", str(both)]) == 0
    assert main(["simulate", dataset["trace"], "--preset", "calibrated",
                 "--direction", "bsm", "--out", str(bsm)]) == 0
    total_both = parse_pdr_csv(read(str(both / "pdr.csv"))).sent.sum()
    total_bsm = parse_pdr_csv(read(str(bsm / "pdr.csv"))).sent.sum()
    assert total_both == 1200 and total_bsm == 600
    # The log keeps every packet regardless of the aggregation filter.
    assert len(parse_log_csv(read(str(bsm / "log.csv")))) == 1200


def test_simulate_seed_flag_changes_outcomes(dataset, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", dataset["trace"], "--preset", "calibrated",
                 "--seed", "1", "--out", str(a)]) == 0
    assert main(["simulate", dataset["trace"], "--preset", "calibrated",
                 "--seed", "2", "--out", str(b)]) == 0
    assert read(str(a / "log.csv")) != read(str(b / "log.csv"))
    assert "scenario.master_seed = 1" in read(str(a / "resolved_config.txt"))


def test_simulate_config_file_sets_grid(dataset, tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("scenario.bin_width_m = 50.0\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["simulate", dataset["trace"], "--preset", "calibrated",
                 "--config", str(cfg), "--out", str(out)]) == 0
    assert parse_pdr_csv(read(str(out / "pdr.csv"))).bin_width_m == 50.0


def test_simulate_bad_config_key_is_usage_error(dataset, tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("scenario.bins = 5\n", encoding="utf-8")
    assert main(["simulate", dataset["trace"], "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "cfg.txt" in err and "scenario.bins" in err


def test_simulate_epoch_ms_traces(tmp_path):
    trace = tmp_path / "epoch.csv"
    trace.write_text(
        "time,latitude,longitude,altitude_ft,heading_deg,speed_mph,"
        "transmission_type,message_type,direction\n"
        "1710428400000,45.0001,-93.0,900,90,30,DSRC,BSM,Sent\n"
        "1710428410000,45.0002,-93.0,900,90,30,DSRC,BSM,Sent\n",
        encoding="utf-8",
    )
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("rsu.altitude_ft = 900.0\n", encoding="utf-8")
    assert main(["simulate", str(trace), "--epoch-ms", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 0


def test_simulate_refuses_epoch_ms_outside_the_calendar(tmp_path, capsys):
    trace = tmp_path / "epoch.csv"
    trace.write_text(
        "time,latitude,longitude,altitude_ft,heading_deg,speed_mph,"
        "transmission_type,message_type,direction\n"
        "1710428400000,45.0001,-93.0,900,90,30,DSRC,BSM,Sent\n"
        "-99999999999999999999,45.0002,-93.0,900,90,30,DSRC,BSM,Sent\n",
        encoding="utf-8",
    )
    assert main(["simulate", str(trace), "--epoch-ms", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "epoch.csv" in err and "row 3: time -99999999999999999999 ms" in err


@pytest.mark.parametrize("command", ["simulate", "calibrate"])
def test_a_record_far_above_the_rsu_is_refused_by_name(dataset, tmp_path, capsys, command):
    # The vehicle's logged z, rounded to 9 decimals, overflowed to inf, and the run
    # failed with "distance must be finite and positive", naming no file or record.
    trace = tmp_path / "high.csv"
    lines = read(dataset["trace"]).split("\n")
    cells = lines[2].split(",")
    lines[2] = ",".join([*cells[:3], "1e300", *cells[4:]])
    trace.write_text("\n".join(lines), encoding="utf-8")
    out = tmp_path / "o"
    args = (["simulate", str(trace), "--out", str(out)] if command == "simulate"
            else calibrate_args({**dataset, "trace": str(trace)}, out))
    assert main(args) == 1
    assert capsys.readouterr().err == (f"error: {trace}: record 1 lies 3.048e+296 km above the "
                                       f"RSU; projection is limited to 50 km\n")


@pytest.mark.parametrize("setting, code, message", [
    ("rsu.altitude_ft = 1e308", 1,
     "{trace}: record 0 lies 3.048e+304 km below the RSU; projection is limited to 50 km"),
    ("scenario.rsu_x_m = 1e308", 2,
     "{cfg}: invalid configuration: rsu_x_m 1e+308 overflows its 9-decimal rounding"),
    ("scenario.rsu_y_m = -1e300", 2,
     "{cfg}: invalid configuration: rsu_y_m -1e+300 overflows its 9-decimal rounding"),
    ("scenario.rsu_z_m = 1.8e299", 2,
     "{cfg}: invalid configuration: rsu_z_m 1.8e+299 overflows its 9-decimal rounding"),
], ids=["rsu-altitude", "rsu-x", "rsu-y", "rsu-z"])
def test_a_huge_rsu_altitude_or_offset_is_refused_by_name(dataset, tmp_path, capsys, setting,
                                                           code, message):
    # Each failed the run with "distance must be finite and positive", exit 1: the
    # RSU's logged position, rounded to 9 decimals, overflowed to inf.
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(setting + "\n", encoding="utf-8")
    assert main(["simulate", dataset["trace"], "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err == (
        "error: " + message.format(trace=dataset["trace"], cfg=cfg) + "\n")


@pytest.mark.parametrize("command", ["simulate", "calibrate", "synth"])
def test_a_message_rate_past_max_packets_is_refused_by_name(dataset, tmp_path, capsys, command):
    # np.arange was asked for 6e301 sends: "Maximum allowed size exceeded", exit 1
    # (exit 2 from synth), naming neither the key nor the trace.
    cfg, out = tmp_path / "rate.txt", tmp_path / "o"
    cfg.write_text("scenario.spat_rate_hz = 1e300\n", encoding="utf-8")
    argv = {"simulate": ["simulate", dataset["trace"], "--out", str(out)],
            "calibrate": calibrate_args(dataset, out),
            "synth": ["synth", dataset["spec"], "--out", str(out)]}[command]
    assert main([*argv, "--config", str(cfg)]) == 2
    source = "synthetic route" if command == "synth" else dataset["trace"]
    assert capsys.readouterr().err == (f"error: {source}: scenario.spat_rate_hz 1e+300 Hz over "
                                       f"60.0 s would schedule more than 1000000 packets\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "calibrate"])
def test_a_trace_a_year_long_is_refused_naming_its_file_and_span(dataset, tmp_path, capsys,
                                                                 command):
    # Its two records, a year apart, scheduled 315,360,000 packets a direction.
    trace, out = tmp_path / "year.csv", tmp_path / "o"
    trace.write_text(
        "time,latitude,longitude,altitude_ft,heading_deg,speed_mph,"
        "transmission_type,message_type,direction\n"
        "2023-01-01T00:00:00.000000Z,45.0001,-93.0,0,90,30,DSRC,BSM,Sent\n"
        "2024-01-01T00:00:00.000000Z,45.0002,-93.0,0,90,30,DSRC,BSM,Sent\n", encoding="utf-8")
    argv = (["simulate", str(trace), "--out", str(out)] if command == "simulate"
            else calibrate_args({**dataset, "trace": str(trace)}, out))
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"error: {trace}: scenario.bsm_rate_hz 10.0 Hz over "
                                       f"31536000.0 s would schedule more than 1000000 packets\n")
    assert not out.exists()


@pytest.mark.parametrize("setting, message", [
    ("synth.duration_s = 1e300",
     "synth.duration_s 1e+300 s at synth.sample_rate_hz 10.0 Hz would make more than 1000000 "
     "records"),
    ("rsu.altitude_ft = 1e300", "rsu.altitude_ft 1e+300 overflows its 9-decimal rounding"),
    ("synth.waypoints_enu_m = -400.0,8.0,1e299; 400.0,8.0,1e299",
     "synth.waypoints_enu_m: the altitude_ft of z 1e+299 m overflows its 9-decimal rounding"),
], ids=["duration", "rsu-altitude", "waypoint-z"])
def test_synth_refuses_a_route_numpy_cannot_hold_by_key(tmp_path, capsys, setting, message):
    # The duration died in np.arange ("synthetic route: Maximum allowed size exceeded");
    # each altitude printed numpy's overflow RuntimeWarning, then blamed "record 0".
    cfg, out = tmp_path / "cfg.txt", tmp_path / "o"
    cfg.write_text(setting + "\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: synthetic route: {message}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def calibrate_args(dataset, out, extra=()):
    return ["calibrate", dataset["observed"], dataset["trace"], "--preset", "calibrated",
            "--population", "4", "--generations", "2", "--seed", "5",
            "--out", str(out), *extra]


def test_calibrate_writes_history_and_result(dataset, tmp_path, capsys):
    out = tmp_path / "cal"
    assert main(calibrate_args(dataset, out)) == 0
    history = parse_history_csv(read(str(out / "history.csv")))
    assert len(history) == 8  # population 4 over 2 generations
    result_text = read(str(out / "calibration_result.txt"))
    assert "best_rmse = " in result_text and "evaluations = 8" in result_text
    stdout = capsys.readouterr().out
    assert "best_rmse = " in stdout
    assert "ga.population_size = 4" in read(str(out / "resolved_config.txt"))


def test_calibrate_is_byte_deterministic_and_jobs_invariant(dataset, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(calibrate_args(dataset, a)) == 0
    assert main(calibrate_args(dataset, b)) == 0
    assert main(calibrate_args(dataset, c, extra=["--jobs", "2"])) == 0
    assert read(str(a / "history.csv")) == read(str(b / "history.csv"))
    assert read(str(a / "history.csv")) == read(str(c / "history.csv"))
    assert read(str(a / "calibration_result.txt")) == read(str(c / "calibration_result.txt"))


def test_calibrate_flag_validation(dataset, tmp_path, capsys):
    out = str(tmp_path / "o")
    base = ["calibrate", dataset["observed"], dataset["trace"], "--out", out]
    assert main(base + ["--generations", "0"]) == 2
    assert main(base + ["--population", "1"]) == 2
    assert main(base + ["--jobs", "0"]) == 2
    assert main(base + ["--seed", "-1"]) == 2
    capsys.readouterr()


def test_calibrate_bin_width_mismatch_names_both(dataset, tmp_path, capsys):
    assert main(["calibrate", dataset["observed"], dataset["trace"],
                 "--bin-width", "25.0", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "20.0" in err and "25.0" in err


def test_calibrate_accepts_a_width_the_csv_rounds(tmp_path, capsys):
    # The observed CSV carries the width to 9 decimals (12.345678901 m);
    # the configured 12.3456789012 m must still match it.
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("scenario.bin_width_m = 12.3456789012\n", encoding="utf-8")
    spec = tmp_path / "route.txt"
    spec.write_text(SHORT_ROUTE, encoding="utf-8")
    data = tmp_path / "synth"
    assert main(["synth", str(spec), "--config", str(cfg), "--preset", "calibrated",
                 "--out", str(data)]) == 0
    assert parse_pdr_csv(read(str(data / "observed_pdr.csv"))).bin_width_m != 12.3456789012
    assert main(["calibrate", str(data / "observed_pdr.csv"), str(data / "trace.csv"),
                 "--config", str(cfg), "--population", "4", "--generations", "2",
                 "--out", str(tmp_path / "cal")]) == 0
    assert "error" not in capsys.readouterr().err


def _observed_with_bins(dataset, tmp_path, extra_bins):
    """The dataset's observed curve, or only its empty skeleton, extended by
    extra_bins non-empty 20 m bins beyond the drive."""
    curve = parse_pdr_csv(read(dataset["observed"]))
    n = 100 + max(extra_bins, 1)
    sent, delivered = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    if extra_bins:
        sent[:len(curve)], delivered[:len(curve)] = curve.sent, curve.delivered
    sent[100:], delivered[100:] = 10, 5
    edges = np.arange(n + 1) * 20.0
    path = tmp_path / "observed.csv"
    path.write_text(export_pdr_csv(PdrCurve(20.0, edges[:-1], edges[1:], sent, delivered)),
                    encoding="utf-8")
    return str(path), int(np.count_nonzero(curve.sent))


def test_calibrate_refuses_a_curve_beyond_the_drive(dataset, tmp_path, capsys):
    observed, _ = _observed_with_bins(dataset, tmp_path, extra_bins=0)
    assert main(["calibrate", observed, dataset["trace"], "--population", "4",
                 "--generations", "2", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert observed in err and dataset["trace"] in err
    assert "no overlapping non-empty bins" in err
    assert re.search(r"\(\d+\.\d-\d+\.\d m\)", err)
    assert not (tmp_path / "o" / "history.csv").exists()


def test_calibrate_warns_of_observed_bins_outside_the_drive(dataset, tmp_path, capsys):
    observed, inside = _observed_with_bins(dataset, tmp_path, extra_bins=3)
    assert main(["calibrate", observed, dataset["trace"], "--population", "4",
                 "--generations", "2", "--out", str(tmp_path / "o")]) == 0
    err = capsys.readouterr().err
    assert f"3 of {inside + 3} observed non-empty bins lie outside the drive" in err


def test_calibrate_verbose_logs_each_generation_and_changes_no_output(dataset, tmp_path, capsys):
    out = tmp_path / "cal"
    names = ("history.csv", "calibration_result.txt", "resolved_config.txt")
    assert main(calibrate_args(dataset, out)) == 0
    quiet = capsys.readouterr()
    quiet_files = [(out / name).read_bytes() for name in names]
    assert main(calibrate_args(dataset, out, extra=["-v"])) == 0
    loud = capsys.readouterr()
    assert [(out / name).read_bytes() for name in names] == quiet_files
    assert loud.out == quiet.out
    assert quiet.err == ""
    assert re.findall(r": generation (\d+): best rmse", loud.err) == ["0", "1"]


def test_calibrate_freeze_bare_gene_uses_base_value(dataset, tmp_path):
    out = tmp_path / "cal"
    assert main(calibrate_args(dataset, out, extra=["--freeze", "noise_floor_dbm"])) == 0
    history = parse_history_csv(read(str(out / "history.csv")))
    # Bare freeze pins to the resolved base channel: calibrated noise is -90.
    assert {rec.genome.noise_floor_dbm for rec in history} == {-90.0}


def test_calibrate_freeze_with_value(dataset, tmp_path):
    out = tmp_path / "cal"
    assert main(calibrate_args(dataset, out, extra=["--freeze", "alpha=1.7"])) == 0
    history = parse_history_csv(read(str(out / "history.csv")))
    assert {rec.genome.alpha for rec in history} == {1.7}


def test_calibrate_freeze_unknown_gene(dataset, tmp_path, capsys):
    assert main(calibrate_args(dataset, tmp_path / "o",
                               extra=["--freeze", "bandwidth"])) == 2
    assert "unknown gene" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["noise_floor_dbm=5", "nakagami_m=0.2", "alpha=-1",
                                   "data_rate_mbps=7"])
def test_calibrate_refuses_an_invalid_frozen_value_before_reading_inputs(dataset, tmp_path,
                                                                         capsys, entry):
    bad_trace = tmp_path / "bad_trace.csv"
    bad_trace.write_text("not a trace\n", encoding="utf-8")
    args = ["calibrate", dataset["observed"], str(bad_trace), "--out", str(tmp_path / "o")]
    assert main(args + ["--freeze", entry]) == 2
    err = capsys.readouterr().err
    assert "--freeze" in err and entry.partition("=")[0] in err and "bad_trace" not in err
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"ga.freeze = {entry}\n", encoding="utf-8")
    assert main(args + ["--config", str(cfg)]) == 2
    assert f"{cfg}: ga.freeze: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_calibrate_accepts_a_frozen_value_outside_the_search_range(dataset, tmp_path):
    out = tmp_path / "cal"
    assert main(calibrate_args(dataset, out, extra=["--freeze", "alpha=9"])) == 0
    assert {rec.genome.alpha for rec in parse_history_csv(read(str(out / "history.csv")))} == {9.0}


@pytest.mark.parametrize("flags", [["--bin-width", "nan"], ["--cell", "inf"], ["--seed", "-1"]])
def test_simulate_refuses_a_flag_its_field_refuses(dataset, tmp_path, capsys, flags):
    assert main(["simulate", dataset["trace"], *flags, "--out", str(tmp_path / "o")]) == 2
    assert f"error: {flags[0]}: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_calibrate_malformed_observed_curve(dataset, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("bin_start_m,bin_end_m,sent,delivered,pdr_pct\n0,20,ten,5,\n",
                   encoding="utf-8")
    assert main(["calibrate", str(bad), dataset["trace"], "--out", str(tmp_path / "o")]) == 1
    assert "row 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# pdr / heatmap re-aggregation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sim_out(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert main(["simulate", dataset["trace"], "--preset", "calibrated",
                 "--out", str(out)]) == 0
    return out


def test_pdr_command_matches_simulate_output(sim_out, tmp_path):
    out = tmp_path / "pdr"
    assert main(["pdr", str(sim_out / "log.csv"), "--out", str(out)]) == 0
    assert read(str(out / "pdr.csv")) == read(str(sim_out / "pdr.csv"))


def test_pdr_command_rebins(sim_out, tmp_path):
    out = tmp_path / "pdr"
    assert main(["pdr", str(sim_out / "log.csv"), "--bin-width", "40.0",
                 "--out", str(out)]) == 0
    curve = parse_pdr_csv(read(str(out / "pdr.csv")))
    assert curve.bin_width_m == 40.0
    assert curve.sent.sum() == 1200


def test_heatmap_command_matches_simulate_output(sim_out, tmp_path):
    out = tmp_path / "hm"
    assert main(["heatmap", str(sim_out / "log.csv"), "--out", str(out)]) == 0
    assert read(str(out / "heatmap.csv")) == read(str(sim_out / "heatmap.csv"))


def _loaded_modules(names, *commands):
    """Which of the named modules a fresh process has imported after running
    each argv list through main."""
    script = ("import json, sys\nfrom v2xcal.cli import main\n"
              "names, commands = json.loads(sys.argv[1])\n"
              "for argv in commands:\n"
              "    assert main(argv) == 0\n"
              "print(json.dumps([name for name in names if name in sys.modules]))\n")
    src = os.path.dirname(os.path.dirname(v2xcal.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps([names, commands])],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_no_command_loads_costly_modules(dataset, sim_out, tmp_path):
    # Each of these would be a large part of a fresh process's start-up:
    # scipy.special, which pdr and heatmap never needed, calibrate replaces
    # with bounds on the gamma CDF and synth and simulate with the package's
    # own gamma inverse; numpy.ma, which np.median loads; and
    # numpy.polynomial, whose polyval the gamma series spells out.
    log, synth, cal = str(sim_out / "log.csv"), tmp_path / "synth", tmp_path / "cal"
    # The bare import scipy that bench/run_bench.py reads is the check's positive control.
    assert _loaded_modules(
        ["scipy", "scipy.special", "numpy.ma", "numpy.polynomial"],
        ["pdr", log, "--out", str(tmp_path)], ["heatmap", log, "--out", str(tmp_path)],
        ["synth", dataset["spec"], "--preset", "calibrated", "--out", str(synth)],
        ["calibrate", str(synth / "observed_pdr.csv"), str(synth / "trace.csv"),
         "--population", "4", "--generations", "2", "--freeze", "fast_model=nakagami",
         "--out", str(cal)],
        ["simulate", dataset["trace"], "--preset", "calibrated", "--out", str(tmp_path / "sim")]
    ) == ["scipy"]
    assert (tmp_path / "pdr.csv").exists() and (tmp_path / "heatmap.csv").exists()
    assert "nakagami" in read(str(cal / "history.csv"))
    assert (tmp_path / "sim" / "log.csv").exists()


def test_log_only_commands_never_load_numpy_random(dataset, sim_out, tmp_path):
    # pdr and heatmap draw nothing, and numpy.random costs a fresh process about
    # 14 ms and 1.7 MB. simulate, which draws, is the check's positive control.
    log = str(sim_out / "log.csv")
    assert _loaded_modules(["numpy.random"], ["pdr", log, "--out", str(tmp_path)],
                           ["heatmap", log, "--out", str(tmp_path)]) == []
    assert (tmp_path / "pdr.csv").exists() and (tmp_path / "heatmap.csv").exists()
    assert _loaded_modules(["numpy.random"], ["simulate", dataset["trace"],
                                              "--out", str(tmp_path / "sim")]) == ["numpy.random"]


def test_one_parser_serves_every_call_of_a_process(dataset, sim_out, tmp_path):
    # Flags of one call must not leak into the next through the shared parser:
    # each command writes the bytes it writes with a parser of its own.
    commands = [
        ["simulate", dataset["trace"], "--seed", "7", "--bin-width", "40", "--direction", "bsm"],
        ["heatmap", str(sim_out / "log.csv"), "--cell", "30"],
        ["simulate", dataset["trace"]],
        ["pdr", str(sim_out / "log.csv")],
    ]
    for k, argv in enumerate(commands):
        build_parser.cache_clear()
        assert main(argv + ["--out", str(tmp_path / "fresh" / str(k))]) == 0
    build_parser.cache_clear()
    for k, argv in enumerate(commands):
        assert main(argv + ["--out", str(tmp_path / "shared" / str(k))]) == 0
    assert build_parser.cache_info().misses == 1
    for k in range(len(commands)):
        names = sorted(os.listdir(tmp_path / "fresh" / str(k)))
        assert names == sorted(os.listdir(tmp_path / "shared" / str(k)))
        for name in names:
            assert (read(str(tmp_path / "shared" / str(k) / name))
                    == read(str(tmp_path / "fresh" / str(k) / name)))


def test_pdr_command_direction_filter(sim_out, tmp_path):
    out = tmp_path / "pdr"
    assert main(["pdr", str(sim_out / "log.csv"), "--direction", "spat",
                 "--out", str(out)]) == 0
    assert parse_pdr_csv(read(str(out / "pdr.csv"))).sent.sum() == 600


def test_pdr_command_rejects_corrupt_log(sim_out, tmp_path, capsys):
    lines = read(str(sim_out / "log.csv")).splitlines()
    parts = lines[1].split(",")
    parts[8] = "1.000000000"
    corrupt = tmp_path / "log.csv"
    corrupt.write_text("\n".join([lines[0], ",".join(parts)]) + "\n", encoding="utf-8")
    assert main(["pdr", str(corrupt), "--out", str(tmp_path / "o")]) == 1
    assert "distance column" in capsys.readouterr().err


@pytest.mark.parametrize("command, output", [("pdr", "pdr.csv"), ("heatmap", "heatmap.csv")])
@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_aggregation_reads_a_log_with_other_line_ends_as_its_export(sim_out, tmp_path, command,
                                                                     output, newline):
    # Such a log is not in the exported form, so it is decoded as a text-mode open does.
    log = tmp_path / "log.csv"
    log.write_bytes((sim_out / "log.csv").read_bytes().replace(b"\n", newline))
    assert main([command, str(log), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / output).read_bytes() == (sim_out / output).read_bytes()


@pytest.mark.parametrize("command", ["pdr", "heatmap"])
def test_aggregation_names_the_undecodable_byte_of_a_log(sim_out, tmp_path, capsys, command):
    data = (sim_out / "log.csv").read_bytes()
    at = len(data) // 2  # past the first 64 KiB, so the position counts from the file's start
    log = tmp_path / "log.csv"
    log.write_bytes(data[:at] + b"\xff" + data[at:])
    assert main([command, str(log), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (f"error: {log}: 'utf-8' codec can't decode byte 0xff in "
                                       f"position {at}: invalid start byte\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["exported", "crlf"])
def test_very_verbose_logs_how_each_trace_and_log_was_read(dataset, sim_out, tmp_path, capsys,
                                                            newline):
    trace, log = tmp_path / "trace.csv", tmp_path / "log.csv"
    trace.write_bytes(Path(dataset["trace"]).read_bytes().replace(b"\n", newline))
    log.write_bytes((sim_out / "log.csv").read_bytes().replace(b"\n", newline))
    runs = []
    for flags in ([], ["-vv"]):
        assert main(["simulate", str(trace), "--preset", "calibrated",
                     "--out", str(tmp_path / "sim"), *flags]) == 0
        assert main(["pdr", str(log), "--out", str(tmp_path / "pdr"), *flags]) == 0
        runs.append((capsys.readouterr(),
                     [path.read_bytes() for path in sorted(tmp_path.glob("*/*"))]))
    (quiet, quiet_files), (loud, loud_files) = runs
    assert loud.out == quiet.out and loud_files == quiet_files and quiet.err == ""
    route = "loaded straight from its file" if newline == b"\n" else "read as text"
    assert [line for line in loud.err.splitlines() if " v2xcal.dataio: " in line] == [
        f"DEBUG v2xcal.dataio: {trace}: {route}", f"DEBUG v2xcal.dataio: {log}: {route}"]


@pytest.mark.parametrize("command", ["pdr", "heatmap"])
def test_aggregation_refuses_a_log_with_non_finite_positions(sim_out, tmp_path, capsys, command):
    # pdr used to die naming no row, and heatmap wrote a cell at x = -1.8e20 m.
    lines = read(str(sim_out / "log.csv")).splitlines()
    parts = lines[1].split(",")
    parts[2] = parts[8] = "nan"
    corrupt = tmp_path / "log.csv"
    corrupt.write_text("\n".join([lines[0], ",".join(parts)]) + "\n", encoding="utf-8")
    assert main([command, str(corrupt), "--out", str(tmp_path / "o")]) == 1
    assert "row 2: tx_x_m nan must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_heatmap_refuses_a_position_beyond_every_cell_index(tmp_path, capsys):
    # At 1 m cells, x = 1e19 m lies past 2**63 cells: heatmap exited 0 with a
    # RuntimeWarning and wrote a cell centred at -9223372036854775808 m.
    tx, rx = np.array([[1e19, 8.0, 0.0]]), np.zeros((1, 3))
    huge = tmp_path / "huge.csv"
    huge.write_text(export_log_csv(DeliveryLog(
        np.zeros(1), np.zeros(1, int), tx, rx, link_distance_m(tx, rx), np.full(1, -70.0),
        np.zeros(1, int))), encoding="utf-8")
    assert main(["heatmap", str(huge), "--cell", "1", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (f"error: {huge}: vehicle position [1e+19, 8.0] m lies "
                                       "2**62 or more cells out\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["pdr", "heatmap"])
@pytest.mark.parametrize("direction", ["bsm", "both"])
def test_aggregation_refuses_a_direction_with_no_packets(sim_out, tmp_path, capsys, command,
                                                         direction):
    # Both commands wrote a header-only CSV, which no parser reads back, and exited 0.
    lines = read(str(sim_out / "log.csv")).splitlines()
    log = tmp_path / "log.csv"
    kept = [] if direction == "both" else [line for line in lines if ",rsu_to_vehicle," in line]
    log.write_text("\n".join([lines[0], *kept]) + "\n", encoding="utf-8")
    assert main([command, str(log), "--direction", direction, "--out", str(tmp_path / "o")]) == 1
    assert f"error: {log}: no packets for --direction {direction}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("direction", ["bsm", "spat", "both"])
def test_simulate_refuses_a_direction_with_no_packets(dataset, tmp_path, capsys, direction):
    # Two records 0.05 s apart send nothing at 10 Hz. simulate wrote a header-only
    # pdr.csv, which calibrate then refused, and exited 0.
    lines = read(dataset["trace"]).splitlines()
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join([lines[0], lines[1], lines[2].replace(".100000Z", ".050000Z")])
                     + "\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["simulate", str(trace), "--direction", direction, "--out", str(out)]) == 1
    assert f"error: {trace}: no packets for --direction {direction}" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


#: Every field flag of every command: (command, flag, value, the key it sets).
FIELD_FLAGS = [
    ("simulate", "--seed", "7", "scenario.master_seed"),
    ("simulate", "--bin-width", "25.0", "scenario.bin_width_m"),
    ("simulate", "--cell", "30.0", "scenario.heatmap_cell_m"),
    ("calibrate", "--seed", "7", "ga.master_seed"),
    ("calibrate", "--generations", "3", "ga.generations"),
    ("calibrate", "--population", "5", "ga.population_size"),
    ("calibrate", "--jobs", "2", "ga.jobs"),
    ("calibrate", "--bin-width", "25.0", "scenario.bin_width_m"),
    ("calibrate", "--freeze", "alpha=1.7", "ga.freeze"),
    ("pdr", "--bin-width", "25.0", "scenario.bin_width_m"),
    ("heatmap", "--cell", "30.0", "scenario.heatmap_cell_m"),
    ("synth", "--seed", "7", "synth.seed"),
]


@pytest.mark.parametrize("command,flag,value,key", FIELD_FLAGS)
def test_each_field_flag_sets_its_key_in_the_echo(dataset, sim_out, tmp_path, command, flag,
                                                  value, key):
    observed = dataset["observed"]
    if command == "calibrate" and flag == "--bin-width":
        observed = str(tmp_path / "rebinned" / "pdr.csv")
        assert main(["pdr", str(sim_out / "log.csv"), "--bin-width", value,
                     "--out", str(tmp_path / "rebinned")]) == 0
    inputs = {"simulate": [dataset["trace"]],
              "calibrate": [observed, dataset["trace"], "--population", "4", "--generations", "2"],
              "pdr": [str(sim_out / "log.csv")], "heatmap": [str(sim_out / "log.csv")],
              "synth": [dataset["spec"]]}[command]
    out = tmp_path / "o"
    # A repeated flag takes its last value, so the flag under test overrides the inputs'.
    assert main([command, *inputs, flag, value, "--out", str(out)]) == 0
    echo = read(str(out / "resolved_config.txt"))
    assert f"{key} = {value}\n" in echo
    assert render_config(parse_config(echo)) == echo


@pytest.mark.parametrize("command,flag", [("pdr", "--bin-width"), ("heatmap", "--cell")])
def test_sub_resolution_width_is_usage_error(sim_out, tmp_path, capsys, command, flag):
    # heatmap wrote one cell of cell_m 0.000000000 and pdr died in np.bincount.
    out = tmp_path / "o"
    assert main([command, str(sim_out / "log.csv"), flag, "1e-300", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["pdr", "simulate", "calibrate", "synth"])
def test_bin_width_of_too_many_bins_is_usage_error(dataset, sim_out, tmp_path, capsys, command):
    # np.bincount allocated one count per bin and died asking for terabytes.
    observed, config = tmp_path / "observed.csv", tmp_path / "width.txt"
    observed.write_text(export_pdr_csv(PdrCurve(1e-9, [0.0], [1e-9], [1], [1])), encoding="utf-8")
    config.write_text("scenario.bin_width_m = 1e-9\n", encoding="utf-8")
    argv = {"pdr": [str(sim_out / "log.csv"), "--bin-width", "1e-9"],
            "simulate": [dataset["trace"], "--bin-width", "1e-9"],
            "calibrate": [str(observed), dataset["trace"], "--bin-width", "1e-9"],
            "synth": [dataset["spec"], "--config", str(config)]}[command]
    source = "scenario.bin_width_m" if command == "synth" else "--bin-width"
    out = tmp_path / "o"
    assert main([command, *argv, "--out", str(out)]) == 2
    assert re.fullmatch(rf"error: {source}: 1e-09 m bins to [\d.]+ m would number \d{{12}}, "
                        r"more than 1000000\n", capsys.readouterr().err)
    assert not out.exists()


def test_unwritable_out_is_usage_error(sim_out, tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("", encoding="utf-8")
    assert main(["pdr", str(sim_out / "log.csv"), "--out", str(afile)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: --out {afile}: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("command,position,code", [
    ("simulate", 0, 1),  # the trace
    ("calibrate", 0, 1),  # the observed curve
    ("calibrate", 1, 1),  # the trace
    ("pdr", 0, 1),  # the log
    ("synth", 0, 2),  # the spec
    ("simulate", "--config", 2),
])
def test_undecodable_input_names_its_file_once(dataset, sim_out, tmp_path, capsys, command,
                                               position, code):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe")
    inputs = {"simulate": [dataset["trace"]], "calibrate": [dataset["observed"], dataset["trace"]],
              "pdr": [str(sim_out / "log.csv")], "synth": [dataset["spec"]]}[command]
    if position == "--config":
        inputs += ["--config", str(bad)]
    else:
        inputs[position] = str(bad)
    assert main([command, *inputs, "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err == f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 0: " \
                  "invalid start byte\n"
    assert not (tmp_path / "o").exists()


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_flag_is_usage_error(dataset, capsys):
    assert main(["simulate", dataset["trace"], "--turbo"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["calibrate", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--freeze" in out


def test_bad_preset_rejected_by_parser(dataset, capsys):
    assert main(["simulate", dataset["trace"], "--preset", "mystery"]) == 2
    capsys.readouterr()
