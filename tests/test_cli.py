"""Command-line interface: dispatch, serialization, determinism, exit codes."""

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divtol
import divtol.cli as cli
from divtol.cli import MAX_DATASETS, MAX_N, build_parser, main
from divtol.estimator import BOOTSTRAP_MAX_REPLICATES

TWELVE_ZEROS = ",".join(["0"] * 12)


@pytest.fixture
def two_mouse_files(tmp_path):
    """Scalar-action fixture: one exposed mouse at 3, one control at 2."""
    exposures = tmp_path / "exposures.csv"
    exposures.write_text("mouse_id,exposed\nm1,1\nm2,0\n", encoding="utf-8")
    bins = tmp_path / "bins.csv"
    bins.write_text("mouse_id,session,b0\nm1,1,3\nm2,1,2\n", encoding="utf-8")
    return str(exposures), str(bins)


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv_output(path):
    """Read back the '# key=value' scalars and the table of a CSV result."""
    scalars, table = {}, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            scalars[key] = value
        else:
            table.append(line)
    rows = list(csv.reader(table))
    return scalars, (rows[0] if rows else None), rows[1:]


class TestEstimate:
    def test_two_mouse_fixture(self, two_mouse_files, tmp_path, capsys):
        exposures, bins = two_mouse_files
        out = tmp_path / "result.json"
        code, stdout, _ = run(
            ["--command", "estimate", "--exposures", exposures, "--bins", bins,
             "--optimal", "1", "--out", str(out)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["theta_e"] == pytest.approx(0.2, abs=1e-12)
        assert payload["result"]["bootstrap"] is None
        assert "seed" not in payload["config"] and "level" not in payload["config"]
        assert "tolerates divergence from optimality more" in stdout

    @pytest.mark.parametrize(
        "flags, named",
        [(["--seed", "3"], "--seed"), (["--level", "0.95"], "--level"),
         (["--seed", "0", "--level", "0.9"], "--level, --seed")],
        ids=["seed", "level-at-its-default", "both"],
    )
    def test_bootstrap_flags_without_bootstrap_rejected(
        self, flags, named, two_mouse_files, tmp_path, capsys
    ):
        exposures, bins = two_mouse_files
        out = tmp_path / "r.json"
        code, _, stderr = run(
            ["--command", "estimate", "--exposures", exposures, "--bins", bins,
             "--optimal", "1", *flags, "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert json.loads(stderr)["error"] == {
            "class": "ConfigurationError",
            "message": f"--command estimate reads {named} only with --bootstrap",
        }
        assert not out.exists()

    def test_bootstrap_flags_default_with_bootstrap(self, two_mouse_files):
        exposures, bins = two_mouse_files
        cfg = cli._parse_args(["--command", "estimate", "--exposures", exposures, "--bins", bins,
                               "--optimal", "1", "--bootstrap", "100", "--out", "r.json"])
        assert (cfg.seed, cfg.level) == (0, 0.95)

    def test_bootstrap_interval_in_output(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        mice = [f"m{i}" for i in range(12)]
        exposures = tmp_path / "e.csv"
        exposures.write_text(
            "mouse_id,exposed\n" + "".join(f"{m},{int(i < 6)}\n" for i, m in enumerate(mice)),
            encoding="utf-8",
        )
        bins = tmp_path / "b.csv"
        bins.write_text(
            "mouse_id,session,b0\n"
            + "".join(f"{m},1,{int(rng.integers(1, 9))}\n" for m in mice),
            encoding="utf-8",
        )
        out = tmp_path / "r.json"
        code, _, _ = run(
            ["--command", "estimate", "--exposures", str(exposures), "--bins", str(bins),
             "--optimal", "0", "--bootstrap", "200", "--seed", "7", "--out", str(out)],
            capsys,
        )
        assert code == 0
        interval = json.loads(out.read_text())["result"]["bootstrap"]
        assert interval["replicates"] == 200
        assert 0.0 <= interval["lo"] <= interval["hi"] <= 1.0

    def test_missing_exposures_file_is_a_linkage_error(self, two_mouse_files, tmp_path, capsys):
        _, bins = two_mouse_files
        code, _, stderr = run(
            ["--command", "estimate", "--exposures", str(tmp_path / "absent.csv"),
             "--bins", bins, "--optimal", "1", "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == 1
        assert json.loads(stderr)["error"]["class"] == "LinkageError"

    def test_missing_bins_file_is_a_parse_error(self, two_mouse_files, tmp_path, capsys):
        exposures, _ = two_mouse_files
        absent = tmp_path / "absent.csv"
        code, _, stderr = run(
            ["--command", "estimate", "--exposures", exposures, "--bins", str(absent),
             "--optimal", "1", "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == 1
        error = json.loads(stderr)["error"]
        assert error["class"] == "ParseError"
        assert error["message"].startswith(f"cannot read {absent}: ")

    def test_missing_out_is_a_configuration_error(self, two_mouse_files, capsys):
        exposures, bins = two_mouse_files
        code, _, stderr = run(
            ["--command", "estimate", "--exposures", exposures, "--bins", bins,
             "--optimal", "1"],
            capsys,
        )
        assert code == 2
        assert json.loads(stderr)["error"]["class"] == "ConfigurationError"

    def test_bins_and_events_together_rejected(self, two_mouse_files, tmp_path, capsys):
        exposures, bins = two_mouse_files
        code, _, _ = run(
            ["--command", "estimate", "--exposures", exposures, "--bins", bins,
             "--events", bins, "--optimal", "1", "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == 2

    def test_byte_order_marks_do_not_change_the_result(self, two_mouse_files, tmp_path, capsys):
        exposures, bins = two_mouse_files
        bom_exposures, bom_bins = tmp_path / "e_bom.csv", tmp_path / "b_bom.csv"
        for src, dst in ((exposures, bom_exposures), (bins, bom_bins)):
            dst.write_bytes(b"\xef\xbb\xbf" + open(src, "rb").read())
        results = []
        for e, b in ((exposures, bins), (bom_exposures, bom_bins)):
            out = tmp_path / "r.json"
            code, _, _ = run(
                ["--command", "estimate", "--exposures", str(e), "--bins", str(b),
                 "--optimal", "1", "--out", str(out)],
                capsys,
            )
            assert code == 0
            results.append(json.loads(out.read_text())["result"])
        assert results[0] == results[1]

    def test_wrong_optimal_length_rejected(self, two_mouse_files, tmp_path, capsys):
        exposures, bins = two_mouse_files
        code, _, stderr = run(
            ["--command", "estimate", "--exposures", exposures, "--bins", bins,
             "--optimal", "1,0,0", "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == 1
        assert json.loads(stderr)["error"]["class"] == "InputError"

    def test_runs_are_byte_identical(self, two_mouse_files, tmp_path, capsys):
        exposures, bins = two_mouse_files
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        for out in (first, second):
            code, _, _ = run(
                ["--command", "estimate", "--exposures", exposures, "--bins", bins,
                 "--optimal", "1", "--bootstrap", "150", "--seed", "3", "--out", str(out)],
                capsys,
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_only_the_output_path_is_written(self, two_mouse_files, tmp_path, capsys):
        exposures, bins = two_mouse_files
        before = set(tmp_path.rglob("*"))
        out = tmp_path / "only.json"
        run(
            ["--command", "estimate", "--exposures", exposures, "--bins", bins,
             "--optimal", "1", "--out", str(out)],
            capsys,
        )
        assert set(tmp_path.rglob("*")) - before == {out}


class TestCurves:
    def test_crossing_in_metadata(self, two_mouse_files, tmp_path, capsys):
        exposures, bins = two_mouse_files
        out = tmp_path / "curves.json"
        code, _, _ = run(
            ["--command", "curves", "--exposures", exposures, "--bins", bins,
             "--optimal", "1", "--out", str(out)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["metadata"]["crossing_theta"] == pytest.approx(0.2, abs=1e-9)
        assert payload["metadata"]["theta_e"] == pytest.approx(0.2, abs=1e-9)
        assert payload["metadata"]["crossing_gap"] == pytest.approx(0.0, abs=1e-9)
        assert len(payload["samples"]["theta"]) == 201

    def test_two_point_grid(self, two_mouse_files, tmp_path, capsys):
        exposures, bins = two_mouse_files
        out = tmp_path / "curves.csv"
        code, _, _ = run(
            ["--command", "curves", "--exposures", exposures, "--bins", bins,
             "--optimal", "1", "--grid-step", "1.0", "--format", "csv", "--out", str(out)],
            capsys,
        )
        assert code == 0
        scalars, columns, rows = parse_csv_output(out)
        assert columns == ["theta", "mean_reward_exposed", "mean_reward_control"]
        assert len(rows) == 2
        assert float(scalars["metadata.crossing_theta"]) == pytest.approx(0.2)

    def test_grid_step_below_the_finest_rejected(self, two_mouse_files, tmp_path, capsys):
        exposures, bins = two_mouse_files
        code, _, stderr = run(
            ["--command", "curves", "--exposures", exposures, "--bins", bins, "--optimal", "1",
             "--grid-step", "1e-9", "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == 2
        assert json.loads(stderr)["error"]["class"] == "ConfigurationError"
        assert not (tmp_path / "r.json").exists()

    def test_grid_step_that_does_not_divide_one_rejected(self, two_mouse_files, tmp_path, capsys):
        exposures, bins = two_mouse_files
        code, _, stderr = run(
            ["--command", "curves", "--exposures", exposures, "--bins", bins, "--optimal", "1",
             "--grid-step", "0.3", "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == 2
        error = json.loads(stderr)["error"]
        assert error["class"] == "ConfigurationError"
        assert "divide 1" in error["message"]
        assert not (tmp_path / "r.json").exists()


class TestSimulateMc:
    def test_single_replicate(self, tmp_path, capsys):
        out = tmp_path / "mc.json"
        code, stdout, _ = run(
            ["--command", "simulate-mc", "--datasets", "1", "--seed", "11", "--out", str(out)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["estimates"]["theta"]) == 1
        assert len(payload["estimates"]["b1"]) == 1
        assert payload["summary"]["degenerate_count"] == 0
        assert "frac(theta < 0.5)" in stdout

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            run(
                ["--command", "simulate-mc", "--n", "20", "--datasets", "5", "--seed", "4",
                 "--out", str(out)],
                capsys,
            )
        assert a.read_bytes() == b.read_bytes()

    def test_policy_echoed_without_positivity_key(self, tmp_path, capsys):
        out = tmp_path / "mc.json"
        run(
            ["--command", "simulate-mc", "--n", "10", "--datasets", "2", "--seed", "0",
             "--out", str(out)],
            capsys,
        )
        policy = json.loads(out.read_text())["policy"]
        assert "positivity" not in policy
        assert policy["sigma2_sq"] == 4.0

    def test_a_rarely_mixed_assignment_exits_2_at_once(self, tmp_path, capsys):
        # each try draws 10^7 uniforms; all 10^5 of them would take hours
        out = tmp_path / "mc.json"
        start = time.perf_counter()
        code, _, stderr = run(
            ["--command", "simulate-mc", "--n", "10000000", "--p-exposed", "1e-300",
             "--datasets", "1", "--out", str(out)],
            capsys,
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        error = json.loads(stderr)["error"]
        assert error["class"] == "ConfigurationError"
        assert "probability q = 1e-293" in error["message"]
        assert not out.exists()


class TestConsistency:
    def test_single_n_row(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        code, _, _ = run(
            ["--command", "consistency", "--n", "50", "--datasets", "10", "--seed", "2",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["rows"]["n"] == [50]
        assert len(payload["rows"]["mean_theta"]) == len(payload["rows"]["sd_theta"]) == 1

    def test_csv_table(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, _, _ = run(
            ["--command", "consistency", "--n", "20,40", "--datasets", "8", "--seed", "2",
             "--format", "csv", "--out", str(out)],
            capsys,
        )
        assert code == 0
        _, columns, rows = parse_csv_output(out)
        assert columns == ["n", "mean_theta", "sd_theta"]
        assert [r[0] for r in rows] == ["20", "40"]


class TestIngestCheck:
    def test_clean_fixture(self, two_mouse_files, tmp_path, capsys):
        exposures, bins = two_mouse_files
        out = tmp_path / "report.json"
        code, stdout, _ = run(
            ["--command", "ingest-check", "--exposures", exposures, "--bins", bins,
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["violations"] == {"violation": []}
        assert (payload["n"], payload["dimension"]) == (2, 1)
        assert "clean" in stdout

    def test_single_group_reported(self, tmp_path, capsys):
        exposures = tmp_path / "e.csv"
        exposures.write_text("mouse_id,exposed\nm1,1\nm2,1\n", encoding="utf-8")
        bins = tmp_path / "b.csv"
        bins.write_text("mouse_id,session,b0\nm1,1,3\nm2,1,2\n", encoding="utf-8")
        out = tmp_path / "report.json"
        code, _, stderr = run(
            ["--command", "ingest-check", "--exposures", str(exposures), "--bins", str(bins),
             "--out", str(out)],
            capsys,
        )
        assert code == 1
        violations = json.loads(out.read_text())["violations"]["violation"]
        assert any("missing control group" in v for v in violations)
        error = json.loads(stderr)["error"]
        assert error["class"] == "DataError"
        assert error["message"] == f"1 violation(s) found, listed in {out}"

    def test_ragged_bins_reported_with_row_number(self, tmp_path, capsys):
        exposures = tmp_path / "e.csv"
        exposures.write_text("mouse_id,exposed\nm1,1\nm2,0\n", encoding="utf-8")
        bins = tmp_path / "b.csv"
        bins.write_text(
            f"mouse_id,session,{','.join(f'b{j}' for j in range(12))}\n"
            f"m1,1,{TWELVE_ZEROS}\nm2,1,0,0\n",
            encoding="utf-8",
        )
        out = tmp_path / "report.json"
        code, _, _ = run(
            ["--command", "ingest-check", "--exposures", str(exposures), "--bins", str(bins),
             "--out", str(out)],
            capsys,
        )
        assert code == 1
        violations = json.loads(out.read_text())["violations"]["violation"]
        assert any("SchemaError" in v and "line 3" in v for v in violations)

    def test_duplicate_session_reported(self, tmp_path, capsys):
        exposures = tmp_path / "e.csv"
        exposures.write_text("mouse_id,exposed\nm1,1\nm2,0\n", encoding="utf-8")
        bins = tmp_path / "b.csv"
        bins.write_text("mouse_id,session,b0\nm1,1,3\nm2,1,2\nm1,1,9\n", encoding="utf-8")
        out = tmp_path / "report.json"
        code, stdout, _ = run(
            ["--command", "ingest-check", "--exposures", str(exposures), "--bins", str(bins),
             "--out", str(out)],
            capsys,
        )
        assert code == 1
        violations = json.loads(out.read_text())["violations"]["violation"]
        assert any("DataError" in v and "lines 2 and 4" in v for v in violations)
        assert "clean" not in stdout

    def test_csv_report_quotes_messages_with_commas(self, tmp_path, capsys):
        exposures = tmp_path / "e.csv"
        exposures.write_text("mouse_id,exposed\nm1,1\nm2,0\n", encoding="utf-8")
        bins = tmp_path / "b.csv"
        bins.write_text(
            f"mouse_id,session,{','.join(f'b{j}' for j in range(12))}\n"
            f"m1,1,{TWELVE_ZEROS}\nm2,1,0,0\n",
            encoding="utf-8",
        )
        out = tmp_path / "report.csv"
        code, _, _ = run(
            ["--command", "ingest-check", "--exposures", str(exposures), "--bins", str(bins),
             "--format", "csv", "--out", str(out)],
            capsys,
        )
        assert code == 1
        import csv as csv_module

        with open(out, encoding="utf-8") as fh:
            rows = [r for r in csv_module.reader(fh) if r and not r[0].startswith("# ")]
        assert rows[0] == ["violation"]
        assert all(len(r) == 1 for r in rows[1:])
        assert any("line 3" in r[0] for r in rows[1:])


    def test_count_beyond_int64_reported_with_line_number(self, tmp_path, capsys):
        exposures = tmp_path / "e.csv"
        exposures.write_text("mouse_id,exposed\nm1,1\nm2,0\n", encoding="utf-8")
        bins = tmp_path / "b.csv"
        bins.write_text(
            "mouse_id,session,b0\nm1,1,3\nm2,1,99999999999999999999\n", encoding="utf-8"
        )
        out = tmp_path / "report.json"
        code, _, _ = run(
            ["--command", "ingest-check", "--exposures", str(exposures), "--bins", str(bins),
             "--out", str(out)],
            capsys,
        )
        assert code == 1
        violations = json.loads(out.read_text())["violations"]["violation"]
        assert violations == [
            "DataError: line 3: count beyond int64 for mouse 'm2' session 1"
        ]

    @pytest.mark.parametrize("source", ["bins", "events"])
    def test_session_beyond_int64_reported_with_line_number(self, source, tmp_path, capsys):
        exposures = tmp_path / "e.csv"
        exposures.write_text("mouse_id,exposed\nm1,1\nm2,0\n", encoding="utf-8")
        data = tmp_path / "d.csv"
        header = "mouse_id,session,b0" if source == "bins" else "mouse_id,session,press_time_s"
        data.write_text(f"{header}\nm1,1,3\nm2,{10**30},2\n", encoding="utf-8")
        out = tmp_path / "report.json"
        code, _, _ = run(
            ["--command", "ingest-check", "--exposures", str(exposures), f"--{source}", str(data),
             "--out", str(out)],
            capsys,
        )
        assert code == 1
        violations = json.loads(out.read_text())["violations"]["violation"]
        assert violations == ["DataError: line 3: session beyond int64 for mouse 'm2'"]


class TestEventsInput:
    def test_estimate_from_raw_events(self, tmp_path, capsys):
        exposures = tmp_path / "e.csv"
        exposures.write_text("mouse_id,exposed\nm1,1\nm2,0\n", encoding="utf-8")
        events = tmp_path / "ev.csv"
        # m1 presses early in the interval, m2 presses late
        lines = ["mouse_id,session,press_time_s"]
        lines += [f"m1,1,{2.0 + 60.0 * k}" for k in range(10)]
        lines += [f"m2,1,{57.0 + 60.0 * k}" for k in range(10)]
        events.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "r.json"
        code, _, _ = run(
            ["--command", "estimate", "--exposures", str(exposures), "--events", str(events),
             "--optimal", ",".join(["0"] * 12), "--weights", "sixty-minus-midpoint",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        # m1's presses sit in the heavily weighted first bin: larger
        # weighted divergence, so the exposed group tolerates more
        assert json.loads(out.read_text())["result"]["theta_e"] < 0.5

    @pytest.mark.parametrize("bad_time", ["nan", "inf", "-inf"])
    def test_non_finite_press_time_is_a_data_error(self, bad_time, tmp_path, capsys):
        exposures = tmp_path / "e.csv"
        exposures.write_text("mouse_id,exposed\nm1,1\nm2,0\n", encoding="utf-8")
        events = tmp_path / "ev.csv"
        events.write_text(
            f"mouse_id,session,press_time_s\nm1,1,2.0\nm2,1,{bad_time}\n", encoding="utf-8"
        )
        code, _, stderr = run(
            ["--command", "estimate", "--exposures", str(exposures), "--events", str(events),
             "--optimal", ",".join(["0"] * 12), "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == 1
        assert json.loads(stderr)["error"]["class"] == "DataError"


# one small run per command; ingest-check reads a header that does not match
# its bins, so its table holds a message with commas and n, dimension are null
PARITY_RUNS = {
    "estimate": (None, ["--optimal", "1", "--bootstrap", "120"]),
    "curves": ("samples", ["--optimal", "1", "--grid-step", "0.25"]),
    "simulate-mc": ("estimates", ["--n", "20", "--datasets", "5", "--seed", "4"]),
    "consistency": ("rows", ["--n", "20,40", "--datasets", "8", "--seed", "2"]),
    "ingest-check": ("violations", []),
}


def parity_argv(command, two_mouse_files, tmp_path):
    """The arguments of ``command``'s small run, without ``--out`` and ``--format``."""
    exposures, bins = two_mouse_files
    if command == "ingest-check":
        bins = tmp_path / "bad_header.csv"
        bins.write_text("mouse_id,session,x\nm1,1,3\n", encoding="utf-8")
    argv = ["--command", command, *PARITY_RUNS[command][1]]
    if command in ("estimate", "curves", "ingest-check"):
        argv += ["--exposures", exposures, "--bins", str(bins)]
    return argv


def option_strings(command):
    """The flags of ``command``'s parser, ``--help`` aside."""
    return {s for a in build_parser(command)._actions for s in a.option_strings} - {"-h", "--help"}


def as_csv_text(value):
    """A JSON value spelled as the CSV output spells it: lists as one CSV record, strings bare."""
    if isinstance(value, list):
        record = io.StringIO()
        csv.writer(record, lineterminator="").writerow([as_csv_text(v) for v in value])
        return record.getvalue()
    return value if isinstance(value, str) else json.dumps(value)


def flatten_json(obj, prefix=""):
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from flatten_json(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", as_csv_text(value)


class TestOutput:
    @pytest.mark.parametrize("command", list(PARITY_RUNS))
    def test_json_and_csv_carry_the_same_scalars_and_table(
        self, command, two_mouse_files, tmp_path, capsys
    ):
        key = PARITY_RUNS[command][0]
        base = parity_argv(command, two_mouse_files, tmp_path)
        json_out, csv_out = tmp_path / "r.json", tmp_path / "r.csv"
        codes = {run(base + ["--out", str(json_out)], capsys)[0],
                 run(base + ["--out", str(csv_out), "--format", "csv"], capsys)[0]}
        assert codes == {1 if command == "ingest-check" else 0}

        payload = json.loads(json_out.read_text())
        table = payload.pop(key) if key is not None else None
        payload["config"].pop("format")
        scalars, columns, rows = parse_csv_output(csv_out)
        assert scalars.pop("config.format") == "csv"
        assert scalars == dict(flatten_json(payload))
        if table is None:
            assert columns is None
            return
        assert sorted(columns) == sorted(table)
        assert rows
        for j, column in enumerate(columns):
            assert [row[j] for row in rows] == [as_csv_text(v) for v in table[column]]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("command", list(PARITY_RUNS))
    def test_config_echoes_exactly_the_flags_the_command_reads(
        self, command, fmt, two_mouse_files, tmp_path, capsys
    ):
        out = tmp_path / f"r.{fmt}"
        run(parity_argv(command, two_mouse_files, tmp_path) + ["--out", str(out), "--format", fmt],
            capsys)
        if fmt == "json":
            config = set(json.loads(out.read_text())["config"])
        else:
            scalars = parse_csv_output(out)[0]
            config = {key.removeprefix("config.") for key in scalars if key.startswith("config.")}
        dests = {action.dest for action in build_parser(command)._actions} - {"help", "out"}
        assert {"command", "format"} <= dests
        assert config == dests

    def test_ids_holding_commas_stay_one_field_in_csv(self, two_mouse_files, tmp_path, capsys):
        _, bins = two_mouse_files
        exposures = tmp_path / "commas.csv"
        exposures.write_text('mouse_id,exposed\nm1,1\nm2,0\n"x,y",1\nz,0\n', encoding="utf-8")
        base = ["--command", "estimate", "--exposures", str(exposures), "--bins", bins,
                "--optimal", "1"]
        json_out, csv_out = tmp_path / "r.json", tmp_path / "r.csv"
        assert run(base + ["--out", str(json_out)], capsys)[0] == 0
        assert run(base + ["--out", str(csv_out), "--format", "csv"], capsys)[0] == 0
        assert json.loads(json_out.read_text())["unmatched_exposure_ids"] == ["x,y", "z"]
        scalars, _, _ = parse_csv_output(csv_out)
        assert next(csv.reader([scalars["unmatched_exposure_ids"]])) == ["x,y", "z"]

    def test_ids_holding_line_breaks_stay_on_one_comment_line(
        self, two_mouse_files, tmp_path, capsys
    ):
        _, bins = two_mouse_files
        exposures = tmp_path / "breaks.csv"
        exposures.write_text('mouse_id,exposed\nm1,1\nm2,0\n"x\ny",1\n"z\rw",0\n', encoding="utf-8")
        out = tmp_path / "r.csv"
        args = ["--command", "curves", "--exposures", str(exposures), "--bins", bins,
                "--optimal", "1", "--out", str(out), "--format", "csv"]
        assert run(args, capsys)[0] == 0
        lines = out.read_bytes().split(b"\n")
        header = lines.index(b"theta,mean_reward_exposed,mean_reward_control")
        assert all(line.startswith(b"# ") for line in lines[:header])
        assert b"\r" not in b"".join(lines[:header])
        scalars, _, rows = parse_csv_output(out)
        assert next(csv.reader([scalars["unmatched_exposure_ids"]])) == ["x\\ny", "z\\rw"]
        assert rows

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_is_a_configuration_error(
        self, where, two_mouse_files, tmp_path, capsys
    ):
        exposures, bins = two_mouse_files
        out = tmp_path / "absent" / "r.json" if where == "missing-directory" else tmp_path
        code, stdout, stderr = run(
            ["--command", "estimate", "--exposures", exposures, "--bins", bins,
             "--optimal", "1", "--out", str(out)],
            capsys,
        )
        assert code == 2
        error = json.loads(stderr)["error"]
        assert error["class"] == "ConfigurationError"
        assert error["message"].startswith(f"cannot write --out {out}: ")
        assert stdout == ""

    def test_unwritable_out_fails_before_any_work(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr(cli, "run_monte_carlo", refuse)
        out = tmp_path / "absent" / "r.json"
        code, _, stderr = run(
            ["--command", "simulate-mc", "--datasets", "20000", "--out", str(out)], capsys
        )
        assert code == 2
        error = json.loads(stderr)["error"]
        assert error["class"] == "ConfigurationError"
        assert error["message"].startswith(f"cannot write --out {out}: ")

    def test_failed_run_leaves_no_empty_out(self, two_mouse_files, tmp_path, capsys):
        exposures, _ = two_mouse_files
        bins = tmp_path / "ragged.csv"
        bins.write_text("mouse_id,session,b0\nm1,1\n", encoding="utf-8")
        out = tmp_path / "r.json"
        code, _, stderr = run(
            ["--command", "estimate", "--exposures", exposures, "--bins", str(bins),
             "--optimal", "1", "--out", str(out)],
            capsys,
        )
        assert code == 1
        assert json.loads(stderr)["error"]["class"] == "SchemaError"
        assert not out.exists()

    def test_failed_run_keeps_an_existing_out(self, two_mouse_files, tmp_path, capsys):
        exposures, _ = two_mouse_files
        out = tmp_path / "r.json"
        out.write_text("earlier result\n", encoding="utf-8")
        code, _, _ = run(
            ["--command", "estimate", "--exposures", exposures, "--bins",
             str(tmp_path / "absent.csv"), "--optimal", "1", "--out", str(out)],
            capsys,
        )
        assert code == 1
        assert out.read_text(encoding="utf-8") == "earlier result\n"


class TestHostileInput:
    @pytest.mark.parametrize("target", ["exposures", "bins-header", "bins-body", "events"])
    def test_non_utf8_input_is_a_parse_error(self, target, tmp_path, capsys):
        exposures = b"mouse_id,exposed\nm1,1\nm2,0\n"
        # longer than one read buffer, so the header is read without the bad byte
        bins = b"mouse_id,session,b0\n" + b"".join(
            b"m%d,%d,3\n" % (1 + k % 2, k + 1) for k in range(2000)
        )
        events = b"mouse_id,session,press_time_s\nm1,1,2.0\nm2,1,57.0\n"
        if target == "exposures":
            exposures = exposures.replace(b"m2,0", b"m2,\xff")
        elif target == "bins-header":
            bins = bins.replace(b"b0", b"b\xff")
        elif target == "bins-body":
            bins += b"m1,9999,\xff\n"
        else:
            events = events.replace(b"57.0", b"5\xff")
        paths = {}
        for name, data in (("exposures", exposures), ("bins", bins), ("events", events)):
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_bytes(data)
        source, optimal = ("events", ",".join(["0"] * 12)) if target == "events" else ("bins", "1")
        bad = paths["exposures"] if target == "exposures" else paths[source]
        code, _, stderr = run(
            ["--command", "estimate", "--exposures", str(paths["exposures"]),
             f"--{source}", str(paths[source]), "--optimal", optimal,
             "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == 1
        error = json.loads(stderr)["error"]
        assert error["class"] == "ParseError"
        assert error["message"].startswith(f"cannot parse {bad}: 'utf-8' codec can't decode")


VALID_INPUTS = {
    "exposures": b"mouse_id,exposed\nm1,1\nm2,0\nm3,1\n",
    "bins": b"mouse_id,session,b0\nm1,1,3\nm2,1,2\nm3,2,5\n",
    "events": b"mouse_id,session,press_time_s\nm1,1,2.0\nm2,1,57.5\nm3,2,61.0\n",
}
SPLICES = [b",", b"\n", b"\r\n", b'"', b"-", b"0", b"9" * 20, b"\xff", b"\x80", b"\x00",
           b"\xef\xbb\xbf", b"nan", b"1e400", b"b0", b"m1"]


@st.composite
def mutated_file(draw, valid):
    """Random bytes, or a valid file with up to three short spans replaced."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=80))
    data = bytearray(valid)
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, len(data)))
        stop = draw(st.integers(start, min(len(data), start + 3)))
        data[start:stop] = draw(st.sampled_from(SPLICES) | st.binary(min_size=1, max_size=3))
    return bytes(data)


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["estimate", "ingest-check"]),
    source=st.sampled_from(["bins", "events"]),
    files=st.fixed_dictionaries({name: mutated_file(v) for name, v in VALID_INPUTS.items()}),
    optimal=st.sampled_from([0.0, 1.0, 1e100, 1e200, 1.7e308]),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_fuzzed_inputs_exit_cleanly(command, source, files, optimal, sign):
    """Any input bytes give exit 0, 1 or 2, and every failure a JSON error on stderr.

    A run that succeeds writes strict JSON, with an estimate in [0, 1].
    """
    with tempfile.TemporaryDirectory() as directory:
        for name, data in files.items():
            with open(os.path.join(directory, f"{name}.csv"), "wb") as fh:
                fh.write(data)
        components = [sign * optimal] + ([] if source == "bins" else [0.0] * 11)
        out = os.path.join(directory, "r.json")
        argv = ["--command", command, "--exposures", os.path.join(directory, "exposures.csv"),
                f"--{source}", os.path.join(directory, f"{source}.csv"), "--out", out]
        if command == "estimate":  # ingest-check does not read --optimal
            # one token, or argparse reads a leading "-1e+100" as an option
            argv.append("--optimal=" + ",".join(map(repr, components)))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        if code == 0:
            with open(out, encoding="utf-8") as fh:
                written = strict_json(fh.read())
    assert code in (0, 1, 2)
    if code != 0:
        error = json.loads(stderr.getvalue())["error"]  # stderr is one JSON object
        assert isinstance(error["class"], str) and isinstance(error["message"], str)
    elif command == "estimate":
        assert 0.0 <= written["result"]["theta_e"] <= 1.0


@pytest.mark.parametrize("optimal", ["1e100", "1e200"])
@pytest.mark.parametrize("command", ["estimate", "curves"])
def test_divergences_too_large_to_square_are_refused(command, optimal, tmp_path, capsys):
    # the squared divergences are 1e200, past the estimator's bound, and inf
    exposures = tmp_path / "exposures.csv"
    exposures.write_text("mouse_id,exposed\nm1,1\nm2,0\n", encoding="utf-8")
    bins = tmp_path / "bins.csv"
    bins.write_text("mouse_id,session,b0,b1\nm1,1,3,0\nm2,1,2,1\n", encoding="utf-8")
    out = tmp_path / "r.json"
    code, stdout, stderr = run(
        ["--command", command, "--exposures", str(exposures), "--bins", str(bins),
         "--optimal", f"{optimal},0", "--out", str(out)],
        capsys,
    )
    assert code == 1
    assert stdout == ""
    assert len(stderr.splitlines()) == 1
    error = strict_json(stderr)["error"]
    assert error["class"] == "InputError"
    assert "at most 1e+150" in error["message"]
    assert not out.exists()


class TestUsageErrors:
    """Flags argparse rejects exit 2 with one JSON error, like every other failure."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--command", "simulate-mc", "--optimal", "-1e100"], "--optimal=-1e100"),
            (["--command", "simulate"], "argument --command: invalid choice: 'simulate'"),
            (["--command", "simulate-mc", "--seed", "1.5"], "argument --seed: invalid int value"),
            (["--command", "curves", "--exposures", "e.csv", "--bins", "b.csv", "--optimal", "1",
              "--grid-step", "abc"], "argument --grid-step: invalid float value: 'abc'"),
        ],
        ids=["negative-exponent", "unknown-command", "bad-seed", "bad-grid-step"],
    )
    def test_rejected_flags_are_json_configuration_errors(self, args, message, tmp_path, capsys):
        out = tmp_path / "r.json"
        code, stdout, stderr = run(args + ["--out", str(out)], capsys)
        assert code == 2
        assert stdout == ""
        assert len(stderr.splitlines()) == 1
        error = strict_json(stderr)["error"]
        assert error["class"] == "ConfigurationError"
        assert message in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1,nan"])
    @pytest.mark.parametrize("command", ["estimate", "curves", "simulate-mc", "consistency"])
    def test_a_non_finite_optimum_is_a_configuration_error(
        self, command, value, two_mouse_files, tmp_path, capsys
    ):
        exposures, bins = two_mouse_files
        files = ["--exposures", exposures, "--bins", bins] if command in ("estimate", "curves") else []
        out = tmp_path / "r.json"
        code, stdout, stderr = run(
            ["--command", command, *files, f"--optimal={value}", "--out", str(out)], capsys
        )
        assert code == 2
        assert stdout == ""
        error = strict_json(stderr)["error"]
        assert error["class"] == "ConfigurationError"
        assert error["message"].startswith("argument --optimal: ")
        assert not out.exists()

    def test_attached_negative_optimum_is_accepted(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code, _, _ = run(
            ["--command", "simulate-mc", "--optimal=-1e10", "--datasets", "2", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert json.loads(out.read_text())["config"]["optimal"] == -1e10

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        usage = capsys.readouterr().out
        assert "usage: divtol" in usage
        assert all(command in usage for command in cli._DISPATCH)

    @pytest.mark.parametrize("command", list(cli._DISPATCH))
    def test_a_command_help_lists_only_its_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--command", command, "--help"])
        assert exit_info.value.code == 0
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == option_strings(command) | {"--help"}


def test_simulated_divergences_too_large_to_square_are_refused(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, stdout, stderr = run(
        ["--command", "simulate-mc", "--optimal", "1e100", "--datasets", "5", "--out", str(out)],
        capsys,
    )
    assert code == 1
    assert stdout == ""
    assert strict_json(stderr) == {"error": {
        "class": "InputError",
        "message": "divergences must be finite and at most 1e+150, got 1e+200; "
        "rescale the actions and the optimum",
    }}
    assert not out.exists()


#: flags each command leaves unread, a value for each other than its
#: default, and a run of each command that resolves
UNREAD_FLAGS = {
    "estimate": ["--method", "--grid-step", "--n", "--datasets", "--p-exposed"],
    "curves": ["--method", "--bootstrap", "--level", "--seed", "--n", "--datasets", "--p-exposed"],
    "simulate-mc": ["--exposures", "--bins", "--events", "--norm", "--weights", "--method",
                    "--grid-step", "--bootstrap", "--level"],
    "consistency": ["--exposures", "--bins", "--events", "--norm", "--weights", "--method",
                    "--grid-step", "--bootstrap", "--level", "--p-exposed"],
    "ingest-check": ["--optimal", "--norm", "--weights", "--method", "--grid-step", "--bootstrap",
                     "--level", "--seed", "--n", "--datasets", "--p-exposed"],
}
NON_DEFAULT = {
    "--exposures": "e.csv", "--bins": "b.csv", "--events": "v.csv", "--optimal": "1",
    "--norm": "l1", "--weights": "sixty-minus-midpoint", "--method": "grid", "--grid-step": "0.25",
    "--bootstrap": "100", "--level": "0.9", "--seed": "3", "--n": "20", "--datasets": "5",
    "--p-exposed": "0.3",
}
#: unread flags given at a value another command takes by default
UNREAD_AT_A_DEFAULT = [("curves", "--seed", "0"), ("consistency", "--p-exposed", "0.5"),
                       ("estimate", "--datasets", "2000"), ("ingest-check", "--norm", "l2")]
FILE_RUN = ["--exposures", "e.csv", "--bins", "b.csv"]
RESOLVING_RUNS = {
    "estimate": FILE_RUN + ["--optimal", "1"],
    "curves": FILE_RUN + ["--optimal", "1"],
    "simulate-mc": [],
    "consistency": [],
    "ingest-check": FILE_RUN,
}


class TestResourceBounds:
    """Flags outside their range, or that the command does not read, are refused before any work.

    The range of a flag that sizes an allocation ends at its limit.
    """

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a command ran")

        for name in ("bootstrap_ci", "run_monte_carlo", "consistency_sweep", "parse_exposures"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize(
        "args",
        [
            ["--command", "estimate", "--exposures", "e.csv", "--bins", "b.csv", "--optimal", "1",
             "--bootstrap", str(BOOTSTRAP_MAX_REPLICATES + 1)],
            ["--command", "simulate-mc", "--n", str(MAX_N + 1)],
            ["--command", "simulate-mc", "--datasets", str(MAX_DATASETS + 1)],
            ["--command", "consistency", "--n", f"50,{MAX_N + 1}"],
            ["--command", "consistency", "--datasets", str(MAX_DATASETS + 1)],
            ["--command", "consistency", "--datasets", "1"],
            ["--command", "consistency", "--n", "200,50"],
            ["--command", "consistency", "--p-exposed", "0.1"],
        ],
        ids=["bootstrap", "mc-n", "mc-datasets", "consistency-n", "consistency-datasets",
             "consistency-one-dataset", "consistency-decreasing-n", "consistency-p-exposed"],
    )
    def test_one_past_the_limit_is_a_configuration_error(self, args, tmp_path, capsys):
        out = tmp_path / "r.json"
        code, _, stderr = run(args + ["--out", str(out)], capsys)
        assert code == 2
        assert json.loads(stderr)["error"]["class"] == "ConfigurationError"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [(c, f, NON_DEFAULT[f]) for c, flags in UNREAD_FLAGS.items() for f in flags]
        + UNREAD_AT_A_DEFAULT,
        ids=[f"{c}-{f}" for c, flags in UNREAD_FLAGS.items() for f in flags]
        + [f"{c}-{f}-default" for c, f, _ in UNREAD_AT_A_DEFAULT],
    )
    def test_a_flag_the_command_does_not_read_is_a_configuration_error(
        self, command, flag, value, tmp_path, capsys
    ):
        base = ["--command", command, *RESOLVING_RUNS[command], "--out", str(tmp_path / "r.json")]
        cli._parse_args(base)
        code, _, stderr = run(base + [flag, value], capsys)
        assert code == 2
        assert json.loads(stderr)["error"] == {
            "class": "ConfigurationError",
            "message": f"--command {command} does not read {flag}",
        }
        assert not (tmp_path / "r.json").exists()

    def test_the_limits_themselves_resolve(self):
        def resolve(*args):
            return cli._parse_args([*args, "--out", "r.json"])

        estimate = resolve("--command", "estimate", "--exposures", "e.csv", "--bins", "b.csv",
                           "--optimal", "1", "--bootstrap", str(BOOTSTRAP_MAX_REPLICATES))
        assert estimate.bootstrap == BOOTSTRAP_MAX_REPLICATES
        mc = resolve("--command", "simulate-mc", "--n", str(MAX_N), "--datasets", str(MAX_DATASETS))
        assert (mc.n, mc.datasets) == (MAX_N, MAX_DATASETS)
        sweep = resolve("--command", "consistency", "--n", str(MAX_N), "--datasets", str(MAX_DATASETS))
        assert (sweep.n, sweep.datasets) == ((MAX_N,), MAX_DATASETS)
        sweep = resolve("--command", "consistency", "--n", "50,50", "--datasets", "2")
        assert (sweep.n, sweep.datasets) == ((50, 50), 2)


def test_the_readme_table_of_flags_read_matches_the_parsers():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme[readme.index("| command | reads |"):].split("\n\n")[0]
    rows = {}
    for line in table.splitlines()[2:]:
        _, command, reads, _ = line.split("|")
        rows[command.strip(" `")] = set(re.findall(r"`(--[a-z-]+)`", reads))
    every_command_reads = {"--command", "--out", "--format"}
    assert rows == {c: option_strings(c) - every_command_reads for c in cli._DISPATCH}


def test_runs_as_a_module(two_mouse_files, tmp_path):
    exposures, bins = two_mouse_files
    out = tmp_path / "r.json"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(divtol.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "divtol.cli", "--command", "estimate", "--exposures", exposures,
         "--bins", bins, "--optimal", "1", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["result"]["theta_e"] == pytest.approx(0.2, abs=1e-12)


@pytest.mark.parametrize("command", ["estimate", "curves"])
def test_unmatched_exposure_ids_go_to_out_not_stderr(command, tmp_path):
    # m3 is exposed but has no bins; --optimal 1,2 fails after assembly
    exposures = tmp_path / "exposures.csv"
    exposures.write_text("mouse_id,exposed\nm1,1\nm2,0\nm3,1\n", encoding="utf-8")
    bins = tmp_path / "bins.csv"
    bins.write_text("mouse_id,session,b0\nm1,1,3\nm2,1,2\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(divtol.__file__)))

    def run_module(optimal, out):
        return subprocess.run(
            [sys.executable, "-m", "divtol.cli", "--command", command, "--exposures", str(exposures),
             "--bins", str(bins), "--optimal", optimal, "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )

    failed = run_module("1,2", tmp_path / "bad.json")
    assert failed.returncode == 1
    assert json.loads(failed.stderr)["error"]["class"] == "InputError"  # one JSON object, nothing else
    out = tmp_path / "r.json"
    done = run_module("1", out)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(out.read_text())["unmatched_exposure_ids"] == ["m3"]
