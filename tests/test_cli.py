"""Command-line interface: dispatch, serialization, determinism, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

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
    scalars, columns, rows = {}, None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            scalars[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return scalars, columns, rows


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
        assert payload["result"]["method"] == "CLOSED_FORM"
        assert payload["result"]["clamped"] is False
        assert payload["result"]["bootstrap"] is None
        assert payload["config"]["seed"] == 0
        assert "tolerates divergence from optimality more" in stdout

    def test_grid_method(self, two_mouse_files, tmp_path, capsys):
        exposures, bins = two_mouse_files
        out = tmp_path / "result.json"
        code, _, _ = run(
            ["--command", "estimate", "--exposures", exposures, "--bins", bins,
             "--optimal", "1", "--method", "grid", "--out", str(out)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["method"] == "GRID"
        assert payload["result"]["theta_e"] == pytest.approx(0.2, abs=2e-6)

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

    @pytest.mark.parametrize("command", ["estimate", "curves"])
    def test_grid_step_below_the_default_rejected(self, command, two_mouse_files, tmp_path, capsys):
        exposures, bins = two_mouse_files
        code, _, stderr = run(
            ["--command", command, "--exposures", exposures, "--bins", bins, "--optimal", "1",
             "--method", "grid", "--grid-step", "1e-9", "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == 2
        assert json.loads(stderr)["error"]["class"] == "ConfigurationError"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command", ["estimate", "curves"])
    def test_grid_step_that_does_not_divide_one_rejected(
        self, command, two_mouse_files, tmp_path, capsys
    ):
        exposures, bins = two_mouse_files
        code, _, stderr = run(
            ["--command", command, "--exposures", exposures, "--bins", bins, "--optimal", "1",
             "--method", "grid", "--grid-step", "0.3", "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == 2
        error = json.loads(stderr)["error"]
        assert error["class"] == "ConfigurationError"
        assert "divide 1" in error["message"]
        assert not (tmp_path / "r.json").exists()

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

    def test_json_and_csv_carry_identical_values(self, two_mouse_files, tmp_path, capsys):
        exposures, bins = two_mouse_files
        json_out, csv_out = tmp_path / "r.json", tmp_path / "r.csv"
        base = ["--command", "estimate", "--exposures", exposures, "--bins", bins,
                "--optimal", "1", "--bootstrap", "120"]
        run(base + ["--out", str(json_out)], capsys)
        run(base + ["--out", str(csv_out), "--format", "csv"], capsys)
        payload = json.loads(json_out.read_text())
        scalars, _, _ = parse_csv_output(csv_out)
        for key in ("theta_e", "objective_at_min", "quadratic.var_u", "quadratic.cov_uv",
                    "quadratic.var_v", "bootstrap.lo", "bootstrap.hi"):
            node = payload["result"]
            for part in key.split("."):
                node = node[part]
            assert abs(float(scalars[f"result.{key}"]) - node) <= 1e-12 * max(1.0, abs(node))


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

    def test_json_and_csv_rows_match(self, two_mouse_files, tmp_path, capsys):
        exposures, bins = two_mouse_files
        json_out, csv_out = tmp_path / "c.json", tmp_path / "c.csv"
        base = ["--command", "curves", "--exposures", exposures, "--bins", bins,
                "--optimal", "1", "--grid-step", "0.25"]
        run(base + ["--out", str(json_out)], capsys)
        run(base + ["--out", str(csv_out), "--format", "csv"], capsys)
        payload = json.loads(json_out.read_text())
        _, _, rows = parse_csv_output(csv_out)
        for row, theta, exposed, control in zip(
            rows,
            payload["samples"]["theta"],
            payload["samples"]["mean_reward_exposed"],
            payload["samples"]["mean_reward_control"],
        ):
            assert abs(float(row[0]) - theta) <= 1e-12
            assert abs(float(row[1]) - exposed) <= 1e-12 * max(1.0, abs(exposed))
            assert abs(float(row[2]) - control) <= 1e-12 * max(1.0, abs(control))


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

    def test_csv_parity(self, tmp_path, capsys):
        json_out, csv_out = tmp_path / "mc.json", tmp_path / "mc.csv"
        base = ["--command", "simulate-mc", "--n", "20", "--datasets", "5", "--seed", "4"]
        run(base + ["--out", str(json_out)], capsys)
        run(base + ["--out", str(csv_out), "--format", "csv"], capsys)
        payload = json.loads(json_out.read_text())
        scalars, columns, rows = parse_csv_output(csv_out)
        assert columns == ["theta", "b1"]
        assert float(scalars["summary.frac_theta_below_half"]) == payload["summary"][
            "frac_theta_below_half"
        ]
        for row, theta, b1 in zip(rows, payload["estimates"]["theta"], payload["estimates"]["b1"]):
            assert float(row[0]) == theta
            assert float(row[1]) == b1


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
        assert len(payload["rows"]) == 1
        assert payload["rows"][0]["n"] == 50

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
        assert payload["report"]["violations"] == []
        assert payload["report"]["n"] == 2
        assert "clean" in stdout

    def test_single_group_reported(self, tmp_path, capsys):
        exposures = tmp_path / "e.csv"
        exposures.write_text("mouse_id,exposed\nm1,1\nm2,1\n", encoding="utf-8")
        bins = tmp_path / "b.csv"
        bins.write_text("mouse_id,session,b0\nm1,1,3\nm2,1,2\n", encoding="utf-8")
        out = tmp_path / "report.json"
        code, _, _ = run(
            ["--command", "ingest-check", "--exposures", str(exposures), "--bins", str(bins),
             "--out", str(out)],
            capsys,
        )
        assert code == 1
        violations = json.loads(out.read_text())["report"]["violations"]
        assert any("missing control group" in v for v in violations)

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
        violations = json.loads(out.read_text())["report"]["violations"]
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
        violations = json.loads(out.read_text())["report"]["violations"]
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


class TestResourceBounds:
    """Flags that size an allocation are refused above their limit, before any work."""

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
        ],
        ids=["bootstrap", "mc-n", "mc-datasets", "consistency-n", "consistency-datasets"],
    )
    def test_one_past_the_limit_is_a_configuration_error(self, args, tmp_path, capsys):
        out = tmp_path / "r.json"
        code, _, stderr = run(args + ["--out", str(out)], capsys)
        assert code == 2
        assert json.loads(stderr)["error"]["class"] == "ConfigurationError"
        assert not out.exists()

    def test_the_limits_themselves_resolve(self):
        def resolve(*args):
            return cli._resolve_config(build_parser().parse_args([*args, "--out", "r.json"]))

        estimate = resolve("--command", "estimate", "--exposures", "e.csv", "--bins", "b.csv",
                           "--optimal", "1", "--bootstrap", str(BOOTSTRAP_MAX_REPLICATES))
        assert estimate.bootstrap == BOOTSTRAP_MAX_REPLICATES
        for command in ("simulate-mc", "consistency"):
            cfg = resolve("--command", command, "--n", str(MAX_N), "--datasets", str(MAX_DATASETS))
            assert (cfg.n, cfg.datasets) == ((MAX_N,), MAX_DATASETS)


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
