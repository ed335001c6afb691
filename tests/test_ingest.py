"""File parsing, event binning, session averaging, and dataset assembly."""

import csv

import numpy as np
import pytest

from divtol import (
    BinnedSession,
    DataError,
    InputError,
    LinkageError,
    ParseError,
    SchemaError,
    StudyLayout,
    assemble_dataset,
    average_sessions,
    bin_events,
    parse_binned_counts,
    parse_events,
    parse_exposures,
    validate_dataset,
)

LAYOUT = StudyLayout()


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def write_binned_counts(path, sessions, d):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mouse_id", "session"] + [f"b{j}" for j in range(d)])
        for s in sessions:
            writer.writerow([s.mouse_id, s.session] + [int(c) for c in s.counts])
    return path


class TestStudyLayout:
    def test_default_geometry(self):
        assert LAYOUT.n_bins == 12
        np.testing.assert_allclose(LAYOUT.midpoints, np.arange(2.5, 60.0, 5.0))

    def test_bin_width_must_divide_interval(self):
        with pytest.raises(InputError):
            StudyLayout(interval_length_s=60.0, bin_width_s=7.0)


class TestParseExposures:
    def test_basic_map(self, tmp_path):
        path = write(tmp_path / "e.csv", "mouse_id,exposed\nm1,1\nm2,0\n")
        assert parse_exposures(path) == {"m1": 1, "m2": 0}

    def test_crlf_tolerated(self, tmp_path):
        path = write(tmp_path / "e.csv", "mouse_id,exposed\r\nm1,1\r\nm2,0\r\n")
        assert parse_exposures(path) == {"m1": 1, "m2": 0}

    def test_consistent_duplicate_tolerated(self, tmp_path):
        path = write(tmp_path / "e.csv", "mouse_id,exposed\nm1,1\nm1,1\n")
        assert parse_exposures(path) == {"m1": 1}

    def test_conflicting_duplicate_rejected(self, tmp_path):
        path = write(tmp_path / "e.csv", "mouse_id,exposed\nm1,1\nm1,0\n")
        with pytest.raises(DataError):
            parse_exposures(path)

    def test_non_binary_state_rejected_with_line_number(self, tmp_path):
        path = write(tmp_path / "e.csv", "mouse_id,exposed\nm1,2\n")
        with pytest.raises(ParseError) as err:
            parse_exposures(path)
        assert err.value.line_number == 2

    def test_missing_header_rejected(self, tmp_path):
        path = write(tmp_path / "e.csv", "m1,1\n")
        with pytest.raises(SchemaError):
            parse_exposures(path)


class TestParseBinnedCounts:
    def test_zero_counts_row(self, tmp_path):
        header = "mouse_id,session," + ",".join(f"b{j}" for j in range(12))
        path = write(tmp_path / "b.csv", header + "\nm1,1," + ",".join(["0"] * 12) + "\n")
        sessions = parse_binned_counts(path, LAYOUT)
        assert len(sessions) == 1
        np.testing.assert_array_equal(sessions[0].counts, np.zeros(12, dtype=int))

    def test_counts_keep_bin_order(self, tmp_path):
        header = "mouse_id,session," + ",".join(f"b{j}" for j in range(12))
        row = "m1,3," + ",".join(["0"] * 11) + ",5"
        path = write(tmp_path / "b.csv", header + "\n" + row + "\n")
        session = parse_binned_counts(path, LAYOUT)[0]
        assert session.session == 3
        assert session.counts[-1] == 5
        assert session.counts[:-1].sum() == 0

    def test_full_study_row_count(self, tmp_path):
        rng = np.random.default_rng(0)
        sessions = [
            BinnedSession(f"m{i}", k, rng.integers(0, 9, size=12))
            for i in range(26)
            for k in range(1, 26)
        ]
        path = write_binned_counts(tmp_path / "b.csv", sessions, d=12)
        assert len(parse_binned_counts(path, LAYOUT)) == 26 * 25

    def test_ragged_row_rejected_with_line_number(self, tmp_path):
        header = "mouse_id,session," + ",".join(f"b{j}" for j in range(12))
        path = write(tmp_path / "b.csv", header + "\nm1,1," + ",".join(["0"] * 11) + "\n")
        with pytest.raises(SchemaError) as err:
            parse_binned_counts(path, LAYOUT)
        assert err.value.line_number == 2

    def test_negative_count_rejected(self, tmp_path):
        header = "mouse_id,session," + ",".join(f"b{j}" for j in range(12))
        path = write(tmp_path / "b.csv", header + "\nm1,1,-1," + ",".join(["0"] * 11) + "\n")
        with pytest.raises(DataError, match="^line 2: negative count"):
            parse_binned_counts(path, LAYOUT)

    def test_session_below_one_rejected_with_line_number(self, tmp_path):
        path = write(tmp_path / "b.csv", "mouse_id,session,b0\nm2,1,4\nm1,0,1\n")
        with pytest.raises(DataError, match="^line 3: session must be >= 1"):
            parse_binned_counts(path, StudyLayout(bin_width_s=60.0))

    @pytest.mark.parametrize("count", ["99999999999999999999", str(2**63)])
    def test_count_beyond_int64_is_a_line_numbered_data_error(self, count, tmp_path):
        path = write(tmp_path / "b.csv", f"mouse_id,session,b0\nm2,1,4\nm1,1,{count}\n")
        with pytest.raises(DataError, match="^line 3: count beyond int64"):
            parse_binned_counts(path, StudyLayout(bin_width_s=60.0))

    def test_oversized_field_is_a_parse_error(self, tmp_path):
        path = write(tmp_path / "b.csv", "mouse_id,session,b0\n" + "1" * 200_000 + ",1,1\n")
        with pytest.raises(ParseError, match="field larger than field limit"):
            parse_binned_counts(path, StudyLayout(bin_width_s=60.0))

    def test_header_mismatch_rejected(self, tmp_path):
        path = write(tmp_path / "b.csv", "mouse,sess,b0\nm1,1,0\n")
        with pytest.raises(SchemaError):
            parse_binned_counts(path, StudyLayout(bin_width_s=60.0))

    def test_duplicate_session_rejected_naming_both_lines(self, tmp_path):
        path = write(tmp_path / "b.csv", "mouse_id,session,b0\nm1,1,3\nm2,1,4\nm1,1,9\n")
        with pytest.raises(DataError, match="lines 2 and 4"):
            parse_binned_counts(path, StudyLayout(bin_width_s=60.0))


@pytest.mark.parametrize(
    "session, counts",
    [(1, [3, -1]), (0, [3, 1]), (1, [3, 2**64])],
    ids=["negative-count", "session-zero", "beyond-int64"],
)
def test_binned_session_rejects_inadmissible_values(session, counts):
    with pytest.raises(DataError):
        BinnedSession("m1", session, counts)


def test_byte_order_mark_is_ignored(tmp_path):
    exposures = "mouse_id,exposed\nm1,1\nm2,0\n"
    header = "mouse_id,session," + ",".join(f"b{j}" for j in range(12))
    bins = header + "\nm1,1," + ",".join(["2"] * 12) + "\nm2,1," + ",".join(["5"] * 12) + "\n"
    datasets = []
    for prefix in ("", "\ufeff"):
        directory = tmp_path / f"bom{len(prefix)}"
        directory.mkdir()
        e = write(directory / "e.csv", prefix + exposures)
        b = write(directory / "b.csv", prefix + bins)
        actions = average_sessions(parse_binned_counts(b, LAYOUT), LAYOUT)
        datasets.append(assemble_dataset(parse_exposures(e), actions, LAYOUT))
    plain, bommed = datasets
    assert (tmp_path / "bom1" / "e.csv").read_bytes().startswith(b"\xef\xbb\xbf")
    assert plain.ids == bommed.ids
    np.testing.assert_array_equal(plain.states, bommed.states)
    np.testing.assert_array_equal(plain.actions, bommed.actions)


class TestBinEvents:
    def test_early_presses_share_the_first_bin(self):
        sessions = bin_events([("m1", 1, 0.1), ("m1", 1, 4.9)], LAYOUT)
        assert sessions[0].counts[0] == 2
        assert sessions[0].counts.sum() == 2

    def test_time_wraps_at_the_interval(self):
        sessions = bin_events([("m1", 1, 62.0)], LAYOUT)
        assert sessions[0].counts[0] == 1

    def test_last_moment_lands_in_last_bin(self):
        sessions = bin_events([("m1", 1, 59.999)], LAYOUT)
        assert sessions[0].counts[-1] == 1

    def test_negative_time_rejected(self):
        with pytest.raises(DataError):
            bin_events([("m1", 1, -0.5)], LAYOUT)

    def test_conservation_over_random_events(self):
        rng = np.random.default_rng(1)
        events = [
            (f"m{int(rng.integers(0, 5))}", int(rng.integers(1, 4)), float(rng.uniform(0, 1800)))
            for _ in range(10_000)
        ]
        sessions = bin_events(events, LAYOUT)
        assert sum(int(s.counts.sum()) for s in sessions) == len(events)
        per_mouse = {}
        for mouse_id, _, _ in events:
            per_mouse[mouse_id] = per_mouse.get(mouse_id, 0) + 1
        for mouse_id, expected in per_mouse.items():
            got = sum(int(s.counts.sum()) for s in sessions if s.mouse_id == mouse_id)
            assert got == expected


class TestAverageSessions:
    def test_single_session_passthrough(self):
        counts = np.arange(12)
        out = average_sessions([BinnedSession("m1", 1, counts)], LAYOUT)
        np.testing.assert_allclose(out["m1"], counts)

    def test_two_session_midpoint(self):
        a = np.r_[np.zeros(11, dtype=int), 2]
        b = np.r_[np.zeros(11, dtype=int), 4]
        out = average_sessions(
            [BinnedSession("m1", 1, a), BinnedSession("m1", 2, b)], LAYOUT
        )
        np.testing.assert_allclose(out["m1"], np.r_[np.zeros(11), 3.0])

    def test_missing_sessions_shrink_the_divisor(self):
        # mouse with one session is averaged over one session, not padded
        out = average_sessions(
            [
                BinnedSession("m1", 1, np.full(12, 4)),
                BinnedSession("m1", 2, np.full(12, 2)),
                BinnedSession("m2", 1, np.full(12, 6)),
            ],
            LAYOUT,
        )
        np.testing.assert_allclose(out["m1"], np.full(12, 3.0))
        np.testing.assert_allclose(out["m2"], np.full(12, 6.0))

    def test_matches_column_mean_oracle(self):
        rng = np.random.default_rng(2)
        counts = rng.integers(0, 10, size=(25, 12))
        sessions = [BinnedSession("m1", k + 1, counts[k]) for k in range(25)]
        out = average_sessions(sessions, LAYOUT)
        expected = [sum(int(counts[k][j]) for k in range(25)) / 25.0 for j in range(12)]
        np.testing.assert_allclose(out["m1"], expected, atol=1e-12)

    def test_order_invariance(self):
        rng = np.random.default_rng(3)
        sessions = [BinnedSession("m1", k + 1, rng.integers(0, 9, size=12)) for k in range(25)]
        forward = average_sessions(sessions, LAYOUT)
        perm = [sessions[i] for i in rng.permutation(25)]
        shuffled = average_sessions(perm, LAYOUT)
        np.testing.assert_array_equal(forward["m1"], shuffled["m1"])


class TestAssembleDataset:
    def test_two_mouse_assembly(self):
        actions = {"m1": np.ones(12), "m2": np.zeros(12)}
        ds = assemble_dataset({"m1": 1, "m2": 0}, actions, LAYOUT)
        assert len(ds) == 2
        assert ds.dimension == 12
        assert validate_dataset(ds).ok

    def test_unknown_action_id_rejected(self):
        with pytest.raises(LinkageError) as err:
            assemble_dataset({"m1": 1}, {"m1": np.ones(12), "mX": np.ones(12)}, LAYOUT)
        assert "mX" in str(err.value)

    def test_exposure_without_action_is_reported_not_dropped(self, caplog):
        actions = {"m1": np.ones(12), "m2": np.zeros(12)}
        with caplog.at_level("WARNING", logger="divtol.ingest"):
            ds = assemble_dataset({"m1": 1, "m2": 0, "m3": 1}, actions, LAYOUT)
        assert len(ds) == 2
        assert any("m3" in rec.getMessage() for rec in caplog.records)


class TestRoundTrip:
    def test_events_to_file_and_back(self, tmp_path):
        rng = np.random.default_rng(4)
        events = [
            (f"m{int(rng.integers(0, 8))}", int(rng.integers(1, 6)), float(rng.uniform(0, 1800)))
            for _ in range(10_000)
        ]
        sessions = bin_events(events, LAYOUT)
        path = write_binned_counts(tmp_path / "b.csv", sessions, d=12)
        reparsed = parse_binned_counts(path, LAYOUT)
        assert len(reparsed) == len(sessions)
        key = lambda s: (s.mouse_id, s.session)
        for original, parsed in zip(sorted(sessions, key=key), sorted(reparsed, key=key)):
            assert original.mouse_id == parsed.mouse_id
            assert original.session == parsed.session
            np.testing.assert_array_equal(original.counts, parsed.counts)

    def test_simulator_fixture_end_to_end(self, tmp_path):
        # 48 mice x 25 sessions through files -> dataset, clean validation
        rng = np.random.default_rng(5)
        mice = [f"m{i:02d}" for i in range(48)]
        exposures = {m: int(i < 22) for i, m in enumerate(mice)}
        sessions = [
            BinnedSession(m, k, rng.poisson(3.0, size=12))
            for m in mice
            for k in range(1, 26)
        ]
        bins_path = write_binned_counts(tmp_path / "b.csv", sessions, d=12)
        exposures_path = write(
            tmp_path / "e.csv",
            "mouse_id,exposed\n" + "".join(f"{m},{s}\n" for m, s in exposures.items()),
        )
        parsed_exposures = parse_exposures(exposures_path)
        actions = average_sessions(parse_binned_counts(bins_path, LAYOUT), LAYOUT)
        ds = assemble_dataset(parsed_exposures, actions, LAYOUT)
        assert len(ds) == 48
        assert sorted(set(ds.states)) == [0, 1]
        assert validate_dataset(ds).ok
