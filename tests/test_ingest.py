"""File parsing, event binning, session averaging, and dataset assembly."""

import csv
import gc
import math
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divtol import ingest
from divtol import (
    DataError,
    DivtolError,
    Events,
    InputError,
    LinkageError,
    ParseError,
    SchemaError,
    Sessions,
    StudyLayout,
    assemble_dataset,
    average_sessions,
    bin_events,
    parse_binned_counts,
    parse_events,
    parse_exposures,
    validate_dataset,
)
from event_tuples import events_from_tuples

LAYOUT = StudyLayout()


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def write_binned_counts(path, rows, d):
    """A binned-counts file of ``(mouse_id, session, counts)`` rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mouse_id", "session"] + [f"b{j}" for j in range(d)])
        for mouse_id, session, counts in rows:
            writer.writerow([mouse_id, session] + [int(c) for c in counts])
    return path


def parsed_sessions(path, rows, d=12):
    """The ``Sessions`` that parsing a binned-counts file of ``rows`` gives."""
    write_binned_counts(path, rows, d)
    return parse_binned_counts(path)


def session_rows(sessions):
    """Each row of a ``Sessions`` as ``(mouse_id, session, counts)``, counts as a list."""
    ids = [sessions.mouse_ids[c] for c in sessions.codes.tolist()]
    return list(zip(ids, sessions.session.tolist(), sessions.counts.tolist()))


class TestStudyLayout:
    def test_default_geometry(self):
        assert LAYOUT.n_bins == 12
        np.testing.assert_allclose(LAYOUT.midpoints, np.arange(2.5, 60.0, 5.0))

    def test_bin_width_must_divide_interval(self):
        with pytest.raises(InputError):
            StudyLayout(interval_length_s=60.0, bin_width_s=7.0)

    @pytest.mark.parametrize(
        "interval, width",
        [(math.nan, 5.0), (60.0, math.nan), (math.inf, 5.0), (60.0, math.inf), (math.inf, math.inf)],
    )
    def test_non_finite_lengths_are_refused(self, interval, width):
        with pytest.raises(InputError, match="^interval and bin lengths must be positive and finite$"):
            StudyLayout(interval_length_s=interval, bin_width_s=width)


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
        sessions = parse_binned_counts(path)
        assert len(sessions) == 1
        np.testing.assert_array_equal(sessions.counts[0], np.zeros(12, dtype=int))

    def test_counts_keep_bin_order(self, tmp_path):
        header = "mouse_id,session," + ",".join(f"b{j}" for j in range(12))
        row = "m1,3," + ",".join(["0"] * 11) + ",5"
        path = write(tmp_path / "b.csv", header + "\n" + row + "\n")
        sessions = parse_binned_counts(path)
        assert sessions.session[0] == 3
        assert sessions.counts[0, -1] == 5
        assert sessions.counts[0, :-1].sum() == 0

    def test_full_study_row_count(self, tmp_path):
        rng = np.random.default_rng(0)
        sessions = [
            (f"m{i}", k, rng.integers(0, 9, size=12))
            for i in range(26)
            for k in range(1, 26)
        ]
        path = write_binned_counts(tmp_path / "b.csv", sessions, d=12)
        assert len(parse_binned_counts(path)) == 26 * 25

    def test_ragged_row_rejected_with_line_number(self, tmp_path):
        header = "mouse_id,session," + ",".join(f"b{j}" for j in range(12))
        path = write(tmp_path / "b.csv", header + "\nm1,1," + ",".join(["0"] * 11) + "\n")
        with pytest.raises(SchemaError) as err:
            parse_binned_counts(path)
        assert err.value.line_number == 2

    def test_negative_count_rejected(self, tmp_path):
        header = "mouse_id,session," + ",".join(f"b{j}" for j in range(12))
        path = write(tmp_path / "b.csv", header + "\nm1,1,-1," + ",".join(["0"] * 11) + "\n")
        with pytest.raises(DataError, match="^line 2: negative count"):
            parse_binned_counts(path)

    def test_session_below_one_rejected_with_line_number(self, tmp_path):
        path = write(tmp_path / "b.csv", "mouse_id,session,b0\nm2,1,4\nm1,0,1\n")
        with pytest.raises(DataError, match="^line 3: session must be >= 1"):
            parse_binned_counts(path)

    @pytest.mark.parametrize("count", ["99999999999999999999", str(2**63)])
    def test_count_beyond_int64_is_a_line_numbered_data_error(self, count, tmp_path):
        path = write(tmp_path / "b.csv", f"mouse_id,session,b0\nm2,1,4\nm1,1,{count}\n")
        with pytest.raises(DataError, match="^line 3: count beyond int64"):
            parse_binned_counts(path)

    def test_oversized_field_is_a_parse_error(self, tmp_path):
        path = write(tmp_path / "b.csv", "mouse_id,session,b0\n" + "1" * 200_000 + ",1,1\n")
        with pytest.raises(ParseError, match="field larger than field limit"):
            parse_binned_counts(path)

    def test_header_mismatch_rejected(self, tmp_path):
        path = write(tmp_path / "b.csv", "mouse,sess,b0\nm1,1,0\n")
        with pytest.raises(SchemaError):
            parse_binned_counts(path)

    def test_duplicate_session_rejected_naming_both_lines(self, tmp_path):
        path = write(tmp_path / "b.csv", "mouse_id,session,b0\nm1,1,3\nm2,1,4\nm1,1,9\n")
        with pytest.raises(DataError, match="lines 2 and 4"):
            parse_binned_counts(path)


@pytest.mark.parametrize(
    "session, counts",
    [(1, [3, -1]), (0, [3, 1]), (1, [3, 2**64])],
    ids=["negative-count", "session-zero", "beyond-int64"],
)
def test_binned_session_rejects_inadmissible_values(session, counts, tmp_path):
    path = write_binned_counts(tmp_path / "b.csv", [("m1", session, counts)], d=2)
    with pytest.raises(DataError, match="^line 2: "):
        parse_binned_counts(path)


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
        actions = average_sessions(parse_binned_counts(b))
        datasets.append(assemble_dataset(parse_exposures(e), actions)[0])
    plain, bommed = datasets
    assert (tmp_path / "bom1" / "e.csv").read_bytes().startswith(b"\xef\xbb\xbf")
    assert plain.ids == bommed.ids
    np.testing.assert_array_equal(plain.states, bommed.states)
    np.testing.assert_array_equal(plain.actions, bommed.actions)


class TestBinEvents:
    def test_early_presses_share_the_first_bin(self):
        sessions = bin_events(events_from_tuples([("m1", 1, 0.1), ("m1", 1, 4.9)]), LAYOUT)
        assert sessions.counts[0, 0] == 2
        assert sessions.counts.sum() == 2

    def test_time_wraps_at_the_interval(self):
        sessions = bin_events(events_from_tuples([("m1", 1, 62.0)]), LAYOUT)
        assert sessions.counts[0, 0] == 1

    def test_last_moment_lands_in_last_bin(self):
        sessions = bin_events(events_from_tuples([("m1", 1, 59.999)]), LAYOUT)
        assert sessions.counts[0, -1] == 1

    def test_negative_time_rejected(self):
        with pytest.raises(DataError):
            bin_events(events_from_tuples([("m1", 1, -0.5)]), LAYOUT)

    def test_conservation_over_random_events(self):
        rng = np.random.default_rng(1)
        events = [
            (f"m{int(rng.integers(0, 5))}", int(rng.integers(1, 4)), float(rng.uniform(0, 1800)))
            for _ in range(10_000)
        ]
        sessions = bin_events(events_from_tuples(events), LAYOUT)
        assert sessions.counts.sum() == len(events)
        per_mouse = Counter()
        for mouse_id, _, counts in session_rows(sessions):
            per_mouse[mouse_id] += sum(counts)
        assert per_mouse == Counter(mouse_id for mouse_id, _, _ in events)


class TestAverageSessions:
    def test_single_session_passthrough(self, tmp_path):
        counts = np.arange(12)
        sessions = parsed_sessions(tmp_path / "b.csv", [("m1", 1, counts)])
        out = average_sessions(sessions)
        np.testing.assert_allclose(out["m1"], counts)

    def test_two_session_midpoint(self, tmp_path):
        a = np.r_[np.zeros(11, dtype=int), 2]
        b = np.r_[np.zeros(11, dtype=int), 4]
        sessions = parsed_sessions(
            tmp_path / "b.csv", [("m1", 1, a), ("m1", 2, b)]
        )
        out = average_sessions(sessions)
        np.testing.assert_allclose(out["m1"], np.r_[np.zeros(11), 3.0])

    def test_missing_sessions_shrink_the_divisor(self, tmp_path):
        # mouse with one session is averaged over one session, not padded
        sessions = parsed_sessions(
            tmp_path / "b.csv",
            [
                ("m1", 1, np.full(12, 4)),
                ("m1", 2, np.full(12, 2)),
                ("m2", 1, np.full(12, 6)),
            ],
        )
        out = average_sessions(sessions)
        np.testing.assert_allclose(out["m1"], np.full(12, 3.0))
        np.testing.assert_allclose(out["m2"], np.full(12, 6.0))

    def test_matches_column_mean_oracle(self, tmp_path):
        rng = np.random.default_rng(2)
        counts = rng.integers(0, 10, size=(25, 12))
        sessions = [("m1", k + 1, counts[k]) for k in range(25)]
        out = average_sessions(parsed_sessions(tmp_path / "b.csv", sessions))
        expected = [sum(int(counts[k][j]) for k in range(25)) / 25.0 for j in range(12)]
        np.testing.assert_allclose(out["m1"], expected, atol=1e-12)

    def test_order_invariance(self, tmp_path):
        rng = np.random.default_rng(3)
        sessions = [("m1", k + 1, rng.integers(0, 9, size=12)) for k in range(25)]
        forward = average_sessions(parsed_sessions(tmp_path / "f.csv", sessions))
        perm = [sessions[i] for i in rng.permutation(25)]
        shuffled = average_sessions(parsed_sessions(tmp_path / "s.csv", perm))
        np.testing.assert_array_equal(forward["m1"], shuffled["m1"])

    @pytest.mark.parametrize("d", [1, 3])
    def test_sums_beyond_2_53_keep_the_bits_of_np_mean(self, d, tmp_path):
        rng = np.random.default_rng(6)
        counts = 2**53 + rng.integers(0, 4096, size=(40, d))
        sessions = [(f"m{k % 3}", k + 1, counts[k]) for k in range(40)]
        parsed = parsed_sessions(tmp_path / "b.csv", sessions, d)
        out = average_sessions(parsed)
        for m in ("m0", "m1", "m2"):
            mine = np.stack([c for mouse_id, _, c in sessions if mouse_id == m])
            assert out[m].tobytes() == np.mean(mine, axis=0).tobytes()


class TestAssembleDataset:
    def test_two_mouse_assembly(self):
        actions = {"m1": np.ones(12), "m2": np.zeros(12)}
        ds, unmatched = assemble_dataset({"m1": 1, "m2": 0}, actions)
        assert unmatched == []
        assert len(ds) == 2
        assert ds.dimension == 12
        assert validate_dataset(ds) == ()

    def test_unknown_action_id_rejected(self):
        with pytest.raises(LinkageError) as err:
            assemble_dataset({"m1": 1}, {"m1": np.ones(12), "mX": np.ones(12)})
        assert "mX" in str(err.value)

    def test_exposure_without_action_is_reported_not_dropped(self):
        actions = {"m1": np.ones(12), "m2": np.zeros(12)}
        exposures = {"m9": 0, "m1": 1, "m2": 0, "m3": 1}
        ds, unmatched = assemble_dataset(exposures, actions)
        assert ds.ids == ("m1", "m2")
        assert unmatched == ["m3", "m9"]


class TestRoundTrip:
    def test_events_to_file_and_back(self, tmp_path):
        rng = np.random.default_rng(4)
        events = [
            (f"m{int(rng.integers(0, 8))}", int(rng.integers(1, 6)), float(rng.uniform(0, 1800)))
            for _ in range(10_000)
        ]
        rows = session_rows(bin_events(events_from_tuples(events), LAYOUT))
        path = write_binned_counts(tmp_path / "b.csv", rows, d=12)
        assert sorted(session_rows(parse_binned_counts(path))) == sorted(rows)

    def test_simulator_fixture_end_to_end(self, tmp_path):
        # 48 mice x 25 sessions through files -> dataset, clean validation
        rng = np.random.default_rng(5)
        mice = [f"m{i:02d}" for i in range(48)]
        exposures = {m: int(i < 22) for i, m in enumerate(mice)}
        sessions = [
            (m, k, rng.poisson(3.0, size=12))
            for m in mice
            for k in range(1, 26)
        ]
        bins_path = write_binned_counts(tmp_path / "b.csv", sessions, d=12)
        exposures_path = write(
            tmp_path / "e.csv",
            "mouse_id,exposed\n" + "".join(f"{m},{s}\n" for m, s in exposures.items()),
        )
        parsed_exposures = parse_exposures(exposures_path)
        actions = average_sessions(parse_binned_counts(bins_path))
        ds, unmatched = assemble_dataset(parsed_exposures, actions)
        assert unmatched == []
        assert len(ds) == 48
        assert sorted(set(ds.states)) == [0, 1]
        assert validate_dataset(ds) == ()


class TestSessions:
    def test_columns_and_per_session_view(self, tmp_path):
        path = write(tmp_path / "b.csv", "mouse_id,session,b0,b1\nm2,3,1,2\n\nm1,1,0,5\nm2,1,4,4\n")
        sessions = parse_binned_counts(path)
        assert len(sessions) == 3
        assert sessions.mouse_ids == ("m2", "m1")
        assert sessions.codes.tolist() == [0, 1, 0]
        assert sessions.session.dtype == np.int64 and sessions.session.tolist() == [3, 1, 1]
        assert sessions.counts.dtype == np.int64 and sessions.counts.shape == (3, 2)
        assert sessions.line_numbers.tolist() == [2, 4, 5]
        assert sessions.layout == StudyLayout(bin_width_s=30.0)
        assert session_rows(sessions) == [("m2", 3, [1, 2]), ("m1", 1, [0, 5]), ("m2", 1, [4, 4])]
        assert not sessions.counts.flags.writeable

    def test_counts_of_another_width_than_the_layout_name_the_mouse(self):
        one_row = dict(mouse_ids=("m7",), codes=np.array([0]), session=np.array([1]),
                       counts=np.array([[1, 2]]), line_numbers=np.array([2]))
        with pytest.raises(InputError, match="'m7' have length 2, layout declares 12 bins"):
            Sessions(layout=LAYOUT, **one_row)
        assert len(Sessions(layout=StudyLayout(bin_width_s=30.0), **one_row)) == 1

    def test_ids_differing_by_a_nul_or_inner_spaces_stay_distinct(self, tmp_path):
        ids = ["m1", "m1\x00", "m 1", "m  1", "m1\x00\x00"]
        path = write(
            tmp_path / "b.csv",
            "mouse_id,session,b0\n" + "".join(f"{m},1,{k}\n" for k, m in enumerate(ids)),
        )
        sessions = parse_binned_counts(path)
        assert sessions.mouse_ids == tuple(ids)
        means = average_sessions(sessions)
        assert list(means) == ids
        assert [float(means[m][0]) for m in ids] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_bin_count_is_inferred_from_the_header(self, tmp_path):
        path = write(tmp_path / "b.csv", "mouse_id,session,b0,b1,b2\nm1,1,1,2,3\n")
        layout = parse_binned_counts(path).layout
        assert (layout.interval_length_s, layout.bin_width_s, layout.n_bins) == (60.0, 20.0, 3)

    def test_inferred_header_mismatch_keeps_its_message(self, tmp_path):
        path = write(tmp_path / "b.csv", "mouse_id,session,x\nm1,1,3\n")
        with pytest.raises(SchemaError) as err:
            parse_binned_counts(path)
        assert str(err.value) == (
            "line 1: expected header 'mouse_id,session,b0', got 'mouse_id,session,x'"
        )

    @pytest.mark.parametrize("text", ["", "mouse_id,session\nm1,1\n"], ids=["empty", "no-bins"])
    def test_header_without_bins_cannot_be_inferred(self, text, tmp_path):
        path = write(tmp_path / "b.csv", text)
        with pytest.raises(InputError, match="^cannot infer bin count from header of "):
            parse_binned_counts(path)

    def test_missing_file_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="^cannot read .*absent.csv: No such file"):
            parse_binned_counts(tmp_path / "absent.csv")

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_a_byte_that_is_not_utf8_is_named_at_its_offset_in_the_file(self, bom, tmp_path):
        body = "".join(f"m{i},1,{i % 7},{i % 5}\n" for i in range(3000))
        data = bytearray(bom + f"mouse_id,session,b0,b1\n{body}".encode())
        data[15000] = 0xFF
        path = tmp_path / "b.csv"
        path.write_bytes(data)
        # past the first 8 KB, where a chunked decoder would count from its chunk
        with pytest.raises(ParseError, match="can't decode byte 0xff in position 15000: "):
            parse_binned_counts(path)


@pytest.mark.parametrize("session", [str(10**30), str(2**63), str(-(2**63) - 1)])
class TestSessionBeyondInt64:
    def test_in_binned_counts(self, session, tmp_path):
        path = write(tmp_path / "b.csv", f"mouse_id,session,b0\nm2,1,4\nm1,{session},1\n")
        with pytest.raises(DataError, match="^line 3: session beyond int64 for mouse 'm1'$"):
            parse_binned_counts(path)

    def test_in_events(self, session, tmp_path):
        text = f"mouse_id,session,press_time_s\nm2,1,4.0\nm1,{session},1.5\n"
        path = write(tmp_path / "e.csv", text)
        with pytest.raises(DataError, match="^line 3: session beyond int64 for mouse 'm1'$"):
            parse_events(path)


class TestEvents:
    def test_columns(self, tmp_path):
        path = write(tmp_path / "e.csv", "mouse_id,session,press_time_s\nm2,1,4.5\n m1 ,2,61\n")
        events = parse_events(path)
        assert isinstance(events, Events) and len(events) == 2
        assert events.mouse_ids == ("m2", "m1")
        assert events.session.tolist() == [1, 2] and events.time.tolist() == [4.5, 61.0]
        assert events.line_numbers.tolist() == [2, 3]

    def test_parsed_and_tuple_events_bin_alike(self, tmp_path):
        rng = np.random.default_rng(7)
        events = [
            (f"m{int(rng.integers(0, 6))}", int(rng.integers(1, 5)), float(rng.uniform(0, 600)))
            for _ in range(500)
        ]
        path = write(
            tmp_path / "e.csv",
            "mouse_id,session,press_time_s\n" + "".join(f"{m},{s},{t!r}\n" for m, s, t in events),
        )
        from_file = bin_events(parse_events(path), LAYOUT)
        from_tuples = bin_events(events_from_tuples(events), LAYOUT)
        mice = tuple(sorted({m for m, _, _ in events}))
        assert from_file.mouse_ids == from_tuples.mouse_ids == mice
        np.testing.assert_array_equal(from_file.session, from_tuples.session)
        np.testing.assert_array_equal(from_file.counts, from_tuples.counts)
        keys = [(m, s) for m, s, _ in session_rows(from_file)]
        assert keys == sorted(set(keys)) and len(keys) == len(set((m, s) for m, s, _ in events))

    def test_vector_bins_match_the_scalar_rule_at_bin_edges(self):
        edges = np.arange(0.0, 7200.0, 5.0)
        t = np.concatenate([
            edges, np.nextafter(edges, np.inf), np.nextafter(edges[1:], 0.0),
            np.random.default_rng(8).uniform(0.0, 1e6, 20_000), [1.7976931348623157e308, 5e-324],
        ])
        sessions = bin_events(events_from_tuples([("m", 1, float(x)) for x in t]), LAYOUT)
        expected = np.zeros(12, dtype=int)
        for x in t.tolist():
            expected[min(int((x % 60.0) // 5.0), 11)] += 1
        np.testing.assert_array_equal(sessions.counts[0], expected)


# ---------------------------------------------------------------------------
# Row-at-a-time reference: the parsers as they were before columnar ingest,
# kept verbatim (names prefixed) as the oracle for the differential tests.


@dataclass(frozen=True)
class RowBinnedSession:
    """Press counts for one mouse in one session, binned by interval time."""

    mouse_id: str
    session: int
    counts: np.ndarray

    def __post_init__(self):
        try:
            counts = np.asarray(self.counts, dtype=int)
        except OverflowError:
            raise DataError(
                f"count beyond int64 for mouse {self.mouse_id!r} session {self.session}"
            ) from None
        if counts.ndim != 1 or counts.size == 0:
            raise InputError("counts must be a non-empty 1-D vector")
        if np.any(counts < 0):
            raise DataError(f"negative count for mouse {self.mouse_id!r} session {self.session}")
        if self.session < 1:
            raise DataError(f"session must be >= 1, got {self.session}")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)


def row_read_rows(path) -> list[tuple[int, list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return [(i, row) for i, row in enumerate(csv.reader(fh), start=1) if row]
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"cannot parse {path}: {exc}") from exc


def row_parse_binned_counts(path, layout: StudyLayout) -> list[RowBinnedSession]:
    """Read pre-binned counts, one session per row, in ascending bin-time order.

    :class:`RowBinnedSession` checks each row's counts and session number; its
    ``DataError`` is re-raised with the line number.  A repeated
    (mouse_id, session) pair is rejected, naming both lines.
    """
    d = layout.n_bins
    expected_header = ["mouse_id", "session"] + [f"b{j}" for j in range(d)]
    rows = row_read_rows(path)
    if not rows:
        raise SchemaError("empty file", line_number=1)
    header = [c.strip() for c in rows[0][1]]
    if header != expected_header:
        raise SchemaError(
            f"expected header '{','.join(expected_header)}', got '{','.join(header)}'",
            line_number=1,
        )
    sessions = []
    first_line: dict[tuple[str, int], int] = {}
    for lineno, row in rows[1:]:
        if len(row) != 2 + d:
            raise SchemaError(
                f"expected {2 + d} columns, got {len(row)}", line_number=lineno
            )
        mouse_id = row[0].strip()
        try:
            session = int(row[1])
            counts = [int(c) for c in row[2:]]
        except ValueError as exc:
            raise ParseError(f"non-integer field: {exc}", line_number=lineno) from exc
        try:
            sessions.append(RowBinnedSession(mouse_id=mouse_id, session=session, counts=counts))
        except DataError as exc:
            raise DataError(f"line {lineno}: {exc}") from exc
        seen = first_line.setdefault((mouse_id, session), lineno)
        if seen != lineno:
            raise DataError(
                f"duplicate session {session} for mouse {mouse_id!r} on lines {seen} and {lineno}"
            )
    return sessions


def row_parse_events(path) -> list[tuple[str, int, float]]:
    """Read raw press events as (mouse_id, session, press_time_s) tuples."""
    rows = row_read_rows(path)
    if not rows or [c.strip() for c in rows[0][1]] != ["mouse_id", "session", "press_time_s"]:
        raise SchemaError("expected header 'mouse_id,session,press_time_s'", line_number=1)
    events = []
    for lineno, row in rows[1:]:
        if len(row) != 3:
            raise ParseError(f"expected 3 columns, got {len(row)}", line_number=lineno)
        try:
            events.append((row[0].strip(), int(row[1]), float(row[2])))
        except ValueError as exc:
            raise ParseError(f"malformed field: {exc}", line_number=lineno) from exc
    return events


def row_bin_events(
    events: list[tuple[str, int, float]], layout: StudyLayout
) -> list[RowBinnedSession]:
    """Aggregate raw press times into per-(mouse, session) bin counts.

    Times are reduced modulo the interval length (idealized fixed-interval
    clock), so the total count is conserved across bins.
    """
    d = layout.n_bins
    table: dict[tuple[str, int], np.ndarray] = {}
    for mouse_id, session, t in events:
        if not 0.0 <= t < math.inf:
            raise DataError(f"press time {t} for mouse {mouse_id!r} is not finite and nonnegative")
        idx = int((t % layout.interval_length_s) // layout.bin_width_s)
        idx = min(idx, d - 1)  # guard the t % interval == interval float edge
        key = (mouse_id, session)
        if key not in table:
            table[key] = np.zeros(d, dtype=int)
        table[key][idx] += 1
    return [
        RowBinnedSession(mouse_id=m, session=s, counts=c)
        for (m, s), c in sorted(table.items())
    ]


def row_average_sessions(
    sessions: list[RowBinnedSession], layout: StudyLayout
) -> dict[str, np.ndarray]:
    """Per-mouse componentwise mean count vector over the observed sessions."""
    d = layout.n_bins
    grouped: dict[str, list[np.ndarray]] = {}
    for s in sessions:
        if s.counts.shape[0] != d:
            raise InputError(
                f"session counts for mouse {s.mouse_id!r} have length {s.counts.shape[0]}, "
                f"layout declares {d} bins"
            )
        grouped.setdefault(s.mouse_id, []).append(s.counts)
    return {
        mouse_id: np.mean(np.stack(counts), axis=0) for mouse_id, counts in grouped.items()
    }


# ---------------------------------------------------------------------------
# Differential tests: files with injected faults through both parsers.

IDS = ["m1", "m2", "m3", "m1\x00", "m 1", "m  1", " m2 "]
INT_LIKE = [" 7", "+3", "1_0", "٣", "007"]
NOT_INT = ["x", "1.5", "", "1e3", "--1", "0x10", "½", "2#x", "#"]


def field(rnd, usual, faults, rate):
    """``usual()`` most of the time, one of ``faults`` about once in ``rate`` draws."""
    return rnd.choice(faults) if rnd.randrange(rate) == 0 else usual()


def file_text(draw, header, row):
    """Header, then up to 30 rows from ``row(rnd)``, a few ragged or after a blank line.

    Hypothesis draws the file's parameters and a seeded ``Random`` for the
    rows, so one example costs a handful of draws rather than one per field.
    """
    rnd = draw(st.randoms(use_true_random=True))
    lines = [header]
    for _ in range(rnd.randint(0, 30)):
        fields = row(rnd)
        shape = rnd.randrange(120)
        if shape == 0:
            fields = fields[:-1]
        elif shape == 1:
            fields = fields + ["1"]
        elif shape == 2:
            lines.append("")
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


@st.composite
def bins_files(draw):
    d = draw(st.integers(1, 3))
    ids = IDS[: draw(st.integers(1, len(IDS)))]  # few mice: many sessions each
    max_session = draw(st.sampled_from([3, 10**4]))
    big = draw(st.booleans())  # counts past 2**53, where a mean's addition order shows
    rate = draw(st.sampled_from([10, 40, 400]))
    count_faults = ["-1", str(2**63), str(-(2**63) - 1), "99999999999999999999"]
    count_faults += INT_LIKE + NOT_INT
    session_faults = ["0", "-1"] + INT_LIKE + NOT_INT

    def row(rnd):
        if rnd.randrange(rate) == 0:  # several faults in one row
            return [rnd.choice(ids), rnd.choice(["0", "-1", "x", "1"])] + [
                rnd.choice(["-1", str(2**63), "x", "1"]) for _ in range(d)
            ]
        if big:
            count = lambda: str(rnd.randrange(2**53, 2**62))
        else:
            count = lambda: str(rnd.randrange(10))
        session = lambda: str(rnd.randint(1, max_session))
        return [rnd.choice(ids), field(rnd, session, session_faults, rate)] + [
            field(rnd, count, count_faults, rate) for _ in range(d)
        ]

    return d, file_text(draw, "mouse_id,session," + ",".join(f"b{j}" for j in range(d)), row)


@st.composite
def events_files(draw):
    d = draw(st.sampled_from([1, 7, 12]))
    edges = [repr(float(np.nextafter(60.0 / d * k, 0.0))) for k in range(1, d + 1)]
    time_faults = ["nan", "inf", "-inf", "-1", "-0.0", "1e400", "1.7976931348623157e308",
                   "60", "x", "", "1_0.5", " 2.5", "٣.5", "2#x", "#"] + edges
    session_faults = ["0", "-2"] + INT_LIKE + NOT_INT
    rate = draw(st.sampled_from([10, 40, 400]))

    def row(rnd):
        return [
            rnd.choice(IDS),
            field(rnd, lambda: str(rnd.randint(1, 4)), session_faults, rate),
            field(rnd, lambda: repr(rnd.uniform(0.0, 1800.0)), time_faults, rate),
        ]

    return StudyLayout(bin_width_s=60.0 / d), file_text(draw, "mouse_id,session,press_time_s", row)


def outcome(fn, *args):
    """``("ok", result)``, or ``("error", (class, message, line))`` for a divtol error."""
    try:
        return "ok", fn(*args)
    except DivtolError as exc:
        return "error", (type(exc), str(exc), getattr(exc, "line_number", None))


def mean_bits(means):
    return [(m, v.dtype.str, v.tobytes()) for m, v in means.items()]


def assert_same_sessions(expected, got, layout):
    """Equal rows and bitwise-equal per-mouse means, or the same error."""
    assert got[0] == expected[0], (expected, got)
    if expected[0] == "error":
        assert got[1] == expected[1]
        return
    assert session_rows(got[1]) == [(s.mouse_id, s.session, s.counts.tolist()) for s in expected[1]]
    assert mean_bits(average_sessions(got[1])) == mean_bits(
        row_average_sessions(expected[1], layout)
    )


@settings(max_examples=400, deadline=None)
@given(bins_files())
def test_columnar_bins_parser_matches_the_row_loop(tmp_path_factory, case):
    d, text = case
    path = tmp_path_factory.mktemp("bins") / "b.csv"
    path.write_text(text, encoding="utf-8")
    layout = StudyLayout(bin_width_s=60.0 / d)
    expected = outcome(row_parse_binned_counts, path, layout)
    assert_same_sessions(expected, outcome(parse_binned_counts, path), layout)


@settings(max_examples=400, deadline=None)
@given(events_files())
def test_columnar_events_parser_matches_the_row_loop(tmp_path_factory, case):
    layout, text = case
    path = tmp_path_factory.mktemp("events") / "e.csv"
    path.write_text(text, encoding="utf-8")
    expected, got = outcome(row_parse_events, path), outcome(parse_events, path)
    assert got[0] == expected[0], (expected, got)
    if expected[0] == "error":
        assert got[1] == expected[1]
        return
    events = got[1]
    assert [(m, s, np.float64(t).tobytes()) for m, s, t in expected[1]] == [
        (events.mouse_ids[c], s, t.tobytes())
        for c, s, t in zip(events.codes.tolist(), events.session.tolist(), events.time)
    ]
    binned = outcome(row_bin_events, expected[1], layout)
    assert_same_sessions(binned, outcome(bin_events, events, layout), layout)
    from_tuples = events_from_tuples(expected[1])
    assert_same_sessions(binned, outcome(bin_events, from_tuples, layout), layout)


# ---------------------------------------------------------------------------
# The loadtxt fast reader against the csv path it stands in for.

#: fields on which ``np.loadtxt`` and ``int()``/``float()`` could disagree
FIELD_HAZARDS = [
    "1_0", "٣", "1_0.5", "٣.5", "2#x", "#", "1.0", "1e3", "0x10", "x", "", str(2**63),
    str(-(2**63) - 1), "-0", "+3", " 7 ", "\x1f7", "7\u2003", "-nan", "nan", "inf", "1e400",
    "4.9e-325", "m1\x00",
]
#: line breaks that ``str.splitlines`` honours and ``csv`` does not
SPLITLINES_ONLY = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
#: characters put inside a field
CHAR_HAZARDS = ['"', "\x00", "\ufeff", "\x1f", "\u2003", "\t", " ", ",", "#"] + SPLITLINES_ONLY
#: one field past csv's default field limit
LONG_FIELD = "1" * 131_073


@st.composite
def reader_texts(draw):
    """A plain bins or events file with up to three of the fast reader's hazards.

    Returns ``(events, text)``.  A hazard replaces a field, lands inside
    one, quotes one, ends a row with a break only ``str.splitlines``
    honours, makes a row blank or whitespace, changes a row's width or
    overflows csv's field limit.  Lines end in LF, CRLF, a lone CR or a
    mix, and the file may start with a byte order mark.
    """
    rnd = draw(st.randoms(use_true_random=True))
    events = rnd.random() < 0.5
    if events:
        header = ["mouse_id", "session", "press_time_s"]
    else:
        header = ["mouse_id", "session"] + [f"b{j}" for j in range(rnd.randint(1, 3))]

    def usual(j):
        if j == 0:
            # several raw spellings of one stripped id, adjacent or not
            return rnd.choice(["m1", "m2", " m2 ", "m 1", "", "\tm1", "m1 "])
        if j == 1:
            return str(rnd.randint(1, 10**4))
        return repr(rnd.uniform(0.0, 1800.0)) if events else str(rnd.randint(0, 9))

    rows = [header] + [[usual(j) for j in range(len(header))] for _ in range(rnd.randint(0, 30))]
    end = rnd.choice(["\n", "\r\n", "\r", None])
    ends = [end or rnd.choice(["\n", "\r\n", "\r"]) for _ in rows]
    for _ in range(rnd.choice([0, 1, 1, 1, 2, 3])):
        i = rnd.randrange(len(rows))
        row = rows[i]
        if not row:
            # a row emptied by an earlier hazard: give it back its one empty
            # field, which writes the same text, so the field hazards and the
            # pop have a field to work on
            row.append("")
        j = rnd.randrange(1, len(row)) if len(row) > 1 and rnd.random() < 0.75 else 0
        kind = rnd.randrange(9)
        if kind == 0:
            row[j] = rnd.choice(FIELD_HAZARDS)
        elif kind == 1:
            row[j] += rnd.choice(CHAR_HAZARDS)
        elif kind == 2:
            row[j] = rnd.choice(CHAR_HAZARDS) + row[j]
        elif kind == 3:
            row[j] = '"' + row[j] + rnd.choice(["", ",", "\n", '""']) + '"'
        elif kind == 4:
            ends[i] = rnd.choice(SPLITLINES_ONLY)
        elif kind == 5:
            rows.insert(i, [rnd.choice(["", "", " ", "\t", "\u2003"])])
            ends.insert(i, ends[i])
        elif kind == 6:
            row.pop()
        elif kind == 7:
            row.append("1")
        else:
            row[j] += LONG_FIELD
    text = "".join(",".join(row) + e for row, e in zip(rows, ends))
    if rnd.random() < 0.2:
        text = text.rstrip("\r\n")
    if rnd.random() < 0.2:
        text = "\ufeff" + text
    return events, text


def column_bits(parsed):
    """Every field of parsed Sessions or Events, arrays as (dtype, shape, bytes)."""
    names = ["codes", "session", "time" if isinstance(parsed, Events) else "counts", "line_numbers"]
    arrays = [getattr(parsed, name) for name in names]
    return parsed.mouse_ids, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


@settings(max_examples=400, deadline=None)
@given(reader_texts())
def test_the_fast_reader_declines_or_matches_the_csv_path(tmp_path_factory, case):
    events, text = case
    path = tmp_path_factory.mktemp("reader") / "f.csv"
    path.write_bytes(text.encode("utf-8"))
    parse = parse_events if events else parse_binned_counts
    with mock.patch.object(ingest, "_loadtxt_table", return_value=None):
        expected = outcome(parse, path)
    got = outcome(parse, path)
    assert got[0] == expected[0], (expected, got)
    if expected[0] == "error":
        assert got[1] == expected[1]
    else:
        assert column_bits(got[1]) == column_bits(expected[1])


def test_plain_files_take_the_fast_path(monkeypatch, tmp_path):
    # a fast reader that always declined would pass every other test
    bins = write(tmp_path / "b.csv", "mouse_id,session,b0,b1\r\nm1,1,3,0\r\nm2,2,1,4\r\n")
    events = write(tmp_path / "e.csv", "\ufeffmouse_id,session,press_time_s\nm1,1,2.5\nm2,1,61\n")
    # trailing empty lines carry no row
    trailing = write(tmp_path / "t.csv", "mouse_id,session,b0,b1\nm1,1,3,0\nm2,2,1,4\n\n")

    def refuse(*args, **kwargs):
        raise AssertionError("the csv path ran")

    monkeypatch.setattr(ingest.csv, "reader", refuse)
    sessions = parse_binned_counts(bins)
    assert sessions.mouse_ids == ("m1", "m2")
    np.testing.assert_array_equal(sessions.counts, [[3, 0], [1, 4]])
    np.testing.assert_array_equal(sessions.line_numbers, [2, 3])
    assert column_bits(parse_binned_counts(trailing)) == column_bits(sessions)
    parsed = parse_events(events)
    np.testing.assert_array_equal(parsed.time, [2.5, 61.0])
    np.testing.assert_array_equal(parsed.session, [1, 1])
    # ids are coded per run of equal raw ids: a repeat that is not adjacent,
    # and a spelling that strips to an id already seen, keep their first code
    interleaved = write(tmp_path / "i.csv", "mouse_id,session,b0\nm2,1,0\n m1,1,1\nm2,2,2\nm1,2,3\n")
    sessions = parse_binned_counts(interleaved)
    assert sessions.mouse_ids == ("m2", "m1")
    assert sessions.codes.tolist() == [0, 1, 0, 1]


def test_a_long_id_among_short_rows_keeps_memory_linear_in_the_file(tmp_path):
    # one 100k-character id would widen a bytes id column to 100k per row
    text = "mouse_id,session,b0\n" + "".join(f"m{i % 7},{i + 1},3\n" for i in range(2000))
    long = write(tmp_path / "long.csv", text.replace("m0,1,", "m" * 100_000 + ",1,", 1))
    with mock.patch.object(ingest, "_loadtxt_table", return_value=None):
        expected = parse_binned_counts(long)
    tracemalloc.start()
    try:
        got = parse_binned_counts(long)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert column_bits(got) == column_bits(expected)
    assert peak < 10 * 2**20, peak
    assert ingest._loadtxt_table(long.read_text(), lambda header: [int, int]) is None


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_reading_leaves_the_collector_as_it_was(enabled, tmp_path):
    good = tmp_path / "bins.csv"
    good.write_text("mouse_id,session,b0\nm1,1,3\n", encoding="utf-8")
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"mouse_id,session,b0\n\xff\n")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert len(parse_binned_counts(str(good))) == 1
        assert gc.isenabled() is enabled
        for path in (bad, tmp_path / "missing.csv"):
            with pytest.raises(ParseError):
                parse_binned_counts(str(path))
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
