"""Parsers for experiment files and session aggregation into action vectors.

Three comma-separated formats are supported (UTF-8 with or without a byte
order mark, LF or CRLF):

* exposures:      header ``mouse_id,exposed``, state 0/1 per mouse
* binned counts:  header ``mouse_id,session,b0,...,b{d-1}``, one row per session
* press events:   header ``mouse_id,session,press_time_s``, one row per press

Each file is read once with :mod:`csv`.  The binned-counts and events bodies
are then held as columns, with no object per row: mouse ids become integer
codes in first-seen order, every numeric field goes through ``int`` (or
``float`` for press times) into one array, and the checks run on whole
columns.  An error names the first fault that a row-by-row reader would
meet, with its line number.

Raw events are binned on an idealized fixed-interval clock: a press at time
t lands in bin ``floor((t mod interval_length) / bin_width)``.  Per-mouse
actions are the componentwise mean of that mouse's session count vectors;
mice with missing sessions are averaged over the sessions they do have
rather than imputing zero-count sessions.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .core import Dataset
from .errors import DataError, DivtolError, InputError, LinkageError, ParseError, SchemaError

__all__ = [
    "BinnedSession",
    "Events",
    "Sessions",
    "StudyLayout",
    "parse_exposures",
    "parse_binned_counts",
    "parse_events",
    "bin_events",
    "average_sessions",
    "assemble_dataset",
]

_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class StudyLayout:
    """Interval geometry of the study: 60 s intervals in 5 s bins by default."""

    interval_length_s: float = 60.0
    bin_width_s: float = 5.0

    def __post_init__(self):
        if self.interval_length_s <= 0 or self.bin_width_s <= 0:
            raise InputError("interval and bin lengths must be positive")
        ratio = self.interval_length_s / self.bin_width_s
        if abs(ratio - round(ratio)) > 1e-9:
            raise InputError(
                f"bin width {self.bin_width_s} must divide interval length {self.interval_length_s}"
            )

    @property
    def n_bins(self) -> int:
        return int(round(self.interval_length_s / self.bin_width_s))

    @property
    def midpoints(self) -> np.ndarray:
        """Bin midpoint times in seconds, e.g. (2.5, 7.5, ..., 57.5)."""
        return (np.arange(self.n_bins) + 0.5) * self.bin_width_s


class BinnedSession(NamedTuple):
    """Press counts for one mouse in one session: one row of :class:`Sessions`."""

    mouse_id: str
    session: int
    counts: np.ndarray


@dataclass(frozen=True, eq=False, repr=False)
class Sessions(Sequence):
    """Per-(mouse, session) bin counts held as columns.

    ``mouse_ids`` lists each mouse once, in the order its first row appears;
    ``codes[i]`` indexes it for row ``i``.  ``session`` is an int64 array of
    shape (rows,), ``counts`` an int64 array of shape (rows, d), and
    ``line_numbers`` the source line of each row, used only in error
    messages.  Indexing builds a :class:`BinnedSession` on access.
    """

    layout: StudyLayout
    mouse_ids: tuple[str, ...]
    codes: np.ndarray
    session: np.ndarray
    counts: np.ndarray
    line_numbers: np.ndarray

    def __post_init__(self):
        self.session.setflags(write=False)
        self.counts.setflags(write=False)

    def __len__(self) -> int:
        return self.codes.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        return BinnedSession(self.mouse_ids[self.codes[i]], int(self.session[i]), self.counts[i])


@dataclass(frozen=True, eq=False, repr=False)
class Events:
    """Raw press events held as columns, one entry per press.

    ``mouse_ids``, ``codes``, ``session`` and ``line_numbers`` are as in
    :class:`Sessions`; ``time`` holds the float64 press times in seconds.
    """

    mouse_ids: tuple[str, ...]
    codes: np.ndarray
    session: np.ndarray
    time: np.ndarray
    line_numbers: np.ndarray

    def __len__(self) -> int:
        return self.codes.shape[0]


def _read_rows(path) -> tuple[list[list[str]], np.ndarray]:
    """The file's non-empty csv rows and their 1-based record numbers."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"cannot parse {path}: {exc}") from exc
    lines = np.flatnonzero(np.fromiter(map(len, rows), np.intp, len(rows))) + 1
    if lines.shape[0] < len(rows):
        rows = list(filter(None, rows))
    return rows, lines


def _first(mask: np.ndarray) -> int:
    """Index of the first true entry of ``mask``, or its length."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else mask.shape[0]


def _in_int64(value: int) -> bool:
    return _INT64.min <= value <= _INT64.max


def _body(rows, lines, width: int, error: type[ParseError]):
    """Rows after the header, their line numbers, and the first row of the wrong width.

    Returns ``(body, lines, end, fault)``: ``end`` is the index of that row
    (``len(body)`` when every row fits) and ``fault`` its error, or None.
    """
    body, lines = rows[1:], lines[1:]
    end = _first(np.fromiter(map(len, body), np.intp, len(body)) != width)
    fault = None
    if end < len(body):
        message = f"expected {width} columns, got {len(body[end])}"
        fault = error(message, line_number=int(lines[end]))
    return body, lines, end, fault


def _first_row_error(body, lines, end: int, fault, row_error):
    """Scan rows before ``end`` for the first one ``row_error`` rejects.

    Only runs when a whole-column conversion failed, to find the row a
    row-by-row reader would stop at.  Returns ``(end, fault)`` moved back
    to that row, or unchanged.
    """
    for i in range(end):
        error = row_error(body[i], int(lines[i]))
        if error is not None:
            return i, error
    return end, fault


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """True where a run of equal keys begins, for rows sorted by ``keys``."""
    starts = np.ones(keys[0].shape[0], dtype=bool)
    starts[1:] = np.any([k[1:] != k[:-1] for k in keys], axis=0)
    return starts


def _codes(ids) -> tuple[tuple[str, ...], np.ndarray]:
    """Distinct ids in first-seen order, and each entry's index into them.

    A dict keeps ids exactly as read; a numpy unicode array would drop
    trailing NULs and merge ``"m1"`` with ``"m1\\x00"``.
    """
    unique = tuple(dict.fromkeys(ids))
    index = {m: i for i, m in enumerate(unique)}
    return unique, np.fromiter(map(index.__getitem__, ids), np.intp, len(ids))


def parse_exposures(path) -> dict[str, int]:
    """Read the exposures file into a mouse_id -> state map.

    Consistent duplicate rows are tolerated; conflicting ones are rejected.
    """
    rows, lines = _read_rows(path)
    if not rows or [c.strip() for c in rows[0]] != ["mouse_id", "exposed"]:
        raise SchemaError("expected header 'mouse_id,exposed'", line_number=1)
    exposures: dict[str, int] = {}
    for lineno, row in zip(lines[1:].tolist(), rows[1:]):
        if len(row) != 2:
            raise ParseError(f"expected 2 columns, got {len(row)}", line_number=lineno)
        mouse_id = row[0].strip()
        raw_state = row[1].strip()
        if not mouse_id:
            raise ParseError("empty mouse_id", line_number=lineno)
        if raw_state not in ("0", "1"):
            raise ParseError(f"state must be 0 or 1, got {raw_state!r}", line_number=lineno)
        state = int(raw_state)
        if mouse_id in exposures and exposures[mouse_id] != state:
            raise DataError(f"conflicting exposure states for mouse {mouse_id!r}")
        exposures[mouse_id] = state
    return exposures


def _bins_row_error(row: list[str], line: int) -> DivtolError | None:
    try:
        session, *counts = map(int, row[1:])
    except ValueError as exc:
        return ParseError(f"non-integer field: {exc}", line_number=line)
    mouse_id = row[0].strip()
    if not _in_int64(session):
        return DataError(f"line {line}: session beyond int64 for mouse {mouse_id!r}")
    if not all(map(_in_int64, counts)):
        return DataError(
            f"line {line}: count beyond int64 for mouse {mouse_id!r} session {session}"
        )
    return None


def _bins_columns(body: list[list[str]], width: int) -> tuple[list[str], np.ndarray]:
    """Stripped mouse ids, and sessions and counts as one int64 array of shape (width - 1, rows)."""
    ids, *fields = list(zip(*body)) or [()] * width
    values = np.fromiter(map(int, chain.from_iterable(fields)), np.int64, len(body) * (width - 1))
    return list(map(str.strip, ids)), values.reshape(width - 1, len(body))


def _check_sessions(sessions: Sessions) -> None:
    """Raise the first row with a negative count, a session below 1 or a repeated key.

    Within a row the checks run in that order, as a row-by-row reader's do.
    A stable sort on (mouse, session) puts each repeat after the row it
    repeats.
    """
    n = len(sessions)
    codes, session, lines = sessions.codes, sessions.session, sessions.line_numbers
    order = np.lexsort((session, codes))
    starts = _run_starts(codes[order], session[order])
    first_of_key = np.empty(n, np.intp)
    first_of_key[order] = order[np.maximum.accumulate(np.where(starts, np.arange(n), 0))]
    row, kind = min(
        (_first((sessions.counts < 0).any(axis=1)), 0),
        (_first(session < 1), 1),
        (_first(first_of_key != np.arange(n)), 2),
    )
    if row == n:
        return
    mouse_id, s, line = sessions.mouse_ids[codes[row]], int(session[row]), int(lines[row])
    if kind == 0:
        raise DataError(f"line {line}: negative count for mouse {mouse_id!r} session {s}")
    if kind == 1:
        raise DataError(f"line {line}: session must be >= 1, got {s}")
    raise DataError(
        f"duplicate session {s} for mouse {mouse_id!r} "
        f"on lines {int(lines[first_of_key[row]])} and {line}"
    )


def parse_binned_counts(path, layout: StudyLayout | None = None) -> Sessions:
    """Read pre-binned counts, one session per row, in ascending bin-time order.

    Without ``layout`` the bin count d is taken from the header, with a 60 s
    interval.  Rows must have d + 2 fields, integer sessions >= 1 and
    nonnegative integer counts, all within int64, and each
    (mouse_id, session) pair at most once; a repeat names both lines.
    """
    rows, lines = _read_rows(path)
    header = [c.strip() for c in rows[0]] if rows else []
    if layout is None:
        if len(header) < 3:
            raise InputError(f"cannot infer bin count from header of {path}")
        layout = StudyLayout(interval_length_s=60.0, bin_width_s=60.0 / (len(header) - 2))
    elif not rows:
        raise SchemaError("empty file", line_number=1)
    d = layout.n_bins
    expected_header = ["mouse_id", "session"] + [f"b{j}" for j in range(d)]
    if header != expected_header:
        raise SchemaError(
            f"expected header '{','.join(expected_header)}', got '{','.join(header)}'",
            line_number=1,
        )
    body, lines, end, fault = _body(rows, lines, d + 2, SchemaError)
    try:
        ids, values = _bins_columns(body[:end], d + 2)
    except (ValueError, OverflowError):
        end, fault = _first_row_error(body, lines, end, fault, _bins_row_error)
        ids, values = _bins_columns(body[:end], d + 2)
    mouse_ids, codes = _codes(ids)
    sessions = Sessions(
        layout=layout,
        mouse_ids=mouse_ids,
        codes=codes,
        session=values[0].copy(),
        counts=np.ascontiguousarray(values[1:].T),
        line_numbers=lines[:end],
    )
    _check_sessions(sessions)
    if fault is not None:
        raise fault
    return sessions


def _events_row_error(row: list[str], line: int) -> DivtolError | None:
    try:
        session = int(row[1])
        float(row[2])
    except ValueError as exc:
        return ParseError(f"malformed field: {exc}", line_number=line)
    if not _in_int64(session):
        return DataError(f"line {line}: session beyond int64 for mouse {row[0].strip()!r}")
    return None


def parse_events(path) -> Events:
    """Read raw press events: one (mouse_id, session, press_time_s) per row."""
    rows, lines = _read_rows(path)
    if not rows or [c.strip() for c in rows[0]] != ["mouse_id", "session", "press_time_s"]:
        raise SchemaError("expected header 'mouse_id,session,press_time_s'", line_number=1)
    body, lines, end, fault = _body(rows, lines, 3, ParseError)
    ids, sessions, times = list(zip(*body[:end])) or [(), (), ()]
    try:
        session = np.fromiter(map(int, sessions), np.int64, end)
        time = np.fromiter(map(float, times), np.float64, end)
    except (ValueError, OverflowError):
        end, fault = _first_row_error(body, lines, end, fault, _events_row_error)
    if fault is not None:
        raise fault
    mouse_ids, codes = _codes(list(map(str.strip, ids)))
    return Events(mouse_ids, codes, session, time, lines)


def _events_from_tuples(events) -> Events:
    ids, sessions, times = list(zip(*events)) or [(), (), ()]
    outside = next((i for i, s in enumerate(sessions) if not _in_int64(s)), None)
    if outside is not None:
        raise DataError(f"session beyond int64 for mouse {ids[outside]!r}")
    mouse_ids, codes = _codes(ids)
    n = len(ids)
    return Events(
        mouse_ids,
        codes,
        np.array(sessions, dtype=np.int64),
        np.array(times, dtype=np.float64),
        np.arange(1, n + 1),
    )


def bin_events(events: Events | Sequence[tuple[str, int, float]], layout: StudyLayout) -> Sessions:
    """Aggregate raw press times into per-(mouse, session) bin counts.

    ``events`` is a parsed :class:`Events` or a sequence of
    ``(mouse_id, session, press_time_s)`` tuples.  Times are reduced modulo
    the interval length (idealized fixed-interval clock), so the total count
    is conserved across bins.  Rows come out sorted by (mouse_id, session).
    """
    if not isinstance(events, Events):
        events = _events_from_tuples(events)
    t = events.time
    bad = _first(~((t >= 0.0) & (t < np.inf)))
    if bad < len(events):
        mouse_id = events.mouse_ids[events.codes[bad]]
        raise DataError(
            f"press time {float(t[bad])} for mouse {mouse_id!r} is not finite and nonnegative"
        )
    d = layout.n_bins
    phase = np.mod(t, layout.interval_length_s)
    # the minimum guards the t % interval == interval float edge
    bins = np.minimum(np.floor_divide(phase, layout.bin_width_s), d - 1).astype(np.intp)
    by_name = sorted(range(len(events.mouse_ids)), key=events.mouse_ids.__getitem__)
    rank = np.empty(len(by_name), np.intp)
    rank[by_name] = np.arange(len(by_name))
    mouse = rank[events.codes]
    order = np.lexsort((events.session, mouse))
    mouse, session = mouse[order], events.session[order]
    starts = _run_starts(mouse, session)
    session = session[starts]
    low = _first(session < 1)
    if low < session.shape[0]:
        raise DataError(f"session must be >= 1, got {int(session[low])}")
    row = np.cumsum(starts) - 1
    n_rows = session.shape[0]
    counts = np.bincount(row * d + bins[order], minlength=n_rows * d).reshape(n_rows, d)
    return Sessions(
        layout=layout,
        mouse_ids=tuple(map(events.mouse_ids.__getitem__, by_name)),
        codes=mouse[starts],
        session=session,
        counts=counts,
        line_numbers=events.line_numbers[order[starts]],
    )


def average_sessions(sessions: Sessions, layout: StudyLayout) -> dict[str, np.ndarray]:
    """Per-mouse componentwise mean count vector over the observed sessions.

    Sums accumulate in float64 in row order and are divided by each mouse's
    session count, which is what ``np.mean`` over the mouse's stacked rows
    computes when d > 1.  For d = 1 ``np.mean`` adds pairwise; that order
    only shows in the bits once a sum passes 2**53, and then the means are
    taken with ``np.mean`` itself.
    """
    d = layout.n_bins
    if len(sessions) and sessions.counts.shape[1] != d:
        raise InputError(
            f"session counts for mouse {sessions[0].mouse_id!r} have length "
            f"{sessions.counts.shape[1]}, layout declares {d} bins"
        )
    m, codes = len(sessions.mouse_ids), sessions.codes
    # a weighted bincount adds each column's float64 weights in row order
    sums = np.column_stack([np.bincount(codes, c, m) for c in sessions.counts.T])
    per_mouse = np.bincount(codes, minlength=m)
    if d == 1 and sums.max(initial=0.0) >= 2.0**53:
        order = np.argsort(codes, kind="stable")
        groups = np.split(sessions.counts[order], np.cumsum(per_mouse)[:-1])
        means = np.array([np.mean(g, axis=0) for g in groups])
    else:
        means = sums / per_mouse[:, None]
    return dict(zip(sessions.mouse_ids, means))


def assemble_dataset(
    exposures: dict[str, int],
    actions: dict[str, np.ndarray],
    layout: StudyLayout,
) -> tuple[Dataset, list[str]]:
    """Join actions with exposure states into an estimable dataset.

    Every action must have an exposure entry.  Exposure entries without an
    action are excluded from the dataset and returned, sorted, beside it, so
    the caller can report them.
    """
    missing = sorted(set(actions) - set(exposures))
    if missing:
        raise LinkageError(
            f"actions without exposure entries: {', '.join(repr(m) for m in missing)}"
        )
    unmatched = sorted(set(exposures) - set(actions))
    ids = sorted(actions)
    ds = Dataset.from_arrays(
        actions=[actions[m] for m in ids], states=[exposures[m] for m in ids], ids=ids
    )
    if ds.dimension != layout.n_bins:
        raise InputError(
            f"actions have {ds.dimension} components, layout declares {layout.n_bins} bins"
        )
    return ds, unmatched
