"""Parsers for experiment files and session aggregation into action vectors.

Three comma-separated formats are supported (UTF-8 with or without a byte
order mark, LF or CRLF):

* exposures:      header ``mouse_id,exposed``, state 0/1 per mouse
* binned counts:  header ``mouse_id,session,b0,...,b{d-1}``, one row per session;
                  the header's d bins split a 60 s interval
* press events:   header ``mouse_id,session,press_time_s``, one row per press

Every file is read and decoded once.  For binned counts and events a fast
reader comes first: it splits the text into lines and reads the mouse ids,
as a bytes field, and the numeric columns with one ``np.loadtxt`` call, then
codes the ids once per run of equal ids.  It declines any file on which it
could disagree with :mod:`csv` (a quote, a character outside ASCII, an
empty line before the last row, a row of the wrong width, a field
``loadtxt`` refuses, ...), and a file whose longest line would make the id
field over four times the text's size.  The csv path then parses the same
text, and it is the one that finds and names faults.  The exposures file
is parsed with csv alone.  Either way a field is an integer when ``int()``
accepts it (a press time when ``float()`` does), and the body is held as
columns, with no object per row: mouse ids become integer codes in
first-seen order, and the checks run on whole columns.  An error names the
first fault that a row-by-row reader would meet.  A malformed row is named
by its line number; conflicting exposure rows and :func:`bin_events`'
press-time and session errors name the mouse or the value instead.

Raw events are binned on an idealized fixed-interval clock: a press at time
t lands in bin ``floor((t mod interval_length) / bin_width)``.  Either way
the result is a :class:`Sessions`, which carries its :class:`StudyLayout`
and refuses counts of another width, so no later step takes a layout.
Per-mouse actions are the componentwise mean of that mouse's session count
vectors; mice with missing sessions are averaged over the sessions they do
have rather than imputing zero-count sessions.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .errors import DataError, DivtolError, InputError, LinkageError, ParseError, SchemaError

__all__ = [
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
        if not (0 < self.interval_length_s < math.inf and 0 < self.bin_width_s < math.inf):
            raise InputError("interval and bin lengths must be positive and finite")
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


@dataclass(frozen=True, eq=False, repr=False)
class Sessions:
    """Per-(mouse, session) bin counts held as columns, with their layout.

    ``mouse_ids`` lists each mouse once, in the order its first row appears;
    ``codes[i]`` indexes it for row ``i``.  ``session`` is an int64 array of
    shape (rows,), ``counts`` an int64 array of shape (rows, d) with
    d = ``layout.n_bins``, and ``line_numbers`` the source line of each row,
    used only in error messages.  Construction refuses counts of any other
    width.
    """

    layout: StudyLayout
    mouse_ids: tuple[str, ...]
    codes: np.ndarray
    session: np.ndarray
    counts: np.ndarray
    line_numbers: np.ndarray

    def __post_init__(self):
        d = self.layout.n_bins
        if len(self) and self.counts.shape[1] != d:
            raise InputError(
                f"session counts for mouse {self.mouse_ids[self.codes[0]]!r} have length "
                f"{self.counts.shape[1]}, layout declares {d} bins"
            )
        self.session.setflags(write=False)
        self.counts.setflags(write=False)

    def __len__(self) -> int:
        return self.codes.shape[0]


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


def _read_text(path) -> str:
    """The file's text, decoded once; a byte that is not UTF-8 is named at its offset."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot parse {path}: {exc}") from exc


def _read_rows(path, text: str) -> tuple[list[list[str]], np.ndarray]:
    """The non-empty csv rows of the file's ``text`` and their 1-based record numbers."""
    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
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


#: ASCII characters on which the fast reader and the csv path could
#: disagree: the quote, NUL (which csv refuses before Python 3.11), the line
#: breaks \v and \f that only ``str.splitlines`` honours, and \x1c-\x1f,
#: which ``str.splitlines`` breaks at (\x1c-\x1e) and ``loadtxt`` strips as
#: whitespace where ``int()`` and ``float()`` do not
_DECLINE = '"\x00\x0b\x0c\x1c\x1d\x1e\x1f'
#: the array type of a column that ``int`` or ``float`` converts
_DTYPE = {int: np.int64, float: np.float64}


def _loadtxt_table(text: str, numeric):
    """:func:`_table`'s result for a file's ``text`` from one ``np.loadtxt`` call, or None.

    Trailing empty lines carry no row and are dropped first.  Declines
    (returns None, so that the csv path runs) wherever the two could
    disagree: a character outside ASCII or in ``_DECLINE``, an empty line
    before the last row, a line as long as csv's field limit, a header
    alone, a row wider or narrower than the header, or a field that
    ``loadtxt`` refuses or warns about.  On ASCII, ``loadtxt`` then takes
    no spelling that ``int()`` or ``float()`` refuses, and refuses some
    that they take (``1_0``, values past int64).
    Outside ASCII lie the line breaks only ``str.splitlines`` honours,
    digits and spaces that only Python reads, and characters on which
    numpy's integer parser can crash (numpy 2.4.6 on U+E60DD).

    The ids come from the same call, as a bytes field as wide as the
    longest line: exact for ASCII without NUL.  Declines too when that
    field would exceed four times the text's size (one very long id among
    short rows).  Only the head of each run of equal raw ids is decoded,
    stripped and coded; every id first appears at a run's head, so the
    codes are the csv path's.
    """
    lines = text.rstrip("\r\n").splitlines()
    if len(lines) < 2 or not all(lines) or not text.isascii() or any(c in text for c in _DECLINE):
        return None
    width = max(map(len, lines))
    if width >= csv.field_size_limit() or width * (len(lines) - 1) > 4 * len(text):
        return None
    types = numeric([c.strip() for c in lines[0].split(",")])
    # loadtxt refuses a row narrower than the header, so an equal comma
    # total leaves no row wider
    if text.count(",") != len(types) * len(lines):
        return None
    dtype = np.dtype([("id", f"S{width}")] + [(f"c{j}", _DTYPE[t]) for j, t in enumerate(types)])
    try:
        with warnings.catch_warnings():
            # older numpy parses "1.0" as the integer 1 and only warns
            warnings.simplefilter("error")
            table = np.loadtxt(lines[1:], dtype, comments=None, delimiter=",", ndmin=1)
    except (ValueError, Warning):
        return None
    starts = _run_starts(table["id"])
    mouse_ids, head_codes = _codes([i.decode().strip() for i in table["id"][starts].tolist()])
    columns = [table[name].copy() for name in dtype.names[1:]]
    lines_read = np.arange(2, len(lines) + 1)
    return mouse_ids, head_codes[np.cumsum(starts) - 1], columns, lines_read, None


def _table(path, numeric, width_error: type[ParseError], row_error):
    """Read a data file into mouse ids and numeric columns, up to its first faulty row.

    ``numeric(header)`` checks the header's stripped fields (none for an
    empty file) and returns the type, ``int`` or ``float``, of each column
    after the id.  Returns ``(mouse_ids, codes, columns, lines, fault)``:
    the stripped ids as :func:`_codes` codes them, one int64 or float64
    array per numeric column and the line numbers of the rows before the
    first faulty one, and that row's error
    (None when every row converts).  A row of the wrong width is a
    ``width_error``; ``row_error(row, line)`` names the fault of a row
    whose fields do not convert.

    The file is read and decoded once.  :func:`_loadtxt_table` parses most
    files; the csv path parses the rest and is the one that finds and names
    faults.
    """
    text = _read_text(path)
    fast = _loadtxt_table(text, numeric)
    if fast is not None:
        return fast
    rows, lines = _read_rows(path, text)
    types = numeric([c.strip() for c in rows[0]] if rows else [])
    body, lines = rows[1:], lines[1:]
    width = len(types) + 1
    end = _first(np.fromiter(map(len, body), np.intp, len(body)) != width)
    fault = None
    if end < len(body):
        fault = width_error(
            f"expected {width} columns, got {len(body[end])}", line_number=int(lines[end])
        )

    def columns(n):
        fields = list(zip(*body[:n]))[1:] or [()] * len(types)
        return [np.fromiter(map(t, f), _DTYPE[t], n) for t, f in zip(types, fields)]

    try:
        converted = columns(end)
    except (ValueError, OverflowError):
        # a row-by-row reader stops at the first row that does not convert
        end, fault = next(
            (i, error)
            for i in range(end)
            if (error := row_error(body[i], int(lines[i]))) is not None
        )
        converted = columns(end)
    return *_codes([row[0].strip() for row in body[:end]]), converted, lines[:end], fault


def parse_exposures(path) -> dict[str, int]:
    """Read the exposures file into a mouse_id -> state map.

    Consistent duplicate rows are tolerated; conflicting ones are rejected.
    """
    rows, lines = _read_rows(path, _read_text(path))
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


def parse_binned_counts(path) -> Sessions:
    """Read pre-binned counts, one session per row, in ascending bin-time order.

    The bin count d is taken from the header, with a 60 s interval.  Rows
    must have d + 2 fields, integer sessions >= 1 and nonnegative integer
    counts, all within int64, and each (mouse_id, session) pair at most
    once; a repeat names both lines.
    """
    layout = None

    def numeric(header: list[str]) -> list[type]:
        nonlocal layout
        if len(header) < 3:
            raise InputError(f"cannot infer bin count from header of {path}")
        layout = StudyLayout(interval_length_s=60.0, bin_width_s=60.0 / (len(header) - 2))
        expected_header = ["mouse_id", "session"] + [f"b{j}" for j in range(layout.n_bins)]
        if header != expected_header:
            raise SchemaError(
                f"expected header '{','.join(expected_header)}', got '{','.join(header)}'",
                line_number=1,
            )
        return [int] * (layout.n_bins + 1)

    mouse_ids, codes, (session, *counts), lines, fault = _table(
        path, numeric, SchemaError, _bins_row_error
    )
    sessions = Sessions(
        layout=layout,
        mouse_ids=mouse_ids,
        codes=codes,
        session=session,
        counts=np.column_stack(counts),
        line_numbers=lines,
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

    def numeric(header: list[str]) -> list[type]:
        if header != ["mouse_id", "session", "press_time_s"]:
            raise SchemaError("expected header 'mouse_id,session,press_time_s'", line_number=1)
        return [int, float]

    mouse_ids, codes, (session, time), lines, fault = _table(
        path, numeric, ParseError, _events_row_error
    )
    if fault is not None:
        raise fault
    return Events(mouse_ids, codes, session, time, lines)


def bin_events(events: Events, layout: StudyLayout) -> Sessions:
    """Aggregate raw press times into per-(mouse, session) bin counts.

    Times are reduced modulo the interval length (idealized fixed-interval
    clock), so the total count is conserved across bins.  Rows come out
    sorted by (mouse_id, session).
    """
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


def average_sessions(sessions: Sessions) -> dict[str, np.ndarray]:
    """Per-mouse componentwise mean count vector over the observed sessions.

    Sums accumulate in float64 in row order and are divided by each mouse's
    session count, which is what ``np.mean`` over the mouse's stacked rows
    computes when d > 1.  For d = 1 ``np.mean`` adds pairwise; that order
    only shows in the bits once a sum passes 2**53, and then the means are
    taken with ``np.mean`` itself.
    """
    m, codes = len(sessions.mouse_ids), sessions.codes
    # a weighted bincount adds each column's float64 weights in row order
    sums = np.column_stack([np.bincount(codes, c, m) for c in sessions.counts.T])
    per_mouse = np.bincount(codes, minlength=m)
    if sessions.layout.n_bins == 1 and sums.max(initial=0.0) >= 2.0**53:
        order = np.argsort(codes, kind="stable")
        groups = np.split(sessions.counts[order], np.cumsum(per_mouse)[:-1])
        means = np.array([np.mean(g, axis=0) for g in groups])
    else:
        means = sums / per_mouse[:, None]
    return dict(zip(sessions.mouse_ids, means))


def assemble_dataset(
    exposures: dict[str, int], actions: dict[str, np.ndarray]
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
    return ds, unmatched
