"""Parsers for experiment files and session aggregation into action vectors.

Three comma-separated formats are supported (UTF-8 with or without a byte
order mark, LF or CRLF):

* exposures:      header ``mouse_id,exposed``, state 0/1 per mouse
* binned counts:  header ``mouse_id,session,b0,...,b{d-1}``, one row per session
* press events:   header ``mouse_id,session,press_time_s``, one row per press

Raw events are binned on an idealized fixed-interval clock: a press at time
t lands in bin ``floor((t mod interval_length) / bin_width)``.  Per-mouse
actions are the componentwise mean of that mouse's session count vectors;
mice with missing sessions are averaged over the sessions they do have
rather than imputing zero-count sessions.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .errors import DataError, InputError, LinkageError, ParseError, SchemaError

__all__ = [
    "BinnedSession",
    "StudyLayout",
    "parse_exposures",
    "parse_binned_counts",
    "parse_events",
    "bin_events",
    "average_sessions",
    "assemble_dataset",
]


@dataclass(frozen=True)
class StudyLayout:
    """Interval geometry of the study: 60 s intervals in 5 s bins by default."""

    interval_length_s: float = 60.0
    bin_width_s: float = 5.0
    sessions_expected: int | None = None

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


@dataclass(frozen=True)
class BinnedSession:
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


def _read_rows(path) -> list[tuple[int, list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return [(i, row) for i, row in enumerate(csv.reader(fh), start=1) if row]
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"cannot parse {path}: {exc}") from exc


def parse_exposures(path) -> dict[str, int]:
    """Read the exposures file into a mouse_id -> state map.

    Consistent duplicate rows are tolerated; conflicting ones are rejected.
    """
    rows = _read_rows(path)
    if not rows or [c.strip() for c in rows[0][1]] != ["mouse_id", "exposed"]:
        raise SchemaError("expected header 'mouse_id,exposed'", line_number=1)
    exposures: dict[str, int] = {}
    for lineno, row in rows[1:]:
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


def parse_binned_counts(path, layout: StudyLayout) -> list[BinnedSession]:
    """Read pre-binned counts, one session per row, in ascending bin-time order.

    :class:`BinnedSession` checks each row's counts and session number; its
    ``DataError`` is re-raised with the line number.  A repeated
    (mouse_id, session) pair is rejected, naming both lines.
    """
    d = layout.n_bins
    expected_header = ["mouse_id", "session"] + [f"b{j}" for j in range(d)]
    rows = _read_rows(path)
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
            sessions.append(BinnedSession(mouse_id=mouse_id, session=session, counts=counts))
        except DataError as exc:
            raise DataError(f"line {lineno}: {exc}") from exc
        seen = first_line.setdefault((mouse_id, session), lineno)
        if seen != lineno:
            raise DataError(
                f"duplicate session {session} for mouse {mouse_id!r} on lines {seen} and {lineno}"
            )
    return sessions


def parse_events(path) -> list[tuple[str, int, float]]:
    """Read raw press events as (mouse_id, session, press_time_s) tuples."""
    rows = _read_rows(path)
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


def bin_events(
    events: list[tuple[str, int, float]], layout: StudyLayout
) -> list[BinnedSession]:
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
        BinnedSession(mouse_id=m, session=s, counts=c)
        for (m, s), c in sorted(table.items())
    ]


def average_sessions(
    sessions: list[BinnedSession], layout: StudyLayout
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


def assemble_dataset(
    exposures: dict[str, int],
    actions: dict[str, np.ndarray],
    layout: StudyLayout,
) -> Dataset:
    """Join actions with exposure states into an estimable dataset.

    Every action must have an exposure entry; exposure entries without an
    action are excluded from the dataset but reported through the logger
    rather than dropped silently.
    """
    missing = sorted(set(actions) - set(exposures))
    if missing:
        raise LinkageError(
            f"actions without exposure entries: {', '.join(repr(m) for m in missing)}"
        )
    unmatched = sorted(set(exposures) - set(actions))
    if unmatched:
        logging.getLogger(__name__).warning(
            "exposure entries without actions (excluded from dataset): %s",
            ", ".join(unmatched),
        )
    ids = sorted(actions)
    ds = Dataset.from_arrays(
        actions=[actions[m] for m in ids], states=[exposures[m] for m in ids], ids=ids
    )
    if ds.dimension != layout.n_bins:
        raise InputError(
            f"actions have {ds.dimension} components, layout declares {layout.n_bins} bins"
        )
    return ds
