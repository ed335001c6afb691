"""Press events written as ``(mouse_id, session, press_time_s)`` tuples, held as columns.

``bin_events`` takes only the columnar :class:`divtol.Events` that
``parse_events`` returns; tests that spell their events as tuples build it
here.
"""

import numpy as np

from divtol import Events, ingest


def events_from_tuples(events) -> Events:
    """The :class:`Events` of ``events``, ids coded as the parsers code them, rows on lines 1..n."""
    ids, sessions, times = list(zip(*events)) or [(), (), ()]
    mouse_ids, codes = ingest._codes(ids)
    return Events(
        mouse_ids,
        codes,
        np.array(sessions, dtype=np.int64),
        np.array(times, dtype=np.float64),
        np.arange(1, len(ids) + 1),
    )
