"""An event-level pin of one faulted run on the reliable transport.

The goldens and the ``--json`` pins are lossless runs, and the
adversity study's golden holds only aggregates: none of them would see
a retransmission timer fire one event earlier or later.  This pins the
small ``reliable`` scenario of ``test_percell_budget`` (2 % link loss,
relay churn, go-back-N) at event level: per-kind ``events_executed``,
the transport counters and a sha256 of the whole result.  A change to
the simulator kernel or the hop sender that claims to leave every
event where it was must leave these three alone.
"""

from __future__ import annotations

import json
from dataclasses import replace

from helpers import pins, text_digest
from test_percell_budget import reliable_scenario

from repro.scenario import plan_scenario, run_planned
from repro.scenario.cache import PlanCache

EVENTS_EXECUTED = {"with": 8203, "without": 6666}
TRANSPORT_COUNTERS = {
    "with": {
        "broken": 0, "cells_sent": 966, "duplicate_feedback": 452,
        "feedback_received": 905, "max_buffer_depth": 294,
        "retransmissions": 469, "timeouts": 49,
    },
    "without": {
        "broken": 0, "cells_sent": 944, "duplicate_feedback": 255,
        "feedback_received": 908, "max_buffer_depth": 255,
        "retransmissions": 265, "timeouts": 33,
    },
}


def fingerprint(scenario):
    """(events_executed, transport_counters, sha256) of one run."""
    result = run_planned(plan_scenario(scenario, cache=PlanCache()))
    text = json.dumps(result.to_dict(), sort_keys=True)
    return result.events_executed, result.transport_counters, text_digest(text)


def test_reliable_run_is_pinned_at_event_level():
    events, counters, digest = fingerprint(reliable_scenario())
    assert events == EVENTS_EXECUTED
    assert counters == TRANSPORT_COUNTERS
    assert digest == pins("reliable-event")["result"]


def test_the_pin_sees_a_moved_timer():
    # Teeth: a 2 % longer minimum RTO moves retransmission deadlines
    # and nothing else; the pin must notice.
    scenario = reliable_scenario()
    nudged = replace(
        scenario, transport=replace(scenario.transport, rto_min=0.051)
    )
    assert scenario.transport.rto_min == 0.05
    events, counters, digest = fingerprint(nudged)
    assert digest != pins("reliable-event")["result"]
    assert (events, counters) != (EVENTS_EXECUTED, TRANSPORT_COUNTERS)
