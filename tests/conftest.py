import gc
from dataclasses import fields

import numpy as np
import pytest

from cascadekit.cascade import ReshareEvent, build_cascade


def event(cid, nid, t, parent=None, **kwargs):
    return ReshareEvent(
        cascade_id=cid, node_id=nid, timestamp=t, parent_id=parent, **kwargs
    )


def typed_fields(e):
    """Every field of an event as (type, repr): an equal value of another
    type, or -0.0 for 0.0, counts as a difference."""
    return [(type(v), repr(v)) for v in (getattr(e, f.name) for f in fields(e))]


def tree_from_parents(parents, times=None, cascade_id="t", **event_kwargs):
    """Build a cascade from a parent-index list.

    ``parents[i]`` is the parent index of node i+1 (node 0 is the root).
    Timestamps default to 0, 1, 2, ... so reshare order follows node index.
    """
    n = len(parents) + 1
    if times is None:
        times = list(range(n))
    events = [event(cascade_id, "n000", times[0], **event_kwargs)]
    for i, p in enumerate(parents, start=1):
        events.append(
            event(cascade_id, f"n{i:03d}", times[i], f"n{p:03d}", **event_kwargs)
        )
    return build_cascade(events)


def random_tree(rng, n, cascade_id="t"):
    """Uniform random attachment tree with n nodes."""
    parents = [int(rng.integers(0, i + 1)) for i in range(n - 1)]
    return tree_from_parents(parents, cascade_id=cascade_id)


def star_tree(n_reshares, cascade_id="t", **kwargs):
    return tree_from_parents([0] * n_reshares, cascade_id=cascade_id, **kwargs)


def path_tree(n_reshares, cascade_id="t", **kwargs):
    return tree_from_parents(list(range(n_reshares)), cascade_id=cascade_id, **kwargs)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def collector_switch_restored():
    """Every test ends with the cyclic garbage collector on or off as it
    began: a pause (``cli.main``'s) that a return, a raise or an
    error exit forgot to end fails the test that left it."""
    was_on = gc.isenabled()
    yield
    left_on = gc.isenabled()
    (gc.enable if was_on else gc.disable)()  # so later tests start as this one did
    assert left_on == was_on, (
        f"the cyclic garbage collector was left {'on' if left_on else 'off'}"
    )
