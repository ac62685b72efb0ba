"""Synthetic social graphs and reshare cascades for desk-scale experiments.

The generator is openly artificial: final sizes are drawn first from a
heavy-tailed distribution so the tail exponent is controlled, and the tree
is then grown over a preferential-attachment graph to match. Cascades
destined to pass twice the size cutoff spread with a boosted reshare hazard,
planting a recoverable temporal signal: with the boost on, pacing features
separate future-large from future-small cascades; with it off, nothing does.

Everything is deterministic given the seed; each cascade derives its own
generator from (seed, index), so generation order and parallelism cannot
change the output. Every scalar integer draw, of the graph's generator and
of each cascade's, goes through ``_integer_draws``, which returns what
numpy's ``Generator.integers(n)`` would, draw for draw, at a fraction of
its per-call cost.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from typing import Callable, Mapping

from ._lazy import deferred
from .cascade import CONTENT_SCORE_NAMES, ContentRecord, ReshareEvent, SocialGraph
from .errors import AlphaOutOfRangeError, BadParamsError
from .io import finite_float

np = deferred("numpy", globals(), "np")

CATEGORY_LABELS = ("animals", "food", "music", "news", "sports")


@dataclass(frozen=True)
class SynthParams:
    n_nodes: int = 20_000
    attachment_m: int = 2
    page_fraction: float = 0.05
    page_degree_boost: float = 3.0
    reshare_prob: float = 0.5
    rate_boost: float = 3.0
    target_alpha: float = 2.0
    x_min: float = 1.0
    n_cascades: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_nodes <= self.attachment_m or self.attachment_m < 1:
            raise BadParamsError(
                f"need n_nodes > attachment_m >= 1, got {self.n_nodes}, {self.attachment_m}",
                *(("attachment_m", "n_nodes") if self.attachment_m < 1
                  else ("n_nodes", "attachment_m")),
            )
        if not 0.0 <= self.page_fraction <= 1.0:
            raise BadParamsError(
                f"page_fraction in [0,1], got {self.page_fraction}", "page_fraction"
            )
        if self.page_degree_boost < 1.0:
            raise BadParamsError(
                f"page_degree_boost >= 1, got {self.page_degree_boost}", "page_degree_boost"
            )
        if not 0.0 < self.reshare_prob < 1.0:
            raise BadParamsError(
                f"reshare_prob in (0,1), got {self.reshare_prob}", "reshare_prob"
            )
        if self.rate_boost < 1.0:
            raise BadParamsError(f"rate_boost >= 1, got {self.rate_boost}", "rate_boost")
        if self.target_alpha <= 1.0:
            raise BadParamsError(
                f"target_alpha > 1, got {self.target_alpha}", "target_alpha"
            )
        if self.x_min <= 0.0:
            raise BadParamsError(f"x_min > 0, got {self.x_min}", "x_min")
        if self.n_cascades < 1:
            raise BadParamsError(f"n_cascades >= 1, got {self.n_cascades}", "n_cascades")

    @classmethod
    def from_config(cls, cfg: Mapping[str, str]) -> "SynthParams":
        """Params from a config mapping; keys that are not fields are ignored."""
        return cls(**{k: PARAM_TYPES[k](v) for k, v in cfg.items() if k in PARAM_TYPES})


# How each field's config value parses, by the type of its default.
PARAM_TYPES = {
    f.name: finite_float if isinstance(f.default, float) else int
    for f in fields(SynthParams)
}


def powerlaw_inverse_cdf(u: float, alpha: float, x_min: float) -> float:
    """Quantile function of the continuous power law: x_min * u^(-1/(alpha-1)).

    ``u`` is the upper-tail probability, so u = 1 gives x_min and u = 0.5
    gives the median. A quantile past the float range is inf.
    """
    if alpha <= 1.0:
        raise AlphaOutOfRangeError(f"alpha must be > 1, got {alpha}")
    try:
        return x_min * u ** (-1.0 / (alpha - 1.0))
    except OverflowError:
        return math.inf


def sample_powerlaw_sizes(
    alpha: float, x_min: float, n: int, seed: int
) -> np.ndarray:
    """n inverse-CDF draws from the continuous power law, fixed by seed."""
    if alpha <= 1.0:
        raise AlphaOutOfRangeError(f"alpha must be > 1, got {alpha}")
    if n < 1:
        raise BadParamsError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    u = 1.0 - rng.random(n)  # uniform on (0, 1]
    return x_min * u ** (-1.0 / (alpha - 1.0))


def _integer_draws(rng: np.random.Generator) -> Callable[[int], int]:
    """``draw(n)``, equal to ``int(rng.integers(n))`` for 1 <= n <= 2**32.

    numpy draws these by Lemire's multiply-and-reject method (Lemire, "Fast
    Random Integer Generation in an Interval", ACM TOMACS 29(1), 2019) over
    32-bit halves of the bit generator's 64-bit words: the low half of a
    fresh word first, then the high half, kept for the next draw. ``n == 1``
    draws nothing. ``random()`` and ``exponential()`` take whole words and
    leave the kept half alone. The kept half lives here, not in ``rng``, so
    every scalar ``integers`` draw of ``rng`` must come through one
    ``draw``, or none.
    """
    raw = rng.bit_generator.random_raw
    kept = None

    def next32() -> int:
        nonlocal kept
        if kept is not None:
            half, kept = kept, None
            return half
        word = raw()
        kept = word >> 32
        return word & 0xFFFFFFFF

    def draw(n: int) -> int:
        if n == 1:
            return 0
        m = next32() * n
        if (m & 0xFFFFFFFF) < n:
            threshold = (1 << 32) % n
            while (m & 0xFFFFFFFF) < threshold:
                m = next32() * n
        return m >> 32

    return draw


def _page_mask(params: SynthParams, seed: int) -> list[bool]:
    """Which node indices are pages; shared by graph and cascade generation."""
    rng = np.random.default_rng([seed, 1])
    return (rng.random(params.n_nodes) < params.page_fraction).tolist()


def generate_social_graph(params: SynthParams, seed: int) -> SocialGraph:
    """Preferential-attachment graph with degree-boosted page nodes.

    Each new node attaches to ``attachment_m`` distinct earlier nodes chosen
    proportionally to accumulated attachment stubs; page endpoints deposit
    ``page_degree_boost`` times as many stubs per edge, tilting the degree
    distribution in their favor. Each endpoint's stubs are held as one run,
    its node and the stub total at its end, and a draw finds its run by
    bisection, so memory follows the edges, not the boost. A graph whose
    stub total passes 2**32, beyond ``_integer_draws``, is refused.
    """
    rng = np.random.default_rng([seed, 0])
    integers = _integer_draws(rng)
    pages = _page_mask(params, seed)
    n = params.n_nodes
    ids = [str(v) for v in range(n)]
    m = params.attachment_m
    extra_int = int(params.page_degree_boost) - 1
    extra_frac = params.page_degree_boost - int(params.page_degree_boost)

    def stub_copies(node: int) -> int:
        if not pages[node]:
            return 1
        return 1 + extra_int + (1 if rng.random() < extra_frac else 0)

    graph = SocialGraph(directed=False)
    owners: list[int] = []
    ends: list[int] = []
    total = 0
    for v in range(1, n):
        limit = min(m, v)
        targets: set[int] = set()
        attempts = 0
        while len(targets) < limit:
            if total and attempts < 20 * limit:
                t = owners[bisect_right(ends, integers(total))]
                attempts += 1
            else:
                t = integers(v)
            if t != v:
                targets.add(t)
        for t in sorted(targets):
            graph.add_edge(ids[v], ids[t])
            for node in (v, t):
                total += stub_copies(node)
                owners.append(node)
                ends.append(total)
            if total > 1 << 32:
                raise BadParamsError(
                    f"page_degree_boost {params.page_degree_boost} makes more than "
                    "2**32 attachment stubs", "page_degree_boost",
                )
    return graph


def _node_profiles(params: SynthParams, seed: int) -> dict[str, list]:
    """Stable per-node demographics so a node looks the same in every cascade.

    Columns are plain lists of Python floats, bools and ints, indexed by node;
    a float column holds one float object per distinct value.
    """
    rng = np.random.default_rng([seed, 3])
    n = params.n_nodes

    def floats(low: int, high: int) -> list[float]:
        values = [float(v) for v in range(low, high)]
        return [values[i] for i in (rng.integers(low, high, size=n) - low).tolist()]

    return {
        "age": floats(13, 80),
        "fb_age": floats(30, 4000),
        "activity": floats(0, 31),
        "female": (rng.random(n) < 0.5).tolist(),
        "subscribers": rng.poisson(5, size=n).tolist(),
    }


def simulate_cascades(
    graph: SocialGraph, params: SynthParams, seed: int
) -> tuple[list[list[ReshareEvent]], dict[str, ContentRecord]]:
    """Generate event logs for ``n_cascades`` cascades over ``graph``.

    Per cascade: draw a target size from the power law, pick a root (a page
    with probability ``page_fraction``), then spread breadth-first, each
    exposed neighbor resharing with ``reshare_prob``. Inter-reshare delays
    are exponential, with the hazard multiplied by ``rate_boost`` exactly
    when the drawn size reaches 2 * x_min. If exposure dies out before the
    target, a random outside node reshares from a random member, so the
    realized size matches the draw whenever the graph is large enough.

    View counters follow the stated simplification: the original post is
    seen by the root's neighbors, reshares by the resharers' neighbors.

    Exposure is breadth-first over the members in join order: each member
    exposes its sorted neighbors in turn, and a neighbor that is already a
    member when its turn comes is skipped. Members only grow, so walking
    the members' neighbor lists lazily offers the candidates in the same
    order as queueing every (neighbor, member) pair up front, and
    ``rng.random()`` is drawn for exactly the same candidates.
    """
    pages = _page_mask(params, seed)
    profiles = _node_profiles(params, seed)
    node_ids = sorted(graph.adjacency)
    page_nodes = [nid for nid in node_ids if pages[int(nid)]]
    user_nodes = [nid for nid in node_ids if not pages[int(nid)]]
    neighbor_lists = {nid: tuple(sorted(graph.adjacency[nid])) for nid in node_ids}
    degree = {nid: len(nbrs) for nid, nbrs in neighbor_lists.items()}
    reshare_prob = params.reshare_prob

    width = len(str(params.n_cascades - 1))
    all_events: list[list[ReshareEvent]] = []
    contents: dict[str, ContentRecord] = {}
    for idx in range(params.n_cascades):
        rng = np.random.default_rng([seed, 2, idx])
        integers = _integer_draws(rng)
        cascade_id = f"c{idx:0{width}d}"
        drawn = powerlaw_inverse_cdf(
            1.0 - rng.random(), params.target_alpha, params.x_min
        )
        # An infinite draw, like any draw above the node count, grows the
        # cascade until the nodes run out.
        target = max(1, int(drawn)) if math.isfinite(drawn) else len(node_ids)
        boosted = drawn >= 2.0 * params.x_min
        hazard = params.rate_boost if boosted else 1.0

        if page_nodes and rng.random() < params.page_fraction:
            root = page_nodes[integers(len(page_nodes))]
        else:
            pool = user_nodes if user_nodes else node_ids
            root = pool[integers(len(pool))]

        epoch = float(idx)
        events = [_event(cascade_id, root, None, epoch, pages, profiles, degree, None, None)]
        members = {root}
        joined = [root]  # members in join order, the exposers
        at = 0  # joined[at] is exposing its neighbors through ``exposure``
        exposure = iter(neighbor_lists[root])
        t = 0.0
        reshare_views = 0
        while len(joined) <= target:
            parent = None
            while parent is None:
                for cand in exposure:
                    if cand not in members and rng.random() < reshare_prob:
                        node, parent = cand, joined[at]
                        break
                else:
                    if at + 1 == len(joined):
                        break
                    at += 1
                    exposure = iter(neighbor_lists[joined[at]])
            if parent is None:
                # Exposure died out; attach an outside node to keep the
                # realized size on target.
                if len(members) >= len(node_ids):
                    break
                while True:
                    node = node_ids[integers(len(node_ids))]
                    if node not in members:
                        break
                parent = events[integers(len(events))].node_id
            t += rng.exponential(1.0 / hazard)
            events.append(
                _event(
                    cascade_id,
                    node,
                    parent,
                    epoch + t,
                    pages,
                    profiles,
                    degree,
                    degree[root],
                    reshare_views,
                )
            )
            members.add(node)
            joined.append(node)
            reshare_views += degree[node]

        all_events.append(events)
        contents[cascade_id] = ContentRecord(
            **{name: float(rng.random()) for name in CONTENT_SCORE_NAMES},
            is_en=bool(rng.random() < 0.7),
            has_caption=bool(rng.random() < 0.5),
            liwc_pos=float(rng.random()),
            liwc_neg=float(rng.random()),
            liwc_soc=float(rng.random()),
            category=CATEGORY_LABELS[integers(len(CATEGORY_LABELS))],
        )
    return all_events, contents


def _event(
    cascade_id: str,
    node: str,
    parent: str | None,
    timestamp: float,
    pages: list[bool],
    profiles: dict[str, list],
    degree: dict[str, int],
    views_orig: int | None,
    views_reshares: int | None,
) -> ReshareEvent:
    # Field values in EVENT_FIELDS order.
    i = int(node)
    deg = degree[node]
    if pages[i]:
        return ReshareEvent(
            cascade_id, node, timestamp, parent, "page", deg,
            None, deg, None, None, None, None, None, views_orig, views_reshares,
        )
    subscribers = profiles["subscribers"][i]
    return ReshareEvent(
        cascade_id, node, timestamp, parent, "user", deg + subscribers,
        deg, None, subscribers, profiles["age"][i], profiles["fb_age"][i],
        profiles["activity"][i], "female" if profiles["female"][i] else "male",
        views_orig, views_reshares,
    )
