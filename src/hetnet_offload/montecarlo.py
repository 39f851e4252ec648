"""Brute-force Monte Carlo oracle for the analytic coverage results.

Each trial realizes every AP class as a point process in a square window
centred on the typical user (the origin), picks the serving AP by the
weighted criterion max T_mk x^(-alpha_mk), draws i.i.d. Exp(1) fading,
computes SINR against same-RAT interference (open + closed, server
excluded), then drops an independent user PPP, associates every user by
the same criterion, and counts the users landing on the tagged AP.  The
trial rate is exactly (W_serving / load) * log2(1 + SINR).

Reproducibility contract: the random stream of class (m,k) in trial t is
PCG64 seeded by SeedSequence(entropy=seed, spawn_key=(t, m, k, access)),
access 1 for open and 2 for closed, and the user stream by spawn key
(t, 0, 0, 0), so results are bit-identical for any worker count or block
schedule, and deleting a class leaves every other stream untouched (which
is what makes "removing closed APs never lowers SINR at fixed seed" a
per-trial property, not merely a distributional one).

Built one at a time those streams cost ~25 us each, so a block of trials
derives all of its seed words in one pass: SeedSequence's hashing redone
on uint32 arrays (numpy's own pool for the seed, then each trial's words
once for all its streams) up to generate_state(4, uint64), from which
each PCG64 seeds itself as it would from its SeedSequence.  These are the
documented streams bit for bit; each block checks its last stream against
numpy's own derivation and raises RuntimeError on a mismatch.

A trial draws only what its outcome reads.  Each class stream yields the
class's points, then its fading; fading is drawn only for classes of the
serving RAT, since the other RAT's gains never enter the SINR.  A closed
class always draws its Poisson count (so mean AP counts are unchanged) but
its positions only when its RAT serves.  These are the same draws from the
same stream positions as an eager draw of everything, so SINR does not
depend on what is skipped.

Load counting is exact but pruned: a user u served by the tagged AP x*
must have x* as its nearest serving-class AP, hence d(u, x*) <= D/sqrt(2)
where D is the distance from x* to its nearest same-class neighbour whose
direction (from x*) falls in the same eighth-of-plane sector as u's.
[Proof: both directions lie in one half-open octant, so they differ by
less than pi/4; the perpendicular-bisector condition d(u,x*) <= d(u,x)
forces |u - x*| cos(angle) <= |x - x*|/2 with cos(angle) > 1/sqrt(2).]
The largest sector bound is the tagged AP's reach, so the user PPP is
drawn only in the square of that half-width around x*, clipped to the
window (the whole window when a sector has no neighbour); a PPP
restricted to a set is a PPP, so the load law is unchanged.  Users
outside their own sector's bound are then discarded.  Each survivor gets
one exact check over every open class, the serving class first and
included: it stays unless some site (the tagged AP aside) outweighs the
tagged AP at that user.  Only a class's sites within d_max + g(d_max) of
x* can strip a user (d_max the farthest candidate still standing, g the
class's exclusion radius).  The serving-class check runs in two stages:
the sites nearest x* first, which bound its cell and strip most users,
then the farther ones cut again by the survivors' d_max.  Weight falls
with distance within a class, so beating the nearest site of each stage
is beating the class's nearest site, and the count is unchanged.
The tests hold the count to an unpruned full association over the whole
window.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .coverage import CcdfCurve, _check_grid
from .model import ApClass, ClassId, NetworkConfig, require_valid


_ACCESS_CODE = {"open": 1, "closed": 2}
_USER_KEY = (0, 0, 0)  # the user stream of trial t is (t, 0, 0, 0)


@dataclass(frozen=True)
class SimSettings:
    """Simulation controls.

    window_km         side of the square window, user at its centre (> 0)
    trials            number of independent trials (>= 1)
    seed              root seed; every stream derives from (seed, trial, ...)
    deployment        "ppp" | "grid", for every class
    parallel_workers  process count (>= 1); results are worker-count invariant
    """

    window_km: float = 20.0
    trials: int = 100_000
    seed: int = 0
    deployment: str = "ppp"
    parallel_workers: int = 1


@dataclass
class EmpiricalSummary:
    sinr_ccdf: CcdfCurve
    rate_ccdf: CcdfCurve
    association_freq: dict[ClassId, float]
    load_histogram: dict[ClassId, np.ndarray]
    mean_cell_area: dict[ClassId, float]
    trial_count: int
    far_serving_trials: int = 0
    mean_ap_count: dict[ClassId, float] = field(default_factory=dict)


def _check_deployment(settings: SimSettings) -> None:
    if settings.deployment not in ("ppp", "grid"):
        raise ValueError(f"unknown deployment mode {settings.deployment!r}")


def _class_key(cid: ClassId) -> tuple[int, int, int]:
    return (cid.rat, cid.tier, _ACCESS_CODE[cid.access])


def _seeded_pcg64(seed: int, key: tuple[int, ...]) -> np.random.PCG64:
    """The documented stream derivation: PCG64(SeedSequence(seed, spawn_key=key))."""
    return np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key))


# the documented streams built one at a time: the reference the tests hold
# the block derivation (and every lazy draw) to
def _class_rng(seed: int, trial: int, cid: ClassId) -> np.random.Generator:
    return np.random.Generator(_seeded_pcg64(seed, (trial, *_class_key(cid))))


def _user_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(_seeded_pcg64(seed, (trial, *_USER_KEY)))


def _check_seed(seed) -> int:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


# numpy's SeedSequence hashing (pool of 4 uint32 words)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(n: int) -> list[int]:
    """The uint32 words SeedSequence makes of a non-negative int, low first."""
    return [n >> s & _M32 for s in range(0, max(32, n.bit_length()), 32)]


def _hashmix(value, hc: int, mult: int = _MULT_A):
    """SeedSequence's hash of a uint32 array or int: (hashed, next hash constant)."""
    hc2 = hc * mult & _M32
    value = (value ^ hc) * hc2 & _M32
    return value ^ (value >> 16), hc2


def _mix(x, y):
    r = (x * _MIX_L - (y * _MIX_R & _M32)) & _M32
    return r ^ (r >> 16)


def _seed_pool(seed: int) -> tuple[list[int], int]:
    """SeedSequence's pool after the entropy words of `seed`, and the hash
    constant the spawn-key words continue from.  Each hash advances the
    constant once: 16 to fill and cross-mix the 4-word pool, which a short
    seed pads with zeros (as a spawned sequence pads its entropy before the
    key), and 4 for each word beyond the fourth."""
    seed = _check_seed(seed)
    hashes = 16 + 4 * max(0, len(_words(seed)) - 4)
    pool = [int(w) for w in np.random.SeedSequence(seed).pool]
    return pool, _INIT_A * pow(_MULT_A, hashes, 1 << 32) & _M32


def _mix_words(pool: list, hc: int, columns) -> tuple[list, int]:
    """Mix further entropy words into the pool (in place), each column one
    word position: ints, or uint32 arrays over a pool of arrays."""
    for col in columns:
        for dst in range(4):
            h, hc = _hashmix(col, hc)
            pool[dst] = _mix(pool[dst], h)
    return pool, hc


def _generate_state(pool: list[np.ndarray]) -> np.ndarray:
    """SeedSequence.generate_state(4, uint64) of each pool, shape (n, 4)."""
    out = np.empty((pool[0].shape[0], 8), dtype=np.uint32)
    hc = _INIT_B
    for i in range(8):
        out[:, i], hc = _hashmix(pool[i % 4], hc, _MULT_B)
    return out.astype("<u4").view("<u8").astype(np.uint64, copy=False)


def _stream_states(seed: int, trials: range, keys) -> list[np.ndarray]:
    """The seed words `SeedSequence(seed, spawn_key=(t, *key)).generate_state(4,
    uint64)` of every t in `trials`, one (len(trials), 4) array per key,
    hashed as uint32 arrays.

    The seed part of the pool is hashed once; the trial words once per
    trial, for all keys; a trial >= 2^32 is two key words (then three ...),
    so trials are taken in runs of equal word count.
    """
    if trials.start < 0:
        raise ValueError(f"trial index must be non-negative, got {trials.start}")
    seed_pool, seed_hc = _seed_pool(seed)
    out = [np.empty((len(trials), 4), dtype=np.uint64) for _ in keys]
    start = trials.start
    while start < trials.stop:
        n_words = max(1, -(-start.bit_length() // 32))
        stop = min(trials.stop, 1 << (32 * n_words))
        t = np.arange(start, stop, dtype=object)
        cols = [((t >> (32 * j)) & _M32).astype(np.uint32) for j in range(n_words)]
        pool = [np.full(stop - start, w, dtype=np.uint32) for w in seed_pool]
        pool, hc = _mix_words(pool, seed_hc, cols)
        rows = slice(start - trials.start, stop - trials.start)
        for key, words in zip(keys, out):
            key_words = [w for x in key for w in _words(x)]
            words[rows] = _generate_state(_mix_words(list(pool), hc, key_words)[0])
        start = stop
    return out


@functools.cache
def _seed_words_type() -> type:
    """The SeedWords class, built on first use: its base class lives in
    numpy.random, which would otherwise add ~25 ms of CPU to the import."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """One stream's generate_state(4, uint64) words, handed to PCG64 in
        place of its SeedSequence; PCG64 asks for exactly those and seeds
        itself from them."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype):
            if n_words != 4 or dtype != np.uint64:
                raise ValueError(f"stream seed words are 4 uint64, not {n_words} {dtype}")
            return self.words

    return SeedWords


def _ppp_count(cls: ApClass, settings: SimSettings, rng: np.random.Generator) -> int:
    w = settings.window_km
    return int(rng.poisson(cls.density * w * w))


def _uniform(rng: np.random.Generator, lo, hi, size) -> np.ndarray:
    """rng.uniform(lo, hi, size) bit for bit, without its argument checks.

    numpy draws lo + (hi - lo) * U from U = rng.random(); the same two
    operations on the same doubles give the same bits.
    """
    u = rng.random(size)
    u *= hi - lo
    u += lo
    return u


def _ppp_points(n: int, settings: SimSettings, rng: np.random.Generator) -> np.ndarray:
    half = settings.window_km / 2.0
    return _uniform(rng, -half, half, (n, 2))


def sample_deployment(cls: ApClass, settings: SimSettings, rng: np.random.Generator) -> np.ndarray:
    """Sample one trial's AP positions for a class, shape (n, 2), km.

    "ppp": Poisson(lam * window^2) points uniform in the window.
    "grid": square lattice of spacing 1/sqrt(lam) with a common random
    offset per trial (so the typical user's position within the lattice
    cell is uniform rather than pinned).
    """
    w = settings.window_km
    half = w / 2.0
    if cls.density <= 0.0:
        return np.empty((0, 2))
    if settings.deployment == "ppp":
        return _ppp_points(_ppp_count(cls, settings, rng), settings, rng)
    _check_deployment(settings)
    spacing = 1.0 / math.sqrt(cls.density)
    off = _uniform(rng, 0.0, spacing, 2)
    xs = np.arange(off[0], w, spacing) - half
    ys = np.arange(off[1], w, spacing) - half
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack((gx.ravel(), gy.ravel()))


_DIST_BLOCK = 32_768  # distances per block of `_min_dist2`'s (sites x points) matrix


def _min_dist2(points: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """Squared distance from each point to its nearest site (inf when there
    is no site).

    The distances form a (sites x points) matrix, built in blocks of about
    _DIST_BLOCK entries over the points; its minimum runs down the columns,
    an elementwise minimum of whole rows.
    """
    out = np.empty(points.shape[0])
    step = max(1, _DIST_BLOCK // max(1, sites.shape[0]))
    for s in range(0, points.shape[0], step):
        blk = points[s : s + step]
        d2 = np.subtract.outer(sites[:, 0], blk[:, 0])
        d2 *= d2
        dy = np.subtract.outer(sites[:, 1], blk[:, 1])
        dy *= dy
        d2 += dy
        d2.min(axis=0, initial=np.inf, out=out[s : s + step])
    return out


def _octant(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Direction sector 0..7 of each vector (dx, dy) (eighth-of-plane bins)."""
    return (np.floor(np.arctan2(dy, dx) / (math.pi / 4.0)).astype(np.int64) + 4) % 8


def _sector_min2(dx: np.ndarray, dy: np.ndarray, d2: np.ndarray) -> np.ndarray:
    out = np.full(8, np.inf)
    np.minimum.at(out, _octant(dx, dy), d2)
    return out


def _octant_reach2(own: np.ndarray, server_idx: int, density: float) -> tuple[np.ndarray, np.ndarray]:
    """(squared distances from the tagged AP to its class, the AP itself at
    inf; squared reach (D / sqrt(2))^2 of each of the 8 sectors, inf where a
    sector holds no neighbour).

    Sector minima are taken first over the neighbours within the radius
    that holds 64 of them on average: a minimum found there is the
    sector's minimum, and only a sector left empty needs every AP.
    """
    dx = own[:, 0] - own[server_idx, 0]
    dy = own[:, 1] - own[server_idx, 1]
    own_d2 = dx**2 + dy**2
    own_d2[server_idx] = np.inf
    near = own_d2 <= 64.0 / (math.pi * density)
    reach2 = _sector_min2(dx[near], dy[near], own_d2[near])
    if np.isinf(reach2).any():
        reach2 = _sector_min2(dx, dy, own_d2)
    return own_d2, reach2 / 2.0


def _users_near(
    config: NetworkConfig,
    settings: SimSettings,
    rng: np.random.Generator,
    server: np.ndarray,
    reach: float,
) -> np.ndarray:
    """The trial's user PPP, drawn from its user stream `rng`, restricted to
    [server +- reach]^2 within the window.

    No user outside that square can be on the tagged AP, and a PPP
    restricted to a set is a PPP on it, so the load law is unchanged.
    """
    half = settings.window_km / 2.0
    lo = np.maximum(server - reach, -half)
    hi = np.minimum(server + reach, half)
    n_users = rng.poisson(config.user_density * float((hi[0] - lo[0]) * (hi[1] - lo[1])))
    return _uniform(rng, lo, hi, (n_users, 2))


def _strip_reach2(cls: ApClass, serving: ApClass, cd2: np.ndarray) -> float:
    """Squared distance from the tagged AP beyond which no class-`cls` site
    can strip a user of squared distances `cd2` from it.

    A site strips user u only within the exclusion radius
    g(d_u) = (T_c/T_s)^(1/a_c) d_u^(a_s/a_c) of u, hence within
    d_max + g(d_max) of the tagged AP; for the serving class g(d) = d.
    """
    d_max = math.sqrt(cd2.max())
    g_max = (cls.weight / serving.weight) ** (1.0 / cls.exponent) * d_max ** (
        serving.exponent / cls.exponent
    )
    return (d_max + g_max) ** 2


def _strip(
    cls: ApClass,
    serving: ApClass,
    sites: np.ndarray,
    cu: np.ndarray,
    cd2: np.ndarray,
    w_srv: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The users (positions cu, squared distances cd2 to the tagged AP, and
    the tagged AP's weights w_srv at them) that no class-`cls` site of
    `sites` outweighs.  Ties go to the tagged AP against its own class and
    any later one."""
    if sites.shape[0] == 0 or cu.shape[0] == 0:
        return cu, cd2, w_srv
    w_other = cls.weight * _min_dist2(cu, sites) ** (-cls.exponent / 2.0)
    keep = w_srv >= w_other if serving.id <= cls.id else w_srv > w_other
    return cu.compress(keep, axis=0), cd2.compress(keep), w_srv.compress(keep)


# sites in the first stage of the serving-class check; 8 to 20 all timed
# within 3% of each other on two_class_sir's load counts
_NEAR_SITES = 12


def _tagged_user_count(
    config: NetworkConfig,
    points: dict[ClassId, np.ndarray],
    serving: ApClass,
    server_idx: int,
    users: np.ndarray,
    own_d2: np.ndarray,
    reach2: np.ndarray,
) -> int:
    """Number of users associated with the tagged AP (exact, pruned).

    One check over every open class, the serving class included: a user
    stays unless some site (the tagged AP aside) outweighs the tagged AP at
    that user.  The serving-class check takes the tagged AP's nearest
    neighbours first.  own_d2 and reach2 come from `_octant_reach2`.
    Expects the caller to ignore divide-by-zero (a user on an AP weighs inf).
    """
    if users.shape[0] == 0:
        return 0
    own = points[serving.id]
    server = own[server_idx]
    dx = users[:, 0] - server[0]
    dy = users[:, 1] - server[1]
    d_u2 = dx**2 + dy**2
    cand = np.flatnonzero(d_u2 <= reach2[_octant(dx, dy)])
    cu = users.take(cand, axis=0)
    cd2 = d_u2.take(cand)
    if cu.shape[0] == 0:
        return 0
    w_srv = serving.weight * cd2 ** (-serving.exponent / 2.0)
    # the serving class first: its sites strip the most users, and the
    # survivors' smaller d_max then cuts the other classes' sites
    for cls in sorted(config.open_classes(), key=lambda c: c.id != serving.id):
        pts = points[cls.id]
        if cu.shape[0] == 0 or pts.shape[0] == 0:
            continue
        if cls.id == serving.id:
            d_s2 = own_d2  # the tagged AP itself sits at inf
        else:
            d_s2 = (pts[:, 0] - server[0]) ** 2 + (pts[:, 1] - server[1]) ** 2
        sites = np.flatnonzero(d_s2 <= _strip_reach2(cls, serving, cd2))
        if cls.id == serving.id:
            # the tagged AP's nearest neighbours bound its cell, so they
            # strip most users; the survivors' d_max then cuts the rest.
            # A site's weight falls with its distance, so a user beats the
            # class's nearest site iff it beats the nearest of each stage.
            sites = sites[np.argsort(d_s2[sites])]
            cu, cd2, w_srv = _strip(cls, serving, pts[sites[:_NEAR_SITES]], cu, cd2, w_srv)
            if cu.shape[0] == 0:
                break
            rest = sites[_NEAR_SITES:]
            cut = np.searchsorted(d_s2[rest], _strip_reach2(cls, serving, cd2), side="right")
            sites = rest[:cut]
        cu, cd2, w_srv = _strip(cls, serving, pts[sites], cu, cd2, w_srv)
    return int(cu.shape[0])


class _Plan:
    """What the trials of a block share, built once per block.

    Present classes are addressed by slot, their index in ClassId order.
    Each slot, and the user stream after them when users are on, owns one
    stream key; a trial seeds one generator per key from its seed words.
    """

    def __init__(self, config: NetworkConfig, settings: SimSettings):
        self.config = config
        self.settings = settings
        self.classes = config.present_classes()
        # open classes and grids are placed before serving; a closed PPP
        # draws its count then and its positions only if its RAT serves
        self.placed = [c.id.is_open or settings.deployment == "grid" for c in self.classes]
        self.open_slots = [k for k, c in enumerate(self.classes) if c.id.is_open]
        self.rat_slots = {
            rat: [k for k, c in enumerate(self.classes) if c.id.rat == rat] for rat in config.rats()
        }
        self.keys = [_class_key(c.id) for c in self.classes]
        if config.user_density > 0.0:
            self.keys.append(_USER_KEY)

    def stream_states(self, start: int, stop: int) -> list[np.ndarray]:
        """The seed words of trials start..stop-1, one (trials, 4) array per
        slot; the last stream is checked against numpy's own derivation."""
        seed = self.settings.seed
        states = _stream_states(seed, range(start, stop), self.keys)
        if self.keys:
            got = np.random.PCG64(_seed_words_type()(states[-1][-1])).state
            if got != _seeded_pcg64(seed, (stop - 1, *self.keys[-1])).state:
                raise RuntimeError(
                    f"derived stream state of trial {stop - 1} differs from numpy's SeedSequence"
                )
        return states


def _trial(plan: _Plan, states) -> tuple[int, float, float, int, float, list[int]]:
    """One trial from its seed words, one per slot: (open rank of the
    serving class or -1, distance, SINR, load, rate, per-slot AP counts).

    Expects the caller to ignore divide-by-zero (an AP at distance 0 weighs
    inf).
    """
    seed_words = _seed_words_type()
    rngs = [np.random.Generator(np.random.PCG64(seed_words(w))) for w in states]
    config, settings, classes = plan.config, plan.settings, plan.classes
    points: list[np.ndarray | None] = [None] * len(classes)
    counts = [0] * len(classes)
    for k, cls in enumerate(classes):
        if plan.placed[k]:
            points[k] = sample_deployment(cls, settings, rngs[k])
            counts[k] = points[k].shape[0]
        else:
            counts[k] = _ppp_count(cls, settings, rngs[k])

    best = None  # (rank, slot, index, distance, weight); ties -> smallest ClassId
    origin_d2: list[np.ndarray | None] = [None] * len(classes)
    for rank, k in enumerate(plan.open_slots):
        pts = points[k]
        if pts.shape[0] == 0:
            continue
        cls = classes[k]
        d2 = origin_d2[k] = pts[:, 0] ** 2 + pts[:, 1] ** 2
        i = int(np.argmin(d2))
        dist = math.sqrt(d2[i])
        weight = cls.weight * dist ** (-cls.exponent) if dist > 0.0 else math.inf
        if best is None or weight > best[4]:
            best = (rank, k, i, dist, weight)
    if best is None:
        return -1, math.nan, 0.0, 1, 0.0, counts
    rank, slot, sidx, sdist, _ = best
    serving = classes[slot]

    # fading, and closed-AP positions, only where the serving RAT reads them;
    # each comes from its class's stream right after the class's points
    power_received = 0.0
    interference = 0.0
    for k in plan.rat_slots[serving.id.rat]:
        cls, rng = classes[k], rngs[k]
        if points[k] is None:
            points[k] = _ppp_points(counts[k], settings, rng)
        pts = points[k]
        if pts.shape[0] == 0:
            continue
        r2 = origin_d2[k] if origin_d2[k] is not None else pts[:, 0] ** 2 + pts[:, 1] ** 2
        gains = rng.exponential(1.0, pts.shape[0])
        contrib = cls.power * gains * r2 ** (-cls.exponent / 2.0)
        if k == slot:
            path_gain = sdist ** (-serving.exponent) if sdist > 0.0 else math.inf
            power_received = serving.power * gains[sidx] * path_gain
            contrib[sidx] = 0.0
        interference += float(contrib.sum())
    denom = interference + config.noise_for(serving.id.rat)
    sinr = power_received / denom if denom > 0.0 else math.inf

    load = 1
    if config.user_density > 0.0:
        own = points[slot]
        own_d2, reach2 = _octant_reach2(own, sidx, serving.density)
        users = _users_near(config, settings, rngs[-1], own[sidx], math.sqrt(reach2.max()))
        open_points = {classes[k].id: points[k] for k in plan.open_slots}
        load += _tagged_user_count(config, open_points, serving, sidx, users, own_d2, reach2)

    rate = serving.bandwidth / load * math.log2(1.0 + sinr)
    return rank, sdist, sinr, load, rate, counts


def _run_block(config: NetworkConfig, settings: SimSettings, start: int, stop: int):
    plan = _Plan(config, settings)
    states = plan.stream_states(start, stop)
    n = stop - start
    serving = np.empty(n, dtype=np.int16)
    dist = np.empty(n)
    sinr = np.empty(n)
    load = np.empty(n, dtype=np.int64)
    rate = np.empty(n)
    counts = np.empty((n, len(plan.classes)), dtype=np.int64)
    with np.errstate(divide="ignore"):
        for k in range(n):
            serving[k], dist[k], sinr[k], load[k], rate[k], counts[k] = _trial(plan, [s[k] for s in states])
    return serving, dist, sinr, load, rate, counts.sum(axis=0)


def _ccdf(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Fraction of `values` above each grid point; zeros when there are none.

    Counted by bisection in the sorted values, so memory stays
    O(values + grid) however long the grid.
    """
    if values.size == 0:
        return np.zeros_like(grid)
    above = values.size - np.searchsorted(np.sort(values), grid, side="right")
    return above / values.size


def run_batch(
    config: NetworkConfig,
    settings: SimSettings,
    rate_grid: np.ndarray | None = None,
) -> EmpiricalSummary:
    """Run all trials and aggregate empirical distributions.

    The rate CCDF is taken at `rate_grid` (bps; by default 61 log-spaced
    points from 1e3 to 1e9), the SINR CCDF from -20 to 60 dB in 1 dB steps.
    The aggregation is a deterministic ordered merge over fixed trial
    blocks, so the summary depends only on (config, settings, rate grid) —
    not on the worker count or scheduling.
    """
    require_valid(config)
    if settings.trials < 1:
        raise ValueError("need at least one trial")
    if not (math.isfinite(settings.window_km) and settings.window_km > 0.0):
        raise ValueError(f"window_km must be finite and > 0, got {settings.window_km}")
    if settings.parallel_workers < 1:
        raise ValueError(f"need at least one worker, got {settings.parallel_workers}")
    _check_seed(settings.seed)
    _check_deployment(settings)
    rate_grid = np.logspace(3.0, 9.0, 61) if rate_grid is None else np.asarray(rate_grid, dtype=float)
    _check_grid(rate_grid, "rate")
    sinr_grid = 10.0 ** (np.arange(-20.0, 60.5, 1.0) / 10.0)  # -20..60 dB in 1 dB steps

    block = 512
    spans = [(s, min(s + block, settings.trials)) for s in range(0, settings.trials, block)]
    tasks = [(config, settings, s, e) for s, e in spans]
    if settings.parallel_workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=settings.parallel_workers) as pool:
            results = list(pool.map(_run_block, *zip(*tasks)))
    else:
        results = [_run_block(*t) for t in tasks]

    serving = np.concatenate([r[0] for r in results])
    dist = np.concatenate([r[1] for r in results])
    sinr = np.concatenate([r[2] for r in results])
    load = np.concatenate([r[3] for r in results])
    rate = np.concatenate([r[4] for r in results])
    count_sum = sum(r[5] for r in results)

    trials = settings.trials
    open_classes = config.open_classes()
    present = config.present_classes()

    far = int(np.sum(dist[serving >= 0] > settings.window_km / 4.0))
    if far:
        warnings.warn(
            f"{far} trials served from beyond window/4; "
            "window may be too small for this density mix",
            stacklevel=2,
        )

    freq: dict[ClassId, float] = {}
    load_hist: dict[ClassId, np.ndarray] = {}
    per_class_sinr: dict[ClassId, np.ndarray] = {}
    per_class_rate: dict[ClassId, np.ndarray] = {}
    for k, cls in enumerate(open_classes):
        mask = serving == k
        freq[cls.id] = int(mask.sum()) / trials
        load_hist[cls.id] = np.bincount(load[mask], minlength=1)
        per_class_sinr[cls.id] = _ccdf(sinr[mask], sinr_grid)
        per_class_rate[cls.id] = _ccdf(rate[mask], rate_grid)

    sinr_vals = _ccdf(sinr, sinr_grid)
    rate_vals = _ccdf(rate, rate_grid)

    mean_count = {cls.id: count_sum[k] / trials for k, cls in enumerate(present)}
    area = settings.window_km**2
    mean_cell_area = {
        cid: freq[cid] * area / mean_count[cid] if mean_count[cid] > 0 else math.nan
        for cid in freq
    }

    return EmpiricalSummary(
        sinr_ccdf=CcdfCurve(sinr_grid, sinr_vals, per_class_sinr, dict(freq)),
        rate_ccdf=CcdfCurve(rate_grid, rate_vals, per_class_rate, dict(freq)),
        association_freq=freq,
        load_histogram=load_hist,
        mean_cell_area=mean_cell_area,
        trial_count=trials,
        far_serving_trials=far,
        mean_ap_count=mean_count,
    )
