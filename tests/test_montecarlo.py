"""Simulator: deployments, RNG contracts, pruned-vs-exhaustive load counts."""

import functools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from conftest import dual_rat_config, four_class_config, run_trial, single_class_config, two_class_config
from hetnet_offload import (
    ClassId,
    NetworkConfig,
    SimSettings,
    make_class,
    rate_ccdf,
    run_batch,
)
from hetnet_offload import montecarlo
from hetnet_offload.montecarlo import (
    _ACCESS_CODE,
    _DIST_BLOCK,
    _NEAR_SITES,
    _USER_KEY,
    _ccdf,
    _class_key,
    _class_rng,
    _min_dist2,
    _octant_reach2,
    _seed_words_type,
    _run_block,
    _seeded_pcg64,
    _stream_states,
    _tagged_user_count,
    _uniform,
    _user_rng,
    _users_near,
    sample_deployment,
)
from load_oracle import tagged_user_count_reference

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
from record import INTEGER_ARRAYS, MC_BLOCKS, float_environment, mc_block_digests, mc_scenarios  # noqa: E402

MACRO = ClassId(1, 1)
SMALL = ClassId(2, 3)


def test_ppp_deployment_statistics():
    """Counts fluctuate around lam * w^2 and stay inside the window."""
    config = dual_rat_config()
    cls = config.class_for(SMALL)
    settings = SimSettings(window_km=10.0, trials=1, seed=3)
    counts = []
    for t in range(200):
        pts = sample_deployment(cls, settings, _class_rng(3, t, cls.id))
        counts.append(pts.shape[0])
        assert np.all(np.abs(pts) <= 5.0)
    mean = np.mean(counts)
    want = cls.density * 100.0
    assert abs(mean - want) < 4.0 * math.sqrt(want / 200.0)


def test_grid_deployment_is_a_lattice():
    """Unit density on a 20 km window: exactly 400 sites, unit spacing."""
    config = single_class_config(density=1.0)
    cls = config.class_for(MACRO)
    settings = SimSettings(window_km=20.0, trials=1, seed=0, deployment="grid")
    pts = sample_deployment(cls, settings, _class_rng(0, 0, cls.id))
    assert pts.shape == (400, 2)
    xs = np.unique(np.round(pts[:, 0], 9))
    assert xs.size == 20
    assert np.allclose(np.diff(xs), 1.0)
    # a fresh trial draws a different common offset
    pts2 = sample_deployment(cls, settings, _class_rng(0, 1, cls.id))
    assert not np.allclose(pts[:5], pts2[:5])


def test_zero_density_class_is_empty():
    config = dual_rat_config()
    cls = config.class_for(MACRO)
    from dataclasses import replace

    empty = replace(cls, density=0.0)
    pts = sample_deployment(empty, SimSettings(trials=1), _class_rng(0, 0, cls.id))
    assert pts.shape == (0, 2)


def test_unknown_deployment_mode_rejected():
    config = dual_rat_config()
    with pytest.raises(ValueError, match="deployment"):
        run_batch(config, SimSettings(trials=1, deployment="hex"))
    # one mode for every class: a per-class mapping is not a mode
    with pytest.raises(ValueError, match="deployment"):
        run_batch(config, SimSettings(trials=1, deployment={MACRO: "grid"}))


def _trial_pieces(config, settings, trial):
    """Re-derive one trial by contract, drawing everything eagerly: each
    class's points then its fading, the serving AP, and a user PPP over the
    whole window from the trial's user stream."""
    points, gains = {}, {}
    for cls in config.present_classes():
        rng = _class_rng(settings.seed, trial, cls.id)
        points[cls.id] = sample_deployment(cls, settings, rng)
        gains[cls.id] = rng.exponential(1.0, points[cls.id].shape[0])
    best = None
    for cls in config.open_classes():
        pts = points[cls.id]
        if pts.shape[0] == 0:
            continue
        d2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        i = int(np.argmin(d2))
        d = math.sqrt(d2[i])
        w = cls.weight * d ** (-cls.exponent) if d > 0 else math.inf
        if best is None or w > best[2]:
            best = (cls, i, w)
    urng = _user_rng(settings.seed, trial)
    w_km = settings.window_km
    n_users = urng.poisson(config.user_density * w_km * w_km)
    users = urng.uniform(-w_km / 2.0, w_km / 2.0, size=(n_users, 2))
    return points, gains, best[0], best[1], users


LOAD_CASES = pytest.mark.parametrize(
    "config,n_trials",
    [
        (dual_rat_config(), 120),
        (four_class_config(b23_db=6.0), 70),
        (two_class_config(bias_db=10.0), 40),
        (two_class_config(), 30),
    ],
    ids=["dual-rat", "four-class", "two-class-biased", "two-class"],
)


def _staged_spy(monkeypatch):
    """Wrap `montecarlo._strip` and return the list of its calls, each
    (class id, sites); the serving-class check is two calls in a row, the
    first with the tagged AP's nearest sites."""
    calls = []
    strip = montecarlo._strip

    def spy(cls, serving, sites, *rest):
        calls.append((cls.id, sites))
        return strip(cls, serving, sites, *rest)

    monkeypatch.setattr(montecarlo, "_strip", spy)
    return calls


def _was_staged(calls, serving, own, sidx) -> bool:
    """Whether the serving-class check split its sites: a first stage of
    exactly the _NEAR_SITES sites nearest the tagged AP, then a second."""
    if len(calls) < 2 or calls[0][0] != serving.id or calls[1][0] != serving.id:
        return False
    d2 = ((own - own[sidx]) ** 2).sum(axis=1)
    d2[sidx] = np.inf
    nearest = own[np.argsort(d2)[:_NEAR_SITES]]
    first = calls[0][1]
    return first.shape[0] == _NEAR_SITES and set(map(tuple, first)) == set(map(tuple, nearest))


@LOAD_CASES
def test_pruned_count_equals_exhaustive_count(config, n_trials, monkeypatch):
    """The octant-pruned tagged-load counter is exact, not approximate."""
    settings = SimSettings(window_km=8.0, trials=1, seed=11)
    calls = _staged_spy(monkeypatch)
    staged_macro = 0
    for trial in range(n_trials):
        points, _, serving, sidx, users = _trial_pieces(config, settings, trial)
        own_d2, reach2 = _octant_reach2(points[serving.id], sidx, serving.density)
        calls.clear()
        fast = _tagged_user_count(config, points, serving, sidx, users, own_d2, reach2, _scratch())
        slow = tagged_user_count_reference(config, points, serving, sidx, users)
        assert fast == slow, f"trial {trial}: {fast} != {slow}"
        staged = _was_staged(calls, serving, points[serving.id], sidx)
        staged_macro += staged and serving.id == MACRO
    if config == two_class_config():
        # unbiased at 200 users/km^2 the macro serves most trials, and each
        # of its load counts takes the nearest-sites stage
        assert staged_macro >= 20


def _lattice(nx: int, ny: int, step_x: float, step_y: float, offset=(0.0, 0.0)) -> np.ndarray:
    """Sites on a rectangular lattice; the one at the offset comes first."""
    i, j = np.meshgrid(np.arange(-nx, nx + 1), np.arange(-ny, ny + 1), indexing="ij")
    pts = np.column_stack((i.ravel() * step_x + offset[0], j.ravel() * step_y + offset[1]))
    first = np.flatnonzero((i.ravel() == 0) & (j.ravel() == 0))[0]
    return np.concatenate((pts[first : first + 1], np.delete(pts, first, axis=0)))


# users on a 1/16 km grid: every distance below is exact in binary, so users
# on a cell boundary tie exactly
_GRID_USERS = _lattice(48, 48, 1.0 / 16.0, 1.0 / 16.0)


@pytest.mark.parametrize("sidx", [0, 70, 152])
def test_ties_go_to_the_tagged_ap_within_its_class(sidx, monkeypatch):
    """A rectangular lattice, 1 km by 0.5 km: the tagged cell is the closed
    rectangle [-0.5, 0.5] x [-0.25, 0.25], every boundary user a tie the
    tagged AP wins, through the staged check, whether its tied neighbours
    come before it in the site order (sidx 70, 152 is the last) or not."""
    config = two_class_config(density2=0.0)
    macro = config.class_for(MACRO)
    points = {MACRO: np.roll(_lattice(4, 8, 1.0, 0.5), sidx, axis=0), SMALL: np.empty((0, 2))}
    assert np.array_equal(points[MACRO][sidx], [0.0, 0.0])
    calls = _staged_spy(monkeypatch)
    own_d2, reach2 = _octant_reach2(points[MACRO], sidx, 2.0)
    with np.errstate(divide="ignore"):  # some users sit on a site
        count = _tagged_user_count(config, points, macro, sidx, _GRID_USERS, own_d2, reach2, _scratch())
    assert _was_staged(calls, macro, points[MACRO], sidx)
    assert count == 17 * 9
    assert count == tagged_user_count_reference(config, points, macro, sidx, _GRID_USERS)


@pytest.mark.parametrize(
    "serving_id, want", [(MACRO, 2 * 8 * 8 + 2 * 8 + 1), (SMALL, 2 * 7 * 7 + 2 * 7 + 1)]
)
def test_ties_across_classes_go_to_the_smaller_class_id(serving_id, want):
    """Two equal-weight classes on interleaved unit lattices: each tagged cell
    is the diamond |x| + |y| <= 1/2 around its AP.  Its boundary users tie
    with the other class, and the smaller ClassId (the macro) wins them."""
    config = NetworkConfig(
        classes=(
            make_class(1, 1, density=1.0, power_dbm=30.0, exponent=4.0),
            make_class(2, 3, density=1.0, power_dbm=30.0, exponent=4.0),
        ),
        user_density=1.0,
    )
    points = {MACRO: _lattice(4, 4, 1.0, 1.0), SMALL: _lattice(4, 4, 1.0, 1.0, (0.5, 0.5))}
    serving = config.class_for(serving_id)
    users = _GRID_USERS + points[serving_id][0]
    own_d2, reach2 = _octant_reach2(points[serving_id], 0, 1.0)
    with np.errstate(divide="ignore"):  # some users sit on a site
        count = _tagged_user_count(config, points, serving, 0, users, own_d2, reach2, _scratch())
    assert count == want
    assert count == tagged_user_count_reference(config, points, serving, 0, users)


def test_octant_reach_is_the_sector_minimum():
    """Per-sector nearest-neighbour distances, whichever AP set is searched first."""
    rng = np.random.default_rng(8)
    for trial in range(60):
        own = rng.uniform(-4.0, 4.0, size=(int(rng.integers(1, 300)), 2))
        idx = int(rng.integers(own.shape[0]))
        want = np.full(8, np.inf)
        for k, (x, y) in enumerate(own):
            if k != idx:
                dx, dy = x - own[idx, 0], y - own[idx, 1]
                sector = (math.floor(math.atan2(dy, dx) / (math.pi / 4.0)) + 4) % 8
                want[sector] = min(want[sector], dx * dx + dy * dy)
        # density 1e6: no neighbour is near, every sector falls back to all APs;
        # density 1e-6: every AP is near
        for density in (own.shape[0] / 64.0, 1e6, 1e-6):
            own_d2, reach2 = _octant_reach2(own, idx, density)
            assert np.array_equal(reach2, want / 2.0), f"trial {trial}, density {density}"
            assert own_d2[idx] == np.inf


@LOAD_CASES
def test_restricted_user_draw_loses_no_user(config, n_trials):
    """No user outside the reach square R is ever on the tagged AP."""
    settings = SimSettings(window_km=8.0, trials=1, seed=11)
    for trial in range(n_trials):
        points, _, serving, sidx, users = _trial_pieces(config, settings, trial)
        _, reach2 = _octant_reach2(points[serving.id], sidx, serving.density)
        reach = math.sqrt(reach2.max())
        inside = np.all(np.abs(users - points[serving.id][sidx]) <= reach, axis=1)
        full = tagged_user_count_reference(config, points, serving, sidx, users)
        in_r = tagged_user_count_reference(config, points, serving, sidx, users[inside])
        assert full == in_r, f"trial {trial}: {full} != {in_r}"


def test_users_are_drawn_in_the_reach_square():
    """The user draw fills R = [server +- reach]^2 clipped to the window."""
    config = two_class_config(user_density=50.0)
    settings = SimSettings(window_km=8.0, trials=1, seed=1)
    server = np.array([3.5, -1.0])
    users = _users_near(config, settings, _user_rng(1, 0), server, 1.0)
    assert np.all(users[:, 0] >= 2.5) and np.all(users[:, 0] <= 4.0)
    assert np.all(users[:, 1] >= -2.0) and np.all(users[:, 1] <= 0.0)
    counts = [
        _users_near(config, settings, _user_rng(1, t), server, 1.0).shape[0] for t in range(300)
    ]
    want = 50.0 * 1.5 * 2.0
    assert abs(np.mean(counts) - want) < 4.0 * math.sqrt(want / 300.0)
    whole = _users_near(config, settings, _user_rng(1, 0), server, math.inf)
    assert np.all(np.abs(whole) <= 4.0) and whole.shape[0] > 2000


def _eager_sinr(config, settings, trial):
    """(serving class, distance, SINR) from the eager re-derivation."""
    points, gains, serving, sidx, _ = _trial_pieces(config, settings, trial)
    x, y = points[serving.id][sidx]
    dist = math.sqrt(x**2 + y**2)
    signal = serving.power * gains[serving.id][sidx] * dist ** (-serving.exponent)
    interference = 0.0
    for cls in config.classes_of_rat(serving.id.rat):
        pts = points[cls.id]
        if pts.shape[0] == 0:
            continue
        contrib = cls.power * gains[cls.id] * (pts[:, 0] ** 2 + pts[:, 1] ** 2) ** (-cls.exponent / 2.0)
        if cls.id == serving.id:
            contrib[sidx] = 0.0
        interference += float(contrib.sum())
    return serving.id, dist, signal / (interference + config.noise_for(serving.id.rat))


@pytest.mark.parametrize(
    "config,deployment",
    [(dual_rat_config(), "ppp"), (dual_rat_config(), "grid"), (four_class_config(), "ppp")],
    ids=["dual-rat", "dual-rat-grid", "four-class"],
)
def test_lazy_draws_match_eager_derivation(config, deployment):
    """Fading and closed-AP positions drawn on demand are the eager draws, bit for bit."""
    settings = SimSettings(window_km=10.0, trials=1, seed=6, deployment=deployment)
    served_rats = set()
    for trial in range(40):
        out = run_trial(config, settings, trial)
        serving, dist, sinr = _eager_sinr(config, settings, trial)
        assert out.serving == serving
        assert out.distance_km == dist
        assert out.sinr_linear == sinr
        served_rats.add(serving.rat)
    assert served_rats == {1, 2}  # each RAT served, so both fading paths ran


def test_trial_outcome_is_internally_consistent():
    config = dual_rat_config()
    settings = SimSettings(window_km=12.0, trials=1, seed=2)
    open_ids = {c.id for c in config.open_classes()}
    for trial in range(25):
        out = run_trial(config, settings, trial)
        assert out.serving in open_ids
        assert out.load >= 1
        assert out.distance_km >= 0.0
        cls = config.class_for(out.serving)
        want_rate = cls.bandwidth / out.load * math.log2(1.0 + out.sinr_linear)
        assert out.rate_bps == pytest.approx(want_rate, rel=1e-12)


def test_trial_without_aps_has_no_server():
    """A class so sparse that the trial draws no AP of it: no server, the
    user alone on no AP, no rate."""
    config = single_class_config(density=1e-6)
    settings = SimSettings(trials=1, seed=1)
    assert _run_block(config, settings, 3, 4)[5].tolist() == [0]
    out = run_trial(config, settings, 3)
    assert out.serving is None and out.load == 1 and out.rate_bps == 0.0


@pytest.mark.parametrize("user_density", [0.0, 50.0])
def test_serving_ap_at_the_user_gives_infinite_sinr(user_density, monkeypatch):
    """An AP exactly at the user weighs inf in the serving choice, and its
    received power is inf too: SINR and rate are inf, not a ZeroDivisionError."""
    real = montecarlo.sample_deployment

    def first_ap_at_origin(cls, settings, rng):
        points = real(cls, settings, rng)
        points[:1] = 0.0
        return points

    monkeypatch.setattr(montecarlo, "sample_deployment", first_ap_at_origin)
    config = single_class_config(user_density=user_density)
    out = run_trial(config, SimSettings(window_km=4.0, trials=1, seed=3), 0)
    assert out.serving == config.open_classes()[0].id and out.distance_km == 0.0
    assert out.sinr_linear == math.inf and out.rate_bps == math.inf and out.load >= 1


def test_same_seed_reproduces_trials():
    config = dual_rat_config()
    settings = SimSettings(window_km=10.0, trials=1, seed=42)
    a = run_trial(config, settings, 7)
    b = run_trial(config, settings, 7)
    assert a == b
    c = run_trial(config, SimSettings(window_km=10.0, trials=1, seed=43), 7)
    assert a != c


def test_closed_removal_never_lowers_sinr():
    """Per-trial coupling: dropping closed interferers only removes power."""
    config = dual_rat_config()
    open_only = dual_rat_config(with_closed=False)
    settings = SimSettings(window_km=10.0, trials=1, seed=5)
    for trial in range(60):
        with_closed = run_trial(config, settings, trial)
        without = run_trial(open_only, settings, trial)
        assert without.serving == with_closed.serving
        assert without.distance_km == with_closed.distance_km
        assert without.load == with_closed.load
        assert without.sinr_linear >= with_closed.sinr_linear


def test_run_batch_summary_identities():
    config = dual_rat_config()
    settings = SimSettings(window_km=10.0, trials=400, seed=9)
    summary = run_batch(config, settings)
    assert summary.trial_count == 400
    assert summary.far_serving_trials == 0
    freq = summary.association_freq
    assert sum(freq.values()) == pytest.approx(1.0, abs=1e-12)
    # overall CCDF is the frequency-weighted per-class mix
    for curve in (summary.sinr_ccdf, summary.rate_ccdf):
        mix = sum(freq[cid] * curve.per_class[cid] for cid in curve.per_class)
        assert np.allclose(curve.values, mix, atol=1e-12)
        assert np.all(np.diff(curve.values) <= 1e-12)
        assert curve.values[0] <= 1.0 and curve.values[-1] >= 0.0
    # load histograms: one entry per served trial, none at load zero
    for cid, hist in summary.load_histogram.items():
        assert hist[0] == 0
        assert hist.sum() == round(freq[cid] * 400)
    for cid, count in summary.mean_ap_count.items():
        lam = config.class_for(cid).density
        assert count == pytest.approx(lam * 100.0, rel=0.1)
    for cid, area in summary.mean_cell_area.items():
        assert area > 0.0


def test_worker_count_does_not_change_results():
    """Block-deterministic streams: the pool is a pure throughput knob."""
    config = dual_rat_config(user_density=10.0)
    one = run_batch(config, SimSettings(window_km=8.0, trials=600, seed=4, parallel_workers=1))
    two = run_batch(config, SimSettings(window_km=8.0, trials=600, seed=4, parallel_workers=2))
    assert np.array_equal(one.sinr_ccdf.values, two.sinr_ccdf.values)
    assert np.array_equal(one.rate_ccdf.values, two.rate_ccdf.values)
    assert one.association_freq == two.association_freq
    for cid in one.load_histogram:
        assert np.array_equal(one.load_histogram[cid], two.load_histogram[cid])
    assert one.mean_ap_count == two.mean_ap_count


def test_run_batch_rejects_empty_runs():
    with pytest.raises(ValueError, match="trial"):
        run_batch(dual_rat_config(), SimSettings(trials=0))


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"window_km": 0.0}, "window_km"),
        ({"window_km": -4.0}, "window_km"),
        ({"window_km": math.nan}, "window_km"),
        ({"window_km": math.inf}, "window_km"),
        ({"parallel_workers": 0}, "worker"),
        ({"seed": -1}, "seed"),
        ({"seed": 2.5}, "seed"),
        ({"seed": "7"}, "seed"),
        ({"trials": 2.5}, "trials must be an integer, got 2.5"),
        ({"trials": True}, "trials must be an integer, got True"),
        ({"parallel_workers": 1.5}, "parallel_workers must be an integer, got 1.5"),
        ({"parallel_workers": True}, "parallel_workers must be an integer, got True"),
        ({"window_km": "5"}, "window_km must be a number, got '5'"),
    ],
)
def test_run_batch_rejects_invalid_settings(changes, message):
    """SimSettings itself refuses these, so run_batch never sees them."""
    with pytest.raises(ValueError, match=message):
        run_batch(dual_rat_config(), SimSettings(**{"trials": 1, **changes}))


@pytest.mark.parametrize("grid", [[1e7, 1e5, math.nan, -1.0], [1e5, 1e5], [-1.0, 1e5], [1e5, math.nan]])
def test_run_batch_rejects_rate_grid_as_rate_ccdf_does(grid):
    message = "rate thresholds must be non-negative and strictly increasing"
    with pytest.raises(ValueError, match=message):
        rate_ccdf(dual_rat_config(), grid)
    with pytest.raises(ValueError, match=message):
        run_batch(dual_rat_config(), SimSettings(window_km=8.0, trials=50, seed=1), rate_grid=grid)


def test_run_trial_rejects_negative_seed_and_trial():
    with pytest.raises(ValueError, match="seed"):
        run_trial(dual_rat_config(), SimSettings(trials=1, seed=-3), 0)
    with pytest.raises(ValueError, match="trial"):
        run_trial(dual_rat_config(), SimSettings(trials=1), -1)


# one key of every access code, and the user stream
STREAM_KEYS = [_class_key(ClassId(2, 3, access)) for access in _ACCESS_CODE] + [_USER_KEY]


@hypothesis_settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.one_of(
        st.sampled_from([0, 2**32 - 1, 2**32]),
        st.integers(0, 2**32),
        st.integers(2**64 + 1, 2**65),
        st.integers(2**128 + 1, 2**130),
    ),
    start=st.one_of(st.integers(0, 10**6), st.integers(2**32 - 8, 2**32 + 4)),
    n=st.integers(1, 12),
)
@example(seed=2**32, start=2**32 - 3, n=6)
def test_block_stream_states_match_numpy(seed, start, n):
    """Block-derived seed words give PCG64(SeedSequence(...))'s state and first draws."""
    trials = range(start, start + n)
    states = _stream_states(seed, trials, STREAM_KEYS)
    for key, key_states in zip(STREAM_KEYS, states):
        assert key_states.shape == (n, 4) and key_states.dtype == np.uint64
        for t, words in zip(trials, key_states):
            want = _seeded_pcg64(seed, (t, *key))
            assert np.array_equal(words, want.seed_seq.generate_state(4, np.uint64))
            got = np.random.PCG64(_seed_words_type()(words))
            assert got.state == want.state
            assert np.array_equal(np.random.Generator(got).random(3), np.random.Generator(want).random(3))


def test_seed_words_serve_only_pcg64s_request():
    words = _stream_states(5, range(2), [_USER_KEY])[0][1]
    assert _seed_words_type()(words).generate_state(4, np.dtype(np.uint64)) is words
    with pytest.raises(ValueError, match="4 uint64"):
        _seed_words_type()(words).generate_state(4, np.uint32)
    with pytest.raises(ValueError, match="4 uint64"):
        _seed_words_type()(words).generate_state(2, np.uint64)


def test_corrupted_stream_state_fails_the_spot_check(monkeypatch):
    derive = montecarlo._stream_states

    def corrupted(seed, trials, keys):
        return [words ^ np.uint64(1) for words in derive(seed, trials, keys)]

    monkeypatch.setattr(montecarlo, "_stream_states", corrupted)
    with pytest.raises(RuntimeError, match="SeedSequence"):
        run_trial(dual_rat_config(), SimSettings(trials=1, seed=3), 5)
    with pytest.raises(RuntimeError, match="SeedSequence"):
        run_batch(dual_rat_config(), SimSettings(window_km=8.0, trials=20, seed=3))


def test_block_without_aps_has_no_server():
    """A block whose trials draw no AP runs every trial, each with no
    server, as a block of one does."""
    serving, dist, sinr, load, rate, counts = _run_block(single_class_config(density=1e-6), SimSettings(trials=1), 3, 6)
    assert counts.tolist() == [0]
    assert serving.tolist() == [-1, -1, -1]
    assert np.isnan(dist).all() and sinr.tolist() == [0.0] * 3
    assert load.tolist() == [1, 1, 1] and rate.tolist() == [0.0] * 3


@pytest.mark.parametrize("case", range(40))
def test_ccdf_equals_broadcast_count(case):
    """The bisection count is the (values x grid) comparison's mean bit for
    bit, with ties on grid points, zeros and inf among the values."""
    rng = np.random.default_rng(case)
    pool = np.array([0.0, 0.5, 1.0, 2.0, 2.0, np.inf])
    values = rng.choice(pool, 30) if case % 2 else np.round(rng.exponential(1.0, 50), 1)
    grid = np.unique(np.r_[0.0, np.round(rng.exponential(1.0, 12), 1), 2.0, np.inf])
    got = _ccdf(values, grid)
    assert np.array_equal(got, (values[:, None] > grid[None, :]).mean(axis=0))
    assert np.array_equal(_ccdf(values[:0], grid), np.zeros_like(grid))


def _scratch():
    """A `_min_dist2` scratch buffer full of stale values (nan)."""
    return np.full((2, _DIST_BLOCK), np.nan)


def _broadcast_min_dist2(points, sites):
    d2 = (points[:, 0, None] - sites[None, :, 0]) ** 2 + (points[:, 1, None] - sites[None, :, 1]) ** 2
    return d2.min(axis=1, initial=np.inf)


@pytest.mark.parametrize("n_points", [0, 1, 37, 512, 1300])
@pytest.mark.parametrize("n_sites", [0, 1, 42])
def test_min_dist2_equals_broadcast_formula(n_points, n_sites):
    """The (sites x points) kernel is the broadcast formula bit for bit (inf
    with no site), whatever its scratch buffer held before."""
    rng = np.random.default_rng(n_points * 100 + n_sites)
    points = rng.uniform(-3.0, 3.0, size=(n_points, 2))
    sites = rng.uniform(-3.0, 3.0, size=(n_sites, 2))
    got = _min_dist2(points, sites, _scratch())
    assert got.shape == (n_points,)
    assert np.array_equal(got, _broadcast_min_dist2(points, sites))
    if n_sites == 0:
        assert np.all(np.isinf(got))


@pytest.mark.parametrize("n_sites", [1, 12, 42, _DIST_BLOCK + 1])
def test_min_dist2_is_exact_across_block_boundaries(n_sites):
    """Point counts either side of one and two blocks of the kernel, every
    call reusing one scratch buffer (too short for a column of
    _DIST_BLOCK + 1 sites, which gets a fresh one) and leaving it
    untouched beyond its blocks."""
    step = max(1, _DIST_BLOCK // n_sites)
    rng = np.random.default_rng(n_sites)
    sites = rng.uniform(-3.0, 3.0, size=(n_sites, 2))
    scratch = _scratch()
    for n_points in (step - 1, step, step + 1, 2 * step + 1):
        points = rng.uniform(-3.0, 3.0, size=(n_points, 2))
        got = _min_dist2(points, sites, scratch)
        assert np.array_equal(got, _broadcast_min_dist2(points, sites)), n_points
    assert np.isnan(scratch[:, n_sites * step:]).all()


_LOAD_IDS = [ClassId(1, 1), ClassId(1, 2), ClassId(2, 2), ClassId(2, 3)]


@hypothesis_settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n_classes=st.integers(2, 4),
    params=st.lists(
        st.tuples(
            st.floats(0.5, 8.0),  # density per km^2
            st.floats(20.0, 50.0),  # power, dBm
            st.floats(2.5, 5.0),  # exponent
            st.floats(-10.0, 10.0),  # bias, dB
        ),
        min_size=4,
        max_size=4,
    ),
    user_density=st.floats(20.0, 500.0),
    draw_seed=st.integers(0, 2**32 - 1),
)
# dense enough that the serving-class check splits its sites
@example(n_classes=2, params=[(8.0, 30.0, 4.0, 0.0)] * 4, user_density=500.0, draw_seed=5)
def test_pruned_count_equals_oracle_on_random_configs(n_classes, params, user_density, draw_seed):
    """Over random valid configs, the pruned load count is the unpruned oracle's."""
    classes = tuple(
        make_class(cid.rat, cid.tier, density=lam, power_dbm=p, exponent=a, bias_db=b)
        for cid, (lam, p, a, b) in zip(_LOAD_IDS[:n_classes], params)
    )
    config = NetworkConfig(classes=classes, user_density=user_density)
    rng = np.random.default_rng(draw_seed)
    half = 2.0  # a 4 km window keeps the unpruned oracle small
    points, best = {}, None
    for cls in config.open_classes():
        pts = rng.uniform(-half, half, size=(rng.poisson(cls.density * 16.0), 2))
        points[cls.id] = pts
        if pts.shape[0]:
            i = int(np.argmin(pts[:, 0] ** 2 + pts[:, 1] ** 2))
            w = cls.weight * math.hypot(*pts[i]) ** (-cls.exponent)
            if best is None or w > best[2]:
                best = (cls, i, w)
    if best is None:
        return
    serving, sidx, _ = best
    users = rng.uniform(-half, half, size=(rng.poisson(user_density * 16.0), 2))
    own_d2, reach2 = _octant_reach2(points[serving.id], sidx, serving.density)
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _staged_spy(monkeypatch)
        with np.errstate(divide="ignore"):
            fast = _tagged_user_count(config, points, serving, sidx, users, own_d2, reach2, _scratch())
    if _was_staged(calls, serving, points[serving.id], sidx):
        event("staged serving-class check")
    assert fast == tagged_user_count_reference(config, points, serving, sidx, users)


@pytest.mark.parametrize("seed", [3, 2**33 + 5])
def test_uniform_helper_equals_numpy_uniform(seed):
    """_uniform draws rng.uniform's exact bits, for scalar and for array bounds."""
    cases = [
        (-2.5, 2.5, (4000, 2)),  # the AP window
        (0.0, 0.37, 2),  # a grid offset
        (np.array([-1.3, 0.2]), np.array([0.4, 2.5]), (2500, 2)),  # the users' reach square
        (np.array([1e-9, -1e9]), np.array([3e-9, 1e9]), (7, 2)),
        (0.0, 1.0, (0, 2)),
    ]
    for lo, hi, size in cases:
        got = _uniform(np.random.default_rng(seed), lo, hi, size)
        want = np.random.default_rng(seed).uniform(lo, hi, size=size)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


MC_RECORDED = json.loads(MC_BLOCKS.read_text())


def _block_id(entry: dict) -> str:
    return f"{entry['scenario']}-seed{entry['seed']}"


@functools.cache
def _block_digests(scenario: str, seed: int) -> dict[str, str]:
    return mc_block_digests(mc_scenarios()[scenario], seed)


def test_block_recording_covers_four_scenarios_and_two_seeds():
    assert len(MC_RECORDED["blocks"]) == 8
    assert {e["scenario"] for e in MC_RECORDED["blocks"]} == set(mc_scenarios())


@pytest.mark.parametrize("want", MC_RECORDED["blocks"], ids=_block_id)
def test_run_block_integer_outputs_match_recorded_digests(want):
    """Serving rank, load and AP counts, bit for bit on every host, as
    recorded by tests/golden/record.py."""
    got = _block_digests(want["scenario"], want["seed"])
    assert {k: got[k] for k in INTEGER_ARRAYS} == {k: want["digests"][k] for k in INTEGER_ARRAYS}


@pytest.mark.parametrize("want", MC_RECORDED["blocks"], ids=_block_id)
def test_run_block_float_outputs_match_recorded_digests(want):
    """Distance, SINR and rate, bit for bit, where numpy, the C library and
    numpy's SIMD targets are the recording's; their last bits may differ
    elsewhere."""
    recorded, here = MC_RECORDED["float_environment"], float_environment()
    differs = [f"{k} {recorded[k]} recorded, {here[k]} here" for k in recorded if recorded[k] != here[k]]
    if differs:
        pytest.skip("float digests need the recording's environment: " + "; ".join(differs))
    assert _block_digests(want["scenario"], want["seed"]) == want["digests"]
