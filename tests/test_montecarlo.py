"""Simulator: deployments, RNG contracts, pruned-vs-exhaustive load counts."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from conftest import dual_rat_config, four_class_config, single_class_config, two_class_config
from hetnet_offload import (
    ClassId,
    NetworkConfig,
    SimSettings,
    make_class,
    run_batch,
    run_trial,
    sample_deployment,
)
from hetnet_offload import montecarlo
from hetnet_offload.montecarlo import (
    _ACCESS_CODE,
    _USER_KEY,
    _class_key,
    _class_rng,
    _load_state,
    _min_dist2,
    _octant_reach2,
    _seeded_pcg64,
    _stream_states,
    _tagged_user_count,
    _user_rng,
    _users_near,
)
from load_oracle import tagged_user_count_reference

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
    ],
    ids=["dual-rat", "four-class", "two-class-biased"],
)


@LOAD_CASES
def test_pruned_count_equals_exhaustive_count(config, n_trials):
    """The octant-pruned tagged-load counter is exact, not approximate."""
    settings = SimSettings(window_km=8.0, trials=1, seed=11)
    for trial in range(n_trials):
        points, _, serving, sidx, users = _trial_pieces(config, settings, trial)
        own_d2, reach2 = _octant_reach2(points[serving.id], sidx, serving.density)
        fast = _tagged_user_count(config, points, serving, sidx, users, own_d2, reach2)
        slow = tagged_user_count_reference(config, points, serving, sidx, users)
        assert fast == slow, f"trial {trial}: {fast} != {slow}"


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
    config = single_class_config(density=0.0)
    out = run_trial(config, SimSettings(trials=1, seed=1), 3)
    assert out.serving is None and out.load == 1 and out.rate_bps == 0.0


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
    open_only = config.without_closed()
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
    ],
)
def test_run_batch_rejects_invalid_settings(changes, message):
    with pytest.raises(ValueError, match=message):
        run_batch(dual_rat_config(), SimSettings(trials=1, **changes))


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
    """Block-derived (state, inc) and first draws equal PCG64(SeedSequence(...))."""
    trials = range(start, start + n)
    states = _stream_states(seed, trials, STREAM_KEYS)
    bg = np.random.PCG64(0)
    for key, key_states in zip(STREAM_KEYS, states):
        assert len(key_states) == n
        for t, state in zip(trials, key_states):
            want = _seeded_pcg64(seed, (t, *key))
            assert state == (want.state["state"]["state"], want.state["state"]["inc"])
            _load_state(bg, state)
            assert np.array_equal(np.random.Generator(bg).random(3), np.random.Generator(want).random(3))


def test_corrupted_stream_state_fails_the_spot_check(monkeypatch):
    derive = montecarlo._stream_states

    def corrupted(seed, trials, keys):
        return [[(state ^ 1, inc) for state, inc in per_key] for per_key in derive(seed, trials, keys)]

    monkeypatch.setattr(montecarlo, "_stream_states", corrupted)
    with pytest.raises(RuntimeError, match="SeedSequence"):
        run_trial(dual_rat_config(), SimSettings(trials=1, seed=3), 5)
    with pytest.raises(RuntimeError, match="SeedSequence"):
        run_batch(dual_rat_config(), SimSettings(window_km=8.0, trials=20, seed=3))


def _broadcast_min_dist2(points, sites):
    d2 = (points[:, 0, None] - sites[None, :, 0]) ** 2 + (points[:, 1, None] - sites[None, :, 1]) ** 2
    return d2.min(axis=1, initial=np.inf)


@pytest.mark.parametrize("n_points", [0, 1, 37, 512, 1300])
@pytest.mark.parametrize("n_sites", [0, 1, 42])
def test_min_dist2_equals_broadcast_formula(n_points, n_sites):
    """The in-place kernel is the broadcast formula bit for bit (inf with no site)."""
    rng = np.random.default_rng(n_points * 100 + n_sites)
    points = rng.uniform(-3.0, 3.0, size=(n_points, 2))
    sites = rng.uniform(-3.0, 3.0, size=(n_sites, 2))
    got = _min_dist2(points, sites)
    assert got.shape == (n_points,)
    assert np.array_equal(got, _broadcast_min_dist2(points, sites))
    if n_sites == 0:
        assert np.all(np.isinf(got))


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
    with np.errstate(divide="ignore"):
        fast = _tagged_user_count(config, points, serving, sidx, users, own_d2, reach2)
    assert fast == tagged_user_count_reference(config, points, serving, sidx, users)
