import math

import numpy as np
import pytest

from spinor_efimov import spin
from spinor_efimov.spin import (
    ScatteringMatrix,
    SpinAlgebraError,
    as_length,
    channels_from_angle,
    eigenchannels,
    exchange_overlap,
    one_body_rotation,
    pair_basis_rotation,
    toy_closed_form,
)

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# independent oracle: exchange overlaps by naive enumeration over the eight
# product states, written with plain dicts so it shares no code with the
# implementation's einsum route
# ---------------------------------------------------------------------------

def _pair_state_dict(vec):
    """Map a pair-basis coefficient vector to {(m1, m2): amplitude}."""
    amp = {}
    amp[(1, 1)] = vec[0]
    amp[(1, 2)] = vec[1] / SQRT2
    amp[(2, 1)] = vec[1] / SQRT2
    amp[(2, 2)] = vec[2]
    return amp

def _three_body_dict(pair_amp, spectator, labeling):
    """Amplitudes over |m1 m2 m3> for a pair state + spectator level under
    one of the labelings '12', '23', '31'."""
    state = {}
    for (p, q), a in pair_amp.items():
        if a == 0.0:
            continue
        if labeling == "12":
            key = (p, q, spectator)
        elif labeling == "23":
            key = (spectator, p, q)
        else:  # '31': pair holds atoms 3 and 1
            key = (q, spectator, p)
        state[key] = state.get(key, 0.0) + a
    return state

def _dot(u, v):
    return sum(a * v.get(k, 0.0) for k, a in u.items())

def brute_force_overlap(channels):
    o = np.zeros((6, 6))
    for i in range(3):
        amp_i = _pair_state_dict(channels.vectors[:, i])
        for m in (1, 2):
            bra = _three_body_dict(amp_i, m, "12")
            for j in range(3):
                amp_j = _pair_state_dict(channels.vectors[:, j])
                for mp in (1, 2):
                    val = _dot(bra, _three_body_dict(amp_j, mp, "23"))
                    val += _dot(bra, _three_body_dict(amp_j, mp, "31"))
                    o[2 * i + (m - 1), 2 * j + (mp - 1)] = val
    return o


# ---------------------------------------------------------------------------
# closed form and eigensolver
# ---------------------------------------------------------------------------

def test_toy_degenerate_symmetric_case():
    cs = toy_closed_form(3.0, 3.0, 0.0, 5.0)
    assert cs.mixing_angle == 0.0
    assert [l.value for l in cs.lengths] == [3.0, 3.0, 5.0]
    np.testing.assert_allclose(cs.vectors, np.diag([1.0, -1.0, 1.0]))


def test_toy_pure_coupling_case():
    g = 0.7
    cs = toy_closed_form(0.0, 0.0, g, 0.0)
    assert cs.mixing_angle == pytest.approx(math.pi / 4, abs=1e-15)
    # plus branch pairs with the (cos, sin, 0) eigenvector
    assert cs.lengths[0].value == pytest.approx(+g)
    assert cs.lengths[1].value == pytest.approx(-g)
    assert cs.lengths[2].kind == "closed"


def test_toy_eigenpairs_are_actual_eigenpairs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a11, a22, a12, a33 = rng.uniform(-3, 3, size=4)
        cs = toy_closed_form(a11, a22, a12, a33)
        a = np.array([[a11, a12, 0.0], [a12, a22, 0.0], [0.0, 0.0, a33]])
        for k in range(3):
            lam = cs.lengths[k].value if cs.lengths[k].kind == "finite" else 0.0
            resid = a @ cs.vectors[:, k] - lam * cs.vectors[:, k]
            assert np.max(np.abs(resid)) < 1e-12 * max(1.0, np.abs(a).max())


def test_closed_form_matches_jacobi_on_random_toys():
    rng = np.random.default_rng(20140424)
    for _ in range(1000):
        a11, a22, a12, a33 = rng.uniform(-5, 5, size=4)
        closed = toy_closed_form(a11, a22, a12, a33)
        numeric = eigenchannels(
            ScatteringMatrix.from_entries(a11, a12, 0.0, a22, 0.0, a33))
        for k in range(3):
            va = closed.lengths[k].value if closed.lengths[k].kind == "finite" else 0.0
            vb = numeric.lengths[k].value if numeric.lengths[k].kind == "finite" else 0.0
            assert abs(va - vb) <= 1e-10 * max(1.0, abs(va))
            overlap = abs(np.dot(closed.vectors[:, k], numeric.vectors[:, k]))
            assert overlap > 1.0 - 1e-10


def test_eigenchannels_identity_scaled():
    cs = eigenchannels(ScatteringMatrix.from_matrix(2.5 * np.eye(3)))
    assert all(l.value == 2.5 for l in cs.lengths)
    np.testing.assert_allclose(np.abs(cs.vectors), np.eye(3), atol=1e-15)


def test_eigenchannels_diagonalizes_dense_matrix():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = rng.uniform(-2, 2, size=(3, 3))
        sm = ScatteringMatrix.from_matrix(m + m.T)
        cs = eigenchannels(sm)
        vals = np.array([l.value if l.kind == "finite" else 0.0
                         for l in cs.lengths])
        d = cs.vectors.T @ sm.entries @ cs.vectors
        assert np.max(np.abs(d - np.diag(vals))) < 1e-12
        assert np.max(np.abs(cs.vectors.T @ cs.vectors - np.eye(3))) < 1e-12
        # general labeling: ascending magnitude
        assert abs(vals[0]) <= abs(vals[1]) + 1e-14
        assert abs(vals[1]) <= abs(vals[2]) + 1e-14


def test_scattering_matrix_validation():
    with pytest.raises(SpinAlgebraError):
        ScatteringMatrix(np.array([[0.0, 1.0, 0.0],
                                   [0.9, 0.0, 0.0],
                                   [0.0, 0.0, 0.0]]))
    with pytest.raises(SpinAlgebraError):
        ScatteringMatrix.from_entries(np.inf, 0, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# angle-form channels
# ---------------------------------------------------------------------------

def test_channels_from_angle_endpoints():
    cs0 = channels_from_angle(0.0, 1.0, "unitary", "closed")
    np.testing.assert_allclose(cs0.vectors[:, 1], [0.0, -1.0, 0.0], atol=1e-15)
    cs1 = channels_from_angle(math.pi / 2, 1.0, "unitary", "closed")
    np.testing.assert_allclose(cs1.vectors[:, 1], [1.0, 0.0, 0.0], atol=1e-15)
    assert cs1.lengths[1].kind == "unitary"
    assert cs1.lengths[2].kind == "closed"


@pytest.mark.parametrize("theta", np.linspace(0.0, math.pi / 2, 17))
def test_channels_from_angle_orthogonal(theta):
    cs = channels_from_angle(theta, 1.0, 2.0, 3.0)
    dev = np.max(np.abs(cs.vectors.T @ cs.vectors - np.eye(3)))
    assert dev < 1e-15


def test_channels_from_angle_rejects_out_of_range():
    with pytest.raises(SpinAlgebraError):
        channels_from_angle(2.0, 1.0, 1.0, 1.0)
    with pytest.raises(SpinAlgebraError):
        channels_from_angle(-0.1, 1.0, 1.0, 1.0)


def test_as_length_coercion():
    assert as_length("unitary").kind == "unitary"
    assert as_length("closed").kind == "closed"
    assert as_length(0.0).kind == "closed"
    assert as_length(math.inf).kind == "unitary"
    assert as_length(-4.5).value == -4.5


# ---------------------------------------------------------------------------
# exchange overlap
# ---------------------------------------------------------------------------

def test_overlap_beta_block_resonant_11():
    # theta = pi/2: resonant channel is |11>; hand expansion gives diag(2, 0)
    cs = channels_from_angle(math.pi / 2, "closed", "unitary", "closed")
    o = exchange_overlap(cs)
    np.testing.assert_allclose(o.matrix[2:4, 2:4], [[2.0, 0.0], [0.0, 0.0]],
                               atol=1e-14)


def test_overlap_beta_block_resonant_12S():
    # theta = 0: resonant channel is |12>_S; hand expansion gives diag(1, 1)
    cs = channels_from_angle(0.0, "closed", "unitary", "closed")
    o = exchange_overlap(cs)
    np.testing.assert_allclose(o.matrix[2:4, 2:4], np.eye(2), atol=1e-14)


def test_overlap_single_level_diagonal_is_two():
    # collapsing both levels: every relabeling overlaps at 1, so 2 total
    cs = channels_from_angle(math.pi / 2, "closed", "unitary", "closed")
    o = exchange_overlap(cs)
    assert o.matrix[2, 2] == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("theta", np.linspace(0.0, math.pi / 2, 9))
def test_overlap_beta_block_closed_form(theta):
    # hand-derived block for sigma_beta = u|11> + v|12>_S with u = sin(t),
    # v = -cos(t): [[2u^2 + v^2, sqrt(2) u v], [sqrt(2) u v, v^2]]
    u, v = math.sin(theta), -math.cos(theta)
    expected = np.array([[2 * u * u + v * v, SQRT2 * u * v],
                         [SQRT2 * u * v, v * v]])
    cs = channels_from_angle(theta, 1.0, 2.0, 3.0)
    np.testing.assert_allclose(exchange_overlap(cs).matrix[2:4, 2:4],
                               expected, atol=1e-14)


@pytest.mark.parametrize("seed", range(6))
def test_overlap_matches_brute_force(seed):
    rng = np.random.default_rng(100 + seed)
    m = rng.uniform(-2, 2, size=(3, 3))
    cs = eigenchannels(ScatteringMatrix.from_matrix(m + m.T))
    o = exchange_overlap(cs)
    np.testing.assert_allclose(o.matrix, brute_force_overlap(cs), atol=1e-13)
    assert np.max(np.abs(o.matrix - o.matrix.T)) < 1e-12
    assert np.max(np.abs(o.matrix)) <= 2.0 + 1e-12


def test_overlap_sign_flip_moves_rows_and_columns():
    cs = channels_from_angle(0.3, 1.0, 2.0, 3.0)
    o = exchange_overlap(cs).matrix
    o_flip = exchange_overlap(cs.flip_sign(1)).matrix
    signs = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
    np.testing.assert_allclose(o_flip, np.outer(signs, signs) * o, atol=1e-13)


def test_overlap_theta_reflection_swaps_blocks():
    # sigma_alpha(pi/2 - t) equals sigma_beta(t) up to a |12>_S sign, so the
    # alpha block at the reflected angle matches the beta block up to the
    # sign of its spectator off-diagonal
    for theta in (0.1, 0.4, 0.7):
        a = exchange_overlap(
            channels_from_angle(theta, 1, 2, 3)).matrix[2:4, 2:4]
        b = exchange_overlap(
            channels_from_angle(math.pi / 2 - theta, 1, 2, 3)).matrix[0:2, 0:2]
        np.testing.assert_allclose(np.abs(a), np.abs(b), atol=1e-13)
        np.testing.assert_allclose(np.diag(a), np.diag(b), atol=1e-13)


def test_overlap_continuity_in_theta():
    dt = 1e-4
    prev = exchange_overlap(channels_from_angle(0.0, 1, 2, 3)).matrix
    for theta in np.arange(dt, math.pi / 2, 200 * dt):
        cur = exchange_overlap(channels_from_angle(theta, 1, 2, 3)).matrix
        prev = cur
    # fine-step continuity near an arbitrary interior point
    o1 = exchange_overlap(channels_from_angle(0.7, 1, 2, 3)).matrix
    o2 = exchange_overlap(channels_from_angle(0.7 + dt, 1, 2, 3)).matrix
    assert np.max(np.abs(o2 - o1)) < 1e-3


# ---------------------------------------------------------------------------
# three-body basis and one-body rotations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta", np.linspace(0.0, math.pi / 2, 11))
def test_embedding_columns_orthonormal(theta):
    # the six (channel, spectator) states under the (1,2) pair labeling
    cs = channels_from_angle(theta, 1.0, 2.0, 3.0)
    f12 = spin._faddeev_vectors(spin._channel_pair_tensors(cs.vectors[None]))[0]
    assert f12.shape == (1, 6, 8)
    assert np.max(np.abs(f12[0] @ f12[0].T - np.eye(6))) < 1e-14


def test_one_body_rotation_identity():
    m = ScatteringMatrix.from_entries(1.0, 0.2, 0.3, -0.5, 0.1, 2.0)
    np.testing.assert_allclose(one_body_rotation(0.0, m).entries, m.entries,
                               atol=1e-15)


def test_one_body_rotation_quarter_turn_swaps_levels():
    m = ScatteringMatrix.from_entries(1.0, 0.2, 0.3, -0.5, 0.1, 2.0)
    r = one_body_rotation(math.pi / 2, m).entries
    assert r[0, 0] == pytest.approx(m.entries[2, 2], abs=1e-14)
    assert r[2, 2] == pytest.approx(m.entries[0, 0], abs=1e-14)
    assert r[1, 1] == pytest.approx(m.entries[1, 1], abs=1e-14)


def test_one_body_rotation_preserves_symmetry_and_spectrum():
    rng = np.random.default_rng(7)
    for _ in range(25):
        raw = rng.uniform(-2, 2, size=(3, 3))
        m = ScatteringMatrix.from_matrix(raw + raw.T)
        phi = rng.uniform(0, 2 * math.pi)
        r = one_body_rotation(phi, m)
        assert np.max(np.abs(r.entries - r.entries.T)) < 1e-14
        np.testing.assert_allclose(
            np.linalg.eigvalsh(r.entries), np.linalg.eigvalsh(m.entries),
            atol=1e-13)


def test_pair_rotation_is_orthogonal():
    for phi in np.linspace(0, 2 * math.pi, 13):
        w = pair_basis_rotation(phi)
        assert np.max(np.abs(w.T @ w - np.eye(3))) < 1e-14


# ---------------------------------------------------------------------------
# stacked builders: each row is the one-point call, bit for bit, and a bad
# row is refused with the one-point call's message
# ---------------------------------------------------------------------------

def _assert_same_set(stacked, one):
    assert stacked.vectors.tobytes() == one.vectors.tobytes()
    assert stacked.lengths == one.lengths
    assert stacked.mixing_angle == one.mixing_angle


def test_stacked_angle_grid_matches_one_point_calls():
    thetas = np.linspace(0.0, math.pi / 2, 201)
    assert thetas[0] == 0.0 and thetas[-1] == math.pi / 2
    lengths = ("closed", "unitary", "closed")
    sets = spin._angle_channels(thetas, *lengths)
    overlaps = spin._exchange_overlaps(sets)
    for theta, cs, ov in zip(thetas, sets, overlaps, strict=True):
        one = channels_from_angle(theta, *lengths)
        _assert_same_set(cs, one)
        assert ov.channels is cs
        assert ov.matrix.tobytes() == exchange_overlap(one).matrix.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_stacked_invariance_sets_match_one_point_calls(seed):
    """The reference, one-body-rotation and sign-flip channel sets of a
    50-trial invariance suite, drawn as the suite draws them."""
    from spinor_efimov.runner import _conditioned_matrix

    rng = np.random.default_rng(seed)
    trials = []
    for _ in range(50):
        m = _conditioned_matrix(rng)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        trials.append((m, one_body_rotation(phi, m), int(rng.integers(0, 3))))
    sets = spin._eigenchannels(np.array(
        [a.entries for m, r, _ in trials for a in (m, r)]))
    stacked, one = [], []
    for t, (m, rotated, flip) in enumerate(trials):
        base = eigenchannels(m)
        one += [base, eigenchannels(rotated), base.flip_sign(flip)]
        stacked += [sets[2 * t], sets[2 * t + 1], sets[2 * t].flip_sign(flip)]
    for cs, ref in zip(stacked, one, strict=True):
        _assert_same_set(cs, ref)
    for ov, ref in zip(spin._exchange_overlaps(stacked), one, strict=True):
        assert ov.matrix.tobytes() == exchange_overlap(ref).matrix.tobytes()


def _labelled_one_by_one(matrix):
    """Lengths and vectors of eigenchannels, labelled in a Python loop per
    matrix: the reference for the stacked labelling."""
    a = matrix.entries
    vals, vecs = np.linalg.eigh(a)
    if a[0, 2] == 0.0 and a[1, 2] == 0.0:
        gamma = int(np.argmax(np.abs(vecs[2, :])))
        mixed = sorted((k for k in range(3) if k != gamma),
                       key=lambda k: -vals[k])
        order = [mixed[0], mixed[1], gamma]
    else:
        order = sorted(range(3), key=lambda k: abs(vals[k]))
    columns = []
    for k in order:
        vec = vecs[:, k]
        columns.append(-vec if vec[int(np.argmax(np.abs(vec)))] < 0 else vec)
    return [float(v) for v in vals[order]], np.column_stack(columns)


def test_stacked_decoupled_labels_match_one_point_calls():
    """The toy labelling (gamma decoupled, alpha the larger mixed
    eigenvalue, ties in index order) next to |a| labelling in one stack,
    against the one-point call and a per-matrix loop."""
    rng = np.random.default_rng(7)
    mats = [ScatteringMatrix.from_entries(3.0, 0.0, 0.0, 3.0, 0.0, 5.0),
            ScatteringMatrix.from_entries(1.0, 0.0, 0.0, 1.0, 0.0, 1.0),
            ScatteringMatrix.from_entries(0.0, 1.0, 0.0, 0.0, 0.0, 1.0),
            ScatteringMatrix.from_entries(2.0, 0.0, 0.0, -2.0, 0.0, 2.0)]
    for _ in range(20):
        a11, a22, a12, a33, a13 = rng.uniform(-2.0, 2.0, 5)
        mats.append(ScatteringMatrix.from_entries(a11, a12, 0.0, a22, 0.0, a33))
        mats.append(ScatteringMatrix.from_entries(a11, a12, a13, a22, 0.0, a33))
    sets = spin._eigenchannels(np.array([m.entries for m in mats]))
    for cs, m in zip(sets, mats, strict=True):
        _assert_same_set(cs, eigenchannels(m))
        values, vectors = _labelled_one_by_one(m)
        assert [l.value for l in cs.lengths] == values
        assert cs.vectors.tobytes() == vectors.tobytes()


def _message(call):
    with pytest.raises(SpinAlgebraError) as err:
        call()
    return str(err.value)


def test_stack_with_one_bad_vector_set_raises_the_one_point_message():
    lengths = tuple(as_length(a) for a in (1.0, 2.0, 3.0))
    good = channels_from_angle(0.3, *lengths).vectors
    bad = good.copy()
    bad[0, 0] += 1e-6
    one = _message(lambda: spin.TwoBodyChannelSet(lengths, bad))
    assert one.startswith("eigenvectors not orthonormal")
    assert _message(lambda: spin._channel_sets(
        [lengths] * 3, np.array([good, bad, good]))) == one


@pytest.mark.parametrize("entry, value, start", [
    ((0, 1), None, "overlap not symmetric"),  # off by 1e-9 from (1, 0)
    ((2, 2), 2.5, "overlap entries must lie in [-2, 2]"),
])
def test_stack_with_one_bad_overlap_raises_the_one_point_message(entry, value,
                                                                 start):
    cs = channels_from_angle(0.3, 1.0, 2.0, 3.0)
    good = exchange_overlap(cs).matrix
    bad = good.copy()
    bad[entry] = bad[entry] + 1e-9 if value is None else value
    one = _message(lambda: spin.ExchangeOverlap(bad, cs))
    assert one.startswith(start)
    assert _message(lambda: spin._checked_overlaps(
        np.array([good, good, bad, good]))) == one


def test_stack_with_one_bad_angle_raises_the_one_point_message():
    one = _message(lambda: channels_from_angle(2.0, 1.0, 2.0, 3.0))
    assert one == "mixing angle must lie in [0, pi/2], got 2.0"
    assert _message(lambda: spin._angle_channels(
        [0.1, 2.0, 0.2, -1.0], 1.0, 2.0, 3.0)) == one


@pytest.mark.parametrize("call, message", [
    (lambda: spin.ChannelLength("bogus"),
     "unknown channel length kind 'bogus'"),
    (lambda: spin.ChannelLength("finite", 0.0),
     "finite channel length must be a finite nonzero number, got 0.0"),
    (lambda: ScatteringMatrix(np.eye(2)),
     "scattering matrix must be 3x3, got (2, 2)"),
    (lambda: toy_closed_form(1.0, math.nan, 0.5, 1.0),
     "A22 must be finite, got nan"),
    (lambda: spin.TwoBodyChannelSet((as_length(1.0),) * 3, np.eye(2)),
     "eigenvector matrix must be 3x3"),
    (lambda: spin.ExchangeOverlap(np.eye(5), channels_from_angle(
        0.0, 1.0, 2.0, 3.0)), "overlap matrix must be 6x6"),
])
def test_spin_refusal_is_typed(call, message):
    with pytest.raises(SpinAlgebraError) as err:
        call()
    assert str(err.value) == message
