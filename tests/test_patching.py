import numpy as np
import pytest

from comet.errors import ConfigError, DataError, ShapeError
from comet.patching import ScaleSpec, coverage, extract_patches


def test_patch_counts():
    assert ScaleSpec(2, 1).n_patches(100) == 99
    assert ScaleSpec(6, 3).n_patches(100) == 32


def test_window_too_short():
    with pytest.raises(DataError):
        extract_patches(np.zeros((1, 4, 1)), ScaleSpec(6, 3))


def test_scale_validation():
    with pytest.raises(ConfigError):
        ScaleSpec(2, 3)  # stride > patch would skip timesteps
    with pytest.raises(ConfigError):
        ScaleSpec(0, 1)


def test_patch_values_copied_verbatim():
    rng = np.random.default_rng(0)
    window = rng.normal(size=(20, 3))
    spec = ScaleSpec(4, 2)
    ps = extract_patches(window[None], spec)[:, 0]
    assert ps.shape == (3, 9, 4)
    for i in range(3):
        for j in range(9):
            start = j * spec.stride
            assert np.array_equal(ps[i, j], window[start : start + 4, i])
    # copies, not views
    ps[0, 0, 0] += 1.0
    assert window[0, 0] != ps[0, 0, 0]


def test_extract_is_deterministic():
    window = np.random.default_rng(1).normal(size=(30, 2))
    a = extract_patches(window[None], ScaleSpec(6, 3))
    b = extract_patches(window[None], ScaleSpec(6, 3))
    assert np.array_equal(a, b)


def test_coverage_examples():
    def covering(cov, t):
        return np.nonzero(cov.weights[:, t])[0].tolist()

    cov = coverage(ScaleSpec(2, 1), 4)
    assert covering(cov, 1) == [0, 1]
    cov = coverage(ScaleSpec(6, 3), 100)
    assert covering(cov, 0) == [0]
    assert covering(cov, 5) == [0, 1]


def spans(spec, length):
    """(n_patches, length) mask of the timesteps inside each patch's span."""
    starts = np.arange(spec.n_patches(length))[:, None] * spec.stride
    t = np.arange(length)[None, :]
    return (starts <= t) & (t < starts + spec.patch_size)


def test_every_timestep_covered_when_stride_divides():
    spec = ScaleSpec(4, 2)
    cov = coverage(spec, 20)
    # every column averages exactly the patches that span it: no tail
    assert np.array_equal(cov.weights > 0, spans(spec, 20))
    assert np.all(spans(spec, 20).any(axis=0))
    assert np.allclose(cov.weights.sum(axis=0), 1.0)


def test_reassembly_reproduces_values():
    # spreading each patch's own values through the coverage map must give
    # back the original series wherever it is covered
    rng = np.random.default_rng(2)
    series = rng.normal(size=12)
    spec = ScaleSpec(3, 2)
    cov = coverage(spec, 12)
    n = spec.n_patches(12)
    recovered = np.full(12, np.nan)
    for j in range(n):
        start = j * spec.stride
        recovered[start : start + 3] = series[start : start + 3]
    covered = ~np.isnan(recovered)
    assert np.array_equal(recovered[covered], series[covered])
    # a covered column weights only the patches that span it; the uncovered
    # tail copies the last covered column, whose patch does not span it
    by_weights = ~np.any((cov.weights > 0) & ~spans(spec, 12), axis=0)
    assert np.array_equal(by_weights, covered)
    assert by_weights.sum() == 11


def test_spread_averages_overlaps_and_inherits_tail():
    # p=6, s=3, L=10: patches at 0 and 3 cover [0,9); timestep 9 uncovered
    cov = coverage(ScaleSpec(6, 3), 10)
    out = cov.spread(np.array([1.0, 3.0]))
    assert out.shape == (10,)
    assert np.array_equal(out[:3], [1.0, 1.0, 1.0])       # only patch 0
    assert np.array_equal(out[3:6], [2.0, 2.0, 2.0])      # mean of both
    assert np.array_equal(out[6:9], [3.0, 3.0, 3.0])      # only patch 1
    assert out[9] == 3.0                                   # tail inherits


def test_spread_batched():
    cov = coverage(ScaleSpec(2, 1), 4)
    scores = np.array([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]])
    out = cov.spread(scores)
    assert out.shape == (2, 4)
    assert np.allclose(out[0], [1.0, 1.5, 2.5, 3.0])
    assert np.allclose(out[1], [10.0, 15.0, 25.0, 30.0])


def three_step_spread(spec, length, patch_scores):
    """The earlier spread: incidence GEMM, divide by counts, repeat the tail."""
    incidence = spans(spec, length).astype(np.float64)
    counts = incidence.sum(axis=0)
    last = (spec.n_patches(length) - 1) * spec.stride + spec.patch_size - 1
    out = (patch_scores @ incidence)[..., : last + 1] / counts[: last + 1]
    tail = np.repeat(out[..., -1:], length - last - 1, axis=-1)
    return np.concatenate([out, tail], axis=-1)


@pytest.mark.parametrize("patch,stride,length", [
    (2, 1, 7), (2, 1, 100),        # stride 1: never a tail
    (4, 2, 20), (4, 2, 21),        # without and with an uncovered tail
    (6, 3, 99), (6, 3, 100),
])
def test_spread_bit_equal_to_three_step_oracle(patch, stride, length):
    # counts of 1 or 2: a/1 and (a+b)/2 equal a*1 and a*0.5 + b*0.5 exactly
    spec = ScaleSpec(patch, stride)
    scores = np.random.default_rng(length).normal(size=(2, 3, spec.n_patches(length)))
    got = coverage(spec, length).spread(scores)
    assert np.array_equal(got, three_step_spread(spec, length, scores))


@pytest.mark.parametrize("patch,stride,length", [(3, 1, 20), (6, 1, 20), (6, 1, 100)])
def test_spread_matches_three_step_oracle_at_other_counts(patch, stride, length):
    # counts of 3, 5 or 6: 1/count rounds, so only the last bits may move
    spec = ScaleSpec(patch, stride)
    rng = np.random.default_rng(length)
    scores = rng.uniform(0.1, 5.0, size=(2, 3, spec.n_patches(length)))
    got = coverage(spec, length).spread(scores)
    np.testing.assert_allclose(got, three_step_spread(spec, length, scores),
                               rtol=1e-14, atol=0.0)


def test_spread_rejects_wrong_patch_count():
    with pytest.raises(ShapeError):
        coverage(ScaleSpec(2, 1), 4).spread(np.zeros(4))
