import numpy as np
import pytest

from comet.errors import ConfigError, DataError
from comet.patching import ScaleSpec, coverage, extract_patches


def test_patch_counts():
    assert ScaleSpec(2, 1).n_patches(100) == 99
    assert ScaleSpec(6, 3).n_patches(100) == 32


def test_window_too_short():
    with pytest.raises(DataError):
        extract_patches(np.zeros((4, 1)), ScaleSpec(6, 3))


def test_scale_validation():
    with pytest.raises(ConfigError):
        ScaleSpec(2, 3)  # stride > patch would skip timesteps
    with pytest.raises(ConfigError):
        ScaleSpec(0, 1)


def test_patch_values_copied_verbatim():
    rng = np.random.default_rng(0)
    window = rng.normal(size=(20, 3))
    spec = ScaleSpec(4, 2)
    ps = extract_patches(window, spec)
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
    a = extract_patches(window, ScaleSpec(6, 3))
    b = extract_patches(window, ScaleSpec(6, 3))
    assert np.array_equal(a, b)


def test_coverage_examples():
    def covering(cov, t):
        return np.nonzero(cov.incidence[:, t])[0].tolist()

    cov = coverage(ScaleSpec(2, 1), 4)
    assert covering(cov, 1) == [0, 1]
    cov = coverage(ScaleSpec(6, 3), 100)
    assert covering(cov, 0) == [0]
    assert covering(cov, 5) == [0, 1]


def test_every_timestep_covered_when_stride_divides():
    cov = coverage(ScaleSpec(4, 2), 20)
    assert np.all(cov.counts[: cov.last_covered + 1] >= 1)
    assert cov.last_covered == 19


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
    assert covered.sum() == cov.last_covered + 1


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
