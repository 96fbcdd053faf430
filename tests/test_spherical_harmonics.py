"""Tests for real spherical harmonics: orthonormality, equivariance, values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.equivariant import (
    random_rotation,
    sh_block_slice,
    sh_dim,
    spherical_harmonics,
    wigner_D,
)

LMAX = 4


def fibonacci_sphere(n=2000):
    """Quasi-uniform points on the sphere for numerical integration."""
    i = np.arange(n) + 0.5
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


class TestBasics:
    def test_dim_layout(self):
        assert sh_dim(3) == 16
        assert sh_block_slice(2) == slice(4, 9)

    def test_output_shape(self, rng):
        v = rng.standard_normal((7, 3))
        Y = spherical_harmonics(3, v)
        assert Y.shape == (7, 16)

    def test_batch_shapes(self, rng):
        v = rng.standard_normal((2, 5, 3))
        Y = spherical_harmonics(2, v)
        assert Y.shape == (2, 5, 9)

    def test_l0_constant(self, rng):
        v = rng.standard_normal((20, 3))
        Y = spherical_harmonics(0, v)
        np.testing.assert_allclose(Y, 1.0 / math.sqrt(4 * math.pi))

    def test_l1_proportional_to_direction(self, rng):
        """Degree-1 block spans (y, z, x) up to normalization."""
        v = rng.standard_normal((30, 3))
        u = v / np.linalg.norm(v, axis=1, keepdims=True)
        Y = spherical_harmonics(1, v)[:, 1:4]
        c = math.sqrt(3.0 / (4.0 * math.pi))
        np.testing.assert_allclose(Y[:, 0], c * u[:, 1], atol=1e-12)
        np.testing.assert_allclose(Y[:, 1], c * u[:, 2], atol=1e-12)
        np.testing.assert_allclose(Y[:, 2], c * u[:, 0], atol=1e-12)

    def test_scale_invariance(self, rng):
        """Harmonics depend only on direction when normalize=True."""
        v = rng.standard_normal((10, 3))
        Y1 = spherical_harmonics(LMAX, v)
        Y2 = spherical_harmonics(LMAX, 7.3 * v)
        np.testing.assert_allclose(Y1, Y2, atol=1e-12)

    def test_zero_vector_maps_to_pole(self):
        Y = spherical_harmonics(2, np.zeros((1, 3)))
        Yz = spherical_harmonics(2, np.array([[0.0, 0.0, 1.0]]))
        np.testing.assert_allclose(Y, Yz)

    def test_invalid_shape_raises(self):
        with pytest.raises(ValueError):
            spherical_harmonics(2, np.zeros((4, 2)))

    def test_invalid_normalization_raises(self):
        with pytest.raises(ValueError):
            spherical_harmonics(2, np.zeros((4, 3)), normalization="bogus")

    def test_out_buffer(self, rng):
        v = rng.standard_normal((5, 3))
        out = np.empty((5, 9))
        Y = spherical_harmonics(2, v, out=out)
        assert Y is out

    def test_out_buffer_wrong_shape(self, rng):
        with pytest.raises(ValueError):
            spherical_harmonics(2, rng.standard_normal((5, 3)), out=np.empty((5, 4)))


class TestOrthonormality:
    def test_integral_normalization(self):
        """∫ Y_i Y_j dΩ = δ_ij under the 'integral' normalization."""
        pts = fibonacci_sphere(8000)
        Y = spherical_harmonics(LMAX, pts)
        gram = Y.T @ Y * (4.0 * math.pi / pts.shape[0])
        np.testing.assert_allclose(gram, np.eye(sh_dim(LMAX)), atol=5e-2)

    def test_component_normalization(self):
        """sum_m Y_lm^2 averages to 2l+1 under 'component' normalization."""
        pts = fibonacci_sphere(4000)
        Y = spherical_harmonics(LMAX, pts, normalization="component")
        for l in range(LMAX + 1):
            block = Y[:, sh_block_slice(l)]
            mean_sq = (block**2).sum(axis=1).mean()
            assert abs(mean_sq - (2 * l + 1)) < 0.05 * (2 * l + 1)


class TestEquivariance:
    @pytest.mark.parametrize("l", range(LMAX + 1))
    def test_wigner_equivariance(self, l, rng):
        """Y_l(R r) = D_l(R) Y_l(r) for random rotations and directions."""
        for _ in range(5):
            R = random_rotation(rng)
            v = rng.standard_normal(3)
            Y_rot = spherical_harmonics(l, R @ v)[l * l :]
            Y = spherical_harmonics(l, v)[l * l :]
            np.testing.assert_allclose(Y_rot, wigner_D(l, R) @ Y, atol=1e-12)

    def test_parity(self, rng):
        """Y_l(-r) = (-1)^l Y_l(r)."""
        v = rng.standard_normal((8, 3))
        Yp = spherical_harmonics(LMAX, v)
        Ym = spherical_harmonics(LMAX, -v)
        for l in range(LMAX + 1):
            sl = sh_block_slice(l)
            np.testing.assert_allclose(Ym[:, sl], (-1.0) ** l * Yp[:, sl], atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(-5, 5),
    y=st.floats(-5, 5),
    z=st.floats(-5, 5),
)
def test_rotation_about_z_only_mixes_same_abs_m(x, y, z):
    """Property: rotating about z preserves sum of squares within each l."""
    v = np.array([x, y, z])
    if np.linalg.norm(v) < 1e-3:
        return
    from repro.equivariant import rotation_matrix

    R = rotation_matrix(np.array([0.0, 0.0, 1.0]), 0.7)
    Y1 = spherical_harmonics(3, v)
    Y2 = spherical_harmonics(3, R @ v)
    for l in range(4):
        sl = sh_block_slice(l)
        np.testing.assert_allclose(
            (Y1[sl] ** 2).sum(), (Y2[sl] ** 2).sum(), atol=1e-10
        )


# -- regression against the pre-vectorization implementation --------------------------


def _reference_legendre_p(lmax, x):
    """The pre-vectorization per-(l, m) loop recursion, kept as the value
    reference for the table-driven implementation."""
    x = np.asarray(x, dtype=np.float64)
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    out = np.zeros(x.shape + (lmax + 1, lmax + 1), dtype=np.float64)
    out[..., 0, 0] = 1.0
    for m in range(1, lmax + 1):
        out[..., m, m] = (2 * m - 1) * s * out[..., m - 1, m - 1]
    for m in range(0, lmax):
        out[..., m + 1, m] = x * (2 * m + 1) * out[..., m, m]
    for m in range(0, lmax + 1):
        for l in range(m + 2, lmax + 1):
            out[..., l, m] = (
                x * (2 * l - 1) * out[..., l - 1, m]
                - (l + m - 1) * out[..., l - 2, m]
            ) / (l - m)
    return out


def _sh_norm(l, m):
    m = abs(m)
    return math.sqrt(
        (2 * l + 1) / (4.0 * math.pi) * math.factorial(l - m) / math.factorial(l + m)
    )


def _reference_spherical_harmonics(lmax, vectors, normalization="integral"):
    """The pre-vectorization per-(l, m) loop assembly (value reference).

    ``legendre_p``'s own bitwise equivalence to the loop recursion is
    asserted separately above, so composing the loop assembly with the
    current ``legendre_p`` is an exact reference.
    """
    from repro.equivariant.spherical_harmonics import legendre_p

    v = np.asarray(vectors, dtype=np.float64)
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    safe = np.where(norm > 0.0, norm, 1.0)
    v = v / safe
    v = np.where(norm > 0.0, v, np.array([0.0, 0.0, 1.0]))
    y, z = v[..., 1], v[..., 2]
    ct = np.clip(z, -1.0, 1.0)
    phi = np.arctan2(y, v[..., 0])
    plm = legendre_p(lmax, ct)
    out = np.empty(v.shape[:-1] + (sh_dim(lmax),), dtype=np.float64)
    sqrt2 = math.sqrt(2.0)
    cos_m = [np.ones_like(phi)]
    sin_m = [np.zeros_like(phi)]
    cphi, sphi = np.cos(phi), np.sin(phi)
    for m in range(1, lmax + 1):
        cos_m.append(cos_m[-1] * cphi - sin_m[-1] * sphi)
        sin_m.append(sin_m[-1] * cphi + cos_m[-2] * sphi)
    for l in range(lmax + 1):
        base = l * l
        scale = 1.0 if normalization == "integral" else math.sqrt(4.0 * math.pi)
        out[..., base + l] = scale * _sh_norm(l, 0) * plm[..., l, 0]
        for m in range(1, l + 1):
            n = scale * sqrt2 * _sh_norm(l, m)
            out[..., base + l + m] = n * plm[..., l, m] * cos_m[m]
            out[..., base + l - m] = n * plm[..., l, m] * sin_m[m]
    return out


class TestVectorizedRegression:
    """The table-driven block-write implementation reproduces the loop
    implementation bit for bit (same operations, different schedule)."""

    @pytest.mark.parametrize("lmax", [0, 1, 2, 3, 5, 8])
    def test_legendre_matches_reference(self, lmax, rng):
        from repro.equivariant.spherical_harmonics import legendre_p

        x = rng.uniform(-1.0, 1.0, 257)
        np.testing.assert_array_equal(
            legendre_p(lmax, x), _reference_legendre_p(lmax, x)
        )

    @pytest.mark.parametrize("lmax", [0, 1, 2, 3, 5, 8])
    @pytest.mark.parametrize("normalization", ["integral", "component"])
    def test_harmonics_match_reference(self, lmax, normalization, rng):
        v = rng.standard_normal((64, 3))
        got = spherical_harmonics(lmax, v, normalization=normalization)
        want = _reference_spherical_harmonics(lmax, v, normalization)
        np.testing.assert_array_equal(got, want)

    def test_harmonics_match_reference_batched(self, rng):
        v = rng.standard_normal((3, 5, 3))
        np.testing.assert_array_equal(
            spherical_harmonics(3, v, normalization="component"),
            _reference_spherical_harmonics(3, v, "component"),
        )
