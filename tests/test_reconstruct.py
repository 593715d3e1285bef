import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entroprec import (
    DensityMatrix,
    EntropyDistribution,
    Observable,
    bipartite_distributions,
    chebyshev_nodes,
    fourier_reconstruct,
    moment_generating,
    moments_via_newton,
    moments_via_vandermonde,
    ms_gate,
    pseudoinverse_reconstruct,
    rmse_moments,
    rmse_probs,
)
from entroprec.protocol import TwoTimeProtocol
from entroprec import experiments, reconstruct
from entroprec.reconstruct import (
    DEFAULT_DMU,
    DEFAULT_LIMITS,
    FOURIER_KERNEL_CACHE_SIZE,
    InfeasibleRecoveryWarning,
    ParameterGrid,
    ReconstructionError,
    _factor_extended,
    _solve_factored,
    _trapezoid,
    divided_differences,
)
from entroprec.experiments import PHI_MIN, PHI_MAX, build_protocol, preset, run_config

RHO0 = DensityMatrix.from_diagonal([6 / 25, 9 / 25, 4 / 25, 6 / 25], partition=(2, 2))
QUBIT_OBS = Observable.computational(2)


@pytest.fixture(scope="module")
def proto():
    return build_protocol(preset("fig3"))


@pytest.fixture(scope="module")
def dists(proto):
    dist_a, dist_b, dist_ab, dist_conv = bipartite_distributions(proto)
    return {"A": dist_a, "B": dist_b, "A-B": dist_ab, "A+B": dist_conv}


def chi_values(proto, label, grid):
    return np.array([moment_generating(proto, label, float(x)) for x in grid.nodes])


class TestChebyshevNodes:
    def test_single_node_midpoint(self):
        grid = chebyshev_nodes(1, 0.0, 1.0)
        assert np.allclose(grid.nodes, [0.5])

    def test_two_nodes_closed_form(self):
        grid = chebyshev_nodes(2, 0.0, 2.0)
        assert np.allclose(sorted(grid.nodes), [1 - math.sqrt(2) / 2, 1 + math.sqrt(2) / 2])

    def test_formula_oracle(self):
        n, lo, hi = 10, 0.0, 10.0
        grid = chebyshev_nodes(n, lo, hi)
        for k in range(1, n + 1):
            expected = (lo + hi) / 2 + (hi - lo) / 2 * math.cos((2 * k - 1) * math.pi / (2 * n))
            assert grid.nodes[k - 1] == pytest.approx(expected, abs=1e-14)

    def test_nodes_descend_and_stay_inside(self):
        grid = chebyshev_nodes(8, -1.0, 3.0)
        assert np.all(np.diff(grid.nodes) < 0)
        assert grid.nodes.min() > -1.0 and grid.nodes.max() < 3.0

    def test_degenerate_interval(self):
        with pytest.raises(ValueError):
            chebyshev_nodes(3, 1.0, 1.0)

    @pytest.mark.parametrize(
        "n", [2.5, 3.0, True, np.float64(4.0)], ids=["fraction", "float", "bool", "np-float"]
    )
    def test_non_integer_n_refused(self, n):
        # 2.5 would give 3 nodes, one of them the interval end; True must not
        # reach the cache, where it would find the grid of n = 1
        chebyshev_nodes(1, -0.5, 1.0)
        with pytest.raises(ValueError, match="n must be an integer"):
            chebyshev_nodes(n, -0.5, 1.0)
        assert chebyshev_nodes(np.int64(5), -0.5, 1.0) is chebyshev_nodes(5, -0.5, 1.0)

    @pytest.mark.parametrize("n", [172, 10**6, 10**400], ids=["172", "1e6", "1e400"])
    def test_count_beyond_float64_refused_before_any_node(self, n, monkeypatch):
        def refuse(*args):
            raise AssertionError("nodes computed")

        monkeypatch.setattr(reconstruct, "_chebyshev_grid", refuse)
        with pytest.raises(OverflowError, match=f"^the moments for N = {n} overflow float64$"):
            chebyshev_nodes(n, PHI_MIN, PHI_MAX)
        with pytest.raises(AssertionError, match="nodes computed"):
            chebyshev_nodes(171, PHI_MIN, PHI_MAX)

    def test_grid_beyond_float64_refused_before_its_distinctness_check(self):
        # the check forms an N x N array: 32 MB here, 8 TB at N = 10^6
        nodes = np.linspace(PHI_MIN, PHI_MAX, 2000)
        tracemalloc.start()
        try:
            with pytest.raises(OverflowError, match="^the moments for N = 2000 overflow float64$"):
                ParameterGrid(PHI_MIN, PHI_MAX, nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * nodes.nbytes

    def test_grid_rejects_duplicate_nodes(self):
        with pytest.raises(ValueError, match="distinct"):
            ParameterGrid(0.0, 1.0, np.array([0.5, 0.5]))

    @pytest.mark.parametrize(
        "bounds, nodes",
        [((-1.0, 1.0), [0.1, np.nan]), ((-1.0, 1.0), [0.1, np.inf]), ((-1.0, np.inf), [0.1])],
        ids=["nan-node", "inf-node", "inf-bound"],
    )
    def test_grid_rejects_non_finite_values(self, bounds, nodes):
        with pytest.raises(ValueError, match="finite"):
            ParameterGrid(*bounds, np.array(nodes))

    @pytest.mark.parametrize("nodes", [[-0.5, 0.5], [0.5, 1.5]], ids=["below", "above"])
    def test_grid_rejects_nodes_outside_its_interval(self, nodes):
        with pytest.raises(ValueError, match="inside"):
            ParameterGrid(0.0, 1.0, np.array(nodes))

    @pytest.mark.parametrize(
        "bounds", [(-0.5, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (-0.5, np.nan)]
    )
    def test_nodes_reject_non_finite_interval(self, bounds):
        # used to return NaN nodes with a RuntimeWarning for an infinite end
        with pytest.raises(ValueError, match="finite"):
            chebyshev_nodes(4, *bounds)


class TestVandermondeMoments:
    def test_two_by_two(self):
        grid = ParameterGrid(0.0, 1.0, np.array([0.0, 1.0]))
        result = moments_via_vandermonde(grid, [1.0, 0.0])
        assert np.allclose(result.scaled, [1.0, -1.0])
        assert result.moments[1] == pytest.approx(1.0)

    def test_constant_chi(self):
        grid = chebyshev_nodes(6, 0.0, 3.0)
        result = moments_via_vandermonde(grid, np.ones(6))
        assert result.moments[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(result.moments[1:])) <= 1e-10

    def test_section6_matches_brute_force(self, proto, dists):
        grid = chebyshev_nodes(10, PHI_MIN, PHI_MAX)
        result = moments_via_vandermonde(grid, chi_values(proto, "A", grid))
        assert np.max(np.abs(result.nontrivial[:4] - dists["A"].moments(4))) <= 1e-6

    def test_condition_number_reported(self):
        grid = chebyshev_nodes(5, 0.0, 1.0)
        result = moments_via_vandermonde(grid, np.ones(5))
        assert result.condition_number > 1.0
        assert not result.ill_conditioned

    def test_ill_conditioning_flagged(self, proto):
        grid = chebyshev_nodes(20, 0.0, 30.0)
        chi = chi_values(proto, "A", grid)
        result = moments_via_vandermonde(grid, chi)
        assert result.condition_number > 1e14
        assert result.ill_conditioned

    def test_stacked_rows_match_single_solves(self, proto):
        # one elimination for all labels gives each row's solve bit for bit
        for n in range(1, 17):
            grid = chebyshev_nodes(n, PHI_MIN, PHI_MAX)
            chi = np.stack([chi_values(proto, label, grid) for label in ("A", "B", "A-B")])
            stacked = moments_via_vandermonde(grid, chi)
            assert len(stacked) == 3
            v = np.vander(grid.nodes.astype(np.longdouble), increasing=True)
            elim = _factor_extended(v)
            columns = _solve_factored(elim, chi.T)  # 80-bit, before the float64 cast
            for row, column in zip(chi, columns.T):
                assert np.array_equal(column, _solve_factored(elim, row[:, None])[:, 0])
            for row, mv in zip(chi, stacked):
                alone = moments_via_vandermonde(grid, row)
                assert np.array_equal(mv.moments, alone.moments)
                assert np.array_equal(mv.scaled, alone.scaled)
                assert mv.condition_number == alone.condition_number
                assert mv.ill_conditioned == alone.ill_conditioned
                assert mv.moments.flags.c_contiguous and mv.scaled.flags.c_contiguous

    @pytest.mark.parametrize("shape", [(4,), (2, 4), (2, 2, 5)])
    def test_chi_shape_checked(self, shape):
        with pytest.raises(ValueError, match="one chi value per grid node"):
            moments_via_vandermonde(chebyshev_nodes(5, 0.0, 1.0), np.ones(shape))


def eliminate_in_place(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The reference solve: the 80-bit pivoted elimination of matrix and
    right-hand sides together, then back substitution."""
    a = matrix.astype(np.longdouble).copy()
    b = rhs.astype(np.longdouble).copy()
    n = a.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        factors = a[col + 1 :, col] / a[col, col]
        a[col + 1 :, col:] -= factors[:, None] * a[col, col:]
        b[col + 1 :] -= factors[:, None] * b[col]
    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


class TestFactorOnce:
    """The grid's elimination, done once and replayed, solves as the
    elimination of matrix and right-hand sides together does."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_replayed_solve_matches_reference(self, n):
        rng = np.random.default_rng(n)
        grid = chebyshev_nodes(n, PHI_MIN, PHI_MAX)
        v = np.vander(grid.nodes.astype(np.longdouble), increasing=True)
        for columns in (1, 3 * 5):  # one label; three labels at five points
            rhs = (1.0 + rng.uniform(-0.1, 0.1, (n, columns))).astype(np.longdouble)
            expected = eliminate_in_place(v, rhs)
            assert np.array_equal(_solve_factored(_factor_extended(v), rhs), expected)
            assert np.array_equal(reconstruct._solve_factored(grid.vandermonde, rhs), expected)
            rows = moments_via_vandermonde(grid, rhs.T)
            assert np.array_equal(np.stack([mv.scaled for mv in rows]), expected.T.astype(float))
            cond = float(np.linalg.cond(v.astype(float)))
            assert all(mv.condition_number == cond for mv in rows)

    def test_grid_shared_and_factored_once(self, monkeypatch):
        calls = []
        factor = reconstruct._factor_extended
        monkeypatch.setattr(reconstruct, "_factor_extended", lambda m: calls.append(1) or factor(m))
        grid = chebyshev_nodes(9, -0.25, 0.75)
        assert chebyshev_nodes(9, -0.25, 0.75) is grid
        for _ in range(3):
            moments_via_vandermonde(chebyshev_nodes(9, -0.25, 0.75), np.ones((3, 9)))
        assert len(calls) == 1
        elim = grid.vandermonde
        assert not grid.nodes.flags.writeable and not elim.upper.flags.writeable
        assert all(not f.flags.writeable for f in elim.factors)

    def test_singular_matrix_refused(self):
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            _factor_extended(np.ones((3, 3)))


class TestNewtonMoments:
    def test_constant_chi(self):
        grid = chebyshev_nodes(5, 0.0, 2.0)
        eta = divided_differences(grid.nodes, np.ones(5))
        assert eta[0] == pytest.approx(1.0)
        assert np.max(np.abs(eta[1:])) <= 1e-12
        result = moments_via_newton(grid, np.ones(5))
        assert result.moments[0] == pytest.approx(1.0)
        assert np.max(np.abs(result.moments[1:])) <= 1e-10

    def test_linear_chi_slope(self):
        nodes = np.array([0.25, 1.75])
        grid = ParameterGrid(0.0, 2.0, nodes)
        chi = 3.0 - 2.0 * nodes
        eta = divided_differences(nodes, chi)
        assert eta[1] == pytest.approx(-2.0)
        result = moments_via_newton(grid, chi)
        assert result.scaled[1] == pytest.approx(-2.0)

    @pytest.mark.parametrize("shape", [(4,), (2, 5)])
    def test_chi_shape_checked(self, shape):
        with pytest.raises(ValueError, match="one chi value per grid node"):
            moments_via_newton(chebyshev_nodes(5, 0.0, 1.0), np.ones(shape))

    def test_agrees_with_vandermonde(self, proto):
        grid = chebyshev_nodes(10, PHI_MIN, PHI_MAX)
        for label in ("A", "B", "A-B"):
            chi = chi_values(proto, label, grid)
            mv = moments_via_vandermonde(grid, chi)
            mn = moments_via_newton(grid, chi)
            assert np.max(np.abs(mv.moments - mn.moments)) <= 1e-8

    @pytest.mark.parametrize("extract", [moments_via_vandermonde, moments_via_newton])
    def test_overflow_names_n(self, extract):
        # 171! is beyond float64, whatever the data: no 172-node grid exists,
        # and 172 scaled moments are refused
        refused = "^the moments for N = 172 overflow float64$"
        with pytest.raises(OverflowError, match=refused):
            ParameterGrid(PHI_MIN, PHI_MAX, np.linspace(PHI_MIN, PHI_MAX, 172))
        with pytest.raises(OverflowError, match=refused):
            reconstruct._unscaled(np.ones((3, 172)))
        # at N = 171 the data decide: <sigma^170> = 100^170 is beyond float64
        grid = chebyshev_nodes(171, PHI_MIN, PHI_MAX)
        with pytest.raises(OverflowError, match="N = 171 "):
            extract(grid, np.exp(-100.0 * grid.nodes))


class TestVandermondeDeterminant:
    def test_product_formula(self):
        nodes = np.array([0.2, 0.9, 1.7, 2.4])
        v = np.vander(nodes, increasing=True)
        product = 1.0
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                product *= nodes[j] - nodes[i]
        assert np.linalg.det(v) == pytest.approx(product, rel=1e-12)


class TestChebyshevOptimality:
    def test_beats_equispaced_interpolation(self, proto):
        # interpolation error at off-node points, degree-9 fit to chi_A
        n, lo, hi = 10, PHI_MIN, PHI_MAX
        probe = np.linspace(lo, hi, 100)
        chi_probe = chi_values(proto, "A", ParameterGrid(lo, hi, probe))

        def interp_error(nodes):
            grid = ParameterGrid(lo, hi, nodes)
            coeffs = moments_via_vandermonde(grid, chi_values(proto, "A", grid)).scaled
            fitted = np.polyval(coeffs[::-1], probe)
            return np.max(np.abs(fitted - chi_probe))

        cheb_err = interp_error(chebyshev_nodes(n, lo, hi).nodes)
        equi_err = interp_error(np.linspace(lo, hi, n))
        assert cheb_err < equi_err


def _fourier_reference(moments, support_grid):
    """Independent oracle: one full-line grid, power matrix and complex
    kernel per integration limit, with the same admissibility and selection
    rules as ``fourier_reconstruct``."""
    m = np.asarray(moments, dtype=float)
    support = np.sort(np.asarray(support_grid, dtype=float))
    coeffs = np.array([m[k] * 1j**k / math.factorial(k) for k in range(m.size)])
    best_err = None
    best_probs = None
    for limit in DEFAULT_LIMITS:
        mu = np.arange(-limit, limit + DEFAULT_DMU / 2, DEFAULT_DMU)
        powers = mu[None, :] ** np.arange(m.size)[:, None]
        series = coeffs @ powers
        kernel = np.exp(-1j * np.outer(support, mu))
        density = _trapezoid(series[None, :] * kernel, mu, axis=1).real / (2 * np.pi)
        total = density.sum()
        if total <= 0:
            continue
        masses = density / total
        if masses.min() < -1e-3:
            continue
        probs = np.clip(masses, 0.0, None)
        probs /= probs.sum()
        recomputed = np.array([np.sum(probs * support**k) for k in range(1, m.size)])
        err = float(np.sum(np.abs(m[1:] - recomputed) ** 2))
        if best_err is None or err < best_err:
            best_err = err
            best_probs = probs
    if best_probs is None:
        raise ReconstructionError("all candidate integration limits produced inadmissible mass")
    return best_probs


@st.composite
def discrete_distributions(draw):
    """Distinct support points on a 0.01 lattice in [-3, 3], positive masses,
    and the exact moments <sigma^k>, k = 0..N-1, for N in 2..16."""
    lattice = draw(st.lists(st.integers(-300, 300), min_size=1, max_size=16, unique=True))
    support = np.array(lattice) / 100.0
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=support.size, max_size=support.size))
    probs = np.array(weights) / sum(weights)
    n = draw(st.integers(2, 16))
    moments = np.array([np.sum(probs * support**k) for k in range(n)])
    return moments, support


class TestFourierReconstruct:
    @given(discrete_distributions())
    def test_matches_per_limit_reference(self, case):
        moments, support = case
        try:
            expected = _fourier_reference(moments, support)
        except ReconstructionError:
            with pytest.raises(ReconstructionError):
                fourier_reconstruct(moments, support)
            return
        dist = fourier_reconstruct(moments, support)
        assert np.max(np.abs(dist.probs - expected)) <= 1e-9

    @pytest.mark.parametrize(
        "moments", [[1.0, np.nan, 0.5], [1.0, 0.2, np.inf], []], ids=["nan", "inf", "empty"]
    )
    def test_rejects_invalid_input(self, moments):
        with pytest.raises(ValueError):
            fourier_reconstruct(np.array(moments), [-0.5, 0.5])

    @pytest.mark.parametrize(
        "support, message",
        [
            ([0.0, np.inf], "finite values"),
            ([np.nan], "finite values"),
            ([], "nonempty"),
            ([[-0.5, 0.5]], "1-D"),
            ([0.5, 0.5 + 1e-11], "coincident"),
        ],
        ids=["inf", "nan", "empty", "2-D", "coincident"],
    )
    def test_rejects_the_supports_pinv_rejects(self, support, message):
        # refused by the one support check of both recoveries, before any
        # kernel is built and cached
        reconstruct._fourier_kernel.cache_clear()
        cases = ((fourier_reconstruct, [1.0, 0.1, 0.3]), (pseudoinverse_reconstruct, [0.1, 0.3]))
        for recover, moments in cases:
            with pytest.raises(ValueError, match=message):
                recover(np.array(moments), np.array(support))
        assert reconstruct._fourier_kernel.cache_info().misses == 0

    def test_delta_at_zero(self):
        moments = np.zeros(8)
        moments[0] = 1.0
        dist = fourier_reconstruct(moments, [0.0])
        assert np.allclose(dist.support, [0.0])
        assert dist.probs[0] == pytest.approx(1.0, abs=1e-6)

    def test_symmetric_two_point(self):
        s = 0.8
        # analytic moments of {-s: 1/2, +s: 1/2}: odd vanish, even are s^k
        moments = np.array([s**k if k % 2 == 0 else 0.0 for k in range(12)])
        dist = fourier_reconstruct(moments, [-s, s])
        assert np.allclose(dist.probs, [0.5, 0.5], atol=1e-6)

    def test_failure_when_no_candidate_admissible(self):
        # a mean outside the support and a second moment far below its
        # square are infeasible; every default limit yields inadmissible mass
        moments = np.array([1.0, 2.0, 0.1])
        with pytest.raises(ReconstructionError):
            _fourier_reference(moments, [-1.0, 1.0])
        with pytest.raises(ReconstructionError):
            fourier_reconstruct(moments, [-1.0, 1.0])

    def test_kernel_cache_bounded_and_exact(self):
        kernel = reconstruct._fourier_kernel
        kernel.cache_clear()
        moments = np.array([1.0, 0.1, 0.3, 0.05, 0.15])
        supports = [[-0.5, 0.5], [-0.6, 0.4, 0.7], [-1.0, 0.0, 1.0], [-0.3, 0.2], [-0.5, 0.5]]
        cached = [fourier_reconstruct(moments, support).probs for support in supports]
        assert kernel.cache_info().currsize <= FOURIER_KERNEL_CACHE_SIZE == 3
        for support, probs in zip(supports, cached):
            kernel.cache_clear()
            assert np.array_equal(fourier_reconstruct(moments, support).probs, probs)
        cos, sin = kernel(np.array([-0.5, 0.5]).tobytes(), 11)
        assert cos.shape == sin.shape == (2, 11)
        assert not cos.flags.writeable and not sin.flags.writeable

    def test_kernel_reused_across_n(self, dists):
        reconstruct._fourier_kernel.cache_clear()
        for n in (6, 8, 10):
            moments = np.concatenate([[1.0], dists["A"].moments(n - 1)])
            fourier_reconstruct(moments, dists["A"].support)
        info = reconstruct._fourier_kernel.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_recovers_section6_coarsely(self, proto, dists):
        grid = chebyshev_nodes(10, PHI_MIN, PHI_MAX)
        mv = moments_via_vandermonde(grid, chi_values(proto, "A", grid))
        dist = fourier_reconstruct(mv.moments, dists["A"].support, label="A")
        # windowed-kernel crosstalk between nearby support points bounds the
        # achievable pointwise accuracy well above the pseudo-inverse path
        assert np.max(np.abs(dist.probs - dists["A"].probs)) <= 0.25
        assert dist.probs.sum() == pytest.approx(1.0)


class TestPseudoinverse:
    @pytest.mark.filterwarnings("ignore::entroprec.reconstruct.InfeasibleRecoveryWarning")
    @given(discrete_distributions())
    def test_strided_moments_recover_like_contiguous(self, case):
        # a strided moment vector used to take another BLAS kernel and, through
        # the nearly singular normal equations, come out with other masses
        moments, support = case
        padded = np.zeros((moments.size, 3))
        padded[:, 1] = moments
        strided = padded[:, 1]
        assert not strided.flags.c_contiguous
        for recover, first in ((pseudoinverse_reconstruct, 1), (fourier_reconstruct, 0)):
            try:
                expected = recover(moments[first:].copy(), support).probs
            except ReconstructionError:
                continue
            assert np.array_equal(recover(strided[first:], support).probs, expected)

    def test_symmetric_pair(self):
        s = 0.7
        dist = pseudoinverse_reconstruct([0.0, s**2], [s, -s])
        assert np.allclose(dist.support, [-s, s])
        assert np.allclose(dist.probs, [0.5, 0.5], atol=1e-12)

    def test_single_zero_support(self):
        dist = pseudoinverse_reconstruct([0.0, 0.0, 0.0], [0.0])
        assert np.allclose(dist.support, [0.0])
        assert np.allclose(dist.probs, [1.0])

    def test_degenerate_support_rejected(self):
        with pytest.raises(ValueError, match="coincident"):
            pseudoinverse_reconstruct([0.1, 0.2], [0.5, 0.5 + 1e-12])

    @pytest.mark.parametrize(
        "moments, support",
        [([0.1, np.nan], [0.0, 1.0]), ([0.1, np.inf], [0.0, 1.0]), ([0.1, 0.2], [0.0, np.nan])],
        ids=["nan-moment", "inf-moment", "nan-support"],
    )
    def test_non_finite_input_rejected(self, moments, support):
        # a NaN moment used to come back as NaN masses, a NaN support point
        # as numpy's "SVD did not converge"
        with pytest.raises(ValueError, match="finite"):
            pseudoinverse_reconstruct(moments, support)

    def test_underdetermined_warns(self):
        with pytest.warns(InfeasibleRecoveryWarning):
            pseudoinverse_reconstruct([0.3], [-1.0, -0.3, 0.4, 1.2])

    def test_no_mass_left_gives_uniform(self):
        # both least-squares masses are -1, so clipping leaves no mass, and
        # no zero support value takes the rest
        with pytest.warns(InfeasibleRecoveryWarning):
            dist = pseudoinverse_reconstruct([-1.5, -1.25], [0.5, 1.0])
        assert np.array_equal(dist.probs, [0.5, 0.5])

    def test_zero_support_point_mass_from_normalisation(self, proto, dists):
        # the composite distribution carries an exact zero in its support;
        # the moment rows say nothing about that mass
        dist_ab = dists["A-B"]
        assert np.min(np.abs(dist_ab.support)) == 0.0
        rec = pseudoinverse_reconstruct(dist_ab.moments(5), dist_ab.support, "A-B")
        assert rmse_probs(dist_ab, rec) <= 1e-10

    def test_section6_exact_moments(self, dists):
        for label in ("A", "B"):
            dist = dists[label]
            rec = pseudoinverse_reconstruct(dist.moments(4), dist.support, label)
            assert rmse_probs(dist, rec) <= 1e-10


def loop_pseudoinverse(moments, support, label):
    """One recovery as a lone call made it before the stacked solve: the
    Tikhonov decision from np.linalg.cond of the item's own Gram matrix."""
    b = np.ascontiguousarray(moments, dtype=float)
    s = np.asarray(support, dtype=float)
    zero = np.abs(s) <= 1e-12
    powers = s[None, ~zero] ** np.arange(1, b.size + 1)[:, None]
    gram = powers.T @ powers
    cond = np.linalg.cond(gram) if gram.size else 0.0
    if not np.isfinite(cond) or cond > 1e12:
        gram = gram + reconstruct.TIKHONOV_LAMBDA * np.eye(gram.shape[0])
    solved = np.linalg.solve(gram, powers.T @ b) if gram.size else np.zeros(0)
    solved = np.clip(solved, 0.0, None)
    probs = np.zeros(s.size)
    probs[~zero] = solved
    if np.any(zero):
        probs[zero] = max(0.0, 1.0 - solved.sum()) / zero.sum()
    total = probs.sum()
    probs = np.full(s.size, 1.0 / s.size) if total <= 1e-15 else probs / total
    return EntropyDistribution(s, probs, label)


class TestPseudoinverseStack:
    def test_mixed_batch_matches_lone_calls(self):
        # fig3 at phi = 0.0019 puts cond(P^T P) near 1e22: the Tikhonov
        # branch; its A-B support holds an exact zero. Items of equal shape
        # stack together, whichever branch each takes.
        items = []
        for phi in (0.0019, 0.3, 1.1):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", InfeasibleRecoveryWarning)
                record = run_config(replace(preset("fig3"), phi=phi), methods=())
            measured = experiments._measure_moments([build_protocol(record.config)], [(0, 10)])
            for label, (_, _, moments) in measured[0, 10].items():
                support = record.distributions[label].support
                for rows in (support.size, 2):
                    items.append((moments.nontrivial[:rows], support, label))
        moments, support, _ = tikhonov = items[4]  # phi = 0.0019, A-B, all rows
        items.insert(3, ([0.3], [-1.0, -0.3, 0.4, 1.2], "negative"))
        items.insert(7, ([0.0, 0.0, 0.0], [0.0], "zero"))
        items.append(([0.05, 0.3], [-0.5, 0.0, 0.5, 1.0], "negative-with-zero"))
        assert any(item is tikhonov for item in items)
        assert np.min(np.abs(support)) == 0.0
        kept = support[np.abs(support) > 1e-12]
        powers = kept[None, :] ** np.arange(1, len(moments) + 1)[:, None]
        assert np.linalg.cond(powers.T @ powers) > 1e15
        assert len({(len(m), int(np.sum(np.abs(s) > 1e-12))) for m, s, _ in items}) >= 5

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stacked = reconstruct.pseudoinverse_stack(items)
        lone_warnings = []
        for item, dist in zip(items, stacked):
            with warnings.catch_warnings(record=True) as alone_caught:
                warnings.simplefilter("always")
                alone = pseudoinverse_reconstruct(*item)
            lone_warnings += alone_caught
            for expected in (alone, loop_pseudoinverse(*item)):
                assert dist.support.tobytes() == expected.support.tobytes()
                assert dist.probs.tobytes() == expected.probs.tobytes()
                assert dist.label == expected.label
        assert [(w.category, str(w.message)) for w in caught] == [
            (w.category, str(w.message)) for w in lone_warnings
        ]
        # the two hand-made negative items and some of the two-row ones warn
        assert len(caught) > 2 and {w.category for w in caught} == {InfeasibleRecoveryWarning}

    def test_empty_batch(self):
        assert reconstruct.pseudoinverse_stack([]) == []


class TestRmseMetrics:
    def test_identical_vectors(self):
        assert rmse_moments([0.1, 0.2, 0.3], [0.1, 0.2, 0.3], 3) == 0.0

    def test_single_discrepancy(self):
        d = 0.02
        assert rmse_moments([1, 2, 3, 4], [1, 2 + d, 3, 4], 4) == pytest.approx(d / 2)

    def test_requires_enough_entries(self):
        with pytest.raises(ValueError):
            rmse_moments([1.0], [1.0], 2)

    def test_identical_distributions(self):
        dist = EntropyDistribution(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        assert rmse_probs(dist, dist) == 0.0

    def test_formula(self):
        d = 0.1
        d1 = EntropyDistribution(np.array([-1.0, 0.0, 1.0, 2.0]), np.array([0.25] * 4))
        d2 = EntropyDistribution(
            np.array([-1.0, 0.0, 1.0, 2.0]), np.array([0.25 + d, 0.25 - d, 0.25, 0.25])
        )
        assert rmse_probs(d1, d2) == pytest.approx(math.sqrt(2 * d**2 / 4))

    def test_support_mismatch(self):
        d1 = EntropyDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        d2 = EntropyDistribution(np.array([0.0, 1.5]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="align"):
            rmse_probs(d1, d2)

    def test_empty_distributions_refused(self):
        # all mass infinite: nothing finite to compare, alone or in a list
        empty = EntropyDistribution(np.array([]), np.array([]), infinite_mass=1.0)
        dist = EntropyDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="no finite support to compare"):
            rmse_probs(empty, empty)
        with pytest.raises(ValueError, match="no finite support to compare"):
            rmse_probs([dist, empty], [dist, empty])
        with pytest.raises(ValueError, match="align"):
            rmse_probs(empty, dist)


class TestEndToEnd:
    def test_exact_chi_reproduces_distribution(self, dists):
        # full pipeline identity on both canonical dynamics at the default
        # moment count (the onset is bias-limited near N = support size)
        for name in ("fig3", "fig4"):
            p = build_protocol(preset(name))
            dist_a, dist_b, dist_ab, _ = bipartite_distributions(p)
            for dist in (dist_a, dist_b, dist_ab):
                n = 10
                assert n >= dist.support.size
                grid = chebyshev_nodes(n, PHI_MIN, PHI_MAX)
                mv = moments_via_vandermonde(grid, chi_values(p, dist.label, grid))
                rows = min(mv.nontrivial.size, dist.support.size)
                rec = pseudoinverse_reconstruct(mv.nontrivial[:rows], dist.support, dist.label)
                assert rmse_probs(dist, rec) <= 1e-6
