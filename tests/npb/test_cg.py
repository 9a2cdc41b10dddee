"""CG: makea fidelity (official zeta!), CG iteration, power method."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.npb.cg import (
    clear_matrix_cache,
    conj_grad,
    make_matrix,
    power_method,
    run_cg,
)
from repro.npb.common import DEFAULT_MULTIPLIER, DEFAULT_SEED, NPBClass
from repro.npb.params import cg_params

MASK46 = (1 << 46) - 1


def reference_makea(params):
    """Straight-line NPB ``makea``: per-row sprnvc / vecset / outer product.

    Draws one Python-int ``randlc`` value at a time.  Returns the CSR
    matrix and the generator state after the last value consumed.
    """
    x = DEFAULT_SEED

    def randlc():
        nonlocal x
        x = (DEFAULT_MULTIPLIER * x) & MASK46
        return x / float(1 << 46)

    randlc()  # the driver's warm-up call
    n, nonzer = params.n, params.nonzer
    nn1 = 1
    while nn1 < n:
        nn1 *= 2
    ratio = params.rcond ** (1.0 / n)
    size = 1.0
    rows, cols, vals = [], [], []
    for iouter in range(1, n + 1):
        values, indices = [], []
        while len(values) < nonzer:
            vecelt = randlc()
            vecloc = randlc()
            i = int(vecloc * nn1) + 1
            if i > n or i in indices:
                continue
            values.append(vecelt)
            indices.append(i)
        if iouter in indices:
            values[indices.index(iouter)] = 0.5
        else:
            values.append(0.5)
            indices.append(iouter)
        v = np.asarray(values)
        idx = np.asarray(indices, dtype=np.int64) - 1
        block = np.outer(v, v) * size
        rows.append(np.repeat(idx, len(idx)))
        cols.append(np.tile(idx, len(idx)))
        vals.append(block.ravel())
        size *= ratio
    diag = np.arange(n, dtype=np.int64)
    rows.append(diag)
    cols.append(diag)
    vals.append(np.full(n, params.rcond - params.shift))
    a = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    return a, x


def assert_matches_reference(npb_class):
    params = cg_params(npb_class)
    ref, ref_state = reference_makea(params)
    clear_matrix_cache()
    for _ in range(2):  # generated, then served from the cache
        a, rng = make_matrix(params)
        assert np.array_equal(a.indptr, ref.indptr)
        assert np.array_equal(a.indices, ref.indices)
        assert np.array_equal(a.data, ref.data)
        assert rng.state == ref_state


@pytest.fixture(scope="module")
def matrix_s():
    return make_matrix(cg_params(NPBClass.S))[0]


class TestMakea:
    def test_shape_and_nnz(self, matrix_s):
        assert matrix_s.shape == (1400, 1400)
        # ~ n (nonzer+1)^2 * dedup factor.
        assert 40_000 < matrix_s.nnz < 120_000

    def test_symmetric(self, matrix_s):
        diff = (matrix_s - matrix_s.T).tocoo()
        assert np.abs(diff.data).max() < 1e-12 if diff.nnz else True

    def test_diagonal_dominant_negative_shift(self, matrix_s):
        # a(i,i) gets rcond - shift = 0.1 - 10 added: strongly negative
        # diagonal, which is what makes A - shift*I SPD-like for the
        # inverse power method.
        diag = matrix_s.diagonal()
        assert np.all(diag < 0)

    def test_class_s_matches_reference_builder(self):
        assert_matches_reference(NPBClass.S)

    @pytest.mark.slow
    def test_class_w_matches_reference_builder(self):
        assert_matches_reference(NPBClass.W)

    def test_deterministic(self):
        a1, _ = make_matrix(cg_params(NPBClass.S))
        a2, _ = make_matrix(cg_params(NPBClass.S))
        assert (a1 != a2).nnz == 0


class TestConjGrad:
    def test_solves_spd_system(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(50, 50))
        a = sp.csr_matrix(m @ m.T + 50 * np.eye(50))
        x = rng.normal(size=50)
        z, rnorm = conj_grad(a, x, inner_iterations=50)
        assert np.allclose(a @ z, x, atol=1e-6)
        assert rnorm < 1e-6

    def test_residual_norm_definition(self, matrix_s):
        x = np.ones(1400)
        z, rnorm = conj_grad(matrix_s, x, inner_iterations=5)
        assert rnorm == pytest.approx(np.linalg.norm(x - matrix_s @ z))


class TestPowerMethod:
    def test_diagonal_matrix_known_eigenvalue(self):
        # For A = diag(d), the power iteration converges to the dominant
        # |1/d|; zeta = shift + 1/(x.z) with z = A^-1 x.
        d = np.array([-2.0, -4.0, -8.0])
        a = sp.csr_matrix(np.diag(d))
        zeta, _ = power_method(a, shift=10.0, niter=50, inner_iterations=30)
        # x converges to the eigenvector of min |d| (=-2): zeta -> 10 - 2.
        assert zeta == pytest.approx(8.0, abs=1e-6)


class TestRunCG:
    def test_class_s_matches_official_zeta(self):
        result = run_cg("S")
        assert result.verified
        assert result.details["zeta"] == pytest.approx(8.5971775078648, abs=1e-10)

    @pytest.mark.slow
    def test_class_w_matches_official_zeta(self):
        result = run_cg("W")
        assert result.verified
        assert result.details["zeta"] == pytest.approx(10.362595087124, abs=1e-10)


class TestMatrixCache:
    def test_hit_returns_same_matrix_and_equivalent_stream(self):
        clear_matrix_cache()
        a1, rng1 = make_matrix(cg_params(NPBClass.S))
        a2, rng2 = make_matrix(cg_params(NPBClass.S))
        assert a1 is a2  # shared read-only artifact
        assert np.array_equal(rng1.generate(64), rng2.generate(64))

    def test_clear_evicts(self):
        clear_matrix_cache()
        a1, _ = make_matrix(cg_params(NPBClass.S))
        clear_matrix_cache()
        a2, _ = make_matrix(cg_params(NPBClass.S))
        assert a1 is not a2
        assert (a1 != a2).nnz == 0
