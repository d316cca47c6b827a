import ast
import inspect

import numpy as np
import pytest

import qmlp.quantum
from qmlp.network import (
    ShapeMismatch, classical_forward_batch, init_network_params, pm1, sign
)
from qmlp.quantum import (
    HALF_PI,
    QuantumConfig,
    first_layer,
    phi_a,
    projective_update,
    quantum_forward_batch,
    ry_update,
    weak_update,
)
from qmlp.rng import FORWARD, substream

from oracles import (
    QubitState,
    amplitude_projective_update,
    amplitude_ry_update,
    amplitude_weak_update,
    apply_ry,
    projective_measure,
    reference_forward,
    rotation_angle,
    ry_update_allocating,
    weak_measure,
    weak_measure_oracle,
    weak_update_allocating,
    where_forward_batch,
)


def random_state(rng):
    v = rng.normal(size=2)
    v /= np.linalg.norm(v)
    return QubitState(float(v[0]), float(v[1]))


def bloch(alpha, beta):
    """The Bloch pair (z, x) of real amplitudes."""
    alpha, beta = np.asarray(alpha), np.asarray(beta)
    return alpha * alpha - beta * beta, 2 * alpha * beta


def random_pairs(rng, n, dtype=np.float64):
    """n Bloch pairs spread over the unit circle, as `dtype`."""
    phi = rng.uniform(-np.pi, np.pi, n)
    return np.cos(phi).astype(dtype), np.sin(phi).astype(dtype)


def forward_one(params, x, cfg, rng):
    """quantum_forward_batch on the one-column batch x."""
    return quantum_forward_batch(params, np.asarray(x, dtype=np.float64)[:, None], cfg, [rng])


class TestPhiA:
    def test_limit_case_is_sign(self):
        for x in (-3.0, -0.01, 0.0, 0.2, 5.0):
            assert phi_a(x, 0.0) == (1.0 if x >= 0 else -1.0)

    def test_linear_branch(self):
        assert phi_a(0.5, 1.0) == 0.5

    def test_saturated_branch(self):
        for a in (0.1, 1.0, 3.7):
            assert phi_a(2 * a, a) == 1.0
            assert phi_a(-2 * a, a) == -1.0


class TestRotationAngle:
    def test_first_layer_positive_preact(self):
        assert rotation_angle(1, d_prev=0.0, preact=0.7, a=0.0) == 0.0

    def test_second_layer_flip(self):
        assert rotation_angle(2, d_prev=1.0, preact=-0.4, a=0.0) == np.pi

    def test_half_rotation(self):
        assert rotation_angle(2, d_prev=-1.0, preact=0.0, a=1.0) == -HALF_PI

    def test_first_layer_ignores_d_prev(self):
        assert rotation_angle(1, d_prev=-1.0, preact=0.3, a=0.5) == rotation_angle(
            1, d_prev=1.0, preact=0.3, a=0.5
        )

    def test_continuous_for_positive_a(self):
        xs = np.linspace(-2, 2, 4001)
        thetas = HALF_PI * (1.0 - phi_a(xs, 0.5))
        assert np.max(np.abs(np.diff(thetas))) < 0.01

    def test_piecewise_constant_at_a_zero(self):
        xs = np.linspace(-2, 2, 4001)
        thetas = HALF_PI * (1.0 - phi_a(xs, 0.0))
        assert set(np.unique(thetas)) == {0.0, np.pi}


class TestApplyRy:
    def test_pi_flips_zero_state_exactly(self):
        out = apply_ry(QubitState(1.0, 0.0), np.pi)
        assert (out.alpha, out.beta) == (0.0, 1.0)

    def test_identity(self):
        s = QubitState(0.6, 0.8)
        out = apply_ry(s, 0.0)
        assert (out.alpha, out.beta) == (0.6, 0.8)

    def test_half_pi_makes_equal_superposition(self):
        out = apply_ry(QubitState(1.0, 0.0), HALF_PI)
        assert np.isclose(out.alpha, 1 / np.sqrt(2))
        assert np.isclose(out.beta, 1 / np.sqrt(2))

    def test_matches_rotation_matrix(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = random_state(rng)
            theta = rng.uniform(-2 * np.pi, 2 * np.pi)
            out = apply_ry(s, theta)
            mat = np.array(
                [
                    [np.cos(theta / 2), -np.sin(theta / 2)],
                    [np.sin(theta / 2), np.cos(theta / 2)],
                ]
            )
            expected = mat @ np.array([s.alpha, s.beta])
            assert np.allclose([out.alpha, out.beta], expected, atol=1e-12)

    def test_exact_branches_equal_generic_rotation(self):
        rng = np.random.default_rng(1)
        for theta in (0.0, np.pi, -np.pi):
            s = random_state(rng)
            out = apply_ry(s, theta)
            mat = np.array(
                [
                    [np.cos(theta / 2), -np.sin(theta / 2)],
                    [np.sin(theta / 2), np.cos(theta / 2)],
                ]
            )
            expected = mat @ np.array([s.alpha, s.beta])
            assert np.allclose([out.alpha, out.beta], expected, atol=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            s = random_state(rng)
            out = apply_ry(s, rng.uniform(-7, 7))
            assert abs(out.norm_sq() - 1.0) < 1e-12

    @pytest.mark.parametrize("theta", [0.0, np.pi, -np.pi])
    def test_basis_maps_are_bitwise(self, theta):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(2, 1000))
        alpha, beta = v / np.linalg.norm(v, axis=0)
        expected = {0.0: (alpha, beta), np.pi: (-beta, alpha), -np.pi: (beta, -alpha)}[theta]
        out = amplitude_ry_update(alpha, beta, np.full(1000, theta))
        assert np.array_equal(out[0], expected[0]) and np.array_equal(out[1], expected[1])
        for i in range(20):  # scalar amplitudes and angle
            a, b = amplitude_ry_update(float(alpha[i]), float(beta[i]), theta)
            assert (float(a), float(b)) == (float(expected[0][i]), float(expected[1][i]))


class TestBlochRotation:
    def test_turns_the_amplitude_pair(self):
        rng = np.random.default_rng(31)
        v = rng.normal(size=(2, 1000))
        alpha, beta = v / np.linalg.norm(v, axis=0)
        theta = rng.uniform(-2 * np.pi, 2 * np.pi, 1000)
        got = ry_update(*bloch(alpha, beta), theta)
        want = bloch(*amplitude_ry_update(alpha, beta, theta))
        for x, y in zip(got, want):
            assert np.allclose(x, y, rtol=0, atol=1e-14)

    def test_exact_angles(self):
        rng = np.random.default_rng(32)
        z, x = random_pairs(rng, 1000)
        assert all(np.array_equal(a, b) for a, b in zip(ry_update(z, x, np.zeros(1000)), (z, x)))
        for theta in (np.pi, -np.pi):  # sin(pi) is 1.2e-16, not 0: no pole is exact here
            for a, b in zip(ry_update(z, x, np.full(1000, theta)), (-z, -x)):
                assert np.allclose(a, b, rtol=0, atol=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(33)
        z, x = ry_update(*random_pairs(rng, 1000), rng.uniform(-7, 7, 1000))
        assert np.max(np.abs(z * z + x * x - 1.0)) < 1e-14

    @pytest.mark.parametrize(
        "kernel", [pm1, sign, ry_update, weak_update, quantum_forward_batch],
        ids=lambda f: f.__name__,
    )
    def test_no_where_and_no_branch_in_the_channels(self, kernel):
        tree = ast.parse(inspect.getsource(kernel))
        names = [
            n.func.attr if isinstance(n.func, ast.Attribute) else getattr(n.func, "id", None)
            for n in ast.walk(tree) if isinstance(n, ast.Call)
        ]
        assert "where" not in names
        if kernel in (ry_update, weak_update):
            assert not any(isinstance(n, (ast.If, ast.IfExp)) for n in ast.walk(tree))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_the_allocating_form(self, dtype):
        rng = np.random.default_rng(4)
        exact = [0.0, np.pi, -np.pi, float(np.float32(np.pi)), -float(np.float32(np.pi))]
        theta = np.concatenate([np.repeat(exact, 200), rng.uniform(-2 * np.pi, 2 * np.pi, 4000)])
        z, x = random_pairs(rng, theta.size, dtype)
        theta = theta.astype(dtype)
        for got, want in zip(ry_update(z, x, theta), ry_update_allocating(z, x, theta)):
            assert got.dtype == dtype and got.tobytes() == want.tobytes()
        for t in exact:  # 0-d angle, scalar pair
            for got, want in zip(ry_update(1.0, 0.0, dtype(t)),
                                 ry_update_allocating(1.0, 0.0, dtype(t))):
                assert np.asarray(got).dtype == dtype
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        for i in range(50):  # 0-d everything
            got = ry_update(z[i], x[i], theta[i])
            want = ry_update_allocating(z[i], x[i], theta[i])
            assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes()
                       for a, b in zip(got, want))


class TestProjectiveMeasure:
    def test_basis_state_deterministic(self):
        for _ in range(50):
            out = projective_measure(QubitState(1.0, 0.0), np.random.default_rng(_))
            assert out.d == 1
            assert (out.post_state.alpha, out.post_state.beta) == (1.0, 0.0)
        # the kernel takes plain Python floats: +1 where u < (1 + z) / 2
        assert projective_update(1.0, 0.999) == 1
        assert (projective_update(0.5, 0.7), projective_update(0.5, 0.8)) == (1, -1)

    def test_consumes_exactly_one_draw(self):
        rng = np.random.default_rng(9)
        ctrl = np.random.default_rng(9)
        ctrl.random()
        projective_measure(QubitState(0.6, 0.8), rng)
        assert rng.random() == ctrl.random()

    def test_equal_superposition_frequency(self):
        rng = np.random.default_rng(10)
        u = rng.random(100000)
        amp = 1 / np.sqrt(2)
        d, _, _ = amplitude_projective_update(np.full(100000, amp), np.full(100000, amp), u)
        freq = np.mean(d == 1.0)
        sigma = np.sqrt(0.25 / 100000)
        assert abs(freq - 0.5) <= 3 * sigma

    def test_born_rule_after_rotation(self):
        # P(+1) = cos^2(theta/2) after rotating |0>
        rng = np.random.default_rng(11)
        n = 100000
        for theta in np.linspace(0.0, np.pi, 9):
            alpha, beta = amplitude_ry_update(np.ones(n), np.zeros(n), np.full(n, theta))
            u = rng.random(n)
            d, _, _ = amplitude_projective_update(alpha, beta, u)
            # the kernel samples the same law from <Z>; no draw here lies within rounding
            assert np.array_equal(projective_update(bloch(alpha, beta)[0], u), d)
            p = np.cos(theta / 2) ** 2
            sigma = np.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(np.mean(d == 1.0) - p) <= max(3 * sigma, 2e-5)

    def test_post_state_is_basis(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            out = projective_measure(random_state(rng), rng)
            assert (out.post_state.alpha, out.post_state.beta) in ((1.0, 0.0), (0.0, 1.0))
            assert out.d == (1 if out.post_state.alpha == 1.0 else -1)


class TestWeakMeasure:
    def test_projective_limit_on_basis_state(self):
        for seed in range(30):
            out = weak_measure(QubitState(1.0, 0.0), HALF_PI, np.random.default_rng(seed))
            assert out.d == 1
            assert (out.post_state.alpha, out.post_state.beta) == (1.0, 0.0)

    def test_no_entanglement_limit(self):
        rng = np.random.default_rng(13)
        outcomes = []
        for _ in range(2000):
            s = QubitState(0.6, -0.8)
            out = weak_measure(s, 0.0, rng)
            outcomes.append(out.d)
            assert (out.post_state.alpha, out.post_state.beta) == (0.6, -0.8)
        freq = np.mean(np.array(outcomes) == 1)
        assert abs(freq - 0.5) <= 3 * np.sqrt(0.25 / 2000)

    def test_consumes_exactly_one_draw(self):
        rng = np.random.default_rng(14)
        ctrl = np.random.default_rng(14)
        ctrl.random()
        weak_measure(QubitState(0.6, 0.8), 0.3, rng)
        assert rng.random() == ctrl.random()

    def test_closed_form_matches_gate_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            s = random_state(rng)
            g = rng.uniform(0.0, HALF_PI)
            p_plus, post_plus, post_minus = weak_measure_oracle(s.alpha, s.beta, g)
            sin_g, cos_g = np.sin(g), np.cos(g)
            z, x = bloch(s.alpha, s.beta)
            assert abs(0.5 * (1 + z * sin_g) - p_plus) < 1e-12
            # force each outcome via the uniform draw and compare post-states
            for u, d_want, post in ((0.0, 1.0, post_plus), (1.0 - 1e-12, -1.0, post_minus)):
                d, oz, ox = weak_update(z, x, sin_g, cos_g, u)
                assert d == d_want
                assert np.allclose([oz, ox], bloch(*post), rtol=0, atol=1e-12)
                d, oa, ob = amplitude_weak_update(s.alpha, s.beta, sin_g, u)
                assert d == d_want
                assert np.allclose([oa, ob], post, rtol=0, atol=1e-12)

    def test_outcome_law_grid(self):
        # empirical frequencies match (1 + d z sin g)/2 on 10 states x 9 g
        rng = np.random.default_rng(16)
        n = 100000
        states = [random_state(rng) for _ in range(10)]
        for g in np.linspace(0.0, HALF_PI, 9):
            for s in states:
                z, x = bloch(s.alpha, s.beta)
                u = rng.random(n)
                d, _, _ = weak_update(np.full(n, z), np.full(n, x), np.sin(g), np.cos(g), u)
                p = 0.5 * (1 + z * np.sin(g))
                sigma = np.sqrt(max(p * (1 - p), 1e-12) / n)
                assert abs(np.mean(d == 1.0) - p) <= max(3 * sigma, 2e-5)

    def test_norm_preserved(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            s = random_state(rng)
            out = weak_measure(s, rng.uniform(0, HALF_PI), rng)
            assert abs(out.post_state.norm_sq() - 1.0) < 1e-12
        z, x = random_pairs(rng, 1000)
        g = rng.uniform(0, HALF_PI, 1000)
        _, z, x = weak_update(z, x, np.sin(g), np.cos(g), rng.random(1000))
        assert np.max(np.abs(z * z + x * x - 1.0)) < 1e-12

    def test_limits_are_exact(self):
        rng = np.random.default_rng(20)
        z, x = random_pairs(rng, 1000)
        d, oz, ox = weak_update(z, x, 0.0, 1.0, rng.random(1000))  # g = 0: a fair coin
        assert np.array_equal(oz, z) and np.array_equal(ox, x)
        assert abs(np.mean(d == 1.0) - 0.5) <= 3 * np.sqrt(0.25 / 1000)
        for seed in range(30):  # g = pi/2 on |0>
            d, oz, ox = weak_update(1.0, 0.0, 1.0, 0.0, np.random.default_rng(seed).random())
            assert (d, oz, ox) == (1.0, 1.0, 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_the_allocating_form(self, dtype):
        rng = np.random.default_rng(19)
        z, x = random_pairs(rng, 5000, dtype)
        u = rng.random(5000, dtype=dtype)
        gs = [0.0, HALF_PI] + list(rng.uniform(0, HALF_PI, 4))  # sin g = 0 and 1 first
        for sin_g, cos_g in [(dtype(np.sin(g)), dtype(np.cos(g))) for g in gs]:
            cases = [(z, x, u), (z[0], x[0], u)]  # arrays; a scalar pair
            cases += [(z[i], x[i], u[i]) for i in range(50)]  # 0-d everything
            for args in cases:
                got = weak_update(args[0], args[1], sin_g, cos_g, args[2])
                want = weak_update_allocating(args[0], args[1], sin_g, cos_g, args[2])
                for x_got, x_want in zip(got, want):
                    assert np.asarray(x_got).dtype == dtype
                    assert np.asarray(x_got).tobytes() == np.asarray(x_want).tobytes()

    def test_matches_the_amplitude_reference(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            s = random_state(rng)
            g = rng.uniform(0, HALF_PI)
            seed = int(rng.integers(0, 1 << 32))
            out = weak_measure(s, g, np.random.default_rng(seed))
            u = np.random.default_rng(seed).random()
            p_plus = 0.5 * (1 + s.z_expectation() * np.sin(g))
            if abs(u - p_plus) < 1e-9:  # the two forms round p(+1) differently
                continue
            d, oz, ox = weak_update(*bloch(s.alpha, s.beta), np.sin(g), np.cos(g), u)
            assert out.d == d
            want = bloch(out.post_state.alpha, out.post_state.beta)
            assert np.allclose([oz, ox], want, rtol=0, atol=1e-12)


class TestFlipProbability:
    def flip_rate(self, g, trials, seed):
        """Rotate pole neurons with a=0, weakly measure, count flips."""
        rng = np.random.default_rng(seed)
        d_prev = np.where(rng.random(trials) < 0.5, 1.0, -1.0)
        preact = rng.normal(size=trials)
        target = np.where(preact >= 0, 1.0, -1.0)
        z, x = ry_update(d_prev, np.zeros(trials), HALF_PI * (d_prev - target))
        d, _, _ = weak_update(z, x, np.sin(g), np.cos(g), rng.random(trials))
        return float(np.mean(d != target))

    def test_flip_rate_matches_law(self):
        n = 100000
        for g in (0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8, HALF_PI):
            p = 0.5 * (1 - np.sin(g))
            sigma = np.sqrt(max(p * (1 - p), 1e-12) / n)
            rate = self.flip_rate(g, n, seed=int(g * 1000) + 1)
            assert abs(rate - p) <= max(3 * sigma, 2e-5), f"g={g}"

    def test_projective_never_flips(self):
        assert self.flip_rate(HALF_PI, 10000, seed=5) == 0.0


class TestQuantumForward:
    def test_matches_scalar_op_loop(self):
        rng = np.random.default_rng(19)
        for cfg in (
            QuantumConfig(a=0.0),
            QuantumConfig(a=0.6),
            QuantumConfig(a=0.0, g=0.9),
            QuantumConfig(a=0.4, g=1.1),
        ):
            for _ in range(5):
                params = init_network_params(5, 4, 2, 3, rng)
                x = rng.uniform(0, 1, size=5)
                seed = int(rng.integers(0, 1 << 32))
                trace = forward_one(params, x, cfg, np.random.default_rng(seed))
                z_ref, d_ref, f_ref = reference_forward(
                    params, x, cfg, np.random.default_rng(seed)
                )
                for a, b in zip(trace.D, d_ref):
                    assert np.array_equal(a[:, 0], b)
                for a, b in zip(trace.Z, z_ref):
                    assert np.array_equal(a[:, 0], b)
                assert np.array_equal(trace.F[:, 0], f_ref)

    def test_classical_limit_bitwise(self):
        rng = np.random.default_rng(20)
        cfg = QuantumConfig(a=0.0, g=HALF_PI)
        for _ in range(200):
            layers = int(rng.integers(1, 4))
            params = init_network_params(6, 5, layers, 3, rng)
            x = rng.uniform(0, 1, size=6)
            seed = int(rng.integers(0, 1 << 63))
            q = forward_one(params, x, cfg, np.random.default_rng(seed))
            c = classical_forward_batch(params, x[:, None])
            for dq, dc in zip(q.D, c.D):
                assert np.array_equal(dq, dc)
            for zq, zc in zip(q.Z, c.Z):
                assert np.array_equal(zq, zc)
            assert np.array_equal(q.F, c.F)

    def test_saturated_stretch_is_deterministic(self):
        # a > 0 but every |z| >= a: all angles are 0 or +-pi
        rng = np.random.default_rng(22)
        params = init_network_params(6, 5, 2, 3, rng)
        params.W = [w * 500.0 for w in params.W]
        x = rng.uniform(0.5, 1.0, size=6)
        c = classical_forward_batch(params, x[:, None])
        assert all(np.all(np.abs(z) >= 1.0) for z in c.Z)
        cfg = QuantumConfig(a=1.0, g=HALF_PI)
        for seed in range(20):
            q = forward_one(params, x, cfg, np.random.default_rng(seed))
            assert np.array_equal(q.F, c.F)
            for dq, dc in zip(q.D, c.D):
                assert np.array_equal(dq, dc)

    def test_draw_count_is_layers_times_neurons(self):
        rng = np.random.default_rng(22)
        params = init_network_params(6, 5, 3, 3, rng)
        x = rng.uniform(0, 1, size=6)
        for dtype in (np.float64, np.float32):  # L * n draws of the pass's dtype
            gen = np.random.default_rng(7)
            ctrl = np.random.default_rng(7)
            ctrl.random(3 * 5, dtype=dtype)
            cfg = QuantumConfig(a=0.7, g=1.0)
            quantum_forward_batch(params, x.astype(dtype)[:, None], cfg, [gen])
            assert gen.random() == ctrl.random()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "a, g",
        [(0.316227766, HALF_PI), (0.0, 5 * np.pi / 19), (0.4641588834, 9 * np.pi / 19)],
        ids=["projective", "a-zero-weak", "bloch"],
    )
    def test_bytes_equal_the_column_scatter_form(self, a, g, dtype):
        # L * n = 15 is odd; B = 512 is a 2x128 net's evaluation pass
        rng = np.random.default_rng(24)
        params = init_network_params(6, 5, 3, 3, rng)
        params.W = [w.astype(dtype) for w in params.W]
        cfg = QuantumConfig(a=a, g=g)
        for B in (1, 63, 64, 65, 130, 512):
            X = rng.uniform(0, 1, size=(6, B)).astype(dtype)
            streams = [substream(B, FORWARD, 0, 0, s) for s in range(B)]
            trace = quantum_forward_batch(params, X, cfg, streams)
            streams = [substream(B, FORWARD, 0, 0, s) for s in range(B)]
            z_ref, d_ref, f_ref = where_forward_batch(params, X, cfg, streams)
            for got, want in zip(trace.Z + trace.D + [trace.F], z_ref + d_ref + [f_ref]):
                assert got.dtype == dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_one_generator_per_sample(self, extra):
        rng = np.random.default_rng(25)
        params = init_network_params(6, 5, 2, 3, rng)
        X = rng.uniform(0, 1, size=(6, 4))
        streams = [substream(4, FORWARD, 0, 0, s) for s in range(4 + extra)]
        with pytest.raises(ShapeMismatch, match=f"^need 4 sample generators, got {4 + extra}$"):
            quantum_forward_batch(params, X, QuantumConfig(a=0.3), streams)

    def test_batch_matches_per_sample(self):
        rng = np.random.default_rng(23)
        params = init_network_params(6, 5, 2, 3, rng)
        X = rng.uniform(0, 1, size=(8, 6))
        for layers, cfg in (
            (2, QuantumConfig(a=0.5)),
            (2, QuantumConfig(a=0.3, g=1.0)),
            # the paper's weak-path points: exact angles next to generic ones
            (3, QuantumConfig(a=0.0, g=5 * np.pi / 19)),
            (3, QuantumConfig(a=0.4641588834, g=9 * np.pi / 19)),
            # projective nets against the amplitude_projective_update oracle
            (3, QuantumConfig(a=0.1)),
            (3, QuantumConfig(a=0.316227766)),
            (3, QuantumConfig(a=1.0)),
            # a = 0 weak nets: the pole branch against the amplitude oracle
            (3, QuantumConfig(a=0.0, g=np.pi / 19)),
            (3, QuantumConfig(a=0.0, g=0.0)),
        ):
            if params.num_hidden_layers != layers:
                params = init_network_params(6, 5, layers, 3, rng)
            seeds = [int(rng.integers(0, 1 << 32)) for _ in range(8)]
            batch = quantum_forward_batch(
                params, X.T, cfg, [np.random.default_rng(s) for s in seeds]
            )
            for s in range(8):
                z_ref, d_ref, f_ref = reference_forward(
                    params, X[s], cfg, np.random.default_rng(seeds[s])
                )
                for k in range(layers):
                    assert np.allclose(batch.Z[k][:, s], z_ref[k], rtol=0, atol=1e-12)
                    assert np.array_equal(batch.D[k + 1][:, s], d_ref[k + 1])
                assert np.allclose(batch.F[:, s], f_ref, rtol=0, atol=1e-12)

    def test_projective_path_needs_no_amplitude_kernels(self, monkeypatch):
        rng = np.random.default_rng(25)
        params = init_network_params(6, 5, 3, 3, rng)
        X = rng.uniform(0, 1, size=(6, 16))
        cfg = QuantumConfig(a=0.316227766)

        def streams():
            return [substream(4, FORWARD, s) for s in range(16)]

        def refuse(*args):
            raise AssertionError("amplitude kernel called")

        before = quantum_forward_batch(params, X, cfg, streams())
        monkeypatch.setattr(qmlp.quantum, "ry_update", refuse)
        monkeypatch.setattr(qmlp.quantum, "weak_update", refuse)
        after = quantum_forward_batch(params, X, cfg, streams())
        for d_before, d_after in zip(before.D, after.D):
            assert np.array_equal(d_before, d_after)
        assert np.array_equal(before.F, after.F)
        with pytest.raises(AssertionError):  # the weak path still rotates Bloch pairs
            quantum_forward_batch(params, X, QuantumConfig(a=0.3, g=1.0), streams())

    @pytest.mark.parametrize("g", [0.0, np.pi / 19, 5 * np.pi / 19, 9 * np.pi / 19])
    def test_a_zero_axis_needs_no_amplitude_kernels(self, g, monkeypatch):
        rng = np.random.default_rng(27)
        params = init_network_params(6, 5, 3, 3, rng)
        X = rng.uniform(0, 1, size=(6, 16))
        cfg = QuantumConfig(a=0.0, g=g)

        def streams():
            return [substream(4, FORWARD, s) for s in range(16)]

        def refuse(*args):
            raise AssertionError("amplitude kernel called")

        before = quantum_forward_batch(params, X, cfg, streams())
        for name in ("ry_update", "weak_update"):
            monkeypatch.setattr(qmlp.quantum, name, refuse)
        after = quantum_forward_batch(params, X, cfg, streams())
        for d_before, d_after in zip(before.D, after.D):
            assert np.array_equal(d_before, d_after)
        assert np.array_equal(before.F, after.F)
        with pytest.raises(AssertionError):  # a > 0 with g < pi/2 still rotates Bloch pairs
            quantum_forward_batch(params, X, QuantumConfig(a=0.3, g=1.0), streams())

    def test_a_zero_flip_rates(self):
        # A weak flip leaves the qubit on its pole and keys the next rotation on the
        # outcome, so d != sign(z) at rate q in layer 1 and 2q(1 - q) after.
        rng = np.random.default_rng(28)
        params = init_network_params(20, 256, 3, 10, rng)
        B, g = 128, 5 * np.pi / 19
        trace = quantum_forward_batch(
            params, rng.uniform(0, 1, size=(20, B)), QuantumConfig(a=0.0, g=g),
            [substream(6, FORWARD, s) for s in range(B)],
        )
        q = 0.5 * (1.0 - np.sin(g))
        for k, expected in enumerate((q, 2 * q * (1 - q), 2 * q * (1 - q))):
            rate = np.mean(trace.D[k + 1] != sign(trace.Z[k]))
            sigma = np.sqrt(expected * (1 - expected) / trace.Z[k].size)
            assert abs(rate - expected) <= 4 * sigma, f"layer {k + 1}: {rate} vs {expected}"

    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-24])  # float32 draws are in [0, 1)
    def test_classical_limit_exact_for_extreme_float32_draws(self, u):
        class ConstantDraws:
            def random(self, size, dtype, out):
                assert dtype == out.dtype == np.float32
                out.fill(u)
                return out

        rng = np.random.default_rng(27)
        cfg = QuantumConfig(a=0.0, g=HALF_PI)
        for layers in (1, 2, 3):
            params = init_network_params(6, 5, layers, 3, rng)
            X = rng.uniform(-1, 1, size=(6, 32)).astype(np.float32)
            q = quantum_forward_batch(params, X, cfg, [ConstantDraws() for _ in range(32)])
            c = classical_forward_batch(params, X)
            for dq, dc in zip(q.D, c.D):
                assert np.array_equal(dq, dc)
            assert np.array_equal(q.F, c.F) and q.F.dtype == np.float32

    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
    def test_classical_limit_exact_for_extreme_draws(self, u):
        class ConstantDraws:
            def random(self, size, dtype, out):
                out.fill(u)
                return out

        rng = np.random.default_rng(26)
        cfg = QuantumConfig(a=0.0, g=HALF_PI)
        for layers in (1, 2, 3):
            params = init_network_params(6, 5, layers, 3, rng)
            X = rng.uniform(-1, 1, size=(6, 32))
            q = quantum_forward_batch(params, X, cfg, [ConstantDraws() for _ in range(32)])
            c = classical_forward_batch(params, X)
            for dq, dc in zip(q.D, c.D):
                assert np.array_equal(dq, dc)
            assert np.array_equal(q.F, c.F)

    @pytest.mark.parametrize(
        "a, g",
        [
            (0.4641588834, 9 * np.pi / 19),
            (0.0, 5 * np.pi / 19),
            (0.316227766, HALF_PI),
            (0.0, HALF_PI),
            (0.5, 1.57079632),
        ],
    )
    def test_precomputed_first_layer_gives_the_same_pass(self, a, g, monkeypatch):
        rng = np.random.default_rng(29)
        params = init_network_params(6, 5, 3, 3, rng)
        X = rng.uniform(0, 1, size=(6, 16))
        cfg = QuantumConfig(a=a, g=g)

        def streams():
            return [substream(5, FORWARD, s) for s in range(16)]

        first = first_layer(params, X, cfg)
        inline = quantum_forward_batch(params, X, cfg, streams())

        def refuse(*args):
            raise AssertionError("first_layer recomputed")

        monkeypatch.setattr(qmlp.quantum, "first_layer", refuse)
        shared = quantum_forward_batch(params, X, cfg, streams(), first=first)
        assert shared.Z[0] is first[0]
        for a_list, b_list in ((inline.Z, shared.Z), (inline.D, shared.D)):
            for x, y in zip(a_list, b_list):
                assert np.array_equal(x, y)
        assert np.array_equal(inline.F, shared.F)

    def test_first_layer_state(self):
        rng = np.random.default_rng(30)
        params = init_network_params(6, 5, 2, 3, rng)
        X = rng.uniform(-1, 1, size=(6, 8))
        Z = params.W[0] @ X
        for cfg in (QuantumConfig(a=0.3), QuantumConfig(a=0.0, g=1.0)):  # the pole branch
            got_z, z_mean = first_layer(params, X, cfg)
            assert np.array_equal(got_z, Z)
            assert np.array_equal(z_mean, np.sin(HALF_PI * phi_a(Z, cfg.a)))
        got_z, (z, x) = first_layer(params, X, QuantumConfig(a=0.3, g=1.0))
        theta = HALF_PI * (1.0 - phi_a(Z, 0.3))
        assert np.array_equal(got_z, Z)
        assert np.allclose(z, np.cos(theta), rtol=0, atol=1e-15)
        assert np.allclose(x, np.sin(theta), rtol=0, atol=1e-15)
        with pytest.raises(ShapeMismatch):
            first_layer(params, X[:5], QuantumConfig(a=0.3))

    def test_norms_stay_unit_through_circuit(self):
        # instrument by re-running the layer updates manually
        rng = np.random.default_rng(24)
        params = init_network_params(6, 5, 2, 3, rng)
        x_in = rng.uniform(0, 1, size=6)
        cfg = QuantumConfig(a=0.5, g=0.7)
        gen = substream(3, FORWARD, 0, 0, 0)
        z, x = np.ones(5), np.zeros(5)
        d_prev = np.asarray(x_in)
        for k in range(1, 3):
            pre = params.W[k - 1] @ d_prev
            base = 1.0 if k == 1 else d_prev
            z, x = ry_update(z, x, HALF_PI * (base - phi_a(pre, cfg.a)))
            assert np.max(np.abs(z * z + x * x - 1.0)) < 1e-12
            d, z, x = weak_update(z, x, np.sin(cfg.g), np.cos(cfg.g), gen.random(5))
            assert np.max(np.abs(z * z + x * x - 1.0)) < 1e-12
            d_prev = d

    @pytest.mark.parametrize("a, g", [(0.4641588834, 9 * np.pi / 19), (0.3, 1.0), (2.0, 0.3)])
    def test_outcome_statistics_match_the_amplitude_reference(self, a, g):
        # The Bloch pass and the amplitude-level pass sample the same law from the same
        # draws but round differently: an outcome differs only where a draw falls within
        # rounding of its probability, and a difference then spreads to later layers.
        rng = np.random.default_rng(34)
        params = init_network_params(20, 64, 3, 10, rng)
        B = 500
        X = rng.uniform(0, 1, size=(20, B)).astype(np.float32)
        cfg = QuantumConfig(a=a, g=g)
        trace = quantum_forward_batch(params, X, cfg, [substream(7, FORWARD, s) for s in range(B)])
        _, d_ref, _ = where_forward_batch(params, X, cfg, [substream(7, FORWARD, s)
                                                            for s in range(B)], amplitudes=True)
        for k in range(1, 4):
            got, want = trace.D[k], d_ref[k]
            assert got.dtype == want.dtype == np.float32
            assert np.mean(got != want) < 1e-3, f"layer {k}"
            # the +1 frequency of each layer, against the reference's binomial spread
            p = np.mean(want == 1.0)
            sigma = np.sqrt(p * (1 - p) / want.size)
            assert abs(np.mean(got == 1.0) - p) <= 3 * sigma, f"layer {k}"


class TestQuantumConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuantumConfig(a=-0.1)
        with pytest.raises(ValueError):
            QuantumConfig(a=0.0, g=2.0)
        with pytest.raises(ValueError):
            QuantumConfig(a=0.0, g=-0.1)

    def test_classical_point(self):
        assert QuantumConfig(a=0.0, g=HALF_PI).is_classical
        assert not QuantumConfig(a=0.1, g=HALF_PI).is_classical
        assert not QuantumConfig(a=0.0, g=1.0).is_classical
