"""Target/recovered model evaluation, generation, and serialization."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gradleak import (
    GenerationError,
    RecoveredModel,
    TwoLayerNet,
    cell_mask,
    eval_target,
    generate_random_net,
    grad_target,
    load_net,
    load_recovered,
    recovered_from_net,
    save_net,
    save_recovered,
)
from gradleak.model import eval_recovered_batch, eval_target_batch


def two_unit_net(w=(1.0, -1.0)):
    return TwoLayerNet(A=np.eye(2), w=np.array(w))


class TestEvalTarget:
    def test_hand_case(self):
        net = two_unit_net()
        assert eval_target(net, (2.0, 3.0)) == pytest.approx(-1.0)

    def test_zero_input(self):
        net = generate_random_net(6, 3, seed=0)
        assert eval_target(net, np.zeros(6)) == 0.0

    def test_inactive_unit(self):
        net = TwoLayerNet(A=np.array([[1.0, 0.0]]), w=np.array([2.0]))
        assert eval_target(net, (-5.0, 7.0)) == 0.0

    def test_dimension_mismatch(self):
        net = two_unit_net()
        with pytest.raises(ValueError):
            eval_target(net, (1.0, 2.0, 3.0))


class TestGradTarget:
    def test_both_active(self):
        net = two_unit_net()
        assert_allclose(grad_target(net, (2.0, 3.0)), [1.0, -1.0])

    def test_one_inactive(self):
        net = two_unit_net()
        assert_allclose(grad_target(net, (2.0, -3.0)), [1.0, 0.0])

    def test_none_active(self):
        net = two_unit_net()
        assert_allclose(grad_target(net, (-1.0, -1.0)), [0.0, 0.0])

    def test_boundary_indicator_closed_at_zero(self):
        net = TwoLayerNet(A=np.array([[1.0, 0.0]]), w=np.array([2.0]))
        assert_allclose(grad_target(net, (0.0, 1.0)), [2.0, 0.0])


class TestCellMask:
    def test_signs(self):
        net = two_unit_net()
        assert cell_mask(net, (2.0, -3.0)).tolist() == [1, 0]

    def test_zero_is_all_ones(self):
        net = generate_random_net(5, 4, seed=3)
        assert cell_mask(net, np.zeros(5)).tolist() == [1, 1, 1, 1]

    def test_single_row(self):
        net = TwoLayerNet(A=np.array([[1.0, 0.0]]), w=np.array([1.0]))
        assert cell_mask(net, (-1.0, 9.0)).tolist() == [0]


class TestEvalRecovered:
    def test_single_positive_row(self):
        model = RecoveredModel(Z=np.array([[1.0, 0.0]]), s=np.array([1, 0]))
        assert eval_recovered_batch(model, [(3.0, 5.0)])[0] == pytest.approx(3.0)

    def test_matches_target(self):
        model = RecoveredModel(
            Z=np.array([[1.0, 0.0], [0.0, -1.0]]), s=np.array([1, 0, 0, -1])
        )
        assert eval_recovered_batch(model, [(2.0, 3.0)])[0] == pytest.approx(-1.0)

    def test_zero_input(self):
        model = RecoveredModel(Z=np.array([[0.5, 0.5]]), s=np.array([0, -1]))
        assert eval_recovered_batch(model, np.zeros((1, 2)))[0] == 0.0

    def test_malformed_sign_pattern_rejected(self):
        model = RecoveredModel(Z=np.eye(2), s=np.array([1, 0, 1, 0]))
        with pytest.raises(ValueError, match="one nonzero per row pair"):
            model.validate_signs()

    def test_bad_alphabet_rejected_at_construction(self):
        with pytest.raises(ValueError):
            RecoveredModel(Z=np.eye(2), s=np.array([2, 0, 0, 1]))


class TestGenerator:
    def test_invariants_hold(self):
        net = generate_random_net(2, 2, c_min=0.5, w_min=0.1, seed=7)
        assert_allclose(np.sum(net.A**2, axis=1), 1.0, atol=1e-12)
        gram = np.abs(net.A @ net.A.T - np.eye(2))
        assert np.max(gram) <= 0.5
        assert np.min(np.abs(net.w)) >= 0.1

    def test_h_exceeding_d_rejected(self):
        with pytest.raises(ValueError):
            generate_random_net(2, 3, seed=0)

    def test_single_row(self):
        net = generate_random_net(10, 1, seed=0)
        assert net.h == 1 and net.d == 10
        assert np.sum(net.A**2) == pytest.approx(1.0)

    def test_deterministic(self):
        a = generate_random_net(8, 4, seed=11)
        b = generate_random_net(8, 4, seed=11)
        assert np.array_equal(a.A, b.A) and np.array_equal(a.w, b.w)

    def test_infeasible_gap_raises(self):
        # Nearly collinearity-free pairs in the plane are vanishingly rare.
        with pytest.raises(GenerationError):
            generate_random_net(2, 2, c_min=1.0 - 1e-9, seed=0)


class TestFunctionProperties:
    def test_piecewise_linearity_within_cell(self):
        rng = np.random.default_rng(5)
        net = generate_random_net(8, 5, seed=5)
        found = 0
        while found < 50:
            x, y = rng.standard_normal((2, 8))
            mid_masks = [
                cell_mask(net, theta * x + (1 - theta) * y).tolist()
                for theta in (0.0, 0.25, 0.5, 0.75, 1.0)
            ]
            if any(m != mid_masks[0] for m in mid_masks):
                continue
            found += 1
            for theta in (0.25, 0.5, 0.75):
                fx = eval_target(net, theta * x + (1 - theta) * y)
                expect = theta * eval_target(net, x) + (1 - theta) * eval_target(net, y)
                assert fx == pytest.approx(expect, rel=1e-9, abs=1e-12)

    def test_gradient_matches_directional_difference(self):
        rng = np.random.default_rng(6)
        net = generate_random_net(10, 6, seed=6)
        checked = 0
        while checked < 30:
            x = rng.standard_normal(10)
            if np.min(np.abs(net.A @ x)) < 1e-3:
                continue
            checked += 1
            vdir = rng.standard_normal(10)
            t = 1e-6
            quotient = (eval_target(net, x + t * vdir) - eval_target(net, x)) / t
            assert quotient == pytest.approx(float(grad_target(net, x) @ vdir), rel=1e-4, abs=1e-8)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(7)
        net = generate_random_net(7, 4, seed=7)
        for _ in range(30):
            x = rng.standard_normal(7)
            alpha = float(rng.uniform(0.1, 10.0))
            assert eval_target(net, alpha * x) == pytest.approx(
                alpha * eval_target(net, x), rel=1e-9, abs=1e-12
            )

    def test_reference_recovery_matches_everywhere(self):
        rng = np.random.default_rng(8)
        net = generate_random_net(12, 6, seed=8)
        model = recovered_from_net(
            net,
            permutation=rng.permutation(6),
            row_signs=rng.choice([-1.0, 1.0], size=6),
        )
        pts = rng.standard_normal((10_000, 12))
        f = eval_target_batch(net, pts)
        fhat = eval_recovered_batch(model, pts)
        assert np.max(np.abs(f - fhat) / (1.0 + np.abs(f))) <= 1e-9


class TestSerialization:
    def test_net_round_trip(self, tmp_path):
        net = generate_random_net(9, 4, seed=13)
        path = tmp_path / "net.json"
        save_net(net, path)
        loaded = load_net(path)
        assert np.array_equal(loaded.A, net.A)
        assert np.array_equal(loaded.w, net.w)

    def test_recovered_round_trip(self, tmp_path):
        net = generate_random_net(6, 3, seed=14)
        model = recovered_from_net(net)
        path = tmp_path / "rec.json"
        save_recovered(model, path)
        loaded = load_recovered(path)
        assert np.array_equal(loaded.Z, model.Z)
        assert np.array_equal(loaded.s, model.s)

    def test_recovered_signs_stay_integers(self, tmp_path):
        model = recovered_from_net(generate_random_net(6, 3, seed=14))
        assert model.s.dtype.kind == "i"
        path = tmp_path / "rec.json"
        save_recovered(model, path)
        assert all(type(v) is int for v in json.loads(path.read_text())["s"])
        assert load_recovered(path).s.dtype.kind == "i"

    def test_non_integer_sign_entry_not_truncated(self, tmp_path):
        # -1.9 truncated to -1 would load a corrupted file as a valid model.
        path = tmp_path / "rec.json"
        save_recovered(recovered_from_net(generate_random_net(6, 3, seed=14)), path)
        payload = json.loads(path.read_text())
        i = next(i for i, v in enumerate(payload["s"]) if v != 0)
        payload["s"][i] = 1.9 * payload["s"][i]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"\{-1, 0, 1\}"):
            load_recovered(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"d": 2, "h": 1, "A": [[1.0, 0.0]]}))
        with pytest.raises(ValueError):
            load_net(path)

    def test_inconsistent_header_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"d": 3, "h": 1, "A": [[1.0, 0.0]], "w": [1.0]}))
        with pytest.raises(ValueError):
            load_net(path)

    def test_non_unit_rows_rejected(self):
        with pytest.raises(ValueError):
            TwoLayerNet(A=np.array([[1.0, 1.0]]), w=np.array([1.0]))

    def test_dependent_rows_rejected(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            TwoLayerNet(A=a, w=np.array([1.0, 1.0]))
