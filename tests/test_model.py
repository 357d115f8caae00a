"""Target/recovered model evaluation, matrix checks and numerical rank, generation, serialization, and the
argument rules every entry point checks its counts, seeds and numbers by."""

import hashlib
import json
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gradleak import (
    ExtractionConfig,
    FiniteDiffConfig,
    GenerationError,
    RecoveredModel,
    SmoothGradConfig,
    TwoLayerNet,
    cell_mask,
    check_fd_exactness,
    eval_target,
    functional_equivalence,
    generate_random_net,
    grad_target,
    load_net,
    load_recovered,
    mc_cauchy_tail,
    mc_chi2_diff,
    mc_crossing_gap,
    mc_gaussian_product,
    rank_with_tolerance,
    recovered_from_net,
    save_net,
    save_recovered,
    select_parameters,
)
from gradleak import model
from gradleak.model import as_matrix, eval_recovered_batch, eval_target_batch


def two_unit_net(w=(1.0, -1.0)):
    return TwoLayerNet(A=np.eye(2), w=np.array(w))


def _exactly(message):
    return f"^{re.escape(message)}$"


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

    @pytest.mark.parametrize("bad", [0.5, -1.9, 2, float("nan")])
    def test_alphabet_refuses_what_isin_refused(self, bad):
        # The alphabet test is three comparisons; it refuses exactly the
        # entries np.isin(s, (-1, 0, 1)) refused.
        s = np.array([1, bad, 0, -1])
        assert not np.all(np.isin(s, (-1, 0, 1)))
        with pytest.raises(ValueError, match="lie in"):
            RecoveredModel(Z=np.eye(2), s=s)

    @pytest.mark.parametrize("entry", [None, {"s": 1}])
    def test_alphabet_refuses_an_object_array_from_json(self, entry, tmp_path):
        path = tmp_path / "rec.json"
        path.write_text(json.dumps({"d": 2, "h": 2, "Z": np.eye(2).tolist(), "s": [1, entry, 0, -1]}))
        s = np.array(json.loads(path.read_text())["s"])
        assert s.dtype == object and not np.all(np.isin(s, (-1, 0, 1)))
        with pytest.raises(ValueError, match="lie in"):
            load_recovered(path)

    @pytest.mark.parametrize("s", [[1, 0, 0, -1], [1.0, -0.0, 0.0, -1.0], np.array([1, 0, 0, -1], dtype=np.int8)])
    def test_alphabet_accepts_int_float_and_numpy_integer_signs(self, s):
        assert RecoveredModel(Z=np.eye(2), s=np.asarray(s)).s.tolist() == [1, 0, 0, -1]


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

    @pytest.mark.parametrize("w_min", [0.0, -1.0, math.nan, math.inf])
    def test_bad_w_min_refused_up_front(self, w_min):
        # |w| >= nan and |w| >= inf never hold: the weight draws would run
        # out their budget and blame the generator for a usage error.
        with pytest.raises(ValueError, match=_exactly(f"w_min must lie in (0, inf), got {w_min!r}")):
            generate_random_net(4, 2, w_min=w_min, seed=0)

    def test_single_row(self):
        net = generate_random_net(10, 1, seed=0)
        assert net.h == 1 and net.d == 10
        assert np.sum(net.A**2) == pytest.approx(1.0)

    def test_deterministic(self):
        a = generate_random_net(8, 4, seed=11)
        b = generate_random_net(8, 4, seed=11)
        assert np.array_equal(a.A, b.A) and np.array_equal(a.w, b.w)

    @pytest.mark.parametrize(
        "c_min, w_min, sha256",
        [
            (0.1, 0.1, "c346230730885aadf53eef793ec591f336e12323ea3f41248b36b0186eee27fd"),
            # About 87% of weight draws fall below 1.5 and are redrawn.
            (0.1, 1.5, "1b9786f8c80b823828cff706282fd1021f6f9fa1f9db70186b6ea2a9538eb970"),
            (0.01, 0.1, "f2b746d51d5a008ba7667df5f77665520628c19e9bdd8dcfc1be60bd7dbd4df4"),
            (0.01, 1.5, "8d63ddffd0d72fc4fd1b195ddc1291b38a388982f248cd7d6e85a92d50f31fc3"),
        ],
    )
    def test_generated_bytes_are_pinned(self, c_min, w_min, sha256):
        # Every net of a small grid, bit for bit: a change to the draws, their
        # order or the normalization moves the hash, where test_deterministic
        # only compares the code with itself.
        digest = hashlib.sha256()
        for d, h in ((1, 1), (2, 2), (5, 3), (16, 16), (20, 8)):
            for seed in range(5):
                net = generate_random_net(d, h, c_min=c_min, w_min=w_min, seed=seed)
                digest.update(net.A.tobytes() + net.w.tobytes())
        assert digest.hexdigest() == sha256

    def test_rank_is_checked_once_by_the_net(self, monkeypatch):
        calls = []
        rank = model.rank_with_tolerance
        monkeypatch.setattr(model, "rank_with_tolerance", lambda *args: calls.append(1) or rank(*args))
        generate_random_net(16, 16, seed=0)
        assert len(calls) == 1

    def test_dependent_draw_refused_by_the_net(self, monkeypatch):
        # Rows e1, e2 and (e1 + e2) / sqrt(2) pass the gap test at c_min = 0.1
        # but span a plane: TwoLayerNet refuses them rather than the generator
        # redrawing.
        class DependentRows:
            def standard_normal(self, size=None):
                return np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]) if size else 1.0

        monkeypatch.setattr(model.np.random, "default_rng", lambda seed: DependentRows())
        with pytest.raises(ValueError, match=_exactly("rows of A must be linearly independent")):
            generate_random_net(3, 3, seed=0)

    def test_infeasible_gap_raises(self):
        # Nearly collinearity-free pairs in the plane are vanishingly rare.
        with pytest.raises(GenerationError):
            generate_random_net(2, 2, c_min=1.0 - 1e-9, seed=0)

    @pytest.mark.parametrize("c_min", [0.0, 1.0, -0.5, math.nan])
    def test_c_min_outside_the_open_unit_interval_refused(self, c_min):
        with pytest.raises(ValueError, match=r"c_min must lie in \(0, 1\)"):
            generate_random_net(4, 2, c_min=c_min, seed=0)

    @pytest.mark.parametrize("count", [4.0, 2.5, True, np.float64(4.0)])
    @pytest.mark.parametrize("name", ["d", "h"])
    def test_non_integer_count_refused(self, name, count):
        # 4.0 and 2.5 leaked numpy's TypeError; True ran as 1.
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            generate_random_net(**{"d": 4, "h": 1, name: count, "seed": 0})

    @pytest.mark.parametrize("seed", [1.5, True, -1, "0"])
    def test_seed_that_is_not_a_non_negative_integer_refused(self, seed):
        # 1.5 leaked SeedSequence's TypeError and True ran as seed 1.
        with pytest.raises(ValueError, match="seed must be None or a non-negative integer"):
            generate_random_net(4, 2, seed=seed)

    def test_numpy_integers_give_the_same_net(self):
        a = generate_random_net(np.int64(6), np.int64(3), seed=np.int64(5))
        b = generate_random_net(6, 3, seed=5)
        assert a.A.tobytes() == b.A.tobytes() and a.w.tobytes() == b.w.tobytes()

    def test_unreachable_weight_floor_raises(self):
        # A standard Gaussian weight never reaches 50 within the draw budget.
        with pytest.raises(GenerationError, match="could not draw weight 0 with"):
            generate_random_net(4, 2, w_min=50.0, seed=0)


class TestConstructionRefusals:
    # Each malformed parameter is a ValueError that names it.
    @pytest.mark.parametrize(
        "a, w, match",
        [
            (np.ones(2), [1.0], "A must be a 2-D matrix, got ndim=1"),
            (np.ones((3, 2)) / math.sqrt(2.0), [1.0, 1.0, 1.0], r"need 1 <= h <= d, got h=3, d=2"),
            (np.eye(2), [1.0], r"w must have shape \(2,\)"),
            (np.eye(2), [[1.0, 1.0]], r"w must have shape \(2,\)"),
            ([[math.nan, 0.0], [0.0, 1.0]], [1.0, 1.0], "A entries must be finite"),
            ([[1.0, 0.0], [0.0, math.inf]], [1.0, 1.0], "A entries must be finite"),
            (np.eye(2), [1.0, math.nan], "w entries must be finite"),
        ],
    )
    def test_two_layer_net(self, a, w, match):
        with pytest.raises(ValueError, match=match):
            TwoLayerNet(A=np.asarray(a), w=np.asarray(w))

    @pytest.mark.parametrize(
        "z, s, match",
        [
            (np.ones(2), [1, 0, 0, 0], "Z must be a 2-D matrix, got ndim=1"),
            (np.ones((1, 2, 2)), [1, 0], "Z must be a 2-D matrix, got ndim=3"),
            (np.eye(2), [1, 0, 0], r"s must have shape \(4,\)"),
            ([[1.0, 0.0], [0.0, math.nan]], [1, 1, 0, 0], "Z entries must be finite"),
        ],
    )
    def test_recovered_model(self, z, s, match):
        with pytest.raises(ValueError, match=match):
            RecoveredModel(Z=np.asarray(z), s=np.asarray(s))

    @pytest.mark.parametrize("pts", [np.ones((3, 3)), np.ones(2), np.ones((2, 2, 1))])
    def test_batch_points_of_the_wrong_shape(self, pts):
        net = two_unit_net()
        with pytest.raises(ValueError, match=r"points must have shape \(k, 2\)"):
            eval_target_batch(net, pts)
        with pytest.raises(ValueError, match=r"points must have shape \(k, 2\)"):
            eval_recovered_batch(recovered_from_net(net), pts)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"permutation": [0, 0]}, "permutation must be a bijection"),
            ({"permutation": [0, 2]}, "permutation must be a bijection"),
            ({"row_signs": [1.0, 0.0]}, r"row_signs entries must be \+-1"),
            ({"row_signs": [1.0, 2.0]}, r"row_signs entries must be \+-1"),
            ({"row_signs": [1.0]}, r"row_signs entries must be \+-1, 2 of them"),
            ({"row_signs": [1.0, 1.0, 1.0]}, r"row_signs entries must be \+-1, 2 of them"),
            ({"row_signs": [[1.0, -1.0]]}, r"row_signs entries must be \+-1, 2 of them"),
        ],
    )
    def test_recovered_from_net(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            recovered_from_net(two_unit_net(), **kwargs)

    @pytest.mark.parametrize("m", [np.ones(3), np.ones((1, 2, 2)), 1.0])
    def test_as_matrix_refuses_other_ranks(self, m):
        with pytest.raises(ValueError, match="matrix must be a 2-D matrix"):
            as_matrix(m)
        with pytest.raises(ValueError, match="^ZX must be a 2-D matrix"):
            as_matrix(m, "ZX")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_as_matrix_refuses_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="^matrix entries must be finite"):
            as_matrix([[1.0, bad]])
        with pytest.raises(ValueError, match="^Z entries must be finite"):
            as_matrix([[1.0, bad]], "Z")

    @pytest.mark.parametrize("z", [[1.0, 0.0], [[1.0, math.nan]]])
    def test_a_corrupt_recovered_file_names_its_key(self, tmp_path, z):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"d": 2, "h": 1, "Z": z, "s": [1, 0]}))  # Python's json reads NaN
        with pytest.raises(ValueError, match="^Z "):
            load_recovered(path)


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


def _recovered_from_net_reference(net, perm, signs):
    """recovered_from_net's row-by-row form, the reference its array form must equal bit for bit."""
    h = net.h
    z = np.empty_like(net.A)
    s = np.zeros(2 * h, dtype=int)
    for i in range(h):
        row = perm[i]
        z[row] = signs[i] * net.w[i] * net.A[i]
        if signs[i] * net.w[i] > 0:
            s[row] = int(np.sign(net.w[i]))
        else:
            s[h + row] = int(np.sign(net.w[i]))
    return z, s


class TestRecoveredFromNetReference:
    def test_equals_the_row_by_row_reference(self):
        rng = np.random.default_rng(36)
        for trial in range(100):
            h = int(rng.integers(1, 9))
            net = generate_random_net(h + int(rng.integers(0, 5)), h, seed=trial)
            perm, signs = rng.permutation(h), rng.choice([-1.0, 1.0], size=h)
            for args, ref in (((), (np.arange(h), np.ones(h))), ((perm, signs), (perm, signs))):
                model = recovered_from_net(net, *args)
                z, s = _recovered_from_net_reference(net, *ref)
                assert model.Z.tobytes() == z.tobytes() and model.s.tobytes() == s.tobytes(), f"trial {trial}"
                assert (model.Z.dtype, model.s.dtype) == (z.dtype, s.dtype)


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

    @pytest.mark.parametrize("loader", [load_net, load_recovered])
    @pytest.mark.parametrize("payload", [5, "d h A w Z s", [["d", "h"]], None])
    def test_non_object_payload_rejected(self, tmp_path, loader, payload):
        # Valid JSON that is not an object must be refused, not indexed: a
        # string passes a key check by substring.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="must hold a JSON object"):
            loader(path)

    @pytest.mark.parametrize(
        "loader, payload, key",
        [
            (load_net, {"d": 2, "h": 1, "A": [[1.0, 0.0]], "w": [1.0]}, "A"),
            (load_net, {"d": 2, "h": 1, "A": [[1.0, 0.0]], "w": [1.0]}, "w"),
            (load_recovered, {"d": 2, "h": 1, "Z": [[1.0, 0.0]], "s": [1, 0]}, "Z"),
        ],
    )
    @pytest.mark.parametrize("bad", [{"x": 1}, [{"x": 1}]])
    def test_non_numeric_matrix_rejected(self, tmp_path, loader, payload, key, bad):
        # A JSON object where numbers belong is a ValueError naming the key,
        # not a TypeError from the float conversion.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**payload, key: bad}))
        with pytest.raises(ValueError, match=f"key '{key}' must hold numbers"):
            loader(path)

    @pytest.mark.parametrize(
        "loader, payload",
        [
            (load_net, {"d": 3, "h": 1, "A": [[1.0, 0.0]], "w": [1.0]}),
            (load_recovered, {"d": 3, "h": 1, "Z": [[1.0, 0.0]], "s": [1, 0]}),
            (load_recovered, {"d": 2, "h": 2, "Z": [[1.0, 0.0]], "s": [1, 0]}),
        ],
    )
    def test_inconsistent_header_rejected(self, tmp_path, loader, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="dimensions disagree with its matrices"):
            loader(path)

    @pytest.mark.parametrize(
        "save, loader, kind",
        [
            (save_net, load_net, "model"),
            (lambda net, path: save_recovered(recovered_from_net(net), path), load_recovered, "recovered"),
        ],
    )
    @pytest.mark.parametrize("key, bad", [("d", 2.0), ("h", True)])
    def test_header_count_that_is_not_an_integer_rejected(self, tmp_path, save, loader, kind, key, bad):
        # "d": 2.0 and "h": true compared equal to the matrices' 2 and 1.
        path = tmp_path / "net.json"
        save(generate_random_net(2, 1, seed=0), path)
        path.write_text(json.dumps({**json.loads(path.read_text()), key: bad}))
        message = f"{kind} file {key} must be an integer of at least 0, got {bad!r}"
        with pytest.raises(ValueError, match=_exactly(message)):
            loader(path)

    def test_non_unit_rows_rejected(self):
        with pytest.raises(ValueError):
            TwoLayerNet(A=np.array([[1.0, 1.0]]), w=np.array([1.0]))

    def test_dependent_rows_rejected(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            TwoLayerNet(A=a, w=np.array([1.0, 1.0]))


class TestRank:
    def test_identity(self):
        assert rank_with_tolerance(np.eye(3), 1e-9) == 3

    def test_proportional_rows(self):
        assert rank_with_tolerance([[1.0, 2.0], [2.0, 4.0]], 1e-9) == 1

    def test_zero(self):
        assert rank_with_tolerance(np.zeros((3, 4)), 1e-9) == 0

    def test_empty(self):
        assert rank_with_tolerance(np.zeros((0, 3)), 1e-9) == 0

    def test_rectangular(self):
        m = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 3.0]])
        assert rank_with_tolerance(m, 1e-9) == 2

    def test_near_dependency_respects_tolerance(self):
        m = np.array([[1.0, 0.0], [1.0, 1e-12]])
        assert rank_with_tolerance(m, 1e-9) == 1
        assert rank_with_tolerance(m, 1e-14) == 2

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            rank_with_tolerance(np.eye(2), 0.0)

    def test_nan_tolerance(self):
        with pytest.raises(ValueError):
            rank_with_tolerance(np.eye(2), float("nan"))


# One entry point per row: (the argument's name, its interval, a call that passes it the value under test).
_NET = generate_random_net(4, 2, seed=0)
_REC = recovered_from_net(_NET)
NUMBERS = {
    "select_parameters.delta": ("delta", "(0, 1)", lambda x: select_parameters(x, 0.01, 4)),
    "select_parameters.c": ("c", "(0, 1]", lambda x: select_parameters(0.1, x, 4)),
    "ExtractionConfig.epsilon": ("epsilon", "(0, inf)", lambda x: ExtractionConfig(h=4, epsilon=x)),
    "SmoothGradConfig.sigma": ("sigma", "[0, inf)", lambda x: SmoothGradConfig(sigma=x)),
    "FiniteDiffConfig.eta": ("eta", "(0, inf)", lambda x: FiniteDiffConfig(eta=x)),
    "functional_equivalence.tol": ("tol", "[0, inf)", lambda x: functional_equivalence(_NET, _REC, 10, x)),
    "check_fd_exactness.rel_tol": ("rel_tol", "[0, inf)", lambda x: check_fd_exactness(_NET, FiniteDiffConfig(), 1, rel_tol=x)),
    "mc_crossing_gap.c": ("c", "(0, 1]", lambda x: mc_crossing_gap(x, 1e-3, 100)),
    "mc_crossing_gap.epsilon": ("epsilon", "[0, inf)", lambda x: mc_crossing_gap(0.5, x, 100)),
    "mc_cauchy_tail.l": ("l", "(0, inf)", lambda x: mc_cauchy_tail(x, 100)),
    "mc_chi2_diff.epsilon": ("epsilon", "[0, inf)", lambda x: mc_chi2_diff(x, 100)),
    "generate_random_net.c_min": ("c_min", "(0, 1)", lambda x: generate_random_net(4, 2, c_min=x)),
    "generate_random_net.w_min": ("w_min", "(0, inf)", lambda x: generate_random_net(4, 2, w_min=x)),
    "rank_with_tolerance.tol": ("tol", "(0, inf)", lambda x: rank_with_tolerance(np.eye(3), x)),
}
# (the count's name, the least it may be, a call that passes it the value under test).
COUNTS = {
    "select_parameters.h": ("h", 1, lambda n: select_parameters(0.1, 0.01, n)),
    "ExtractionConfig.max_retries": ("max_retries", 0, lambda n: ExtractionConfig(h=4, max_retries=n)),
    "SmoothGradConfig.n_samples": ("n_samples", 1, lambda n: SmoothGradConfig(n_samples=n)),
    "generate_random_net.d": ("d", 1, lambda n: generate_random_net(n, 1)),
    "generate_random_net.h": ("h", 1, lambda n: generate_random_net(4, n)),
    "functional_equivalence.n_points": ("n_points", 1, lambda n: functional_equivalence(_NET, _REC, n, 1e-7)),
    "mc_crossing_gap.samples": ("samples", 1, lambda n: mc_crossing_gap(0.5, 1e-3, n)),
    "mc_cauchy_tail.samples": ("samples", 1, lambda n: mc_cauchy_tail(10.0, n)),
    "mc_chi2_diff.samples": ("samples", 1, lambda n: mc_chi2_diff(0.1, n)),
    "mc_gaussian_product.samples": ("samples", 10_000, lambda n: mc_gaussian_product(n)),
    "check_fd_exactness.trials": ("trials", 1, lambda n: check_fd_exactness(_NET, FiniteDiffConfig(), n)),
}
SEEDS = {
    "ExtractionConfig.seed": lambda seed: ExtractionConfig(h=4, seed=seed),
    "SmoothGradConfig.seed": lambda seed: SmoothGradConfig(seed=seed),
    "generate_random_net.seed": lambda seed: generate_random_net(4, 2, seed=seed),
    "functional_equivalence.seed": lambda seed: functional_equivalence(_NET, _REC, 1, 1e-7, seed=seed),
    "check_fd_exactness.seed": lambda seed: check_fd_exactness(_NET, FiniteDiffConfig(), 1, seed=seed),
    "mc_crossing_gap.seed": lambda seed: mc_crossing_gap(0.5, 1e-3, 100, seed=seed),
    "mc_cauchy_tail.seed": lambda seed: mc_cauchy_tail(10.0, 100, seed=seed),
    "mc_chi2_diff.seed": lambda seed: mc_chi2_diff(0.1, 100, seed=seed),
    "mc_gaussian_product.seed": lambda seed: mc_gaussian_product(10_000, seed=seed),
}


class TestArgumentRules:
    """Every entry point refuses a count, a seed or a number by one rule, with one message per rule."""

    @pytest.mark.parametrize("flag", [True, np.True_])
    @pytest.mark.parametrize("entry", NUMBERS)
    def test_bool_number_refused(self, entry, flag):
        # Python counts True as the number 1: tol=True verified at tolerance 1.
        name, _, call = NUMBERS[entry]
        with pytest.raises(ValueError, match=_exactly(f"{name} must be a number, not a bool")):
            call(flag)

    # epsilon=None asks ExtractionConfig for select_parameters' resolution.
    @pytest.mark.parametrize("entry, x", [
        (entry, x) for entry in NUMBERS for x in (None, "0.1", math.nan, math.inf, -math.inf, -0.5)
        if (entry, x) != ("ExtractionConfig.epsilon", None)
    ])
    def test_number_outside_its_interval_refused(self, entry, x):
        # None and "0.1" leaked the comparison's TypeError, and rank_with_tolerance(np.eye(3), inf)
        # returned rank 0.
        name, interval, call = NUMBERS[entry]
        with pytest.raises(ValueError, match=_exactly(f"{name} must lie in {interval}, got {x!r}")):
            call(x)

    @pytest.mark.parametrize("entry", NUMBERS)
    def test_interval_ends_accepted_where_closed(self, entry):
        name, interval, call = NUMBERS[entry]
        ends = [(0.0, interval[0] == "[")] + ([(1.0, interval[-1] == "]")] if "1" in interval else [])
        for x, closed in ends:
            if closed:
                call(x)
            else:
                with pytest.raises(ValueError, match=_exactly(f"{name} must lie in {interval}, got {x!r}")):
                    call(x)

    @pytest.mark.parametrize("n", [2.5, True, np.float64(3.0)])
    @pytest.mark.parametrize("entry", COUNTS)
    def test_non_integer_count_refused(self, entry, n):
        name, least, call = COUNTS[entry]
        with pytest.raises(ValueError, match=_exactly(f"{name} must be an integer of at least {least}, got {n!r}")):
            call(n)

    @pytest.mark.parametrize("entry", COUNTS)
    def test_count_below_its_least_refused(self, entry):
        name, least, call = COUNTS[entry]
        below = least - 1
        with pytest.raises(ValueError, match=_exactly(f"{name} must be an integer of at least {least}, got {below}")):
            call(below)

    @pytest.mark.parametrize("seed", [-1, 2.5, True, np.float64(3.0), "0"])
    @pytest.mark.parametrize("entry", SEEDS)
    def test_seed_that_is_not_a_non_negative_integer_refused(self, entry, seed):
        with pytest.raises(ValueError, match=_exactly(f"seed must be None or a non-negative integer, got {seed!r}")):
            SEEDS[entry](seed)
