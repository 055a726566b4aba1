import numpy as np
import pytest

from semisub_motion.errors import DomainError
from semisub_motion.network import (FcLayerParams, LstmLayerParams, Network,
                                    backward, count_params, forward,
                                    init_network, load_checkpoint,
                                    lstm_forward, mse_loss, save_checkpoint,
                                    sigmoid)


def zero_layer(r, H):
    return LstmLayerParams(W_input=np.zeros((4 * H, r)),
                           W_hidden=np.zeros((4 * H, H)),
                           b_input=np.zeros(4 * H), b_hidden=np.zeros(4 * H))


def scalar_lstm_oracle(layer, inputs):
    """Straight-line per-element reimplementation of the gate recurrences."""
    n, r = inputs.shape
    H = layer.hidden_size
    Wx, Wh = layer.W_input, layer.W_hidden
    b = layer.b_input + layer.b_hidden
    h = np.zeros(H)
    c = np.zeros(H)
    hs = np.zeros((n, H))
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    for t in range(n):
        for j_list in [range(H)]:
            i_g = np.zeros(H); f_g = np.zeros(H); g_g = np.zeros(H); o_g = np.zeros(H)
            for j in j_list:
                ai = b[j]; af = b[H + j]; ag = b[2 * H + j]; ao = b[3 * H + j]
                for k in range(r):
                    ai += Wx[j, k] * inputs[t, k]
                    af += Wx[H + j, k] * inputs[t, k]
                    ag += Wx[2 * H + j, k] * inputs[t, k]
                    ao += Wx[3 * H + j, k] * inputs[t, k]
                for k in range(H):
                    ai += Wh[j, k] * h[k]
                    af += Wh[H + j, k] * h[k]
                    ag += Wh[2 * H + j, k] * h[k]
                    ao += Wh[3 * H + j, k] * h[k]
                i_g[j] = sig(ai); f_g[j] = sig(af)
                g_g[j] = np.tanh(ag); o_g[j] = sig(ao)
            c = f_g * c + i_g * g_g
            h = o_g * np.tanh(c)
            hs[t] = h
    return hs


class TestLstmForward:
    def test_all_zero_parameters(self):
        layer = zero_layer(2, 3)
        hs = lstm_forward(layer, np.random.default_rng(0).normal(size=(1, 5, 2)))
        assert hs.shape == (1, 5, 3) and np.all(hs == 0.0)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        H, r, n = 3, 2, 4
        layer = LstmLayerParams(W_input=rng.normal(0, 0.4, (4 * H, r)),
                                W_hidden=rng.normal(0, 0.4, (4 * H, H)),
                                b_input=rng.normal(0, 0.4, 4 * H),
                                b_hidden=rng.normal(0, 0.4, 4 * H))
        inputs = rng.normal(size=(n, r))
        hs = lstm_forward(layer, inputs[None])
        assert np.allclose(hs[0], scalar_lstm_oracle(layer, inputs), atol=1e-12)

    def test_states_bounded(self):
        rng = np.random.default_rng(9)
        layer = LstmLayerParams(W_input=rng.normal(0, 2.0, (4 * 4, 2)),
                                W_hidden=rng.normal(0, 2.0, (4 * 4, 4)),
                                b_input=rng.normal(0, 2.0, 16),
                                b_hidden=rng.normal(0, 2.0, 16))
        hs = lstm_forward(layer, rng.normal(size=(3, 50, 2)))
        assert np.all(np.abs(hs) < 1.0)

    def test_shape_mismatch_rejected(self):
        layer = zero_layer(2, 3)
        with pytest.raises(DomainError):
            lstm_forward(layer, np.zeros((4, 5, 3)))


class TestForward:
    def test_zero_network_zero_output(self):
        net = init_network(2, [4], 2, 4, 3, seed=0)
        for p in net.parameters():
            p[...] = 0.0
        assert np.all(forward(net, np.ones((7, 2))) == 0.0)

    def test_small_signal_linear_regime(self):
        # with identity-copy FC weights and tiny inputs, tanh is linear
        H = 3
        net = init_network(1, [H], 1, H, H, seed=1)
        net.lstm_layers[0].b_input[...] = 0.0
        net.lstm_layers[0].b_hidden[...] = 0.0
        net.fc_layers[0].weights = np.eye(H)
        net.fc_layers[0].bias = np.zeros(H)
        net.fc_layers[1].weights = np.eye(H)
        net.fc_layers[1].bias = np.zeros(H)
        x = 1e-6 * np.random.default_rng(2).normal(size=(4, 1))
        caches = []
        out = forward(net, x, caches=caches)
        h_last = caches[0]["hs"][0, -1] if caches[0]["hs"].ndim == 3 else caches[0]["hs"][-1]
        assert np.allclose(out, h_last, atol=1e-9)

    def test_reference_architecture_output_length(self):
        net = init_network(2, [50], 3, 50, 20, seed=0)
        out = forward(net, np.random.default_rng(0).normal(size=(60, 2)))
        assert out.shape == (20,)

    def test_cached_hidden_sequences_are_batch_major(self):
        net = init_network(2, [5, 3], 1, 4, 2, seed=6)
        caches = []
        forward(net, np.random.default_rng(7).normal(size=(4, 9, 2)),
                caches=caches)
        assert caches[0]["hs"].shape == (4, 9, 5)
        assert caches[1]["hs"].shape == (4, 9, 3)

    def test_two_layers_match_chained_scalar_oracle(self):
        net = init_network(2, [3, 2], 1, 2, 2, seed=8)
        X = np.random.default_rng(9).normal(size=(3, 5, 2))
        caches = []
        forward(net, X, caches=caches)
        for b in range(X.shape[0]):
            h1 = scalar_lstm_oracle(net.lstm_layers[0], X[b])
            h2 = scalar_lstm_oracle(net.lstm_layers[1], h1)
            assert np.allclose(caches[0]["hs"][b], h1, atol=1e-12)
            assert np.allclose(caches[1]["hs"][b], h2, atol=1e-12)

    def test_batch_and_single_agree(self):
        net = init_network(2, [5], 1, 4, 3, seed=3)
        X = np.random.default_rng(4).normal(size=(6, 8, 2))
        batch = forward(net, X)
        singles = np.stack([forward(net, X[i]) for i in range(6)])
        assert np.allclose(batch, singles, atol=1e-14)


class TestMseLoss:
    def test_perfect_prediction(self):
        assert mse_loss(np.arange(5.0), np.arange(5.0)) == 0.0

    def test_unit_offset(self):
        assert mse_loss(np.arange(5.0) + 1.0, np.arange(5.0)) == 1.0

    def test_three_four(self):
        assert mse_loss(np.zeros(2), np.array([3.0, 4.0])) == 12.5

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            mse_loss(np.zeros(3), np.zeros(4))


def fd_gradients(net, X, Y, eps=1e-6):
    grads = []
    for p in net.parameters():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            lp, _ = backward(net, X, Y)
            p[idx] = orig - eps
            lm, _ = backward(net, X, Y)
            p[idx] = orig
            g[idx] = (lp - lm) / (2 * eps)
        grads.append(g)
    return grads


def max_norm_rel_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        rel = np.linalg.norm(a - n) / max(np.linalg.norm(a), np.linalg.norm(n), 1e-12)
        worst = max(worst, rel)
    return worst


class TestBackward:
    def test_zero_everything_zero_gradients(self):
        net = init_network(1, [2], 1, 2, 2, seed=0)
        for p in net.parameters():
            p[...] = 0.0
        loss, grads = backward(net, np.zeros((3, 4, 1)), np.zeros((3, 2)))
        assert loss == 0.0
        assert all(np.all(g == 0.0) for g in grads)

    def test_finite_differences_single_layer(self):
        rng = np.random.default_rng(12)
        net = init_network(2, [4], 2, 3, 3, seed=8)
        X = rng.normal(size=(4, 6, 2))
        Y = rng.normal(size=(4, 3))
        _, grads = backward(net, X, Y)
        assert max_norm_rel_error(grads, fd_gradients(net, X, Y)) < 1e-5

    def test_finite_differences_stacked_layers(self):
        rng = np.random.default_rng(13)
        net = init_network(2, [3, 4], 1, 5, 2, seed=21)
        X = rng.normal(size=(3, 5, 2))
        Y = rng.normal(size=(3, 2))
        _, grads = backward(net, X, Y)
        assert max_norm_rel_error(grads, fd_gradients(net, X, Y)) < 1e-5

    def test_duplicated_batch_leaves_gradients_unchanged(self):
        rng = np.random.default_rng(14)
        net = init_network(1, [3], 1, 3, 2, seed=5)
        X = rng.normal(size=(4, 5, 1))
        Y = rng.normal(size=(4, 2))
        loss1, grads1 = backward(net, X, Y)
        loss2, grads2 = backward(net, np.tile(X, (2, 1, 1)), np.tile(Y, (2, 1)))
        assert loss1 == pytest.approx(loss2, rel=1e-14)
        for a, b in zip(grads1, grads2):
            assert np.allclose(a, b, atol=1e-15)

    def test_empty_batch_rejected(self):
        net = init_network(1, [2], 0, 0, 2, seed=0)
        with pytest.raises(DomainError):
            backward(net, np.zeros((0, 4, 1)), np.zeros((0, 2)))

    @pytest.mark.parametrize("r, hidden, B, n", [
        (2, [4], 3, 1),     # one step: no recurrent weight gradient term
        (2, [4], 1, 6),     # one window
        (5, [3, 4], 2, 4),  # stacked, input width differs from both H
    ])
    def test_finite_differences_edge_shapes(self, r, hidden, B, n):
        rng = np.random.default_rng(15)
        net = init_network(r, hidden, 1, 3, 2, seed=22)
        X = rng.normal(size=(B, n, r))
        Y = rng.normal(size=(B, 2))
        _, grads = backward(net, X, Y)
        assert max_norm_rel_error(grads, fd_gradients(net, X, Y)) < 1e-5


class TestCountParams:
    def test_reference_architecture(self):
        net = init_network(2, [50], 3, 50, 20, seed=0)
        assert count_params(net) == 19470

    def test_motion_only_architecture(self):
        net = init_network(1, [30], 3, 30, 20, seed=0)
        assert count_params(net) == 7370

    def test_invariant_to_time_window(self):
        counts = set()
        net = init_network(2, [50], 3, 50, 20, seed=0)
        for n in range(10, 121, 10):
            out = forward(net, np.zeros((n, 2)))
            assert out.shape == (20,)
            counts.add(count_params(net))
        assert counts == {19470}

    def test_formula_against_direct_sum(self):
        H, r = 7, 2
        net = init_network(r, [H], 2, 9, 4, seed=0)
        expected = 4 * (H * r + H * H + 2 * H) + (9 * H + 9) + (9 * 9 + 9) + (4 * 9 + 4)
        assert count_params(net) == expected


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        net = init_network(2, [4, 3], 2, 5, 3, seed=17)
        net.meta = {"channel": "heave", "n": 6, "m": 3, "w": 2}
        path = tmp_path / "net.json"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        for a, b in zip(net.parameters(), loaded.parameters()):
            assert np.array_equal(a, b)
        assert loaded.meta["channel"] == "heave"

    def test_declared_count_in_header(self, tmp_path):
        import json
        net = init_network(2, [50], 3, 50, 20, seed=0)
        path = tmp_path / "ref.json"
        save_checkpoint(net, path)
        doc = json.loads(path.read_text())
        assert doc["param_count"] == 19470

    def test_mismatched_count_rejected(self, tmp_path):
        import json
        net = init_network(1, [2], 1, 2, 2, seed=0)
        path = tmp_path / "bad.json"
        save_checkpoint(net, path)
        doc = json.loads(path.read_text())
        doc["param_count"] += 1
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError):
            load_checkpoint(path)

    @pytest.mark.parametrize("doc", [
        lambda doc: {k: v for k, v in doc.items() if k != "param_count"},
        lambda doc: [doc],
        lambda doc: {**doc, "meta": [1]},
    ], ids=["no_param_count", "top_level_list", "meta_list"])
    def test_malformed_document_rejected(self, tmp_path, doc):
        import json
        path = tmp_path / "net.json"
        save_checkpoint(init_network(1, [2], 1, 2, 2, seed=0), path)
        path.write_text(json.dumps(doc(json.loads(path.read_text()))))
        with pytest.raises(DomainError) as info:
            load_checkpoint(path)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("defect", [
        lambda doc: doc["lstm_layers"][0]["W_input"][0].__setitem__(0, float("nan")),
        lambda doc: [row.pop() for row in doc["fc_layers"][0]["weights"]],
        lambda doc: doc["meta"].update(r=1),
        lambda doc: doc["meta"].update(m=3),
    ], ids=["nan_weight", "layers_do_not_chain", "meta_r", "meta_m"])
    def test_inconsistent_checkpoint_rejected(self, tmp_path, defect):
        import json
        net = init_network(2, [3], 1, 4, 2, seed=0)
        net.meta = {"r": 2, "m": 2}
        path = tmp_path / "net.json"
        save_checkpoint(net, path)
        doc = json.loads(path.read_text())
        defect(doc)
        doc["param_count"] = sum(np.size(v) for layers in ("lstm_layers", "fc_layers")
                                 for layer in doc[layers] for k, v in layer.items()
                                 if k != "activation")
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError) as info:
            load_checkpoint(path)
        assert "\n" not in str(info.value)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"format_version": 1, "lstm')
        with pytest.raises(DomainError):
            load_checkpoint(path)


def test_sigmoid_matches_naive():
    x = np.linspace(-30, 30, 101)
    assert np.allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), atol=1e-15)


def test_sigmoid_extreme_inputs():
    x = np.concatenate([[-1e4, -1e3, 1e3, 1e4], np.linspace(-30, 30, 101)])
    with np.errstate(all="raise"):
        y = sigmoid(x)
    assert np.all(np.isfinite(y)) and np.all((y >= 0.0) & (y <= 1.0))
    assert list(y[:4]) == [0.0, 0.0, 1.0, 1.0]
    with np.errstate(over="ignore"):
        naive = 1.0 / (1.0 + np.exp(-x))
    finite = np.isfinite(naive)
    assert np.allclose(y[finite], naive[finite], atol=1e-15)


def test_final_layer_must_be_affine():
    with pytest.raises(DomainError):
        Network(lstm_layers=[], fc_layers=[FcLayerParams(np.zeros((2, 2)),
                                                         np.zeros(2), "tanh")])
