import json

import numpy as np
import pytest

from conftest import reference_attention_pool, reference_dense, tape_nodes
from serann import classifier
from serann.classifier import (
    DECAY,
    IMPROVED,
    REBASED,
    STOP,
    WAIT,
    ClassifierConfig,
    DegenerateDataError,
    EmotionClassifier,
    PlateauSchedule,
    attention_pool,
    attention_weights,
    predict,
    train,
    train_epoch,
)
from serann.coremath import (
    Adam,
    Rng,
    ShapeError,
    Tensor,
    finite_diff_grad_check,
    layers,
    mul,
    softmax_cross_entropy,
    tensor_sum,
)
from serann.coremath.checkpoint import save_checkpoint


@pytest.fixture(scope="module")
def desk_model():
    return EmotionClassifier(ClassifierConfig.desk(), Rng(21))


class TestConfig:
    def test_full_size_defaults(self):
        cfg = ClassifierConfig()
        assert (cfg.conv1_kernel, cfg.conv2_kernel) == (7, 3)
        assert (cfg.conv1_filters, cfg.conv2_filters) == (32, 64)
        assert cfg.blstm_units == 128 and cfg.dense_units == 128
        assert cfg.lr_init == 1e-4 and cfg.lr_floor == 1e-5 and cfg.lr_decay == 0.5
        assert cfg.plateau_patience == 5

    def test_first_kernel_must_be_larger(self):
        with pytest.raises(ValueError, match="larger"):
            ClassifierConfig(conv1_kernel=3, conv2_kernel=3)

    def test_classes_fixed_at_four(self):
        with pytest.raises(ValueError):
            ClassifierConfig(classes=5)

    @pytest.mark.parametrize("field", ["max_epochs", "batch_size"])
    def test_counts_below_one_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            ClassifierConfig(**{field: 0})


class TestForward:
    def test_logits_shape(self, desk_model, corpus_arrays):
        x, _ = corpus_arrays
        out = desk_model.forward(Tensor(x[:3, None, :, :]))
        assert out.shape == (3, 4)

    def test_zero_final_layer_gives_uniform_loss(self, corpus_arrays):
        x, y = corpus_arrays
        model = EmotionClassifier(ClassifierConfig.desk(), Rng(0))
        model.out.weights.data = np.zeros_like(model.out.weights.data)
        model.out.bias.data = np.zeros_like(model.out.bias.data)
        logits = model.forward(Tensor(x[:5, None, :, :]))
        np.testing.assert_array_equal(logits.data, np.zeros((5, 4)))
        loss = softmax_cross_entropy(logits, y[:5])
        np.testing.assert_allclose(float(loss.data), np.log(4.0), rtol=1e-6)

    def test_loss_tape_has_one_node_per_conv_layer(self, corpus_arrays):
        # Each layer is one node, its bias and ReLU included: 9 nodes past
        # the input and the 15 parameters.
        x, y = corpus_arrays
        model = EmotionClassifier(ClassifierConfig.desk(), Rng(0))
        loss = softmax_cross_entropy(model.forward(Tensor(x[:2, None, :, :])), y[:2])
        assert tape_nodes(loss) == 25

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_loss_and_gradients_match_reference_chains_bitwise(self, corpus_arrays, monkeypatch, dtype):
        x, y = corpus_arrays
        model = EmotionClassifier(ClassifierConfig.desk(), Rng(8), dtype=dtype)
        inputs = Tensor(x[:5, None, :, :].astype(dtype))

        def step():
            loss = softmax_cross_entropy(model.forward(inputs), y[:5])
            loss.backward()
            out = [loss.data] + [p.grad for _, p in sorted(model.params().items())]
            for p in model.params().values():
                p.zero_grad()
            return out

        fused = step()
        monkeypatch.setattr(classifier, "attention_pool", reference_attention_pool)
        monkeypatch.setattr(layers, "dense", reference_dense)
        for a, b in zip(fused, step()):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_wrong_shape_rejected(self, desk_model):
        from serann.coremath import ShapeError

        with pytest.raises(ShapeError):
            desk_model.forward(Tensor(np.zeros((1, 1, 40, 256))))

    def test_full_model_gradcheck_sampled(self, corpus_arrays):
        x, y = corpus_arrays
        cfg = ClassifierConfig.desk()
        model = EmotionClassifier(cfg, Rng(13), dtype=np.float64)
        inputs = Tensor(x[:2, None, :, :].astype(np.float64))
        labels = y[:2]
        params = list(model.params().values())

        def fn():
            return softmax_cross_entropy(model.forward(inputs), labels)

        # epsilon below the default: a 1e-4 step through two ReLU stacks can
        # cross a kink, which is the one thing central differences cannot see
        err = finite_diff_grad_check(fn, params, epsilon=1e-5, max_checks_per_tensor=3, rng=Rng(14))
        assert err < 1e-4


class TestAttention:
    def test_identical_states_uniform_weights(self):
        h = Tensor(np.tile([1.0, 2.0, 3.0], (1, 5, 1)))
        alpha = attention_weights(h, Tensor(np.array([0.3, -0.2, 0.1])))
        np.testing.assert_allclose(alpha, np.full((1, 5), 0.2), atol=1e-12)

    def test_log2_margin_gives_two_thirds(self):
        # scores [ln 2, 0] -> weights [2/3, 1/3]
        h = Tensor(np.array([[[np.log(2.0)], [0.0]]]))
        alpha = attention_weights(h, Tensor(np.array([1.0])))
        np.testing.assert_allclose(alpha, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)

    def test_weights_sum_to_one(self, rng):
        h = Tensor(rng.normal(0, 2, (1, 9, 6), np.float64))
        w = Tensor(rng.normal(0, 1, (6,), np.float64))
        alpha = attention_weights(h, w)
        assert abs(float(alpha.sum()) - 1.0) < 1e-6
        assert np.all(alpha > 0) and np.all(alpha < 1)

    def test_one_hot_selects_state(self, rng):
        # A score of 1000 overflows exp unless the largest score is taken
        # off first; the other weights round to 0.
        h = Tensor(np.concatenate([rng.normal(0, 1, (1, 4, 3), np.float64),
                                   [[[0.0], [0.0], [1000.0], [0.0]]]], axis=2))
        pooled = attention_pool(h, Tensor(np.array([0.0, 0.0, 0.0, 1.0])))
        np.testing.assert_allclose(pooled.data, h.data[:, 2], atol=1e-12)

    def test_hand_weighted_sum(self):
        # scores [ln 2, 0] -> weights [2/3, 1/3] on states (3, 0) and (0, 3)
        h = Tensor(np.array([[[3.0, 0.0], [0.0, 3.0]]]))
        w = Tensor(np.array([np.log(2.0) / 3.0, 0.0]))
        np.testing.assert_allclose(attention_pool(h, w).data, [[2.0, 1.0]], atol=1e-12)

    def test_uniform_weights_give_mean(self, rng):
        h = Tensor(rng.normal(0, 1, (1, 6, 4), np.float64))
        pooled = attention_pool(h, Tensor(np.zeros(4)))
        np.testing.assert_allclose(pooled.data, h.data.mean(axis=1), atol=1e-12)

    def test_pool_stays_in_convex_hull(self, rng):
        h = rng.normal(0, 1, (1, 7, 5), np.float64)
        pooled = attention_pool(Tensor(h), Tensor(rng.normal(0, 1, (5,), np.float64))).data
        assert np.all(pooled <= h.max(axis=1) + 1e-12)
        assert np.all(pooled >= h.min(axis=1) - 1e-12)

    def test_batch_rows_pooled_independently(self, rng):
        h = Tensor(rng.normal(0, 1, (3, 5, 4), np.float64))
        w = Tensor(rng.normal(0, 1, (4,), np.float64))
        pooled = attention_pool(h, w).data
        for i in range(3):
            alone = attention_pool(Tensor(h.data[i : i + 1]), w).data
            np.testing.assert_allclose(pooled[i : i + 1], alone, atol=1e-12)

    def test_vector_shape_checked(self):
        with pytest.raises(ShapeError, match="attention vector"):
            attention_pool(Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros(2)))

    # (N, T, D) of the BiLSTM output the classifier pools, desk and paper.
    @pytest.mark.parametrize("shape", [(16, 64, 16), (32, 64, 256)], ids=["desk", "paper"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_reference_chain_bitwise(self, shape, dtype):
        gen = np.random.default_rng(31)
        draws = [gen.normal(size=shape), gen.normal(0, 0.3, shape[2])]
        weights = gen.normal(size=(shape[0], shape[2])).astype(dtype)
        for h_grad in (False, True):
            runs = []
            for fn in (attention_pool, reference_attention_pool):
                h, w = (Tensor(a.astype(dtype), requires_grad=True) for a in draws)
                h.requires_grad = h_grad
                out = fn(h, w)
                tensor_sum(mul(out, Tensor(weights))).backward()
                runs.append([out.data, h.grad, w.grad])
            for a, b in zip(*runs):
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_one_tape_node(self, taped_tensors, rng):
        h = Tensor(rng.normal(0, 1, (2, 3, 4), np.float64), requires_grad=True)
        out = attention_pool(h, Tensor(rng.normal(0, 1, (4,), np.float64), requires_grad=True))
        assert taped_tensors == [out]


class TestPlateauSchedule:
    def test_flat_trace_decays_every_six_epochs(self):
        schedule = PlateauSchedule(1e-4, patience=5, decay=0.5, lr_floor=1e-5)
        events = {}
        for epoch in range(1, 40):
            decision = schedule.update(0.25)
            if decision in (DECAY, STOP):
                events[epoch] = (decision, schedule.current_lr)
            if decision == STOP:
                break
        assert list(events) == [6, 12, 18, 24]
        np.testing.assert_allclose(
            [lr for _, lr in events.values()], [5e-5, 2.5e-5, 1.25e-5, 6.25e-6]
        )
        assert events[24][0] == STOP
        assert events[18][0] == DECAY  # 1.25e-5 is still at or above the floor

    def test_improving_trace_never_decays(self):
        schedule = PlateauSchedule(1e-4)
        decisions = {schedule.update(0.1 + 0.01 * i) for i in range(30)}
        assert decisions == {IMPROVED}
        assert schedule.current_lr == 1e-4

    def test_wait_then_improve_resets_counter(self):
        schedule = PlateauSchedule(1e-4)
        assert schedule.update(0.5) == IMPROVED
        assert schedule.update(0.4) == WAIT
        assert schedule.update(0.4) == WAIT
        assert schedule.update(0.6) == IMPROVED
        assert schedule.stale == 0

    def test_rebase_epoch_follows_decay(self):
        schedule = PlateauSchedule(1e-4)
        schedule.update(0.5)
        for _ in range(4):
            assert schedule.update(0.5) == WAIT
        assert schedule.update(0.5) == DECAY
        assert schedule.update(0.1) == REBASED  # next epoch re-anchors, even if worse
        assert schedule.update(0.1) == WAIT


class TestTraining:
    def test_scripted_flat_trace_schedule_conformance(self, corpus_arrays):
        x, y = corpus_arrays
        model = EmotionClassifier(ClassifierConfig.desk(), Rng(3))
        reversion_ok = []

        def hook(epoch, decision, m, state):
            if decision in (DECAY, STOP):
                restored = {k: t.data.tobytes() for k, t in m.params().items()}
                best = {k: v.tobytes() for k, v in state.best_checkpoint.items()}
                reversion_ok.append(restored == best)

        cfg = model.config
        cfg.lr_init, cfg.lr_floor = 1e-4, 1e-5
        result = train(
            model, x[:8], y[:8], None, None, seed=5,
            val_metric=lambda m, epoch: 0.25, max_epochs=60, epoch_hook=hook,
        )
        decay_epochs = [e["epoch"] for e in result.events]
        assert decay_epochs == [6, 12, 18, 24]
        assert result.events[-1]["event"] == STOP
        np.testing.assert_allclose(result.events[-1]["lr"], 6.25e-6)
        assert result.epochs_run == 24
        assert all(reversion_ok) and len(reversion_ok) == 4
        assert [h["lr"] for h in result.history[:7]] == [1e-4] * 6 + [5e-5]

    def test_improving_trace_never_decays(self, corpus_arrays):
        x, y = corpus_arrays
        model = EmotionClassifier(ClassifierConfig.desk(), Rng(3))
        result = train(
            model, x[:8], y[:8], None, None, seed=5,
            val_metric=lambda m, epoch: 0.01 * epoch, max_epochs=8,
        )
        assert result.events == []
        assert {h["lr"] for h in result.history} == {model.config.lr_init}

    def test_history_is_on_disk_after_every_epoch(self, corpus_arrays, tmp_path):
        x, y = corpus_arrays
        path = tmp_path / "history.jsonl"
        lines_seen = []

        def hook(epoch, decision, m, state):
            lines_seen.append(len(path.read_text().splitlines()))

        model = EmotionClassifier(ClassifierConfig.desk(), Rng(3))
        result = train(
            model, x[:8], y[:8], None, None, seed=5, val_metric=lambda m, epoch: 0.25,
            max_epochs=6, history_path=path, epoch_hook=hook,
        )
        assert lines_seen == [1, 2, 3, 4, 5, 6]
        assert path.read_text() == "".join(json.dumps(e, sort_keys=True) + "\n" for e in result.history)

    def test_snapshot_and_restore_copy_rather_than_alias(self):
        # Adam updates ``data`` in place: neither the snapshot taken nor the
        # one restored from may follow the parameters it was made from.
        model = EmotionClassifier(ClassifierConfig.desk(), Rng(3))
        adam = Adam(model.params(), 1e-2)

        def step():
            for t in model.params().values():
                t.grad = np.ones_like(t.data)
            adam.step()

        snapshot = classifier._snapshot(model)
        kept = {name: a.copy() for name, a in snapshot.items()}
        step()
        classifier._restore(model, snapshot)
        step()
        for name, a in snapshot.items():
            assert a.tobytes() == kept[name].tobytes(), name
            assert not np.array_equal(model.params()[name].data, a), name

    def test_overfits_small_set_within_200_epochs(self, corpus_arrays):
        x, y = corpus_arrays
        xs, ys = x[:32], y[:32]
        cfg = ClassifierConfig.desk()
        model = EmotionClassifier(cfg, Rng(8))
        adam = Adam(model.params(), cfg.lr_init)
        shuffle = Rng(9)
        for epoch in range(1, 201):
            train_epoch(model, xs, ys, adam, shuffle)
            pred, _ = predict(model, xs)
            if (pred == ys).all():
                break
        assert (pred == ys).all(), f"still {int((pred != ys).sum())} errors after 200 epochs"

    def test_seeded_training_is_bit_reproducible(self, corpus_arrays, tmp_path):
        x, y = corpus_arrays

        def run(tag):
            model = EmotionClassifier(ClassifierConfig.desk(), Rng(17))
            result = train(model, x[:16], y[:16], x[16:24], y[16:24], seed=23, max_epochs=3)
            path = tmp_path / f"{tag}.serann"
            save_checkpoint(path, result.best_params)
            return result.history, path.read_bytes()

        history_a, bytes_a = run("a")
        history_b, bytes_b = run("b")
        assert history_a == history_b
        assert bytes_a == bytes_b

    def test_degenerate_data_rejected(self, corpus_arrays):
        x, y = corpus_arrays
        model = EmotionClassifier(ClassifierConfig.desk(), Rng(1))
        with pytest.raises(DegenerateDataError, match="single class"):
            train(model, x[:4], np.zeros(4, dtype=np.int64), x[:2], y[:2], seed=1)
        with pytest.raises(DegenerateDataError, match="empty"):
            train(model, x[:0], y[:0], x[:2], y[:2], seed=1)


class TestPredict:
    def test_records_no_tape_and_matches_taped_forward(self, desk_model, corpus_arrays, taped_tensors):
        x, _ = corpus_arrays
        expected = desk_model.forward(Tensor(x[:4, None].astype(desk_model.dtype))).data
        taped_tensors.clear()
        _, logits = predict(desk_model, x[:4])
        assert taped_tensors == []
        assert logits.tobytes() == expected.tobytes()

    def test_deterministic(self, desk_model, corpus_arrays):
        x, _ = corpus_arrays
        _, logits_a = predict(desk_model, x[:6])
        _, logits_b = predict(desk_model, x[:6])
        np.testing.assert_array_equal(logits_a, logits_b)

    def test_covers_every_input(self, desk_model, corpus_arrays):
        x, _ = corpus_arrays
        labels, logits = predict(desk_model, x[:10], batch_size=3)
        assert labels.shape == (10,)
        assert logits.shape == (10, 4)

    def test_argmax_invariant_under_positive_scaling(self, desk_model, corpus_arrays):
        x, _ = corpus_arrays
        labels, logits = predict(desk_model, x[:6])
        np.testing.assert_array_equal((3.7 * logits).argmax(axis=1), labels)

    def test_checkpoint_roundtrip(self, desk_model, corpus_arrays, tmp_path):
        x, _ = corpus_arrays
        path = tmp_path / "clf.serann"
        desk_model.save(path)
        loaded = EmotionClassifier.load(path)
        _, a = predict(desk_model, x[:4])
        _, b = predict(loaded, x[:4])
        np.testing.assert_array_equal(a, b)
