"""The consuming backward sweep: a node lets go of its closure and parents
once its adjoint has run, a graph swept once refuses a second sweep, and
the values and gradients keep the bits of the keep-everything sweep
(``reference_backward``)."""

import tracemalloc

import numpy as np
import pytest

from conftest import reference_backward
from serann.classifier import ClassifierConfig, EmotionClassifier
from serann.coremath import (
    Adam,
    ConsumedGraphError,
    Rng,
    Tensor,
    conv2d,
    dense,
    mse,
    softmax_cross_entropy,
)
from serann.coremath.optim import minibatch_step, shuffled_batches
from serann.synthetic import two_pattern_mels
from serann.vqvae import VqVae, VqVaeConfig, codebook_losses, quantize, train_step


def taped_nodes(root):
    """Every node reachable from ``root`` that has a backprop closure."""
    seen, stack, taped = {id(root)}, [root], []
    while stack:
        node = stack.pop()
        if node._backprop is not None:
            taped.append(node)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return taped


def vq_graph():
    model = VqVae(VqVaeConfig.desk(), Rng(33))
    mels, _ = two_pattern_mels(1, Rng(34))
    x = Tensor(mels[:2, None].astype(np.float32))
    z_e = model.encode(x)
    z_q, codes = quantize(z_e, model.codebook)
    recon = mse(x, model.decode(z_q))
    cb, commit = codebook_losses(z_e, model.codebook, codes, model.config.beta)
    return model, z_e, recon, cb, commit


class TestConsumedGraph:
    def test_sweep_drops_every_closure_and_parent(self, rng):
        x = Tensor(rng.normal(0, 1, (3, 4), np.float64), requires_grad=True)
        w = Tensor(rng.normal(0, 1, (4, 2), np.float64), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        hidden = dense(x, w, b, "relu")
        loss = softmax_cross_entropy(hidden, np.array([0, 1, 1]))
        taped = taped_nodes(loss)
        assert len(taped) == 2
        loss.backward()
        assert all(node._parents == () for node in taped)
        assert hidden.grad is not None  # a tensor the caller holds keeps its gradient
        with pytest.raises(ConsumedGraphError):
            hidden._backprop(hidden.grad)

    def test_same_root_twice_raises(self, rng):
        x = Tensor(rng.normal(0, 1, (3, 4), np.float64), requires_grad=True)
        w = Tensor(rng.normal(0, 1, (4, 2), np.float64), requires_grad=True)
        loss = softmax_cross_entropy(dense(x, w, Tensor(np.zeros(2))), np.array([0, 1, 1]))
        loss.backward()
        grads = x.grad.copy(), w.grad.copy()
        with pytest.raises(ConsumedGraphError, match="earlier backward"):
            loss.backward()
        assert x.grad.tobytes() == grads[0].tobytes()
        assert w.grad.tobytes() == grads[1].tobytes()

    def test_second_root_reaching_a_swept_subgraph_raises(self):
        model, z_e, recon, _, commit = vq_graph()
        recon.backward()
        grads = {name: None if p.grad is None else p.grad.tobytes()
                 for name, p in model.params().items()}
        z_e_grad = z_e.grad.tobytes()
        with pytest.raises(ConsumedGraphError, match="earlier backward"):
            commit.backward()
        assert z_e.grad.tobytes() == z_e_grad  # refused before any gradient moved
        assert grads == {name: None if p.grad is None else p.grad.tobytes()
                         for name, p in model.params().items()}

    def test_second_root_sharing_only_leaves_still_sweeps(self):
        model, _, recon, cb, _ = vq_graph()
        recon.backward()
        assert model.codebook.grad is None
        cb.backward()  # its one parent is the codebook, a leaf no sweep consumes
        assert np.any(model.codebook.grad != 0)


def classifier_run(config, n, steps, batch_size):
    """Losses and final parameter bytes of ``steps`` passes of minibatch
    steps over ``n`` seeded samples."""
    model = EmotionClassifier(config, Rng(5))
    adam = Adam(model.params(), config.lr_init)
    gen = np.random.default_rng(6)
    x = gen.normal(size=(n, 1, config.input_bands, config.input_frames)).astype(np.float32)
    y = np.arange(n) % 4
    shuffle = Rng(7)
    losses = []
    for _ in range(steps):
        for idx in shuffled_batches(shuffle, n, batch_size):
            loss = softmax_cross_entropy(model.forward(Tensor(x[idx])), y[idx])
            losses.append(minibatch_step(loss, adam))
    return losses, {name: p.data.tobytes() for name, p in model.params().items()}


def vqvae_run(steps):
    model = VqVae(VqVaeConfig.desk(), Rng(8))
    adam = Adam(model.params(), model.config.learning_rate)
    batch = two_pattern_mels(2, Rng(9))[0][:, None].astype(np.float32)
    results = []
    for _ in range(steps):
        losses, codes = train_step(model, batch, adam)
        results.append((losses, codes.tobytes()))
    return results, {name: p.data.tobytes() for name, p in model.params().items()}


class TestBitsMatchTheKeepEverythingSweep:
    @pytest.mark.parametrize("run", [
        pytest.param(lambda: classifier_run(ClassifierConfig.desk(), 40, 2, 16), id="desk-classifier"),
        pytest.param(lambda: classifier_run(ClassifierConfig(), 4, 1, 4), id="paper-classifier"),
        pytest.param(lambda: vqvae_run(3), id="desk-vqvae"),
    ])
    def test_losses_and_parameters_bitwise_equal(self, monkeypatch, run):
        ours = run()
        with monkeypatch.context() as patch:
            patch.setattr(Tensor, "backward", reference_backward)
            reference = run()
        assert ours == reference


class TestLiveBytes:
    def test_paper_classifier_step_peak(self):
        # A paper-size step at batch 8, traced: 62.6 MB when every node kept
        # its closure and saved arrays through the whole sweep, 49.8 MB with
        # the consuming sweep alone, 47.9 MB with the ops' early releases
        # alone, and 43.1 MB with both.
        config = ClassifierConfig()
        model = EmotionClassifier(config, Rng(1))
        adam = Adam(model.params(), config.lr_init)
        x = np.random.default_rng(2).normal(size=(8, 1, 80, 256)).astype(np.float32)
        y = np.arange(8) % 4

        def step():
            minibatch_step(softmax_cross_entropy(model.forward(Tensor(x)), y), adam)

        step()  # Adam's moments are allocated on the first step
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 46e6, f"traced peak {peak / 1e6:.1f} MB"

    def test_conv2d_frees_its_columns_before_the_input_gradient(self):
        # One 7x7 filter over a 128x128 map: the taped column matrix (12.8 MB)
        # dwarfs the padded input gradient (0.29 MB). Once the kernel
        # gradient is formed, the adjoint must let go of the columns, so the
        # traced memory never climbs a padded gradient above where it began.
        gen = np.random.default_rng(0)
        x = Tensor(gen.normal(size=(2, 1, 128, 128)), requires_grad=True)
        kernels = Tensor(gen.normal(size=(1, 1, 7, 7)), requires_grad=True)
        g = np.ones((2, 1, 128, 128))
        padded_grad_bytes = 2 * 134 * 134 * 8
        tracemalloc.start()
        try:
            out = conv2d(x, kernels, padding=3)
            start = tracemalloc.get_traced_memory()[0]
            assert start > 49 * x.data.nbytes  # the columns are alive and traced
            tracemalloc.reset_peak()
            out._backprop(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.grad is not None and kernels.grad is not None
        assert peak - start < padded_grad_bytes, f"peak rose {(peak - start) / 1e6:.2f} MB"
