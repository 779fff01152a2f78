import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_codes,
    reference_check_codebook_rows,
    reference_nearest_codes,
    reference_vq_losses,
    tape_nodes,
)
from serann import vqvae
from serann.coremath import (
    Adam,
    Rng,
    ShapeError,
    Tensor,
    finite_diff_grad_check,
    mse,
    mul,
    no_grad,
    tensor_sum,
)
from serann.fileio import JsonlError
from serann.synthetic import two_pattern_mels
from serann.vqvae import (
    GRID_POSITIONS,
    CodebookError,
    VqVae,
    VqVaeConfig,
    codebook_losses,
    extract_codes,
    flatten_grid,
    load_codes,
    nearest_codes,
    quantize,
    reconstruction_loss,
    train_step,
    write_codes,
)


@pytest.fixture(scope="module")
def desk_model():
    return VqVae(VqVaeConfig.desk(), Rng(11))


class TestConfig:
    def test_full_size_defaults(self):
        cfg = VqVaeConfig()
        assert cfg.codebook_size == 8192
        assert cfg.code_dim == 512
        assert cfg.batch_size == 256
        assert cfg.epochs == 1000
        assert cfg.learning_rate == 1e-4

    def test_desk_profile(self):
        cfg = VqVaeConfig.desk()
        assert (cfg.codebook_size, cfg.code_dim, cfg.epochs, cfg.batch_size) == (256, 64, 50, 32)

    def test_invalid_codebook_size(self):
        with pytest.raises(ValueError):
            VqVaeConfig(codebook_size=0)

    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    def test_counts_below_one_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            VqVaeConfig(**{field: 0})

    def test_channels_must_end_at_code_dim(self):
        with pytest.raises(ValueError, match="code_dim"):
            VqVaeConfig(codebook_size=16, code_dim=8, channels=(2, 4, 8, 16, 32))


class TestEncodeDecode:
    def test_encode_yields_64_positions(self, desk_model, corpus_mels):
        mel = next(iter(corpus_mels.values()))
        z_e = desk_model.encode(Tensor(mel[None, None, :, :]))
        assert z_e.shape == (1, desk_model.config.code_dim, 1, GRID_POSITIONS)

    def test_zero_weights_zero_latents(self):
        model = VqVae(VqVaeConfig.desk(), Rng(0))
        for layer in model.encoder:
            layer.kernels.data = np.zeros_like(layer.kernels.data)
            layer.bias.data = np.zeros_like(layer.bias.data)
        z_e = model.encode(Tensor(np.ones((1, 1, 80, 256), dtype=np.float32)))
        np.testing.assert_array_equal(z_e.data, np.zeros_like(z_e.data))

    def test_distinct_inputs_distinct_latents(self, desk_model, rng):
        a = rng.normal(0, 0.5, (1, 1, 80, 256), np.float32)
        b = rng.normal(0, 0.5, (1, 1, 80, 256), np.float32)
        za = desk_model.encode(Tensor(a)).data
        zb = desk_model.encode(Tensor(b)).data
        assert not np.allclose(za, zb)

    def test_wrong_input_shape(self, desk_model):
        with pytest.raises(ShapeError):
            desk_model.encode(Tensor(np.zeros((1, 1, 40, 256))))

    def test_decode_inverts_encoder_shape(self, desk_model):
        z = Tensor(np.zeros((2, desk_model.config.code_dim, 1, GRID_POSITIONS), dtype=np.float32))
        out = desk_model.decode(z)
        assert out.shape == (2, 1, 80, 256)

    def test_zero_codes_zero_reconstruction(self):
        model = VqVae(VqVaeConfig.desk(), Rng(0))
        for layer in model.decoder:
            layer.kernels.data = np.zeros_like(layer.kernels.data)
            layer.bias.data = np.zeros_like(layer.bias.data)
        out = model.decode(Tensor(np.zeros((1, model.config.code_dim, 1, GRID_POSITIONS), dtype=np.float32)))
        np.testing.assert_array_equal(out.data, np.zeros_like(out.data))

    def test_decode_gradcheck_sampled(self):
        cfg = VqVaeConfig(codebook_size=8, code_dim=4, channels=(2, 2, 2, 4, 4), epochs=1, batch_size=2)
        model = VqVae(cfg, Rng(3), dtype=np.float64)
        z = Tensor(Rng(4).normal(0, 1, (1, 4, 1, GRID_POSITIONS), np.float64), requires_grad=True)
        wrt = [z] + [layer.kernels for layer in model.decoder]

        def fn():
            out = model.decode(z)
            return tensor_sum(mul(out, out))

        err = finite_diff_grad_check(fn, wrt, max_checks_per_tensor=4, rng=Rng(5))
        assert err < 1e-4


class TestQuantize:
    def test_two_vector_codebook_example(self):
        # distances: to (0,0) -> 0.81 + 0.64 = 1.45; to (1,1) -> 0.01 + 0.04 = 0.05
        codebook = np.array([[0.0, 0.0], [1.0, 1.0]])
        codes = nearest_codes(np.array([[0.9, 0.8]]), codebook)
        assert codes.tolist() == [1]

    def test_exact_row_match_distance_zero(self, rng):
        codebook = rng.normal(0, 1, (16, 4), np.float64)
        codes = nearest_codes(codebook[7][None, :], codebook)
        assert codes.tolist() == [7]

    def test_tie_breaks_to_lowest_index(self):
        codebook = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        codes = nearest_codes(np.array([[1.0, 0.0], [0.0, 0.0]]), codebook)
        assert codes.tolist() == [0, 0]

    def test_matches_bruteforce_spot(self, rng):
        z = rng.normal(0, 1, (64, 32), np.float64)
        embeddings = rng.normal(0, 1, (128, 32), np.float64)
        np.testing.assert_array_equal(nearest_codes(z, embeddings), brute_force_codes(z, embeddings))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_bruteforce_property(self, seed):
        gen = np.random.default_rng(seed)
        z = gen.normal(size=(12, 8))
        embeddings = gen.normal(size=(64, 8))
        np.testing.assert_array_equal(nearest_codes(z, embeddings), brute_force_codes(z, embeddings))

    def test_near_ties_need_the_rerank(self):
        # Codebook and latents sit 1e-6 apart around a point 1e3 out, so the
        # GEMM expansion's rounding error swamps the gaps between distances.
        gen = np.random.default_rng(5)
        base = gen.normal(size=512) * 1e3
        embeddings = base + gen.normal(size=(64, 512)) * 1e-6
        z = base + gen.normal(size=(32, 512)) * 1e-6
        expected = brute_force_codes(z, embeddings)
        gemm_only = (
            (z**2).sum(axis=1)[:, None] - 2.0 * z @ embeddings.T + (embeddings**2).sum(axis=1)
        ).argmin(axis=1)
        assert np.sum(gemm_only != expected) >= 16
        np.testing.assert_array_equal(nearest_codes(z, embeddings), expected)

    def test_paper_size_codebook(self):
        gen = np.random.default_rng(6)
        embeddings = gen.normal(size=(8192, 512))
        z = gen.normal(size=(256, 512))
        z[::2] = embeddings[gen.integers(0, 8192, 128)] + gen.normal(size=(128, 512)) * 0.1
        np.testing.assert_array_equal(nearest_codes(z, embeddings), brute_force_codes(z, embeddings))

    def test_duplicate_row_maps_to_lower_index(self):
        gen = np.random.default_rng(7)
        embeddings = gen.normal(size=(256, 64))
        embeddings[250] = embeddings[10]
        z = np.stack([embeddings[10], embeddings[250] + gen.normal(size=64) * 1e-3])
        assert nearest_codes(z, embeddings).tolist() == [10, 10]

    @pytest.mark.parametrize("extra", [0, 1, 4096, 4097])
    def test_latent_counts_around_a_block(self, extra):
        gen = np.random.default_rng(extra)
        embeddings = gen.normal(size=(256, 8))
        assert vqvae._DISTANCE_BLOCK // len(embeddings) == 4096
        z = gen.normal(size=(extra, 8))
        codes = nearest_codes(z, embeddings)
        assert codes.shape == (extra,) and codes.dtype == np.int64
        np.testing.assert_array_equal(codes, brute_force_codes(z, embeddings))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_matches_bruteforce_at_offsets(self, seed, log_offset):
        # Latents and codes 1e-3 apart around a point 1e-3 to 1e3 out; some
        # latents are exact codebook rows, some rows are duplicated.
        gen = np.random.default_rng(seed)
        base = gen.normal(size=16) * 10.0**log_offset
        embeddings = base + gen.normal(size=(64, 16)) * 1e-3
        embeddings[gen.integers(0, 64, 4)] = embeddings[gen.integers(0, 64, 4)]
        z = base + gen.normal(size=(24, 16)) * 1e-3
        z[:4] = embeddings[gen.integers(0, 64, 4)]
        np.testing.assert_array_equal(nearest_codes(z, embeddings), brute_force_codes(z, embeddings))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_inputs_keep_the_explicit_answer(self):
        embeddings = np.random.default_rng(1).normal(size=(20, 8))
        with_nan = embeddings.copy()
        with_nan[5, 0] = np.nan
        with_inf = embeddings.copy()
        with_inf[7, 0] = np.inf
        z = np.repeat([np.nan, np.inf, -np.inf, 1.0, 1e200], 8)[:, None] * np.ones(8)
        for table, expected in (
            (embeddings, [0, 0, 0, 1, 0]),
            (with_nan, [0, 5, 5, 5, 5]),
            (with_inf, [0, 7, 0, 1, 0]),
        ):
            explicit = ((z[:, None, :] - table[None, :, :]) ** 2).sum(axis=-1).argmin(axis=1)
            codes = nearest_codes(z, table)
            np.testing.assert_array_equal(codes, explicit)
            assert codes[::8].tolist() == expected

    def test_quantize_shapes_and_codes(self, desk_model, corpus_mels):
        mel = next(iter(corpus_mels.values()))
        z_e = desk_model.encode(Tensor(mel[None, None, :, :]))
        z_q, codes = quantize(z_e, desk_model.codebook)
        assert z_q.shape == z_e.shape
        assert codes.shape == (GRID_POSITIONS,)
        assert codes.min() >= 0 and codes.max() < desk_model.config.codebook_size
        flat = flatten_grid(z_e).data
        np.testing.assert_array_equal(
            flatten_grid(z_q).data, desk_model.codebook.data[codes]
        )
        assert flat.shape == (GRID_POSITIONS, desk_model.config.code_dim)

    def test_random_initialisation_rejects_identical_rows(self, monkeypatch):
        def constant(self, low, high, shape=None, dtype=np.float32):
            return np.full(shape, high, dtype)

        monkeypatch.setattr(Rng, "uniform", constant)
        with pytest.raises(CodebookError, match="identical rows"):
            VqVae(VqVaeConfig.desk(), Rng(0))

    @pytest.mark.parametrize("dtype, unsigned", [(np.float32, np.uint32), (np.float64, np.uint64)])
    def test_codebook_check_matches_the_row_bytes_reference(self, dtype, unsigned):
        def outcome(check, embeddings):
            try:
                check(embeddings)
            except CodebookError as exc:
                return str(exc)
            return None

        nan, other_nan = np.array([0x7FC00000, 0x7FC00001] if dtype is np.float32 else
                                  [0x7FF8000000000000, 0x7FF8000000000001], unsigned).view(dtype)
        crafted = {
            "distinct": [[1, 2], [3, 4], [5, 6]],
            "one row": [[1, 2]],
            "constant": [[1, 2]] * 4,
            "duplicate far apart": [[1, 2], [3, 4], [5, 6], [1, 2]],
            "first entry ties, rows differ": [[1, 2], [1, 3], [1, 4]],
            "A B A in one tie": [[1, 2], [1, 3], [1, 2]],
            "signed zeros first": [[0.0, 1], [-0.0, 1]],
            "signed zeros later": [[1, 0.0], [1, -0.0]],
            "same NaN bits": [[nan, 1], [nan, 1]],
            "NaN payloads differ": [[nan, 1], [other_nan, 1]],
            "infinite": [[1, 2], [np.inf, 2]],
            "duplicate and infinite": [[np.inf, 2], [np.inf, 2]],
        }
        pool = np.array([0.0, -0.0, 1.0, -1.0, nan, other_nan, np.inf], dtype)
        gen = np.random.default_rng(31)
        random = {f"pool {i}": pool[gen.integers(0, len(pool), (gen.integers(1, 9), gen.integers(1, 4)))]
                  for i in range(300)}
        seen = set()
        for name, rows in {**crafted, **random}.items():
            embeddings = np.array(rows, dtype)
            expected = outcome(reference_check_codebook_rows, embeddings)
            assert outcome(vqvae._check_codebook_rows, embeddings) == expected, name
            seen.add(expected)
        assert len(seen) == 3  # passes, duplicate rows and non-finite rows all occur

    def test_empty_codebook_rejected(self):
        with pytest.raises(CodebookError):
            nearest_codes(np.zeros((1, 2)), np.zeros((0, 2)))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([0.1, 1.0, 26.0]))
    def test_float32_matches_bruteforce_at_the_initial_codebook(self, seed, norm):
        # The paper's initial codebook, uniform in +-1/K, against float32
        # latents of about the norms an encoder gives before training (0.1,
        # 1) and after a step at paper size (26).
        gen = np.random.default_rng(seed)
        k = 8192
        embeddings = gen.uniform(-1.0 / k, 1.0 / k, (k, 512)).astype(np.float32)
        z = gen.normal(size=(6, 512))
        z *= norm * gen.uniform(0.9, 1.1, (6, 1)) / np.linalg.norm(z, axis=1, keepdims=True)
        z = z.astype(np.float32)
        np.testing.assert_array_equal(nearest_codes(z, embeddings), brute_force_codes(z, embeddings))

    def test_float32_near_ties_go_through_one_rerank(self, monkeypatch):
        # Codebook and latents sit 1e-3 apart around a point 1e3 out, so the
        # float32 GEMM's rounding swamps the gaps between distances. Every
        # row keeps many candidates, and all of them are re-checked in one
        # call that spans several pair blocks.
        gen = np.random.default_rng(5)
        base = gen.normal(size=512) * 1e3
        embeddings = (base + gen.normal(size=(64, 512)) * 1e-3).astype(np.float32)
        z = (base + gen.normal(size=(32, 512)) * 1e-3).astype(np.float32)
        expected = brute_force_codes(z, embeddings)
        ee = np.einsum("kd,kd->k", embeddings, embeddings)
        gemm_only = (ee - 2.0 * (z @ embeddings.T)).argmin(axis=1)
        assert np.sum(gemm_only != expected) >= 16
        pairs = []
        rerank = vqvae._rerank

        def counting_rerank(z64, e, candidates):
            pairs.append(int(candidates.sum()))
            return rerank(z64, e, candidates)

        monkeypatch.setattr(vqvae, "_rerank", counting_rerank)
        np.testing.assert_array_equal(nearest_codes(z, embeddings), expected)
        assert len(pairs) == 1 and pairs[0] > 2 * (2**18 // 512)

    def test_float32_cross_term_sets_the_bound(self):
        # Latents of norm 1e4 against rows of norm about 1 that differ only
        # across the latents' direction: the true gaps (about 1e-3) lie
        # between the rounding of the norms alone and that of the dot
        # products, so a bound without the cross term loses the winner.
        gen = np.random.default_rng(14)
        direction = gen.normal(size=64)
        direction /= np.linalg.norm(direction)
        across = gen.normal(size=(128, 64)) * 1e-2
        across -= np.outer(across @ direction, direction)
        embeddings = (direction + across).astype(np.float32)
        z = (1e4 * direction + gen.normal(size=(16, 64)) * 1e-3).astype(np.float32)
        np.testing.assert_array_equal(nearest_codes(z, embeddings), brute_force_codes(z, embeddings))

    def test_float32_exact_rows_and_duplicates(self):
        gen = np.random.default_rng(8)
        embeddings = gen.normal(size=(256, 64)).astype(np.float32)
        embeddings[250] = embeddings[10]
        near = embeddings[250] + (gen.normal(size=64) * 1e-3).astype(np.float32)
        z = np.vstack([embeddings[[3, 10, 250, 99]], near])
        assert z.dtype == np.float32
        assert nearest_codes(z, embeddings).tolist() == [3, 10, 10, 99, 10]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("case", [
        "squares overflow", "just under the cutoff", "row squares overflow",
        "subnormal latents", "subnormal rows", "nan and inf latents", "nan row", "inf row",
    ])
    def test_float32_extreme_values_keep_the_explicit_answer(self, case):
        gen = np.random.default_rng(12)
        embeddings = gen.normal(size=(64, 16)).astype(np.float32)
        z = gen.normal(size=(12, 16)).astype(np.float32)
        if case == "squares overflow":
            z[::2] *= np.float32(1e20)
        elif case == "just under the cutoff":
            z[::2] *= np.float32(1e14)
        elif case == "row squares overflow":
            embeddings[9] = 1e20
            z[0] = 1e20
        elif case == "subnormal latents":
            z *= np.float32(1e-40)
        elif case == "subnormal rows":
            embeddings[::2] *= np.float32(1e-40)
            z[::3] *= np.float32(1e-40)
        elif case == "nan and inf latents":
            z[1, 3], z[2, 0], z[3] = np.nan, np.inf, -np.inf
        elif case == "nan row":
            embeddings[5, 0] = np.nan
        else:
            embeddings[7, 0] = np.inf
        assert z.dtype == embeddings.dtype == np.float32
        np.testing.assert_array_equal(nearest_codes(z, embeddings), brute_force_codes(z, embeddings))

    @pytest.mark.parametrize("z_dtype, e_dtype", [(np.float32, np.float64), (np.float64, np.float32)])
    def test_mixed_precisions_match_bruteforce(self, z_dtype, e_dtype):
        gen = np.random.default_rng(13)
        embeddings = gen.normal(size=(128, 32)).astype(e_dtype)
        z = gen.normal(size=(40, 32)).astype(z_dtype)
        z[:5] = embeddings[[1, 2, 3, 4, 5]]
        np.testing.assert_array_equal(nearest_codes(z, embeddings), brute_force_codes(z, embeddings))

    def test_matches_the_float64_screen_on_encoder_latents(self, desk_model, corpus_mels):
        # Float32 latents of a desk model and of a paper-size model after one
        # step on two clips, as the benchmark trains it: the same codes as
        # the float64 screen that the float32 one replaced.
        mels = np.stack([corpus_mels[uid] for uid in sorted(corpus_mels)[:4]]).astype(np.float32)
        paper = VqVae(VqVaeConfig(), Rng(1))
        train_step(paper, mels[:2, None], Adam(paper.params(), paper.config.learning_rate))
        for model in (desk_model, paper):
            with no_grad():
                z = flatten_grid(model.encode(Tensor(mels[:, None]))).data
            assert z.dtype == model.codebook.data.dtype == np.float32
            np.testing.assert_array_equal(
                nearest_codes(z, model.codebook.data), reference_nearest_codes(z, model.codebook.data)
            )

    def test_paper_size_screen_copies_no_codebook(self):
        # 64 float32 latents (one utterance) against the paper's float32
        # codebook: the screen's peak stays under one codebook's bytes.
        gen = np.random.default_rng(9)
        k, d = 8192, 512
        embeddings = gen.uniform(-1.0 / k, 1.0 / k, (k, d)).astype(np.float32)
        z = (gen.normal(size=(64, d)) / np.sqrt(d)).astype(np.float32)
        tracemalloc.start()
        try:
            nearest_codes(z, embeddings)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < embeddings.nbytes


def grid(rows, n=1):
    """(n * P, d) rows -> an (n, d, 1, P) latent grid that requires grad."""
    rows = np.asarray(rows, dtype=np.float64)
    d = rows.shape[1]
    values = rows.reshape(n, 1, -1, d).transpose(0, 3, 1, 2).copy()
    return Tensor(values, requires_grad=True)


class TestLosses:
    def test_identical_reconstruction_zero_loss(self, rng):
        x = Tensor(rng.normal(0, 1, (2, 4), np.float64))
        assert float(mse(x, Tensor(x.data.copy())).data) == 0.0

    def test_matched_embedding_zero_terms(self, rng):
        rows = rng.normal(0, 1, (3, 4), np.float64)
        z = grid(rows)
        e = Tensor(rows.copy(), requires_grad=True)
        cb, commit = codebook_losses(z, e, np.arange(3), beta=0.25)
        assert float(cb.data) == 0.0
        assert float(commit.data) == 0.0

    def test_commitment_is_beta_times_mean_square(self):
        # mean squared difference of 4.0 with beta 0.25 gives 1.0
        z = grid(np.full((2, 2), 2.0))
        e = Tensor(np.zeros((1, 2)))
        cb, commit = codebook_losses(z, e, np.zeros(2, dtype=np.int64), beta=0.25)
        assert float(commit.data) == pytest.approx(1.0)
        assert float((cb + commit).data) == pytest.approx(1.0 + 4.0)  # plus codebook term

    def test_codebook_term_moves_embeddings_only(self, rng):
        z = grid(rng.normal(0, 1, (3, 4), np.float64))
        e = Tensor(rng.normal(0, 1, (3, 4), np.float64), requires_grad=True)
        cb, _ = codebook_losses(z, e, np.arange(3), beta=0.25)
        cb.backward()
        assert z.grad is None
        assert e.grad is not None and np.any(e.grad != 0)

    def test_commitment_term_moves_encoder_only(self, rng):
        z = grid(rng.normal(0, 1, (3, 4), np.float64))
        e = Tensor(rng.normal(0, 1, (3, 4), np.float64), requires_grad=True)
        _, commit = codebook_losses(z, e, np.arange(3), beta=0.25)
        commit.backward()
        assert e.grad is None
        assert z.grad is not None and np.any(z.grad != 0)

    def test_codebook_gradient_sums_repeated_rows(self):
        # d/de_k of mean((z - e_c)**2) is -2 * sum over positions coded k of
        # (z - e_k), over the 4 elements; row 2 is never picked.
        z = grid([[1.0], [2.0], [3.0], [5.0]])
        e = Tensor(np.zeros((3, 1)), requires_grad=True)
        cb, _ = codebook_losses(z, e, np.array([1, 0, 1, 1]), beta=0.25)
        cb.backward()
        np.testing.assert_array_equal(e.grad, [[-1.0], [-4.5], [0.0]])

    def test_each_term_gradchecks_against_its_own_parent(self, rng):
        # With the codes held fixed, each term's gradient is the true one for
        # the side it moves: the codebook term for e, the commitment for z.
        z = grid(rng.normal(0, 1, (6, 3), np.float64), n=2)
        e = Tensor(rng.normal(0, 1, (4, 3), np.float64), requires_grad=True)
        codes = np.array([0, 2, 2, 3, 0, 2])
        for term, wrt in ((0, e), (1, z)):
            err = finite_diff_grad_check(
                lambda: codebook_losses(z, e, codes, beta=0.25)[term], [wrt]
            )
            assert err < 1e-6


class TestMatchesReference:
    """``quantize`` and ``codebook_losses`` against the same loss built from
    general tape ops (``reference_vq_losses``): values and gradients
    bitwise equal, with a 4-row codebook so codes repeat."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal(self, dtype):
        cfg = VqVaeConfig(codebook_size=4, code_dim=4, channels=(2, 2, 2, 4, 4))
        model = VqVae(cfg, Rng(21), dtype=dtype)
        x = Tensor(two_pattern_mels(1, Rng(22))[0][:2, None].astype(dtype))

        def run(build):
            z_e, z_q, codes, *terms = build()
            total = terms[0] + terms[1] + terms[2]
            total.backward()
            out = [codes, z_q.data, z_e.grad, *(t.data for t in (*terms, total))]
            out += [p.grad for _, p in sorted(model.params().items())]
            for p in model.params().values():
                p.zero_grad()
            return out

        def fused():
            z_e = model.encode(x)
            z_q, codes = quantize(z_e, model.codebook)
            recon = mse(x, model.decode(z_q))
            cb, commit = codebook_losses(z_e, model.codebook, codes, cfg.beta)
            return z_e, z_q, codes, recon, cb, commit

        ours = run(fused)
        reference = run(lambda: reference_vq_losses(model, x))
        assert len(np.unique(ours[0])) < len(ours[0])
        for a, b in zip(ours, reference):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


class TestTraining:
    def test_straight_through_gradient_is_bitwise_copied(self):
        model = VqVae(VqVaeConfig.desk(), Rng(2))
        mels, _ = two_pattern_mels(1, Rng(3))
        x = Tensor(mels[:2, None, :, :].astype(np.float32))
        z_e = model.encode(x)
        z_q, codes = quantize(z_e, model.codebook)
        np.testing.assert_array_equal(flatten_grid(z_q).data, model.codebook.data[codes])
        x_hat = model.decode(z_q)
        diff = x - x_hat
        recon = tensor_sum(mul(diff, diff))
        recon.backward()
        assert z_q.grad is not None
        assert z_e.grad.tobytes() == z_q.grad.tobytes()
        assert model.codebook.grad is None  # reconstruction path skips the codebook

    def test_step_tape_has_one_node_per_conv_layer(self, monkeypatch):
        # Each of the ten conv layers is one node, its bias and ReLU included,
        # and so are the quantized grid, the reconstruction error and the
        # codebook and commitment terms.
        sizes = []
        backward = Tensor.backward

        def counting_backward(self):
            sizes.append(tape_nodes(self))
            backward(self)

        monkeypatch.setattr(Tensor, "backward", counting_backward)
        model = VqVae(VqVaeConfig.desk(), Rng(6))
        mels, _ = two_pattern_mels(1, Rng(5))
        train_step(model, mels[:2, None, :, :], Adam(model.params(), 1e-3))
        assert sizes == [38]

    def test_short_training_reduces_loss(self):
        mels, _ = two_pattern_mels(4, Rng(5))
        cfg = VqVaeConfig.desk()
        model = VqVae(cfg, Rng(6))
        adam = Adam(model.params(), cfg.learning_rate)
        batch = mels[:, None, :, :]
        first, _ = train_step(model, batch, adam)
        last = first
        for _ in range(49):
            last, _ = train_step(model, batch, adam)
        assert last.total < first.total

    def test_zero_learning_rate_freezes_params(self):
        mels, _ = two_pattern_mels(1, Rng(5))
        model = VqVae(VqVaeConfig.desk(), Rng(6))
        before = {k: v.data.copy() for k, v in model.params().items()}
        adam = Adam(model.params(), 0.0)
        train_step(model, mels[:, None, :, :], adam)
        for name, value in model.params().items():
            np.testing.assert_array_equal(value.data, before[name])

    def test_history_is_on_disk_after_every_epoch(self, monkeypatch, tmp_path):
        # The holdout loss runs once per epoch, before that epoch's line.
        path = tmp_path / "vq.history.jsonl"
        lines_seen = []
        holdout_loss = vqvae.reconstruction_loss

        def reading_loss(model, mels, *args, **kwargs):
            lines_seen.append(len(path.read_text().splitlines()))
            return holdout_loss(model, mels, *args, **kwargs)

        monkeypatch.setattr(vqvae, "reconstruction_loss", reading_loss)
        mels, _ = two_pattern_mels(1, Rng(5))
        _, history = vqvae.train_vqvae(
            mels, VqVaeConfig.desk(), seed=4, epochs=3, holdout=mels[:1], history_path=path
        )
        assert lines_seen == [0, 1, 2]
        assert path.read_text() == "".join(json.dumps(e, sort_keys=True) + "\n" for e in history)

    def test_empty_holdout_fails_before_the_first_step(self, monkeypatch):
        steps = []
        monkeypatch.setattr(vqvae, "train_step", lambda *args: steps.append(args))
        mels, _ = two_pattern_mels(1, Rng(5))
        with pytest.raises(ValueError, match="holdout set is empty"):
            vqvae.train_vqvae(mels, VqVaeConfig.desk(), seed=4, epochs=1, holdout=mels[:0])
        assert steps == []

    def test_reconstruction_loss_of_no_mels_is_an_error(self, desk_model):
        with pytest.raises(ValueError, match="no mels"):
            reconstruction_loss(desk_model, np.zeros((0, 80, 256), dtype=np.float32))

    def test_checkpoint_roundtrip(self, tmp_path):
        model = VqVae(VqVaeConfig.desk(), Rng(9))
        path = tmp_path / "vq.serann"
        model.save(path)
        loaded = VqVae.load(path)
        for name, tensor in model.params().items():
            np.testing.assert_array_equal(loaded.params()[name].data, tensor.data)

    def test_checkpoint_config_mismatch(self, tmp_path):
        model = VqVae(VqVaeConfig.desk(), Rng(9))
        path = tmp_path / "vq.serann"
        model.save(path)
        other = VqVaeConfig.desk()
        other.codebook_size = 128
        from serann.coremath import CheckpointError

        with pytest.raises(CheckpointError):
            VqVae.load(path, other)


class TestExtractCodes:
    def test_determinism_length_and_bounds(self, desk_model, corpus_mels, tmp_path):
        subset = {k: corpus_mels[k] for k in list(corpus_mels)[:4]}
        first = extract_codes(subset, desk_model)
        second = extract_codes(subset, desk_model)
        assert first == second
        for codes in first.values():
            assert len(codes) == 64
            assert all(0 <= c < desk_model.config.codebook_size for c in codes)
        path = tmp_path / "codes.jsonl"
        write_codes(path, first)
        assert load_codes(path) == first

    @pytest.mark.parametrize("code", ['"x"', "null", "[1]"])
    def test_non_numeric_code_names_line_and_field(self, tmp_path, code):
        path = tmp_path / "codes.jsonl"
        write_codes(path, {"a": [1, 2], "b": [3, 4]})
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("[3, 4]", f"[3, {code}]")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JsonlError, match=re.escape(f"{path}:2: field 'codes'")):
            load_codes(path)

    @pytest.mark.parametrize("field, value", [
        ("codes", '"123"'),
        ("codes", "[1.7, 2]"),
        ("codes", "[true, 2]"),
        ("codes", "[1, -5]"),
        ("codes", '{"9": 1}'),
        ("codes", "[1e30]"),
        ("utterance_id", "7"),
        ("utterance_id", "null"),
    ])
    def test_malformed_codes_line_names_line_and_field(self, tmp_path, field, value):
        # Each of these used to load as something else: a string as its
        # digits, floats and booleans truncated, a dict as its keys.
        path = tmp_path / "codes.jsonl"
        record = {"utterance_id": '"b"', "codes": "[3, 4]", field: value}
        second = "{" + ", ".join(f'"{key}": {text}' for key, text in record.items()) + "}"
        path.write_text('{"utterance_id": "a", "codes": [1, 2]}\n' + second + "\n")
        with pytest.raises(JsonlError, match=re.escape(f"{path}:2: field '{field}'")):
            load_codes(path)

    def test_batched_matches_per_utterance(self, desk_model):
        # 40 utterances span a full batch of 32 and a partial one.
        mels = Rng(12).normal(0, 1, (40, 80, 256))
        by_id = {f"u{i:02d}": mel for i, mel in enumerate(mels)}
        single = {}
        for uid, mel in by_id.items():
            _, codes = quantize(desk_model.encode(Tensor(mel[None, None])), desk_model.codebook)
            single[uid] = codes.tolist()
        assert extract_codes(by_id, desk_model) == single

    def test_inference_records_no_tape(self, desk_model, taped_tensors):
        mels = Rng(13).normal(0, 1, (3, 80, 256)).astype(np.float32)
        x = Tensor(mels[:, None])
        z_q, codes = quantize(desk_model.encode(x), desk_model.codebook)
        expected = float(((x.data - desk_model.decode(z_q).data) ** 2).mean()) * 3 / 3
        taped_tensors.clear()
        by_id = {f"u{i}": mel for i, mel in enumerate(mels)}
        assert extract_codes(by_id, desk_model) == dict(zip(by_id, codes.reshape(3, -1).tolist()))
        assert reconstruction_loss(desk_model, mels) == expected
        assert taped_tensors == []
