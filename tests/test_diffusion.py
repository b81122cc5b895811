"""Tests for noise schedules, the DDPM process and imputed diffusion models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion import (
    GaussianDiffusion,
    ImputedDiffusion,
    NoiseSchedule,
    cosine_beta_schedule,
    linear_beta_schedule,
    make_schedule,
    quadratic_beta_schedule,
)
from repro.masking import GratingMasking
from repro.models import ImTransformer
from repro.nn import Adam


class TestSchedules:
    @pytest.mark.parametrize("factory", [linear_beta_schedule, quadratic_beta_schedule,
                                         cosine_beta_schedule])
    def test_basic_properties(self, factory):
        schedule = factory(20)
        assert schedule.num_steps == 20
        assert np.all(schedule.betas > 0) and np.all(schedule.betas < 1)
        assert np.all(np.diff(schedule.alpha_bars) <= 1e-12)
        assert schedule.alpha_bars[-1] < schedule.alpha_bars[0]

    def test_alpha_bar_is_cumprod(self):
        schedule = linear_beta_schedule(10)
        np.testing.assert_allclose(schedule.alpha_bars, np.cumprod(1 - schedule.betas))

    def test_posterior_variance_bounds(self):
        schedule = quadratic_beta_schedule(15)
        for t in range(1, 16):
            variance = schedule.posterior_variance(t)
            assert 0 < variance <= schedule.betas[t - 1] + 1e-12

    def test_make_schedule_by_name(self):
        assert make_schedule("linear", 5).num_steps == 5
        with pytest.raises(KeyError):
            make_schedule("unknown", 5)

    def test_invalid_betas_rejected(self):
        with pytest.raises(ValueError):
            NoiseSchedule.from_betas(np.array([0.1, 1.5]))
        with pytest.raises(ValueError):
            NoiseSchedule.from_betas(np.array([]))

    @settings(max_examples=20, deadline=None)
    @given(steps=st.integers(min_value=2, max_value=100))
    def test_property_alpha_bars_monotone(self, steps):
        schedule = quadratic_beta_schedule(steps)
        assert np.all(np.diff(schedule.alpha_bars) < 0)
        assert 0 < schedule.alpha_bars[-1] < 1


class TestGaussianDiffusion:
    def setup_method(self):
        self.diffusion = GaussianDiffusion(linear_beta_schedule(30))
        self.rng = np.random.default_rng(0)

    def test_q_sample_shapes_and_reuse_of_noise(self):
        x0 = self.rng.normal(size=(4, 5))
        noise = self.rng.standard_normal(x0.shape)
        x_t, returned = self.diffusion.q_sample(x0, 10, noise=noise)
        assert x_t.shape == x0.shape
        np.testing.assert_allclose(returned, noise)

    def test_q_sample_final_step_is_mostly_noise(self):
        x0 = np.full((2000,), 5.0)
        x_t, _ = self.diffusion.q_sample(x0, 30, rng=self.rng)
        # alpha_bar at the last step is small, so the signal contribution shrinks.
        alpha_bar = self.diffusion.schedule.alpha_bars[-1]
        assert abs(x_t.mean() - 5.0 * np.sqrt(alpha_bar)) < 0.5

    def test_predict_x0_inverts_q_sample(self):
        x0 = self.rng.normal(size=(3, 4))
        for t in (1, 15, 30):
            x_t, noise = self.diffusion.q_sample(x0, t, rng=self.rng)
            recovered = self.diffusion.predict_x0_from_eps(x_t, t, noise)
            np.testing.assert_allclose(recovered, x0, atol=1e-10)

    def test_p_sample_step1_is_deterministic_mean(self):
        x1 = self.rng.normal(size=(2, 3))
        eps = self.rng.normal(size=(2, 3))
        out = self.diffusion.p_sample(x1, 1, eps, rng=self.rng)
        np.testing.assert_allclose(out, self.diffusion.posterior_mean_from_eps(x1, 1, eps))

    def test_p_sample_deterministic_flag(self):
        x_t = self.rng.normal(size=(2, 3))
        eps = self.rng.normal(size=(2, 3))
        a = self.diffusion.p_sample(x_t, 10, eps, rng=np.random.default_rng(1), deterministic=True)
        b = self.diffusion.p_sample(x_t, 10, eps, rng=np.random.default_rng(2), deterministic=True)
        np.testing.assert_allclose(a, b)

    def test_unseeded_draws_are_refused(self):
        x = self.rng.normal(size=(2, 3))
        eps = self.rng.normal(size=(2, 3))
        with pytest.raises(ValueError, match="q_sample needs noise or an rng"):
            self.diffusion.q_sample(x, 10)
        with pytest.raises(ValueError, match="p_sample needs noise or an rng"):
            self.diffusion.p_sample(x, 10, eps)
        with pytest.raises(ValueError, match="p_sample needs noise or an rng"):
            self.diffusion.p_sample(x, np.array([1, 10]), eps)

    def test_invalid_step_raises(self):
        with pytest.raises(ValueError):
            self.diffusion.q_sample(np.zeros(3), 0)
        with pytest.raises(ValueError):
            self.diffusion.q_sample(np.zeros(3), 31)

    def test_sample_timesteps_in_range(self):
        steps = self.diffusion.sample_timesteps(1000, self.rng)
        assert steps.min() >= 1 and steps.max() <= 30

    def test_reverse_chain_with_oracle_noise_recovers_x0(self):
        """With an oracle noise predictor (the exact eps implied by x_t and x0 at
        every step) the deterministic reverse chain converges back to x0."""
        x0 = self.rng.normal(size=(5,))
        t = 20
        x, _ = self.diffusion.q_sample(x0, t, rng=self.rng)
        start_error = np.abs(x - x0).mean()
        for step in range(t, 0, -1):
            alpha_bar = self.diffusion.schedule.alpha_bars[step - 1]
            oracle_eps = (x - np.sqrt(alpha_bar) * x0) / np.sqrt(1.0 - alpha_bar)
            x = self.diffusion.p_sample(x, step, oracle_eps, deterministic=True)
        assert np.abs(x - x0).mean() < 0.05 * max(start_error, 1e-8)


def _tiny_setup(conditioning="unconditional", seed=0, num_steps=8):
    rng = np.random.default_rng(seed)
    num_features, window = 4, 20
    model = ImTransformer(num_features=num_features, hidden_dim=8, num_blocks=1,
                          num_heads=2, rng=rng)
    diffusion = GaussianDiffusion(quadratic_beta_schedule(num_steps))
    imputer = ImputedDiffusion(model, diffusion, conditioning=conditioning)
    masks = GratingMasking(2, 2).masks(window, num_features)
    windows = np.stack([
        np.sin(np.linspace(0, 4 * np.pi, window))[:, None] * np.ones(num_features)
        for _ in range(2)
    ])
    mask_batch = np.stack([masks[0], masks[1]])
    policies = np.array([0, 1])
    return imputer, windows, mask_batch, policies, rng


class TestImputedDiffusion:
    def test_invalid_conditioning_rejected(self):
        imputer, *_ = _tiny_setup()
        with pytest.raises(ValueError):
            ImputedDiffusion(imputer.model, imputer.diffusion, conditioning="other")

    def test_training_loss_scalar_and_positive(self):
        imputer, windows, masks, policies, rng = _tiny_setup()
        loss = imputer.training_loss(windows, masks, policies, rng)
        assert loss.data.ndim == 0
        assert float(loss.data) > 0

    def test_training_loss_shape_mismatch(self):
        imputer, windows, masks, policies, rng = _tiny_setup()
        with pytest.raises(ValueError):
            imputer.training_loss(windows, masks[:, :10], policies, rng)

    def test_training_reduces_loss(self):
        imputer, windows, masks, policies, rng = _tiny_setup(seed=1)
        optimizer = Adam(imputer.model.parameters(), lr=5e-3)
        losses = []
        for _ in range(30):
            optimizer.zero_grad()
            loss = imputer.training_loss(windows, masks, policies, rng)
            loss.backward()
            optimizer.step()
            losses.append(float(loss.data))
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_impute_preserves_observed_values(self):
        imputer, windows, masks, policies, rng = _tiny_setup()
        result = imputer.impute(windows, masks, policies, rng)
        observed = masks.astype(bool)
        np.testing.assert_allclose(result.final[observed], windows[observed])
        for _, estimate in result.intermediate:
            np.testing.assert_allclose(estimate[observed], windows[observed])

    def test_impute_step_ordering_and_count(self):
        imputer, windows, masks, policies, rng = _tiny_setup(num_steps=6)
        result = imputer.impute(windows, masks, policies, rng)
        assert result.steps() == list(range(6, 0, -1))

    def test_impute_x0_collection(self):
        imputer, windows, masks, policies, rng = _tiny_setup()
        result = imputer.impute(windows, masks, policies, rng, collect="x0")
        assert len(result.intermediate) == imputer.diffusion.num_steps

    def test_impute_invalid_collect(self):
        imputer, windows, masks, policies, rng = _tiny_setup()
        with pytest.raises(ValueError):
            imputer.impute(windows, masks, policies, rng, collect="bad")

    def test_imputation_error_zero_on_observed(self):
        imputer, windows, masks, policies, rng = _tiny_setup()
        result = imputer.impute(windows, masks, policies, rng)
        # Every visited step's estimate carries the ground truth on observed
        # cells, so the squared error there is exactly zero.
        assert result.steps() == list(range(imputer.diffusion.num_steps, 0, -1))
        for _, estimate in result.intermediate:
            error = (estimate - windows) ** 2
            assert np.all(error[masks.astype(bool)] == 0.0)
            assert np.any(error[~masks.astype(bool)] > 0.0)

    def test_conditional_mode_uses_clean_reference(self):
        imputer, windows, masks, policies, rng = _tiny_setup(conditioning="conditional")
        loss = imputer.training_loss(windows, masks, policies, rng)
        assert np.isfinite(float(loss.data))
        result = imputer.impute(windows, masks, policies, rng)
        assert np.isfinite(result.final).all()

    def test_deterministic_impute_reproducible(self):
        imputer, windows, masks, policies, _ = _tiny_setup()
        a = imputer.impute(windows, masks, policies, np.random.default_rng(3),
                           deterministic=True)
        b = imputer.impute(windows, masks, policies, np.random.default_rng(3),
                           deterministic=True)
        np.testing.assert_allclose(a.final, b.final)


class TestImTransformer:
    def test_output_shape(self):
        rng = np.random.default_rng(0)
        model = ImTransformer(num_features=5, hidden_dim=8, num_blocks=2, num_heads=2, rng=rng)
        x = rng.normal(size=(3, 2, 5, 16))
        out = model(x, np.array([1, 2, 3]), np.array([0, 1, 0]))
        assert out.shape == (3, 5, 16)

    def test_wrong_channel_count_raises(self):
        model = ImTransformer(num_features=5, hidden_dim=8, num_blocks=1, num_heads=2)
        with pytest.raises(ValueError):
            model(np.zeros((1, 3, 5, 16)), np.array([1]), np.array([0]))

    def test_wrong_feature_count_raises(self):
        model = ImTransformer(num_features=5, hidden_dim=8, num_blocks=1, num_heads=2)
        with pytest.raises(ValueError):
            model(np.zeros((1, 2, 4, 16)), np.array([1]), np.array([0]))

    def test_ablation_flags_reduce_parameters(self):
        rng = np.random.default_rng(0)
        full = ImTransformer(5, hidden_dim=8, num_blocks=1, num_heads=2, rng=rng)
        no_spatial = ImTransformer(5, hidden_dim=8, num_blocks=1, num_heads=2,
                                   include_spatial=False, rng=rng)
        no_temporal = ImTransformer(5, hidden_dim=8, num_blocks=1, num_heads=2,
                                    include_temporal=False, rng=rng)
        assert no_spatial.num_parameters() < full.num_parameters()
        assert no_temporal.num_parameters() < full.num_parameters()

    def test_gradients_reach_all_parameters(self):
        rng = np.random.default_rng(1)
        model = ImTransformer(num_features=3, hidden_dim=8, num_blocks=2, num_heads=2, rng=rng)
        out = model(rng.normal(size=(2, 2, 3, 12)), np.array([1, 4]), np.array([0, 1]))
        (out * out).mean().backward()
        missing = [name for name, p in model.named_parameters() if p.grad is None]
        assert missing == []

    def test_different_steps_change_output(self):
        rng = np.random.default_rng(2)
        model = ImTransformer(num_features=3, hidden_dim=8, num_blocks=1, num_heads=2, rng=rng)
        x = rng.normal(size=(1, 2, 3, 12))
        out1 = model(x, np.array([1]), np.array([0])).data
        out2 = model(x, np.array([8]), np.array([0])).data
        assert not np.allclose(out1, out2)

    def test_different_policies_change_output(self):
        rng = np.random.default_rng(3)
        model = ImTransformer(num_features=3, hidden_dim=8, num_blocks=1, num_heads=2, rng=rng)
        x = rng.normal(size=(1, 2, 3, 12))
        out1 = model(x, np.array([2]), np.array([0])).data
        out2 = model(x, np.array([2]), np.array([1])).data
        assert not np.allclose(out1, out2)


class TestEmbeddings:
    def test_sinusoidal_shape_and_range(self):
        from repro.models import sinusoidal_embedding

        emb = sinusoidal_embedding(np.arange(10), 16)
        assert emb.shape == (10, 16)
        assert np.abs(emb).max() <= 1.0 + 1e-12

    def test_sinusoidal_odd_dim_raises(self):
        from repro.models import sinusoidal_embedding

        with pytest.raises(ValueError):
            sinusoidal_embedding(np.arange(4), 5)

    def test_complementary_embedding_shape(self):
        from repro.models import ComplementaryEmbedding

        emb = ComplementaryEmbedding(num_features=6, hidden_dim=8,
                                     rng=np.random.default_rng(0))
        out = emb(12)
        assert out.shape == (1, 8, 6, 12)

    def test_step_embedding_distinguishes_steps(self):
        from repro.models import DiffusionStepEmbedding

        emb = DiffusionStepEmbedding(hidden_dim=8, rng=np.random.default_rng(0))
        out = emb(np.array([1, 50])).data
        assert out.shape == (2, 8)
        assert not np.allclose(out[0], out[1])
