"""Analog network coding: amplitude estimation, subtraction, collision
resolution, least-squares cancellation and the Alice-Bob exchange."""

from __future__ import annotations

import numpy as np
import pytest

from repro.air.ids import bits_to_int, generate_tag_ids, id_to_bits
from repro.phy.anc import (
    alice_bob_exchange,
    estimate_amplitudes,
    estimate_phase_offset,
    least_squares_cancel,
    resolve_collision,
    subtract_known,
)
from repro.phy.channel import ChannelGain, awgn, mix_signals, random_channel
from repro.phy.msk import msk_modulate


def _tag_waveforms(count, rng, samples_per_bit=8, snr_db=None,
                   max_freq_offset=0.0):
    """IDs, their bit frames and channel-shaped waveforms, plus the mix."""
    ids = generate_tag_ids(count, rng)
    frames = [id_to_bits(tag) for tag in ids]
    waveforms = [
        random_channel(rng, max_freq_offset=max_freq_offset).apply(
            msk_modulate(bits, samples_per_bit=samples_per_bit))
        for bits in frames
    ]
    mixed = mix_signals(waveforms)
    if snr_db is not None:
        mixed = awgn(mixed, snr_db, rng)
    return ids, frames, waveforms, mixed


class TestAmplitudeEstimation:
    def test_recovers_both_amplitudes(self, rng):
        """The paper's two energy equations, with drifting relative phase."""
        a, b = 1.0, 0.6
        s1 = ChannelGain(a, 0.0, freq_offset=0.017).apply(
            msk_modulate(rng.integers(0, 2, 600).astype(np.uint8)))
        s2 = ChannelGain(b, 1.1, freq_offset=-0.013).apply(
            msk_modulate(rng.integers(0, 2, 600).astype(np.uint8)))
        estimate = estimate_amplitudes(mix_signals([s1, s2]))
        assert estimate.a == pytest.approx(a, abs=0.12)
        assert estimate.b == pytest.approx(b, abs=0.12)
        assert estimate.a >= estimate.b

    def test_mu_is_total_power(self, rng):
        signal = msk_modulate(rng.integers(0, 2, 100).astype(np.uint8),
                              amplitude=0.8)
        estimate = estimate_amplitudes(signal)
        assert estimate.mu == pytest.approx(0.64, rel=1e-6)

    def test_single_constituent_gives_near_zero_b(self, rng):
        signal = msk_modulate(rng.integers(0, 2, 200).astype(np.uint8))
        estimate = estimate_amplitudes(signal)
        assert estimate.b < 0.3 * estimate.a

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            estimate_amplitudes(np.array([], dtype=complex))


class TestSubtraction:
    def test_exact_subtraction_recovers_partner(self, rng):
        _, _, waveforms, mixed = _tag_waveforms(2, rng)
        residual = subtract_known(mixed, waveforms[0])
        assert np.allclose(residual, waveforms[1])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            subtract_known(np.ones(4, dtype=complex),
                           np.ones(5, dtype=complex))

    def test_inputs_are_never_modified(self, rng):
        """The signal reader keeps ``record.mixed`` and re-subtracts from it
        on every retry, so no cancellation primitive may write through its
        arguments (complex128 inputs pass ``np.asarray`` uncopied)."""
        _, frames, waveforms, mixed = _tag_waveforms(3, rng, snr_db=25)
        mixed = np.asarray(mixed, dtype=np.complex128)
        inputs = [mixed, *waveforms, *frames]
        before = [array.copy() for array in inputs]
        subtract_known(mixed, waveforms[0])
        resolve_collision(mixed, waveforms[:-1])
        least_squares_cancel(mixed, frames[:-1])
        for array, original in zip(inputs, before):
            assert np.array_equal(array, original)


class TestResolveCollision:
    def test_two_collision_resolves(self, rng):
        """The paper's headline primitive: 2-collision slots are resolvable."""
        ids, _, waveforms, mixed = _tag_waveforms(2, rng, snr_db=25)
        recovered = resolve_collision(mixed, [waveforms[0]])
        assert recovered is not None
        assert bits_to_int(recovered) == ids[1]

    @pytest.mark.parametrize("k", [3, 4])
    def test_k_collision_resolves_with_k_minus_1_knowns(self, rng, k):
        ids, _, waveforms, mixed = _tag_waveforms(k, rng, snr_db=25)
        recovered = resolve_collision(mixed, waveforms[:-1])
        assert recovered is not None
        assert bits_to_int(recovered) == ids[-1]

    def test_two_unknowns_fail_crc(self, rng):
        """Removing k-2 signals leaves a 2-mix whose CRC must reject.

        Comparable amplitudes are used on purpose: with a strongly dominant
        constituent the MSK demodulator can *capture* it and decode a valid
        frame -- a real physical effect, but not the case under test.
        """
        ids = generate_tag_ids(3, rng)
        gains = [ChannelGain(1.0, 0.3), ChannelGain(0.97, 2.0),
                 ChannelGain(0.94, 4.1)]
        waveforms = [gain.apply(msk_modulate(id_to_bits(tag)))
                     for gain, tag in zip(gains, ids)]
        mixed = awgn(mix_signals(waveforms), 30, rng)
        assert resolve_collision(mixed, [waveforms[0]]) is None

    def test_severe_noise_fails_gracefully(self, rng):
        _, _, waveforms, mixed = _tag_waveforms(2, rng, snr_db=-10)
        assert resolve_collision(mixed, [waveforms[0]]) is None


class TestLeastSquaresCancel:
    def test_cancels_with_unknown_gains(self, rng):
        """Cancellation needs only the bits when gains must be re-estimated."""
        ids, frames, _, mixed = _tag_waveforms(3, rng, snr_db=25)
        recovered = least_squares_cancel(mixed, frames[:-1])
        assert recovered is not None
        assert bits_to_int(recovered) == ids[-1]

    def test_rejects_empty_basis(self, rng):
        with pytest.raises(ValueError):
            least_squares_cancel(np.ones(5, dtype=complex), [])

    def test_rejects_length_mismatch(self, rng):
        _, frames, _, mixed = _tag_waveforms(2, rng)
        with pytest.raises(ValueError):
            least_squares_cancel(mixed[:-3], frames[:1])

    def test_fails_cleanly_when_two_unknowns_remain(self, rng):
        _, frames, _, mixed = _tag_waveforms(4, rng, snr_db=30)
        assert least_squares_cancel(mixed, frames[:2]) is None


class TestPhaseOffset:
    def test_recovers_known_rotation(self, rng):
        bits = rng.integers(0, 2, 96).astype(np.uint8)
        gamma_true = 2.2
        own = msk_modulate(bits) * np.exp(1j * gamma_true)
        other = ChannelGain(0.5, 0.4).apply(
            msk_modulate(rng.integers(0, 2, 96).astype(np.uint8)))
        gamma = estimate_phase_offset(mix_signals([own, other]), bits, 1.0)
        assert abs((gamma - gamma_true + np.pi) % (2 * np.pi) - np.pi) < 0.1

    def test_rejects_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            estimate_phase_offset(np.ones(5, dtype=complex),
                                  np.array([1, 0], dtype=np.uint8), 1.0)


class TestAliceBob:
    def test_exchange_succeeds_at_high_snr(self, rng):
        alice = rng.integers(0, 2, 64).astype(np.uint8)
        bob = rng.integers(0, 2, 64).astype(np.uint8)
        result = alice_bob_exchange(alice, bob, rng, snr_db=35)
        assert result.alice_ok and result.bob_ok
        assert np.array_equal(result.bits_decoded_by_alice, bob)
        assert np.array_equal(result.bits_decoded_by_bob, alice)

    def test_rejects_unequal_messages(self, rng):
        with pytest.raises(ValueError):
            alice_bob_exchange(np.zeros(8, dtype=np.uint8),
                               np.zeros(9, dtype=np.uint8), rng)
