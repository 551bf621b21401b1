"""Analog Network Coding operations (paper section II-B).

Implements the signal arithmetic the paper borrows from Katti et al.:

* :func:`estimate_amplitudes` -- recover the two constituent amplitudes of a
  mixed signal ``y[n] = A e^{i theta[n]} + B e^{i phi[n]}`` from the energy
  statistics ``mu = E[|y|^2] = A^2 + B^2`` and
  ``sigma = (2/W) * sum_{|y|^2 > mu} |y|^2 = A^2 + B^2 + 4AB/pi``
  (Hamkins' co-channel FM separation).
* :func:`subtract_known` / :func:`resolve_collision` -- the RFID reader's
  operation: remove the signals of already-identified tags from a recorded
  collision and demodulate what is left.  Because tags are static, the signal
  observed in a singleton slot is *identical* (same channel) to that tag's
  contribution in any collision slot, so no channel estimation is needed.
* :func:`alice_bob_exchange` -- the Fig. 2 two-slot relay exchange, where each
  endpoint only knows its *transmitted* signal and must estimate the amplitude
  and phase its own signal acquired on the way to the router before it can
  subtract it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.air.crc import verify_crc_bits
from repro.phy.channel import ChannelGain, awgn, mix_signals
from repro.phy.msk import SAMPLES_PER_BIT, msk_demodulate, msk_modulate


@dataclass(frozen=True)
class AmplitudeEstimate:
    """Constituent amplitudes recovered from a two-signal mix (``a >= b``)."""

    a: float
    b: float
    mu: float
    sigma: float


def estimate_amplitudes(mixed: np.ndarray) -> AmplitudeEstimate:
    """Estimate the amplitudes of the two constituents of a mixed signal.

    Uses the two energy equations of paper section II-B.  Noise can push the
    implied ``AB`` product slightly out of range; the solver clamps the
    discriminant at zero (equal amplitudes) in that case.
    """
    mixed = np.asarray(mixed, dtype=np.complex128)
    if mixed.size == 0:
        raise ValueError("mixed signal is empty")
    power = np.abs(mixed) ** 2
    mu = float(power.mean())
    above = power[power > mu]
    sigma = float(2.0 * above.sum() / power.size)
    product = np.pi * (sigma - mu) / 4.0  # = A*B in expectation
    product = max(product, 0.0)
    discriminant = max(mu * mu - 4.0 * product * product, 0.0)
    root = np.sqrt(discriminant)
    a_sq = (mu + root) / 2.0
    b_sq = max((mu - root) / 2.0, 0.0)
    return AmplitudeEstimate(a=float(np.sqrt(a_sq)), b=float(np.sqrt(b_sq)),
                             mu=mu, sigma=sigma)


def subtract_known(mixed: np.ndarray, known: np.ndarray) -> np.ndarray:
    """Remove a known constituent signal from a recorded mixed signal."""
    mixed = np.asarray(mixed, dtype=np.complex128)
    known = np.asarray(known, dtype=np.complex128)
    if mixed.shape != known.shape:
        raise ValueError(
            f"shape mismatch: mixed {mixed.shape} vs known {known.shape}")
    return mixed - known


def decode_residual(residual: np.ndarray,
                    samples_per_bit: int = SAMPLES_PER_BIT) -> np.ndarray:
    """Demodulate a residual signal into bits (MSK decision on phase slope)."""
    return msk_demodulate(residual, samples_per_bit)


def resolve_collision(mixed: np.ndarray, known_signals: list[np.ndarray],
                      samples_per_bit: int = SAMPLES_PER_BIT) -> np.ndarray | None:
    """The RFID reader's collision-record resolution primitive.

    Subtracts every known constituent from ``mixed``, demodulates the residual
    and validates its CRC.  Returns the recovered bit frame (payload + CRC) on
    success, or ``None`` when the CRC rejects the residual -- which is what
    happens when more than one unknown constituent remains, or when noise has
    accumulated beyond what the demodulator tolerates.
    """
    residual = np.asarray(mixed, dtype=np.complex128)
    for known in known_signals:
        residual = subtract_known(residual, known)
    bits = decode_residual(residual, samples_per_bit)
    if bits.size and verify_crc_bits(bits):
        return bits
    return None


def least_squares_cancel(mixed: np.ndarray, known_bits: list[np.ndarray],
                         samples_per_bit: int = SAMPLES_PER_BIT) -> np.ndarray | None:
    """Cancel known constituents when their *waveforms* are not directly known.

    If the tag oscillators are not phase-locked between slots, the signal a tag
    contributed to an old collision record differs from its singleton-slot
    signal by an unknown complex factor.  The reader still knows the tag's
    *bits*, so it can regenerate each known constituent up to a complex gain
    and solve for all gains jointly by least squares (distinct random MSK
    waveforms are nearly orthogonal over a 96-bit ID).  Returns the recovered
    bit frame of the remaining constituent, or ``None`` if the CRC rejects it.
    """
    mixed = np.asarray(mixed, dtype=np.complex128)
    if not known_bits:
        raise ValueError("need at least one known constituent")
    basis = np.column_stack([
        msk_modulate(bits, samples_per_bit=samples_per_bit)
        for bits in known_bits
    ])
    if basis.shape[0] != mixed.size:
        raise ValueError("known constituents do not match the mix length")
    gains, *_ = np.linalg.lstsq(basis, mixed, rcond=None)
    residual = mixed - basis @ gains
    bits = decode_residual(residual, samples_per_bit)
    if bits.size and verify_crc_bits(bits):
        return bits
    return None


def estimate_phase_offset(received: np.ndarray, own_bits: np.ndarray,
                          own_amplitude: float,
                          samples_per_bit: int = SAMPLES_PER_BIT,
                          grid_points: int = 256) -> float:
    """Estimate the phase rotation a node's own signal acquired in a mix.

    Given the received mix ``r`` and the node's transmitted bit string, searches
    phase offsets ``gamma`` for the one minimizing the envelope variance of
    ``r - A * e^{i(theta_s + gamma)}``: after a correct subtraction the residual
    is (close to) a constant-envelope MSK signal, so envelope variance is a
    natural goodness-of-fit measure.
    """
    received = np.asarray(received, dtype=np.complex128)
    base = msk_modulate(own_bits, amplitude=own_amplitude,
                        samples_per_bit=samples_per_bit)
    if base.shape != received.shape:
        raise ValueError("own signal and received mix have different lengths")
    gammas = np.linspace(0.0, 2 * np.pi, grid_points, endpoint=False)
    best_gamma, best_score = 0.0, np.inf
    for gamma in gammas:
        residual = received - base * np.exp(1j * gamma)
        envelope = np.abs(residual)
        score = float(envelope.var())
        if score < best_score:
            best_gamma, best_score = float(gamma), score
    return best_gamma


@dataclass(frozen=True)
class ExchangeResult:
    """Outcome of one Alice-Bob ANC exchange (paper Fig. 2)."""

    bits_decoded_by_alice: np.ndarray
    bits_decoded_by_bob: np.ndarray
    alice_ok: bool
    bob_ok: bool


def _decode_peer(received: np.ndarray, own_bits: np.ndarray,
                 samples_per_bit: int) -> np.ndarray:
    """Subtract the node's own contribution from a mix and decode the peer's.

    The energy statistics yield two amplitude candidates but not which one
    belongs to whom, so both are tried; the subtraction leaving the residual
    with the flatter envelope (closer to constant-modulus MSK) wins.
    """
    estimate = estimate_amplitudes(received)
    best_residual, best_score = None, np.inf
    for amplitude in {estimate.a, estimate.b}:
        if amplitude <= 0:
            continue
        gamma = estimate_phase_offset(received, own_bits, amplitude,
                                      samples_per_bit=samples_per_bit)
        own = msk_modulate(own_bits, amplitude=amplitude,
                           samples_per_bit=samples_per_bit) * np.exp(1j * gamma)
        residual = subtract_known(received, own)
        score = float(np.abs(residual).var())
        if score < best_score:
            best_residual, best_score = residual, score
    if best_residual is None:
        raise ValueError("could not attribute an amplitude to the own signal")
    return decode_residual(best_residual, samples_per_bit)


def alice_bob_exchange(alice_bits: np.ndarray, bob_bits: np.ndarray,
                       rng: np.random.Generator, snr_db: float = 30.0,
                       alice_channel: ChannelGain | None = None,
                       bob_channel: ChannelGain | None = None,
                       samples_per_bit: int = SAMPLES_PER_BIT) -> ExchangeResult:
    """Run the two-slot Alice-Bob exchange through an amplify-and-forward relay.

    Both endpoints transmit simultaneously; the router broadcasts the mix; each
    endpoint estimates the amplitude/phase of its own contribution, subtracts
    it and demodulates the peer's bits.  The subtraction here is *harder* than
    the RFID case (the paper's point): the endpoints never observe their own
    signal as received, so they must estimate amplitude and phase first.
    """
    alice_bits = np.asarray(alice_bits, dtype=np.uint8)
    bob_bits = np.asarray(bob_bits, dtype=np.uint8)
    if alice_bits.size != bob_bits.size:
        raise ValueError("Alice and Bob must exchange equal-length messages")
    # Alice's signal should dominate at the relay so the amplitude solver can
    # attribute the larger root to her; mirrored for Bob by symmetry of use.
    alice_channel = alice_channel or ChannelGain(1.0, 0.7)
    bob_channel = bob_channel or ChannelGain(0.6, 2.1)
    at_router = mix_signals([
        alice_channel.apply(msk_modulate(alice_bits,
                                         samples_per_bit=samples_per_bit)),
        bob_channel.apply(msk_modulate(bob_bits,
                                       samples_per_bit=samples_per_bit)),
    ])
    at_router = awgn(at_router, snr_db, rng)
    # Amplify-and-forward: both endpoints hear the same broadcast (unit
    # downlink channel keeps the demo focused on the subtraction step).
    broadcast = at_router
    alice_decoded = _decode_peer(broadcast, alice_bits, samples_per_bit)
    bob_decoded = _decode_peer(broadcast, bob_bits, samples_per_bit)
    return ExchangeResult(
        bits_decoded_by_alice=alice_decoded,
        bits_decoded_by_bob=bob_decoded,
        alice_ok=bool(np.array_equal(alice_decoded, bob_bits)),
        bob_ok=bool(np.array_equal(bob_decoded, alice_bits)),
    )
