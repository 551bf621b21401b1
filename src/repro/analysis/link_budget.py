"""Link budget: connecting sample SNR to protocol-level error knobs.

The protocol simulator's :class:`~repro.sim.channel.ChannelModel` takes
abstract probabilities (corrupted singleton, unresolvable record).  The
waveform layer can *measure* them for a given SNR, and classic detection
theory bounds them:

* Coherent MSK detection achieves ``BER = Q(sqrt(2 Eb/N0))``.  Our
  demodulator sums per-sample phase differences, which is markedly
  suboptimal at low SNR (no matched filtering before the angle decision);
  it respects the coherent bound and reaches error-free operation around
  ~20 dB Eb/N0.  Measuring rather than assuming its BER is the point of
  this module.
* With ``S`` samples per bit at unit amplitude, the per-bit energy over the
  per-sample noise floor is ``Eb/N0 [dB] = SNR_sample [dB] + 10 log10(S)``.
* A 96-bit ID fails its CRC when any bit flips:
  ``FER = 1 - (1 - BER)^96``.

:func:`channel_model_from_snr` packages the measured rates so a protocol
sweep can be parameterized by "the reader hears tags at X dB" instead of
hand-picked probabilities.
"""

from __future__ import annotations

import math

import numpy as np

from repro.phy.channel import awgn
from repro.phy.msk import SAMPLES_PER_BIT, msk_demodulate, msk_modulate
from repro.sim.channel import ChannelModel


def q_function(x: float | np.ndarray) -> float | np.ndarray:
    """The Gaussian tail probability Q(x)."""
    # scipy loads on first call; serving never calls this.
    from scipy import special

    return 0.5 * special.erfc(np.asarray(x, dtype=np.float64) / math.sqrt(2))


def ebn0_from_sample_snr(snr_db: float,
                         samples_per_bit: int = SAMPLES_PER_BIT) -> float:
    """Convert per-sample SNR to Eb/N0 (both in dB)."""
    if samples_per_bit < 1:
        raise ValueError("samples_per_bit must be >= 1")
    return snr_db + 10.0 * math.log10(samples_per_bit)


def msk_coherent_ber(ebn0_db: float) -> float:
    """The coherent-detection bound ``Q(sqrt(2 Eb/N0))``."""
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    return float(q_function(math.sqrt(2.0 * ebn0)))


def simulated_ber(snr_db: float, rng: np.random.Generator,
                  n_bits: int = 20_000,
                  samples_per_bit: int = SAMPLES_PER_BIT) -> float:
    """Measure the differential MSK demodulator's BER at a sample SNR."""
    if n_bits < 1:
        raise ValueError("n_bits must be >= 1")
    bits = rng.integers(0, 2, size=n_bits).astype(np.uint8)
    noisy = awgn(msk_modulate(bits, samples_per_bit=samples_per_bit),
                 snr_db, rng)
    decoded = msk_demodulate(noisy, samples_per_bit=samples_per_bit)
    return float((decoded != bits).mean())


def frame_error_rate(ber: float, frame_bits: int = 96) -> float:
    """P(any bit of an ID flips) -- the CRC rejection probability."""
    if not 0.0 <= ber <= 1.0:
        raise ValueError("ber must be in [0, 1]")
    if frame_bits < 1:
        raise ValueError("frame_bits must be >= 1")
    return 1.0 - (1.0 - ber) ** frame_bits


def channel_model_from_snr(snr_db: float, rng: np.random.Generator,
                           samples_per_bit: int = 4,
                           ber_bits: int = 20_000,
                           resolve_trials: int = 30,
                           ack_loss_prob: float = 0.0) -> ChannelModel:
    """Measure a :class:`ChannelModel` for a given reader-side SNR.

    ``singleton_corrupt_prob`` comes from the measured BER through the
    96-bit frame error rate; ``collision_unusable_prob`` from the measured
    2-collision resolvability (gain re-estimation decoder, the realistic
    one).  Acknowledgement loss is reader-to-tag and must be supplied.
    """
    from repro.experiments.ablations import resolvability_rate

    ber = simulated_ber(snr_db, rng, n_bits=ber_bits,
                        samples_per_bit=samples_per_bit)
    corrupt = min(frame_error_rate(ber), 1.0)
    resolve = resolvability_rate(2, snr_db, trials=resolve_trials,
                                 samples_per_bit=samples_per_bit, rng=rng)
    return ChannelModel(singleton_corrupt_prob=corrupt,
                        ack_loss_prob=ack_loss_prob,
                        collision_unusable_prob=1.0 - resolve)
