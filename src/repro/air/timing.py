"""Slot timing model based on the Philips I-Code specification.

Paper section VI fixes the physical constants the evaluation uses:

* channel rate 53 kbit/s, i.e. 18.88 us per bit;
* a 96-bit ID takes 1812 us to transmit;
* the reader's 20-bit acknowledgement takes 378 us;
* a 302 us guard time precedes both the report segment and the ack segment;

so a basic slot lasts ``302 + 1812 + 302 + 378 = 2794 us`` ("about 2.8 ms").

On top of the per-slot cost, FCAT pays a pre-frame advertisement (frame index +
quantized report probability) and, for every collision record it resolves, a
23-bit slot index appended to an acknowledgement (section V-A/B).  SCAT instead
advertises in *every* slot and announces resolved tags by their full 96-bit IDs
(section IV-A).  :class:`TimingModel` accounts for all of these so reported
throughputs are comparable with the paper's Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property


@dataclass(frozen=True)
class TimingModel:
    """Time accounting for a slotted RFID reading session.

    All durations are in seconds.  The defaults reproduce the Philips I-Code
    numbers quoted in the paper.  The model is frozen, so each derived
    duration is computed once per instance.
    """

    bit_rate: float = 53_000.0
    id_bits: int = 96
    ack_bits: int = 20
    guard_time: float = 302e-6
    #: Bits in a slot/frame index advertisement (section V-A: 23-bit indices).
    index_bits: int = 23
    #: Bits used to advertise the quantized report probability.
    probability_bits: int = 16

    def __post_init__(self) -> None:
        if self.bit_rate <= 0:
            raise ValueError("bit_rate must be positive")
        if self.id_bits <= 0 or self.ack_bits <= 0:
            raise ValueError("id_bits and ack_bits must be positive")
        if self.guard_time < 0:
            raise ValueError("guard_time must be non-negative")
        if self.index_bits <= 0 or self.probability_bits <= 0:
            raise ValueError(
                "index_bits and probability_bits must be positive")

    @cached_property
    def bit_time(self) -> float:
        """Seconds to transmit one bit (18.88 us at 53 kbit/s)."""
        return 1.0 / self.bit_rate

    def transmission_time(self, bits: int) -> float:
        """Seconds to transmit ``bits`` bits, without guard time."""
        return bits * self.bit_time

    @cached_property
    def report_duration(self) -> float:
        """Guard time plus one full ID transmission (~302 + 1812 us)."""
        return self.guard_time + self.transmission_time(self.id_bits)

    @cached_property
    def ack_duration(self) -> float:
        """Guard time plus the reader's basic acknowledgement (~302 + 378 us)."""
        return self.guard_time + self.transmission_time(self.ack_bits)

    @cached_property
    def slot_duration(self) -> float:
        """Duration of one basic slot (report + ack segments), ~2794 us."""
        return self.report_duration + self.ack_duration

    @cached_property
    def advertisement_duration(self) -> float:
        """Duration of a (frame or slot) advertisement broadcast by the reader."""
        return self.guard_time + self.transmission_time(
            self.index_bits + self.probability_bits)

    def announcement_duration(self, count: int, bits_each: int) -> float:
        """Extra ack-segment airtime to announce ``count`` items of ``bits_each``.

        FCAT announces resolved collision records by 23-bit slot index; SCAT by
        96-bit ID.  Announcements ride on an existing ack segment, so no extra
        guard time is charged.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        return count * self.transmission_time(bits_each)

    def session_seconds(self, slots: int, advertisements: int = 0,
                        index_announcements: int = 0,
                        id_announcements: int = 0) -> float:
        """Total session time for a slot/advertisement/announcement budget."""
        if slots < 0 or advertisements < 0:
            raise ValueError("slots and advertisements must be non-negative")
        return (slots * self.slot_duration
                + advertisements * self.advertisement_duration
                + self.announcement_duration(index_announcements, self.index_bits)
                + self.announcement_duration(id_announcements, self.id_bits))

    def with_(self, **changes: object) -> "TimingModel":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]


#: The paper's timing instance (Philips I-Code).
ICODE_TIMING = TimingModel()
