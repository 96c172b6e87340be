"""Section 4.2: EUI-64 density inference over candidate /48s.

Density is the number of unique EUI-64 response addresses divided by the
probes sent into the /48.  The paper sends one probe per /56 (256 per
/48) and classifies a /48 *low density* when density < 0.01 -- i.e. two
or fewer unique EUI-64 responders -- to weed out prefixes delegated
whole to a single device (or load-balanced across two interfaces), which
would waste exhaustive probing later.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.net.addr import Prefix
from repro.net.eui64 import is_eui64_iid

LOW_DENSITY_THRESHOLD = 0.01


class DensityClass(enum.Enum):
    HIGH = "high"
    LOW = "low"
    UNRESPONSIVE = "unresponsive"


@dataclass(frozen=True, slots=True)
class DensityReport:
    """Density verdict for one probed /48."""

    prefix: Prefix
    probes_sent: int
    unique_eui64: int
    density: float
    classification: DensityClass

    def describe(self) -> str:
        return (
            f"{self.prefix}: {self.unique_eui64} EUI-64 / {self.probes_sent} probes "
            f"= {self.density:.4f} -> {self.classification.value}"
        )


def classify_density(
    prefix: Prefix,
    probes_sent: int,
    rows,
    threshold: float = LOW_DENSITY_THRESHOLD,
) -> DensityReport:
    """Classify one /48 from its replies' ``src_hi`` / ``src_lo`` columns
    (*rows*: a scan's ``rows``, or a :class:`~repro.store.batch.ColumnBatch`).

    Only EUI-64 sources count toward density (the paper's target
    population is EUI-64 CPE); a /48 with zero responses of any kind is
    *unresponsive* and dropped from all later probing.
    """
    if probes_sent <= 0:
        raise ValueError("probes_sent must be positive")
    unique_eui = {
        (hi << 64) | lo for hi, lo in zip(rows.src_hi, rows.src_lo) if is_eui64_iid(lo)
    }
    density = len(unique_eui) / probes_sent

    if not len(rows):
        classification = DensityClass.UNRESPONSIVE
    elif density < threshold:
        classification = DensityClass.LOW
    else:
        classification = DensityClass.HIGH

    return DensityReport(
        prefix=prefix,
        probes_sent=probes_sent,
        unique_eui64=len(unique_eui),
        density=density,
        classification=classification,
    )
