"""Figures 3 & 6: per-/48 allocation grids.

Probing one random-IID target in every /64 of a /48 and plotting which
source answered produces the paper's 256x256 maps: the y-axis is the 7th
byte of the target, the x-axis the 8th byte, each distinct responding
address a distinct color, black where nothing answered.  Horizontal
bands of one color reveal the delegation size: a /56 delegation spans a
full row; a /60 a quarter-row; /64 delegations are single pixels.

:class:`AllocationGrid` holds the raw 256x256 response matrix, infers
the dominant allocation size from run lengths, and renders an ASCII
thumbnail for terminals.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from repro.net.addr import Prefix
from repro.scan.targets import target_columns
from repro.scan.zmap import ScanConfig, Zmap6

GRID_DIM = 256


@dataclass
class AllocationGrid:
    """The response matrix for one probed /48."""

    prefix: Prefix
    # cells[row][col] = responding source address, or None
    cells: list[list[int | None]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.prefix.plen != 48:
            raise ValueError(f"grids are defined over /48s, got {self.prefix}")
        if not self.cells:
            self.cells = [[None] * GRID_DIM for _ in range(GRID_DIM)]

    @property
    def responsive_fraction(self) -> float:
        answered = sum(1 for row in self.cells for cell in row if cell is not None)
        return answered / (GRID_DIM * GRID_DIM)

    def distinct_sources(self) -> set[int]:
        return {cell for row in self.cells for cell in row if cell is not None}

    def set_response(self, target: int, source: int) -> None:
        """Record that probing *target* drew a reply from *source*."""
        index = self.prefix.subnet_index(target, 64)
        row, col = divmod(index, GRID_DIM)
        self.cells[row][col] = source

    def run_lengths(self) -> list[int]:
        """Lengths of maximal same-source runs along rows, row-major.

        A /56 delegation appears as a 256-long run, /60 as 16, /64 as 1.
        Runs are measured within rows because delegations of /56 or
        smaller never straddle a row boundary.
        """
        runs: list[int] = []
        for row in self.cells:
            current: int | None = None
            length = 0
            for cell in row:
                if cell is not None and cell == current:
                    length += 1
                    continue
                if current is not None:
                    runs.append(length)
                current, length = cell, 1 if cell is not None else 0
            if current is not None:
                runs.append(length)
        return runs

    def infer_allocation_plen(self) -> int:
        """Dominant delegation size from the modal run length."""
        runs = self.run_lengths()
        if not runs:
            raise ValueError(f"{self.prefix}: no responsive cells")
        modal_length, _count = Counter(runs).most_common(1)[0]
        bits = max(0, modal_length - 1).bit_length()  # 256->8, 16->4, 1->0
        return 64 - bits

    def render_ascii(self, downsample: int = 4) -> str:
        """A terminal thumbnail: one glyph per *downsample*^2 cells.

        Distinct sources map to distinct glyph classes (by hash); '.'
        marks empty regions.  With the default downsample the 256x256
        grid prints as 64 lines of 64 characters.
        """
        if GRID_DIM % downsample:
            raise ValueError(f"downsample must divide {GRID_DIM}")
        glyphs = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
        lines = []
        for row_block in range(0, GRID_DIM, downsample):
            line = []
            for col_block in range(0, GRID_DIM, downsample):
                block_sources = [
                    self.cells[r][c]
                    for r in range(row_block, row_block + downsample)
                    for c in range(col_block, col_block + downsample)
                    if self.cells[r][c] is not None
                ]
                if not block_sources:
                    line.append(".")
                else:
                    dominant = Counter(block_sources).most_common(1)[0][0]
                    line.append(glyphs[dominant % len(glyphs)])
            lines.append("".join(line))
        return "\n".join(lines)


def scan_allocation_grid(
    internet,
    prefix: Prefix,
    t_seconds: float = 0.0,
    seed: int = 0,
    rate_pps: float = 10_000.0,
) -> AllocationGrid:
    """Run the Figure 3 workload: probe every /64 of *prefix* once.

    65,536 probes at the paper's 10 kpps -- about 6.5 simulated seconds,
    well under any rotation interval, so the grid is a consistent
    snapshot.
    """
    rng = random.Random(seed)
    targets = target_columns(prefix, 64, rng)
    scanner = Zmap6(internet, ScanConfig(seed=seed, rate_pps=rate_pps))
    result = scanner.stream_columns(*targets, start_seconds=t_seconds).result()

    grid = AllocationGrid(prefix=prefix)
    for target, source in result.pairs():  # one target, so one reply, per cell
        grid.set_response(target, source)
    return grid
