"""The three benchmark workloads: seeded panel generation and CLI arguments.

Every input is built from `--seed` through the package's public
`synthetic` functions and `serialize_panel`, so the same seed always
gives the same bytes.  The CLI receives only the written file.

Why these three (see NOTES.md for the measured layer shares):

- track_panel: the ROADMAP baseline panel under `track --format json`;
  every layer does real work, and it is the reference run.
- analyze_ragged: unsorted rows, relative changes, gap drops and failed
  cells under `analyze`; the panel layer dominates and rolling windows
  are bypassed, so a windows or stats optimisation should not move it.
- track_dense: few long series under dense windows (step 5); windows,
  digits and stats dominate and parsing is small, so a parser
  optimisation should not move it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import date
from typing import Callable

import numpy as np

from benfordtrack.panel import SpreadSeries, serialize_panel
from benfordtrack.synthetic import SynthSpec, synth_panel

TENORS = ("1Y", "3Y", "5Y", "7Y", "10Y")
EARLY_START = date(2008, 8, 8)
LATE_START = date(2010, 6, 1)


@dataclass(frozen=True)
class Workload:
    """One CLI invocation shape; the oracle reads the same fields."""

    name: str
    command: str  # "analyze" or "track"
    fmt: str
    build: Callable[[int, bool], "Panel"]  # (seed, smoke) -> input panel
    change_mode: str = "absolute"
    max_gap_days: int | None = None
    step: int = 45  # window step; the window length and fill are CLI defaults

    def argv(self, input_path: str) -> list[str]:
        args = [self.command, "--input", input_path, "--format", self.fmt]
        if self.change_mode != "absolute":
            args += ["--change-mode", self.change_mode]
        if self.max_gap_days is not None:
            args += ["--max-gap-days", str(self.max_gap_days)]
        if self.step != 45:
            args += ["--step", str(self.step)]
        return args

    def generate(self, seed: int, smoke: bool = False) -> "Panel":
        """The input panel for `seed`; `smoke` shrinks it to a few series."""
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        return self.build(seed, smoke)


@dataclass(frozen=True)
class Panel:
    """A generated input: the series it holds and its CSV text."""

    series: list[SpreadSeries]
    text: str

    def record(self) -> dict:
        data = self.text.encode("utf-8")
        return {
            "rows": sum(len(s.observations) for s in self.series),
            "series": len(self.series),
            "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        }


def _series_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def _track_panel(seed: int, smoke: bool) -> Panel:
    entities, n = (2, 300) if smoke else (40, 1750)
    series = [
        synth_panel(
            SynthSpec("benford", n, _series_seed(seed, e * len(TENORS) + t)),
            entity=f"E{e:02d}",
            tenor=tenor,
        )
        for e in range(entities)
        for t, tenor in enumerate(TENORS)
    ]
    return Panel(series, serialize_panel(series))


def _analyze_ragged(seed: int, smoke: bool) -> Panel:
    entities, n_early, n_late = (4, 400, 300) if smoke else (40, 1750, 1270)
    kinds = ("benford", "uniform_digit", "benford")
    rng = np.random.Generator(np.random.PCG64(seed))
    series = []
    for e in range(entities):
        late = e % 4 == 3  # starts after pre_crisis ends, so that cell fails
        for t, tenor in enumerate(TENORS):
            k = e * len(TENORS) + t
            manipulation = (0.3, 1) if k % 7 == 6 else None
            spec = SynthSpec(
                kinds[k % 3], n_late if late else n_early, _series_seed(seed, k),
                manipulation,
            )
            full = synth_panel(
                spec, entity=f"R{e:02d}", tenor=tenor,
                start=LATE_START if late else EARLY_START,
            )
            obs = full.observations
            # drop 5% of observations, never the first two
            gone = rng.choice(
                np.arange(2, len(obs)), size=round(0.05 * len(obs)), replace=False
            )
            keep = np.ones(len(obs), dtype=bool)
            keep[gone] = False
            kept = tuple(o for o, k_ in zip(obs, keep) if k_)
            series.append(SpreadSeries(full.entity, full.tenor, kept))
    header, *body = serialize_panel(series).splitlines()
    order = rng.permutation(len(body))
    text = "\n".join([header, *(body[i] for i in order)]) + "\n"
    return Panel(series, text)


def _track_dense(seed: int, smoke: bool) -> Panel:
    count, n = (2, 600) if smoke else (8, 6000)
    series = [
        synth_panel(
            SynthSpec("benford", n, _series_seed(seed, i)),
            entity=f"D{i}",
            tenor="5Y",
        )
        for i in range(count)
    ]
    return Panel(series, serialize_panel(series))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("track_panel", "track", "json", _track_panel),
        Workload(
            "analyze_ragged", "analyze", "text", _analyze_ragged,
            change_mode="relative", max_gap_days=4,
        ),
        Workload("track_dense", "track", "csv", _track_dense, step=5),
    )
}
