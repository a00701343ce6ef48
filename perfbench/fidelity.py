"""Distance of reproduced headline numbers from the paper's.

The reference values live in ``paper_reference.json`` beside this file,
with their provenance, so no change to the program can move the target.
Every score is a mean of ``|ln(reproduced / paper)|``: 0 is a perfect
reproduction, and over- and under-shooting by the same factor count the
same.
"""

from __future__ import annotations

import json
import math
from itertools import combinations
from pathlib import Path
from typing import Dict, Mapping, Sequence, Tuple

_REFERENCE = json.loads(
    (Path(__file__).with_name("paper_reference.json")).read_text())

FIG14_PAPER: Dict[str, float] = dict(
    _REFERENCE["fig14_geomean_speedup"]["values"])
TABLE6_AVERAGE_BITS: Dict[str, float] = dict(
    _REFERENCE["table6_average_bits"]["values"])

# The simulated grid: the five Fig. 14 baselines with a paper value,
# HyGCN-8bit (simulated, no paper number in the repository) and MEGA.
FIG14_ACCELERATORS: Tuple[str, ...] = (
    "hygcn", "gcnax", "grow", "sgcn", "hygcn-8bit", "gcnax-8bit", "mega")

# Baselines whose Table V configurations differ, so identical cycle
# counts between any two of them are a modelling defect (ROADMAP item 4).
DISTINCT_BASELINES: Tuple[str, ...] = ("gcnax", "grow", "sgcn", "gcnax-8bit")


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def speedup_geomeans(cycles: Mapping[Tuple[str, str], float],
                     workloads: Sequence[str]) -> Dict[str, float]:
    """Geomean over ``workloads`` of ``cycles[(w, b)] / cycles[(w, 'mega')]``
    for every baseline ``b`` in the grid."""
    return {name: geomean([cycles[(w, name)] / cycles[(w, "mega")]
                           for w in workloads])
            for name in FIG14_ACCELERATORS if name != "mega"}


def mean_log_error(reproduced: Mapping[str, float],
                   paper: Mapping[str, float]) -> float:
    return (sum(abs(math.log(reproduced[key] / value))
                for key, value in paper.items()) / len(paper))


def fig14_log_err(geomeans: Mapping[str, float]) -> float:
    """Mean ``|ln(reproduced / paper)|`` over the five Fig. 14 baselines."""
    return mean_log_error(geomeans, FIG14_PAPER)


def identical_baseline_pairs(per_workload: Mapping[str, Mapping[str, float]]
                             ) -> int:
    """Pairs of :data:`DISTINCT_BASELINES` with identical values (cycles
    or speedups over the same MEGA run), summed over workloads."""
    return sum(1 for row in per_workload.values()
               for a, b in combinations(DISTINCT_BASELINES, 2)
               if row[a] == row[b])
