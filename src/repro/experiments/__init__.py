"""Experiment drivers: one module per paper table/figure, plus ablations.

Every experiment follows one convention:

* ``run(context) -> <Experiment>Result`` -- computes the artifact's
  underlying data from a shared :class:`ExperimentContext` (simulated
  internet + discovery pipeline + campaign, built once and cached), and
* ``<Experiment>Result.render() -> str`` -- the paper-shaped rows or
  ASCII figure.

``python -m repro.experiments.report`` executes everything end-to-end
and writes the paper-vs-reproduction report, and
``repro.experiments.scale`` defines the scaled-down default workload
next to the paper's full-size parameters.
"""

from repro.experiments.context import ExperimentContext
from repro.experiments.scale import DEFAULT, PAPER, SMALL, Scale

__all__ = ["DEFAULT", "ExperimentContext", "PAPER", "SMALL", "Scale"]
