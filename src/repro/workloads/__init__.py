"""Synthetic workloads, drawn eagerly from one generator.

The paper has no experimental section, so the reproduction evaluates the
algorithms on synthetic instance families chosen to exercise the regimes the
theory distinguishes.  Each family is generated only by its scenario class in
:mod:`repro.scenarios.generators`; the builders here are thin adapters that
draw the environment and then the requests from the caller's one generator
(:func:`~repro.workloads.base.draw_workload`):

* :mod:`repro.workloads.uniform` — requests at uniformly random points with
  uniformly random demand sets (the unstructured baseline workload);
* :mod:`repro.workloads.clustered` — requests concentrated around planted
  "optimal centers" with per-center commodity bundles (the structure the
  RAND-OMFLP analysis reasons about, Section 4.2) together with the planted
  facility set used as an offline reference;
* :mod:`repro.workloads.zipf` — skewed commodity popularity (realistic service
  demand distributions for the introduction's provider scenario);
* :mod:`repro.workloads.service_network` — the introduction's scenario end to
  end: a random network (graph metric), services with set-up economies of
  scale, clients requesting service bundles;
* :mod:`repro.workloads.orders` — arrival-order models (adversarial-ish
  sorted orders vs uniformly random order), reflecting the discussion of
  weakened adversaries in Section 1.2.
"""

from repro.workloads.base import GeneratedWorkload
from repro.workloads.clustered import clustered_workload
from repro.workloads.orders import adversarial_order, random_order
from repro.workloads.service_network import service_network_workload
from repro.workloads.uniform import uniform_workload
from repro.workloads.zipf import zipf_workload

__all__ = [
    "GeneratedWorkload",
    "uniform_workload",
    "clustered_workload",
    "zipf_workload",
    "service_network_workload",
    "random_order",
    "adversarial_order",
]
