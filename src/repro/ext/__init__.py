"""Extensions beyond the paper's evaluated system.

* :mod:`repro.ext.balanced` — the frequency-aware balanced minimizer
  partitioner the paper's conclusion calls for (future work);
* :mod:`repro.ext.bloom` — Bloom-filter singleton suppression from the
  HipMer/diBELLA lineage the paper builds on;
* :mod:`repro.ext.sortcount` — KMC-style sort-based counting (one sort and
  a run count, or a batch accumulator folding sorted runs), the
  related-work alternative to hash tables;
* :mod:`repro.ext.stages` — the Bloom pre-filter and balanced partitioner
  packaged as registry-pluggable pipeline stages (``--stages
  bloom,balanced``); imported lazily by ``repro.core.stages.registry``, so
  it is deliberately *not* imported here.
"""

from .balanced import balanced_minimizer_assignment, lpt_assignment, minimizer_bin_weights
from .bloom import BloomFilter, PrefilterResult, count_with_prefilter
from .sortcount import SortingCounter, sort_count

__all__ = [
    "balanced_minimizer_assignment",
    "lpt_assignment",
    "minimizer_bin_weights",
    "BloomFilter",
    "PrefilterResult",
    "count_with_prefilter",
    "SortingCounter",
    "sort_count",
]
