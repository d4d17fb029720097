"""The k-mer width boundaries, end to end: the wire switch and the host form.

Two rules depend on k in k-mer mode.  The model's wire item is 4 bytes up
to k = 16 and 8 above (``PipelineConfig.kmer_wire_bytes``); the host's
item is a k-mer's low 32-bit word, plus its high byte in a second array
from k = 17 to 20, and one ``uint64`` from k = 21 on
(:func:`~repro.core.stages.buffers.split_kmers`).  Each k here sits on one
side of a boundary of either rule, and each drive — resident or spooled,
one-shot or one streamed batch — must count the exact spectrum, charge
the wire bytes, and write the same ``.rkdb`` bytes whichever residency
held its items.
"""

from __future__ import annotations

import pytest

from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions, run_pipeline
from repro.core.incremental import DistributedCounter
from repro.dna.simulate import simulate_dataset
from repro.kmers.kmerdb import write_kmerdb
from repro.kmers.spectrum import count_kmers_exact
from repro.mpi.topology import summit_gpu


@pytest.fixture(scope="module")
def reads():
    return simulate_dataset(genome_length=12_000, coverage=4, seed=17)


def _drive(reads, k: int, surface: str, options: EngineOptions):
    """``(spectrum, items exchanged, wire bytes charged)`` of one drive."""
    config = PipelineConfig(k=k)
    if surface == "one-shot":
        result = run_pipeline(reads, summit_gpu(2), config, options=options)
        return result.spectrum, result.exchanged_items, result.exchanged_bytes
    counter = DistributedCounter(summit_gpu(2), config, options=options)
    counter.add_reads(reads)
    return counter.spectrum(), counter.exchanged_items, counter.traffic.total_bytes()


@pytest.mark.parametrize("surface", ["one-shot", "streamed"])
@pytest.mark.parametrize("k", [15, 16, 17, 20, 21, 31])
def test_each_width_counts_exactly_and_charges_the_wire_bytes(reads, tmp_path, k, surface):
    exact = count_kmers_exact(reads, k)
    dbs = []
    for residency in ("resident", "spooled"):
        spill_dir = tmp_path / "spool" if residency == "spooled" else None
        spectrum, items, wire = _drive(reads, k, surface, EngineOptions(spill_dir=spill_dir))
        assert spectrum.equals(exact), residency
        assert items == exact.n_total > 0
        assert wire == items * (4 if k <= 16 else 8), residency
        db = tmp_path / f"{residency}.rkdb"
        write_kmerdb(db, spectrum)
        dbs.append(db.read_bytes())
    assert dbs[0] == dbs[1]
