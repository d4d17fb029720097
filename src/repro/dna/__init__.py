"""DNA substrate: alphabet, 2-bit encoding, reads, I/O, and simulation.

This subpackage provides everything below the k-mer level:

* :mod:`repro.dna.alphabet` — base codes and minimizer orderings,
* :mod:`repro.dna.encoding` — 2-bit packing of k-mers/supermers into words,
* :mod:`repro.dna.reads` — the concatenated, sentinel-separated read array,
* :mod:`repro.dna.fastq` — FASTA/FASTQ I/O,
* :mod:`repro.dna.simulate` — genome/read simulation,
* :mod:`repro.dna.datasets` — synthetic Table I dataset registry.
"""

from .alphabet import (
    BASE_TO_CODE,
    BASES,
    CODE_TO_BASE,
    SENTINEL,
    KMC2Ordering,
    LexicographicOrdering,
    MinimizerOrdering,
    RandomBaseOrdering,
    get_ordering,
)
from .datasets import DATASET_NAMES, TABLE1, DatasetSpec, load_dataset
from .encoding import (
    MAX_PACKED_K,
    canonical_batch,
    canonical_value,
    kmer_to_string,
    pack_kmer,
    pack_kmers_batch,
    revcomp_batch,
    revcomp_value,
    string_to_kmer,
    unpack_kmer,
    unpack_kmers_batch,
)
from .fastq import SequenceRecord, read_fasta, read_fastq, write_fasta, write_fastq
from .parallel_io import load_fastq_sharded, partition_fastq, read_fastq_range
from .quality import QualityFilter, decode_phred, mean_error_probability, trim_ends, trim_sliding_window
from .reads import ReadSet
from .simulate import GenomeSimulator, ReadLengthProfile, ReadSimulator, simulate_dataset

__all__ = [
    "BASES",
    "BASE_TO_CODE",
    "CODE_TO_BASE",
    "SENTINEL",
    "MAX_PACKED_K",
    "MinimizerOrdering",
    "LexicographicOrdering",
    "KMC2Ordering",
    "RandomBaseOrdering",
    "get_ordering",
    "pack_kmer",
    "unpack_kmer",
    "pack_kmers_batch",
    "unpack_kmers_batch",
    "kmer_to_string",
    "string_to_kmer",
    "revcomp_value",
    "revcomp_batch",
    "canonical_value",
    "canonical_batch",
    "ReadSet",
    "SequenceRecord",
    "read_fastq",
    "write_fastq",
    "read_fasta",
    "write_fasta",
    "read_fastq_range",
    "partition_fastq",
    "load_fastq_sharded",
    "QualityFilter",
    "decode_phred",
    "mean_error_probability",
    "trim_ends",
    "trim_sliding_window",
    "GenomeSimulator",
    "ReadSimulator",
    "ReadLengthProfile",
    "simulate_dataset",
    "DatasetSpec",
    "TABLE1",
    "DATASET_NAMES",
    "load_dataset",
]
