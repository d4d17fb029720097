"""k-mer machinery: extraction, minimizers, supermers, spectra, and
downstream consumers (databases, genomic profiling)."""

from .extract import KmerWindows, extract_kmers, extract_kmers_scalar, window_values
from .genomics import SpectrumProfile, coverage_peak, histogram_valley, profile_spectrum
from .kmerdb import read_kmerdb, read_kmerdb_header, read_tsv, write_kmerdb, write_tsv
from .minimizers import KmerMinimizers, minimizer_scalar, minimizers_for_windows
from .spectrum import KmerSpectrum, count_kmers_exact, spectrum_from_counts
from .supermers import (
    SUPERMER_LENGTH_BYTES,
    SUPERMER_WORD_BYTES,
    SupermerBatch,
    build_supermers,
    build_supermers_scalar,
    extract_kmers_from_packed,
    max_window_for,
)

__all__ = [
    "KmerWindows",
    "window_values",
    "extract_kmers",
    "extract_kmers_scalar",
    "KmerMinimizers",
    "minimizers_for_windows",
    "minimizer_scalar",
    "SupermerBatch",
    "build_supermers",
    "build_supermers_scalar",
    "extract_kmers_from_packed",
    "max_window_for",
    "SUPERMER_LENGTH_BYTES",
    "SUPERMER_WORD_BYTES",
    "KmerSpectrum",
    "count_kmers_exact",
    "spectrum_from_counts",
    "write_kmerdb",
    "read_kmerdb",
    "read_kmerdb_header",
    "write_tsv",
    "read_tsv",
    "SpectrumProfile",
    "profile_spectrum",
    "coverage_peak",
    "histogram_valley",
]
