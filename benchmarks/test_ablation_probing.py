"""Ablation: hash-table probe sequence (Section III-B3's design choice).

"Collisions are addressed using similar concept as the open-addressing
based hash table... it seeks for a free slot in a probe sequence (linear,
quadratic, etc).  In this work, we use linear probing."  This ablation
quantifies what that choice costs at realistic load factors, measuring the
actual probe work of the three classic sequences on a real k-mer batch.
"""

from __future__ import annotations

import numpy as np
from conftest import run_once

from repro.bench import format_table, write_report
from repro.gpu.hashtable import DeviceHashTable

DATASET = "celegans40x"
LOAD_FACTORS = [0.5, 0.7, 0.85, 0.95]


def test_ablation_probing(benchmark, cache, results_dir):
    def experiment():
        reads, _ = cache.dataset(DATASET)
        from repro.kmers import extract_kmers

        kmers = np.unique(extract_kmers(reads, 17))
        capacity = 1 << 19  # fixed table; vary the load by subsampling keys
        rows = []
        for load in LOAD_FACTORS:
            n = min(int(capacity * load), kmers.shape[0])
            subset = kmers[:n]
            row = [f"{n / capacity:.2f}"]
            for probing in ("linear", "quadratic", "double"):
                # Half the capacity as the hint sizes the table to exactly
                # ``capacity`` at this load-factor cap, and no load resizes it.
                table = DeviceHashTable(capacity // 2, probing=probing, max_load_factor=0.97)
                assert table.capacity == capacity
                stats = table.insert_batch(subset)
                row.append(f"{stats.total_probes / n:.2f} (max {stats.max_probe})")
            rows.append(row)
        return rows

    rows = run_once(benchmark, experiment)
    text = format_table(
        ["target load", "linear (paper)", "quadratic", "double"],
        rows,
        title=f"Ablation: mean probes per insert by probe sequence ({DATASET} distinct 17-mers)\n"
        "the paper uses linear probing; clustering costs appear only at high load",
    )
    write_report("ablation_probing", text, results_dir)

    # At moderate load (the pipelines size tables at ~0.7), linear is fine:
    # within ~30% of the alternatives — the paper's choice is reasonable.
    mod = rows[1]
    linear_mid = float(mod[1].split()[0])
    double_mid = float(mod[3].split()[0])
    assert linear_mid < double_mid * 1.4
    # At 0.95 load, linear probing's clustering penalty is clearly visible.
    hi = rows[-1]
    linear_hi = float(hi[1].split()[0])
    double_hi = float(hi[3].split()[0])
    assert linear_hi > double_hi * 1.3
