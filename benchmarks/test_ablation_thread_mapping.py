"""Ablation: GPU thread-mapping choice (Section III-B1's design argument).

The paper rejects read-per-thread mapping ("individual reads ... can have a
big variance in their lengths", "performance on GPUs is highly sensitive to
load imbalance across threads, warps ..., or thread-blocks") in favour of
one thread per base position (Fig. 2), and uses one thread per fixed
window for supermers (Fig. 5).  This ablation quantifies the claim on the
long-read datasets, where read-length variance is extreme.
"""

from __future__ import annotations

from conftest import run_once

from repro.bench import format_table, write_report
from repro.gpu.blocks import analyze_thread_mapping
from repro.machines import v100

MAPPINGS = ["read", "window", "base"]


def test_ablation_thread_mapping(benchmark, cache, results_dir):
    def experiment():
        out = {}
        for name in ("celegans40x", "hsapiens54x"):
            reads, _ = cache.dataset(name)
            out[name] = [analyze_thread_mapping(reads, 17, m, v100(), window=15) for m in MAPPINGS]
        return out

    analyses = run_once(benchmark, experiment)

    rows = []
    for name, results in analyses.items():
        for a in results:
            rows.append(
                [
                    name,
                    a.mapping,
                    a.n_threads,
                    f"{a.warp_divergence:.2f}",
                    f"{a.block_imbalance:.2f}",
                    f"{a.tail_efficiency:.3f}",
                    f"{a.effective_cost_factor:.2f}",
                ]
            )
    text = format_table(
        ["dataset", "mapping", "threads", "warp div", "block imb", "tail eff", "cost factor"],
        rows,
        title="Ablation: parse-kernel thread mapping on long reads (k=17, w=15)\n"
        "paper (Sec. III-B1): base-per-thread avoids read-length variance; Fig. 5 windows stay near-balanced",
    )
    write_report("ablation_thread_mapping", text, results_dir)

    for name, results in analyses.items():
        by = {a.mapping: a for a in results}
        # The paper's mapping is perfectly SIMT-balanced (up to the padded
        # lanes of the final warp).
        assert abs(by["base"].warp_divergence - 1.0) < 1e-3
        assert abs(by["base"].block_imbalance - 1.0) < 1e-3
        # Naive read-per-thread pays a large divergence penalty on
        # variable-length long reads.
        assert by["read"].effective_cost_factor > 3 * by["base"].effective_cost_factor, name
        # The supermer window mapping sits close to the base mapping
        # (only per-read tail windows diverge, plus mild occupancy loss
        # from the ~15x smaller grid).
        assert by["window"].effective_cost_factor < 1.5, name
        # All mappings cover the same useful work.
        totals = {a.mapping: a.total_work for a in results}
        assert len({int(t) for t in totals.values()}) == 1
