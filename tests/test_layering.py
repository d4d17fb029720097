"""The import-boundary lint: the real tree is clean, and the lint bites."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CHECKER = REPO / "tools" / "check_layers.py"


def run_checker(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(CHECKER), "--root", str(root)],
        capture_output=True,
        text=True,
        cwd=REPO,
    )


class TestRepoIsLayered:
    def test_no_back_edges_in_src(self):
        proc = run_checker(REPO / "src" / "repro")
        assert proc.returncode == 0, f"layering violations:\n{proc.stdout}{proc.stderr}"
        assert "layering OK" in proc.stdout

    def test_stages_never_compare_backend_names(self):
        """Model seconds come from the composition's substrate object; a
        string test would hand a custom-keyed composition the other
        substrate's seconds."""
        stages = REPO / "src" / "repro" / "core" / "stages"
        offenders = [p.name for p in sorted(stages.glob("*.py")) if '== "gpu"' in p.read_text()]
        assert offenders == []


class TestCheckerDetects:
    #: The table module's folds: the pair sort's call, the pair fold's runs and the run count's head mask.
    _FOLDS = (
        "keys, counts = sort_pairs(keys, counts)\nstarts = np.flatnonzero(keys[1:] != keys[:-1])\n"
        "np.not_equal(keys[1:], keys[:-1], out=head[1:])\n"
    )
    #: Every text the checker pins to gpu/hashtable.py, once.
    _HASHTABLE = (
        'reg.counter("hashtable_inserts_total")\nwhile pending.size:\n    pass\n'
        'reg.histogram("hashtable_probe_length")\nbitmap = np.packbits(keys != EMPTY_KEY)\n'
        "np.bitwise_or(packed, counts.view(np.uint64), out=packed)\norder = np.argsort(keys)\n" + _FOLDS
    )

    #: Every text the checker pins to core/stages/standard.py, once.
    _STANDARD = (
        "est = TrafficEstimate()\nout = ExchangeOutcome()\n"
        "t = substrate.charge_parse(shard, code_bytes - config.k + 1)\n"
        "dt = ctx.substrate.charge_count(n, r, s, ctx)\n"
        "sums = [np.bitwise_xor.reduce(buf) for buf in (sent, received)]\n"
        "values, counts = merge_counts(keys, counts)\n"
    )

    #: Every text the checker pins to core/stages/buffers.py, once: the round cut and the host width rule.
    _BUFFERS = (
        "def round_cut(seg_lens, rnd, n_rounds):\n    return (seg_lens * rnd) // n_rounds\n"
        "if k > 20:\n    pass\nhigh = (kmers >> np.uint64(32)).astype(np.uint8)\n"
    )

    #: Every text the checker pins to core/stages/scheduler.py, once.
    _SCHEDULER = (
        'event("engine.process.fallback", subsystem="engine")\n'
        'suffix = f"-round{rnd}" if n_rounds > 1 else ""\n'
    )

    @staticmethod
    def _tree(tmp_path: Path, body: str) -> Path:
        """A minimal fake package with a dna module containing ``body``."""
        root = tmp_path / "repro"
        for comp in ("dna", "core"):
            (root / comp).mkdir(parents=True)
            (root / comp / "__init__.py").write_text("")
        (root / "__init__.py").write_text("")
        (root / "dna" / "mod.py").write_text(body)
        return root

    def test_flags_absolute_back_edge(self, tmp_path):
        root = self._tree(tmp_path, "from repro.core.engine import run_pipeline\n")
        proc = run_checker(root)
        assert proc.returncode == 1
        assert "dna (layer 1) imports core (layer 4)" in proc.stdout

    def test_flags_relative_back_edge(self, tmp_path):
        root = self._tree(tmp_path, "from ..core import engine\n")
        proc = run_checker(root)
        assert proc.returncode == 1
        assert "back-edge" in proc.stdout

    def test_flags_deferred_function_body_import(self, tmp_path):
        root = self._tree(
            tmp_path,
            "def late():\n    from ..core import engine\n    return engine\n",
        )
        proc = run_checker(root)
        assert proc.returncode == 1

    def test_type_checking_block_is_exempt(self, tmp_path):
        root = self._tree(
            tmp_path,
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from ..core.results import CountResult\n",
        )
        proc = run_checker(root)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_unknown_component_is_reported(self, tmp_path):
        root = self._tree(tmp_path, "")
        (root / "mystery").mkdir()
        (root / "mystery" / "__init__.py").write_text("")
        proc = run_checker(root)
        assert proc.returncode == 1
        assert "missing from tools/check_layers.py LAYERS map" in proc.stdout

    def test_flags_second_copy_of_a_single_definition(self, tmp_path):
        root = self._tree(tmp_path, "")
        (root / "gpu").mkdir()
        (root / "gpu" / "__init__.py").write_text("")
        emitter = 'reg.counter("hashtable_inserts_total", "insert_batch calls").inc()\n'
        loop = "while pending.size:\n    pass\n"
        histogram = 'reg.histogram("hashtable_probe_length")\n'
        dump = "bitmap = np.packbits(keys != EMPTY_KEY)\n"
        pair_sort = "np.bitwise_or(packed, counts.view(np.uint64), out=packed)\norder = np.argsort(keys)\n"
        (root / "gpu" / "hashtable.py").write_text(emitter + loop + histogram + dump + pair_sort + self._FOLDS)
        assert run_checker(root).returncode == 0
        (root / "gpu" / "segmented.py").write_text(loop)
        (root / "core" / "fused.py").write_text(emitter)
        (root / "core" / "scheduler.py").write_text(dump)
        (root / "core" / "merge.py").write_text("order = np.argsort(keys)\n")
        proc = run_checker(root)
        assert proc.returncode == 1
        assert "scheduler.py:1: 'np.packbits(' is defined once, in gpu/hashtable.py" in proc.stdout
        assert "segmented.py:1: 'while pending.size' is defined once, in gpu/hashtable.py" in proc.stdout
        assert "fused.py:1: '\"hashtable_inserts_total\"' is defined once" in proc.stdout
        assert "merge.py:1: 'np.argsort(keys)' is defined once, in gpu/hashtable.py" in proc.stdout

    def test_flags_second_charge_count_call_in_its_owner(self, tmp_path):
        """The count body is the one ``.charge_count(`` call site, as the parse body is ``.charge_parse(``'s."""
        root = self._tree(tmp_path, "")
        (root / "core" / "stages").mkdir()
        owned = self._STANDARD
        standard = root / "core" / "stages" / "standard.py"
        standard.write_text(owned)
        assert run_checker(root).returncode == 0
        standard.write_text(owned + "dt = self.charge_count(inserted, recv_items, ins, ctx)\n")
        proc = run_checker(root)
        assert proc.returncode == 1
        assert "standard.py:7: '.charge_count(' is defined once, in core/stages/standard.py" in proc.stdout

    def test_flags_second_exchange_gather_and_checksum(self, tmp_path):
        """The one block gather's call lives in the spool module, the checksum reduction in standard.py, the round cut in buffers.py."""
        root = self._tree(tmp_path, "")
        (root / "core" / "stages").mkdir()
        standard = root / "core" / "stages" / "standard.py"
        spill = root / "core" / "stages" / "spill.py"
        owned = self._STANDARD
        gathers = (  # the one gather call, for the payload and the length bytes alike
            "table = SegmentedHashTable(hints)\nouts = [take(n, array.dtype) for array in arrays]\n"
            "blk.take(arrays, outs)\n"
        )
        cut = root / "core" / "stages" / "buffers.py"
        standard.write_text(owned)
        spill.write_text(gathers)
        cut.write_text(self._BUFFERS)
        assert run_checker(root).returncode == 0
        standard.write_text(owned + "blk.take([send.data], [recv])\n")
        (root / "core" / "stages" / "scheduler.py").write_text(
            "x = np.bitwise_xor.reduce(recv[lo:hi])\nlo = starts + (seg_lens * rnd) // n_rounds\n"
        )
        proc = run_checker(root)
        assert proc.returncode == 1
        assert "standard.py:7: 'blk.take(' is defined once, in core/stages/spill.py" in proc.stdout
        assert "scheduler.py:1: 'np.bitwise_xor.reduce(' is defined once, in core/stages/standard.py" in proc.stdout
        assert "scheduler.py:2: '(seg_lens * rnd) // n_rounds' is defined once, in core/stages/buffers.py" in proc.stdout

    def test_flags_second_shard_cut_and_parse_thread_count(self, tmp_path):
        """The input's shard cut is ``ShardRanges``' (dna/reads.py), the parse kernel's thread count the parse body's."""
        root = self._tree(tmp_path, "")
        (root / "core" / "stages").mkdir()
        (root / "dna" / "reads.py").write_text("cuts = np.arange(n_shards + 1) * total // n_shards\n")
        (root / "core" / "stages" / "standard.py").write_text(self._STANDARD)
        assert run_checker(root).returncode == 0
        (root / "core" / "stages" / "scheduler.py").write_text("lo = s * total // n_shards\n")
        (root / "core" / "stages" / "spmd.py").write_text("threads = max(code_bytes - config.k + 1, 0)\n")
        proc = run_checker(root)
        assert proc.returncode == 1
        assert "scheduler.py:1: '* total // n_shards' is defined once, in dna/reads.py" in proc.stdout
        assert "spmd.py:1: 'code_bytes - config.k + 1' is defined once, in core/stages/standard.py" in proc.stdout

    #: Every text the checker pins to core/stages/plan.py, once: the host law, the table term, the hints, the births.
    _PLAN = (
        "host_bytes_per_item = wire * 2 + 8.0 + TABLE_BYTES_PER_KEY\n"
        "TABLE_BYTES_PER_KEY = SLOT_BYTES / MAX_LOAD_FACTOR  # 16 / 0.7\n"
        "hints, births = np.maximum(64, summary.n_kmers // max(p, 1) + 16), np.minimum(summary.n_kmers, room)\n"
    )

    def test_flags_second_host_width_rule(self, tmp_path):
        """A k-mer's host form is split by buffers.py's ``split_kmers`` only; a parse or spool that splits again fails."""
        root = self._tree(tmp_path, "")
        (root / "core" / "stages").mkdir()
        buffers = root / "core" / "stages" / "buffers.py"
        standard = root / "core" / "stages" / "standard.py"
        buffers.write_text(self._BUFFERS)
        standard.write_text(self._STANDARD + "words, high = split_kmers(items.data, config.k)\n")
        assert run_checker(root).returncode == 0
        standard.write_text(self._STANDARD + "high = (kmers >> np.uint64(32)).astype(np.uint8)\n")
        (root / "core" / "incremental.py").write_text("if k > 20:\n    dtypes = (np.uint64,)\n")
        proc = run_checker(root)
        assert proc.returncode == 1
        owner = "is defined once, in core/stages/buffers.py"
        assert f"standard.py:7: '(kmers >> np.uint64(32)).astype(np.uint8)' {owner}" in proc.stdout
        assert f"incremental.py:1: 'if k > 20:' {owner}" in proc.stdout
        buffers.write_text(self._BUFFERS.replace("k > 20", "k >= 21"))
        assert "owner of 'if k > 20:' no longer contains it" in run_checker(root).stdout

    def test_flags_second_table_hint(self, tmp_path):
        """A new table's capacity hint is the drive plan's (core/stages/plan.py); the driver and the rank program read it."""
        root = self._tree(tmp_path, "")
        (root / "core" / "stages").mkdir()
        (root / "core" / "stages" / "plan.py").write_text(self._PLAN)
        (root / "core" / "spmd.py").write_text("table = block_table(plan_drive(summary, ctx).hints, seed)\n")
        assert run_checker(root).returncode == 0
        (root / "core" / "stages" / "scheduler.py").write_text(
            "hints = [max(64, int(nk) // max(p, 1) + 16) for nk in summary.n_kmers]\n"
        )
        (root / "core" / "spmd.py").write_text("table = block_table([n // max(p, 1) + 16], seed)\n")
        proc = run_checker(root)
        assert proc.returncode == 1
        assert "scheduler.py:1: '// max(p, 1) + 16' is defined once, in core/stages/plan.py" in proc.stdout
        assert "spmd.py:1: '// max(p, 1) + 16' is defined once, in core/stages/plan.py" in proc.stdout

    def test_flags_second_birth_hint(self, tmp_path):
        """A streamed state's birth hint is the drive plan's; a state or counter that re-derives it fails."""
        root = self._tree(tmp_path, "")
        (root / "core" / "stages").mkdir()
        plan = root / "core" / "stages" / "plan.py"
        plan.write_text(self._PLAN)
        (root / "core" / "stages" / "checkpoint.py").write_text("table = block_table(plan.births[r0:r1], seed)\n")
        assert run_checker(root).returncode == 0
        (root / "core" / "stages" / "checkpoint.py").write_text("hints = np.minimum(summary.n_kmers, room)[r0:r1]\n")
        (root / "core" / "incremental.py").write_text("births = np.minimum(summary.n_kmers, room).tolist()\n")
        proc = run_checker(root)
        assert proc.returncode == 1
        owner = "is defined once, in core/stages/plan.py"
        assert f"checkpoint.py:1: 'np.minimum(summary.n_kmers, room)' {owner}" in proc.stdout
        assert f"incremental.py:1: 'np.minimum(summary.n_kmers, room)' {owner}" in proc.stdout
        plan.write_text(self._PLAN.replace("np.minimum(summary.n_kmers, room)", "n_kmers"))
        assert "owner of 'np.minimum(summary.n_kmers, room)' no longer contains it" in run_checker(root).stdout

    def test_flags_second_table_term(self, tmp_path):
        """The table term (a slot at the default load) is the drive plan's; a law that writes it out again fails."""
        root = self._tree(tmp_path, "")
        (root / "core" / "stages").mkdir()
        plan = root / "core" / "stages" / "plan.py"
        plan.write_text(self._PLAN)
        assert run_checker(root).returncode == 0
        (root / "core" / "stages" / "standard.py").write_text("bytes_per_item = wire * 2 + 16 / 0.7\n")
        plan.write_text(self._PLAN + "device_bytes_per_item = wire * 2 + 16 / 0.7\n")
        proc = run_checker(root)
        assert proc.returncode == 1
        assert "standard.py:1: '16 / 0.7' is defined once, in core/stages/plan.py" in proc.stdout
        assert "plan.py:4: '16 / 0.7' is defined once, in core/stages/plan.py" in proc.stdout

    def test_flags_second_merge_fold_and_pair_sort(self, tmp_path):
        """Pairs are sorted in gpu/hashtable.py only, and within ``core`` folded by standard.py's merge only."""
        root = self._tree(tmp_path, "")
        (root / "core" / "stages").mkdir()
        (root / "core" / "stages" / "standard.py").write_text(self._STANDARD)
        (root / "gpu").mkdir()
        (root / "gpu" / "hashtable.py").write_text(self._HASHTABLE)
        (root / "ext").mkdir()
        (root / "ext" / "sortcount.py").write_text("values, counts = merge_counts(values, counts)\n")
        assert run_checker(root).returncode == 0
        (root / "gpu" / "segmented.py").write_text("values, counts = sort_pairs(*occupied_slots(keys, counts))\n")
        (root / "core" / "stages" / "spill.py").write_text("values, counts = sort_pairs(values, counts)\n")
        (root / "core" / "incremental.py").write_text("uniq, merged = merge_counts(chunk_k, chunk_c)\n")
        proc = run_checker(root)
        assert proc.returncode == 1
        assert "segmented.py:1: 'sort_pairs(' is defined once, in gpu/hashtable.py" in proc.stdout
        assert "spill.py:1: 'sort_pairs(' is defined once, in gpu/hashtable.py" in proc.stdout
        assert "incremental.py:1: 'merge_counts(' is defined once, in core/stages/standard.py" in proc.stdout

    def test_flags_second_run_count(self, tmp_path):
        """A sum over equal keys is the table module's: a run-length pass regrown in a counter fails the lint."""
        root = self._tree(tmp_path, "")
        (root / "gpu").mkdir()
        (root / "gpu" / "hashtable.py").write_text(self._HASHTABLE)
        (root / "ext").mkdir()
        sortcount = root / "ext" / "sortcount.py"
        sortcount.write_text("values, counts = dedup_batch(kmers, None)\n")
        assert run_checker(root).returncode == 0
        sortcount.write_text(
            "keys = np.sort(kmers)\nnp.not_equal(keys[1:], keys[:-1], out=head[1:])\n"
            "starts = np.flatnonzero(keys[1:] != keys[:-1])\n"
        )
        proc = run_checker(root)
        assert proc.returncode == 1
        assert (
            "sortcount.py:2: 'np.not_equal(keys[1:], keys[:-1], out=head[1:])' is defined once, in gpu/hashtable.py"
            in proc.stdout
        )
        assert "sortcount.py:3: 'np.flatnonzero(keys[1:] != keys[:-1])' is defined once, in gpu/hashtable.py" in proc.stdout

    def test_flags_owner_that_lost_its_definition(self, tmp_path):
        root = self._tree(tmp_path, "")
        (root / "gpu").mkdir()
        (root / "gpu" / "__init__.py").write_text("")
        (root / "gpu" / "kernels.py").write_text("")
        proc = run_checker(root)
        assert proc.returncode == 1
        assert "kernels.py: owner of '\"gpu_kernel_launches_total\"' no longer contains it" in proc.stdout

    def test_flags_second_span_renderer_and_wall_summary(self, tmp_path):
        """Chrome ``X`` events and the busy/elapsed/overlap summary are built once, in telemetry/spans.py."""
        root = self._tree(tmp_path, "")
        (root / "telemetry").mkdir()
        (root / "telemetry" / "__init__.py").write_text("")
        owned = (  # the one renderer line and the one wall-summary line
            'events = [chrome_event(name, "X", pid, args, tid=tid) for pid, tid, name, args in rows]\n'
            'row = {"overlap_factor": recorder.overlap_factor(name)}\n'
        )
        spans = root / "telemetry" / "spans.py"
        spans.write_text(owned)
        assert run_checker(root).returncode == 0
        (root / "telemetry" / "report.py").write_text('ev = chrome_event(s.name, "X", 1, {}, tid=s.rank)\n')
        (root / "core" / "scheduler.py").write_text("gauge.set(recorder.overlap_factor())\n")
        spans.write_text(owned + 'region = chrome_event(s.name, "X", 2, {}, tid=0)\n')
        proc = run_checker(root)
        assert proc.returncode == 1
        assert "report.py:1: '\"X\"' is defined once, in telemetry/spans.py" in proc.stdout
        assert "spans.py:3: '\"X\"' is defined once, in telemetry/spans.py" in proc.stdout
        assert "scheduler.py:1: '.overlap_factor(' is defined once, in telemetry/spans.py" in proc.stdout

    def test_flags_second_network_declaration(self, tmp_path):
        """The interconnect is declared once, on ``NetworkSpec``; a cluster or machine spec must not mirror it."""
        root = self._tree(tmp_path, "")
        for comp in ("machines", "mpi"):
            (root / comp).mkdir()
            (root / comp / "__init__.py").write_text("")
        (root / "machines" / "network.py").write_text(
            "class NetworkSpec:\n    injection_bw: float = 23e9  # bytes/s per node\n"
        )
        (root / "mpi" / "topology.py").write_text("class ClusterSpec:\n    network: NetworkSpec\n")
        assert run_checker(root).returncode == 0
        (root / "mpi" / "topology.py").write_text(
            "class ClusterSpec:\n    injection_bw: float = SUMMIT_INJECTION_BW\n    network: NetworkSpec\n"
        )
        proc = run_checker(root)
        assert proc.returncode == 1
        assert "topology.py:2: 'injection_bw: float' is defined once, in machines/network.py" in proc.stdout

    def test_flags_second_fastq_framing_rule(self, tmp_path):
        """``next_fastq_record`` frames a FASTQ record; the byte-range reader's boundary scan must not copy it."""
        root = self._tree(tmp_path, "")
        (root / "dna" / "fastq.py").write_text("if len(qual) != len(seq):\n    raise ValueError(where(3))\n")
        assert run_checker(root).returncode == 0
        (root / "dna" / "parallel_io.py").write_text("if len(qual) != len(seq):\n    return False\n")
        proc = run_checker(root)
        assert proc.returncode == 1
        assert "parallel_io.py:1: 'len(qual) != len(seq)' is defined once, in dna/fastq.py" in proc.stdout

    def test_flags_second_owner_reduction(self, tmp_path):
        """``hash mod P`` is ``owners_of``'s (hashing/partition.py), reduced in the hash's scratch array."""
        root = self._tree(tmp_path, "")
        (root / "hashing").mkdir()
        (root / "hashing" / "__init__.py").write_text("")
        partition = root / "hashing" / "partition.py"
        partition.write_text("np.floor_divide(h, p, out=q)\nq *= p\nh -= q\n")
        assert run_checker(root).returncode == 0
        (root / "hashing" / "murmur3.py").write_text("np.floor_divide(h, p, out=q)\n")
        partition.write_text("h -= h // p * p\n")
        proc = run_checker(root)
        assert proc.returncode == 1
        assert "murmur3.py:1: 'np.floor_divide(h, p, out=q)' is defined once, in hashing/partition.py" in proc.stdout
        assert "partition.py: owner of 'np.floor_divide(h, p, out=q)' no longer contains it" in proc.stdout

    def test_flags_second_fallback_event(self, tmp_path):
        """Strategy resolution announces the one fallback; a new silent fallback elsewhere fails the lint."""
        root = self._tree(tmp_path, "")
        (root / "core" / "stages").mkdir()
        scheduler = root / "core" / "stages" / "scheduler.py"
        scheduler.write_text(self._SCHEDULER)
        (root / "core" / "stages" / "plan.py").write_text(self._PLAN)
        assert run_checker(root).returncode == 0
        (root / "core" / "stages" / "spill.py").write_text('event("engine.spill.fallback", reason=why)\n')
        scheduler.write_text(self._SCHEDULER + 'event(f"engine.{knob}.fallback", reason=why)\n')
        proc = run_checker(root)
        assert proc.returncode == 1
        assert "spill.py:1: '.fallback\"' is defined once, in core/stages/scheduler.py" in proc.stdout
        assert "scheduler.py:3: '.fallback\"' is defined once, in core/stages/scheduler.py" in proc.stdout

    def test_flags_second_round_suffix(self, tmp_path):
        """The round driver names each round once; a residency that rebuilds the suffix fails the lint."""
        root = self._tree(tmp_path, "")
        (root / "core" / "stages").mkdir()
        scheduler = root / "core" / "stages" / "scheduler.py"
        scheduler.write_text(self._SCHEDULER)
        spill = root / "core" / "stages" / "spill.py"
        owned = "table = SegmentedHashTable(hints)\nblk.take(arrays, outs)\n"  # spill.py's own pinned texts
        spill.write_text(owned + "recorder.record(leaf + rec.suffix, r0, t0, t1)\n")
        assert run_checker(root).returncode == 0
        spill.write_text(owned + 'suffix = f"-round{rnd}" if n_rounds > 1 else ""\n')
        scheduler.write_text(self._SCHEDULER + 'label = f"{config.mode}-batch{n}" + f"-round{rnd}"\n')
        proc = run_checker(root)
        assert proc.returncode == 1
        assert "spill.py:3: 'f\"-round{rnd}\"' is defined once, in core/stages/scheduler.py" in proc.stdout
        assert "scheduler.py:3: 'f\"-round{rnd}\"' is defined once, in core/stages/scheduler.py" in proc.stdout
