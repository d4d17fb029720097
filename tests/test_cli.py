"""Tests for the command-line interface."""

from __future__ import annotations

import fcntl
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions, run_pipeline
from repro.dna.fastq import read_fastq
from repro.dna.reads import ReadSet
from repro.gpu import segmented
from repro.gpu.segmented import OWNER_FILE, owned_dir, release_dir
from repro.kmers.kmerdb import read_kmerdb
from repro.mpi.topology import summit_gpu


@pytest.fixture
def fastq(tmp_path):
    path = tmp_path / "sample.fastq"
    code = main(
        [
            "simulate",
            "--genome-length",
            "8000",
            "--coverage",
            "6",
            "--read-length",
            "400",
            "--seed",
            "7",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    return path


class TestDatasets:
    def test_lists_all_six(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("ecoli30x", "hsapiens54x"):
            assert name in out


class TestSimulate:
    def test_custom_genome(self, fastq, capsys):
        assert fastq.exists()

    def test_registry_dataset(self, tmp_path, capsys):
        path = tmp_path / "ds.fastq"
        assert main(["simulate", "--dataset", "abaumannii30x", "--scale", "0.05", "--out", str(path)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert path.exists()


class TestCount:
    def test_count_writes_db_and_tsv(self, fastq, tmp_path, capsys):
        db = tmp_path / "out.rkdb"
        tsv = tmp_path / "out.tsv"
        code = main(
            [
                "count",
                "--input",
                str(fastq),
                "-k",
                "15",
                "--nodes",
                "2",
                "--out-db",
                str(db),
                "--out-tsv",
                str(tsv),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "total_kmers" in out
        spectrum = read_kmerdb(db)
        assert spectrum.k == 15 and spectrum.n_distinct > 0
        assert len(tsv.read_text().splitlines()) == spectrum.n_distinct

    def test_count_matches_oracle(self, fastq, tmp_path):
        from repro.dna.fastq import read_fastq
        from repro.dna.reads import ReadSet
        from repro.kmers.spectrum import count_kmers_exact

        db = tmp_path / "out.rkdb"
        assert main(["count", "--input", str(fastq), "-k", "13", "--mode", "kmer", "--out-db", str(db)]) == 0
        reads = ReadSet.from_records(read_fastq(fastq))
        assert read_kmerdb(db).equals(count_kmers_exact(reads, 13))

    def test_min_count_filter(self, fastq, tmp_path):
        all_db = tmp_path / "all.rkdb"
        solid_db = tmp_path / "solid.rkdb"
        main(["count", "--input", str(fastq), "--out-db", str(all_db)])
        main(["count", "--input", str(fastq), "--min-count", "3", "--out-db", str(solid_db)])
        assert read_kmerdb(solid_db).n_distinct < read_kmerdb(all_db).n_distinct

    def test_missing_input_is_error(self, capsys):
        assert main(["count", "--input", "/nonexistent.fastq"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_k_is_error(self, fastq, capsys):
        assert main(["count", "--input", str(fastq), "-k", "40"]) == 2

    def test_empty_input_file_is_zero_reads(self, fastq, tmp_path, capsys):
        empty = tmp_path / "empty.fastq"
        empty.write_bytes(b"")
        alone, with_empty = tmp_path / "alone.tsv", tmp_path / "with_empty.tsv"
        assert main(["count", "--input", str(fastq), "-k", "15", "--out-tsv", str(alone)]) == 0
        assert main(["count", "--input", str(empty), str(fastq), "-k", "15", "--out-tsv", str(with_empty)]) == 0
        assert with_empty.read_bytes() == alone.read_bytes()

    @pytest.mark.parametrize("quality_filter", [[], ["--min-read-length", "1"]], ids=["plain", "filtered"])
    def test_iupac_base_is_one_error_naming_file_record_and_byte(self, tmp_path, capsys, quality_filter):
        bad = tmp_path / "iupac.fastq"
        bad.write_text("@r1\nACGTACGTACGTACGTACGT\n+\nIIIIIIIIIIIIIIIIIIII\n@r2\nACGTACGTRCGTACGTACGT\n+\nIIIIIIIIIIIIIIIIIIII\n")
        assert main(["count", "--input", str(bad), "-k", "15", *quality_filter]) == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "Traceback" not in captured.err
        assert str(bad) in errors[0] and "record 2 ('r2')" in errors[0] and "'R'" in errors[0]


class TestSpectrum:
    def test_profile_and_histogram(self, fastq, tmp_path, capsys):
        db = tmp_path / "out.rkdb"
        main(["count", "--input", str(fastq), "--out-db", str(db)])
        capsys.readouterr()
        assert main(["spectrum", "--db", str(db), "--histogram", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "distinct" in out and "#" in out


class TestCompare:
    def test_compare_table(self, capsys):
        assert main(["compare", "--dataset", "abaumannii30x", "--scale", "0.1", "--nodes", "2", "--no-cpu"]) == 0
        out = capsys.readouterr().out
        assert "supermer-m7" in out and "speedup" in out


class TestQualityOptions:
    def test_quality_filter_reduces_reads(self, fastq, tmp_path, capsys):
        assert main(["count", "--input", str(fastq), "--min-read-length", "300"]) == 0
        out = capsys.readouterr().out
        assert "quality filter kept" in out


class TestMultiFileAndCheckpoint:
    def test_two_inputs_accumulate(self, fastq, tmp_path, capsys):
        db_one = tmp_path / "one.rkdb"
        db_two = tmp_path / "two.rkdb"
        main(["count", "--input", str(fastq), "-k", "15", "--out-db", str(db_one)])
        main(["count", "--input", str(fastq), str(fastq), "-k", "15", "--out-db", str(db_two)])
        import numpy as np

        one = read_kmerdb(db_one)
        two = read_kmerdb(db_two)
        assert np.array_equal(one.values, two.values)
        assert np.array_equal(one.counts * 2, two.counts)

    def test_checkpoint_resume(self, fastq, tmp_path, capsys):
        ckpt = tmp_path / "state.npz"
        db_a = tmp_path / "a.rkdb"
        db_b = tmp_path / "b.rkdb"
        # First invocation counts one file and checkpoints.
        main(["count", "--input", str(fastq), "-k", "15", "--checkpoint", str(ckpt), "--out-db", str(db_a)])
        assert ckpt.exists()
        capsys.readouterr()
        # Second invocation resumes and adds the same file again.
        main(["count", "--input", str(fastq), "-k", "15", "--checkpoint", str(ckpt), "--out-db", str(db_b)])
        out = capsys.readouterr().out
        assert "resumed from" in out
        import numpy as np

        a = read_kmerdb(db_a)
        b = read_kmerdb(db_b)
        assert np.array_equal(a.counts * 2, b.counts)

    def test_truncated_checkpoint_is_one_error_line(self, fastq, tmp_path, capsys):
        """Regression: ``zipfile.BadZipFile`` escaped ``main`` as a traceback."""
        ckpt = tmp_path / "state.npz"
        argv = ["count", "--input", str(fastq), "-k", "15", "--checkpoint", str(ckpt)]
        assert main(argv) == 0
        ckpt.write_bytes(ckpt.read_bytes()[: ckpt.stat().st_size // 2])
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: not a usable checkpoint") and err.count("\n") == 1

    def test_canonical_mismatch_on_resume_is_one_error_line(self, fastq, tmp_path, capsys):
        """Regression: a checkpoint saved without ``--canonical`` resumed with it exited 0
        with a spectrum of mixed forward and canonical keys."""
        ckpt = tmp_path / "state.npz"
        argv = ["count", "--input", str(fastq), "-k", "15", "--checkpoint", str(ckpt)]
        assert main(argv) == 0
        saved = ckpt.read_bytes()
        capsys.readouterr()
        assert main([*argv, "--canonical", "--out-tsv", str(tmp_path / "mixed.tsv")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {ckpt}: checkpoint canonical=False != config canonical=True\n"
        assert ckpt.read_bytes() == saved and not (tmp_path / "mixed.tsv").exists()


class TestCountTrace:
    CHECK_TRACE = Path(__file__).resolve().parent.parent / "tools" / "check_trace.py"

    def test_two_inputs_are_one_span_tree_with_their_batches_apart(self, fastq, tmp_path, capsys):
        """One root ``run`` region for the job, each input's ``batch<n>`` its child; analyze keeps them apart."""
        trace, analysis = tmp_path / "t.json", tmp_path / "a.json"
        argv = ["count", "--input", str(fastq), str(fastq), "-k", "17", "--nodes", "2", "--rounds", "2"]
        assert main([*argv, "--trace", str(trace)]) == 0
        check = subprocess.run([sys.executable, str(self.CHECK_TRACE), str(trace)], capture_output=True, text=True)
        assert check.returncode == 0, check.stdout
        spans = json.loads(trace.read_text())["spans"]
        (root,) = [s for s in spans if s["parent"] is None]
        assert (root["name"], root["cat"]) == ("run", "run")
        assert [s["name"] for s in spans if s["parent"] == root["id"]] == ["batch0", "batch1"]
        capsys.readouterr()
        assert main(["analyze", "--trace", str(trace), "--json", str(analysis)]) == 0
        out = capsys.readouterr().out
        assert "batch0/round0/exchange" in out and "batch1/round0/exchange" in out
        rounds = json.loads(analysis.read_text())["critical_path"]["rounds"]
        assert [r["name"] for r in rounds] == ["batch0", "batch1"]
        assert all({"parse", "round0/exchange", "round1/exchange", "count"} <= set(r["stages"]) for r in rounds)


class TestTableDir:
    """``--table-dir`` backs the tables of every layout, not only ``--fused``'s."""

    def test_staged_count_is_backed_and_leaves_the_directory_empty(self, fastq, tmp_path):
        tables, ckpt = tmp_path / "tables", tmp_path / "state.npz"
        plain, backed = tmp_path / "plain.rkdb", tmp_path / "backed.rkdb"
        assert main(["count", "--input", str(fastq), "-k", "15", "--nodes", "2", "--out-db", str(plain)]) == 0
        argv = ["count", "--input", str(fastq), "-k", "15", "--nodes", "2", "--table-dir", str(tables)]
        for _ in range(2):  # the second run resumes: a loaded state is born with its backing too
            assert main([*argv, "--checkpoint", str(ckpt), "--out-db", str(backed)]) == 0
            assert tables.is_dir() and list(tables.iterdir()) == []
        assert read_kmerdb(backed).n_total == 2 * read_kmerdb(plain).n_total

    def test_help_names_no_layout(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        table_dir = out[out.index("\n  --table-dir DIR") :]  # its entry under options, not the usage line
        table_dir = table_dir[: table_dir.index("\n  -", 1)]
        assert "np.memmap" in table_dir and "fused" not in table_dir


class TestCrashDebris:
    """A killed ``count`` leaves its ``spool-*``/``table-*`` directories; the next run reclaims those no one owns."""

    #: Holds an exclusive ``flock`` on the file named by ``argv[1]`` until its stdin closes.
    _HOLDER = (
        "import fcntl, os, sys\n"
        "fd = os.open(sys.argv[1], os.O_RDONLY)\n"
        "fcntl.flock(fd, fcntl.LOCK_EX)\n"
        "print('locked', flush=True)\n"
        "sys.stdin.read()\n"
    )

    #: Reclaims the directories of ``argv[1]``, pausing inside the removal until a line arrives on stdin.
    _RECLAIMER = (
        "import shutil, sys\n"
        "from pathlib import Path\n"
        "from repro.gpu import segmented\n"
        "rmtree = shutil.rmtree\n"
        "def paused(path, **kwargs):\n"
        "    print('removing', flush=True)\n"
        "    sys.stdin.readline()\n"
        "    rmtree(path, **kwargs)\n"
        "shutil.rmtree = paused\n"
        "base = Path(sys.argv[1])\n"
        "segmented._reclaim(base, keep=base / 'none')\n"
        "print('done', flush=True)\n"
    )

    @staticmethod
    def _debris(base: Path, name: str) -> Path:
        """A directory as a SIGKILLed run leaves it: an owner file no process locks, beside 4 KiB of data."""
        path = base / name
        path.mkdir(parents=True)
        (path / OWNER_FILE).touch()
        (path / "keys.g1.bin").write_bytes(bytes(4096))
        return path

    @staticmethod
    def _count(fastq, tsv, *extra) -> bytes:
        argv = ["count", "--input", str(fastq), "-k", "15", "--nodes", "2", "--out-tsv", str(tsv), *extra]
        assert main(argv) == 0
        return tsv.read_bytes()

    def test_stale_spool_and_table_directories_are_reclaimed(self, fastq, tmp_path, caplog):
        clean = self._count(fastq, tmp_path / "clean.tsv")
        spool, tables = tmp_path / "spool", tmp_path / "tables"
        self._debris(spool, "spool-x")
        self._debris(tables, "table-y")
        with caplog.at_level(logging.INFO, logger="repro.telemetry"):
            rerun = self._count(fastq, tmp_path / "rerun.tsv", "--spill", str(spool), "--table-dir", str(tables))
        assert rerun == clean
        assert list(spool.iterdir()) == [] and list(tables.iterdir()) == []
        reclaims = sorted(rec.message for rec in caplog.records if "engine.spill.reclaim" in rec.message)
        assert reclaims == [
            f"engine.spill.reclaim dirs=1 bytes=4096 dir={base}" for base in sorted((str(spool), str(tables)))
        ]

    def test_a_directory_whose_owner_lives_is_kept(self, fastq, tmp_path):
        spool = tmp_path / "spool"
        live = self._debris(spool, "spool-live")
        self._debris(spool, "spool-stale")
        holder = subprocess.Popen(
            [sys.executable, "-c", self._HOLDER, str(live / OWNER_FILE)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert holder.stdout.readline() == "locked\n"
            self._count(fastq, tmp_path / "counts.tsv", "--spill", str(spool))
        finally:
            holder.stdin.close()
            holder.wait(timeout=30)
        assert [p.name for p in spool.iterdir()] == ["spool-live"]
        assert sorted(p.name for p in live.iterdir()) == [OWNER_FILE, "keys.g1.bin"]

    def test_a_killed_staging_directory_is_reclaimed(self, tmp_path):
        """A kill between the owner lock and the rename leaves a hidden ``.spool-…``; the next run removes it."""
        killed = self._debris(tmp_path, ".spool-killed")
        unowned = tmp_path / ".spool-unowned"  # killed before its owner file existed: not provably ours
        unowned.mkdir()
        path, fd = owned_dir(tmp_path, "spool-")
        assert not killed.exists()
        release_dir(path, fd)
        assert [p.name for p in tmp_path.iterdir()] == [unowned.name]

    def test_a_reclaim_that_wins_the_lock_race_restarts_the_staging(self, tmp_path, monkeypatch):
        """Another run's reclaim between ``owned_dir``'s owner file and its lock costs a retry, never the directory."""
        real_flock, staged = fcntl.flock, []

        def flock(fd, operation):
            if operation == fcntl.LOCK_EX and not staged:  # owned_dir's first lock, not yet taken
                staged.extend(tmp_path.iterdir())
                segmented._reclaim(tmp_path, keep=tmp_path / "other-run")
                assert not any(p.exists() for p in staged)
            return real_flock(fd, operation)

        monkeypatch.setattr(segmented.fcntl, "flock", flock)
        path, fd = owned_dir(tmp_path, "spool-")
        monkeypatch.undo()
        assert len(staged) == 1 and staged[0].name.startswith(".spool-")  # the first staging, reclaimed
        assert staged[0].name[1:] != path.name  # the directory returned is a fresh one
        assert [p.name for p in tmp_path.iterdir()] == [path.name] and path.name.startswith("spool-")
        probe = os.open(path / OWNER_FILE, os.O_RDONLY)
        try:
            with pytest.raises(BlockingIOError):  # the lock is held: no later reclaim can take it
                fcntl.flock(probe, fcntl.LOCK_EX | fcntl.LOCK_NB)
        finally:
            os.close(probe)
        release_dir(path, fd)
        assert list(tmp_path.iterdir()) == []

    def test_a_reclaim_holds_the_owner_lock_until_the_directory_is_gone(self, tmp_path):
        """Another process's reclaim unlocks a staging directory only once it is removed.

        ``owned_dir`` opens its staging owner file, then locks it.  A
        reclaim in another process that takes the free lock in between
        must keep it until the directory is gone (``release_dir`` removes,
        then unlocks): the racing ``owned_dir`` is granted its lock on a
        file that no longer exists, so its rename fails and it restarts.
        Were the lock dropped first, it would be granted mid-removal, and
        its rename could win against the removal and keep a directory whose
        owner file the removal then deletes — a live run's directory that
        no reclaim could ever tell from foreign debris.  The two processes
        are sequenced by pipes: the reclaim pauses inside its removal.
        """
        staging = self._debris(tmp_path, ".spool-racing")
        owner = os.open(staging / OWNER_FILE, os.O_RDONLY)  # owned_dir's descriptor, before its flock
        src = Path(segmented.__file__).resolve().parents[2]
        reclaimer = subprocess.Popen(
            [sys.executable, "-c", self._RECLAIMER, str(tmp_path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        try:
            assert reclaimer.stdout.readline() == "removing\n"
            with pytest.raises(BlockingIOError):  # mid-removal, the reclaim still holds the owner lock
                fcntl.flock(owner, fcntl.LOCK_EX | fcntl.LOCK_NB)
            reclaimer.stdin.write("go\n")
            reclaimer.stdin.flush()
            assert reclaimer.stdout.readline() == "done\n"
        finally:
            reclaimer.stdin.close()
            assert reclaimer.wait(timeout=30) == 0
        try:
            fcntl.flock(owner, fcntl.LOCK_EX | fcntl.LOCK_NB)  # granted now, on a file that is gone
            assert not staging.exists()
            with pytest.raises(FileNotFoundError):  # so owned_dir's rename fails, and it restarts
                os.rename(staging, staging.with_name(staging.name[1:]))
        finally:
            os.close(owner)
        assert list(tmp_path.iterdir()) == []


class TestCountRounds:
    """``--rounds`` and ``--memory-limit`` split each input file's batch by the drive plan, as they split a one-shot run."""

    @staticmethod
    def _count(fastq, tmp_path, name: str, *extra) -> tuple[bytes, bytes, list[str]]:
        """The TSV bytes, ``.rkdb`` bytes and reported exchange labels of one ``repro count``."""
        tsv, db, report = (tmp_path / f"{name}.{ext}" for ext in ("tsv", "rkdb", "json"))
        argv = ["count", "--input", str(fastq), "-k", "17", "--mode", "kmer", "--nodes", "2"]
        argv += ["--out-tsv", str(tsv), "--out-db", str(db), "--report", str(report), *extra]
        assert main(argv) == 0
        collectives = json.loads(report.read_text())["exchange"]["per_collective"]
        return tsv.read_bytes(), db.read_bytes(), [c["label"] for c in collectives]

    def test_rounds_and_memory_limit_split_the_batch(self, fastq, tmp_path):
        plain = self._count(fastq, tmp_path, "plain")
        assert plain[2] == ["kmer-batch0"]
        rounds = self._count(fastq, tmp_path, "rounds", "--rounds", "3")
        assert rounds[2] == ["kmer-batch0-round0", "kmer-batch0-round1", "kmer-batch0-round2"]
        limit = 50_000
        reads = ReadSet.from_records(read_fastq(fastq))
        options = EngineOptions(host_memory_budget=limit)
        n = run_pipeline(reads, summit_gpu(2), PipelineConfig(k=17, mode="kmer"), options=options).n_rounds_used
        assert n > 1
        limited = self._count(fastq, tmp_path, "limited", "--memory-limit", str(limit))
        assert limited[2] == [f"kmer-batch0-round{r}" for r in range(n)]
        assert rounds[:2] == plain[:2] and limited[:2] == plain[:2]


class TestCountBirths:
    """Under ``--memory-limit`` a stream's tables are born at its first batch's parsed k-mers, unless no batch follows.

    A one-input count's first batch is its last: born ahead of it, its
    tables were about 5x its keys' (the parsed k-mers count every
    repeat).  So it is born at 64 and sized by its first insert, as an
    unbudgeted count is; a count of two inputs is still born ahead.
    """

    @staticmethod
    def _capacities(fastq, tmp_path, name: str, inputs: int, *extra) -> tuple[list[int], bytes]:
        """Every rank's table capacity (read off the checkpoint) and the ``.rkdb`` bytes of one ``repro count``."""
        ckpt, db = tmp_path / f"{name}.ckpt", tmp_path / f"{name}.rkdb"
        argv = ["count", "--input", *[str(fastq)] * inputs, "-k", "17", "--mode", "kmer", "--nodes", "2"]
        assert main([*argv, "--checkpoint", str(ckpt), "--out-db", str(db), *extra]) == 0
        with np.load(ckpt) as saved:
            return saved["capacities"].tolist(), db.read_bytes()

    def test_a_one_input_budgeted_count_is_sized_as_an_unbudgeted_one(self, fastq, tmp_path):
        budget = ("--memory-limit", str(1 << 30))  # one round, and room for every parsed k-mer's slot
        plain = self._capacities(fastq, tmp_path, "plain", 1)
        assert self._capacities(fastq, tmp_path, "budgeted", 1, *budget) == plain
        plain2, db2 = self._capacities(fastq, tmp_path, "plain2", 2)
        ahead, ahead_db = self._capacities(fastq, tmp_path, "budgeted2", 2, *budget)
        assert ahead_db == db2 and sum(ahead) > sum(plain2)  # batch 1 of 2 is still born ahead


class TestBadArtefactFiles:
    """A bad report or trace file is one ``error:`` line naming the file, with exit 2."""

    @pytest.mark.parametrize(
        "command, text",
        [
            pytest.param("report", '{"version": 1, "run": {"backend"', id="report-truncated"),
            pytest.param("report", "[1, 2]", id="report-non-object"),
            pytest.param("report", '{"metadata": {"schema": "repro-trace/1"}, "spans": []}', id="report-wrong-schema"),
            pytest.param("report", '{"version": 2, "run": {}}', id="report-wrong-version"),
            pytest.param("analyze", '{"traceEvents": [{"ph": "X"', id="analyze-truncated"),
            pytest.param("analyze", "[1, 2]", id="analyze-non-object"),
            pytest.param("analyze", '{"metadata": ["repro-trace/1"], "spans": []}', id="analyze-wrong-schema"),
        ],
    )
    def test_one_error_line_naming_the_file(self, tmp_path, capsys, command, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        flag = "--report" if command == "report" else "--trace"
        assert main([command, flag, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {bad}: ")
