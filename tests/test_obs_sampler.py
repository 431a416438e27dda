"""Continuous profiling: stack sampler, collapsed-stack format, shards.

The sampler is the "what is the interpreter actually doing" complement
to the instrumented traces: a daemon thread snapshotting every other
thread's Python stack at a prime rate, exported in Brendan Gregg's
collapsed format that flamegraph renderers consume directly.  The tests
pin the contract surface: capture works against a busy thread, the
export round-trips through ``parse_collapsed``, malformed shards are
rejected loudly (CI uses the parser as its output validation), per-pid
shards merge, and ``sampling_to`` arms/disarms the ambient environment
so pool workers inherit it.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.obs import metrics
from repro.obs.sampler import (
    DEFAULT_HZ,
    StackSampler,
    active_sampler,
    parse_collapsed,
    read_profile,
    sampling_to,
    top_stacks,
)


def _busy_until(stop: threading.Event) -> None:
    x = 0
    while not stop.is_set():
        x = (x + 1) % 1000003


def _sample_busy_thread(hz: float = 500.0, seconds: float = 0.25) -> StackSampler:
    stop = threading.Event()
    t = threading.Thread(target=_busy_until, args=(stop,), daemon=True)
    t.start()
    s = StackSampler(hz=hz).start()
    time.sleep(seconds)
    s.stop()
    stop.set()
    t.join()
    return s


class TestCapture:
    def test_samples_busy_thread(self):
        s = _sample_busy_thread()
        assert s.samples > 0
        assert s.counts
        joined = {";".join(k) for k in s.counts}
        assert any("_busy_until" in line for line in joined), joined

    def test_frames_are_root_first(self):
        s = _sample_busy_thread()
        busy = [k for k in s.counts if "_busy_until" in ";".join(k)]
        assert busy, s.counts
        # the busy helper lives at the leaf end (itself, or the
        # ``Event.is_set`` call it makes each iteration) — never the root
        assert all(
            any("_busy_until" in f for f in stack[-2:]) for stack in busy
        )
        assert all("_busy_until" not in stack[0] for stack in busy)

    def test_counter_increments(self):
        before = metrics.counter("sampler.samples").value
        s = _sample_busy_thread()
        assert metrics.counter("sampler.samples").value - before >= s.samples > 0

    def test_cpu_time_is_its_own_thread(self):
        """``cpu_s`` is the sampler thread's CPU time: positive, and far
        below the wall time it was armed for at a modest rate."""
        t0 = time.perf_counter()
        s = _sample_busy_thread(hz=97.0)
        wall = time.perf_counter() - t0
        assert s.samples > 0
        assert 0.0 < s.cpu_s < wall

    def test_invalid_hz_rejected(self):
        with pytest.raises(ValueError):
            StackSampler(hz=0)
        with pytest.raises(ValueError):
            StackSampler(hz=-5)

    def test_double_start_rejected(self):
        s = StackSampler(hz=10).start()
        try:
            with pytest.raises(RuntimeError):
                s.start()
        finally:
            s.stop()

    def test_stop_idempotent(self):
        s = StackSampler(hz=10).start()
        s.stop()
        s.stop()


class TestCollapsedFormat:
    def test_roundtrip(self):
        s = _sample_busy_thread()
        text = s.collapsed()
        assert text
        counts = parse_collapsed(text)
        assert counts == s.counts
        assert sum(counts.values()) == s.samples

    def test_lines_are_flamegraph_input(self):
        s = _sample_busy_thread()
        for line in s.collapsed().splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack, line
            assert int(count) > 0
            # frame names never smuggle the two format delimiters
            for frame in stack.split(";"):
                assert " " not in frame and frame

    @pytest.mark.parametrize(
        "bad",
        [
            "no-count-here\n",
            "a.py:f notanumber\n",
            "a.py:f 0\n",
            "a.py:f -3\n",
            " 5\n",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_collapsed(bad)

    def test_blank_lines_skipped(self):
        counts = parse_collapsed("\n\na.py:f;b.py:g 2\n\n")
        assert counts == {("a.py:f", "b.py:g"): 2}

    def test_duplicate_stacks_accumulate(self):
        counts = parse_collapsed("a.py:f 2\na.py:f 3\n")
        assert counts == {("a.py:f",): 5}


class TestShards:
    def test_write_and_read_profile(self, tmp_path):
        s = _sample_busy_thread()
        path = s.write(tmp_path)
        assert path.name == f"profile-{os.getpid()}.collapsed"
        merged = read_profile(tmp_path)
        assert merged == s.counts

    def test_multi_shard_merge(self, tmp_path):
        (tmp_path / "profile-100.collapsed").write_text("a.py:f;b.py:g 3\n")
        (tmp_path / "profile-200.collapsed").write_text(
            "a.py:f;b.py:g 2\nc.py:h 1\n"
        )
        merged = read_profile(tmp_path)
        assert merged == {("a.py:f", "b.py:g"): 5, ("c.py:h",): 1}

    def test_bad_shard_skipped_and_counted(self, tmp_path):
        (tmp_path / "profile-1.collapsed").write_text("a.py:f 3\n")
        (tmp_path / "profile-2.collapsed").write_text("garbage without count\n")
        before = metrics.counter("sampler.errors").value
        merged = read_profile(tmp_path)
        assert merged == {("a.py:f",): 3}
        assert metrics.counter("sampler.errors").value == before + 1

    def test_missing_dir_is_empty(self, tmp_path):
        assert read_profile(tmp_path / "nope") == {}


class TestSamplingTo:
    def test_writes_shard_and_restores_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SAMPLER", raising=False)
        monkeypatch.delenv("REPRO_SAMPLER_HZ", raising=False)
        stop = threading.Event()
        t = threading.Thread(target=_busy_until, args=(stop,), daemon=True)
        t.start()
        try:
            with sampling_to(tmp_path, hz=500) as s:
                assert active_sampler() is s
                # workers forked inside the block inherit the arming
                assert os.environ["REPRO_SAMPLER"] == str(tmp_path)
                assert float(os.environ["REPRO_SAMPLER_HZ"]) == 500.0
                time.sleep(0.2)
        finally:
            stop.set()
            t.join()
        assert "REPRO_SAMPLER" not in os.environ
        assert "REPRO_SAMPLER_HZ" not in os.environ
        assert active_sampler() is None
        assert sum(read_profile(tmp_path).values()) > 0

    def test_nested_env_restored_to_outer(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLER", "outer-dir")
        with sampling_to(tmp_path, hz=50):
            assert os.environ["REPRO_SAMPLER"] == str(tmp_path)
        assert os.environ["REPRO_SAMPLER"] == "outer-dir"


class TestTopStacks:
    def test_ranked_heaviest_first(self):
        counts = {
            ("a.py:f", "b.py:g"): 2,
            ("c.py:h",): 7,
            ("d.py:i",): 2,
        }
        top = top_stacks(counts, k=2)
        assert top == [("c.py:h", 7), ("a.py:f;b.py:g", 2)]

    def test_k_bounds(self):
        assert top_stacks({}, k=3) == []
        assert len(top_stacks({("a",): 1, ("b",): 2}, k=1)) == 1
