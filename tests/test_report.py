import os
import sys
import threading

import pytest

from flagf import report
from flagf.report import atomic_write_text


class TestAtomicWrite:
    def test_concurrent_writers_on_one_path(self, tmp_path):
        path = tmp_path / "out.json"
        texts = [f"writer {w}\n" * (200 + w) for w in range(6)]
        errors = []
        start = threading.Barrier(len(texts))

        def write(text):
            try:
                start.wait()
                for _ in range(25):
                    atomic_write_text(path, text)
            except Exception as exc:  # collected, asserted below
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(t,)) for t in texts]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert path.read_text(encoding="utf-8") in texts
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_failed_replace_leaves_target_and_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.json"
        atomic_write_text(path, "old\n")

        def failing_replace(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(report.os, "replace", failing_replace)
        with pytest.raises(OSError, match="simulated"):
            atomic_write_text(path, "new\n")
        assert path.read_text(encoding="utf-8") == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(path, "\ud800")  # a lone surrogate cannot be encoded
        assert list(tmp_path.iterdir()) == []

    def test_file_mode_follows_umask(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, "x\n")
        plain = tmp_path / "plain.json"
        plain.write_text("x\n", encoding="utf-8")
        assert os.stat(path).st_mode == os.stat(plain).st_mode
