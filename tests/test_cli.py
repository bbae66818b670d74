"""The ``python -m repro`` entry point: one crawl path, one-line failures.

``repro crawl`` always runs the coordinator into a manifested directory,
with the backend picked from ``--jobs``.  Dataset, crawl and store
failures reach the user as a single ``repro: <message>`` stderr line and
a distinct exit code, never a traceback.
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.crawler import Coordinator, StoreBackendError, save_logs


def _exit(argv, capsys):
    """Run ``main(argv)`` expecting SystemExit; (code, stdout, stderr)."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def _assert_one_line(err):
    assert err.count("\n") == 1, err
    assert err.startswith("repro: ")
    assert "Traceback" not in err


class TestCrawl:
    def test_out_is_a_manifested_directory(self, tmp_path, capsys):
        out = tmp_path / "crawl"
        main(["crawl", "12", str(out), "--shards", "2"])
        assert "backend=inprocess" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_shards"] == 2
        assert all(shard["sha256"] for shard in manifest["shards"])
        assert (out / "queue.jsonl").is_file()

    def test_jobs_pick_the_pool_backend_with_identical_bytes(self, tmp_path,
                                                             capsys):
        main(["crawl", "12", str(tmp_path / "serial"), "--shards", "2"])
        main(["crawl", "12", str(tmp_path / "pool"), "--shards", "2",
              "--jobs", "2"])
        assert "backend=pool, jobs=2" in capsys.readouterr().out
        for name in ("shard-0000.jsonl", "shard-0001.jsonl",
                     "shard-0000.index.json", "shard-0001.index.json",
                     "manifest.json"):
            assert (tmp_path / "serial" / name).read_bytes() \
                == (tmp_path / "pool" / name).read_bytes(), name

    def test_concurrency_flag_is_gone(self, tmp_path, capsys):
        out = tmp_path / "crawl"
        code, stdout, _ = _exit(["crawl", "12", str(out),
                                 "--concurrency", "4"], capsys)
        assert code == 2
        assert "--concurrency" in stdout
        assert not out.exists()

    def test_inprocess_backend_rejects_jobs(self, tmp_path, capsys):
        out = tmp_path / "crawl"
        code, stdout, _ = _exit(["crawl", "12", str(out), "--backend",
                                 "inprocess", "--jobs", "2"], capsys)
        assert code == 2
        assert stdout.count("\n") == 1
        assert "--backend inprocess" in stdout and "--jobs 2" in stdout
        assert not out.exists()


class TestFailuresAreOneLine:
    def test_missing_dataset_exits_3(self, tmp_path, capsys):
        code, _, err = _exit(["analyze", str(tmp_path / "nope")], capsys)
        assert code == 3
        _assert_one_line(err)
        assert "nope" in err

    def test_file_path_dataset_exits_3(self, crawl_logs, tmp_path, capsys):
        save_logs(crawl_logs[:4], tmp_path / "crawl")
        shard = tmp_path / "crawl" / "shard-0000.jsonl"
        code, _, err = _exit(["analyze", str(shard)], capsys)
        assert code == 3
        _assert_one_line(err)
        assert "not a dataset directory" in err

    def test_truncated_shard_exits_3(self, crawl_logs, tmp_path, capsys):
        directory = tmp_path / "crawl"
        save_logs(crawl_logs[:20], directory, shards=2)
        shard = directory / "shard-0001.jsonl"
        lines = shard.read_text().splitlines()
        shard.write_text("\n".join(lines[:-1]) + "\n")
        code, _, err = _exit(["analyze", str(directory)], capsys)
        assert code == 3
        _assert_one_line(err)
        assert "shard 1" in err and "manifest says 10" in err

    def test_coordination_error_exits_4(self, tmp_path, capsys):
        out = tmp_path / "crawl"
        main(["crawl", "12", str(out), "--shards", "2"])
        capsys.readouterr()
        # Same directory, different plan: the journal refuses to mix.
        code, _, err = _exit(["crawl", "12", str(out), "--shards", "3"],
                             capsys)
        assert code == 4
        _assert_one_line(err)
        assert "different crawl" in err

    @pytest.mark.parametrize("name,text", [
        ("nope.json", None),
        ("old.json", '{"version": 1}'),
        ("garbled.json", "{"),
    ])
    def test_bad_work_spec_exits_4(self, tmp_path, capsys, name, text):
        spec = tmp_path / name
        if text is not None:
            spec.write_text(text)
        code, _, err = _exit(["crawl-shard", str(spec), "0"], capsys)
        assert code == 4
        _assert_one_line(err)
        assert name in err

    def test_store_backend_error_exits_5(self, tmp_path, capsys,
                                         monkeypatch):
        def unreachable(self, out_dir, n_shards=None):
            raise StoreBackendError("GET http://127.0.0.1:9/objects:\n"
                                    "connection refused")

        monkeypatch.setattr(Coordinator, "run", unreachable)
        code, _, err = _exit(["crawl", "12", str(tmp_path / "crawl")],
                             capsys)
        assert code == 5
        _assert_one_line(err)
        assert "connection refused" in err
