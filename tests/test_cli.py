"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sizes_parsing(self):
        args = build_parser().parse_args(["fig7", "--sizes", "32,64"])
        assert args.sizes == (32, 64)

    def test_loads_parsing(self):
        args = build_parser().parse_args(["fig10", "--loads", "1,2.5"])
        assert args.loads == (1.0, 2.5)

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    @pytest.mark.parametrize("size", ["inf", "1e400", "-1M", "-5"])
    def test_store_gc_rejects_bad_byte_sizes(self, size, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["store", "gc", f"--max-bytes={size}"])
        assert exc.value.code == 2
        assert repr(size) in capsys.readouterr().err


class TestCommands:
    def test_info_dsn(self, capsys):
        main(["info", "64"])
        out = capsys.readouterr().out
        assert "DSN-5-64" in out
        assert "p=6" in out
        assert "routing <= 22" in out

    def test_info_other_kind(self, capsys):
        main(["info", "64", "--kind", "torus"])
        out = capsys.readouterr().out
        assert "Torus-8x8" in out
        assert "DSN parameters" not in out

    def test_fig7(self, capsys):
        main(["fig7", "--sizes", "32,64"])
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "64" in out

    def test_fig8(self, capsys):
        main(["fig8", "--sizes", "32"])
        assert "Figure 8" in capsys.readouterr().out

    def test_fig9(self, capsys):
        main(["fig9", "--sizes", "32,64"])
        assert "Figure 9" in capsys.readouterr().out

    def test_theory_all_ok(self, capsys):
        main(["theory", "--sizes", "32,64"])
        out = capsys.readouterr().out
        assert "all bounds hold" in out
        assert "VIOLATION" not in out

    def test_balance(self, capsys):
        main(["balance", "--n", "32"])
        out = capsys.readouterr().out
        assert "up*/down*" in out

    def test_fig10_quick(self, capsys):
        main(["fig10", "--loads", "2", "--n", "16"])
        out = capsys.readouterr().out
        assert "Figure 10" in out
        assert "uniform" in out

    def test_fig10_flit_engine(self, capsys):
        main(["fig10", "--loads", "2", "--n", "16", "--engine", "flit"])
        out = capsys.readouterr().out
        assert "Figure 10" in out
        assert "uniform" in out

    def test_fig10_pipelined_router_implies_flit(self, capsys):
        # --router pipelined exists only in the flit engine; the CLI
        # must switch engines rather than error out.
        main(["fig10", "--loads", "2", "--n", "16", "--router", "pipelined"])
        out = capsys.readouterr().out
        assert "Figure 10" in out

    def test_router_sweep_artifact(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "rs.json"
        main(["router-sweep", "--vcs", "4", "--buffers", "33", "--depths", "2,38",
              "--load", "1", "--n", "16", "--out", str(out_path)])
        out = capsys.readouterr().out
        assert "hop lag" in out and "ideal" in out
        payload = json.loads(out_path.read_text())
        assert payload["experiment"] == "router-sweep"
        # one ideal reference per VC count + the 1x1x2 grid
        assert len(payload["rows"]) == 3
        ideal = [r for r in payload["rows"] if r["hop_lag_cycles"] is None]
        assert len(ideal) == 1

    def test_robustness(self, capsys):
        main(["robustness", "--n", "64", "--trials", "2"])
        out = capsys.readouterr().out
        assert "Bisection" in out and "Link-failure" in out

    def test_faults_artifact(self, capsys, tmp_path):
        out_path = tmp_path / "deg.json"
        main(["faults", "--n", "64", "--trials", "1", "--fractions", "0.0,0.05",
              "--kinds", "dsn", "--out", str(out_path)])
        out = capsys.readouterr().out
        assert "Degradation" in out and out_path.exists()


class TestSweep:
    @pytest.fixture(autouse=True)
    def clean_store_env(self):
        """The sweep handler sets REPRO_STORE/_DIR in os.environ for
        pool workers; snapshot and restore them around each test."""
        import os

        from repro import store

        saved = {k: os.environ.get(k) for k in ("REPRO_STORE", "REPRO_STORE_DIR")}
        for k in saved:
            os.environ.pop(k, None)
        store.clear_store()
        store.reset_store_stats()
        yield
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
        store.clear_store()
        store.reset_store_stats()

    def test_sweep_resume_identical_artifacts(self, capsys, tmp_path):
        """Cold sweep populates the store; a second run resumes from it
        and writes a byte-identical artifact (the CI smoke, in-process)."""
        from repro import store

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        common = ["sweep", "--kinds", "dsn", "--loads", "1,2", "--n", "16",
                  "--store-dir", str(tmp_path / "store"), "--store-stats"]
        main(common + ["--out", str(a)])
        out_cold = capsys.readouterr().out
        assert "2 misses" in out_cold and "2 stores" in out_cold

        store.clear_store()  # fresh process simulation: memory tier gone
        store.reset_store_stats()
        main(common + ["--out", str(b)])
        out_warm = capsys.readouterr().out
        assert "2 hits" in out_warm and "0 misses" in out_warm
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_no_store(self, capsys, tmp_path):
        main(["sweep", "--kinds", "dsn", "--loads", "2", "--n", "16",
              "--no-store", "--store-stats"])
        out = capsys.readouterr().out
        assert "0 hits" in out and "0 misses" in out and "0 stores" in out


class TestStoreCommand:
    def test_info_then_gc_empties_the_store(self, capsys, tmp_path, monkeypatch):
        from repro import store

        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        store.put(store.run_key("cli", {"i": 1}), {"v": 1})
        store.clear_store()
        d = ["--store-dir", str(tmp_path)]
        main(["store", "info"] + d)
        assert f"{tmp_path}: 1 entries, 0 stranded, 0 stale lock(s)" in capsys.readouterr().out
        main(["store", "gc", "--max-bytes", "0"] + d)
        assert "1/1 entries evicted" in capsys.readouterr().out
        main(["store", "info"] + d)
        assert f"{tmp_path}: 0 entries, 0 stranded, 0 stale lock(s)" in capsys.readouterr().out

    def test_info_counts_stranded_files_and_gc_removes_them(
            self, capsys, tmp_path, monkeypatch):
        import json

        from repro import store
        from repro.store import shards

        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        key = store.run_key("cli", {"i": 2})
        store.put(key, {"v": 2})
        doc = json.dumps({"ns": key.namespace, "key": key.payload, "result": {"v": 2}})
        (tmp_path / (key.stem + ".json")).write_text(doc)  # flat-layout leftover
        other = tmp_path / f"s{(shards.shard_index(key.digest) + 1) % shards.SHARDS:03d}"
        other.mkdir(exist_ok=True)
        (other / (key.stem + ".json")).write_text(doc)  # outside its home shard
        d = ["--store-dir", str(tmp_path)]
        main(["store", "info"] + d)
        assert f"{tmp_path}: 1 entries, 2 stranded, 0 stale lock(s)" in capsys.readouterr().out
        main(["store", "gc", "--max-bytes", "1G"] + d)
        assert "0/1 entries evicted" in capsys.readouterr().out
        main(["store", "info"] + d)
        assert f"{tmp_path}: 1 entries, 0 stranded, 0 stale lock(s)" in capsys.readouterr().out

    def test_migrate_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["store", "migrate"])
        assert exc.value.code == 2
