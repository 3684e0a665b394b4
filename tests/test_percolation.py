"""Tests for the incremental percolation engine (repro.faults.percolation).

The engine's contract: coupled monotone fault sampling (fault sets
nest across fractions within a trial), and *exact* metrics that are
byte-identical between the fused multi-fraction engine and the naive
per-point reference (``_naive_point_job``) -- for every block size,
worker count and ``REPRO_SHM`` setting -- with every (trial, fraction)
point store-backed under keys both share.
"""

import json
from collections import deque

import numpy as np
import pytest

from repro import store
from repro.faults.percolation import (
    DEFAULT_PERC_FRACTIONS,
    DEFAULT_TRIALS,
    _naive_point_job,
    canonical_links,
    link_field,
    percolation_artifact,
    percolation_sweep,
    percolation_trial,
    slot_tables,
)
from repro.util.parallel import shutdown_pool

FRACTIONS = (0.0, 0.05, 0.15, 0.40)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
    monkeypatch.delenv("REPRO_SHM", raising=False)
    monkeypatch.delenv("REPRO_BFS_BLOCK", raising=False)
    monkeypatch.setenv("REPRO_STORE", "off")
    store.clear_store()
    yield
    shutdown_pool()
    store.clear_store()


def _naive_raw(n, fractions, trials, seed, kinds):
    """A sweep's raw per-trial rows, one naive reference job per point."""
    return {
        kind: [
            [_naive_point_job((kind, n, seed, seed, t, f)) for f in fractions]
            for t in range(trials)
        ]
        for kind in kinds
    }


def _reference_metrics(topo, fraction, seed, trial):
    """Pure-Python BFS reference for one (trial, fraction) point."""
    uv = canonical_links(topo)
    field = link_field(len(uv), seed, trial)
    alive = uv[field >= fraction]
    adj = [[] for _ in range(topo.n)]
    for u, v in alive:
        adj[int(u)].append(int(v))
        adj[int(v)].append(int(u))
    sizes, total_hops, diameter = [], 0, 0
    for s in range(topo.n):
        dist = {s: 0}
        q = deque([s])
        while q:
            x = q.popleft()
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)
        sizes.append(len(dist))
        total_hops += sum(dist.values())
        diameter = max(diameter, max(dist.values()))
    reachable = sum(sizes) - topo.n
    return {
        "fraction": float(fraction),
        "dead_links": int((field < fraction).sum()),
        "kept_links": int((field >= fraction).sum()),
        "lcc": max(sizes),
        "ncomp": int(round(sum(1.0 / s for s in sizes))),
        "reachable_pairs": reachable,
        "total_hops": total_hops,
        "diameter": diameter,
        "aspl": (total_hops / reachable) if reachable > 0 else None,
    }


class TestCoupledSampling:
    def test_field_depends_only_on_seed_and_trial(self):
        a = link_field(50, seed=3, trial=7)
        b = link_field(50, seed=3, trial=7)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, link_field(50, seed=3, trial=8))
        assert not np.array_equal(a, link_field(50, seed=4, trial=7))

    def test_fault_sets_nest_across_fractions(self):
        from repro.experiments.sweeps import make_topology

        topo = make_topology("dsn", 64, seed=0)
        uv = canonical_links(topo)
        field = link_field(len(uv), seed=0, trial=1)
        dead = [
            {(int(u), int(v)) for u, v in uv[field < f]}
            for f in (0.02, 0.10, 0.30)
        ]
        assert dead[0] <= dead[1] <= dead[2]  # monotone coupling

    def test_slot_tables_map_every_real_slot(self):
        from repro.experiments.sweeps import make_topology

        topo = make_topology("dsn", 64, seed=0)
        pad, uv, eidx = slot_tables(topo)
        real = pad < topo.n
        assert (eidx[real] < len(uv)).all()  # every edge found
        assert (eidx[~real] == len(uv)).all()  # pad slots hit the sentinel
        # eidx round-trips to the canonical endpoints.
        node = np.arange(topo.n)[:, None] * np.ones_like(pad)
        u = np.minimum(node, pad)[real]
        v = np.maximum(node, pad)[real]
        np.testing.assert_array_equal(uv[eidx[real], 0], u)
        np.testing.assert_array_equal(uv[eidx[real], 1], v)


class TestEngineExactness:
    @pytest.mark.parametrize("kind", ["dsn", "random", "torus"])
    def test_incremental_matches_naive(self, kind):
        inc = percolation_trial(kind, 64, FRACTIONS, seed=0, trial=1)
        naive = [_naive_point_job((kind, 64, 0, 0, 1, f)) for f in FRACTIONS]
        assert inc == naive

    def test_matches_python_reference_including_disconnection(self):
        from repro.experiments.sweeps import make_topology

        # f=0.40 at n=32 disconnects reliably: metrics must stay exact
        # over reachable pairs, with lcc/ncomp tracking the pieces.
        topo = make_topology("dsn", 32, seed=0)
        rows = percolation_trial("dsn", 32, FRACTIONS, seed=0, trial=2)
        for frac, row in zip(FRACTIONS, rows):
            assert row == _reference_metrics(topo, frac, seed=0, trial=2)
        assert rows[-1]["ncomp"] > 1  # the disconnection case was hit

    def test_intact_anchor_matches_streaming_engine(self):
        from repro.analysis.blocked import streaming_hop_stats
        from repro.experiments.sweeps import make_topology

        topo = make_topology("dsn", 64, seed=0)
        row0 = percolation_trial("dsn", 64, FRACTIONS, seed=0, trial=0)[0]
        stats = streaming_hop_stats(topo)
        assert row0["lcc"] == 64
        assert row0["diameter"] == stats.diameter
        assert row0["aspl"] == pytest.approx(stats.aspl, abs=0)

    def test_block_size_invariance(self):
        rows = [
            percolation_trial("dsn", 64, FRACTIONS, seed=0, trial=1,
                              block_rows=b)
            for b in (64, 97, 4096)
        ]
        assert rows[0] == rows[1] == rows[2]

    def test_fractions_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            percolation_trial("dsn", 32, (0.1, 0.05), seed=0, trial=0)

    @pytest.mark.parametrize(
        "bad", [(), (0.0, 1.5), (-0.1, 0.2), (0.0, float("nan")), (0.0, float("inf")),
                (0.05, 0.05)]
    )
    def test_bad_fractions_rejected_everywhere(self, bad):
        with pytest.raises(ValueError, match="fraction"):
            percolation_trial("dsn", 32, bad, seed=0, trial=0)
        with pytest.raises(ValueError, match="fraction"):
            percolation_sweep(n=32, fractions=bad, trials=1, kinds=("dsn",))


class TestSweepInvariance:
    def test_workers_and_shm_do_not_change_results(self, monkeypatch):
        kw = dict(n=64, fractions=FRACTIONS, trials=2, seed=0, kinds=("dsn",))
        _, _, serial = percolation_sweep(workers=0, **kw)
        _, _, pooled = percolation_sweep(workers=2, **kw)
        monkeypatch.setenv("REPRO_SHM", "off")
        _, _, pickled = percolation_sweep(workers=2, **kw)
        enc = lambda raw: json.dumps(raw, sort_keys=True)
        assert enc(serial) == enc(pooled) == enc(pickled)

    def test_engines_agree_at_sweep_level(self):
        kw = dict(n=64, fractions=FRACTIONS, trials=2, seed=0,
                  kinds=("dsn", "random"), workers=0)
        _, _, raw_inc = percolation_sweep(**kw)
        assert raw_inc == _naive_raw(64, FRACTIONS, 2, 0, ("dsn", "random"))

    def test_default_trials(self):
        _, points, _ = percolation_sweep(
            n=32, fractions=(0.0, 0.1), kinds=("dsn",), workers=0
        )
        assert all(p.trials == DEFAULT_TRIALS == 10 for p in points)

    def test_aggregate_is_sane(self):
        _, points, _ = percolation_sweep(
            n=64, fractions=FRACTIONS, trials=2, seed=0, kinds=("dsn",),
            workers=0,
        )
        anchor = points[0]
        assert anchor.fraction == 0.0
        assert anchor.connected_fraction == 1.0
        assert anchor.mean_lcc_fraction == 1.0
        assert anchor.throughput_retention == pytest.approx(1.0)
        # Heavier damage never grows the giant component or retention.
        lccs = [p.mean_lcc_fraction for p in points]
        assert lccs == sorted(lccs, reverse=True)


class TestStoreResume:
    def test_resume_and_cross_engine_reuse(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        kw = dict(n=32, fractions=FRACTIONS, trials=2, seed=0,
                  kinds=("dsn",), workers=0)
        _, _, first = percolation_sweep(**kw)

        store.clear_store()  # memory tier only: force disk round-trips
        store.reset_store_stats()
        _, _, resumed = percolation_sweep(**kw)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            resumed, sort_keys=True
        )
        assert store.store_stats().misses == 0  # fully store-served

        # The naive reference hits the same keys.
        store.clear_store()
        store.reset_store_stats()
        naive = _naive_raw(32, FRACTIONS, 2, 0, ("dsn",))
        assert json.dumps(first, sort_keys=True) == json.dumps(
            naive, sort_keys=True
        )
        assert store.store_stats().misses == 0

    def test_warm_store_still_validates_fractions(self, tmp_path, monkeypatch):
        """A stored (0.0, 0.05) sweep must not serve the reversed grid."""
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        kw = dict(n=32, trials=2, seed=0, kinds=("dsn",), workers=0)
        percolation_sweep(fractions=(0.0, 0.05), **kw)
        with pytest.raises(ValueError, match="ascending"):
            percolation_sweep(fractions=(0.05, 0.0), **kw)
        with pytest.raises(ValueError, match="ascending"):
            percolation_trial("dsn", 32, (0.05, 0.0), seed=0, trial=0)

    def test_single_trial_points_are_keyed_individually(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        full = percolation_trial("dsn", 32, FRACTIONS, seed=0, trial=0)
        store.clear_store()
        store.reset_store_stats()
        # A different (sub-)sweep over stored fractions recomputes nothing.
        sub = percolation_trial("dsn", 32, FRACTIONS[1:], seed=0, trial=0)
        assert sub == full[1:]
        assert store.store_stats().misses == 0


class TestArtifactAndCli:
    def test_artifact_deterministic_and_engine_independent(self, tmp_path):
        p1, p2, p3 = (tmp_path / f"{i}.json" for i in "abc")
        kw = dict(n=32, fractions=FRACTIONS, trials=2, seed=0,
                  kinds=("dsn",), workers=0)
        percolation_artifact(p1, **kw)
        percolation_artifact(p2, **kw)
        assert p1.read_bytes() == p2.read_bytes()
        percolation_artifact(p3, **{**kw, "workers": 2})
        assert p1.read_bytes() == p3.read_bytes()
        d1 = json.loads(p1.read_text())
        assert d1["engine"] == "incremental"
        assert d1["raw"] == _naive_raw(32, FRACTIONS, 2, 0, ("dsn",))

    def test_cli_percolation(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "PERC.json"
        main([
            "percolation", "--n", "32", "--fractions", "0.0,0.1",
            "--trials", "2", "--kinds", "dsn", "--out", str(out),
            "--no-store",
        ])
        text = capsys.readouterr().out
        assert "Percolation sweep" in text
        doc = json.loads(out.read_text())
        assert doc["experiment"] == "percolation_sweep"
        assert doc["fractions"] == [0.0, 0.1]
        assert len(doc["points"]) == 2

    def test_cli_default_fractions(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["percolation"])
        assert args.fractions is None  # handler falls back to the default
        assert not hasattr(args, "engine")
        parsed = build_parser().parse_args(
            ["percolation", "--fractions", "0.0,0.2"]
        )
        assert parsed.fractions == (0.0, 0.2)
        assert DEFAULT_PERC_FRACTIONS[0] == 0.0

    @pytest.mark.parametrize("command", ["percolation", "faults"])
    @pytest.mark.parametrize(
        "text, named", [("0,1.5", "1.5"), ("0.05,0.0", "0.0"), ("0,x", "'x'")]
    )
    def test_cli_rejects_bad_fractions(self, command, text, named, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--fractions", text])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--fractions" in err and named in err
