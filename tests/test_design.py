"""Tests for the design-space optimizer (repro.design)."""

import json

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from repro import store
from repro.cli import main
from repro.design import (
    Candidate,
    build_candidate,
    channel_load_shares,
    compute_frontier,
    demichev_score,
    design_sources,
    enumerate_candidates,
    evaluate_candidate,
    explain_candidate,
    format_explain,
    format_frontier,
    format_rank,
    frontier_text,
    pareto_front,
)
from repro.design import objectives
from repro.design.space import MIN_DESIGN_N
from repro.experiments.sweeps import make_topology
from repro.serve import handlers
from repro.sim.model import build_uniform_model
from repro.topologies.base import Topology


@pytest.fixture(autouse=True)
def fresh_store(monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
    monkeypatch.delenv("REPRO_DESIGN_SOURCES", raising=False)
    store.clear_store()
    store.reset_store_stats()
    yield
    store.clear_store()
    store.reset_store_stats()


class TestSpace:
    def test_enumeration_is_sorted_and_unique(self):
        cands = enumerate_candidates(64)
        assert cands == sorted(cands)
        labels = [c.label for c in cands]
        assert len(labels) == len(set(labels))
        kinds = {c.kind for c in cands}
        assert {"ring", "dsn", "dsn_d", "dln", "random",
                "random_regular", "torus", "flexible"} <= kinds

    def test_min_n_enforced(self):
        with pytest.raises(ValueError, match="n >= 16"):
            enumerate_candidates(8)

    def test_degree_budget_prunes_known_families(self):
        # A 64-node hypercube has degree 6: out at budget 5, in at 6.
        assert not any(c.kind == "hypercube" for c in enumerate_candidates(64, 5))
        cands6 = enumerate_candidates(64, 6)
        assert any(c.kind == "hypercube" for c in cands6)
        assert any(c.kind == "torus3d" for c in cands6)
        # Odd n * odd degree is not a buildable regular graph.
        degrees = {dict(c.params)["degree"] for c in enumerate_candidates(64, 5)
                   if c.kind == "random_regular"}
        assert degrees == {3, 4, 5}

    def test_seeds_scale_stochastic_families_only(self):
        one = enumerate_candidates(64, seeds=1)
        three = enumerate_candidates(64, seeds=3)
        assert sum(c.kind == "random" for c in one) == 1
        assert sum(c.kind == "random" for c in three) == 3
        assert (sum(c.kind == "dsn" for c in one)
                == sum(c.kind == "dsn" for c in three))

    def test_build_every_candidate(self):
        for c in enumerate_candidates(32, seeds=1):
            topo = build_candidate(c)
            assert topo.n == 32, c.label

    def test_flexible_candidate_hits_target_n(self):
        topo = build_candidate(Candidate(kind="flexible", n=48,
                                         params=(("minors", 4),)))
        assert topo.n == 48

    def test_label_roundtrips_params_and_seed(self):
        c = Candidate(kind="random_regular", n=64, seed=1,
                      params=(("degree", 4),))
        assert c.label == "random_regular-degree4@s1"
        assert c.as_dict()["params"] == {"degree": 4}


def _per_source_shares(topo, limit, seed=0):
    """Reference ``channel_load_shares``: scipy distance rows and one
    Brandes pass per source, with ``np.add.at`` accumulation. This is
    the loop the blocked accumulator replaced; it must give the same
    floats, bit for bit."""
    n = topo.n
    if n <= limit:
        src = np.arange(n)
    else:
        src = np.sort(np.random.default_rng(seed).permutation(n)[:limit])
    u = np.array([l.u for l in topo.links], dtype=np.int64)
    v = np.array([l.v for l in topo.links], dtype=np.int64)
    eu = np.concatenate([u, v])
    ev = np.concatenate([v, u])
    dist = shortest_path(
        topo.adjacency_csr, method="D", unweighted=True, directed=False, indices=src
    )
    flow = np.zeros(len(eu))
    sigma = np.empty(n)
    delta = np.empty(n)
    for row in dist:
        du, dv = row[eu], row[ev]
        levels = [np.nonzero((du == lvl - 1) & (dv == lvl))[0]
                  for lvl in range(1, int(row.max()) + 1)]
        sigma.fill(0.0)
        sigma[row == 0] = 1.0
        for sel in levels:
            np.add.at(sigma, ev[sel], sigma[eu[sel]])
        delta.fill(0.0)
        for sel in reversed(levels):
            contrib = sigma[eu[sel]] / sigma[ev[sel]] * (1.0 + delta[ev[sel]])
            flow[sel] += contrib
            np.add.at(delta, eu[sel], contrib)
    total = flow.sum()
    return (flow / total if total else flow), len(src)


class TestChannelShares:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("kind", ["dsn", "torus", "random", "ring"])
    def test_sampled_shares_equal_per_source_oracle(self, kind, seed):
        topo = make_topology(kind, 256)
        got, used = channel_load_shares(topo, sources=16, seed=seed)
        expect, used_ref = _per_source_shares(topo, 16, seed=seed)
        assert used == used_ref == 16
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("kind", ["dsn", "torus", "random", "ring", "hypercube"])
    def test_all_sources_shares_equal_per_source_oracle(self, kind):
        topo = make_topology(kind, 64)
        got, used = channel_load_shares(topo, sources=64)
        expect, _ = _per_source_shares(topo, 64)
        assert used == 64
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("entries", [1, 700, 5000])
    def test_sub_block_boundaries_are_invisible(self, entries, monkeypatch):
        # 1 entry: one source per sub-block; 700 and 5000 leave ragged
        # sub-blocks inside each 64-source distance chunk.
        topo = make_topology("dsn", 100)
        expect, _ = _per_source_shares(topo, 100)
        monkeypatch.setattr(objectives, "BRANDES_BLOCK_ENTRIES", entries)
        got, _ = channel_load_shares(topo, sources=100)
        assert np.array_equal(got, expect)
        sampled, _ = channel_load_shares(topo, sources=70, seed=5)
        assert np.array_equal(sampled, _per_source_shares(topo, 70, seed=5)[0])

    @pytest.mark.parametrize("sources", [None, 2, 6])
    def test_disconnected_topology_is_named(self, sources):
        topo = Topology(6, [(0, 1), (1, 2), (3, 4), (4, 5)], name="two-paths")
        with pytest.raises(ValueError, match="topology is disconnected"):
            channel_load_shares(topo, sources=sources)

    @pytest.mark.parametrize("kind", ["dsn", "torus", "random"])
    def test_exact_shares_match_uniform_model(self, kind):
        topo = make_topology(kind, 32)
        shares, used = channel_load_shares(topo, sources=32)
        assert used == 32
        model = build_uniform_model(topo)
        # Ours is blocked (forward then reverse); the model interleaves.
        interleaved = np.empty_like(shares)
        interleaved[0::2] = shares[: topo.num_links]
        interleaved[1::2] = shares[topo.num_links:]
        np.testing.assert_allclose(interleaved, model.channel_shares, atol=1e-12)

    def test_sampled_shares_are_deterministic(self):
        topo = make_topology("dsn", 64)
        a, used_a = channel_load_shares(topo, sources=16, seed=3)
        b, used_b = channel_load_shares(topo, sources=16, seed=3)
        assert used_a == used_b == 16
        np.testing.assert_array_equal(a, b)
        assert a.shape == (2 * topo.num_links,)
        assert a.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("sources", [0, -5])
    def test_sources_below_one_rejected(self, sources):
        with pytest.raises(ValueError, match="sources"):
            channel_load_shares(make_topology("dsn", 32), sources=sources)

    def test_sources_env(self, monkeypatch):
        assert design_sources() == 64
        monkeypatch.setenv("REPRO_DESIGN_SOURCES", "128")
        assert design_sources() == 128
        monkeypatch.setenv("REPRO_DESIGN_SOURCES", "junk")
        assert design_sources() == 64


class TestEvaluate:
    def test_objective_fields(self):
        ev = evaluate_candidate(Candidate(kind="dsn", n=32, params=(("x", 2),)))
        assert ev["label"] == "dsn-x2"
        assert ev["diameter"] >= 1 and ev["aspl"] > 1.0
        assert ev["cable_total_m"] > 0 and ev["cost_total"] > 0
        assert ev["saturation_gbps"] > 0
        assert ev["max_degree"] >= 3

    def test_memoized_through_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        c = Candidate(kind="torus", n=16)
        first = evaluate_candidate(c)
        store.clear_store()  # drop the memory tier; disk remains
        store.reset_store_stats()
        second = evaluate_candidate(c)
        assert first == second
        stats = store.store_stats()
        assert stats.disk_hits == 1 and stats.misses == 0


class TestFrontier:
    def test_pareto_front_synthetic(self):
        def ev(label, aspl, diam, cable, sat):
            return {"label": label, "aspl": aspl, "diameter": diam,
                    "cable_total_m": cable, "saturation_gbps": sat}

        a = ev("a", 3.0, 6, 100.0, 10.0)
        b = ev("b", 4.0, 7, 150.0, 5.0)   # dominated by a
        c = ev("c", 5.0, 9, 50.0, 2.0)    # cheapest cable: survives
        assert pareto_front([a, b, c]) == ["a", "c"]

    def test_demichev_ring_scores_one(self):
        ring = {"aspl": 8.0, "cost_total": 1000.0}
        assert demichev_score(ring, ring) == {"quality": 1.0, "cost": 1.0,
                                              "score": 1.0}
        better = {"aspl": 4.0, "cost_total": 1250.0}
        d = demichev_score(better, ring)
        assert d["quality"] == 2.0 and d["cost"] == 1.25
        assert d["score"] == pytest.approx(1.6)

    def test_artifact_shape_and_ring_baseline(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "off")
        art = compute_frontier(32, workers=0)
        assert art["baseline"] == "ring"
        assert art["num_candidates"] == len(art["evaluations"])
        by_label = {ev["label"]: ev for ev in art["evaluations"]}
        assert by_label["ring"]["demichev"]["score"] == 1.0
        for label in art["pareto"]:
            assert by_label[label]["pareto"] and by_label[label]["within_budget"]
        for label in art["over_budget"]:
            assert by_label[label]["rank"] is None

    def test_bytes_identical_across_workers_and_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "off")
        serial = frontier_text(compute_frontier(24, workers=0))
        parallel = frontier_text(compute_frontier(24, workers=2))
        assert serial == parallel
        monkeypatch.delenv("REPRO_STORE")
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        store.clear_store()
        stored_cold = frontier_text(compute_frontier(24, workers=0))
        store.clear_store()
        stored_warm = frontier_text(compute_frontier(24, workers=0))
        assert serial == stored_cold == stored_warm

    def test_explain_reports_dominators(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "off")
        art = compute_frontier(32, workers=0)
        dominated = next(ev["label"] for ev in art["evaluations"]
                         if not ev["pareto"] and ev["within_budget"])
        detail = explain_candidate(art, dominated)
        assert detail["dominated_by"]
        with pytest.raises(KeyError, match="unknown candidate"):
            explain_candidate(art, "nope")

    def test_renderings_smoke(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "off")
        art = compute_frontier(32, workers=0)
        assert "pareto front" in format_frontier(art)
        assert "demichev ranking" in format_rank(art)
        card = format_explain(explain_candidate(art, art["pareto"][0]))
        assert "within_budget=True" in card


class TestCLI:
    def test_frontier_table(self, capsys):
        main(["design", "frontier", "--n", "32", "--no-store"])
        out = capsys.readouterr().out
        assert "pareto front" in out and "dsn-x2" in out

    def test_rank_json_and_out(self, tmp_path, capsys):
        out_path = tmp_path / "frontier.json"
        main(["design", "rank", "--n", "32", "--no-store",
              "--json", "--out", str(out_path)])
        out = capsys.readouterr().out
        artifact = json.loads(out.splitlines()[-1])
        assert artifact["n"] == 32
        assert out_path.read_text().endswith("\n")
        assert json.loads(out_path.read_text()) == artifact

    def test_explain_and_missing_label(self, capsys):
        main(["design", "explain", "ring", "--n", "32", "--no-store"])
        assert "candidate ring" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["design", "explain", "--n", "32", "--no-store"])

    @pytest.mark.parametrize("sources", ["0", "-5"])
    def test_sources_must_be_positive(self, sources, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["design", "frontier", "--n", "32", "--no-store", "--sources", sources])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_plot_flag(self, capsys):
        main(["design", "frontier", "--n", "32", "--no-store", "--plot"])
        assert "cable metres" in capsys.readouterr().out


class TestServeDesign:
    def test_parse_and_path_roundtrip(self):
        job = handlers.parse_query("/v1/design", {"n": "32", "budget": "4",
                                                  "seeds": "1", "sources": "16"})
        assert job == ("design", 32, 4, 1, 16)
        assert handlers.parse_query("/v1/design",
                                    dict(handlers_qs(handlers.job_path(job)))) == job

    def test_defaults_and_validation(self):
        job = handlers.parse_query("/v1/design", {})
        assert job == ("design", 64, 5, 2, design_sources())
        for bad in ({"n": str(MIN_DESIGN_N - 1)}, {"budget": "1"},
                    {"seeds": "0"}, {"n": "junk"}, {"sources": "-5"}):
            with pytest.raises(handlers.QueryError):
                handlers.parse_query("/v1/design", bad)

    def test_compute_job_matches_direct(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "off")
        job = handlers.design_job(32, budget=5, seeds=1, sources=16)
        doc = handlers.compute_job(job)
        direct = compute_frontier(32, degree_budget=5, seeds=1,
                                  sources=16, workers=0)
        assert handlers.result_text(doc) == handlers.result_text(direct)


def handlers_qs(path: str) -> list[tuple[str, str]]:
    """Parse the query string of a job path back into parameters."""
    from urllib.parse import parse_qsl, urlsplit

    return parse_qsl(urlsplit(path).query)
