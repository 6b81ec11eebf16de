import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from klbp import spn
from klbp.factorgraph import FactorGraph
from perfbench import builders, layers
from perfbench.cli_desk import CliDesk
from perfbench.desk_verify import DeskVerify
from perfbench.fg_loopy import FgLoopy
from perfbench.spans import Recorder
from perfbench.spn_stream import SpnStream

ROOT = Path(__file__).resolve().parents[2]


def _shape(nodes):
    return [(n.id, n.kind, n.children, n.weights, n.var, n.state) for n in nodes]


def test_rat_spn_is_deterministic_valid_and_at_scale():
    nodes, root = builders.rat_spn(3)
    again, root_again = builders.rat_spn(3)
    assert (_shape(nodes), root) == (_shape(again), root_again)
    assert _shape(builders.rat_spn(4)[0]) != _shape(nodes)
    circuit = spn.SpnCircuit(nodes, root)
    assert spn.validate_spn(circuit)["valid"]
    assert not circuit.is_tree()
    assert len(circuit.nodes) == 4435
    assert len(circuit.variable_order()) == 128
    fanins = {len(n.children) for n in circuit.nodes if n.kind == "product"}
    assert fanins == {2, 16}


def test_flat_mixture_and_small_rat_spn_are_valid():
    nodes, root = builders.flat_mixture(1, 30)
    circuit = spn.SpnCircuit(nodes, root)
    assert spn.validate_spn(circuit)["valid"]
    assert len(nodes) == 2 * (30 + 2 * 30 + 1) + 1
    nodes, root = builders.rat_spn(2, n_vars=9, states=2, reps=3, depth=2, sums=2, inputs=2)
    assert spn.validate_spn(spn.SpnCircuit(nodes, root))["valid"]
    assert _shape(builders.flat_mixture(1, 30)[0]) == _shape(builders.flat_mixture(1, 30)[0])


def test_factor_graph_builders_are_deterministic():
    variables, factors = builders.grid(5, 4)
    again = builders.grid(5, 4)[1]
    assert [f.table.tolist() for f in factors] == [f.table.tolist() for f in again]
    fg = FactorGraph(variables, factors)
    assert len(fg.neighbors("hub")) == 16
    assert not fg.is_forest()
    fg = FactorGraph(*builders.star(5, 20))
    assert fg.is_forest() and len(fg.neighbors("c")) == 20
    t1 = builders.unary_tables(np.random.default_rng(1), variables)
    t2 = builders.unary_tables(np.random.default_rng(1), variables)
    assert all(np.array_equal(a, b) for a, b in zip(t1, t2))


def _first(wl, kind):
    return next(payload for k, payload in wl.round(0) if k == kind)


def test_spn_stream_checks_catch_perturbed_outputs():
    wl = SpnStream(1, Recorder(enabled=False))
    marg_payload = next(p for k, p in wl.round(0) if k == "marginals" and p[1] is not None)
    out = wl.run("marginals", marg_payload)
    assert wl.check("marginals", marg_payload, out) is None
    var = marg_payload[1]
    out["arrays"] = dict(out["arrays"])
    out["arrays"][var] = out["arrays"][var] + np.array([1e-6, -1e-6, 0.0])  # still sums to 1
    assert "clamped" in wl.check("marginals", marg_payload, out)
    out["arrays"][var] = out["arrays"][var] + 1e-6
    assert wl.check("marginals", marg_payload, out) is not None

    payload = _first(wl, "eval")
    out = wl.run("eval", payload)
    assert wl.check("eval", payload, out) is None
    out["log_root"] += 1e-6
    assert wl.check("eval", payload, out) is not None

    payload = _first(wl, "gates")
    out = wl.run("gates", payload)
    assert wl.check("gates", payload, out) is None
    gate = next(iter(out["gates"].values()))
    gate["b"] = gate["b"] * (1 + 1e-9)
    assert wl.check("gates", payload, out) is not None

    payload = _first(wl, "kkt")
    out = wl.run("kkt", payload)
    assert wl.check("kkt", payload, out) is None
    key = next(iter(out["kkt"]["pi"]))
    out["kkt"]["pi"][key] = 1.5
    assert wl.check("kkt", payload, out) is not None


def test_fg_loopy_check_catches_perturbed_outputs():
    wl = FgLoopy(1, Recorder(enabled=False))
    payload = wl.round(1)[0][1]
    out = wl.run("solve", payload)
    assert wl.check("solve", payload, out) is None
    assert 10 < wl.counters["sweeps"][0] < 200
    vid = next(iter(out["beliefs"]))
    out["beliefs"] = dict(out["beliefs"])
    out["beliefs"][vid] = out["beliefs"][vid] + 1e-6
    assert wl.check("solve", payload, out) is not None
    out = wl.run("solve", payload)
    out["residual"] = 1e-6
    assert "fixed-point" in wl.check("solve", payload, out)


@pytest.fixture(scope="module")
def desk():
    return DeskVerify(1, Recorder(enabled=False))


def test_desk_verify_replays_the_acceptance_mix(desk):
    kinds = [k for k, _ in desk.round(0)]
    counts = {k: kinds.count(k) for k in set(kinds)}
    assert counts == {
        "circuit": 100, "dag-golden": 1, "dag": 200, "gauge": 20, "lift-tree": 50,
        "lift-cycle": 3, "lift-quadratic": 1, "posterior": 50, "projection-diagonal": 50,
        "projection-product": 50, "projection-consensus": 50, "lipschitz": 21,
    }


def _shift_values(key, by=1e-6):
    def perturb(out):
        out[key] = {k: v + by for k, v in out[key].items()}
        return out

    return perturb


@pytest.mark.parametrize(
    "kind, perturb",
    [
        ("circuit", _shift_values("arrays")),
        ("dag", _shift_values("adj")),
        ("lift-tree", _shift_values("scheme")),
        ("gauge", lambda slopes: [slopes[0], slopes[1] + 1e-6]),
        ("posterior", lambda out: {**out, "grad": out["grad"] + 1e-3}),
        ("projection-product", lambda out: (SimpleNamespace(probs=out[0].probs + 1e-5), out[1])),
        ("lipschitz", lambda report: {**report, "all_pairs_ok": False}),
    ],
)
def test_desk_verify_checks_catch_perturbed_outputs(desk, kind, perturb):
    payload = _first(desk, kind)
    out = desk.run(kind, payload)
    assert desk.check(kind, payload, out) is None
    assert desk.check(kind, payload, perturb(out)) is not None


def test_cli_desk_check_catches_bad_reports(tmp_path):
    wl = CliDesk(1, Recorder(enabled=False), tmp_path / "cli")
    try:
        cmd = wl.commands[2]  # spn marginals
        proc, wall_ms = wl.run("cli", cmd)
        assert wl.check("cli", cmd, (proc, wall_ms)) is None
        assert wl.counters["command_ms"] and wl.counters["report_bytes"][0] == len(proc.stdout)
        text = proc.stdout.decode()
        changed = text.replace('"value":', '"value":1', 1).encode()
        assert "differs" in wl.check("cli", cmd, (proc.__class__(proc.args, 0, changed, proc.stderr), wall_ms))
        nan = text.replace('"value":', '"value":NaN,"x":', 1).encode()
        assert "strict JSON" in wl.check("cli", cmd, (proc.__class__(proc.args, 0, nan, proc.stderr), wall_ms))
        failing = text.replace('"pass":true,"schema"', '"pass":false,"schema"').encode()
        assert "does not pass" in wl.check("cli", cmd, (proc.__class__(proc.args, 0, failing, proc.stderr), wall_ms))
        assert "exit code" in wl.check("cli", cmd, (proc.__class__(proc.args, 3, proc.stdout, b""), wall_ms))
    finally:
        wl.close()
    assert not (tmp_path / "cli").exists()


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == ["spn-stream", "fg-loopy", "desk-verify", "cli-desk"]
