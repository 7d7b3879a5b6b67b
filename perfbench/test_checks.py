"""Self-tests of the benchmark's output checks.

Every check must pass on a correct output and fail on a deliberately
corrupted one; where it is cheap the correct output comes from the
program itself.  Run from the repository root::

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, common, run

common.load_program()


def _views(seed=0, n=12, d=6):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)), rng.normal(size=(n, d))


def _unit(a):
    return a / np.linalg.norm(a, axis=1, keepdims=True)


# -- train-gradgcl ------------------------------------------------------

def test_losses_check_fails_on_nan_or_rise():
    assert checks.losses_finite_and_falling([2.7, 2.6, 2.5])[0]
    assert not checks.losses_finite_and_falling([2.7, float("nan"), 2.5])[0]
    assert not checks.losses_finite_and_falling([2.5, 2.6, 2.7])[0]
    assert not checks.losses_finite_and_falling([2.5])[0]


def test_eq18_check_on_program_objective_and_corruption():
    from repro.core.objectives import GradGCLObjective
    from repro.tensor import Tensor

    u, v = _views()
    objective = GradGCLObjective(weight=0.5)
    total = objective.loss(Tensor(u, dtype=np.float64),
                           Tensor(v, dtype=np.float64)).item()
    parts = dict(objective.last_parts)
    assert checks.eq18_holds([total], [parts], 0.5)[0]
    assert not checks.eq18_holds([total * (1 + 1e-3)], [parts], 0.5)[0]
    assert not checks.eq18_holds([total], [{"loss_f": 1.0}], 0.5)[0]
    assert not checks.eq18_holds([total], [parts], 0.25)[0]


def test_fd_gradient_matches_closed_form():
    u, v = _views(1)
    u_hat, v_hat = _unit(u), _unit(v)
    tau = 0.5
    logits = u_hat @ v_hat.T / tau
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    closed = (p @ v_hat - v_hat) / tau
    fd = checks.infonce_fd_gradient(u_hat, v_hat, tau)
    assert np.abs(fd - closed).max() < 1e-7


def test_eq6_check_on_program_features_and_corruption():
    from repro.core.objectives import InfoNCEObjective
    from repro.tensor import Tensor

    u, v = _views(2)
    objective = InfoNCEObjective(tau=0.5)
    g_u, g_v = objective.gradient_features(Tensor(u, dtype=np.float64),
                                           Tensor(v, dtype=np.float64))
    fd_u = checks.infonce_fd_gradient(_unit(u), _unit(v), 0.5)
    fd_v = checks.infonce_fd_gradient(_unit(v), _unit(u), 0.5)
    assert checks.matches_fd(g_u.data, fd_u)[0]
    assert checks.matches_fd(g_v.data, fd_v)[0]
    corrupted = g_u.data.copy()
    corrupted[3, 2] += 1e-4
    assert not checks.matches_fd(corrupted, fd_u)[0]
    assert not checks.matches_fd(g_v.data, fd_u)[0]       # swapped views
    assert not checks.matches_fd(g_u.data[:-1], fd_u)[0]


# -- eval-protocol ------------------------------------------------------

def test_reference_check_on_program_protocol_and_corruption():
    from repro.eval import evaluate_graph_embeddings

    rng = np.random.default_rng(3)
    labels = np.arange(60) % 2
    embeddings = rng.normal(size=(60, 5)) + labels[:, None]
    fast = evaluate_graph_embeddings(embeddings, labels, classifier="logreg",
                                     folds=3, repeats=2, seed=0)
    reference = evaluate_graph_embeddings(embeddings, labels,
                                          classifier="logreg", folds=3,
                                          repeats=2, seed=0,
                                          engine="reference")
    assert checks.equals_reference(fast, reference)[0]
    mean, std = fast
    assert not checks.equals_reference(
        (np.nextafter(mean, np.inf), std), reference)[0]
    assert not checks.equals_reference((mean, std * 1.001), reference)[0]


def test_majority_check_fails_below_chance():
    labels = np.array([0, 0, 0, 1])
    assert checks.beats_majority(75.0, labels)[0]
    assert not checks.beats_majority(74.9, labels)[0]


# -- serve-http ---------------------------------------------------------

def test_row_check_on_served_json_and_corruption():
    from repro.graph import Graph
    from repro.methods import GraphCL
    from repro.serve import FrozenEncoder
    from repro.tensor import autocast
    from repro.utils.seed import seeded_rng

    with autocast("float32"):
        method = GraphCL(4, hidden_dim=8, num_layers=2, rng=seeded_rng(0))
    encoder = FrozenEncoder(method)
    rng = np.random.default_rng(4)
    graph = Graph(5, np.array([[0, 1], [1, 2], [3, 4]]),
                  rng.normal(size=(5, 4)))
    row = encoder.embed([graph])[0]
    served = json.loads(json.dumps(row.tolist()))
    assert checks.rows_identical(served, row)[0]
    off = served.copy()
    off[1] = float(np.nextafter(np.float32(off[1]), np.float32(np.inf)))
    assert not checks.rows_identical(off, row)[0]
    off = served.copy()
    off[0] += 1e-12                 # not a float32 value any more
    assert not checks.rows_identical(off, row)[0]
    assert not checks.rows_identical(served[:-1], row)[0]


def test_status_check_fails_on_any_non_200():
    assert checks.all_ok([200, 200])[0]
    assert not checks.all_ok([200, 500])[0]
    assert not checks.all_ok([200, "ConnectionResetError: reset"])[0]


# -- the benchmark's own contract ----------------------------------------

def test_benchmark_json_names_match_the_runner():
    spec = json.loads((Path(run.__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 101))
    value, percentile = common.tail(values)
    assert value == 90 and percentile == 90.0
    assert sum(v > value for v in values) == common.TAIL_BEYOND
    with pytest.raises(ValueError):
        common.tail(list(range(10)))
