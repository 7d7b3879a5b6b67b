"""Workload ``train-gradgcl``: GraphCL + GradGCL(a=0.5) training on PROTEINS.

Each round is one ``execute_run`` of the ``repro run`` code path with
default settings: dataset load, method build, GradGCL wrapping, then
``Trainer.fit`` for ``EPOCHS`` epochs.  ``stop_after=EPOCHS`` ends the
run after its last epoch and before the evaluation protocol, which is the
``eval-protocol`` workload's business.  Rounds repeat until the run's
seconds are used up, at least ``MIN_ROUNDS`` times; every round trains
the same seed, so every round does the same work.
"""

from __future__ import annotations

import time

import numpy as np

from . import checks
from .common import median, metric, self_peak_rss_mb, tail

EPOCHS = 5
#: Enough epochs for a percentile with ten samples beyond it.
MIN_ROUNDS = 3
WEIGHT = 0.5
DATASET = "PROTEINS"

def _layer_patches():
    """Spans of the traced run: (program owner, attribute, layer name)."""
    from repro.core.objectives import GradGCLObjective, InfoNCEObjective
    from repro.gnn import GINEncoder, ProjectionHead
    from repro.graph import GraphBatch
    from repro.nn import Adam
    from repro.pipeline import ViewGenerator
    from repro.tensor import Tensor

    return [
        (ViewGenerator, "generate", "pipeline.generate"),
        (GraphBatch, "__init__", "graph.batch"),
        (GINEncoder, "forward", "gnn.encoder"),
        (ProjectionHead, "forward", "gnn.projector"),
        (InfoNCEObjective, "loss", "losses.loss_f"),
        (InfoNCEObjective, "gradient_features", "core.gradient_features"),
        (GradGCLObjective, "gradient_loss", "losses.loss_g"),
        (Tensor, "backward", "tensor.backward"),
        (Adam, "step", "nn.optim_step"),
    ]


class _Hooks:
    """Timestamps at ``Trainer.fit`` entry/exit and after each optimizer
    step; the only instrumentation of the untraced run.  Only the latest
    trainer is kept, so memory does not grow with the number of rounds."""

    def __init__(self):
        self.fits: list[dict] = []
        self.trainer = None

    def install(self):
        from repro.nn import Adam
        from repro.run import Trainer

        hooks = self
        fit, step = Trainer.fit, Adam.step

        def timed_fit(trainer):
            hooks.trainer = trainer
            record = {"enter": time.perf_counter(), "steps": []}
            hooks.fits.append(record)
            try:
                return fit(trainer)
            finally:
                record["exit"] = time.perf_counter()
                record["graphs"] = trainer.last_throughput.get(
                    "graphs_seen", 0) * EPOCHS

        def timed_step(optimizer):
            out = step(optimizer)
            if hooks.fits:
                hooks.fits[-1]["steps"].append(time.perf_counter())
            return out

        Trainer.fit, Adam.step = timed_fit, timed_step
        return lambda: (setattr(Trainer, "fit", fit),
                        setattr(Adam, "step", step))


def _config(seed: int):
    from repro.run import RunConfig

    return RunConfig(method="GraphCL", dataset=DATASET, scale="small",
                     weight=WEIGHT, epochs=EPOCHS, seed=seed)


def _eq6_check(trainer) -> tuple[bool, str]:
    """Eq. 6 features of one batch at the final parameters against a
    float64 central finite difference of ``loss_f``."""
    from repro.graph import GraphBatch
    from repro.tensor import Tensor, no_grad

    method = trainer.method
    objective = method.objective.base
    batch = GraphBatch(list(trainer.strategy.graphs[:32]))
    with no_grad():
        u, v = method.project_views(batch)
    u = u.data.astype(np.float64)
    v = v.data.astype(np.float64)
    g_u, g_v = objective.gradient_features(Tensor(u, dtype=np.float64),
                                           Tensor(v, dtype=np.float64))
    u_hat = u / np.linalg.norm(u, axis=1, keepdims=True)
    v_hat = v / np.linalg.norm(v, axis=1, keepdims=True)
    ok_u, detail_u = checks.matches_fd(
        g_u.data, checks.infonce_fd_gradient(u_hat, v_hat, objective.tau))
    ok_v, detail_v = checks.matches_fd(
        g_v.data, checks.infonce_fd_gradient(v_hat, u_hat, objective.tau))
    return ok_u and ok_v, f"g: {detail_u}; g': {detail_v}"


def run(seed: int, seconds: float, recorder=None) -> dict:
    from repro.run import execute_run

    hooks = _Hooks()
    restore = hooks.install()
    if recorder is not None:
        for owner, attr, name in _layer_patches():
            recorder.patch(owner, attr, name)
    config = _config(seed)
    rounds = []
    try:
        started = time.perf_counter()
        while True:
            called = time.perf_counter()
            result = execute_run(config, stop_after=EPOCHS)
            rounds.append({"called": called, "fit": hooks.fits[-1],
                           "history": result.history})
            if len(rounds) >= MIN_ROUNDS and \
                    time.perf_counter() - started >= seconds:
                break
        finished = time.perf_counter()
    finally:
        if recorder is not None:
            recorder.unpatch()
        restore()
    peak_rss = self_peak_rss_mb()

    steps, epochs, graphs, rates, setups = [], [], 0, [], []
    results = {}
    for index, rnd in enumerate(rounds):
        fit, history = rnd["fit"], rnd["history"]
        setups.append(fit["enter"] - rnd["called"])
        marks = [fit["enter"]] + fit["steps"]
        steps.extend(b - a for a, b in zip(marks, marks[1:]))
        # Every epoch has the same number of batches.
        per_epoch = len(fit["steps"]) // EPOCHS
        bounds = marks[::per_epoch]
        epochs.extend(b - a for a, b in zip(bounds, bounds[1:]))
        graphs += fit["graphs"]
        rates.append(fit["graphs"] / (fit["exit"] - fit["enter"]))
        results[f"round{index}.epochs"] = (
            len(history.losses) == EPOCHS
            and len(fit["steps"]) == per_epoch * EPOCHS,
            f"{len(history.losses)} of {EPOCHS} epochs, "
            f"{len(fit['steps'])} steps")
        results[f"round{index}.losses"] = \
            checks.losses_finite_and_falling(history.losses)
        results[f"round{index}.eq18"] = checks.eq18_holds(
            history.losses, history.parts, WEIGHT)
    results["eq6_fd"] = _eq6_check(hooks.trainer)

    tail_ms, tail_pct = tail([1e3 * s for s in epochs])
    out = {
        "attempted": len(steps), "failed": 0, "checks": results,
        "metrics": {
            "setup_s": metric(median(setups), "s"),
            "peak_rss_mb": metric(peak_rss, "MB"),
            "throughput_per_s": metric(median(rates), "1/s"),
            "p50_ms": metric(1e3 * median(epochs), "ms"),
            "tail_ms": metric(tail_ms, "ms"),
        },
        "notes": {"rounds": len(rounds), "epochs_per_round": EPOCHS,
                  "graphs_trained": graphs,
                  "steps": len(steps), "epochs": len(epochs),
                  "tail_percentile": tail_pct,
                  "op_wall_s": (finished - started) / len(steps),
                  "unit_of_throughput": "graphs/s",
                  "unit_of_latency": "one training epoch"},
    }
    if recorder is not None:
        out["layers"] = _layers(recorder, rounds, graphs, started,
                                finished)
    return out


def _layers(recorder, rounds, graphs, started, finished) -> dict:
    """Per-step self time of each layer; with the untraced remainder the
    rows add up to the traced run's wall time."""
    steps = sum(len(r["fit"]["steps"]) for r in rounds)
    self_s = recorder.self_times()
    calls = recorder.calls()
    wall = finished - started
    rows = [(name, self_s.get(name, 0.0), calls.get(name, 0))
            for _, _, name in _layer_patches()]
    rows.append(("untraced", wall - sum(s for _, s, _ in rows), 0))
    layers = {f"{name}_s": metric(seconds / steps, "s")
              for name, seconds, _ in rows if name != "untraced"}
    layers["train.batches"] = metric(steps, "count")
    layers["train.graphs"] = metric(graphs, "count")
    return {"metrics": layers, "rows": rows, "wall_s": wall,
            "ops": steps, "op": "training step"}
