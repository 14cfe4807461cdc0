"""Per-layer metrics of one traced search, and the checks that tie them out.

Per-call times (``.us``) are means over the calls made inside the
training loop; totals (``.s``) cover the whole search. Every metric is
described in perfbench/README.md.
"""

from __future__ import annotations

import statistics


def _us(st) -> float:
    return st.total_ns / st.calls / 1e3 if st.calls else 0.0


def _s(st) -> float:
    return st.total_ns / 1e9


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def layer_metrics(tracer, config, traced, plain_seconds: float):
    """(metrics {name: (value, unit)}, tie-out problems) of a traced search."""
    t = tracer
    loop = lambda name: t.get(name, in_loop=True)  # noqa: E731
    iteration = loop("trainer.iteration")
    sample = loop("controller.sample")
    scoring = loop("controller.teacher_forced")
    backward = loop("controller.policy_backward")
    adam, clip, polyak = loop("optim.adam"), loop("optim.clip"), loop("optim.polyak")
    evals = loop("evaluators.eval")
    adagrad = loop("optim.adagrad")
    steps_in_loop = sum(
        st.calls for (name, in_loop), st in t.stats.items()
        if in_loop and name.startswith("kernel.lstm_step.")
    )
    post = t.get("harness.post")
    smoothing = t.get("smoothing")
    points = t.counters.get("smoothing.points", 0)
    n_iter = iteration.calls
    loop_ns = iteration.total_ns
    checkpoint_path = traced.out_dir / f"seed_{config.seeds[0]}" / "checkpoint.bin"
    batch = config.trainer.batch_size

    m = {
        "kernel.lstm_step.b1.us": (_us(loop("kernel.lstm_step.b1")), "us"),
        "kernel.lstm_step.b20.us": (_us(loop(f"kernel.lstm_step.b{batch}")), "us"),
        "kernel.lstm_backward.b20.us": (_us(loop(f"kernel.lstm_backward.b{batch}")), "us"),
        "kernel.lstm_step.calls": (steps_in_loop, "count"),
        "kernel.sigmoid.s": (_s(t.get("kernel.sigmoid")), "s"),
        "kernel.softmax.s": (_s(t.get("kernel.softmax")), "s"),
        "controller.sample.us": (_us(sample), "us"),
        "controller.sample.calls": (sample.calls, "count"),
        "controller.teacher_forced.us": (_us(scoring), "us"),
        "controller.policy_backward.self_us": (
            backward.self_ns / backward.calls / 1e3 if backward.calls else 0.0, "us"),
        "controller.exact_marginals.s": (_s(t.get("controller.exact_marginals")), "s"),
        "parameters.with_flat.calls": (loop("parameters.with_flat").calls, "count"),
        "parameters.layout_builds_per_iter": (
            loop("parameters.layout_build").calls / n_iter, "count/iter"),
        "optim.adam.us": (_us(adam), "us"),
        "optim.clip.us": (_us(clip), "us"),
        "optim.polyak.calls": (polyak.calls, "count"),
        "optim.adagrad.calls": (adagrad.calls, "count"),
        "optim.adagrad.eval_frac": (adagrad.total_ns / evals.total_ns, "ratio"),
        "trainer.iteration.self_us": (iteration.self_ns / n_iter / 1e3, "us"),
        "trainer.replay.push.calls": (loop("trainer.replay.push").calls, "count"),
        "trainer.replay.sample.calls": (loop("trainer.replay.sample").calls, "count"),
        "trainer.replay.sample.us": (_us(loop("trainer.replay.sample")), "us"),
        "trainer.ppo.us": (_us(loop("trainer.ppo")), "us"),
        "trainer.ppo.active_frac": (
            t.counters.get("trainer.ppo.active", 0) / max(t.counters.get("trainer.ppo.rows", 0), 1),
            "ratio"),
        "trainer.baseline.update.us": (_us(loop("trainer.baseline.update")), "us"),
        "evaluators.calls": (evals.calls, "count"),
        "evaluators.failed": (evals.errors, "count"),
        "evaluators.skip_frac": (evals.errors / evals.calls, "ratio"),
        "evaluators.eval.us": (_us(evals), "us"),
        "evaluators.eval.p90_us": (p90(evals.durations_ns) / 1e3, "us"),
        "space.decode.us": (_us(loop("space.decode")), "us"),
        "space.rank.calls": (loop("space.rank").calls, "count"),
        "space.rank.eval_frac": (loop("space.rank").total_ns / evals.total_ns, "ratio"),
        "smoothing.s": (_s(smoothing), "s"),
        "smoothing.points": (points, "count"),
        "smoothing.points_per_s": (points / _s(smoothing), "1/s"),
        "checkpoint.save.s": (_s(t.get("checkpoint.save")), "s"),
        "checkpoint.bytes": (checkpoint_path.stat().st_size, "bytes"),
        "harness.post.s": (post.total_ns / 1e9, "s"),
        "harness.post.self_s": (post.self_ns / 1e9, "s"),
        "harness.events_written": (traced.rows, "count"),
        "config.load.s": (_s(t.get("config.load")), "s"),
        "config.build_evaluators.s": (_s(t.get("config.build_evaluators")), "s"),
        "load.critic_frac": (
            (scoring.total_ns + backward.total_ns + adam.total_ns + clip.total_ns
             + polyak.total_ns) / loop_ns, "ratio"),
        "load.sample_frac": (sample.total_ns / loop_ns, "ratio"),
        "load.eval_frac": (evals.total_ns / loop_ns, "ratio"),
        "trace.overhead_frac": (traced.seconds / plain_seconds - 1.0, "ratio"),
        "trace.spans": (t.n_spans, "count"),
    }

    problems = []
    critic_steps = adam.calls
    if sample.calls != evals.calls or evals.calls != traced.rows + evals.errors:
        problems.append(f"{sample.calls} samples, {evals.calls} evaluations, "
                        f"{traced.rows} events and {evals.errors} skips do not tie out")
    if scoring.calls != critic_steps:
        problems.append(f"{scoring.calls} scoring passes for {critic_steps} critic steps")
    if polyak.calls != critic_steps // config.trainer.steps_per_sync:
        problems.append(f"{polyak.calls} Polyak blends for {critic_steps} critic steps")
    if steps_in_loop != config.space.n_params * (sample.calls + scoring.calls):
        problems.append(f"{steps_in_loop} LSTM steps in the loop, expected "
                        f"{config.space.n_params} x ({sample.calls} + {scoring.calls})")
    return m, problems
