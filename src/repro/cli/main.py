"""Argument parsing and subcommand implementations of the QuadraLib CLI.

The CLI is a thin shell over :mod:`repro.experiment`: ``repro run`` executes a
declarative JSON spec (or a bundled preset) through the
:class:`~repro.experiment.Experiment` facade, and ``repro list`` prints the
component registries a spec may reference.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from ..backends import backend_description, backend_names
from ..experiment import (
    ARCHITECTURES,
    CALLBACKS,
    DATASETS,
    MODELS,
    OPTIMIZERS,
    TRAINERS,
    DataSpec,
    Experiment,
    ExperimentSpec,
    ModelSpec,
    ProfileSpec,
    get_preset,
    neuron_names,
    preset_names,
)
from ..quadratic.neuron_types import NEURON_TYPES
from ..utils.logging import format_table

#: Model families the CLI can build — the model registry's keys.
MODEL_CHOICES = tuple(MODELS.names())

#: Compute backends of the compiled inference path — the backend registry's
#: keys, so ``--backend`` help text and errors can never drift from the code.
BACKEND_CHOICES = tuple(backend_names())

#: Models ``repro profile`` can build (``mlp`` takes vectors, not images).
IMAGE_MODEL_CHOICES = tuple(name for name in MODEL_CHOICES if name != "mlp")


class CLIError(Exception):
    """A user-facing CLI error (bad spec, unknown component) — no traceback."""


def _print(text: str, stream=None) -> None:
    print(text, file=stream or sys.stdout)


def _experiment(spec: ExperimentSpec, **kwargs) -> Experiment:
    """Wrap spec validation errors as :class:`CLIError` (internal errors pass)."""
    try:
        return Experiment(spec, **kwargs)
    except ValueError as error:
        raise CLIError(str(error)) from None


# --------------------------------------------------------------------------- #
# Spec-driven entry points: run / train --resume / list
# --------------------------------------------------------------------------- #

def _print_run_summary(summary: dict) -> None:
    """Render the per-step results of an Experiment.run() as tables."""
    results = summary["results"]
    spec = summary["spec"]
    if "build" in results:
        build = results["build"]
        rows = [["model", build["model"]], ["neuron type", build["neuron_type"]],
                ["auto-build", "yes" if build["auto_build"] else "no"],
                ["parameters", f"{build['parameters']:,}"]]
        _print(format_table(["Metric", "Value"], rows,
                            title=f"Experiment '{spec['name']}': build"))
    if "fit" in results:
        fit = results["fit"]
        history = fit.get("history", {})
        rows = [[epoch + 1, round(loss, 4), round(train_acc, 3),
                 round(test_acc, 3) if test_acc is not None else "-"]
                for epoch, (loss, train_acc, test_acc)
                in enumerate(zip(history.get("train_loss", []),
                                 history.get("train_accuracy", []),
                                 history.get("test_accuracy", [])
                                 or [None] * len(history.get("train_loss", []))))]
        _print(format_table(["Epoch", "Train loss", "Train acc", "Test acc"], rows,
                            title=f"fit ({fit['seconds']:.1f}s)"))
    if "evaluate" in results:
        _print(format_table(["Metric", "Value"],
                            [["test accuracy", round(results["evaluate"]["test_accuracy"], 3)]],
                            title="evaluate"))
    if "profile" in results:
        profile = results["profile"]
        rows = [["parameters", f"{profile['parameters']:,}"],
                ["MACs (one sample)", f"{profile['macs']:,}"],
                [f"training memory @ batch {profile['memory_batch_size']}",
                 f"{profile['training_memory_bytes'] / 1024 ** 3:.2f} GiB"]]
        if "train_ms_per_batch" in profile:
            rows.append(["train latency / batch", f"{profile['train_ms_per_batch']:.1f} ms"])
            rows.append(["inference latency / batch",
                         f"{profile['inference_ms_per_batch']:.1f} ms"])
        _print(format_table(["Metric", "Value"], rows, title="profile"))
    if "ppml" in results:
        ppml = results["ppml"]
        rows = [["strategy", ppml["strategy"]], ["protocol", ppml["protocol"]],
                ["activations replaced", ppml["activations_replaced"]],
                ["layers quadratized", ppml["layers_quadratized"]],
                ["online latency before",
                 "not runnable" if ppml["online_latency_ms_before"] is None
                 else f"{ppml['online_latency_ms_before']:.1f} ms"],
                ["online latency after", f"{ppml['online_latency_ms_after']:.1f} ms"],
                ["online comm before",
                 "not runnable" if ppml["online_comm_mb_before"] is None
                 else f"{ppml['online_comm_mb_before']:.1f} MB"],
                ["online comm after", f"{ppml['online_comm_mb_after']:.1f} MB"]]
        _print(format_table(["Metric", "Value"], rows, title="ppml"))
    if "search" in results:
        search = results["search"]
        rows = [[entry["key"], f"{entry['parameters']:,}", round(entry["accuracy"], 3)]
                for entry in search["top"]]
        _print(format_table(["Candidate", "#Param", "Proxy acc"], rows,
                            title=f"{search['strategy']} search over "
                                  f"{search['cardinality']:,} structures "
                                  f"({search['evaluations_used']} evaluations)"))


def _load_spec(reference: str) -> ExperimentSpec:
    """Resolve a spec argument: a JSON file path or a bundled preset name."""
    if os.path.exists(reference):
        try:
            return ExperimentSpec.load(reference)
        # ValueError covers json.JSONDecodeError and spec validation;
        # TypeError/KeyError cover structurally wrong JSON (e.g. a list where
        # a section object belongs).  All are the user's file, not a bug, so
        # none deserve a traceback.
        except (ValueError, TypeError, KeyError) as error:
            raise CLIError(f"could not parse spec file '{reference}': {error}") from None
    try:
        return get_preset(reference)
    except ValueError:
        raise CLIError(
            f"'{reference}' is neither a spec file nor a bundled preset; "
            f"presets: {', '.join(preset_names())}") from None


def _checkpoint_payload(path: str) -> dict:
    """Load a training checkpoint for the CLI (readable errors, no traceback)."""
    from ..utils.serialization import load_training_checkpoint

    if not os.path.exists(path):
        raise CLIError(f"checkpoint '{path}' does not exist")
    try:
        return load_training_checkpoint(path)
    except (ValueError, OSError, KeyError) as error:
        raise CLIError(f"could not load checkpoint '{path}': {error}") from None


def _spec_from_checkpoint(payload: dict, path: str) -> ExperimentSpec:
    """The experiment spec a checkpoint embeds (written by Experiment.fit)."""
    spec_dict = payload.get("spec")
    if not spec_dict:
        raise CLIError(
            f"checkpoint '{path}' embeds no experiment spec (it was written by a "
            f"direct engine run); resume it through repro.engine.Trainer instead")
    try:
        return ExperimentSpec.from_dict(spec_dict)
    except (ValueError, TypeError, KeyError) as error:
        raise CLIError(f"checkpoint '{path}' embeds an unreadable spec: {error}") from None


def cmd_run(args: argparse.Namespace) -> int:
    """Execute a JSON experiment spec (or bundled preset) end to end."""
    spec = _load_spec(args.spec)
    if args.steps:
        spec = spec.with_(steps=[step.strip() for step in args.steps.split(",")])
    train_overrides = {}
    if args.checkpoint_dir is not None:
        train_overrides["checkpoint_dir"] = args.checkpoint_dir
    if args.checkpoint_every is not None:
        train_overrides["checkpoint_every"] = args.checkpoint_every
    if args.stop_after_epoch is not None:
        train_overrides["stop_after_epoch"] = args.stop_after_epoch
    if args.prefetch:
        train_overrides["prefetch"] = True
    if train_overrides:
        spec = spec.with_(train=spec.train.with_(**train_overrides))
    experiment = _experiment(spec)
    summary = experiment.run()
    if args.json:
        import json

        _print(json.dumps(summary, indent=2, default=float))
    else:
        _print_run_summary(summary)
    if args.out:
        experiment.save_results(args.out)
        _print(f"\nresults written to {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    """Resume an interrupted training run from its checkpoint.

    The run is rebuilt entirely from the spec embedded in the checkpoint
    file — model, data, recipe and RNG streams all restore, so the completed
    training is bit-identical to one that was never interrupted.
    """
    payload = _checkpoint_payload(args.resume)
    spec = _spec_from_checkpoint(payload, args.resume)
    # Clear any stop request the interrupted run carried; keep its
    # checkpoint_dir so the resumed run goes on writing checkpoints.
    spec = spec.with_(train=spec.train.with_(resume_from=args.resume,
                                             stop_after_epoch=None))
    history = _experiment(spec).fit()
    test_accuracy = history.test_accuracy or [None] * len(history.train_loss)
    rows = [[epoch + 1, round(loss, 4), round(train_acc, 3),
             round(test_acc, 3) if test_acc is not None else "-"]
            for epoch, (loss, train_acc, test_acc)
            in enumerate(zip(history.train_loss, history.train_accuracy, test_accuracy))]
    _print(format_table(["Epoch", "Train loss", "Train acc", "Test acc"], rows,
                        title=f"Resumed '{spec.name}' from epoch {payload.get('epoch')} "
                              f"of {spec.train.epochs}"))
    return 0


def _list_simple(title_singular: str, names, title: str):
    def printer(args: argparse.Namespace) -> int:
        _print(format_table([title_singular], [[name] for name in names()], title=title))
        return 0
    return printer


def _list_callbacks(args: argparse.Namespace) -> int:
    rows = [[name, next(iter((cls.__doc__ or "").strip().splitlines()), "")]
            for name, cls in CALLBACKS.items()]
    _print(format_table(["Callback", "Purpose"], rows,
                        title="Registered training-engine callbacks"))
    return 0


def _list_architectures(args: argparse.Namespace) -> int:
    rows = [[name, entry["family"], str(entry["cfg"])]
            for name, entry in ARCHITECTURES.items()]
    _print(format_table(["Architecture", "Family", "Configuration"], rows,
                        title="Registered structure configurations"))
    return 0


def _list_protocols(args: argparse.Namespace) -> int:
    from ..ppml import PROTOCOLS

    rows = []
    for proto in PROTOCOLS.values():
        costs = proto.costs
        rows.append([
            proto.name,
            "yes" if proto.supports_relu else "no",
            f"{costs.relu_us:g} us / {costs.relu_bytes:g} B",
            f"{costs.mult_us:g} us / {costs.mult_bytes:g} B",
            f"{proto.round_trip_us:g} us",
            proto.reference,
        ])
    _print(format_table(
        ["Protocol", "ReLU?", "ReLU cost", "Secure mult cost", "RTT", "Reference"],
        rows, title="Registered PPML protocols"))
    return 0


def _list_backends(args: argparse.Namespace) -> int:
    from ..inference.optimizer import OPT_LEVELS

    rows = [[name, backend_description(name)] for name in backend_names()]
    _print(format_table(["Backend", "Description"], rows,
                        title="Registered compute backends (compiled inference)"))
    _print(f"\ngraph-optimizer levels: {', '.join(OPT_LEVELS)} "
           f"(compile_model(optimize=...), default 'default')")
    return 0


#: ``repro list`` families, generated from the registries themselves so the
#: help text, the error message and the dispatch can never drift apart.
_LIST_FAMILIES = {
    "models": _list_simple("Model", MODELS.names, "Registered models"),
    "neurons": lambda args: cmd_neurons(args),
    "datasets": _list_simple("Dataset", DATASETS.names, "Registered datasets"),
    "trainers": _list_simple("Trainer", TRAINERS.names, "Registered trainers"),
    "optimizers": _list_simple("Optimizer", OPTIMIZERS.names, "Registered optimizers"),
    "callbacks": _list_callbacks,
    "architectures": _list_architectures,
    "protocols": _list_protocols,
    "backends": _list_backends,
    "presets": _list_simple("Preset", preset_names, "Bundled experiment presets"),
}

#: Component families ``repro list`` can print (derived, not hand-maintained).
LIST_CHOICES = tuple(_LIST_FAMILIES)


def cmd_list(args: argparse.Namespace) -> int:
    """Print one component registry as a table."""
    printer = _LIST_FAMILIES.get(args.what)
    if printer is None:
        raise CLIError(
            f"unknown component family '{args.what}'; valid families: "
            f"{', '.join(LIST_CHOICES)}")
    return printer(args)


def cmd_infer(args: argparse.Namespace) -> int:
    """Serve a spec's model through the compiled micro-batching inference path."""
    import numpy as np

    from ..inference import measure_serving

    spec = _load_spec(args.spec)
    experiment = _experiment(spec)
    model = experiment.build()
    model.eval()

    rng = np.random.default_rng(spec.seed)
    input_shape = spec.data.input_shape
    samples = rng.standard_normal((args.samples,) + tuple(input_shape)).astype(np.float32)

    try:
        compiled = experiment.compile_inference(backend=args.backend,
                                                optimize=args.optimize)
    except ValueError as error:
        raise CLIError(str(error)) from None
    results = {
        "model": spec.model.name,
        "neuron_type": spec.model.effective_neuron_type,
        "backend": compiled.backend.name,
        "optimization": compiled.optimization.to_dict(),
        **measure_serving(model, compiled, samples,
                          max_batch_size=args.max_batch_size,
                          max_wait=args.max_wait, repeats=args.repeats),
    }
    experiment.results["infer"] = results
    if args.json:
        import json

        _print(json.dumps(results, indent=2, default=float))
    else:
        rows = [
            ["model", f"{results['model']} ({results['neuron_type']})"],
            ["compiled steps", results["compiled_steps"]],
            ["backend", results["backend"]],
            ["optimizer rewrites", sum(v for k, v in results["optimization"].items()
                                       if k != "level")],
            ["fallback modules", results["fallback_modules"]],
            ["max |compiled - eager|", f"{results['max_abs_diff']:.2e}"],
            ["eager latency / sample", f"{results['eager_ms_per_sample']:.2f} ms"],
            ["compiled latency / sample", f"{results['compiled_ms_per_sample']:.2f} ms"],
            ["speedup", f"{results['speedup']:.2f}x"],
            ["batched throughput", f"{results['throughput_samples_per_s']:,.0f} samples/s"],
            ["micro-batches", f"{results['batches']} "
                              f"(mean size {results['mean_batch_size']:.1f})"],
        ]
        _print(format_table(["Metric", "Value"], rows,
                            title=f"Compiled inference: {args.samples} samples, "
                                  f"max batch {args.max_batch_size}"))
    if args.out:
        experiment.save_results(args.out)
        _print(f"\nresults written to {args.out}")
    return 0


def cmd_secure_infer(args: argparse.Namespace) -> int:
    """Run a spec's model under the fixed-point secure-inference runtime.

    Builds the model, converts it with the requested PPML strategy, executes
    ``--samples`` single-sample queries under hybrid-protocol semantics
    (fixed-point arithmetic with truncation after every secure
    multiplication), and reports the executed protocol trace: measured MACs /
    Beaver-triple multiplications / garbled-circuit comparisons, whether they
    match the static ``ppml.analyse_model`` counts exactly, the estimated
    online latency/communication, and the fixed-point vs float drift.
    Exits 1 when the measured trace disagrees with the static analysis.
    """
    import json

    import numpy as np

    from .. import ppml
    from ..inference import compile_model

    if args.samples < 1:
        raise CLIError(f"--samples needs at least 1 query, got {args.samples}")
    spec = _load_spec(args.spec)
    experiment = _experiment(spec)
    model = experiment.build()
    model.eval()

    strategy = args.strategy if args.strategy is not None else spec.ppml.strategy
    protocol = args.protocol if args.protocol is not None else spec.ppml.protocol
    target = model
    conversion = None
    if strategy != "none":
        try:
            target, conversion = ppml.to_ppml_friendly(model, strategy=strategy,
                                                       inplace=False)
        except ValueError as error:
            raise CLIError(str(error)) from None
    try:
        secure = ppml.secure_compile(target, ppml.SecureConfig(
            protocol=protocol, frac_bits=args.frac_bits,
            truncation=args.truncation, seed=spec.seed))
    except (ppml.SecureExecutionError, ValueError, KeyError) as error:
        raise CLIError(str(error)) from None

    input_shape = tuple(spec.data.input_shape)
    static = ppml.analyse_model(target, input_shape, protocol=secure.protocol)
    reference = compile_model(target)
    rng = np.random.default_rng(spec.seed)
    samples = rng.standard_normal((args.samples,) + input_shape).astype(np.float32)

    max_drift = 0.0
    agreement = 0
    trace = None
    for sample in samples:
        batch = sample[None, ...]
        secure_out, trace_i = secure.run(batch)      # one client query at a time
        trace = trace if trace is not None else trace_i
        float_out = reference(batch)
        max_drift = max(max_drift, float(np.max(np.abs(secure_out - float_out))))
        agreement += int(np.argmax(secure_out) == np.argmax(float_out))
    estimate = trace.estimate()
    matches = trace.matches_report(static)

    results = {
        "model": spec.model.name,
        "neuron_type": spec.model.effective_neuron_type,
        "strategy": strategy,
        "protocol": secure.protocol.name,
        "frac_bits": args.frac_bits,
        "truncation": args.truncation,
        "samples": args.samples,
        "activations_replaced": conversion.activations_replaced if conversion else 0,
        "layers_quadratized": conversion.layers_quadratized if conversion else 0,
        "trace": trace.to_dict(),
        "matches_static": matches,
        "garbled_free": trace.garbled_free,
        "online_latency_ms": estimate.online_milliseconds,
        "online_comm_mb": estimate.online_megabytes,
        "runnable": estimate.runnable,
        "max_abs_drift": max_drift,
        "top1_agreement": agreement / max(args.samples, 1),
    }
    experiment.results["secure_infer"] = results
    if args.json:
        _print(json.dumps(results, indent=2, default=float))
    else:
        if args.per_layer:
            _print(ppml.format_trace(trace, per_layer=True))
            _print("")
        totals = trace.totals()
        rows = [
            ["model", f"{spec.model.name} ({spec.model.effective_neuron_type})"],
            ["conversion strategy", strategy],
            ["protocol", secure.protocol.name],
            ["fixed point", f"{args.frac_bits} fractional bits, {args.truncation} truncation"],
            ["measured MACs", f"{totals['macs']:,}"],
            ["measured secure mults", f"{totals['mult_ops']:,}"],
            ["measured GC comparisons", f"{totals['relu_ops']:,}"],
            ["garbled-circuit free", "yes" if trace.garbled_free else "no"],
            ["matches static analysis", "yes" if matches else "NO"],
            ["online latency (est.)",
             "not runnable" if not estimate.runnable
             else f"{estimate.online_milliseconds:.2f} ms "
                  f"({totals['rounds']} rounds)"],
            ["online communication",
             "not runnable" if not estimate.runnable
             else f"{estimate.online_megabytes:.2f} MB"],
            ["max |fixed - float|", f"{max_drift:.2e}"],
            ["top-1 agreement", f"{agreement}/{args.samples}"],
        ]
        _print(format_table(["Metric", "Value"], rows,
                            title=f"Secure inference: {args.samples} queries under "
                                  f"{secure.protocol.name}"))
        if not matches:
            diff = trace.count_diff([layer.operations for layer in static.layers])
            _print(f"\nmeasured/static disagreement: {diff}", stream=sys.stderr)
    if args.out:
        experiment.save_results(args.out)
        _print(f"\nresults written to {args.out}")
    return 0 if matches else 1


def _serve_config(args: argparse.Namespace):
    """Build a ServeConfig from the serve subcommand's flags."""
    from ..serve import ServeConfig

    if not args.secure:
        # The shared secure flag family only means something under --secure;
        # silently ignoring it would serve floats the caller thought were
        # fixed-point.
        touched = [flag for flag, untouched in (
            ("--protocol", args.protocol is None),
            ("--frac-bits", args.frac_bits == 12),
            ("--truncation", args.truncation == "nearest"),
            ("--strategy", args.strategy is None),
            ("--triple-pool-depth", args.triple_pool_depth == 0),
        ) if not untouched]
        if touched:
            raise CLIError(f"{', '.join(touched)} require(s) --secure")
    try:
        return ServeConfig(workers=args.workers, host=args.host, port=args.port,
                           max_batch_size=args.max_batch_size,
                           queue_depth=args.queue_depth, watermark=args.watermark,
                           cache_size=args.cache_size, backend=args.backend,
                           latency_budget_ms=args.latency_budget_ms,
                           secure=args.secure,
                           protocol=args.protocol or "",
                           frac_bits=args.frac_bits,
                           truncation=args.truncation,
                           strategy=args.strategy or "",
                           triple_pool_depth=args.triple_pool_depth,
                           pipeline_depth=args.pipeline_depth)
    except ValueError as error:
        raise CLIError(str(error)) from None


def _serve_self_test(experiment: Experiment, server, num_requests: int,
                     as_json: bool) -> int:
    """POST synthetic samples at our own front door; verify against the
    in-process predictor bit for bit.  Returns the process exit code.

    On a secure server the reference is ``Experiment.secure_predictor()``
    with the same protocol / frac_bits / truncation / strategy: nearest
    truncation is deterministic, so the served fixed-point answers must
    match it bit for bit too.
    """
    import json
    import time
    import urllib.error
    import urllib.request

    import numpy as np

    spec = experiment.spec
    config = server.config
    rng = np.random.default_rng(spec.seed)
    samples = rng.standard_normal(
        (num_requests,) + tuple(spec.data.input_shape)).astype(np.float32)
    if config.secure:
        strategy = config.strategy or spec.ppml.strategy
        with experiment.secure_predictor(
                frac_bits=config.frac_bits, truncation=config.truncation,
                protocol=config.protocol or None,
                strategy=None if strategy == "none" else strategy,
                convert=strategy != "none") as predictor:
            expected = [predictor.predict(sample) for sample in samples]
    else:
        # max_batch_size=1 so both sides run strict batch-of-1 forwards — the
        # sequential HTTP requests below are batch-of-1 in the workers too.
        with experiment.predictor(max_batch_size=1) as predictor:
            expected = [predictor.predict(sample) for sample in samples]

    def post(sample: "np.ndarray") -> dict:
        body = json.dumps({"input": sample.tolist()}).encode()
        request = urllib.request.Request(
            f"{server.url}/predict", data=body,
            headers={"Content-Type": "application/json"}, method="POST")
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as error:
            raise CLIError(
                f"self-test POST /predict failed with HTTP {error.code}: "
                f"{error.read().decode(errors='replace')[:200]}") from None
        except urllib.error.URLError as error:
            raise CLIError(f"self-test could not reach {server.url}: "
                           f"{error.reason}") from None

    outputs = []
    start = time.perf_counter()
    for sample in samples:
        outputs.append(np.asarray(post(sample)["output"], dtype=np.float32))
    elapsed = time.perf_counter() - start
    # A repeat of the *most recent* sample must come from the LRU cache —
    # the first one may legitimately have been evicted when N > cache size.
    # Skipped entirely when the operator disabled the cache (--cache-size 0).
    cache_hit = None
    if server.config.cache_size > 0:
        repeat = post(samples[-1])
        cache_hit = bool(repeat["cached"]) and np.array_equal(
            np.asarray(repeat["output"], dtype=np.float32), outputs[-1])

    identical = all(np.array_equal(out, exp) for out, exp in zip(outputs, expected))
    results = {
        "requests": num_requests,
        "bit_identical": identical,
        "cache_hit_identical": cache_hit,
        "seconds": elapsed,
        "throughput_rps": num_requests / elapsed if elapsed > 0 else float("inf"),
        "workers_alive": server.pool.alive_workers(),
    }
    if as_json:
        _print(json.dumps(results, indent=2, default=float))
    else:
        reference = ("Experiment.secure_predictor()" if config.secure
                     else "Experiment.predictor()")
        rows = [["requests answered", num_requests],
                [f"bit-identical to {reference}", "yes" if identical else "NO"],
                ["cache hit bit-identical",
                 "skipped (cache disabled)" if cache_hit is None
                 else ("yes" if cache_hit else "NO")],
                ["throughput", f"{results['throughput_rps']:.1f} req/s"],
                ["workers alive", results["workers_alive"]]]
        _print(format_table(["Check", "Result"], rows,
                            title=f"Serve self-test against {server.url}"))
    return 0 if identical and cache_hit is not False else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a spec's model over HTTP from a pool of worker processes.

    ``--from-checkpoint`` serves *trained* weights: the spec is read from the
    checkpoint file and the model's parameters are restored from it before
    the worker pool ships them out.
    """
    if (args.spec is None) == (args.from_checkpoint is None):
        raise CLIError("pass either a spec (file or preset) or --from-checkpoint, "
                       "not both and not neither")
    config = _serve_config(args)          # flag validation before the build
    if args.self_test is not None and args.self_test < 1:
        raise CLIError(f"--self-test needs at least 1 request, got {args.self_test}")
    origin = ""
    if args.from_checkpoint is not None:
        payload = _checkpoint_payload(args.from_checkpoint)
        if payload.get("task") != "classification":
            raise CLIError(
                f"--from-checkpoint needs a classification checkpoint, got task "
                f"'{payload.get('task')}'")
        spec = _spec_from_checkpoint(payload, args.from_checkpoint)
        experiment = _experiment(spec)
        model = experiment.build()
        try:
            model.load_state_dict(payload["adapter"]["model"])
        except (KeyError, ValueError) as error:
            raise CLIError(f"checkpoint weights do not fit the embedded spec's "
                           f"model: {error}") from None
        origin = f" (checkpoint epoch {payload.get('epoch')})"
    else:
        spec = _load_spec(args.spec)
        experiment = _experiment(spec)
        experiment.build()
    server = experiment.serve(config=config)
    with server:
        mode = ""
        if config.secure:
            mode = (f" [secure: {config.protocol or spec.ppml.protocol}, "
                    f"{config.frac_bits} frac bits, {config.truncation}]")
        _print(f"serving '{spec.name}'{origin} on {server.url} with {config.workers} "
               f"worker(s){mode} — POST /predict, GET /healthz, GET /stats")
        if args.self_test is not None:
            return _serve_self_test(experiment, server, args.self_test, args.json)
        _print("press Ctrl+C to drain and stop")
        import time

        try:
            while True:
                time.sleep(1)
        except KeyboardInterrupt:
            _print("draining ...")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    """Predict serving capacity for a spec's model — no load test required.

    Combines the model's exact per-layer work counts, this host's measured
    kernel rates and an M/M/c model of the worker pool into predicted
    throughput, p50/p99 latency at the offered ``--qps`` and the worker
    count the rate requires (see :mod:`repro.capacity` / docs/capacity.md).
    With ``--secure`` one traced fixed-point forward adds the protocol round
    structure and the offline triple-pool refill requirements.
    """
    import json

    from ..serve import ServeConfig

    if args.qps <= 0:
        raise CLIError(f"--qps must be > 0, got {args.qps}")
    if not args.secure:
        # Same contract as `repro serve`: the shared secure flag family only
        # means something under --secure.
        touched = [flag for flag, untouched in (
            ("--protocol", args.protocol is None),
            ("--frac-bits", args.frac_bits == 12),
            ("--truncation", args.truncation == "nearest"),
            ("--strategy", args.strategy is None),
            ("--triple-pool-depth", args.triple_pool_depth == 0),
        ) if not untouched]
        if touched:
            raise CLIError(f"{', '.join(touched)} require(s) --secure")
    input_shape = None
    if args.input_shape:
        try:
            input_shape = tuple(int(dim) for dim in args.input_shape.split(","))
        except ValueError:
            raise CLIError(f"--input-shape must be comma-separated integers "
                           f"(e.g. '3,32,32' or '16'), got '{args.input_shape}'") from None
    spec = _load_spec(args.spec)
    experiment = _experiment(spec)
    try:
        config = ServeConfig(workers=args.workers,
                             max_batch_size=args.max_batch_size,
                             max_wait=args.max_wait, backend=args.backend,
                             secure=args.secure, protocol=args.protocol or "",
                             frac_bits=args.frac_bits, truncation=args.truncation,
                             strategy=args.strategy or "",
                             triple_pool_depth=args.triple_pool_depth)
        plan = experiment.plan(args.qps, input_shape=input_shape, config=config)
    except ValueError as error:
        raise CLIError(str(error)) from None
    results = experiment.results["plan"]
    if args.json:
        _print(json.dumps(results, indent=2, default=float))
    else:
        def _ms(value):
            return "over capacity" if value is None or value == float("inf") \
                else f"{value:.2f} ms"

        rows = [
            ["model", f"{results['model']} ({spec.model.effective_neuron_type})"],
            ["backend", results["backend"]],
            ["workers", plan.workers],
            ["offered load", f"{plan.qps:g} req/s"],
            ["expected batch", f"{plan.expected_batch:.2f} "
                               f"(cap {plan.max_batch_size})"],
            ["service time", f"{plan.service_ms:.3f} ms (compute "
                             f"{plan.compute_ms:.3f} + copy {plan.copy_ms:.3f} + "
                             f"dispatch {plan.dispatch_ms:.3f} + ipc "
                             f"{plan.ipc_ms:.3f})"],
            ["utilization", "over capacity" if not plan.stable
                            else f"{plan.utilization:.1%}"],
            ["predicted throughput", f"{plan.throughput_rps:,.1f} req/s "
                                     f"(ceiling {plan.max_throughput_rps:,.1f})"],
            ["predicted p50", _ms(plan.p50_ms if plan.stable else None)],
            ["predicted p99", _ms(plan.p99_ms if plan.stable else None)],
            ["required workers", f"{plan.required_workers} "
                                 f"(for {plan.qps:g} req/s)"],
        ]
        if plan.secure is not None:
            secure = plan.secure
            rows.extend([
                ["secure online time", f"{secure.work.online_ms:.3f} ms "
                                       f"({secure.work.rounds} rounds)"],
                ["offline refill needed", f"{secure.required_refill_rps:g} quanta/s "
                                          f"({secure.triples_per_s:,.0f} triples/s, "
                                          f"{secure.labels_per_s:,.0f} labels/s)"],
                ["pool depth", f"{secure.pool_depth} quanta "
                               f"(absorbs {secure.burst_absorbed_s:.2f} s burst)"],
            ])
        _print(format_table(["Metric", "Value"], rows,
                            title=f"Capacity plan at {plan.qps:g} req/s"))
    if args.out:
        experiment.save_results(args.out)
        _print(f"\nresults written to {args.out}")
    return 0


# --------------------------------------------------------------------------- #
# Informational subcommands
# --------------------------------------------------------------------------- #

def cmd_neurons(args: argparse.Namespace) -> int:
    """List the registered quadratic neuron designs (the paper's Table 1)."""
    rows = []
    for spec in NEURON_TYPES.values():
        rows.append([spec.name, spec.formula, spec.time_complexity, spec.space_complexity,
                     ", ".join(spec.issues) if spec.issues else "-", spec.reference])
    _print(format_table(
        ["Type", "Neuron format", "Time", "Space", "Issues", "Reference"], rows,
        title="Registered quadratic neuron designs (paper Table 1)",
    ))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Parameters, MACs, training memory and latency of one model."""
    # LeNet and SmallConvNet size their classifier head from the input
    # resolution; the zoo backbones are resolution-agnostic.
    extra = ({"image_size": args.image_size}
             if args.model in ("lenet", "small_convnet") else {})
    spec = ExperimentSpec(
        seed=args.seed,
        model=ModelSpec(name=args.model, neuron_type=args.neuron_type,
                        num_classes=args.num_classes,
                        width_multiplier=args.width_multiplier, extra=extra),
        data=DataSpec(num_classes=args.num_classes, image_size=args.image_size,
                      seed=args.seed),
        profile=ProfileSpec(batch_size=args.batch_size, latency=args.latency,
                            latency_repeats=args.latency_repeats,
                            per_layer=args.per_layer, compiled=args.compiled,
                            backend=args.backend),
    )
    experiment = _experiment(spec)
    profile = experiment.profile()
    rows = [
        ["parameters", f"{profile['parameters']:,}"],
        ["MACs (one sample)", f"{profile['macs']:,}"],
        ["training memory @ batch "
         f"{args.batch_size}", f"{profile['training_memory_bytes'] / 1024 ** 3:.2f} GiB"],
    ]
    if args.latency:
        rows.append(["train latency / batch", f"{profile['train_ms_per_batch']:.1f} ms"])
        rows.append(["inference latency / batch",
                     f"{profile['inference_ms_per_batch']:.1f} ms"])
        if "compiled_ms_per_batch" in profile:
            rows.append(["compiled latency / batch "
                         f"({profile['compiled_backend']})",
                         f"{profile['compiled_ms_per_batch']:.1f} ms"])
    _print(format_table(["Metric", "Value"], rows,
                        title=f"{args.model} (neuron type {args.neuron_type})"))
    if args.per_layer:
        layer_rows = [[layer["name"], layer["type"], f"{layer['parameters']:,}",
                       f"{layer['macs']:,}"] for layer in profile["layers"]]
        _print("")
        _print(format_table(["Layer", "Type", "#Param", "MACs"], layer_rows,
                            title="Per-layer profile"))
    return 0


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #

def build_parser() -> argparse.ArgumentParser:
    """The top-level ``python -m repro`` argument parser."""
    from .. import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="QuadraLib reproduction: quadratic neural network tooling",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run", help="execute a declarative experiment spec (JSON file or preset name)")
    run.add_argument("spec", help="path to a spec JSON file, or a bundled preset name")
    run.add_argument("--steps", default=None,
                     help="comma-separated pipeline steps overriding the spec "
                          "(build,fit,evaluate,profile,ppml,search)")
    run.add_argument("--out", default=None, help="write the results JSON to this path")
    run.add_argument("--json", action="store_true",
                     help="print the results as JSON instead of tables")
    run.add_argument("--checkpoint-dir", default=None,
                     help="write full training checkpoints (model + optimizer + "
                          "scheduler + RNG + history) to this directory")
    run.add_argument("--checkpoint-every", type=int, default=None, metavar="K",
                     help="checkpoint every K completed epochs (default 1)")
    run.add_argument("--stop-after-epoch", type=int, default=None, metavar="N",
                     help="stop the fit step cleanly after N total epochs "
                          "(simulates an interrupt; resume with 'repro train --resume')")
    run.add_argument("--prefetch", action="store_true",
                     help="overlap batch assembly with compute via the "
                          "prefetching data pipeline")
    run.set_defaults(func=cmd_run)

    lister = subparsers.add_parser("list", help="list registered components")
    lister.add_argument("what", metavar="family",
                        help=f"component family: {', '.join(LIST_CHOICES)}")
    lister.set_defaults(func=cmd_list)

    infer = subparsers.add_parser(
        "infer", help="compiled micro-batched inference on a spec's model")
    infer.add_argument("spec", help="path to a spec JSON file, or a bundled preset name")
    infer.add_argument("--samples", type=int, default=64,
                       help="synthetic samples to serve through the predictor")
    infer.add_argument("--max-batch-size", type=int, default=8,
                       help="micro-batch size cap of the BatchedPredictor")
    infer.add_argument("--max-wait", type=float, default=0.002,
                       help="seconds the predictor waits to fill a micro-batch")
    infer.add_argument("--repeats", type=int, default=5,
                       help="timing repetitions for the latency comparison")
    infer.add_argument("--backend", default=None,
                       help="compute backend for the compiled path: "
                            f"{', '.join(BACKEND_CHOICES)} (see 'repro list backends')")
    infer.add_argument("--optimize", default=None,
                       help="graph-optimizer level: none, default, full")
    infer.add_argument("--out", default=None, help="write the results JSON to this path")
    infer.add_argument("--json", action="store_true",
                       help="print the results as JSON instead of a table")
    infer.set_defaults(func=cmd_infer)

    # One flag family for every secure entry point: 'secure-infer' and
    # 'serve --secure' inherit these via parents=[], so the two commands can
    # never drift apart (tests/cli/test_secure_infer.py asserts this).
    secure_flags = argparse.ArgumentParser(add_help=False)
    secure_flags.add_argument("--protocol", default=None,
                              help="PPML protocol preset costing the trace (default: "
                                   "the spec's; see 'repro list protocols')")
    secure_flags.add_argument("--frac-bits", type=int, default=12,
                              help="fixed-point fractional bits of the secure execution")
    secure_flags.add_argument("--truncation", default="nearest",
                              choices=("nearest", "stochastic"),
                              help="rounding after each secure multiplication")
    secure_flags.add_argument("--strategy", default=None,
                              help="PPML conversion applied before compilation: square, "
                                   "quadratic, quadratic_no_relu, or 'none' to run the "
                                   "model as-is (default: the spec's)")

    secure = subparsers.add_parser(
        "secure-infer",
        parents=[secure_flags],
        help="execute a spec's model under fixed-point PPML protocol semantics "
             "and validate the measured protocol trace")
    secure.add_argument("spec", help="path to a spec JSON file, or a bundled preset name")
    secure.add_argument("--samples", type=int, default=4,
                        help="single-sample client queries to execute")
    secure.add_argument("--per-layer", action="store_true",
                        help="also print the executed trace step by step")
    secure.add_argument("--out", default=None, help="write the results JSON to this path")
    secure.add_argument("--json", action="store_true",
                        help="print the results as JSON instead of a table")
    secure.set_defaults(func=cmd_secure_infer)

    serve = subparsers.add_parser(
        "serve", parents=[secure_flags],
        help="serve a spec's model over HTTP from a pool of worker processes")
    serve.add_argument("spec", nargs="?", default=None,
                       help="path to a spec JSON file, or a bundled preset name "
                            "(omit when using --from-checkpoint)")
    serve.add_argument("--from-checkpoint", default=None, metavar="CKPT",
                       help="serve the trained weights of a training checkpoint "
                            "(spec and parameters both come from the file)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker processes, each with its own compiled model")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8100,
                       help="TCP port for the HTTP front door (0 = OS-assigned)")
    serve.add_argument("--max-batch-size", type=int, default=8,
                       help="largest batch the pool cuts from its backlog for "
                            "one worker")
    serve.add_argument("--queue-depth", type=int, default=32,
                       help="bound of each worker's request queue")
    serve.add_argument("--watermark", type=int, default=0,
                       help="shed load (HTTP 503) beyond this many requests in "
                            "flight (0 = workers * queue-depth)")
    serve.add_argument("--cache-size", type=int, default=256,
                       help="LRU response cache entries (0 disables caching)")
    serve.add_argument("--backend", default="numpy",
                       help="compute backend each worker compiles with: "
                            f"{', '.join(BACKEND_CHOICES)} (see 'repro list backends')")
    serve.add_argument("--latency-budget-ms", type=float, default=0.0,
                       help="admission control: shed requests (HTTP 429 + "
                            "Retry-After) whose estimated queue wait exceeds "
                            "this budget (0 disables)")
    serve.add_argument("--secure", action="store_true",
                       help="serve int64 fixed-point PPML inference: workers host "
                            "SecurePredictors, a traced warm-up sizes the offline "
                            "Beaver-triple/GC-label pools, and /stats reports "
                            "per-request protocol accounting")
    serve.add_argument("--pipeline-depth", type=int, default=0,
                       help="batches in flight per worker: 0 (default) adapts "
                            "within 1..4 from measured stage percentiles, "
                            "1..4 pins the depth")
    serve.add_argument("--triple-pool-depth", type=int, default=0,
                       help="offline pool depth in request quanta (0 = sized from "
                            "workers * max pipeline depth * max-batch-size)")
    serve.add_argument("--self-test", type=int, default=None, metavar="N",
                       help="serve N synthetic requests against this server, verify "
                            "them bit-for-bit against the in-process predictor, then exit")
    serve.add_argument("--json", action="store_true",
                       help="print the self-test results as JSON instead of a table")
    serve.set_defaults(func=cmd_serve)

    plan = subparsers.add_parser(
        "plan", parents=[secure_flags],
        help="predict serving throughput / latency / worker count from first "
             "principles (measured kernel rates + M/M/c queueing; no load test)")
    plan.add_argument("spec", help="path to a spec JSON file, or a bundled preset name")
    plan.add_argument("--qps", type=float, required=True,
                      help="offered request rate to plan for (requests/second)")
    plan.add_argument("--workers", type=int, default=2,
                      help="worker processes of the deployment being planned")
    plan.add_argument("--max-batch-size", type=int, default=8,
                      help="micro-batch cap of each worker's predictor")
    plan.add_argument("--max-wait", type=float, default=0.002,
                      help="seconds each worker waits to fill a micro-batch")
    plan.add_argument("--backend", default="numpy",
                      help="compute backend whose measured rates price the plan: "
                           f"{', '.join(BACKEND_CHOICES)}")
    plan.add_argument("--secure", action="store_true",
                      help="plan secure serving: one traced fixed-point forward "
                           "adds protocol rounds and triple-pool refill needs")
    plan.add_argument("--triple-pool-depth", type=int, default=0,
                      help="offline pool depth in request quanta (0 = sized from "
                           "workers * max pipeline depth * max-batch-size)")
    plan.add_argument("--input-shape", default=None, metavar="D0,D1,...",
                      help="per-sample input shape override (e.g. '16' for the "
                           "mlp zoo model; default: the spec's image shape)")
    plan.add_argument("--out", default=None, help="write the results JSON to this path")
    plan.add_argument("--json", action="store_true",
                      help="print the plan as JSON instead of a table")
    plan.set_defaults(func=cmd_plan)

    neurons = subparsers.add_parser("neurons", help="list the quadratic neuron designs (Table 1)")
    neurons.set_defaults(func=cmd_neurons)

    profile = subparsers.add_parser("profile", help="parameters / MACs / memory of a model")
    profile.add_argument("--model", default="vgg16", choices=IMAGE_MODEL_CHOICES,
                         help="model family from the registry ('repro list models')")
    profile.add_argument("--neuron-type", default="OURS",
                         help="neuron design (first_order, OURS, T2, T3, T4, fan, ...)")
    profile.add_argument("--num-classes", type=int, default=10)
    profile.add_argument("--width-multiplier", type=float, default=1.0,
                         help="scale every channel count (use <1 on slow machines)")
    profile.add_argument("--image-size", type=int, default=32)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--batch-size", type=int, default=256)
    profile.add_argument("--per-layer", action="store_true", help="also print per-layer rows")
    profile.add_argument("--latency", action="store_true", help="measure forward latency")
    profile.add_argument("--latency-repeats", type=int, default=3)
    profile.add_argument("--compiled", action="store_true",
                         help="with --latency, also time the compiled forward")
    profile.add_argument("--backend", default="numpy",
                         help="compute backend of the compiled timing: "
                              f"{', '.join(BACKEND_CHOICES)}")
    profile.set_defaults(func=cmd_profile)

    train = subparsers.add_parser(
        "train", help="resume an interrupted training run from its checkpoint")
    train.add_argument("--resume", required=True, metavar="CKPT",
                       help="training checkpoint written by 'repro run --checkpoint-dir' "
                            "(the run rebuilds from the spec inside the checkpoint)")
    train.set_defaults(func=cmd_train)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except CLIError as error:
        # Spec validation and registry lookups; a traceback would bury the
        # message.  Internal errors still propagate with a full traceback.
        _print(f"error: {error}", stream=sys.stderr)
        return 2
