"""One fresh process of a benchmark run; ``run.py`` starts it.

Modes (each prints one JSON object as its last line):

``render``  set-up (``import repro.cli`` and the first
            ``DeploymentKnowledge`` of the workload's config), then one
            figure render into a cold artifact store;
``fill``    the serve workload's offline pass: the threshold-training
            pass that fills a cold store;
``warm``    serve set-up: ``import repro.cli`` through the return of a
            warm ``DetectionService.from_session`` (the
            ``serve --cache-dir`` restart path).

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process; set-up is timed from there, so interpreter start-up counts.
With ``--trace PATH`` the layers are traced (see ``spans.py``) and the raw
spans are written to PATH.
"""

from __future__ import annotations

import argparse
import json
import time

import common


def _rss_mb() -> float:
    """This process's peak RSS since it started running the child program.

    ``ru_maxrss`` would also count the parent's pages mapped before the
    ``exec``, so read the high-water mark of the current address space.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _time_first_lapack(report: dict) -> None:
    """Time the first ``leggauss`` eigen-solve, the process's first LAPACK call."""
    import numpy.polynomial.legendre as legendre

    original = legendre.leggauss

    def leggauss(*args, **kwargs):
        legendre.leggauss = original
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            report["first_lapack_s"] = time.perf_counter() - start

    legendre.leggauss = leggauss


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("render", "fill", "warm"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--store", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--claims", default=None)
    args = parser.parse_args()

    common.use_checkout_source()
    report: dict = {}
    if args.trace:
        _time_first_lapack(report)
    start = time.perf_counter()
    import repro.cli  # noqa: F401  (the CLI's import cost is the user's)
    from repro.experiments.figures import FIGURE_RENDERERS
    from repro.serving import DetectionService

    report["import_s"] = time.perf_counter() - start
    spec = common.workload_spec(args.workload, args.seed, args.size)
    if args.mode == "render":
        spec.session().knowledge
        report["setup_s"] = time.monotonic() - args.spawned
    tracer = None
    if args.trace:
        import spans

        tracer = spans.install()

    if args.mode == "render":
        render = FIGURE_RENDERERS[spec.name]
        start = time.perf_counter()
        if tracer is not None:
            figure = tracer.span("experiments.render", render, spec, store=args.store)
        else:
            figure = render(spec, store=args.store)
        report["sweep_s"] = time.perf_counter() - start
        report["rss_mb"] = _rss_mb()
        report["digest"] = common.figure_digest(figure)
        report["problems"] = common.figure_problems(figure, roc=spec.name == "fig4")
        report["points"] = len(spec.points()) * len(spec.density_values())
        session = spec.session(store=args.store)
    elif args.mode == "fill":
        session = spec.session(store=args.store)
        start = time.perf_counter()
        session.service(
            metrics=spec.metrics, false_positive_rate=spec.false_positive_rate
        )
        report["sweep_s"] = time.perf_counter() - start
        report["rss_mb"] = _rss_mb()
    else:
        session = spec.session(store=args.store)
        DetectionService.from_session(
            session,
            metrics=spec.metrics,
            false_positive_rate=spec.false_positive_rate,
            require_warm=True,
        )
        report["setup_s"] = time.monotonic() - args.spawned
        report["rss_mb"] = _rss_mb()

    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.summary()
        tracer.dump(args.trace)
    if args.claims:
        common.write_claims(session, args.claims)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
