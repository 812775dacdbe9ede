"""One benchmark run in a fresh interpreter, driving ``mzsim.cli.main``.

Usage: ``child.py T0 CONFIG [PLAN]``. ``T0`` is the parent's
``time.perf_counter()`` just before it started this process; on Linux that
clock is system-wide, so ``perf_counter() - T0`` after ``import mzsim.cli``
and ``load_config(CONFIG)`` is the set-up time. Without a plan the child
prints that time and exits.

With a plan (JSON written by ``run.py``) the child runs the warm-up calls,
then operations in a closed loop for ``seconds``. An operation
is a group of ``cli.main(argv)`` calls; ``{i}`` in an argument is replaced by
the operation index. An operation starts only if, at the mean pace so far,
it ends within the window. Each call's stdout is captured and saved beside
its outputs for ``run.py`` to check. In a traced run operations alternate
untraced and traced on the same template, so the pair gives the tracing
overhead. The report goes to ``plan["report"]``.
"""

import sys
import time


def main() -> int:
    t0 = float(sys.argv[1])
    config_path = sys.argv[2]
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    sys.path.insert(0, str(src))
    import mzsim.cli
    from mzsim.config import load_config

    load_config(config_path)
    setup_s = time.perf_counter() - t0

    if Path(mzsim.__file__).resolve().parent.parent != src:
        print(f"error: imported mzsim from {mzsim.__file__}, not {src}", file=sys.stderr)
        return 3
    if len(sys.argv) < 4:
        print(repr(setup_s))
        return 0
    return run_plan(sys.argv[3], setup_s)


def _expand(argv: list[str], i: int) -> list[str]:
    return [a.replace("{i}", str(i)) for a in argv]


def _children_cpu(resource) -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_plan(plan_path: str, setup_s: float) -> int:
    import io
    import json
    import resource
    import traceback
    from contextlib import redirect_stdout
    from pathlib import Path

    import numpy
    from mzsim import cli
    from tracer import Tracer, aggregate

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    work = Path(plan["work"])
    templates = plan["templates"]
    traced_run = plan["trace"]
    tracer = Tracer(work) if traced_run else None

    for argv in plan["warmup"]:
        with redirect_stdout(io.StringIO()):
            cli.main(argv)

    step = 2 if traced_run else 1
    ops = []
    start = time.perf_counter()
    i = 0
    while True:
        # Start an op (a pair when traced) only if, at the mean pace so far,
        # it ends within the window; at least one always runs.
        elapsed = time.perf_counter() - start
        if i % step == 0 and i >= step and elapsed + step * elapsed / i > plan["seconds"]:
            break
        template = (i // 2 if traced_run else i) % len(templates)
        traced = traced_run and i % 2 == 1
        calls = [_expand(argv, i) for argv in templates[template]]
        stdouts, codes, error = [], [], None
        if traced:
            tracer.install()
        cpu0 = _children_cpu(resource)
        t = time.perf_counter()
        try:
            for argv in calls:
                buf = io.StringIO()
                with redirect_stdout(buf):
                    codes.append(cli.main(argv))
                stdouts.append(buf.getvalue())
        except Exception:
            error = traceback.format_exc(limit=3)
        wall = time.perf_counter() - t
        worker_cpu = _children_cpu(resource) - cpu0
        op = {"i": i, "template": template, "wall": wall, "codes": codes,
              "error": error, "traced": traced, "worker_cpu_s": worker_cpu}
        if traced:
            tracer.uninstall()
            op["layers"] = aggregate(tracer.collect())
        for j, text in enumerate(stdouts):
            (work / f"op-{i}-{j}.out").write_text(text, encoding="utf-8")
        ops.append(op)
        i += 1

    report = {
        "setup_s": setup_s,
        "numpy": numpy.__version__,
        "ops": ops,
        "maxrss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "maxrss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "untraced_functions": tracer.missing if tracer else [],
    }
    with open(plan["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
