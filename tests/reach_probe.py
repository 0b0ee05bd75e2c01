"""Record which ``src/repro`` functions one committed run calls.

``python tests/reach_probe.py RUN OUT WORKDIR`` installs a profile hook,
performs the run named ``RUN`` (one of :data:`RUNS`) and writes to ``OUT``
a JSON list of ``[path relative to src/repro, first line]``, one per code
object of the package that was entered.  ``WORKDIR`` is a scratch
directory the run may write into; nothing is written under the checkout
(run it with ``PYTHONDONTWRITEBYTECODE=1`` so imports leave no caches).

The hook only adds ``frame.f_code`` to a set: resolving a path per call
costs several times the run itself, so paths are resolved once, at exit.
``tests/test_reachability.py`` maps the lines back to defs.
"""

from __future__ import annotations

import json
import pathlib
import runpy
import sys
import threading

REPO = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"


def _seeds(workdir: pathlib.Path) -> None:
    """``repro seeds``, every producer writing into ``workdir``."""
    from repro.seeds import SEED_GROUPS

    for group in SEED_GROUPS.values():
        group.produce(workdir)


def _perf(workdir: pathlib.Path) -> None:
    """The four wall-clock workloads at smoke scale, as one pass drives them."""
    sys.path.insert(0, str(REPO / "benchmarks" / "perf"))
    import workloads

    for name in workloads.NAMES:
        workload = workloads.build(name, 42, workloads.SMOKE_SLICES, True, lambda: None)
        workload.begin_window()
        for index in range(workloads.SMOKE_SLICES):
            workload.run_slice(index)
        workload.finish()
        workload.end_window()
        verdict = workload.verdict()
        if verdict.failed:
            raise SystemExit(f"{name}: {verdict.violations}")


def _cli(workdir: pathlib.Path) -> None:
    from repro.cli import main

    for argv in (
        ["info"],
        ["quickstart"],
        ["demo", "failure"],
        ["demo", "secure"],
        ["metrics"],
    ):
        code = main(argv)
        if code:
            raise SystemExit(f"repro {' '.join(argv)} exited {code}")


def _examples(workdir: pathlib.Path) -> None:
    """The six examples ``tests/test_examples.py`` runs, at its populations."""
    examples = REPO / "examples"
    for path in sorted(examples.glob("*.py")):
        if path.name == "baseline_comparison.py":
            source = path.read_text()
            source = source.replace("populations=(10, 20, 40)", "populations=(4, 6)")
            source = source.replace("population=16", "population=6")
            namespace = {"__name__": "__main__", "__file__": str(path)}
            exec(compile(source, str(path), "exec"), namespace)
        else:
            runpy.run_path(str(path), run_name="__main__")


RUNS = {
    "seeds": _seeds,
    "perf": _perf,
    "cli": _cli,
    "examples": _examples,
}


def main(run: str, out: pathlib.Path, workdir: pathlib.Path) -> None:
    codes: set = set()
    add = codes.add

    def hook(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        RUNS[run](workdir)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    prefix = str(PACKAGE) + "/"
    reached = sorted(
        {
            (code.co_filename[len(prefix):], code.co_firstlineno)
            for code in codes
            if code.co_filename.startswith(prefix)
        }
    )
    out.write_text(json.dumps(reached))


if __name__ == "__main__":
    main(sys.argv[1], pathlib.Path(sys.argv[2]), pathlib.Path(sys.argv[3]))
