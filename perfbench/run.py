"""weaklg benchmark: seeded workloads through the real CLI, checked against known answers.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 28 --trace 0

Workloads: verify, search-enum, search-lift, screen (see perfbench/NOTES.md).

With --trace 0 every job runs as a fresh `python -m weaklg.cli` process, one at
a time (a closed loop with one client), in passes over the workload's job
list, alternating its order, until the next pass would overrun --seconds.
Before each pass a fresh interpreter imports weaklg.cli six times to time
set-up.  Before each job and set-up sample, at most once every
REFERENCE_GAP_S, a fresh interpreter runs a fixed reference computation, so
that the run tracks the speed of the shared host.  It prints the
end-to-end metrics: the wall time and the children's CPU time of a pass, each
the sum over jobs of the job's median across passes; the median over passes
of the largest job RSS; the median set-up time; and the share of jobs whose
output differs from the known answer.  The three times are scaled to a host
on which the reference takes REFERENCE_S (see HostSpeed); the raw times are
in the record.

With --trace 1 each job runs in this process through weaklg.cli.main three
times: a warm-up, an untraced run, and a run with spans around the calls
into each layer.  It prints the per-layer metrics instead.

Each job's stdout and exit code are checked against answers computed by
perfbench/oracle.py.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is the full record
(seed, environment, sample counts).  The exit code is 0 whenever the
benchmark itself ran, and 2 when the weaklg sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

JOB_TIMEOUT_S = 150
SETUP_SAMPLES_PER_PASS = 6
CATALOG_IMPORT_SAMPLES = 5
# A reference child takes about this long when the host runs at its usual
# speed (a 2-core VM with Python 3.11); it is the unit of HostSpeed.
REFERENCE_S = 0.3
REFERENCE_GAP_S = 1.0
# The benchmark's own dict convolution, [x^0] V22^k for k <= 16, twice.
# It imports nothing from weaklg, so a change to the program does not move it.
REFERENCE = (
    f"import sys; sys.path.insert(0, {HERE!r}); import oracle;"
    " [oracle.constant_terms(oracle.MODELS['V22'], 16) for _ in range(2)]"
)
CATALOG_IMPORT = (
    "import time; t = time.perf_counter(); import weaklg.catalog;"
    " print(time.perf_counter() - t)"
)


class HostSpeed:
    """Wall times of reference children, run between jobs.

    A shared host runs this benchmark at speeds that drift by up to 2x over
    minutes, and a fresh interpreter running the reference slows down with
    the jobs.  Multiplying a run's times by `factor` (REFERENCE_S over the
    median reference time) takes most of that drift out of the figures that
    are compared across runs.  A reference is run at most once every
    REFERENCE_GAP_S unless `force` is set.
    """

    def __init__(self, workdir):
        self.workdir = workdir
        self.samples = []
        self.sample(force=True)

    def sample(self, force=False):
        if force or time.perf_counter() - self._last >= REFERENCE_GAP_S:
            wall, _, _, code, _ = spawn(["-c", REFERENCE], self.workdir)
            if code != 0:
                raise RuntimeError(f"the reference computation exited with {code}")
            self.samples.append(wall)
            self._last = time.perf_counter()

    @property
    def factor(self):
        return REFERENCE_S / statistics.median(self.samples)


def spawn(argv, workdir):
    """Run one child to completion: (wall s, user+sys CPU s, max RSS KiB, exit code, stdout)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    with tempfile.TemporaryFile(dir=workdir) as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out,
                                stderr=subprocess.DEVNULL, env=env, cwd=workdir)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode("utf-8", "replace")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode, text


class Checker:
    """Counts jobs whose output is not the known answer; repeated outputs are checked once."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self._seen = {}

    def __call__(self, job, text, code):
        self.attempted += 1
        key = (job.name, code, text)
        if key not in self._seen:
            self._seen[key] = job.check(text, code)
        reason = self._seen[key]
        if reason is not None:
            self.failures.append(f"{job.name}: {reason}")


def untraced(jobs, seconds, workdir, checker):
    """Closed-loop passes over the job list: end-to-end metrics, sample counts, raw times."""
    spawn(["-c", "import weaklg.cli"], workdir)  # compiles the bytecode cache
    speed = HostSpeed(workdir)
    setup, peaks = [], []
    walls = {job.name: [] for job in jobs}
    cpus = {job.name: [] for job in jobs}
    start = time.perf_counter()
    while True:
        for _ in range(SETUP_SAMPLES_PER_PASS):
            speed.sample()
            setup.append(spawn(["-c", "import weaklg.cli"], workdir)[0])
        order = jobs if len(peaks) % 2 == 0 else jobs[::-1]
        results = []
        for job in order:
            speed.sample()
            results.append((job, spawn(["-m", "weaklg.cli", *job.argv], workdir)))
        for job, (wall, cpu, _, code, text) in results:
            walls[job.name].append(wall)
            cpus[job.name].append(cpu)
            checker(job, text, code)
        peaks.append(max(r[2] for _, r in results) / 1024)
        if time.perf_counter() - start + sum(r[0] for _, r in results) > seconds:
            break
    speed.sample(force=True)
    # A pass time is the sum of each job's median, which damps a single slow job.
    raw = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(statistics.median(v) for v in walls.values()),
        "cpu_s": sum(statistics.median(v) for v in cpus.values()),
    }
    factor = speed.factor
    metrics = {name: (value * factor, "s") for name, value in raw.items()}
    metrics["peak_rss_mib"] = (statistics.median(peaks), "MiB")
    samples = {"setup_s": len(setup), "passes": len(peaks), "reference": len(speed.samples)}
    host = {"raw": raw, "reference_s": statistics.median(speed.samples), "factor": factor}
    return metrics, samples, host


def _in_process(main, job, checker):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = main(list(job.argv))
        except Exception as exc:  # a crash is a failed job, as it is for a child
            code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    checker(job, out.getvalue(), code)
    return wall


def traced(jobs, workload, workdir, checker):
    """Each job in this process: a warm-up, an untraced and a traced run.

    The first run of a job in a process is slower, as the allocator grows
    its arenas, so it is left out of both figures.  Running the untraced and
    the traced run back to back, rather than as two passes, keeps slow spells
    of a shared host out of the overhead figure.
    """
    imports = [float(spawn(["-c", CATALOG_IMPORT], workdir)[4])
               for _ in range(CATALOG_IMPORT_SAMPLES)]
    sys.path.insert(0, SRC)
    import weaklg.cli

    tracer = Tracer()
    plain = wall = 0.0
    for index, job in enumerate(jobs):
        _in_process(weaklg.cli.main, job, checker)
        plain += _in_process(weaklg.cli.main, job, checker)
        tracer.job = index
        tracer.install()
        try:
            # look main up at call time: install() replaced the module attribute
            wall += _in_process(lambda argv: weaklg.cli.main(argv), job, checker)
        finally:
            tracer.uninstall()
    tracer.write(os.path.join(WORK, f"spans-{workload}.json"))
    metrics = tracer.metrics()
    metrics["catalog.import_s"] = (statistics.median(imports), "s")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_frac"] = ((wall - plain) / plain, "ratio")
    samples = {"catalog.import_s": len(imports), "passes": 3}
    return metrics, samples, None


def git_commit():
    """HEAD of the checkout; `unknown` outside a git checkout or without git.

    The search for .git stops at the checkout, so an enclosing repository
    is not reported.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; passes stop before the next would overrun it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "weaklg", "cli.py")):
        print(f"error: no weaklg sources under {SRC}", file=sys.stderr)
        return 2
    expected = oracle.load_expected()
    os.makedirs(WORK, exist_ok=True)
    checker = Checker()
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        jobs = workloads.build(args.workload, args.seed, workdir, expected)
        if args.trace:
            metrics, samples, host = traced(jobs, args.workload, workdir, checker)
        else:
            metrics, samples, host = untraced(jobs, args.seconds, workdir, checker)
    failed = len(checker.failures)
    failed_frac = failed / checker.attempted
    for line in dict.fromkeys(checker.failures):
        print(f"FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    if host:
        raw = ", ".join(f"{name} {value:.6f} s" for name, value in host["raw"].items())
        print(f"{'host speed factor':32s} {host['factor']:14.6f} "
              f"(reference {host['reference_s']:.6f} s; raw {raw})")
    print(f"{'failed_frac':32s} {failed_frac:14.6f} ratio  ({failed} of {checker.attempted} jobs)")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "jobs_per_pass": [job.name for job in jobs],
        "samples": samples,
        "host_speed": host,
        "failed_frac": failed_frac,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
