"""The writer process of a step loop: the artifacts' CSV rows are
formatted and written beside the loop, on another core.

:class:`ArtifactWriter` is the loop's end.  It is built after the loop's
build and before its first step, and forks the writer, which inherits
the configs and the comparators' losses, so it needs POSIX ``fork``.
When the machine has no core to spare beside the loops running at once
(:func:`spare_core`) it forks nothing and the loop's process handles
each message itself, with the same code.  The loop hands the writer each
flushed block's losses, sampled rate summaries and histogram counter
rows; the writer appends their rows to ``loss.csv``, ``regret.csv``,
``record.csv`` and ``lr_hist.csv`` of each run's temporary directory,
carrying the regret's running sum from block to block.  After the loop
it writes each run's ``conditions.csv`` and ``meta.json`` from the
scalars the loop sends and renames each temporary directory to its run
directory, so a run directory appears only when it is complete.  Every
monitor, screen and DomainError stays in the loop's process.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from .diagnostics import ConditionReport, LrHistogram, RunMonitor


def _texts(values: np.ndarray) -> np.ndarray:
    """The ``%.17g`` text of each float, as an object array shaped like
    ``values``; each distinct bit pattern is formatted once, so -0.0 and
    0.0 keep their own text."""
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    return np.array(["%.17g" % x for x in bits.view(np.float64).tolist()],
                    dtype=object)[index.reshape(values.shape)]


def _csv_lines(columns: Sequence[np.ndarray]) -> str:
    """CSV lines of equally long text columns, each ending in the csv
    module's CRLF terminator."""
    line = ",".join(["%s"] * len(columns)) + "\r\n"
    cells = np.column_stack(columns).ravel().tolist()
    return line * len(columns[0]) % tuple(cells)


#: The header lines of the CSVs besides lr_hist.csv that get a row per
#: sampled step.
STEP_HEADERS = {
    "loss.csv": "t,loss\r\n",
    "regret.csv": "t,regret,avg_regret,regret_over_sqrt_t\r\n",
    "record.csv": "t,loss,regret,lr_min,lr_median,lr_max\r\n",
}


@dataclass
class _RunFiles:
    """One run's artifacts as the writer process builds them."""

    text: str                 # the config's serialized text
    run_dir: Path
    temp: Path                # the directory published as run_dir
    star: Optional[np.ndarray]  # the comparator's per-step losses
    regret: float = 0.0       # R(t) at the last step written
    hist_texts: Dict[bytes, str] = field(default_factory=dict)

    def append(self, texts: Dict[str, str]) -> None:
        for name, text in texts.items():
            with open(self.temp / name, "a", newline="") as f:
                f.write(text)


class _LoopFiles:
    """Everything the writer process of one step loop writes: it appends
    each handed-over block's rows to every run's step CSVs and, at the
    end, writes each run's scalars and publishes its directory."""

    def __init__(self, runs: List[_RunFiles], made: List[Path]):
        self.runs = runs
        self.made = made            # root directories this loop created
        self.histogram = LrHistogram()

    def start(self) -> None:
        """Write each run's config.yaml and its step CSVs' headers."""
        for run in self.runs:
            (run.temp / "config.yaml").write_text(run.text)
            run.append({**STEP_HEADERS,
                        "lr_hist.csv": self.histogram.csv_header()})

    def handle(self, message) -> bool:
        """Act on one message of the loop: write a block's rows or a
        run's scalars, or at the end message publish every run directory
        and return True."""
        if message[0] == "block":
            self.block(*message[1:])
        elif message[0] == "run":
            _, r, report, meta = message
            report.to_csv(self.runs[r].temp / "conditions.csv")
            (self.runs[r].temp / "meta.json").write_text(meta)
        else:
            for run in self.runs:
                _publish(run.temp, run.run_dir)
            return True
        return False

    def serve(self, conn, parent_end) -> None:
        """The writer process: handle what ``conn`` hands over until the
        end message.  A pipe that closes first, or an error, leaves no
        entry behind; an error is sent back as its message."""
        parent_end.close()
        published = False
        try:
            self.start()
            while not self.handle(conn.recv()):
                pass
            published = True
            conn.send(None)
        except EOFError:
            pass  # the loop stopped before its end message
        except Exception as exc:
            with contextlib.suppress(OSError):
                conn.send(f"writing artifacts: {exc}")
            raise SystemExit(1) from exc
        finally:
            if not published:
                self.remove()

    def block(self, t0: int, losses: np.ndarray, ts: np.ndarray,
              summary: np.ndarray, counts: List[np.ndarray]) -> None:
        """Append the rows of the n steps after step ``t0``: their
        losses (n, R), and the (R, m, 3) rate summary and each run's
        (m, width) histogram counters of the m sampled steps ``ts``
        among them."""
        t1 = t0 + len(losses)
        losses = losses.reshape(len(losses), -1)
        t_text = np.array([str(x) for x in ts.tolist()], dtype=object)
        t_float = ts.astype(np.float64)
        at = ts - (t0 + 1)
        for r, run in enumerate(self.runs):
            texts = {}
            if run.star is not None:
                # R(t) carried from the last block: the same sequential
                # sums as one accumulate over the run, whose first term
                # adds 0.0
                regret = np.subtract(losses[:, r], run.star[t0:t1])
                regret[0] += run.regret
                np.add.accumulate(regret, out=regret)
                run.regret = regret[-1]
            if not len(ts):
                continue
            loss = _texts(losses[at, r])
            texts["loss.csv"] = _csv_lines([t_text, loss])
            if run.star is None:
                regret_text = np.full(len(ts), "", dtype=object)
            else:
                sampled = regret[at]
                regret_text = _texts(sampled)
                texts["regret.csv"] = _csv_lines(
                    [t_text, regret_text, _texts(sampled / t_float),
                     _texts(sampled / np.sqrt(t_float))])
            # lr_min, lr_median and lr_max formatted at once: at d = 1
            # all three are equal
            texts["record.csv"] = _csv_lines(
                [t_text, loss, regret_text, *_texts(summary[r]).T])
            texts["lr_hist.csv"] = self.histogram.csv_lines(
                ts, counts[r], run.hist_texts)
            run.append(texts)

    def remove(self) -> None:
        """Delete every temporary directory, then each root directory
        this loop created that is left empty."""
        for run in self.runs:
            shutil.rmtree(run.temp, ignore_errors=True)
        for path in self.made:
            with contextlib.suppress(OSError):
                path.rmdir()


def _publish(temp: Path, run_dir: Path) -> None:
    """Rename a complete temporary directory to its run directory.  An
    existing run directory takes the new files one by one, so it holds
    a complete set at every moment."""
    try:
        temp.rename(run_dir)
    except OSError:
        if not run_dir.is_dir():
            raise
        for path in temp.iterdir():
            path.replace(run_dir / path.name)
        temp.rmdir()


#: CSV rows (sampled steps times replicas) that the loop gathers before it
#: hands a block to its writer.  Each hand-off wakes the writer, which
#: cost the loop about 0.1 ms a time on a 2-vCPU VM whatever its size: on
#: the 100k-step quadratic at stride 100, which flushes 491 times with two
#: sampled steps each, handing every flush over took 3% of the run.  A
#: stride-1 flush of the cycle trio holds 1584 rows and goes alone.
HANDOFF_ROWS = 512


def spare_core(loops: int) -> bool:
    """Whether this machine has a core besides those of ``loops`` step
    loops running at once, for a writer process to format beside them.
    Without one a writer only adds its fork and hand-offs to the loop:
    with ``--jobs 2`` on two cores the grid sweep took 18% longer."""
    return len(os.sched_getaffinity(0)) > loops


class ArtifactWriter:
    """The step loop's end of its artifact writer.

    Built after the loop's build and before its first step, it creates
    each run's temporary directory beside its run directory, so an
    output root that cannot be written fails before any step.  With
    ``fork`` it forks the writer process, which inherits the configs and
    the comparators' losses; without, the loop's process writes each
    message itself, with the same code.  ``block`` hands the writer the
    steps flushed since the last block (a few flushes at a time when
    they are small), ``run`` a run's scalars and ``close`` the end
    message, after which it waits until every run directory is
    published.  ``stop`` closes the pipe and joins the writer; without
    the end message the temporary directories are deleted.  A write
    error raises OSError.
    """

    def __init__(self, texts: Sequence[str], run_dirs: Sequence[Path],
                 stars: Sequence[Optional[np.ndarray]], fork: bool = True):
        """Run r's config text is ``texts[r]``, its run directory
        ``run_dirs[r]`` and its comparator's per-step losses ``stars[r]``
        (None without a comparator)."""
        runs = []
        for r, (text, run_dir, star) in enumerate(
                zip(texts, run_dirs, stars)):
            temp = run_dir.with_name(f".{run_dir.name}.{os.getpid()}-{r}.tmp")
            runs.append(_RunFiles(text, run_dir, temp, star))
        made = []
        for root in dict.fromkeys(run.run_dir.parent for run in runs):
            while not root.exists() and root not in made:
                made.append(root)
                root = root.parent
        made.sort(key=lambda path: len(path.parts), reverse=True)
        self._files = _LoopFiles(runs, made)
        self._conn = self._process = None
        self._published = False
        self._t = self._sampled = self._blocks = 0
        try:
            for run in runs:
                run.run_dir.parent.mkdir(parents=True, exist_ok=True)
                # a temporary directory of this name is a killed run's
                shutil.rmtree(run.temp, ignore_errors=True)
                run.temp.mkdir()
            if not fork:
                self._files.start()
                return
            context = multiprocessing.get_context("fork")
            self._conn, child_end = context.Pipe()
            # start() flushes stdout and stderr before it forks, so the
            # writer never prints a copy of the loop's buffered lines
            self._process = context.Process(
                target=self._files.serve, args=(child_end, self._conn),
                name="transopt-writer")
            try:
                self._process.start()
            finally:
                child_end.close()
        except BaseException:
            if self._conn is not None:
                self._conn.close()
            self._files.remove()
            raise

    def block(self, losses: np.ndarray, monitor: RunMonitor,
              last: bool = False) -> None:
        """Hand over the steps the monitor flushed since the last block,
        once they hold HANDOFF_ROWS CSV rows or the loop has ended
        (``last``); ``losses`` holds every step's losses so far."""
        t0, t1 = self._t, monitor.t
        lo, hi = self._sampled, monitor.sampled
        histograms = monitor.histograms
        if t1 == t0 or (hi - lo) * len(histograms) < HANDOFF_ROWS and not last:
            return
        self._t, self._sampled = t1, hi
        new = len(histograms[0].counts) - self._blocks
        self._blocks += new
        counts = [np.concatenate(h.counts[-new:]) if new else None
                  for h in histograms]
        self._send(("block", t0, losses[t0:t1], monitor.steps[lo:hi],
                    monitor.rate_summary[:, lo:hi], counts))

    def run(self, replica: int, report: ConditionReport, meta: str) -> Path:
        """Hand over a run's condition report and meta.json text; returns
        the run directory the writer publishes."""
        self._send(("run", replica, report, meta))
        return self._files.runs[replica].run_dir

    def close(self) -> None:
        """Send the end message and wait until every run directory is
        published."""
        self._send(("end",))
        if self._process is None:
            return
        try:
            failure = self._conn.recv()
        except EOFError:
            raise self._failure() from None
        if failure is not None:
            raise OSError(failure)

    def stop(self) -> None:
        if self._process is None:
            if not self._published:
                self._files.remove()
            return
        self._conn.close()
        self._process.join()

    def _send(self, message) -> None:
        if self._process is None:
            try:
                self._published = self._files.handle(message)
            except Exception as exc:
                raise OSError(f"writing artifacts: {exc}") from exc
            return
        try:
            self._conn.send(message)
        except OSError:
            # the writer stopped reading: it failed, or was killed
            raise self._failure() from None

    def _failure(self) -> OSError:
        try:
            message = self._conn.recv()
        except (EOFError, OSError):
            message = None
        self.stop()
        return OSError(message or "the artifact writer stopped with exit "
                       f"code {self._process.exitcode}")
