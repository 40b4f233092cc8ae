"""The writer process of a step loop: the artifacts' CSV rows are
formatted and written beside the loop, on another core, and a long
loop's condition reductions run there too.

:class:`ArtifactWriter` is the loop's end.  It is built after the loop's
build and before its first step, and forks the writer, which inherits
the configs and the loop's monitor, so it needs POSIX ``fork``.  When
the machine has no core to spare beside the loops running at once
(:func:`spare_core`) it forks nothing and the loop's process handles
each message itself, with the same code.

At each flush the loop sends one small message: its slot of step rows,
its range of steps and sampled steps, and the bytes of its histogram
counter rows.  The writer reads the steps' losses, their R(t) (which
the monitor's flush sums before the hand-off and never writes again)
and the rate summaries from the monitor's shared mappings.  When the
monitor's ``writer_reduces`` (a run of at least
:data:`~transopt.diagnostics.WRITER_BLOCKS` buffers), the writer runs
the reductions that never raise (zeta, C2, the box test and the |g|
max) on the slot under the loop's ``np.errstate`` and releases the slot
before it formats the block's rows; the loop fills the next slot and
waits only for one the writer has not released.  After the last block
it sends the reductions' final state back in one reply.  The loss and
gradient screens, the rate screens, the rate summaries and histograms,
and every DomainError stay in the loop's process.

The writer appends each block's rows to ``loss.csv``, ``regret.csv``,
``record.csv`` and ``lr_hist.csv`` of each run's temporary directory.
After the loop it writes each run's ``conditions.csv`` and
``meta.json`` from the scalars the loop sends and renames each
temporary directory to its run directory, so a run directory appears
only when it is complete.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import shutil
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Deque, Dict, Iterator, List, Optional,
                    Sequence)

import numpy as np

from .diagnostics import (HIST_BINS, STEP_ERRSTATE, ConditionReport,
                          LrHistogram, RunMonitor)


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
    hist_texts: Dict[bytes, str] = field(default_factory=dict)

    def append(self, texts: Dict[str, str]) -> None:
        for name, text in texts.items():
            with open(self.temp / name, "a", newline="") as f:
                f.write(text)


class _LoopFiles:
    """Everything the writer process of one step loop does: it reduces
    each handed-over slot of step rows (when the loop's monitor
    ``writer_reduces``), appends each block's rows to every run's step
    CSVs and, at the end, writes each run's scalars and publishes its
    directory."""

    def __init__(self, runs: List[_RunFiles], made: List[Path],
                 monitor: Optional[RunMonitor]):
        self.runs = runs
        self.made = made            # root directories this loop created
        self.histogram = LrHistogram()
        # the loop's monitor (a forked writer's copy, which reads the
        # loop's later writes to its shared arrays) and, per step slot it
        # reduces, the semaphore released once the slot is reduced
        self.monitor = monitor
        self.free: List[multiprocessing.synchronize.Semaphore] = []
        # the blocks reduced whose rows are not all written yet
        self.queued: Deque[Iterator[bool]] = deque()

    def start(self) -> None:
        """Write each run's config.yaml and its step CSVs' headers."""
        for run in self.runs:
            (run.temp / "config.yaml").write_text(run.text)
            run.append({**STEP_HEADERS,
                        "lr_hist.csv": self.histogram.csv_header()})

    def handle(self, message, reply: Callable[[object], None]) -> bool:
        """Act on one message of the loop: reduce a block's slot, release
        it and queue the block's rows (for :meth:`write`); reply with the
        reductions' state; write a run's scalars; or at the end message
        write the queued rows, publish every run directory, reply None
        and return True."""
        if message[0] == "block":
            _, slot, t0, t1, lo, hi, counts = message
            if self.monitor.writer_reduces:
                with np.errstate(**STEP_ERRSTATE):
                    self.monitor.conditions.update(
                        *self.monitor.slots[slot, :, :t1 - t0])
                self.free[slot].release()
            self.queued.append(self._rows(lo, hi, counts))
        elif message[0] == "conditions":
            reply(self.monitor.conditions)
        elif message[0] == "run":
            _, r, report, meta = message
            report.to_csv(self.runs[r].temp / "conditions.csv")
            (self.runs[r].temp / "meta.json").write_text(meta)
        else:
            self.write()
            for run in self.runs:
                _publish(run.temp, run.run_dir)
            reply(None)
            return True
        return False

    def write(self, waiting: Callable[[], bool] = lambda: False) -> None:
        """Append the queued blocks' rows, oldest first and a run at a
        time, until none is left or ``waiting()`` says a message waits."""
        while self.queued and not waiting():
            if not next(self.queued[0], False):
                self.queued.popleft()

    def serve(self, conn, parent_end) -> None:
        """The writer process: handle what ``conn`` hands over until the
        end message, writing queued rows while no message waits, so a
        block is reduced and a request answered without waiting for the
        rows before them.  A pipe that closes first, or an error, leaves
        no entry behind; an error is sent back as its message."""
        parent_end.close()
        _batch_policy()
        published = False
        try:
            self.start()
            while not self.handle(conn.recv(), conn.send):
                self.write(conn.poll)
            published = True
        except EOFError:
            pass  # the loop stopped before its end message
        except Exception as exc:
            with contextlib.suppress(OSError):
                conn.send(f"writing artifacts: {exc}")
            raise SystemExit(1) from exc
        finally:
            if not published:
                self.remove()

    def _rows(self, lo: int, hi: int, counts: bytes) -> Iterator[bool]:
        """Append the rows of sampled steps lo .. hi - 1: their losses,
        R(t), rate summaries and histogram rows, whose (R, m, width)
        counters are the bytes ``counts``; yield True after each run's
        rows."""
        monitor = self.monitor
        ts = monitor.steps[lo:hi]
        if not len(ts):
            return
        summary = monitor.rate_summary[:, lo:hi]
        counts = np.frombuffer(counts, LrHistogram.counter_type(
            monitor.dim)).reshape(len(self.runs), hi - lo, HIST_BINS + 2)
        t_text = np.array([str(x) for x in ts.tolist()], dtype=object)
        t_float = ts.astype(np.float64)
        for r, run in enumerate(self.runs):
            texts = {}
            loss = _texts(monitor.losses[ts - 1, r])
            texts["loss.csv"] = _csv_lines([t_text, loss])
            if monitor.regret is None:
                regret_text = np.full(len(ts), "", dtype=object)
            else:
                sampled = monitor.regret[r, ts - 1]
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
            yield True

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


def spare_core(loops: int) -> bool:
    """Whether this machine has a core besides those of ``loops`` step
    loops running at once, for a writer process to work beside them.
    Without one a writer only adds its fork and hand-offs to the loop:
    with ``--jobs 2`` on two cores the grid sweep took 18% longer."""
    return len(os.sched_getaffinity(0)) > loops


def _batch_policy() -> None:
    """Put this process under ``SCHED_BATCH`` where the system lets it,
    so that a writer woken by a hand-off does not preempt the loop on
    the loop's own CPU."""
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))


class ArtifactWriter:
    """The step loop's end of its artifact writer.

    Built after the loop's build and before its first step, it creates
    each run's temporary directory beside its run directory, so an
    output root that cannot be written fails before any step.  With
    ``fork`` it forks the writer process, which inherits the configs and
    the loop's ``monitor`` (:class:`~transopt.diagnostics.RunMonitor`,
    which must be ``shared`` then); without, the loop's process writes
    each message itself, with the same code.  ``block`` hands the writer
    the steps of the monitor's last flush, ``run`` a run's scalars and
    ``close`` the end message, after which it waits until every run
    directory is published.  ``stop`` closes the pipe and joins the
    writer; unless every run directory was published, the temporary
    directories are deleted.  A write error, or a writer that stops,
    raises OSError.
    """

    def __init__(self, texts: Sequence[str], run_dirs: Sequence[Path],
                 fork: bool = True, monitor: Optional[RunMonitor] = None):
        """Run r's config text is ``texts[r]`` and its run directory
        ``run_dirs[r]``."""
        runs = []
        for r, (text, run_dir) in enumerate(zip(texts, run_dirs)):
            temp = run_dir.with_name(f".{run_dir.name}.{os.getpid()}-{r}.tmp")
            runs.append(_RunFiles(text, run_dir, temp))
        made = []
        for root in dict.fromkeys(run.run_dir.parent for run in runs):
            while not root.exists() and root not in made:
                made.append(root)
                root = root.parent
        made.sort(key=lambda path: len(path.parts), reverse=True)
        self._files = _LoopFiles(runs, made, monitor)
        self._conn = self._process = None
        self._published = False
        self._t = self._sampled = 0
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
            if monitor is not None and monitor.writer_reduces:
                # the loop fills slot 0 first
                self._files.free = [context.Semaphore(int(slot > 0))
                                    for slot in range(len(monitor.slots))]
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

    def block(self, monitor: RunMonitor, last: bool = False) -> None:
        """Hand over the steps of the monitor's last flush, unless handed
        over already: their slot of step rows, their range of steps and
        sampled steps, and the histogram rows of those.  When the writer
        reduces the slots, the monitor then fills its next slot, once the
        writer has released it.  After the loop's end (``last``) a writer
        that reduces answers once it has handled every block, with its
        reductions' final state, which the monitor takes."""
        t0, t1 = self._t, monitor.t
        if t1 > t0:
            lo, hi = self._sampled, monitor.sampled
            self._t, self._sampled = t1, hi
            # a flush with sampled steps recorded one block of them; bytes
            # pickle faster than arrays
            counts = b"".join(h.counts[-1].tobytes()
                              for h in monitor.histograms) if hi > lo else b""
            self._send(("block", monitor.slot, t0, t1, lo, hi, counts))
            if monitor.writer_reduces and not last:
                self._take(monitor.next_slot())
        if last and monitor.writer_reduces:
            monitor.conditions = self._request(("conditions",))

    def run(self, replica: int, report: ConditionReport, meta: str) -> Path:
        """Hand over a run's condition report and meta.json text; returns
        the run directory the writer publishes."""
        self._send(("run", replica, report, meta))
        return self._files.runs[replica].run_dir

    def close(self) -> None:
        """Send the end message and wait until every run directory is
        published."""
        self._request(("end",))
        self._published = True

    def stop(self) -> None:
        """Join the writer, if forked; unless every run directory was
        published, delete the temporary directories."""
        if self._process is not None:
            self._conn.close()
            self._process.join()
        if not self._published:
            self._files.remove()

    def _send(self, message):
        """Hand a message to the writer; without a writer process, handle
        it and return its reply, if any."""
        if self._process is None:
            replies = []
            try:
                self._files.handle(message, replies.append)
                self._files.write()
            except Exception as exc:
                raise OSError(f"writing artifacts: {exc}") from exc
            return replies[0] if replies else None
        try:
            self._conn.send(message)
        except OSError:
            # the writer stopped reading: it failed, or was killed
            raise self._failure() from None
        return None

    def _request(self, message):
        """Hand over a message that asks for a reply; return the reply."""
        if self._process is None:
            return self._send(message)
        self._send(message)
        try:
            reply = self._conn.recv()
        except EOFError:
            raise self._failure() from None
        if isinstance(reply, str):
            # the writer failed, and says why
            self.stop()
            raise OSError(reply)
        return reply

    def _take(self, slot: int) -> None:
        """Wait until the writer process has released step slot ``slot``;
        a writer that stops first raises OSError."""
        while not self._files.free[slot].acquire(timeout=0.05):
            if not self._process.is_alive():
                raise self._failure()

    def _failure(self) -> OSError:
        try:
            message = self._conn.recv()
        except (EOFError, OSError):
            message = None
        self.stop()
        return OSError(message or "the artifact writer stopped with exit "
                       f"code {self._process.exitcode}")
