"""Discrete factor graph over 3-valued variables with loopy sum-product BP.

Variables all share the domain (GT, EQ, LT). Factors are unary or binary with
strictly positive tables, stored as arrays; binary factors share a bank of
distinct 3x3 tables. Inference runs a synchronous (flooding) schedule,
undamped unless configured otherwise. Each variable's product of incoming
messages is kept as a sum of logs, so high-degree variables cannot
underflow; the messages themselves stay probabilities, and a message is
left out of that product by dividing by it, not by subtracting its log.

Undamped, BP stops updating a factor whose two ends are clamped (one
belief entry dominates so that the others round away), because its messages
are then known constants; see :func:`run_bp`.

A full-enumeration oracle (:func:`exact_marginals`) is provided for small
graphs; sum-product marginals agree with it exactly on trees.
"""
from __future__ import annotations

import math
import mmap
import os
import signal
import sys
import traceback
from dataclasses import dataclass
from itertools import repeat
from numbers import Integral
from typing import Hashable, Iterator, Optional, Sequence

import numpy as np

from .core import N_VALUES

ENUMERATION_CAP = 12
# Message columns run_bp updates together: a few (3, BP_BLOCK) float arrays
# fit in a core's L2 cache, where a full pass over every edge would not.
BP_BLOCK = 16384
# Share of the binary factors that must have become freezable (both ends
# steadily clamped) before run_bp freezes them: each freeze recomputes the
# frozen sums from scratch, so it waits for a batch worth that cost.
BP_FREEZE = 0.01
# Factor records graph_text formats at a time, and rows of a synthetic label
# file formatted at a time; load_graph splits a text into pieces of about
# TEXT_BLOCK lines (64 * TEXT_BLOCK characters) and adds each run of factor
# records in a piece to the graph as one block. This bounds the Python strings
# and arrays each holds at once.
TEXT_BLOCK = 4096
# The line breaks str.splitlines knows besides "\n"; no node key or factor kind
# may hold one.
LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@dataclass(frozen=True)
class BPConfig:
    """Knobs for loopy BP on the synchronous (flooding) schedule.

    Undamped by default: on the paper-scale synthetic world it converges in
    about half the iterations damping 0.5 needs, which mostly stop at the cap.
    """

    max_iterations: int = 100
    convergence_eps: float = 1e-5
    damping: float = 0.0

    def __post_init__(self):
        if not isinstance(self.max_iterations, Integral) or isinstance(self.max_iterations, bool):
            raise ValueError(f"max_iterations must be an int, not {self.max_iterations!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if isinstance(self.convergence_eps, bool) or not (0 < self.convergence_eps < math.inf):  # nan fails too
            raise ValueError(f"convergence_eps must be finite and > 0, not {self.convergence_eps!r}")
        if isinstance(self.damping, bool) or not (0.0 <= self.damping < 1.0):
            raise ValueError(f"damping must lie in [0, 1), not {self.damping!r}")


class FactorGraph:
    """Mutable container of 3-valued variables and positive factors.

    Variables are identified by dense integer ids in insertion order; each
    carries an arbitrary hashable node key (e.g. a NodeRef). Factor ids are
    dense in insertion order too.
    """

    def __init__(self):
        self._nodes: list[Hashable] = []
        self._var_of: dict[Hashable, int] = {}
        self.kinds: list[str] = []  # kind id -> name
        self.bank: list[np.ndarray] = []  # table id -> distinct binary table (read-only)
        self._kinds: dict[str, int] = {}
        self._bank: dict[bytes, int] = {}  # binary table bytes -> table id
        # Chunks of factor columns (kind id, scope, table id) and unary rows,
        # joined on read. scope[:, 1] is -1 for a unary factor, whose table id
        # indexes the unary rows; a binary factor's indexes the bank.
        none = np.zeros(0, np.int64)
        self._chunks = [(none, none.reshape(0, 2), none, np.zeros((0, N_VALUES)))]
        self._n_factors = self._n_rows = 0

    # -- variables --

    def add_variable(self, node: Hashable) -> int:
        vid = len(self._nodes)
        if self._var_of.setdefault(node, vid) != vid:
            raise ValueError(f"variable {node!r} already exists")
        self._nodes.append(node)
        return vid

    def has_variable(self, node: Hashable) -> bool:
        return node in self._var_of

    def node_of(self, var_id: int) -> Hashable:
        return self._nodes[var_id]

    @property
    def n_variables(self) -> int:
        return len(self._nodes)

    # -- factors --

    def add_factor(self, scope: Sequence[int], table, kind: str = "generic") -> int:
        scope = tuple(int(v) for v in scope)
        table = np.asarray(table, dtype=float)
        if len(scope) not in (1, 2) or table.shape != (N_VALUES,) * len(scope):
            raise ValueError(f"a table of shape {table.shape} does not fit scope {scope}")
        tables = {"unary_tables" if len(scope) == 1 else "binary_tables": [table]}
        return self.add_factors([kind], [0], [scope if len(scope) == 2 else (scope[0], -1)], [0], **tables)[0]

    def add_factors(self, kinds, kind_ids, scopes, table_ids, unary_tables=(), binary_tables=()) -> range:
        """Append factors in bulk; returns their ids.

        Factor i has kind ``kinds[kind_ids[i]]`` and scope ``scopes[i]`` (N x 2,
        -1 in column 1 for a unary factor). Its table is ``unary_tables[table_ids[i]]``
        (3 values) if unary, else ``binary_tables[table_ids[i]]`` (3x3), which the
        bank keeps once however many factors share it. Raises ValueError naming
        the first factor with an unknown kind, variable or table, a binary
        scope whose two ends are one variable, or a table that is not finite and strictly positive.
        """
        kind_ids, table_ids = (np.array(ids, dtype=np.int64).reshape(-1) for ids in (kind_ids, table_ids))
        scopes = np.array(scopes, dtype=np.int64).reshape(-1, 2)
        rows = np.array(unary_tables, dtype=float).reshape(-1, N_VALUES)
        tables = np.array(binary_tables, dtype=float).reshape(-1, N_VALUES, N_VALUES)
        unary = scopes[:, 1] == -1

        def check(reason: str, bad: np.ndarray) -> None:
            if bad.any():
                raise ValueError(f"factor {int(np.argmax(bad))} of the batch: {reason}")

        check("unknown kind", (kind_ids < 0) | (kind_ids >= len(kinds)))
        check("unknown variable", (scopes[:, 0] < 0) | (scopes[:, 1] < -1) | (scopes >= self.n_variables).any(axis=1))
        check("both ends are one variable", scopes[:, 0] == scopes[:, 1])
        check("unknown table", (table_ids < 0) | (table_ids >= np.where(unary, len(rows), len(tables))))
        valid = np.concatenate([(rows > 0).all(axis=1), (tables > 0).all(axis=(1, 2))])
        valid &= np.concatenate([np.isfinite(rows).all(axis=1), np.isfinite(tables).all(axis=(1, 2))])
        check("table not finite and strictly positive", ~valid[np.where(unary, table_ids, len(rows) + table_ids)])

        kind_map = np.array([self._kinds.setdefault(k, len(self._kinds)) for k in kinds] + [0])
        self.kinds = list(self._kinds)
        keys = [t.tobytes() for t in tables]
        self.bank += [np.frombuffer(k).reshape(N_VALUES, N_VALUES) for k in dict.fromkeys(keys) if k not in self._bank]
        bank_map = np.array([self._bank.setdefault(k, len(self._bank)) for k in keys] + [0])
        stored = np.where(unary, self._n_rows + table_ids, bank_map[np.where(unary, -1, table_ids)])
        self._chunks.append((kind_map[kind_ids], scopes, stored, rows))
        self._n_rows += len(rows)
        self._n_factors += len(scopes)
        return range(self._n_factors - len(scopes), self._n_factors)

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only factor arrays: kind ids (F,), scopes (F, 2), table ids
        (F,) and the unary rows (U, 3); see ``__init__``."""
        if len(self._chunks) > 1:
            self._chunks = [tuple(np.concatenate(parts) for parts in zip(*self._chunks))]
            for array in self._chunks[0]:
                array.flags.writeable = False
        return self._chunks[0]


# -- full inference --


@dataclass
class BPResult:
    marginals: np.ndarray  # (n_variables, 3), rows normalized
    converged: bool
    iterations: int
    residuals: list[float]  # per iteration, the largest change of any message

    def belief(self, var_id: int) -> np.ndarray:
        return self.marginals[var_id]


def _log_sums(variables: np.ndarray, logs: np.ndarray, low: int, high: int) -> tuple:
    """``(low, high, sums)``: per value, the sum of the (3, k) value-major
    ``logs`` of each of their ``variables``, which lie in [low, high), in
    column order; with :func:`_add_logs`, the one order of every
    per-variable sum of logs in BP."""
    return low, high, [np.bincount(variables, logs[value], high)[low:] for value in range(N_VALUES)]


def _add_logs(totals: np.ndarray, low: int, high: int, sums: list) -> None:
    """Add :func:`_log_sums`' ``sums`` for [low, high) into the (3, n) ``totals``."""
    for value, row in enumerate(sums):
        totals[value, low:high] += row


def _normalize(messages: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Divide each column of the value-major ``messages`` by its sum
    ``(m0 + m1) + m2``, in place, summing into ``out`` if given; return them."""
    total = np.add(messages[0], messages[1], out=out)
    messages /= np.add(total, messages[2], out=total)
    return messages


def run_bp(graph: FactorGraph, config: BPConfig = BPConfig()) -> BPResult:
    """Synchronous sum-product, damped by ``config.damping``, until every
    message changes by less than eps.

    Non-convergence is reported through the flag, not raised; marginals at
    the final iteration are returned either way. A belief that is not finite
    (from a table whose entries span so many orders of magnitude that a
    message underflows to 0) raises ValueError naming the first such
    variable. Unary-factor messages are constant (the normalized potential)
    and sent exactly from the start, so damping only touches binary-factor
    messages. :class:`_Frozen` holds BP's state; its ``sweep`` is one iteration.

    With two blocks or more and two CPUs, run_bp forks a worker that owns
    half of the blocks and runs this loop too, with every sum in the one
    process's order (see :class:`_Frozen`). The worker never returns from
    run_bp. The parent reaps it on every path, killing it first if the run
    fails; a worker that dies makes the parent raise RuntimeError.

    Undamped, a factor whose two ends are clamped is frozen. A variable is
    clamped when exactly one entry of its scaled total s is at least
    delta = 2**-56 / rho / rho, where rho >= 1 is the largest max/min ratio
    of a bank table (a rho so large that delta underflows to 0 clamps
    nothing); that entry is its argmax a, where s_a = 1. Then both sums of a
    factor update round away what lies below delta, so a factor with table
    T whose other end is clamped at a sends exactly ``T[:, a]`` (slot 0;
    ``T[a, :]`` for slot 1) normalized by :func:`_normalize`:

    - The message m the factor last sent the variable is uniform or a
      normalized mix of T's columns, so m_a / m_j <= rho. The
      variable-to-factor message normalizes s / m: with eps = 2**-53, its
      two small terms s_j / m_j < delta * rho / m_a together stay below
      2**-55 * (1 + eps)**2 / m_a, less than half an ulp of the rounded
      1 / m_a (more than 2**-54 * (1 - eps) / m_a). The sum rounds to
      1 / m_a, the argmax entry of the message is exactly 1, and each other
      entry is below delta * rho * (1 + eps)**3 = 2**-56 / rho * (1 + eps)**3.
    - The factor-to-variable message is T times that message: T[i, a] * 1
      is exact, and each of the two other products is below
      max(T) / rho * 2**-56 * (1 + eps)**4 <= min(T) * 2**-56 * (1 + eps)**4.
      In any order of summation, and with or without fused multiply-adds,
      they add less than half an ulp of T[i, a] (more than min(T) * 2**-54),
      so the sum is exactly T[i, a].

    A variable is steady when it is clamped at the same argmax in an
    iteration and the one before; a factor with two steady ends sent the
    constants in both. After an iteration in which live factors with two
    steady ends reach BP_FREEZE of all binary factors, they are frozen. Each
    block is compacted to its live factors, in their order, so a variable
    with no frozen factor sums its logs exactly as before; the logs of the
    frozen factors' constant messages are summed once into each variable's
    starting total, again whenever the frozen set changes. At the start of
    each later iteration and after the last, a frozen factor with an end no
    longer clamped at the argmax it froze at returns to its block, holding
    the constants as its factor-to-variable messages and, as its
    variable-to-factor messages, those of the previous iteration, recomputed
    from that iteration's scaled totals (so the residual counts their change
    exactly), and every total is summed again.

    What freezing can move: a variable with frozen factors sums its logs in
    another order. While it stays clamped at the argmax it froze at, that
    moves only entries of its scaled total below delta, so entries of its
    messages below 2**-55; once it does not, it has no frozen factor left,
    and its totals are summed again in the sweep's order before they are
    used, and so are the last totals. Every other message is computed from
    the same numbers in the same order, and a frozen factor's skipped
    messages only change below 2**-55. So with ``convergence_eps`` >=
    2**-55 the iterations are the same, and so is every residual but a last
    one below 2**-55; every belief is the same but for a clamped variable's
    entries below delta. A damped run freezes nothing.
    """
    bp = _Frozen(graph, config.damping)
    try:
        bp.fork()
        residuals: list[float] = []
        for _ in range(config.max_iterations):
            bp.release()
            residuals.append(bp.sweep())
            if residuals[-1] < config.convergence_eps:
                break
            if not config.damping:
                bp.freeze()
        bp.release()
    except BaseException as error:
        bp.end(error)
        raise
    bp.end()
    marginals = _normalize(bp.scaled).T
    for var in np.flatnonzero(~np.isfinite(marginals).all(axis=1))[:1].tolist():
        raise ValueError(
            f"belief of variable {var} ({graph.node_of(var)!r}) is not finite: "
            "a table's range underflows the messages"
        )
    converged = residuals[-1] < config.convergence_eps
    return BPResult(marginals, converged, len(residuals), residuals)


class _Frozen:
    """The state of one :func:`run_bp` run: the messages of the live binary
    factors, the totals, the factors it has frozen, and what it needs to
    return frozen factors to their blocks.

    Binary factors are ordered by bank table and cut into blocks of at most
    BP_BLOCK. Each block keeps its messages in two value-major ``(3, 2k)``
    arrays, ``f2v`` and ``v2f`` by direction: column e < k is slot 0 of its
    factor e and column k + e its slot 1. Arrays of one block's size fit in
    memory the build freed, where two graph-sized arrays would each take new
    pages. Each variable's total (its unary term plus the log of every
    incoming message) stays in the log domain. An iteration exponentiates
    the totals once, shifted so each variable's largest value is 1, then
    updates BP_BLOCK factors at a time: a variable-to-factor message is the
    scaled total divided by the edge's own incoming message, and each run of
    factors that shares a bank table is marginalized against that one 3x3
    table. The logs of the fresh factor-to-variable messages are summed into
    the next iteration's totals block by block.

    It holds per block a bool mask of its live factors and their layout in
    ``live``; per variable its clamp (int8), whether that clamp is steady
    (bool) and the argmax its frozen factors froze at (``held``, -1 for
    none); the totals, their last scaling and the starting totals. Every
    factor starts live, and nothing is held until the first freeze.

    :meth:`fork` forks a worker if there are two blocks or more and two
    CPUs (``os.sched_getaffinity``). The parent owns the first half of the
    blocks (rounded up), the worker the rest; alone, one process owns all.
    A process holds and updates the messages of its own blocks only (None
    for the other's); all else is held, and evolves the same, in both. The
    totals are summed in :meth:`_gather` in the one process's order, so
    every number is bit for bit as one process computes it. The worker
    never returns: it ends in ``os._exit``, also once the parent's end of
    the pipe closes.
    """

    def __init__(self, graph: FactorGraph, damping: float):
        n = graph.n_variables
        if n == 0:
            raise ValueError("graph has no variables")
        _, scope, table, rows = graph.columns()
        unary = scope[:, 1] == -1
        # Constant per-variable log contribution from unary factors.
        base = np.zeros((N_VALUES, n))
        logs = np.log(rows / rows.sum(axis=1, keepdims=True))[table[unary]].T
        _add_logs(base, *_log_sums(scope[unary, 0], logs, 0, n))
        binary = np.flatnonzero(~unary)
        binary = binary[np.argsort(table[binary], kind="stable")]
        tids, b = table[binary], len(binary)
        edge_var = np.concatenate([scope[binary, 0], scope[binary, 1]])
        # Blocks of at most BP_BLOCK factors, each cut into runs that share a bank table.
        starts = np.flatnonzero(np.diff(tids, prepend=-1))
        blocks = []
        for lo in range(0, b, BP_BLOCK):
            hi = min(lo + BP_BLOCK, b)
            cuts = [lo, *starts[(starts > lo) & (starts < hi)].tolist(), hi]
            blocks.append((lo, hi, [(s - lo, e - lo, int(tids[s])) for s, e in zip(cuts, cuts[1:])]))
        del logs, binary, tids, starts  # of the layout, only edge_var and the blocks outlive set-up
        self.damping, self.worker, self.link, self.pending = damping, None, (), []
        ratio = max((float(t.max()) / float(t.min()) for t in graph.bank), default=1.0)
        self.delta = 2.0**-56 / ratio / ratio  # ratio**2 would raise OverflowError
        # messages[t, 0][:, a] is what table t sends its slot-0 end while the
        # slot-1 end is clamped at a, normalized as the sweep's messages are;
        # messages[t, 1] likewise for slot 1.
        messages = [(_normalize(t.copy()), _normalize(t.T.copy())) for t in graph.bank]
        self.messages = np.reshape(messages, (-1, 2, N_VALUES, N_VALUES))
        self.bank, self.blocks, self.edge_var, self.base = graph.bank, blocks, edge_var, base
        self.start = base  # base plus the logs of the frozen factors' messages
        # Per block, its live factors: a read-only all-True view until freeze
        # copies it to clear some, since allocated masks would raise BP's peak.
        self.masks = [np.broadcast_to(True, hi - lo) for lo, hi, _ in blocks]
        # Per block, the runs (start, end, table) and the two end variables of
        # its live factors, and the span of variable ids each end takes.
        self.live: list = [None] * len(blocks)
        for j in range(len(blocks)):
            self._relayout(j)
        # Per variable, the argmax of its clamp (-1: none), and whether it was
        # clamped at the same argmax in the iteration before (steady).
        self.clamped = np.full(n, -1, np.int8)
        self.steady = np.zeros(n, bool)
        self.grew = False  # whether a variable became steady in this iteration
        self.held, self.scaled = self.clamped.copy(), None
        self.totals = base + np.log(1.0 / N_VALUES) * np.bincount(edge_var, minlength=n)

    def fork(self) -> None:
        """Fork the worker if there are two blocks and two CPUs for it; then
        allocate the messages and scratch of this process's blocks."""
        half = len(self.blocks)
        if half > 1 and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1:
            half = (half + 1) // 2
            self.shared = np.frombuffer(mmap.mmap(-1, 8 * (self.base.size + 1)), float)
            down, up = os.pipe(), os.pipe()  # (read, write) to the worker, and to the parent
            self.link = (*down, *up)  # for end to close, should the fork fail
            for stream in filter(None, (sys.stdout, sys.stderr)):
                stream.flush()
            self.worker = os.fork()
            keep = (up[0], down[1]) if self.worker else (down[0], up[1])  # (read, write)
            for fd in set(self.link) - set(keep):
                os.close(fd)
            self.link = keep
        mine = range(half) if self.worker != 0 else range(half, len(self.blocks))
        self.f2v = [np.full((N_VALUES, 2 * (hi - lo)), 1.0 / N_VALUES) if j in mine else None
                    for j, (lo, hi, _) in enumerate(self.blocks)]  # fmt: skip
        self.v2f = [None if block is None else block.copy() for block in self.f2v]
        self.new, self.row = np.empty((N_VALUES, BP_BLOCK)), np.empty(BP_BLOCK)  # scratch
        self.blend = np.empty((N_VALUES, BP_BLOCK)) if self.damping else None

    def end(self, error: Optional[BaseException] = None) -> None:
        """In the worker, exit, with status 1 after an ``error``. In the
        parent, reap the worker, killed first after an error, and raise if
        it exited with another status than 0."""
        failed = error is not None
        if self.worker == 0:
            try:
                if failed:
                    traceback.print_exception(error)
                    sys.stderr.flush()
            finally:
                os._exit(int(failed))
        for fd in self.link:
            os.close(fd)
        self.link = ()
        if self.worker:
            pid, self.worker = self.worker, None
            if failed:
                os.kill(pid, signal.SIGKILL)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if status and not failed:
                raise RuntimeError(f"BP worker process {pid} exited with status {status}")

    def _add(self, variables: np.ndarray, logs: np.ndarray, low: int, high: int) -> None:
        """Add one slot of a block's logs into the totals; the worker holds
        their sums until :meth:`_gather` has the parent's."""
        sums = _log_sums(variables, logs, low, high)
        if self.worker == 0:
            self.pending.append(sums)
        else:
            _add_logs(self.totals, *sums)

    def _gather(self, delta: float) -> float:
        """Complete the totals: the parent hands on its totals, which hold
        its blocks' logs, and the worker adds its held sums onto them in
        block order and hands them back. Return the largest change of both."""
        if self.worker is None:  # one process owns every block
            return delta
        totals = self.shared[:-1].reshape(self.totals.shape)
        if self.worker:
            totals[:], self.shared[-1] = self.totals, delta
            try:
                os.write(self.link[1], b"+")
                done = os.read(self.link[0], 1)
            except BrokenPipeError:  # the worker is gone
                done = b""
            if not done:
                self.end()  # raises, unless the worker exited with status 0
                raise RuntimeError("BP worker process exited before the run ended")
            self.totals[:] = totals
            return float(self.shared[-1])
        if not os.read(self.link[0], 1):  # the parent is gone
            os._exit(1)
        for sums in self.pending:
            _add_logs(totals, *sums)
        self.totals, self.pending = totals.copy(), []
        delta = self.shared[-1] = max(float(self.shared[-1]), delta)
        os.write(self.link[1], b"+")
        return delta

    def _scale(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The totals exponentiated, shifted so each variable's largest value is 1."""
        return np.exp(self.totals - self.totals.max(axis=0), out=out)

    def _update(self, old: np.ndarray, cols: slice, raw: np.ndarray) -> float:
        """Normalize ``raw``, damp it into ``old[:, cols]``; return the largest change."""
        k = raw.shape[1]
        _normalize(raw, self.row[:k])
        if self.damping:  # at 0 the blend would leave raw bit-identical
            raw *= 1.0 - self.damping
            raw += np.multiply(old[:, cols], self.damping, out=self.blend[:, :k])
        change = np.subtract(raw, old[:, cols], out=old[:, cols])  # old is overwritten next
        largest = max(change.max(), -change.min())
        old[:, cols] = raw
        return largest

    def sweep(self) -> float:
        """One flooding iteration over the live blocks from :meth:`release`'s
        scaled totals; returns the largest change of any message."""
        scaled, self.totals = self.scaled, self.start.copy()
        delta = 0.0
        for (runs, first, second, spans), to_var, to_factor in zip(self.live, self.f2v, self.v2f):
            k = len(first)
            if to_var is None or k == 0:  # the other process's block, or every factor is frozen
                continue
            raw = self.new[:, :k]
            slot0, slot1 = slice(0, k), slice(k, 2 * k)
            slots = ((slot0, slot1, first, False), (slot1, slot0, second, True))
            for cols, _, variables, _ in slots:
                # Variable -> factor: the product of every message the
                # variable receives, divided by the one this factor sent.
                for value in range(N_VALUES):
                    np.take(scaled[value], variables, out=raw[value])
                raw /= to_var[:, cols]
                delta = max(delta, self._update(to_factor, cols, raw))
            # Factor -> variable: marginalize the table against the message
            # arriving at the opposite slot.
            for (cols, opposite, variables, flip), (low, high) in zip(slots, spans):
                for s, e, table in runs:
                    np.matmul(table.T if flip else table, to_factor[:, opposite][:, s:e], out=raw[:, s:e])
                delta = max(delta, self._update(to_var, cols, raw))
                # raw holds what _update stored in to_var.
                self._add(variables, np.log(raw, out=raw), low, high)
        return self._gather(float(delta))

    def _clamp(self) -> None:
        hot = (self.scaled >= self.delta).view(np.int8)
        clamped = np.where(hot[0] + hot[1] + hot[2] == 1, hot[1] + 2 * hot[2], -1)
        steady = (clamped >= 0) & (clamped == self.clamped)
        self.grew = bool((steady > self.steady).any())
        self.clamped, self.steady = clamped, steady

    def _ends(self, j: int, cols) -> tuple[np.ndarray, np.ndarray]:
        lo, hi, _ = self.blocks[j]
        b = len(self.edge_var) // 2
        return self.edge_var[lo:hi][cols], self.edge_var[b + lo : b + hi][cols]

    def _constants(self, j: int, cols: np.ndarray, argmax: np.ndarray, slots=(0, 1)) -> np.ndarray:
        """The constant messages to ``slots`` of the factors ``cols`` of block
        j whose ends are clamped at ``argmax``: (3, m) per slot, side by side."""
        runs = self.blocks[j][2]
        tid = np.repeat([t for _, _, t in runs], [e - s for s, e, _ in runs])[cols]
        ends = self._ends(j, cols)
        return np.concatenate([self.messages[tid, slot, :, argmax[ends[1 - slot]]].T for slot in slots], axis=1)

    def _relayout(self, j: int) -> None:
        mask = self.masks[j]
        before = np.concatenate([[0], np.cumsum(mask)])  # live factors before each column
        runs = [(int(before[s]), int(before[e]), self.bank[t]) for s, e, t in self.blocks[j][2] if before[e] > before[s]]
        ends = self._ends(j, slice(None) if mask.all() else mask)  # an all-live block's ends are views
        spans = tuple((int(v.min()), int(v.max()) + 1) if len(v) else (0, 0) for v in ends)
        self.live[j] = (runs, *ends, spans)

    def _refresh(self) -> None:
        """Recompute ``held`` and ``start`` from the frozen set."""
        n = self.base.shape[1]
        self.held = np.full(n, -1, np.int8)
        self.start = self.base.copy()
        for j, mask in enumerate(self.masks):
            if mask.all():
                continue
            cols = np.flatnonzero(~mask)
            for slot, variables in enumerate(self._ends(j, cols)):
                self.held[variables] = self.clamped[variables]
                logs = np.log(self._constants(j, cols, self.clamped, (slot,)))
                _add_logs(self.start, *_log_sums(variables, logs, 0, n))

    def release(self) -> None:
        """Scale the totals, clamp each variable by them, and return to their
        blocks the frozen factors with an end that is no longer clamped at
        the argmax it froze at; then sum the totals and scale them again, as
        the sweep does. A moved variable has no frozen factor left, so its
        totals are exactly the sweep's with every factor live."""
        previous, self.scaled = self.scaled, self._scale()
        self._clamp()
        moved = (self.held >= 0) & (self.clamped != self.held)
        if not moved.any():
            return
        for j, (lo, hi, _) in enumerate(self.blocks):
            mask = self.masks[j]
            back = ~mask & np.logical_or(*(moved[ends] for ends in self._ends(j, slice(None))))
            if not back.any():
                continue
            if self.f2v[j] is not None:  # a block of this process's
                # What the sweep would hold for them now: the constant messages,
                # and the variable-to-factor messages of the last iteration,
                # computed the sweep's way from its scaled totals.
                cols = np.flatnonzero(back)
                sent = self._constants(j, cols, self.held)
                heard = _normalize(np.concatenate([previous[:, ends] for ends in self._ends(j, cols)], axis=1) / sent)
                old, kept = np.concatenate([mask, mask]), np.concatenate([mask | back, mask | back])
                for arrays, values in ((self.f2v, sent), (self.v2f, heard)):
                    full = np.empty((N_VALUES, 2 * (hi - lo)))
                    full[:, old], full[:, np.concatenate([back, back])] = arrays[j], values
                    arrays[j] = full[:, kept]
            mask |= back
            self._relayout(j)
        self._refresh()
        self.totals[:] = self.start
        for (_, first, second, spans), to_var in zip(self.live, self.f2v):
            if to_var is not None:
                for variables, logs, (low, high) in zip((first, second), np.hsplit(np.log(to_var), 2), spans):
                    self._add(variables, logs, low, high)
        self._gather(0.0)
        self._scale(out=self.scaled)

    def freeze(self) -> None:
        """Freeze the live factors whose ends are both steady, once they are
        BP_FREEZE of all binary factors. Their factor-to-variable messages
        were the constants in this iteration and the one before, as the
        frozen factors' always are."""
        if not self.grew:  # then no live factor became freezable
            return
        counts = [np.count_nonzero(self.steady[first] & self.steady[second]) for _, first, second, _ in self.live]
        if sum(counts) == 0 or sum(counts) < BP_FREEZE * len(self.edge_var) / 2:
            return
        # Blocks that keep the fewest live factors go first: they free more
        # than their compacted arrays take, which bounds the peak.
        for j in sorted(np.flatnonzero(counts).tolist(), key=lambda j: len(self.live[j][1]) - counts[j]):
            _, first, second, _ = self.live[j]
            frozen = self.steady[first] & self.steady[second]
            if self.f2v[j] is not None:  # a block of this process's
                keep = np.concatenate([~frozen, ~frozen])
                self.f2v[j], self.v2f[j] = self.f2v[j][:, keep], self.v2f[j][:, keep]
            mask = self.masks[j] = self.masks[j].copy()  # writable, even where it was a view
            mask[np.flatnonzero(mask)[frozen]] = False
            self._relayout(j)
        self._refresh()


def exact_marginals(graph: FactorGraph) -> np.ndarray:
    """Exact marginals by full joint enumeration; testing oracle.

    Rejects graphs with more than ``ENUMERATION_CAP`` variables (3^12 joint states).
    """
    n = graph.n_variables
    if n == 0:
        raise ValueError("graph has no variables")
    if n > ENUMERATION_CAP:
        raise ValueError(f"{n} variables exceed the enumeration cap of {ENUMERATION_CAP}")
    _, scope, table, rows = graph.columns()
    log_joint = np.zeros((N_VALUES,) * n)
    for (a, b), t in zip(scope.tolist(), table.tolist()):
        values = np.log(rows[t] if b == -1 else graph.bank[t].T if a > b else graph.bank[t])
        log_joint = log_joint + values.reshape([N_VALUES if v in (a, b) else 1 for v in range(n)])
    joint = np.exp(log_joint - log_joint.max())  # the likeliest state weighs 1
    marginals = np.empty((n, N_VALUES))
    for v in range(n):
        p = joint.sum(axis=tuple(i for i in range(n) if i != v))
        marginals[v] = p / p.sum()
    return marginals


# -- dump / load (graph.txt of `physrel build` and `physrel infer`, golden tests) --


def dump_graph(graph: FactorGraph) -> str:
    """Line-oriented text form, one variable or factor per line: :func:`graph_text`'s pieces joined."""
    return "".join(graph_text(graph))


def graph_text(graph: FactorGraph) -> Iterator[str]:
    """:func:`dump_graph`'s text in pieces: the variable lines, then each ``TEXT_BLOCK``
    factor lines, formatted only when the iterator reaches them.

    Node keys are rendered with str(); loading reconstructs them as strings. A node
    key or a factor's kind holding a tab or a line break ``str.splitlines`` knows
    raises ValueError at the call, before any piece. Identical graphs dump byte-identically.
    """
    kind, scope, table, rows = graph.columns()
    n = graph.n_variables
    variables = "".join(f"var\t{vid}\t{graph.node_of(vid)}\n" for vid in range(n))
    # A key or kind holding a tab or a line break would dump to a text that load_graph rejects or misreads.
    if variables.count("\t") != 2 * n or variables.count("\n") != n or any(c in variables for c in LINE_BREAKS):
        keys = map(str, map(graph.node_of, range(n)))
        vid, key = next((v, k) for v, k in enumerate(keys) if _breaks(k))
        raise ValueError(f"variable {vid}: node key {key!r} holds a tab or a line break")
    # Each block of factor lines is formatted by one %-operation over its
    # interleaved fields, so only one block's fields are held as Python
    # objects at a time. The texts around the ids are looked up, not formatted
    # per line: the kind, the second scope id ("" for a unary factor, whose
    # -1 indexes the last entry) and a binary factor's values; a unary
    # factor's are formatted with its block, from its row, by one more %-operation.
    kind_text = [f"\t{k}\t" for k in graph.kinds]
    bad = np.array([_breaks(text[1:-1]) for text in kind_text], bool)[kind]
    if bad.any():
        fid = int(np.argmax(bad))
        raise ValueError(f"factor {fid}: kind {graph.kinds[kind[fid]]!r} holds a tab or a line break")
    second_text = [f",{v}" for v in range(n)] + [""]
    bank_text = [f"\t{' '.join(map(repr, t.ravel().tolist()))}\n" for t in graph.bank]
    def pieces():  # a generator, so the checks above run at the call
        yield variables
        for lo in range(0, len(kind), TEXT_BLOCK):
            hi = min(lo + TEXT_BLOCK, len(kind))
            unary = scope[lo:hi, 1] == -1
            ids = table[lo:hi][unary]
            # The value texts of the block's unary factors, in factor order, then the bank's.
            texts = (("\t%r %r %r\n" * len(ids)) % tuple(rows[ids].ravel().tolist())).splitlines(True) + bank_text
            value_of = np.where(unary, np.cumsum(unary) - 1, len(ids) + table[lo:hi])
            fields = [None] * (5 * (hi - lo))
            fields[0::5] = range(lo, hi)
            fields[1::5] = map(kind_text.__getitem__, kind[lo:hi].tolist())
            fields[2::5] = scope[lo:hi, 0].tolist()
            fields[3::5] = map(second_text.__getitem__, scope[lo:hi, 1].tolist())
            fields[4::5] = map(texts.__getitem__, value_of.tolist())
            yield ("factor\t%d%s%d%s%s" * (hi - lo)) % tuple(fields)
    return pieces()


def _breaks(text: str) -> bool:
    """Whether ``text`` holds a tab or a line break ``str.splitlines`` knows."""
    return any(c in text for c in "\t\n" + LINE_BREAKS)


def load_graph(text: str) -> FactorGraph:
    """Parse :func:`dump_graph` output, adding each block of factor records to the graph as it is parsed.

    Lines are split as ``str.splitlines`` splits them. Blank, whitespace-only
    and ``#`` lines are skipped. A record is ``var<TAB>id<TAB>node`` or
    ``factor<TAB>id<TAB>kind<TAB>scope<TAB>values``, and its id must be its
    position among the records of its type. A scope is one or two
    comma-separated variable ids, each as ``int()`` reads it, of variables
    defined on earlier lines, two of them distinct. Values are 3 (unary) or 9 (binary)
    whitespace-separated ``float()`` texts, all finite and positive. A node may appear
    only once. Malformed input raises ValueError naming its first bad line.
    """
    graph = FactorGraph()
    # All that one block leaves to the next: each kind's id, in first-seen order,
    # what each scope id text read (-1 if malformed) and the factor records added.
    kinds, ids, n = {}, {}, 0
    # The text is split into lines one piece at a time, so only one piece's
    # lines are held at once. A piece is about TEXT_BLOCK dumped lines long
    # and ends just after a "\n", which no line break str.splitlines knows
    # spans; its lines are therefore those text.splitlines() gives there.
    pos, first = 0, 1  # the piece's start in text, and the number of its first line
    while pos < len(text):
        end = text.find("\n", pos + 64 * TEXT_BLOCK) + 1 or len(text)
        lines = text[pos:end].splitlines()
        # Each run of consecutive factor records is parsed as one block; every
        # other line is a variable, skipped, or malformed.
        is_factor = np.fromiter(map(str.startswith, lines, repeat("factor\t")), bool, len(lines))
        edges = np.flatnonzero(np.diff(is_factor, prepend=False, append=False)).tolist()
        at = 0  # lines before ``at`` are parsed; the last (lo, hi) is an empty run after every line
        for lo, hi in zip(edges[0::2] + [len(lines)], edges[1::2] + [len(lines)]):
            for index in range(at, lo):
                line = lines[index]
                if not line.strip() or line.startswith("#"):
                    continue
                parts = line.split("\t")
                is_var = parts[0] == "var" and len(parts) == 3 and parts[1] == str(graph.n_variables)
                if not is_var or graph.has_variable(parts[2]):
                    raise ValueError(f"line {first + index}: malformed or duplicate record")
                graph.add_variable(parts[2])
            bad = _add_block(lines[lo:hi], graph, n, kinds, ids) if lo < hi else None
            if bad is not None:
                raise ValueError(f"line {first + lo + bad}: malformed or duplicate record")
            n, at = n + hi - lo, hi
        pos, first = end, first + len(lines)
    return graph


def _add_block(lines: list[str], graph: FactorGraph, n: int, kinds: dict, ids: dict) -> Optional[int]:
    """Add ``factor`` lines, the first numbered ``n``, to ``graph``; return the index of the first malformed one, if
    any. ``kinds`` and ``ids`` are :func:`load_graph`'s kind ids and scope id cache, updated here."""
    tabs = list(map(str.count, lines, repeat("\t")))
    k = len(lines) if tabs.count(4) == len(lines) else [t == 4 for t in tabs].index(False)
    # The columns of the first k lines, which all hold five fields.
    fields = "\t".join(lines[:k]).split("\t")
    numbers, kind_texts, scopes, values = fields[1::5], fields[2::5], fields[3::5], fields[4::5]
    del fields
    expected = list(map(str, range(n, n + k)))
    bad = np.zeros(k, bool) if numbers == expected else np.not_equal(numbers, expected)
    # The block's own unary and binary tables, in first-seen order; each
    # distinct value text's code is 4 * its table id + its arity, 0 if malformed.
    tables = ([], [])
    codes = {text: _table(text, tables) for text in dict.fromkeys(values)}
    code = np.fromiter(map(codes.__getitem__, values), np.int64, k)
    commas = np.fromiter(map(str.count, scopes, repeat(",")), np.int64, k)
    variables = _lookup(ids, ",".join(scopes).split(","), _variable_id)
    start = np.cumsum(commas + 1) - commas - 1  # the index of each line's first token
    a, b = variables[start], variables[start + np.minimum(commas, 1)]
    bad |= (code % 4 != commas + 1) | (np.minimum(a, b) < 0) | (np.maximum(a, b) >= graph.n_variables)
    b = np.where(commas, b, -1)  # -1 for a unary factor
    bad |= a == b
    if bad.any() or k < len(lines):
        return int(np.argmax(bad)) if bad.any() else k
    kind_ids = _lookup(kinds, kind_texts, lambda text: len(kinds))
    graph.add_factors(list(kinds), kind_ids, np.column_stack([a, b]), code // 4, *tables)
    return None


def _table(text: str, tables: tuple[list, list]) -> int:
    """Append the values ``text`` spells to ``tables``' list of their arity; return their code (see ``_add_block``)."""
    try:
        values = list(map(float, text.split()))
    except ValueError:
        return 0
    arity = _ARITY.get(len(values), 0)
    if not arity or not all(map((0.0).__lt__, values)) or math.inf in values:  # nan is not positive either
        return 0
    store = tables[arity - 1]
    store.append(values)
    return 4 * (len(store) - 1) + arity


_ARITY = {N_VALUES: 1, N_VALUES * N_VALUES: 2}  # table values -> arity


def _lookup(parsed: dict[str, int], texts: list[str], parse) -> np.ndarray:
    """``parsed[text]`` for each text, an int of at least -1, after storing
    ``parse(text)`` for each text not yet in ``parsed``, in first-seen order."""
    values = np.fromiter(map(parsed.get, texts, repeat(-2)), np.int64, len(texts))
    if (values == -2).any():
        for text in dict.fromkeys(texts):
            if text not in parsed:
                parsed[text] = parse(text)
        values = np.fromiter(map(parsed.__getitem__, texts), np.int64, len(texts))
    return values


def _variable_id(text: str) -> int:
    """The variable id ``int(text)`` reads; -1 if it reads none, or one no graph can have."""
    try:
        value = int(text)
    except ValueError:
        return -1
    return value if 0 <= value < 2**63 else -1
