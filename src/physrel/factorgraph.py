"""Discrete factor graph over 3-valued variables with loopy sum-product BP.

Variables all share the domain (GT, EQ, LT). Factors are unary or binary with
strictly positive tables. Inference runs a synchronous (flooding) schedule
with optional damping; products of incoming messages are accumulated in the
log domain so high-degree variables cannot underflow.

A full-enumeration oracle (:func:`exact_marginals`) is provided for small
graphs; sum-product marginals agree with it exactly on trees.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np
from scipy.special import logsumexp

from .core import N_VALUES, uniform_belief

ENUMERATION_CAP = 12


@dataclass(frozen=True)
class BPConfig:
    """Knobs for loopy BP on the synchronous (flooding) schedule."""

    max_iterations: int = 100
    convergence_eps: float = 1e-5
    damping: float = 0.5

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.convergence_eps <= 0:
            raise ValueError("convergence_eps must be > 0")
        if not (0.0 <= self.damping < 1.0):
            raise ValueError("damping must lie in [0, 1)")


@dataclass(frozen=True)
class Factor:
    id: int
    kind: str
    scope: tuple[int, ...]
    table: np.ndarray

    @property
    def arity(self) -> int:
        return len(self.scope)


class FactorGraph:
    """Mutable container of 3-valued variables and positive factors.

    Variables are identified by dense integer ids in insertion order; each
    carries an arbitrary hashable node key (e.g. a NodeRef).
    """

    def __init__(self):
        self._nodes: list[Hashable] = []
        self._var_of: dict[Hashable, int] = {}
        self.factors: list[Factor] = []
        self._adjacency: list[list[int]] = []

    # -- variables --

    def add_variable(self, node: Hashable) -> int:
        if node in self._var_of:
            raise ValueError(f"variable {node!r} already exists")
        vid = len(self._nodes)
        self._nodes.append(node)
        self._var_of[node] = vid
        self._adjacency.append([])
        return vid

    def variable(self, node: Hashable) -> int:
        return self._var_of[node]

    def has_variable(self, node: Hashable) -> bool:
        return node in self._var_of

    def node_of(self, var_id: int) -> Hashable:
        return self._nodes[var_id]

    @property
    def n_variables(self) -> int:
        return len(self._nodes)

    # -- factors --

    def add_factor(self, scope: Sequence[int], table, kind: str = "generic") -> int:
        table = np.asarray(table, dtype=float)
        scope = tuple(int(v) for v in scope)
        if len(scope) not in (1, 2):
            raise ValueError("factor arity must be 1 or 2")
        expected = (N_VALUES,) * len(scope)
        if table.shape != expected:
            raise ValueError(f"table shape {table.shape} does not match scope arity {len(scope)}")
        if not (table > 0).all():
            raise ValueError("potential tables must be strictly positive")
        for v in scope:
            if not 0 <= v < self.n_variables:
                raise ValueError(f"scope variable {v} does not exist")
        fid = len(self.factors)
        self.factors.append(Factor(fid, kind, scope, table))
        for v in scope:
            self._adjacency[v].append(fid)
        return fid

    def neighbors(self, var_id: int) -> list[int]:
        return list(self._adjacency[var_id])

    @property
    def n_factors(self) -> int:
        return len(self.factors)


# -- single message updates (reference semantics; run_bp vectorizes the same math) --


def message_var_to_factor(
    graph: FactorGraph,
    v: int,
    f: int,
    inbox: Mapping[tuple[int, int], np.ndarray],
) -> np.ndarray:
    """Normalized product of factor-to-variable messages from N(v) \\ {f}.

    ``inbox`` maps (factor_id, var_id) to the current factor-to-variable
    message; absent messages count as uniform. The empty product is uniform.
    """
    if f not in graph._adjacency[v]:
        raise ValueError(f"factor {f} is not a neighbor of variable {v}")
    log_p = np.zeros(N_VALUES)
    for other in graph._adjacency[v]:
        if other == f:
            continue
        msg = inbox.get((other, v))
        if msg is not None:
            log_p += np.log(np.asarray(msg, dtype=float))
    log_p -= logsumexp(log_p)
    return np.exp(log_p)


def message_factor_to_var(
    graph: FactorGraph,
    f: int,
    v: int,
    inbox: Mapping[tuple[int, int], np.ndarray],
) -> np.ndarray:
    """Marginalized belief about v from factor f and the other scope message.

    ``inbox`` maps (var_id, factor_id) to the current variable-to-factor
    message; absent messages count as uniform. A unary factor returns its
    normalized potential.
    """
    factor = graph.factors[f]
    if v not in factor.scope:
        raise ValueError(f"variable {v} is not in the scope of factor {f}")
    if factor.arity == 1:
        return factor.table / factor.table.sum()
    pos = factor.scope.index(v)
    other = factor.scope[1 - pos]
    msg = inbox.get((other, f))
    msg = uniform_belief() if msg is None else np.asarray(msg, dtype=float)
    if pos == 0:
        out = factor.table @ msg
    else:
        out = msg @ factor.table
    return out / out.sum()


# -- full inference --


@dataclass
class BPResult:
    marginals: np.ndarray  # (n_variables, 3), rows normalized
    converged: bool
    iterations: int

    def belief(self, var_id: int) -> np.ndarray:
        return self.marginals[var_id]


def run_bp(graph: FactorGraph, config: BPConfig = BPConfig()) -> BPResult:
    """Synchronous damped sum-product until message change < eps.

    Non-convergence is reported through the flag, not raised; marginals at
    the final iteration are returned either way. Unary-factor messages are
    constant (the normalized potential) and sent exactly from the start, so
    damping only touches binary-factor messages.
    """
    n = graph.n_variables
    if n == 0:
        raise ValueError("graph has no variables")

    # Constant per-variable log contribution from unary factors.
    base = np.zeros((n, N_VALUES))
    binary = [f for f in graph.factors if f.arity == 2]
    for f in graph.factors:
        if f.arity == 1:
            base[f.scope[0]] += np.log(f.table / f.table.sum())

    if not binary:
        marg = _normalize_rows_log(base)
        return BPResult(marg, True, 1)

    tables = np.stack([f.table for f in binary])  # (B, 3, 3)
    scopes = np.array([f.scope for f in binary])  # (B, 2)
    b = len(binary)

    f2v = np.full((b, 2, N_VALUES), 1.0 / N_VALUES)
    v2f = np.full((b, 2, N_VALUES), 1.0 / N_VALUES)
    flat_vars = scopes.ravel()
    d = config.damping

    converged = False
    iterations = 0
    for _ in range(config.max_iterations):
        iterations += 1
        # Variable -> factor: per-variable log-sum of all incoming messages,
        # minus each edge's own contribution (max-subtraction normalization).
        log_f2v = np.log(f2v)
        totals = base.copy()
        np.add.at(totals, flat_vars, log_f2v.reshape(-1, N_VALUES))
        raw = totals[flat_vars].reshape(b, 2, N_VALUES) - log_f2v
        raw -= raw.max(axis=2, keepdims=True)
        raw = np.exp(raw)
        raw /= raw.sum(axis=2, keepdims=True)
        new_v2f = (1.0 - d) * raw + d * v2f

        # Factor -> variable: marginalize the table against the message
        # arriving at the opposite slot.
        out0 = np.einsum("bxy,by->bx", tables, new_v2f[:, 1])
        out1 = np.einsum("bxy,bx->by", tables, new_v2f[:, 0])
        raw_f2v = np.stack([out0, out1], axis=1)
        raw_f2v /= raw_f2v.sum(axis=2, keepdims=True)
        new_f2v = (1.0 - d) * raw_f2v + d * f2v

        delta = max(
            np.abs(new_f2v - f2v).max(),
            np.abs(new_v2f - v2f).max(),
        )
        f2v, v2f = new_f2v, new_v2f
        if delta < config.convergence_eps:
            converged = True
            break

    totals = base.copy()
    np.add.at(totals, flat_vars, np.log(f2v).reshape(-1, N_VALUES))
    return BPResult(_normalize_rows_log(totals), converged, iterations)


def _normalize_rows_log(log_rows: np.ndarray) -> np.ndarray:
    shifted = log_rows - log_rows.max(axis=1, keepdims=True)
    p = np.exp(shifted)
    return p / p.sum(axis=1, keepdims=True)


def exact_marginals(graph: FactorGraph, cap: int = ENUMERATION_CAP) -> np.ndarray:
    """Exact marginals by full joint enumeration; testing oracle.

    Rejects graphs with more than ``cap`` variables (3^cap joint states).
    """
    n = graph.n_variables
    if n == 0:
        raise ValueError("graph has no variables")
    if n > cap:
        raise ValueError(f"{n} variables exceed the enumeration cap of {cap}")
    log_joint = np.zeros((N_VALUES,) * n)
    for f in graph.factors:
        table = np.log(f.table)
        if f.arity == 1:
            shape = [1] * n
            shape[f.scope[0]] = N_VALUES
            log_joint = log_joint + table.reshape(shape)
        else:
            a, b = f.scope
            if a > b:
                table = table.T
                a, b = b, a
            shape = [1] * n
            shape[a] = N_VALUES
            shape[b] = N_VALUES
            log_joint = log_joint + table.reshape(shape)
    marginals = np.empty((n, N_VALUES))
    for v in range(n):
        axes = tuple(i for i in range(n) if i != v)
        log_m = logsumexp(log_joint, axis=axes) if axes else log_joint
        log_m = log_m - log_m.max()
        p = np.exp(log_m)
        marginals[v] = p / p.sum()
    return marginals


# -- dump / load (debugging and golden tests) --


def dump_graph(graph: FactorGraph) -> str:
    """Line-oriented text form: one variable or factor per line.

    Node keys are rendered with str(); loading reconstructs them as strings.
    Identical graphs dump byte-identically.
    """
    lines = []
    for vid in range(graph.n_variables):
        lines.append(f"var\t{vid}\t{graph.node_of(vid)}")
    for f in graph.factors:
        scope = ",".join(str(v) for v in f.scope)
        values = " ".join(repr(float(x)) for x in f.table.ravel())
        lines.append(f"factor\t{f.id}\t{f.kind}\t{scope}\t{values}")
    return "\n".join(lines) + "\n"


def load_graph(text: str) -> FactorGraph:
    graph = FactorGraph()
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if parts[0] == "var":
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: malformed variable line")
            graph.add_variable(parts[2])
        elif parts[0] == "factor":
            if len(parts) != 5:
                raise ValueError(f"line {lineno}: malformed factor line")
            scope = [int(v) for v in parts[3].split(",")]
            values = np.array([float(x) for x in parts[4].split()])
            table = values if len(scope) == 1 else values.reshape(N_VALUES, N_VALUES)
            graph.add_factor(scope, table, kind=parts[2])
        else:
            raise ValueError(f"line {lineno}: unknown record {parts[0]!r}")
    return graph
