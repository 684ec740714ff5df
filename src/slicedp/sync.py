"""Synchronization mapping and the simulator / data-holder audit pair.

The mapping couples the noisy slice sizes of two neighboring executions so a
single step can absorb their difference. The simulator runs the slicing
session on one dataset while only querying the bit-holding side when the
differing element actually matters; holder-call counts and output
distributions are the executable form of the privacy argument, so this module
is the audit harness.
"""

import math
import os
import pickle
import signal
import traceback
from collections import Counter
from dataclasses import dataclass
from typing import (Any, Callable, Iterator, List, NamedTuple, NoReturn, Optional, Sequence,
                    Tuple)

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .engine import (RscSession, SliceComputation, as_elements, delayed_compute,
                     select_and_compute)
from .mechanisms import PrivacyBudget, geometric_pmf, sample_geometric

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), pool size 4
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_XSHIFT = 16
_MASK32 = 0xffffffff


def _int_words(value: int) -> List[int]:
    """SeedSequence's entropy words of one integer: little-endian 32-bit
    words, and [0] for 0."""
    if value < 0:
        raise ValueError(f"stream keys must be nonnegative, got {value}")
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _wrap(value):
    """Reduces a Python int mod 2^32; a uint32 array wraps by itself."""
    return value & _MASK32 if isinstance(value, int) else value


def _state_constants() -> Tuple[np.ndarray, np.ndarray]:
    # generate_state's 8 words: word i xors hash constant i, then multiplies
    # by hash constant i + 1
    consts = [_INIT_B]
    for _ in range(8):
        consts.append(consts[-1] * _MULT_B & _MASK32)
    return np.array(consts[:8], dtype=np.uint32), np.array(consts[1:], dtype=np.uint32)


_STATE_XOR, _STATE_MULT = _state_constants()


def _pcg64_seeds(entropy: list) -> np.ndarray:
    """`SeedSequence(entropy).generate_state(4, np.uint64)` for every row of
    the entropy columns at once: one (rows, 4) uint64 array. A column that
    is the same on every row may be a Python int; it stays one until it is
    mixed with an array, and at least one column must be an array."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = _wrap(value * hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _wrap(_wrap(_MIX_MULT_L * x) - _wrap(_MIX_MULT_R * y))
        return result ^ (result >> _XSHIFT)

    with np.errstate(over="ignore"):
        pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = mix(pool[dst], hashmix(word))
        # generate_state: 8 uint32 words cycling the pool, paired little-endian
        state = np.stack(pool * 2, axis=1) ^ _STATE_XOR
        state *= _STATE_MULT
        state ^= state >> _XSHIFT
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _KnownState(ISeedSequence):
    """A seed sequence whose PCG64 seed words are already computed."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only PCG64's seed request is known")
        return self.words


class TrialStreams:
    """The generators `np.random.default_rng([seed, *path, trial])` of every
    trial of a range, bit for bit; each pass yields fresh generators."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def __iter__(self) -> Iterator[np.random.Generator]:
        for words in self._words:
            yield np.random.Generator(np.random.PCG64(_KnownState(words)))


def trial_streams(seed: int, path: Sequence[int], trials: range) -> TrialStreams:
    """Per-trial streams keyed by (seed, path, trial), with SeedSequence's
    hashing run over the whole range at once instead of once per trial.

    Trials take one entropy word below 2^32 and two from there up to 2^64.
    """
    key = [w for part in (seed, *path) for w in _int_words(part)]
    ends = (trials[0], trials[-1]) if trials else (0, 0)
    if not (0 <= min(ends) and max(ends) < 1 << 64):
        raise ValueError(f"trial indices must lie in [0, 2^64), got {trials}")
    index = np.fromiter(trials, dtype=np.uint64, count=len(trials))
    words = np.empty((len(index), 4), dtype=np.uint64)
    low = index >> np.uint64(32) == 0
    for rows, width in ((low, 1), (~low, 2)):
        part = index[rows]
        if part.size:
            words[rows] = _pcg64_seeds(
                key + [(part >> np.uint64(32 * i)).astype(np.uint32) for i in range(width)])
    return TrialStreams(words)


class SyncOutcome(NamedTuple):
    alpha: int
    beta: int  # 1 = synchronized


class SyncDist(NamedTuple):
    outcomes: List[Tuple[Tuple[int, int], float]]  # ((alpha, beta), probability)
    tail: float  # aggregate mass on alpha > cutoff
    # ((alpha, beta), natural log of the probability), -inf for mass 0; far
    # out a probability underflows, but its log does not
    log_outcomes: List[Tuple[Tuple[int, int], float]]


def _check_epsilon(epsilon: float):
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")


def _check_bit(b: int):
    if b not in (0, 1):
        raise ValueError(f"b must be 0 or 1, got {b}")


def sync_threshold(epsilon: float, i: int) -> float:
    """t_i = max(0, e^{-i eps} + e^{-(i+1) eps} - 1); non-increasing, <= e^{-(i+1) eps}."""
    _check_epsilon(epsilon)
    if i < 0:
        raise ValueError(f"i must be nonnegative, got {i}")
    return max(0.0, math.exp(-i * epsilon) + math.exp(-(i + 1) * epsilon) - 1.0)


def sync_gamma(epsilon: float) -> int:
    """Smallest i with t_i = 0; beyond it the mapping synchronizes surely."""
    _check_epsilon(epsilon)
    i = 0
    while sync_threshold(epsilon, i) > 0.0:
        i += 1
    return i


def _stay_probability(b: int, m: int, epsilon: float) -> float:
    """Pr[beta = 0 | m]: e^-eps at m = 0 and t_m e^{m eps} for b = 0;
    t_m e^{(m+1) eps} for b = 1."""
    if b == 0 and m == 0:
        return math.exp(-epsilon)
    # t_m is 0 from gamma on, where e^{(m + b) eps} may overflow
    threshold = sync_threshold(epsilon, m)
    return threshold * math.exp((m + b) * epsilon) if threshold else 0.0


def sync_map(b: int, m: int, epsilon: float, rng: np.random.Generator) -> SyncOutcome:
    """Sample (alpha, beta) from R^b_eps(m).

    Support: b = 0 keeps alpha = m; b = 1 has alpha in {m, m-1} with
    alpha = m - 1 exactly when beta = 1.
    """
    _check_epsilon(epsilon)
    _check_bit(b)
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if b == 1 and m == 0:
        return SyncOutcome(0, 0)
    if rng.random() < _stay_probability(b, m, epsilon):
        return SyncOutcome(m, 0)
    return SyncOutcome(m - b, 1)


def sync_map_exact_dist(b: int, epsilon: float, cutoff: int) -> SyncDist:
    """Exact distribution of R^b_eps(Geom(1 - e^-eps)) up to alpha = cutoff.

    Outcomes with alpha > cutoff are aggregated into the tail mass;
    listed probabilities plus the tail sum to 1.
    """
    _check_epsilon(epsilon)
    gamma = sync_gamma(epsilon)
    if cutoff < gamma + 1:
        raise ValueError(f"cutoff must be at least gamma + 1 = {gamma + 1}, got {cutoff}")

    log_q = math.log(-math.expm1(-epsilon))
    out, logs = {}, {}
    # draw i lands on (i, 0) with the stay probability, else on (i - b, 1);
    # for b = 1 a draw of 0 always stays, and draw cutoff + 1 lists only
    # its move to (cutoff, 1)
    for i in range(cutoff + 1 + b):
        stay = 1.0 if b == 1 and i == 0 else _stay_probability(b, i, epsilon)
        for key, share in (((i, 0), stay), ((i - b, 1), 1.0 - stay)):
            if key[0] < 0 or key[0] > cutoff:
                continue
            out[key] = geometric_pmf(epsilon, i) * share
            logs[key] = log_q - i * epsilon + math.log(share) if share > 0.0 else -math.inf
    tail = math.exp(-(cutoff + 1 + b) * epsilon)
    return SyncDist(sorted(out.items()), tail, sorted(logs.items()))


@dataclass
class SimTranscript:
    published: list
    holder_calls: int
    holder_steps: List[int]
    final_status: int
    final_diff: Optional[int]


def _diff_and_rank(short: np.ndarray, long: np.ndarray) -> Tuple[int, int]:
    # first position where the mapped arrays disagree; the inserted element
    # sits there and all later positions shift by one
    if len(long) != len(short) + 1:
        raise ValueError("order map is not adjacency preserving: output sizes differ by "
                         f"{len(long) - len(short)}")
    differs = short != long[:-1]
    p0 = int(differs.argmax()) if len(short) else 0
    if not (len(short) and differs[p0]):
        p0 = len(short)  # the inserted element comes last
    elif not (short[p0:] == long[p0 + 1:]).all():
        raise ValueError("order map is not adjacency preserving: suffixes disagree")
    return long[p0], p0 + 1


class DataHolder:
    """Holds the private bit; answers slice queries and tries to synchronize.

    An order map is deterministic, so the holder's arrangement of the true
    dataset D + b·{x} is the one the simulator has already computed: a query
    gets the step's pair (map of D, map of D + {x}) and slices entry b,
    which only the holder reads. First-phase queries report
    (q_hat, beta, result); slices are stored by step for the delayed-compute
    phase.
    """

    def __init__(self, b: int, epsilon: float, rng: np.random.Generator):
        _check_epsilon(epsilon)
        _check_bit(b)
        self.b = b
        self.epsilon = epsilon
        self._rng = rng
        self.stored = {}

    def query(self, arrangements: Tuple[np.ndarray, np.ndarray], q: int,
              algorithm: Optional[Callable], step: int):
        if q < 0:
            raise ValueError(f"q must be nonnegative, got {q}")
        delta = sample_geometric(self.epsilon, self._rng)
        slice_part = self.stored[step] = arrangements[self.b][:q + delta]
        result = algorithm(slice_part) if algorithm else None
        alpha, beta = sync_map(self.b, delta, self.epsilon, self._rng)
        return q + alpha, beta, result


def _read_only(a: np.ndarray) -> np.ndarray:
    """A view of `a` that raises on writes; `a` itself keeps its flags."""
    view = a.view()
    view.flags.writeable = False
    return view


def _arrangement(order_map, current: np.ndarray, diff):
    """One step's arrangement: (map of D, map of D + {diff}, (x', p)).

    D is the simulator's current data and diff the live differing element.
    From synchronization on (diff None) only D is mapped, and the rest is
    None; (x', p) is None too when the map eliminates the differing element.
    """
    mapped = order_map.apply(current)
    if diff is None:
        return mapped, None, None
    with_x = np.empty(len(current) + 1, dtype=np.uint64)
    with_x[:-1] = current
    with_x[-1] = diff
    mapped_with = order_map.apply(with_x)
    if mapped.shape == mapped_with.shape and (mapped == mapped_with).all():
        return mapped, mapped_with, None
    return mapped, mapped_with, _diff_and_rank(mapped, mapped_with)


class Simulation:
    """The simulator of one session on (data, data + {x}), built once and
    run for any number of trials.

    The constructor checks the inputs and computes step 0's arrangement:
    the map of `data`, the map of `data + {x}` and where they differ. An
    order map is deterministic and every trial starts from the same data,
    so that arrangement is the same in every trial, and each trial starts
    from it instead of mapping again. The shared arrays are read-only: an
    algorithm or delayed request that writes into a slice of them raises
    `ValueError` instead of changing later trials. A trial draws only from
    the generator it is given.

    `data` must be 1-D, x one element and the script nonempty; anything else
    is a ValueError, as is a step-0 map that does not preserve adjacency.
    """

    def __init__(self, data, x: int, script: Sequence[SliceComputation], epsilon: float):
        if not script:
            raise ValueError(f"tau must be at least 1, got {len(script)}")
        _check_epsilon(epsilon)
        x_elem = as_elements(x, 64)
        if x_elem.ndim:
            raise ValueError(f"x must be one element, got an array of shape {x_elem.shape}")
        elements = as_elements(data, 64)
        if elements.ndim != 1:
            raise ValueError(f"data must be 1-D, got an array of shape {elements.shape}")
        self.script = tuple(script)
        self.epsilon = epsilon
        mapped, mapped_with, rank = _arrangement(script[0].map, _read_only(elements), x_elem)
        self._first = (_read_only(mapped), _read_only(mapped_with), rank)

    def _steps(self, holder: Optional[DataHolder], rng: np.random.Generator, arrangement):
        """The step loop of one trial from step 0's `arrangement`. Yields,
        per step, the published result, the slice the simulator kept (None
        when the holder took the step) and the diff element, None from
        synchronization on; no step from then on calls the holder.

        Step 0's arrangement comes from the instance, so a map that breaks
        adjacency at step 0 raised when the instance was built, before step
        0's draw; a later step's map raises at that step, before its draw.
        """
        for i, spec in enumerate(self.script):
            if i:
                arrangement = _arrangement(spec.map, current, diff)
            mapped, mapped_with, rank = arrangement
            m_hat = spec.m + sample_geometric(self.epsilon, rng)
            kept = None
            if rank is None or m_hat < rank[1]:
                # this round does not involve the diff element
                kept = mapped[:m_hat]
                current = mapped[m_hat:]
                diff = None if rank is None else rank[0]
                result = spec.algorithm(kept) if spec.algorithm else None
            else:
                q_hat, beta, result = holder.query((mapped, mapped_with), max(rank[1], spec.m),
                                                   spec.algorithm, step=i)
                current = mapped[q_hat:]
                # synchronized, or both executions exhausted with equal remainders
                diff = None if beta == 1 or q_hat > len(mapped) else mapped[q_hat - 1]
            yield result, kept, diff

    def run(self, b: int, rng: np.random.Generator,
            delayed: Optional[Sequence[Tuple[int, Callable]]] = None) -> SimTranscript:
        """One trial with the hidden bit b.

        The simulator tracks (current data, diff element, status) and only
        queries the holder on steps where the slice depends on b; published
        results are distributed exactly as a direct run on the b-selected
        dataset. Optional second-phase requests (step index, algorithm)
        route to the simulator's stored slice or to the holder per where the
        true slice lives; as in a direct run, each slice takes at most one.
        """
        holder = DataHolder(b, self.epsilon, rng)
        published = []
        slices = {}  # each step's true slice, the simulator's or the holder's
        for i, (result, kept, diff) in enumerate(self._steps(holder, rng, self._first)):
            published.append(result)
            slices[i] = holder.stored[i] if kept is None else kept

        received = set()
        for step, algorithm in delayed or []:
            if step in received:
                raise RuntimeError(f"slice {step} already received 1 delayed compute(s)")
            received.add(step)
            published.append(algorithm(slices[step]))

        holder_steps = list(holder.stored)
        return SimTranscript(published=published, holder_calls=len(holder_steps),
                             holder_steps=holder_steps, final_status=int(diff is None),
                             final_diff=None if diff is None else int(diff))

    def holder_calls(self, b: int, rng: np.random.Generator) -> int:
        """`self.run(b, rng).holder_calls`, counted by running the steps
        only until the simulator synchronizes: no later step calls the
        holder. The draws those steps would take are left in `rng`, so the
        count equals run's for any rng, but the rng's state after the call
        differs once the run synchronizes before the script ends."""
        holder = DataHolder(b, self.epsilon, rng)
        for _, _, diff in self._steps(holder, rng, self._first):
            if diff is None:
                break
        return len(holder.stored)

    def direct(self, rng: np.random.Generator) -> list:
        """`direct_run(data, script, epsilon, rng)`'s outputs: the step loop
        from the map of `data` with no diff element, as in a trial that has
        already synchronized, so no holder is called and the draws are equal."""
        return [result for result, _, _ in self._steps(None, rng, (self._first[0], None, None))]


def simulate(data, x: int, b: int, script: Sequence[SliceComputation], epsilon: float,
             rng: np.random.Generator, delayed: Optional[Sequence[Tuple[int, Callable]]] = None
             ) -> SimTranscript:
    """`Simulation(data, x, script, epsilon).run(b, rng, delayed)`: one
    simulated session on (data, data + {x}) chosen by the hidden bit b."""
    return Simulation(data, x, script, epsilon).run(b, rng, delayed)


def direct_run(data, script: Sequence[SliceComputation], epsilon: float,
               rng: np.random.Generator,
               delayed: Optional[Sequence[Tuple[int, Callable]]] = None) -> list:
    """Published outputs of a plain (non-simulated) slicing session."""
    session = RscSession(data, tau=len(script), budget=PrivacyBudget(epsilon), k=1)
    published = []
    for spec in script:
        result, _ = select_and_compute(session, spec, rng)
        published.append(result)
    for step, algorithm in delayed or []:
        published.append(delayed_compute(session, step, algorithm))
    return published


@dataclass
class AuditResult:
    histogram: dict  # calls -> frequency
    tail: List[Tuple[int, float]]  # (w, empirical Pr[calls > w]) for w = 1..20
    mean: float
    trials: int

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "AuditResult":
        """Summary of the holder-call counts of a run of trials."""
        return cls(histogram=dict(sorted(Counter(counts.tolist()).items())),
                   tail=[(w, float(np.mean(counts > w))) for w in range(1, 21)],
                   mean=float(counts.mean()), trials=int(counts.size))


def audit_call_count(data, x: int, b: int, script, epsilon: float, trials: int,
                     seed: int) -> AuditResult:
    """Distribution of holder-call counts over repeated simulations.

    Trial i counts with `Simulation.holder_calls` on `default_rng([seed, 2,
    i])`, the count stream of `audit-sim`, and the trials run on
    `run_trials`. The inputs and the seed are checked, and the one
    `Simulation` every part runs on is built, before any part forks.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    _check_bit(b)
    _int_words(seed)  # trial_streams' check of the seed
    simulation = Simulation(data, x, script, epsilon)

    def part(chunk: range) -> np.ndarray:
        return np.array([simulation.holder_calls(b, rng)
                         for rng in trial_streams(seed, (2,), chunk)], dtype=np.int64)

    return AuditResult.from_counts(np.concatenate(run_trials(part, range(trials))))


class _WorkerTraceback(Exception):
    """The traceback a forked part sent with its exception; raised as the
    cause of the re-raised exception, so a printed traceback shows both."""


def _run_in_child(part: Callable, trials: range, pipe: int) -> NoReturn:
    """The forked side of `run_trials`: sends (ok, result or exception,
    traceback) pickled through the pipe and exits without running the
    parent's exit handlers or flushing its buffers."""
    code = 1
    try:
        try:
            message = pickle.dumps((True, part(trials), None))
        except BaseException as exc:  # sent to the parent, which raises it
            message = pickle.dumps((False, exc, traceback.format_exc()))
            try:
                pickle.loads(message)
            except Exception:  # an exception that does not survive pickling
                message = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}"),
                                        traceback.format_exc()))
        with open(pipe, "wb") as out:
            out.write(message)
        code = 0
    finally:
        os._exit(code)


def _fork(part: Callable, trials: range, inherited: List[int]) -> Tuple[int, int]:
    """(pid, read end of its pipe) of a child that runs `part(trials)`."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        for fd in (read_end, *inherited):
            os.close(fd)
        _run_in_child(part, trials, write_end)
    os.close(write_end)
    return pid, read_end


def _received(number: int, pid: int, trials: range, status: int, message: bytes):
    """The result a reaped child sent, or its failure raised here."""
    code = os.waitstatus_to_exitcode(status)
    if code:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise RuntimeError(f"trial worker {number} (pid {pid}, trials {trials[0]} to "
                           f"{trials[-1]}) {how} before reporting its results")
    ok, value, remote_traceback = pickle.loads(message)
    if not ok:
        raise value from _WorkerTraceback(remote_traceback)
    return value


def run_trials(part: Callable[[range], Any], trials: range) -> list:
    """`[part(chunk) for chunk in chunks]` over contiguous chunks of
    `trials`, one per CPU this process may run on (at most one per trial).

    The caller runs the first chunk. Each other chunk runs in a child made
    by `os.fork`, so `part` reaches it without pickling (lambdas and
    closures included), and only its result is pickled back through a pipe.
    Results are read in chunk order. A child's exception is raised here with
    the child's traceback as its cause; a child that dies without reporting
    is a RuntimeError that names it. Every child is reaped before this
    returns or raises, and on a failure the ones still running are killed
    first. `part` should read only randomness keyed by its trials, so that
    the results do not depend on the number of CPUs.
    """
    workers = max(1, min(len(os.sched_getaffinity(0)), len(trials)))
    bounds = [len(trials) * w // workers for w in range(workers + 1)]
    chunks = [trials[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    children = []  # (pid, read end) of chunks[1:], in order
    reaped = 0
    try:
        for chunk in chunks[1:]:
            children.append(_fork(part, chunk, [fd for _, fd in children]))
        results = [part(chunks[0])]
        for number, (pid, read_end) in enumerate(children, 1):
            with open(read_end, "rb", closefd=False) as pipe:
                message = pipe.read()
            status = os.waitpid(pid, 0)[1]
            reaped += 1
            results.append(_received(number, pid, chunks[number], status, message))
        return results
    finally:
        for pid, _ in children[reaped:]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for _, read_end in children:
            os.close(read_end)


def estimate_tv(samples_a: Sequence, samples_b: Sequence) -> float:
    """Empirical total-variation distance between two outcome samples."""
    ca, cb = Counter(samples_a), Counter(samples_b)
    na, nb = len(samples_a), len(samples_b)
    keys = set(ca) | set(cb)
    return 0.5 * sum(abs(ca[k] / na - cb[k] / nb) for k in keys)
