"""Randomized and exact verification suites behind the command line.

Every suite draws its randomness through one counter-based scheme: the
per-trial generator is seeded by (seed, suite index, trial index), so runs
are reproducible, order-independent, and identical whether trials run
serially or in parallel.  The stream is that of numpy's
default_rng(SeedSequence(entropy=seed, spawn_key=(suite index, trial
index))).  _seed_words takes the pool of numpy's own
SeedSequence(entropy=seed, spawn_key=(suite index,)), mixes the indices of a
block of consecutive trials into it at once with numpy's hash and caches the
blocks of seed words; _trial_stream reads a run's generators straight off
those blocks, one generator a row.
A suite is a stream of comparisons (tag, failing, lhs, rhs, tol),
as _closes, _at_mosts and _requires make them, and _record alone turns
the failing ones into failures: a failure records a digest of its check
tag (the check's name with the dimension and the trial or case that
failed, not the inputs themselves) together with both sides of the
violated comparison and the tolerance used.

_SUITE_TABLE is the registry of the suites.  A suite's row says how it
runs and holds its default trial count and default tolerance t, and its
position is the suite index.  check_selection alone checks a run's names,
trials, seed and tolerance, once, before the first suite runs, and derives
each suite's trial limit from its row: a suite takes one of the 2**32 trial
indices a trial, a batched suite one a trial and n.  run_suite turns them
into the suite's stream of (trial index, generator) pairs and replaces
tol=None by the default t.  Every comparison is exact, through _requires,
or a _closes or _at_mosts at t relative to _scale(lhs, rhs), but
singer-thorpe's diagonal-norm, the one fixed slack.

A row names either a body, a generator that walks the stream and yields
its comparisons, or the (dims, draw, check) of a suite that one driver,
_batched, checks in batches at each n of dims.  Such a suite's trial i at
the j-th n is trial index j * trials + i, drawn from that index's
generator alone, and each of its failing comparisons is tagged (check
name, n, index + 1).  The draw function draws one trial from its
generator into one float row, allocated once (zeroed where a form is
padded) and filled with the fewest generator calls the stream allows:
consecutive normal draws as one standard_normal call into a slice of the
row, a margin's coin as random(), and the trial's few integers (an
order, a degree, a permutation) as exact floats in the row.  The values
are those of the field-by-field calls normal and uniform: joining
consecutive normal calls keeps the stream, random() is uniform() bit for
bit, and standard_normal is normal(0, 1) but for an exact -0.0, which
normal's 0.0 + 1.0 * z turns into +0.0 (about once in 2**53 draws).  The
draw takes n as _batched checked it, checks nothing per trial and names
the key of the row's shapes.  The check function takes the group's rows
as one stacked array, slices and reshapes them once into its fields
(_fields, views with no copy), symmetrizes the draws that stand for
symmetric matrices and runs the suite's comparisons on the group
through the stacked kernels of the kind table action._KINDS.  Groups are
sized by _CHUNK_BYTES, so memory stays flat in the trial count, and the
failing comparisons come back as if each trial had been checked alone.

Lemmas 2.1 and 2.2 make claims about norms, actions and curvature terms of
curvature tensors, and their suites check them on operator coordinates:
for pair-skew (0,4)-tensors <A, B> = 4 <A_op, B_op>, and the so(n) action
commutes with A -> A_op (tensors._ops_from_tensors).  _decompose certifies,
contracts and splits operator matrices, and the Kulkarni-Nomizu product
_kn returns operator coordinates, so neither suite builds a (0,4)-array
but lemma-2.2 in its case 3, whose tensor-factor and tensor checks are
claims about them.  prop-1.2 checks the Leibniz rule for Kulkarni-Nomizu
products on operator coordinates too, estimate-constants its curvature
kinds, prop-2.8 the identity operator's Ricci curvature and hat norm on
curvature tensors, and prop-1.9 the Ricci pairing of curvature tensors,
since Ric_R commutes with A -> A_op for every operator R.  The suites
whose claims are about (0,4)-tensors themselves spread operator matrices
with _tensors_from_ops: prop-1.1, tensor-core and decompose.  lemma-2.2
reads each kind's factor |lam|^2 at its highest weight lam from bochner,
and lemma-2.1-soundness its counts and averages from bochner's rule table,
so neither writes a Bochner rule of its own.

The spectrum suite tests the Jacobi solver behind operators.spectrum, and
exact-values (round-sphere) and boundary-cases (cp2's spectrum and verdicts,
neg-lowest and remark-tachibana) read its eigenvalues.  The suites whose
identities only consume an eigenbasis (prop-1.6, prop-1.7,
complex-sectional and lemma-2.1-soundness) take it from LAPACK through
np.linalg.eigh, or np.linalg.eigvalsh where only the eigenvalues are read.
"""

from __future__ import annotations

import functools
import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

from .action import (
    SoElement,
    ad_matrix,
    act_on_operator,
    curvature_term,
    hat,
    hat_norm_sq,
    inner,
    ric_identity_closed_form,
    ric_of,
    so_act,
    _KINDS,
    _action_matrices,
    _hat_norms_consuming,
    _hat_rows,
    _layout,
    _terms,
)
from .bochner import (
    TensorKind,
    _apply_rule,
    _direct_check,
    _direct_terms,
    _weight_norms,
    betti_bound,
    betti_verdict,
    direct_term_check,
    estimate_constant,
    fourdim_einstein_term,
    lemma21_verdict,
    normal_h_term,
    tachibana_verdict,
)
from .catalog import (
    cp2_op,
    extremal_pform,
    negative_2form_term_op,
    negative_sym2_term_op,
    product_of_spheres_op,
    singer_thorpe_basis,
    singer_thorpe_op,
    sphere_product_op,
    _highest_weight_form,
    _rotation_sum,
    _split_vectors,
)
from .opfile import dumps_operator, loads_operator
from .operators import (
    CurvatureOperator,
    Spectrum,
    bianchi_split,
    complex_sectional,
    decompose,
    identity_operator,
    jacobi_eigh_batch,
    spectrum,
    tensor_from_op,
    wedge_coordinates,
    _alternating_parts,
    _decompose,
)
from .tensors import (
    CurvTensor,
    PForm,
    Sym2,
    Tensor0k,
    check_dimension,
    identity_sym2,
    kulkarni_nomizu,
    wedge_basis_form,
    wedge_count,
    wedge_index,
    wedge_pairs,
    _integer,
    _kn,
    _real,
    _scale,
    _symmetrized,
    _tensors_from_ops,
    _traceless,
    _tuple_index_map,
)
from .warped import (
    dwp_eigenvalue_list,
    dwp_eigenvalues,
    dwp_operator,
    integrate_warp_ode,
    ode_shoot,
    perturbed_profile,
    round_jet,
    trajectory_scal,
)


@dataclass(frozen=True)
class Failure:
    digest: str
    lhs: float
    rhs: float
    tolerance: float

    def to_document(self):
        """The failure as JSON values; a non-finite lhs or rhs, which JSON
        has no number for, as the string "nan", "inf" or "-inf"."""
        return {
            "inputs-digest": self.digest,
            "lhs": _json_float(self.lhs),
            "rhs": _json_float(self.rhs),
            "tolerance": self.tolerance,
        }


def _json_float(x):
    return x if math.isfinite(x) else repr(x)


@dataclass
class Report:
    suite: str
    trials: int
    failures: list
    seed: int
    wall_time: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_document(self):
        return {
            "suite": self.suite,
            "trials": self.trials,
            "seed": self.seed,
            "failures": [f.to_document() for f in self.failures],
            "wall-time": self.wall_time,
        }


# -- per-trial generators ------------------------------------------------------

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): each entropy
# word, a trial index included, is hashed and mixed into a pool of four
# words, and hashing the pool out gives the generator's seed words.  _hashmix
# and _mix take Python ints or np.uint32 arrays alike.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_BLOCK = 256  # trial indices per cached block of seed words
_TRIAL_LIMIT = 1 << 32  # a trial index is one entropy word


def _hash_steps(const, mult, count):
    """The (xor, multiplier) constants of count hash steps from const on."""
    steps = []
    for _ in range(count):
        steps.append((const, const * mult & _M32))
        const = steps[-1][1]
    return steps


def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult & _M32
    return value ^ value >> 16


def _mix(x, y):
    value = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return value ^ value >> 16


_STATE_STEPS = _hash_steps(_INIT_B, _MULT_B, 2 * _POOL)


@functools.lru_cache(maxsize=64)
def _suite_pool(seed, suite_id):
    """The pool of numpy's SeedSequence(entropy=seed, spawn_key=(suite_id,)),
    which has mixed in every entropy word of a trial's SeedSequence but the
    trial index, and the hash steps that mix the trial word into each pool
    word.  numpy rejects a negative seed."""
    from numpy.random import SeedSequence

    pool = SeedSequence(entropy=seed, spawn_key=(suite_id,)).pool
    # one hash step per pool word for each 32-bit entropy word: the seed's
    # words zero-padded to the pool size, then the suite index's, then the
    # trial's
    seed_count, suite_count = (max(1, -(-value.bit_length() // 32)) for value in (seed, suite_id))
    steps = _hash_steps(_INIT_A, _MULT_A, _POOL * (max(_POOL, seed_count) + suite_count + 1))
    return tuple(pool.tolist()), tuple(steps[-_POOL:])


@functools.lru_cache(maxsize=4)
def _seed_words(seed, suite_id, block):
    """The PCG64 seed words, generate_state(4, np.uint64), of the trials
    block * _BLOCK ... (block + 1) * _BLOCK - 1, one row per trial."""
    pool, last = _suite_pool(seed, suite_id)
    trials = np.arange(block * _BLOCK, (block + 1) * _BLOCK, dtype=np.uint32)
    mixed = [_mix(word, _hashmix(trials, *step)) for word, step in zip(pool, last)]
    state = np.stack([_hashmix(mixed[i % _POOL], *step) for i, step in enumerate(_STATE_STEPS)], axis=1)
    words = state.astype("<u4").view("<u8").astype(np.uint64)
    words.flags.writeable = False
    return words


@functools.cache
def _generator_from_words():
    """A function from precomputed PCG64 seed words to a Generator; built on
    first use, so that numpy.random loads only with the first draw."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """Hands PCG64 its seed words in place of a SeedSequence."""

        __slots__ = ("words",)

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for generate_state(4, np.uint64) and nothing else
            if (n_words, dtype) != (_POOL, np.uint64):
                raise ValueError("holds the four uint64 seed words of PCG64 only")
            return self.words

    return lambda words: Generator(PCG64(SeedWords(words)))


def _trial_stream(seed, suite_id, start, stop):
    """(index, a generator drawing the stream of default_rng(SeedSequence(
    entropy=seed, spawn_key=(suite_id, index)))) for each trial index
    start <= index < stop in order, one generator a row of the cached
    blocks of seed words.  Checks none of its arguments: run_suite checks
    them first, through check_selection."""
    generator = _generator_from_words()
    for block in range(start // _BLOCK, -(-stop // _BLOCK)):
        base = block * _BLOCK
        lo, hi = max(start, base), min(stop, base + _BLOCK)
        for index, words in zip(range(lo, hi), _seed_words(seed, suite_id, block)[lo - base:hi - base]):
            yield index, generator(words)


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:12]


def _close_fails(lhs, rhs, tol):
    """Where |lhs - rhs| exceeds tol times _scale(lhs, rhs), elementwise."""
    return ~(np.abs(lhs - rhs) <= tol * _scale(lhs, rhs))


def _at_most_fails(lhs, rhs, tol):
    """Where lhs exceeds rhs by more than tol times _scale(lhs, rhs), elementwise."""
    return ~(lhs <= rhs + tol * _scale(lhs, rhs))


def _closes(tag, lhs, rhs, tol):
    """The comparison lhs == rhs up to tol, of scalars or elementwise of
    stacks, as (tag, failing, lhs, rhs, tol)."""
    return tag, _close_fails(lhs, rhs, tol), lhs, rhs, tol


def _at_mosts(tag, lhs, rhs, tol):
    """The comparison lhs <= rhs up to tol, as _closes gives it."""
    return tag, _at_most_fails(lhs, rhs, tol), lhs, rhs, tol


def _requires(tag, condition, lhs=0.0, rhs=0.0, tol=0.0):
    """An exact check, failing unless condition holds, as _closes gives it;
    lhs and rhs are what a failure reports."""
    return tag, not condition, lhs, rhs, tol


def _record(comparisons):
    """The failures among comparisons, in order: each failing (tag, failing,
    lhs, rhs, tol) as a Failure that digests its tag."""
    return [Failure(_digest(*tag), float(lhs), float(rhs), tol)
            for tag, failing, lhs, rhs, tol in comparisons if failing]


# -- suites batched across trials ---------------------------------------------

# Bytes of the largest array a batched check may build.  The batched suites
# size their groups of trials by it, which keeps their memory flat in the
# trial count.  A draw's item_bytes is the bytes one trial takes in the
# largest array its check builds for the whole group, one size for each n
# and key, so a group of small tensors holds more trials than one of
# (0,4)-tensors, not more bytes.  lemma-2.2's draw alone names what a trial
# adds to its check's traced peak, each of its five cases at its own
# shapes; the other suites' full groups, which build several arrays of the
# largest size, grow the traced peak above a group of one trial by up to
# 4 MB (prop-2.8 at n = 3; see ROADMAP item 2).  A larger
# array of one trial, such as the block rows of lemma-2.1-soundness's
# curvature operators (27 kB at n = 6), is built through _in_budget a slice
# of the group at a time, each slice within the budget, so that it does not
# shrink the group.  No suite builds the
# block rows of (0,4)-tensors, n^4 entries a block row: prop-1.9, prop-2.8
# and the inequality suites take their curvature tensors on operator
# coordinates, N^2 entries a block row.
# A check holds a few such arrays at once, 1-2 MB in all; larger groups
# raise the peak resident memory and gain little speed.  At 2 MB, a process
# running the five identity suites (prop-1.7, prop-2.8, prop-1.9, prop-1.2,
# prop-1.3) at 20 trials per n peaked at 45.4 MB resident against 41.5 MB
# at this budget, for a pass 2-17 % faster (one CPU of a 2-core x86-64
# host).
_CHUNK_BYTES = 1 << 19

def _batched(stream, trials, t, dims, draw, check):
    """The failing comparisons of a suite whose trials are checked in
    batches, one per failing trial of a check.

    Trial i at the j-th n of dims is the suite's trial index j * trials + i,
    and stream yields (index, its generator) for every index in order;
    draw(the generator, n, i, index) returns its (key, item_bytes, row).
    The row is one 1-D float array holding what the generator produced,
    field after field, a normal matrix as standard_normal gave it: the
    check takes the symmetric parts of a stack with _symmetrized once,
    which has the bits of each trial's (a + a^T) / 2.  The key names the
    row's layout, and nothing else: what varies from trial to trial but
    keeps the layout, a permutation or a form's degree, travels in the
    row as exact floats, and a form of any degree ends a zeroed slot.
    item_bytes is the size per trial of the largest array the check builds
    for the whole group, and the check builds a larger one through
    _in_budget.  The trials of a key gather in a group while one more fits
    in _CHUNK_BYTES at item_bytes each, and until n changes; check(t, n,
    key, the group's rows stacked into one array) returns the group's
    comparisons in check order, as (name, failing, lhs, rhs, tol) of
    stacks.  The failing trials' comparisons, tagged (name, n, index + 1),
    come back by trial index, then by check position, as if each trial
    had been checked alone: each one names the suite's trial index whose
    generator alone drew it.  Raises ValueError before the first draw when
    an n of dims is outside check_dimension's range.
    """
    for n in dims:
        check_dimension(n)
    found = []

    def run(n, key, group):
        indices, rows = zip(*group)
        for position, (name, failing, lhs, rhs, tol) in enumerate(check(t, n, key, np.array(rows))):
            if not failing.any():
                continue
            lhs, rhs = np.broadcast_arrays(lhs, rhs)
            for i in np.flatnonzero(failing):
                index = indices[i]
                found.append(((index, position), ((name, n, index + 1), True, lhs[i], rhs[i], tol)))

    stream = iter(stream)
    for n in dims:
        groups = {}
        # zip asks range first, so it takes no index of the next n
        for trial, (index, rng) in zip(range(trials), stream):
            key, item_bytes, row = draw(rng, n, trial, index)
            group = groups.setdefault(key, [])
            group.append((index, row))
            if (len(group) + 1) * item_bytes > _CHUNK_BYTES:
                run(n, key, groups.pop(key))
        for key, group in groups.items():
            run(n, key, group)
    return [comparison for _, comparison in sorted(found, key=lambda entry: entry[0])]


def _in_budget(item_bytes, fn, *stacks):
    """fn over consecutive slices of stacks along their first axis, as many
    items a slice as fit in _CHUNK_BYTES at item_bytes each (one at least),
    and each of its results concatenated over the slices.  A check builds
    through it the arrays that are too large to build for its whole group:
    lemma-2.1-soundness the block rows of its curvature operators."""
    size = max(1, _CHUNK_BYTES // item_bytes)
    parts = [fn(*(stack[start:start + size] for stack in stacks)) for start in range(0, len(stacks[0]), size)]
    return [np.concatenate(side) for side in zip(*parts)]


# squared norms of stacked arrays summed entrywise, as Sym2, CurvTensor and
# CurvatureOperator sum theirs; of stacked (0,k)-tensors, a dot product as
# Tensor0k takes it; and of stacked p-forms or so(n) elements
_dense_norms = _KINDS[CurvTensor].norm_sqs
_tensor_norms = _KINDS[Tensor0k].norm_sqs
_compact_norms = _KINDS[PForm].norm_sqs


def _max_abs(values):
    """Largest absolute entry of each of stacked arrays."""
    return np.abs(values).max(axis=tuple(range(1, values.ndim)))


def _pair_count(n):
    """wedge_count(n) of an n that _batched has checked: the draws run once
    a trial and check nothing."""
    return n * (n - 1) // 2


def _fields(rows, *shapes):
    """The fields of stacked draw rows, consecutive from the start of each
    row, each of the given shape per row and stacked over the rows: a view
    of the rows, no copy.  A shape of () is a number a row."""
    fields, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        fields.append(rows[:, start:start + size].reshape((len(rows),) + shape))
        start += size
    return fields


def _slot(n, count=1):
    """The row entries of a slot for count forms of one degree below n:
    count times C(n, n // 2), the most coordinates any degree has, so that
    the rows of forms of every degree have one length."""
    return count * math.comb(n, n // 2)


def _by_degree(n, degrees, slots, count=1):
    """For each degree p among stacked form slots: p, the positions of the
    slots of degree p, and the count forms each of those slots ends with,
    cut to their C(n, p) coordinates.  The degrees are a row's exact
    floats; a slot is zero before its forms."""
    # not np.unique, whose first call imports numpy.ma: 1.7 MB of resident
    # memory for a handful of small integers
    degrees = degrees.astype(np.intp)
    for p in sorted(set(degrees.tolist())):
        picked, size = np.flatnonzero(degrees == p), math.comb(n, p)
        forms = slots[picked, slots.shape[1] - count * size:]
        yield p, picked, [forms[:, i * size:(i + 1) * size] for i in range(count)]


def _bianchi_decompose(raw, n):
    """Bianchi parts of the symmetric parts of stacked raw draws, as
    random_bianchi_operator makes them, and their _decompose, which
    certifies them."""
    sym = _symmetrized(raw)
    rb = sym - _alternating_parts(sym, n)
    return rb, _decompose(rb, n)


# -- random draws -------------------------------------------------------------

def random_sym2(rng, n) -> Sym2:
    return Sym2(_symmetrized(rng.normal(size=(n, n))))


def random_tensor(rng, n, k) -> Tensor0k:
    return Tensor0k(rng.normal(size=(n,) * k))


def random_pform(rng, n, p) -> PForm:
    return PForm(n, p, rng.normal(size=math.comb(n, p)))


def random_so(rng, n) -> SoElement:
    return SoElement(n, rng.normal(size=wedge_count(n)))


def random_sym_operator(rng, n) -> CurvatureOperator:
    size = wedge_count(n)
    return CurvatureOperator(n, _symmetrized(rng.normal(size=(size, size))))


def random_bianchi_operator(rng, n) -> CurvatureOperator:
    return bianchi_split(random_sym_operator(rng, n))[0]


def _einstein_part(scal, weyl, n):
    """The Einstein parts scal/(2(n-1)n) KN(g, g) + W on operator
    coordinates, where KN(g, g) is 2I, for stacked scalar curvatures and
    Weyl matrices as _decompose returns them."""
    scale = scal[..., None, None] / (2.0 * (n - 1) * n)
    return scale * (2.0 * np.eye(wedge_count(n))) + weyl


def random_orthogonal(rng, m) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(m, m)))
    return q * np.sign(np.diag(r))


def random_normal_matrix(rng, n) -> np.ndarray:
    """Normal endomorphism from rotation-scale blocks in a random frame."""
    blocks = np.zeros((n, n))
    i = 0
    while i + 1 < n:
        s, t = rng.normal(size=2)
        blocks[i, i] = blocks[i + 1, i + 1] = s
        blocks[i, i + 1] = -t
        blocks[i + 1, i] = t
        i += 2
    if i < n:
        blocks[i, i] = rng.normal()
    q = random_orthogonal(rng, n)
    return q @ blocks @ q.T


# -- closed-form oracle for hats of wedge basis forms -------------------------

def hat_wedge_closed_form(n, idx) -> np.ndarray:
    """Combinatorial expansion of the hat of a wedge basis form.

    Row alpha holds the compact components of the alpha-th block.  Replacing
    a member a of the index set by an outside index k through e_a^e_k picks
    up (-1)^c with c the number of members strictly between them, negated
    when a is the larger of the two.  Pure combinatorics, no action code.
    """
    idx = tuple(idx)
    p = len(idx)
    index_map = _tuple_index_map(n, p)
    rows = np.zeros((wedge_count(n), math.comb(n, p)))
    members = set(idx)
    for element in idx:
        for k in range(n):
            if k in members:
                continue
            a, b = min(element, k), max(element, k)
            between = sum(1 for x in idx if a < x < b)
            coeff = (-1.0) ** between if element == a else -((-1.0) ** between)
            target = tuple(sorted(members - {element} | {k}))
            rows[wedge_index(n, a, b), index_map[target]] += coeff
    return rows


# -- suites -------------------------------------------------------------------

def suite_exact_values(stream, t):
    """Exact catalog norms: metric KN square, sphere products, 2-sphere
    products, and the overlap case; and an exact Betti bound.
    Deterministic; the stream is ignored."""
    for n in range(3, 9):
        g = identity_sym2(n)
        yield _closes(("gg", n), kulkarni_nomizu(g, g).norm_sq(), 8.0 * (n - 1) * n, t)
    for n in range(2, 9):
        for p in range(2, n + 1):
            got = hat_norm_sq(sphere_product_op(p, n))
            yield _closes(("sphere", p, n), got, 2.0 * (p - 1) * p * (n - p), t)
    for n in range(2, 9):
        for k in range(1, n // 2 + 1):
            got = hat_norm_sq(product_of_spheres_op(k, n))
            yield _closes(("s2prod", k, n), got, 4.0 * k * (n - 2), t)
    a = sphere_product_op(2, 4)
    b = product_of_spheres_op(1, 4)
    yield _requires(("overlap",), bool(np.array_equal(a.mat, b.mat)), hat_norm_sq(a), hat_norm_sq(b))
    s = spectrum(sphere_product_op(5, 5))
    yield _closes(("round-sphere",), float(np.abs(s.eigenvalues - 1.0).max()), 0.0, t)
    # binom(4, 2) exp(sqrt(p (n - p))) at kappa = -1, D = c = 1 is 6 e^2,
    # bit for bit
    bound = betti_bound(4, 2, -1.0, 1.0, 1.0)
    yield _requires(("betti-bound",), bound == 6.0 * math.exp(2.0), bound, 6.0 * math.exp(2.0))


def _draw_prop_1_1(rng, n, trial, index):
    # the product with the metric is the largest array
    return None, 8 * n ** 4, rng.standard_normal(n * n)


def _check_prop_1_1(t, n, key, rows):
    """Kulkarni-Nomizu norm identity on random symmetric tensors."""
    (raw,) = _fields(rows, (n, n))
    h = _symmetrized(raw)
    lhs = _dense_norms(_tensors_from_ops(_kn(np.eye(n), h), n))
    trace = np.trace(h, axis1=1, axis2=2)
    return [_closes("kn-norm", lhs, 4.0 * (n - 2) * _dense_norms(h) + 4.0 * trace ** 2, t)]


def suite_tensor_core(stream, t):
    """Trace-free parts, compact/dense form round trips, KN bilinearity."""
    for trial, rng in stream:
        n = int(rng.integers(2, 9))
        h = random_sym2(rng, n)
        h0 = h.traceless()
        yield _closes(("traceless-norm", trial), h0.norm_sq(), h.norm_sq() - h.trace() ** 2 / n, t)
        yield _closes(("traceless-trace", trial), h0.trace(), 0.0, t)
        p = int(rng.integers(1, n + 1))
        w = random_pform(rng, n, p)
        dense = w.to_tensor()
        yield _closes(("pform-dense-norm", trial), dense.norm_sq(), math.factorial(p) * w.norm_sq(), t)
        back = PForm.from_tensor(dense)
        yield _closes(("pform-roundtrip", trial), float(np.abs(back.comps - w.comps).max()), 0.0, t)
        if n >= 3:
            a, b, c = (random_sym2(rng, n) for _ in range(3))
            x, y = rng.normal(size=2)
            left = kulkarni_nomizu(a, b).array
            yield _closes(("kn-symmetric", trial), float(np.abs(left - kulkarni_nomizu(b, a).array).max()), 0.0, t)
            lin = kulkarni_nomizu(Sym2(x * a.mat + y * c.mat), b).array
            yield _closes(
                ("kn-bilinear", trial),
                float(np.abs(lin - x * left - y * kulkarni_nomizu(c, b).array).max()),
                0.0,
                t,
            )


def _draw_prop_1_2(rng, n, trial, index):
    # the row: lam, the (0,k)-tensor, the two symmetric draws, then the
    # slot permutation sigma, drawn between the tensor and the symmetric ones
    k = int(rng.integers(2, 5))
    head = _pair_count(n) + n ** k
    row = np.empty(head + 2 * n * n + k)
    rng.standard_normal(out=row[:head])
    row[-k:] = rng.permutation(k)
    rng.standard_normal(out=row[head:-k])
    return k, 8 * n ** 4, row


def _transposed(values, axes):
    """Each of stacked arrays transposed by its own row of axes."""
    return np.stack([value.transpose(order) for value, order in zip(values, axes)])


def _check_prop_1_2(t, n, k, rows):
    """The action commutes with slot permutations; Leibniz rule for KN."""
    lam, tt, s, u, sigma = _fields(rows, (_pair_count(n),), (n,) * k, (n, n), (n, n), (k,))
    s, u = _symmetrized(s), _symmetrized(u)
    # permuting the slots by sigma transposes by its inverse
    inverse = np.argsort(sigma, axis=1)
    left = _KINDS[Tensor0k].acted(lam, _transposed(tt, inverse), n, k)
    right = _transposed(_KINDS[Tensor0k].acted(lam, tt, n, k), inverse)
    # the products on operator coordinates, where the action commutes with
    # A -> A_op; symmetrized as the CurvatureOperator constructor stores
    # them, so the suite rounds as the public calls do
    lhs = _KINDS[CurvatureOperator].acted(lam, _symmetrized(_kn(s, u)), n)
    acted_s, acted_u = _KINDS[Sym2].acted(lam, s, n), _KINDS[Sym2].acted(lam, u, n)
    rhs = _symmetrized(_kn(acted_s, u)) + _symmetrized(_kn(s, acted_u))
    return [
        _closes("permute", _max_abs(left - right), 0.0, t),
        _closes("leibniz", _max_abs(lhs - rhs), 0.0, t),
    ]


def _draw_prop_1_3(rng, n, trial, index):
    # the row: lam, then the symmetric draw
    return None, 8 * n * n, rng.standard_normal(_pair_count(n) + n * n)


def _check_prop_1_3(t, n, key, rows):
    """The action of so(n) on symmetric tensors is trace free; the metric is
    killed outright."""
    lam, raw = _fields(rows, (_pair_count(n),), (n, n))
    h = _symmetrized(raw)
    metric = np.broadcast_to(np.eye(n), h.shape)
    return [
        _closes("trace", np.trace(_KINDS[Sym2].acted(lam, h, n), axis1=1, axis2=2), 0.0, t),
        _closes("metric", _dense_norms(_KINDS[Sym2].acted(lam, metric, n)), 0.0, t),
    ]


def suite_prop_1_6(stream, t):
    """Norm of the action on a symmetric wedge operator through its spectrum."""
    for trial, rng in stream:
        n = int(rng.integers(3, 6))
        r = random_sym_operator(rng, n)
        lam = random_so(rng, n)
        lhs = act_on_operator(lam, r).norm_sq()
        vals, vecs = np.linalg.eigh(r.mat)
        gram = vecs.T @ ad_matrix(lam) @ vecs
        rhs = float(np.sum((vals[:, None] - vals[None, :]) ** 2 * gram * gram))
        yield _closes(("eigen-norm", trial), lhs, rhs, t)


def _draw_prop_1_7(rng, n, trial, index):
    # the row: the symmetric draw, then lam
    size = _pair_count(n)
    return None, 8 * size * n * n, rng.standard_normal(n * n + size)


def _check_prop_1_7(t, n, key, rows):
    """Action norm on symmetric tensors in an eigenbasis, its sharp bound,
    and the hat norm identity."""
    raw, lam = _fields(rows, (n, n), (_pair_count(n),))
    h = _symmetrized(raw)
    vals, vecs = np.linalg.eigh(h)
    lhs = _dense_norms(_KINDS[Sym2].acted(lam, h, n))
    gram = vecs.swapaxes(1, 2) @ _action_matrices(lam, n, 1) @ vecs
    rhs = np.sum((vals[:, :, None] - vals[:, None, :]) ** 2 * gram * gram, axis=(1, 2))
    spread = vals[:, -1] - vals[:, 0]
    hat_sq = _hat_norms_consuming(_KINDS[Sym2].rows(h, n))
    trace = np.trace(h, axis1=1, axis2=2)
    return [
        _closes("eigen-norm", lhs, rhs, t),
        _at_mosts("spread-bound", lhs, 2.0 * spread ** 2 * _compact_norms(lam), t),
        _closes("hat-norm", hat_sq, 2.0 * n * _dense_norms(h) - 2.0 * trace ** 2, t),
        _closes("hat-traceless", hat_sq, 2.0 * n * _dense_norms(_traceless(h)), t),
    ]


def _draw_prop_1_9(rng, n, trial, index):
    # trials take the kinds in turn: (0,k)-tensors, symmetric tensors,
    # p-forms and the curvature tensors of operator matrices; the operator
    # r, the symmetric tensors and the operators of the curvature tensors
    # are drawn as raw matrices, which the check symmetrizes.  The row: r,
    # then s and u, m entries each.  The largest array is the block rows of
    # s, N x m, or an N x N one: the symmetrized r, or the pairing of s's
    # block rows with u's; a form counts at its slot, so that the forms of
    # every degree, which share a group, name one size
    size = _pair_count(n)
    which = trial % 4
    if which in (1, 3):
        m = (n if which == 1 else size) ** 2
        return (which, 0), 8 * size * max(size, m), rng.standard_normal(size * size + 2 * m)
    if which == 0:
        r = rng.standard_normal(size * size)
        k = int(rng.integers(1, 4))
        return (0, k), 8 * size * max(size, n ** k), np.concatenate((r, rng.standard_normal(2 * n ** k)))
    # s and u end a slot, and the degree ends the row
    row = np.zeros(size * size + _slot(n, 2) + 1)
    rng.standard_normal(out=row[:size * size])
    p = int(rng.integers(1, n))
    m = math.comb(n, p)
    rng.standard_normal(out=row[-1 - 2 * m:-1])
    row[-1] = p
    return (2, 0), 8 * size * max(size, _slot(n)), row


def _check_prop_1_9(t, n, key, rows):
    """Self-adjointness: the Ricci pairing equals the curvature term for
    every supported tensor kind."""
    which, k = key
    size = _pair_count(n)
    if which == 2:
        raw, slots, degrees = _fields(rows, (size, size), (_slot(n, 2),), ())
    else:
        shape = ((n,) * k, (n, n), None, (size, size))[which]
        raw, s, u = _fields(rows, (size, size), shape, shape)
    r = _symmetrized(raw)
    if which in (1, 3):
        s, u = _symmetrized(s), _symmetrized(u)
    # the curvature tensors on operator coordinates: Ric_R commutes with
    # A -> A_op, and for pair-skew tensors <A, B> = 4 <A_op, B_op>, so both
    # sides are 4 times their values on the operator matrices
    kind = _KINDS[(Tensor0k, Sym2, PForm, CurvatureOperator)[which]]
    scale = 4.0 if which == 3 else 1.0
    parts = _by_degree(n, degrees, slots, 2) if which == 2 else [(k, slice(None), (s, u))]
    lhs, rhs = np.empty((2, len(r)))
    for degree, picked, (values_s, values_u) in parts:
        mats = r[picked]
        ric, rows_s = kind.rics(mats, values_s, n, degree)
        rows_u = kind.rows(values_u, n, degree)
        # as inner and curvature_term take them, so a row is what a single
        # trial gives
        lhs[picked] = kind.inners(ric, values_u)
        rhs[picked] = _terms(mats, rows_s, rows_u)
    return [_closes("adjoint", scale * lhs, scale * rhs, t)]


def _draw_prop_2_8(rng, n, trial, index):
    # the row: the symmetric draw, the form's slot, the operator's draw and
    # the form's degree.  The form ends its slot, so that it and the
    # operator, drawn next, are one call
    size, head = _pair_count(n), n * n + _slot(n)
    row = np.zeros(head + size * size + 1)
    rng.standard_normal(out=row[:n * n])
    p = int(rng.integers(1, n))
    rng.standard_normal(out=row[head - math.comb(n, p):-1])
    row[-1] = p
    # the largest array is the operator's block rows, N^3 entries for
    # N = wedge_count(n)
    return None, 8 * size ** 3, row


def _check_prop_2_8(t, n, key, rows):
    """Identity-operator Ricci curvature on symmetric tensors, forms, and
    curvature tensors, with the hat-norm consequences."""
    size = _pair_count(n)
    raw_h, slots, raw, degrees = _fields(rows, (n, n), (_slot(n),), (size, size), ())
    h = _symmetrized(raw_h)
    ric_h, _ = _KINDS[Sym2].rics(None, h, n)
    form_gap, form_hat, form_want = np.empty((3, len(h)))
    for p, picked, (w,) in _by_degree(n, degrees, slots):
        ric_w, rows_w = _KINDS[PForm].rics(None, w, n, p)
        form_gap[picked] = _max_abs(ric_w - p * (n - p) * w)
        form_hat[picked] = _hat_norms_consuming(rows_w)
        form_want[picked] = p * (n - p) * _compact_norms(w)
    rb, (scal, ric, ric0, *_) = _bianchi_decompose(raw, n)
    # the curvature tensors on operator coordinates: the identity operator's
    # Ricci curvature commutes with Rm -> Rm_op, and for pair-skew tensors
    # |A|^2 = 4 |A_op|^2, so |hat Rm|^2 = 4 |hat R_op|^2 and |Rm|^2 = 4 |R_op|^2
    ric_rb, rows_rb = _KINDS[CurvatureOperator].rics(None, rb, n)
    curv_gap = _max_abs(ric_rb - (4.0 * (n - 1) * rb - 2.0 * _kn(np.eye(n), ric)))
    hat_op = _hat_norms_consuming(rows_rb)
    rm0_sq = 4.0 * _dense_norms(rb) - scal ** 2 / (2.0 * (n - 1) * n) * 4.0
    ric0_sq = _dense_norms(ric0)
    return [
        _closes("sym2", _max_abs(ric_h - 2.0 * n * _traceless(h)), 0.0, t),
        _closes("pform", form_gap, 0.0, t),
        _closes("pform-hat", form_hat, form_want, t),
        _closes("curv", curv_gap, 0.0, t),
        _closes("hat-rm", 4.0 * hat_op, 4.0 * (n - 1) * rm0_sq - 8.0 * ric0_sq, t),
        _closes("hat-op", hat_op, 4.0 * (n - 1) * _dense_norms(_traceless(rb)) - 2.0 * ric0_sq, t),
    ]


def suite_ric_closed_form(stream, t):
    """The combinatorial closed form of the identity-operator Ricci curvature
    against the definitional double sum."""
    for trial, rng in stream:
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 5))
        tt = random_tensor(rng, n, k)
        via_def = ric_of(identity_operator(n), tt)
        via_form = ric_identity_closed_form(tt)
        yield _closes(("closed-form", trial), float(np.abs(via_def.array - via_form.array).max()), 0.0, t)


def suite_hat_closed_form(stream, t):
    """Hats of wedge basis forms against the combinatorial expansion, exactly."""
    for trial, rng in stream:
        n = int(rng.integers(2, 9))
        p = int(rng.integers(1, n + 1))
        idx = tuple(sorted(rng.choice(n, size=p, replace=False).tolist()))
        got = _hat_rows(wedge_basis_form(n, idx))
        want = hat_wedge_closed_form(n, idx)
        yield _closes(("hat-expansion", trial, n, idx), float(np.abs(got - want).max()), 0.0, t)


def suite_hat_structure(stream, t):
    """Hat blocks agree with direct actions and pairing against any element
    reproduces that element's action."""
    for trial, rng in stream:
        n = int(rng.integers(2, 6))
        which = trial % 3
        if which == 0:
            tt = random_sym2(rng, n)
        elif which == 1:
            tt = random_pform(rng, n, int(rng.integers(1, n)))
        else:
            tt = random_tensor(rng, n, 3)
        ht = hat(tt)
        pairs = wedge_pairs(n)
        for a in range(len(pairs)):
            lam = SoElement(n, np.eye(len(pairs))[a])
            yield _closes(("block", trial, a), _gap_sq(ht.blocks[a], so_act(lam, tt)), 0.0, t)
        lam = random_so(rng, n)
        yield _closes(("pairing", trial), _gap_sq(ht.pair_with(lam), so_act(lam, tt)), 0.0, t)
        yield _closes(("norm", trial), ht.norm_sq(), hat_norm_sq(tt), t)


def _gap_sq(a, b):
    """|a - b|^2 of two tensors of one kind, from their difference: the
    expansion |a|^2 - 2<a, b> + |b|^2 leaves cancellation residues of 1e-12
    when a = b."""
    kind, values, _ = _layout(a)
    return float(kind.norm_sqs((values - _layout(b)[1])[None])[0])


def suite_basis_independence(stream, t):
    """The curvature term is unchanged under a random orthogonal re-basis of
    wedge space."""
    for trial, rng in stream:
        n = int(rng.integers(3, 6))
        r = random_sym_operator(rng, n)
        s = random_sym2(rng, n)
        u = random_sym2(rng, n)
        base = curvature_term(r, s, u)
        big_n = wedge_count(n)
        q = random_orthogonal(rng, big_n)
        rp = q.T @ r.mat @ q
        blocks_s = [so_act(SoElement(n, q[:, b]), s) for b in range(big_n)]
        blocks_u = [so_act(SoElement(n, q[:, b]), u) for b in range(big_n)]
        total = 0.0
        for bi in range(big_n):
            for ci in range(big_n):
                total += rp[bi, ci] * inner(blocks_s[bi], blocks_u[ci])
        yield _closes(("rebasis", trial), base, total, t)


def suite_bianchi_split(stream, t):
    """The alternation split is an orthogonal projection onto the Bianchi
    subspace."""
    for trial, rng in stream:
        n = int(rng.integers(3, 7))
        r = random_sym_operator(rng, n)
        rb, lam4 = bianchi_split(r)
        rm = tensor_from_op(r)
        recomposed = tensor_from_op(rb).array + lam4.array
        yield _closes(("sum", trial), float(np.abs(recomposed - rm.array).max()), 0.0, t)
        yield _closes(("orthogonal", trial), inner(tensor_from_op(rb), lam4), 0.0, t)
        rb2, lam4b = bianchi_split(rb)
        yield _closes(("idempotent", trial), float(np.abs(lam4b.array).max()), 0.0, t)
        yield _requires(("certified", trial), rb.bianchi_certified is True)
        ric = np.einsum("iaja->ij", lam4.array)
        yield _closes(("lam4-ricci", trial), float(np.abs(ric).max()), 0.0, t)


def suite_decompose(stream, t):
    """Reassembly, orthogonality, total trace-freeness, the Schouten relation,
    and the hat-norm consequence of the decomposition."""
    for trial, rng in stream:
        n = int(rng.integers(3, 8))
        rb = random_bianchi_operator(rng, n)
        rm = tensor_from_op(rb)
        dec = decompose(rb)
        g = identity_sym2(n)
        scal_part = CurvTensor(dec.scal / (2.0 * (n - 1) * n) * kulkarni_nomizu(g, g).array)
        ric_part = CurvTensor(kulkarni_nomizu(g, dec.ric0).array / (n - 2.0))
        back = scal_part.array + ric_part.array + dec.weyl.array
        yield _closes(("reassembly", trial), float(np.abs(back - rm.array).max()), 0.0, t)
        scale = _scale(rm.norm_sq())
        yield _closes(("orth-sw", trial), inner(scal_part, dec.weyl) / scale, 0.0, t)
        yield _closes(("orth-sr", trial), inner(scal_part, ric_part) / scale, 0.0, t)
        yield _closes(("orth-rw", trial), inner(ric_part, dec.weyl) / scale, 0.0, t)
        wric = np.einsum("iaja->ij", dec.weyl.array)
        yield _closes(("weyl-tracefree", trial), float(np.abs(wric).max()), 0.0, t)
        schouten_back = kulkarni_nomizu(dec.schouten, g).array + dec.weyl.array
        yield _closes(("schouten", trial), float(np.abs(schouten_back - rm.array).max()), 0.0, t)
        lhs = hat_norm_sq(rm)
        rhs = (16.0 * (n - 1) / (n - 2) - 8.0) * dec.ric0.norm_sq() + 4.0 * (n - 1) * dec.weyl.norm_sq()
        yield _closes(("hat-identity", trial), lhs, rhs, t)


def suite_spectrum(stream, t):
    """The Jacobi solver behind spectrum, the suite that tests it:
    residuals, orthogonality, invariance under orthogonal conjugation, and
    batch/single agreement."""
    for trial, rng in stream:
        n = int(rng.integers(3, 8))
        r = random_sym_operator(rng, n)
        s = spectrum(r)
        scale = _scale(math.sqrt(r.norm_sq()))
        res = float(np.abs(r.mat @ s.eigenvectors - s.eigenvectors * s.eigenvalues[None, :]).max())
        yield _at_mosts(("residual", trial), res / scale, 0.0, t)
        orth = float(np.abs(s.eigenvectors.T @ s.eigenvectors - np.eye(r.N)).max())
        yield _at_mosts(("orthogonal", trial), orth, 0.0, t)
        q = random_orthogonal(rng, r.N)
        s2 = spectrum(CurvatureOperator(r.n, q.T @ r.mat @ q))
        conjugation = float(np.abs(s.eigenvalues - s2.eigenvalues).max())
        yield _closes(("conjugation", trial), conjugation / scale, 0.0, t)
        batch_vals, batch_vecs = jacobi_eigh_batch(np.array([r.mat, q.T @ r.mat @ q]))
        yield _requires(
            ("batch", trial),
            bool(np.array_equal(batch_vals[0], s.eigenvalues))
            and bool(np.array_equal(batch_vecs[0], s.eigenvectors)),
        )


def _draw_lemma_2_2(rng, n, trial, index):
    size = _pair_count(n)
    case = (index + 1) % 5
    # the row: lam, then the case's draws, raw generator output, which the
    # check symmetrizes; cases 0 and 2 draw an order or degree between.
    # Each case names at least the bytes a trial adds to its check's traced
    # peak at n = 3..6, stacking included, as a count of its trial's
    # largest arrays: six (0,k)-tensors or n x n action matrices for case
    # 0, seven n x n tensors for case 1, four C(n, p) x C(n, p) action
    # matrices and n-vectors for case 2, 4.375 (0,4)-tensors and 2 kB for
    # case 3, whose tensor checks act on them, and sixteen operator
    # matrices and n x n tensors for case 4.  So a full group of any case
    # peaks at most _CHUNK_BYTES above a group of one trial; case 3's 2 kB
    # covers what its first few trials add beyond that (43 n^4 bytes a
    # trial up to 5 trials at n = 6, 34 n^4 at 80)
    if case == 0:
        lam = rng.standard_normal(size)
        k = int(rng.integers(1, 5))
        return (0, k), 6 * 8 * max(n ** k, n * n), np.concatenate((lam, rng.standard_normal(n ** k)))
    if case == 2:
        lam = rng.standard_normal(size)
        p = int(rng.integers(1, n))
        m = math.comb(n, p)
        return (2, p), 4 * 8 * (m * m + n), np.concatenate((lam, rng.standard_normal(m)))
    if case == 1:
        return (1, 0), 7 * 8 * n * n, rng.standard_normal(size + n * n)
    if case == 3:
        return (3, 0), 35 * n ** 4 + 2048, rng.standard_normal(size + size * size)
    return (4, 0), 16 * 8 * (size * size + n * n), rng.standard_normal(size + n * n + size * size)


def _check_lemma_2_2(t, n, key, rows):
    """Action-norm inequalities for every tensor kind, including both KN
    corollary forms.  Trials are grouped by case and by order or degree."""
    case, degree = key
    size = _pair_count(n)
    if case == 4:
        lam, values, raw = _fields(rows, (size,), (n, n), (size, size))
    else:
        shape = ((n,) * degree, (n, n), (math.comb(n, degree),), (size, size))[case]
        lam, values = _fields(rows, (size,), shape)
    lam_sq = _compact_norms(lam)
    g = np.eye(n)
    if case in (1, 3, 4):
        values = _symmetrized(values)
    # each factor is |lam|^2 at the kind's highest weight lam
    if case == 0:
        lhs = _tensor_norms(_KINDS[Tensor0k].acted(lam, values, n, degree))
        factor = _weight_norms(TensorKind.generic(degree), n)[1]
        return [_at_mosts("generic", lhs, factor * _tensor_norms(values) * lam_sq, t)]
    if case == 1:
        lhs = _dense_norms(_KINDS[Sym2].acted(lam, values, n))
        factor = _weight_norms(TensorKind.sym2(), n)[1]
        return [_at_mosts("sym2", lhs, factor * _dense_norms(_traceless(values)) * lam_sq, t)]
    if case == 2:
        lhs = _compact_norms(_KINDS[PForm].acted(lam, values, n, degree))
        factor = _weight_norms(TensorKind.pform(degree), n)[1]
        return [_at_mosts("pform", lhs, factor * _compact_norms(values) * lam_sq, t)]
    if case == 3:
        lr = _dense_norms(_KINDS[CurvatureOperator].acted(lam, values, n))
        lrm = _dense_norms(_KINDS[CurvTensor].acted(lam, _tensors_from_ops(values, n), n))
        r0 = _traceless(values)
        factor = _weight_norms(TensorKind.weyl(), n)[1]
        return [
            _at_mosts("operator", lr, factor * _dense_norms(r0) * lam_sq, t),
            _closes("tensor-factor", lrm, 4.0 * lr, t),
            _at_mosts("tensor", lrm, factor * _dense_norms(_tensors_from_ops(r0, n)) * lam_sq, t),
        ]
    # the curvature tensors act and take their norms on operator
    # coordinates: |L A|^2 = 4 |L A_op|^2 and |A|^2 = 4 |A_op|^2
    kn, kn0 = _kn(g, values), _kn(g, _traceless(values))
    rb, (_, _, _, weyl, kn_ric0) = _bianchi_decompose(raw, n)
    lhs, lrm = (4.0 * _dense_norms(_KINDS[CurvatureOperator].acted(lam, r, n)) for r in (kn, rb))
    bound = (16.0 * _dense_norms(kn_ric0) / (n - 2.0) ** 2 + 32.0 * _dense_norms(weyl)) * lam_sq
    return [
        _at_mosts("kn", lhs, 16.0 * _dense_norms(kn0) * lam_sq, t),
        _at_mosts("kn-curv", lrm, bound, t),
    ]


def suite_lemma_2_2_sharpness(stream, t):
    """A rescaled extremal form scales |L w|^2 by the square of the scale,
    the Singer-Thorpe extremal takes its stated value, and each sharp pair
    meets Lemma 2.2's factor |lam|^2, |L T|^2 = |lam|^2 |T|^2 |L|^2, and the
    library's constant C, |L T|^2 C = |hat T|^2 |L|^2, with equality."""
    w, _, lam2 = extremal_pform(2)
    lw = so_act(lam2, w)
    scaled = PForm(w.n, w.p, 3.0 * w.comps)
    yield _closes(("form-rescale",), so_act(lam2, scaled).norm_sq(), 3.0 ** 2 * lw.norm_sq(), t)
    op = singer_thorpe_op((-1.0, 1.0, 3.0, 1.0, 1.0, 1.0))
    basis = singer_thorpe_basis()
    lr = act_on_operator(basis[1], op).norm_sq()
    r0 = op.traceless().norm_sq()
    yield _closes(("curv-equality",), lr, _weight_norms(TensorKind.weyl(), 4)[1] * r0, t)
    yield _closes(("curv-value",), lr, 64.0, t)
    for name, kind, tensor, factors in _sharp_pairs():
        n = tensor.n
        rotation = _rotation_sum(n, factors)
        lt, l_sq = so_act(rotation, tensor).norm_sq(), rotation.norm_sq()
        yield _closes(("factor", *name), lt, _weight_norms(kind, n)[1] * tensor.norm_sq() * l_sq, t)
        yield _closes(("constant", *name), lt * estimate_constant(kind, n), hat_norm_sq(tensor) * l_sq, t)


def _sharp_pairs():
    """Lemma 2.2's sharp pairs at n = 2..8 as (tag, kind, T, factors): T is
    the real part of a highest-weight tensor built from the vectors
    e_{2j} + i e_{2j+1}, j < factors, and its L is _rotation_sum(n, factors)."""
    for n in range(2, 9):
        yield ("sym2", n), TensorKind.sym2(), Sym2(np.diag([1.0, -1.0] + [0.0] * (n - 2))), 1
        for p in range(1, n // 2 + 1):
            yield ("pform", p, n), TensorKind.pform(p), PForm(n, p, _highest_weight_form(n, p)[0]), p
        if n >= 3:
            v = np.eye(n)[0] + 1j * np.eye(n)[1]
            for k in range(1, 5):
                tensor = Tensor0k(functools.reduce(np.multiply.outer, [v] * k).real)
                yield ("generic", k, n), TensorKind.generic(k), tensor, 1
        if n >= 4:
            real, imag = _highest_weight_form(n, 2)
            weyl = CurvatureOperator(n, np.outer(real, real) - np.outer(imag, imag))
            for kind in (TensorKind.weyl(), TensorKind.curvature_einstein()):
                yield (kind.name, n), kind, weyl, 2


def suite_estimate_constants(stream, t):
    """The defining property of each kind's constant: the action norm is at
    most the hat norm times the rotation norm over C."""
    for trial, rng in stream:
        n = int(rng.integers(3, 7))
        lam = random_so(rng, n)
        p = int(rng.integers(1, n))
        w = random_pform(rng, n, p)
        h = random_sym2(rng, n)
        scal, _, _, weyl, _ = _decompose(random_bianchi_operator(rng, n).mat, n)
        k = int(rng.integers(1, 4))
        tt = random_tensor(rng, n, k)
        # the curvature kinds on operator coordinates, whose action and hat
        # norms are a quarter of their (0,4)-tensors' (see _ops_from_tensors)
        einstein = CurvatureOperator(n, _einstein_part(scal, weyl, n))
        cases = [
            ("pform", w, TensorKind.pform(p), 1.0),
            ("sym2", h, TensorKind.sym2(), 1.0),
            ("einstein", einstein, TensorKind.curvature_einstein(), 4.0),
            ("weyl", CurvatureOperator(n, weyl), TensorKind.weyl(), 4.0),
            ("generic", tt, TensorKind.generic(k), 1.0),
        ]
        for name, tensor, kind, scale in cases:
            c = estimate_constant(kind, n)
            lhs, hat_sq = scale * so_act(lam, tensor).norm_sq(), scale * hat_norm_sq(tensor)
            yield _at_mosts((name, trial), lhs, hat_sq * lam.norm_sq() / c, t)


def _draw_lemma_2_1(rng, n, trial, index):
    # the row: the operator, then the operator the two curvature kinds
    # share, decomposed, and the kinds in turn: a form, ending its slot, and
    # its margin, a symmetric tensor and its margin, then the margins of
    # the two curvature kinds; the form's degree ends the row
    size = _pair_count(n)
    ops, form_end = 2 * size * size, 2 * size * size + _slot(n)
    row = np.zeros(form_end + n * n + 5)
    rng.standard_normal(out=row[:ops])
    p = int(rng.integers(1, n))
    rng.standard_normal(out=row[form_end - math.comb(n, p):form_end])
    row[-5] = _margin(rng)
    rng.standard_normal(out=row[form_end:-5])
    row[-4:-1] = _margin(rng), _margin(rng), _margin(rng)
    row[-1] = p
    # a symmetric tensor's block rows outgrow the operator matrix and its
    # eigenvalues, and every other array built for the whole group; the
    # curvature kinds' block rows on operator coordinates come through
    # _in_budget in _curvature_terms
    return None, 8 * size * n * n, row


def _check_lemma_2_1(t, n, key, rows):
    """Whenever the eigenvalue-average verdict holds at the kind's constant,
    the direct curvature-term bound holds too, including the quantitative
    positive case."""
    size = _pair_count(n)
    raw, shared, slots, raw_syms, margins, degrees = _fields(
        rows, (size, size), (size, size), (_slot(n),), (n, n), (4,), ())
    sym_ops, syms = _symmetrized(raw), _symmetrized(raw_syms)
    ops = sym_ops - _alternating_parts(sym_ops, n)
    vals = np.linalg.eigvalsh(ops)
    every = slice(None)
    kinds, terms = [], []
    for p, picked, (form,) in _by_degree(n, degrees, slots):
        kinds.append((TensorKind.pform(p), picked))
        terms.append(_direct_terms(ops[picked], form, n, _KINDS[PForm], p))
    kinds += [(TensorKind.sym2(), every), (TensorKind.curvature_einstein(), every), (TensorKind.weyl(), every)]
    terms += [_direct_terms(ops, syms, n, _KINDS[Sym2]), *_curvature_terms(ops, shared, n)]
    checks = []
    for (kind, picked), (lhs, hat_sq) in zip(kinds, terms):
        c, picked_vals = estimate_constant(kind, n), vals[picked]
        margin = margins[picked, ("pform", "sym2", "curvature_einstein", "weyl").index(kind.name)]
        # kappa sits the margin below the certified average, or below 0
        kappa = np.minimum(0.0, _apply_rule("lemma-2.1", picked_vals, n, c)[2]) - margin
        _, low, bound, holds, vanishing = _apply_rule("lemma-2.1", picked_vals, n, c, kappa)
        rhs, ok = _direct_check(lhs, hat_sq, kappa, t)
        # the tightest certified coefficient also works
        rhs2, ok2 = _direct_check(lhs, hat_sq, np.minimum(0.0, bound), t)
        floor_bound = low / c * hat_sq
        zeros = np.zeros(len(lhs))
        for name, failing, left, right, tol in (
            ("holds", ~holds, zeros, zeros, 0.0),
            ("direct", ~ok, lhs, rhs, t),
            ("direct-tight", ~ok2, lhs, rhs2, t),
            ("positive", vanishing & _at_most_fails(floor_bound, lhs, t), floor_bound, lhs, t),
        ):
            # a check of the picked trials, spread over the group
            spread = np.zeros((3, len(ops)))
            spread[:, picked] = failing, left, right
            checks.append(((name, kind.name), spread[0] != 0.0, spread[1], spread[2], tol))
    return checks


def _curvature_terms(ops, shared, n):
    """_direct_terms of the Einstein parts and of the Weyl tensors of the
    Bianchi parts of stacked raw shared draws, 4 times those of their
    operator matrices from _decompose (see _ops_from_tensors), whose block
    rows have N^2 entries a pair instead of n^4.  The decomposition holds a
    handful of N x N matrices a trial; the block rows, N^3 entries, are the
    largest array, and they outgrow the group's item at n >= 4, so the
    group is taken a budget of block rows at a time."""

    def terms(ops, shared):
        _, (scal, _, _, weyl, _) = _bianchi_decompose(shared, n)
        return [4.0 * side for values in (_einstein_part(scal, weyl, n), weyl)
                for side in _direct_terms(ops, values, n, _KINDS[CurvatureOperator])]

    lhs_e, hat_e, lhs_w, hat_w = _in_budget(8 * wedge_count(n) ** 3, terms, ops, shared)
    return [(lhs_e, hat_e), (lhs_w, hat_w)]


def _margin(rng):
    """The slack below the certified average: |normal| half of the time."""
    return abs(rng.standard_normal()) if rng.random() < 0.5 else 0.0


def suite_boundary_cases(stream, t):
    """The deterministic boundary examples: the flat-term form, the negative
    2-form term family, the indefinite Einstein operator, designed spectra
    at the edge of the Betti and Lemma 2.1 counts, an operator just off the
    Bianchi identity, and Lemma 2.1's equality case at the edge of the direct
    check's slack."""
    cp2 = cp2_op()
    kaehler = PForm(4, 2, _highest_weight_form(4, 2)[1])
    yield _closes(("cp2-term",), curvature_term(cp2, kaehler, kaehler), 0.0, t)
    s = spectrum(cp2)
    yield _closes(("cp2-spectrum",), float(np.abs(s.eigenvalues - np.array([0, 0, 2, 2, 2, 6.0])).max()), 0.0, t)
    bv = betti_verdict(s, 4, 2)
    yield _requires(("cp2-not-vanishing",), not bv.vanishing)
    yield _requires(("cp2-parallel",), bv.parallel_only)
    tv = tachibana_verdict(s, 4)
    yield _requires(("cp2-tachibana",), tv.parallel and not tv.constant_curvature)
    for n in (4, 5, 6):
        for lam_scale in (1.0, 2.5):
            op, form = negative_2form_term_op(n, lam_scale)
            term = curvature_term(op, form, form)
            # dyadic entries and +-1 hat rows make every product exact
            want = -4.0 * lam_scale * form.norm_sq()
            yield _requires(("neg-term", n, lam_scale), term == want, term, want)
            # (n-1)-nonnegative: the lowest sum of the Betti rule at p = 1 is 0
            low = _apply_rule("betti", spectrum(op).eigenvalues, n, 1)[1]
            yield _closes(("neg-lowest", n, lam_scale), float(low), 0.0, t)
            yield _requires(("neg-bianchi", n, lam_scale), op.bianchi_certified is True)
    remark = (-1.0, -1.0, 8.0, 2.0, 2.0, 2.0)
    op = singer_thorpe_op(remark)
    rm = tensor_from_op(op)
    four = fourdim_einstein_term(remark)
    # dyadic entries make both sides exact, -2592 bit for bit
    term = curvature_term(op, rm, rm)
    yield _requires(("remark-term",), four == term, four, term)
    yield _requires(("remark-negative",), four < 0.0)
    sr = spectrum(op)
    tvr = tachibana_verdict(sr, 4)
    yield _requires(("remark-tachibana",), not tvr.parallel and not tvr.constant_curvature)
    dec = decompose(cp2)
    yield _closes(("cp2-einstein",), dec.ric0.norm_sq(), 0.0, t)
    yield _requires(("cp2-weyl",), dec.weyl.norm_sq() > 1.0)
    # designed spectra on which the Betti count m = n - p alone is right:
    # m - 1 copies of -1 then m sum to 1 over the lowest m and stay negative
    # over fewer; m copies of -1 then a large value sum to -m over the lowest
    # m and turn positive over more
    for n in range(4, 9):
        size = wedge_count(n)
        for p in range(1, n // 2 + 1):
            m = n - p
            edge = betti_verdict(Spectrum([-1.0] * (m - 1) + [float(m)] * (size - m + 1), np.eye(size)), n, p)
            yield _requires(("betti-count-vanishing", n, p), edge.vanishing)
            low = betti_verdict(Spectrum([-1.0] * m + [float(size)] * (size - m), np.eye(size)), n, p)
            yield _requires(("betti-count-negative", n, p), not low.vanishing and not low.parallel_only)
        # and on which the Lemma 2.1 count m = floor(C) alone is right, for
        # every kind with m >= 2: m - 1 copies of -2 then m - 2 average
        # exactly -1 over the lowest m and -2 over fewer
        kinds = [TensorKind.pform(p) for p in range(1, n // 2 + 1)] + [TensorKind.sym2()]
        kinds += [TensorKind.weyl()] if n >= 5 else []
        for kind in kinds:
            c = estimate_constant(kind, n)
            m = math.floor(c)
            edge = Spectrum([-2.0] * (m - 1) + [m - 2.0] + [float(size)] * (size - m), np.eye(size))
            yield _requires(("lemma21-count", kind.name, kind.p, n), lemma21_verdict(edge, c, -1.0).holds)
    # a Singer-Thorpe operator off the Bianchi identity by 1e-10, whose
    # largest Bianchi sum of 5e-11 lies between the certificate's 1e-12 and
    # 1e-9
    near = singer_thorpe_op((1.0, 1.0, 1.0, 1.0, 1.0, 1.0 + 1e-10))
    yield _requires(("near-bianchi",), near.bianchi_certified is False)
    # Lemma 2.1's equality case: R = -I gives T = e0^e1 the term -|hat T|^2
    # = -4 exactly, which meets kappa = -1 and misses kappa = -1 + 1e-8 by
    # 4e-8, more than the direct check's slack allows
    minus, e01 = CurvatureOperator(4, -np.eye(6)), wedge_basis_form(4, (0, 1))
    lhs, _, sharp = direct_term_check(minus, e01, -1.0)
    _, rhs, off = direct_term_check(minus, e01, -1.0 + 1e-8)
    yield _requires(("direct-slack",), sharp and not off, lhs, rhs)


def suite_singer_thorpe(stream, t):
    """Multiplication table of the split basis, the Bianchi criterion over
    random eigenvalue sextuples, and the basis-diagonal norm formula."""
    basis = singer_thorpe_basis()
    root2 = math.sqrt(2.0)
    for i in range(6):
        for j in range(6):
            if i == j:
                continue
            out = ad_matrix(basis[i]) @ basis[j].comps
            same_triple = (i < 3) == (j < 3)
            if not same_triple:
                yield _requires(("table-zero", i, j), not out.any(), float(np.abs(out).max()))
                continue
            k = ({0, 1, 2} if i < 3 else {3, 4, 5}).difference({i, j}).pop()
            coeff = float(out @ basis[k].comps)
            yield _closes(("table-coeff", i, j), abs(coeff), root2, t)
            yield _closes(("table-direction", i, j), float(np.abs(out - coeff * basis[k].comps).max()), 0.0, t)
    for i in range(6):
        for j in range(6):
            gram = float(basis[i].comps @ basis[j].comps)
            yield _closes(("orthonormal", i, j), gram, 1.0 if i == j else 0.0, t)
    star = np.zeros((6, 6))
    star[wedge_index(4, 0, 1), wedge_index(4, 2, 3)] = 1.0
    star[wedge_index(4, 2, 3), wedge_index(4, 0, 1)] = 1.0
    star[wedge_index(4, 0, 2), wedge_index(4, 1, 3)] = -1.0
    star[wedge_index(4, 1, 3), wedge_index(4, 0, 2)] = -1.0
    star[wedge_index(4, 0, 3), wedge_index(4, 1, 2)] = 1.0
    star[wedge_index(4, 1, 2), wedge_index(4, 0, 3)] = 1.0
    for i in range(6):
        want = basis[i].comps if i < 3 else -basis[i].comps
        yield _closes(("duality", i), float(np.abs(star @ basis[i].comps - want).max()), 0.0, t)
    for trial, rng in stream:
        lams = rng.normal(size=6)
        if trial % 2 == 0:
            lams[5] = lams[0] + lams[1] + lams[2] - lams[3] - lams[4]
            expect = True
        else:
            gap = lams[0] + lams[1] + lams[2] - lams[3] - lams[4] - lams[5]
            if abs(gap) < 0.1:
                lams[5] -= 0.5 if gap >= 0 else -0.5
            expect = False
        op = singer_thorpe_op(lams)
        yield _requires(("bianchi-iff", trial), op.bianchi_certified is expect)
        a = rng.normal(size=6)
        lam_el = SoElement(4, sum(a[g] * basis[g].comps for g in range(6)))
        lhs = act_on_operator(lam_el, op).norm_sq()
        triples = ((1, 2), (0, 2), (0, 1), (4, 5), (3, 5), (3, 4))
        rhs = 4.0 * sum(
            a[g] ** 2 * (lams[x] - lams[y]) ** 2 for g, (x, y) in enumerate(triples)
        )
        # the one comparison that keeps a slack of its own: its two sides
        # differ by up to 1.6e-15 relative (seeds 0-19, 1000 trials), above
        # the suite's 1e-15
        yield _closes(("diagonal-norm", trial), lhs, rhs, 1e-13)
        spread = max(lams) - min(lams)
        yield _at_mosts(("diagonal-bound", trial), lhs, 4.0 * spread ** 2 * lam_el.norm_sq(), t)
    cp2 = cp2_op()
    # the integer split vectors u = sqrt(2) basis keep every product exact,
    # so no rounding of 1/sqrt(2) or summation order enters the norm
    split = _split_vectors(4)
    for idx, want in ((0, 144.0), (1, 144.0), (2, 0.0), (3, 0.0), (4, 0.0), (5, 0.0)):
        got = act_on_operator(SoElement(4, split[idx]), cp2).norm_sq() / 2.0
        yield _closes(("cp2-maximal", idx), got, want, t)


def suite_fourdim_einstein(stream, t):
    """The six-eigenvalue expansion of the curvature term on the operator's
    own curvature tensor."""
    for tag, lams, want in (("equal", (3.0,) * 6, 0.0), ("remark", (-1, -1, 8, 2, 2, 2), -2592.0),
                            ("cp2", (0, 0, 6, 2, 2, 2), 0.0)):
        got = fourdim_einstein_term(lams)
        yield _requires((tag,), got == want, got, want)
    for trial, rng in stream:
        lams = rng.normal(size=6)
        lams[5] = lams[0] + lams[1] + lams[2] - lams[3] - lams[4]
        op = singer_thorpe_op(lams)
        rm = tensor_from_op(op)
        yield _closes(("identity", trial), fourdim_einstein_term(lams), curvature_term(op, rm, rm), t)


def suite_normal_h(stream, t):
    """The complex-eigenbasis expansion of the curvature term on normal
    endomorphisms against the real computation."""
    op4, _ = negative_sym2_term_op(4, 1.0, -1.0)
    yield _closes(("flat",), normal_h_term(op4, np.diag([-1.0, 0.0, 0.0, 1.0])), 0.0, t)
    op6, h6 = negative_sym2_term_op(6, 1.0, -3.0)
    yield _closes(("negative",), normal_h_term(op6, np.diag([-1.0, 0, 0, 0, 0, 1.0])), -8.0, t)
    yield _closes(("metric",), normal_h_term(op6, np.eye(6)), 0.0, t)
    for trial, rng in stream:
        n = int(rng.integers(3, 7))
        r = random_sym_operator(rng, n)
        hmat = random_normal_matrix(rng, n)
        lhs = normal_h_term(r, hmat)
        ht = Tensor0k(hmat)
        rhs = curvature_term(r, ht, ht)
        yield _closes(("expansion", trial), lhs, rhs, t)


def suite_extremal_pform(stream, t):
    """Rotation-pair identities, support sizes, and the group tally of the
    sharp p-form family."""
    for p in (1, 2, 3, 4):
        w1, w2, lam = extremal_pform(p)
        lw1 = so_act(lam, w1)
        lw2 = so_act(lam, w2)
        yield _closes(("first", p), float(np.abs(lw1.comps + p * w2.comps).max()), 0.0, t)
        yield _closes(("second", p), float(np.abs(lw2.comps - p * w1.comps).max()), 0.0, t)
        sup1 = int(np.count_nonzero(w1.comps))
        sup2 = int(np.count_nonzero(w2.comps))
        yield _requires(("support", p), sup1 + sup2 == 2 ** p, sup1 + sup2, 2 ** p)
        yield _requires(("disjoint", p), not np.any((w1.comps != 0) & (w2.comps != 0)))
        yield _requires(
            ("unit-coeffs", p),
            bool(np.all(np.isin(w1.comps, (-1.0, 0.0, 1.0))))
            and bool(np.all(np.isin(w2.comps, (-1.0, 0.0, 1.0)))),
        )


def suite_complex_sectional(stream, t):
    """Complex sectional curvatures: real pairs, the eigen-expansion, and
    the isotropic plane value of the symmetric example operator."""
    cp2 = cp2_op()
    # 3 on the unit plane; on z = e0 + i e1 and w = e2 + i e3, whose wedge
    # has norm 4, it is 12 bit for bit
    isotropic = complex_sectional(cp2, np.array([1.0, 1.0j, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 1.0j]))
    yield _requires(("cp2-isotropic",), isotropic == 12.0, isotropic, 12.0)
    for trial, rng in stream:
        n = int(rng.integers(3, 7))
        r = random_sym_operator(rng, n)
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        e = np.eye(n)
        # e_i ^ e_j has one wedge coordinate, 1, so the value is the entry
        real_pair = complex_sectional(r, e[:, i], e[:, j])
        entry = float(r.mat[wedge_index(n, i, j), wedge_index(n, i, j)])
        yield _requires(("real-pair", trial), real_pair == entry, real_pair, entry)
        zc = rng.normal(size=n) + 1j * rng.normal(size=n)
        wc = rng.normal(size=n) + 1j * rng.normal(size=n)
        got = complex_sectional(r, zc, wc)
        vals, vecs = np.linalg.eigh(r.mat)
        zeta = wedge_coordinates(zc, wc, n)
        coeffs = vecs.T @ zeta
        want = float(np.sum(vals * np.abs(coeffs) ** 2))
        yield _closes(("eigen-expansion", trial), got, want, t)
        ident = identity_operator(n)
        yield _requires(("identity-positive", trial), complex_sectional(ident, zc, wc) > 0.0)


def suite_warped_round(stream, t):
    """Round jets give the all-ones spectrum with the right multiplicities,
    and assembled operators are Bianchi."""
    for p in (2, 3, 4):
        for q in (2, 3, 4):
            for ridx, r in enumerate((0.3, 0.7, 1.1, 1.4)):
                evs = dwp_eigenvalue_list(p, q, round_jet(r))
                yield _closes(("ones", p, q, ridx), float(np.abs(evs - 1.0).max()), 0.0, t)
                want = math.comb(p + q + 1, 2)
                yield _requires(("count", p, q, ridx), evs.size == want, evs.size, want)
            fams = dwp_eigenvalues(p, q, round_jet(0.5))
            tally = sum(m for _, m, _ in fams)
            yield _requires(("tally", p, q), tally == math.comb(p + q + 1, 2))
            if p + q + 1 <= 8:
                op = dwp_operator(p, q, round_jet(0.8))
                yield _requires(("bianchi", p, q), op.bianchi_certified is True)
                yield _closes(("identity", p, q), float(np.abs(op.mat - np.eye(op.N)).max()), 0.0, t)
    for trial, rng in stream:
        prof = perturbed_profile(2, 2, float(rng.uniform(0.2, 1.5)), 0.8, 0.1)
        r = float(rng.uniform(0.2, 1.3))
        op = dwp_operator(2, 2, prof(r))
        yield _requires(("perturbed-bianchi", trial), op.bianchi_certified is True)


def suite_warped_perturbed(stream, t):
    """The bump profile: exact round limit, the deep radial dip with the
    other families pinned near one, and the positivity transition."""
    prof0 = perturbed_profile(2, 2, 0.0, 0.8, 0.2)
    for r in (0.3, 0.8, 1.2):
        jet = prof0(r)
        base = round_jet(r)
        yield _closes(("round-limit", r), abs(jet.phi - base.phi) + abs(jet.dphi - base.dphi) + abs(jet.d2phi - base.d2phi), 0.0, t)
    yield _closes(("round-bound",), prof0.c1_bound, 0.0, t)
    # deep dip, everything else near one on an interior window
    prof = perturbed_profile(2, 2, 2.0, 0.8, 0.01)
    rs = np.linspace(0.1, 1.2, 400)
    radial = []
    others = []
    for r in rs:
        fams = dwp_eigenvalues(2, 2, prof(r))
        radial.append(fams[0][0])
        others.extend(v for v, _, _ in fams[1:])
    yield _requires(("dip",), min(radial) <= -1.0, min(radial), -1.0)
    yield _requires(("others-near-one",), 0.9 <= min(others) and max(others) <= 1.1, min(others), max(others))
    # 3-positive everywhere but not 2-positive somewhere
    prof2 = perturbed_profile(2, 2, 0.9, 0.8, 0.05)
    rs = np.linspace(0.02, math.pi / 2 - 0.02, 500)
    low2 = []
    low3 = []
    for r in rs:
        evs = dwp_eigenvalue_list(2, 2, prof2(r))
        low2.append(float(evs[:2].sum()))
        low3.append(float(evs[:3].sum()))
    yield _requires(("not-2-positive",), min(low2) <= 0.0, min(low2), 0.0)
    yield _requires(("3-positive",), min(low3) > 0.0, min(low3), 0.0)


def suite_ode(stream, t):
    """Fixed point, axis crossings with the radius growth, exact scalar
    curvature along trajectories, time reversal, and the convergence order."""
    for n in (4, 5, 6, 7, 8):
        center = math.sqrt((n - 2) / 2.0)
        fixed = integrate_warp_ode(n, center, 0.0, 1e-3, 3.0)
        drift = max(max(abs(x - center), abs(y)) for x, y in zip(fixed.x, fixed.y))
        # the fixed point stays put up to the RK4 step's rounding
        yield _at_mosts(("fixed-point", n), drift, 0.0, t)
        yield _requires(("fixed-status", n), fixed.status == "ok")
        x0 = math.sqrt((n - 2) / 4.0)
        res = ode_shoot(n, x0, step=1e-3, t_max=30.0)
        yield _requires(("crossed", n), res.status == "crossed")
        if res.crossing is not None:
            yield _requires(
                ("radius-growth", n),
                res.crossing[1] ** 2 > (n - 2) / 2.0,
                res.crossing[1] ** 2,
                (n - 2) / 2.0,
            )
        worst = max(abs(s - 2.0 * (n - 1)) for s in trajectory_scal(n, res.x, res.y))
        yield _at_mosts(("scal", n), worst, 0.0, t)
    # time reversal: reflecting a segment solves the system again
    n = 4
    fwd = integrate_warp_ode(n, 0.6, 0.0, 1e-3, 2.0)
    back = integrate_warp_ode(n, fwd.x[-1], -fwd.y[-1], 1e-3, 2.0)
    worst = 0.0
    for bx, by, fx, fy in zip(back.x, back.y, reversed(fwd.x), reversed(fwd.y)):
        worst = max(worst, abs(bx - fx), abs(by + fy))
    yield _at_mosts(("time-reversal",), worst, 0.0, t)
    # fourth order convergence measured through the crossing radius
    def crossing_radius(h):
        return ode_shoot(4, math.sqrt(0.5), step=h, t_max=30.0).crossing[1]

    coarse, mid, fine, reference = (
        crossing_radius(0.02),
        crossing_radius(0.01),
        crossing_radius(0.005),
        crossing_radius(0.0025),
    )
    err_coarse = abs(coarse - reference)
    err_mid = abs(mid - reference)
    err_fine = abs(fine - reference)
    yield _requires(
        ("halving-factor",),
        err_coarse >= 8.0 * err_mid and err_mid >= 8.0 * err_fine,
        err_coarse / max(err_mid, 1e-300),
        8.0,
    )
    order = math.log2(abs(coarse - mid) / max(abs(mid - fine), 1e-300))
    yield _requires(("order",), order >= 3.8, order, 3.8)


def suite_serialization(stream, t):
    """Operator files: write/read reproduces every matrix entry bit-exactly."""
    for trial, rng in stream:
        n = int(rng.integers(2, 7))
        op = random_sym_operator(rng, n)
        text = dumps_operator(op, metadata={"label": "round-trip", "value": float(rng.normal())})
        back, doc = loads_operator(text)
        yield _requires(("bit-exact", trial), bool(np.array_equal(back.mat, op.mat)))
        again = dumps_operator(back, metadata=doc.get("metadata"))
        yield _requires(("stable", trial), again == text)
    special = CurvatureOperator(2, np.array([[-0.0]]))
    text = dumps_operator(special)
    back, _ = loads_operator(text)
    yield _requires(("negative-zero",), bool(np.array_equal(back.mat, special.mat)))


# name, how the suite runs, its default trial count and its default
# tolerance (None where no comparison takes one).  A suite runs as a body,
# a generator body(stream, t) of comparisons, or as the (dims, draw, check)
# of a suite that _batched checks in batches at each n of dims; a suite's
# index here seeds its trial stream
_SUITE_TABLE = (
    ("exact-values", suite_exact_values, 1, 1e-12),
    ("prop-1.1", (range(3, 9), _draw_prop_1_1, _check_prop_1_1), 1000, 1e-10),
    ("tensor-core", suite_tensor_core, 300, 1e-12),
    ("prop-1.2", (range(3, 8), _draw_prop_1_2, _check_prop_1_2), 400, 1e-12),
    ("prop-1.3", (range(3, 8), _draw_prop_1_3, _check_prop_1_3), 400, 1e-12),
    ("prop-1.6", suite_prop_1_6, 200, 1e-9),
    ("prop-1.7", (range(3, 8), _draw_prop_1_7, _check_prop_1_7), 1000, 1e-9),
    ("prop-1.9", (range(3, 8), _draw_prop_1_9, _check_prop_1_9), 1000, 1e-10),
    ("prop-2.8", (range(3, 8), _draw_prop_2_8, _check_prop_2_8), 1000, 1e-9),
    ("ric-closed-form", suite_ric_closed_form, 200, 1e-12),
    ("hat-closed-form", suite_hat_closed_form, 150, 0.0),
    ("hat-structure", suite_hat_structure, 60, 1e-12),
    ("basis-independence", suite_basis_independence, 60, 1e-9),
    ("bianchi-split", suite_bianchi_split, 200, 1e-12),
    ("decompose", suite_decompose, 200, 1e-12),
    ("spectrum", suite_spectrum, 80, 1e-10),
    ("lemma-2.2", (range(3, 7), _draw_lemma_2_2, _check_lemma_2_2), 10000, 1e-10),
    ("lemma-2.2-sharpness", suite_lemma_2_2_sharpness, 1, 1e-12),
    ("estimate-constants", suite_estimate_constants, 400, 1e-10),
    ("lemma-2.1-soundness", (range(3, 7), _draw_lemma_2_1, _check_lemma_2_1), 2500, 1e-10),
    ("boundary-cases", suite_boundary_cases, 1, 1e-12),
    ("singer-thorpe", suite_singer_thorpe, 1000, 1e-15),
    ("fourdim-einstein", suite_fourdim_einstein, 1000, 1e-9),
    ("normal-h", suite_normal_h, 150, 1e-9),
    ("extremal-pform", suite_extremal_pform, 1, 0.0),
    ("complex-sectional", suite_complex_sectional, 150, 1e-9),
    ("warped-round", suite_warped_round, 20, 1e-12),
    ("warped-perturbed", suite_warped_perturbed, 1, 1e-12),
    ("ode", suite_ode, 1, 1e-8),
    ("serialization", suite_serialization, 100, None),
)

SUITES = {name: (runs, trials, tol) for name, runs, trials, tol in _SUITE_TABLE}
_SUITE_IDS = {name: idx for idx, (name, *_) in enumerate(_SUITE_TABLE)}


def _indices_a_trial(runs):
    """The trial indices one trial of a suite takes: one, or one for each n
    of a batched suite's dims."""
    return 1 if callable(runs) else len(runs[0])


def check_selection(names, trials=None, seed=42, tol=None):
    """The checked (trials, seed, tol) of a run of the suites names, or an
    error for the first of its inputs that cannot run, so before any suite
    runs: KeyError when a name names no suite, and ValueError unless
    trials is None or an integer from 1 to 2**32, the limits of the
    command line's --trials, and at most each suite's trial limit, unless
    seed is a non-negative integer, and unless tol is None or a finite real
    number.  A suite takes one trial index a trial, and a batched suite one
    a trial and n of its dims, so its trial limit is 2**32 // len(dims)."""
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}")
    if trials is not None:
        trials = _integer(trials, "trials", 1)
        if trials > _TRIAL_LIMIT:
            raise ValueError(f"trials must be at most 2**32, the number of trial indices, got {trials}")
        for name in names:
            limit = _TRIAL_LIMIT // _indices_a_trial(SUITES[name][0])
            if trials > limit:
                raise ValueError(f"trials: {name} takes at most {limit} trials, "
                                 f"the most its trial indices hold; got {trials}")
    seed = _integer(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if tol is not None and not math.isfinite(_real(tol, "tol")):
        raise ValueError(f"tol must be finite, got {tol}")
    return trials, seed, tol


def run_suite(name, trials=None, seed=42, tol=None) -> Report:
    """Run one suite and wrap the outcome in a report; trials and tol
    default to the suite's own values in _SUITE_TABLE.  check_selection
    checks the name, trials, seed and tol before the suite runs, whether it
    draws or not; the suite's stream is _trial_stream(seed, its suite
    index, 0, its number of trial indices)."""
    trials, seed, tol = check_selection([name], trials, seed, tol)
    runs, count, default_tol = SUITES[name]
    count = count if trials is None else trials
    t = default_tol if tol is None else tol
    stream = _trial_stream(seed, _SUITE_IDS[name], 0, _indices_a_trial(runs) * count)
    start = time.perf_counter()
    # a body is a generator, which compares as _record consumes it
    failures = _record(runs(stream, t) if callable(runs) else _batched(stream, count, t, *runs))
    elapsed = time.perf_counter() - start
    return Report(suite=name, trials=count, failures=failures, seed=seed, wall_time=elapsed)


def run_all(trials=None, seed=42, tol=None):
    """Run every suite in registry order; check_selection checks trials
    against every suite's trial limit, the seed and the tolerance before
    the first suite runs."""
    trials, seed, tol = check_selection(SUITES, trials, seed, tol)
    return [run_suite(name, trials=trials, seed=seed, tol=tol) for name in SUITES]
