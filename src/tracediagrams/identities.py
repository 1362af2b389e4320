"""Registry of named identity checks over randomized exact matrices.

Each check compares diagram evaluations against brute-force linear algebra
(or against an independently computed closed form) with exact equality; a
failing check always carries a reproducible counterexample.  RNG streams are
derived per (check id, n, trial) from the master seed, so report content is
byte-for-byte reproducible and independent of execution order.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, repeat
from math import comb, factorial
from operator import eq, itemgetter, mul

from .builders import (adjugate_diagram, adjugate_value, antisym_nodepair,
                       antisym_tensor, antisym_traced_classes,
                       binet_cauchy_pair, complemental_node, cramer_solve,
                       cross_product_node, crossout_nullifier,
                       det_permsum_value, jacobi_diagrams, loop_diagram,
                       power_strand, scalar_probe, trace_loop, vertex_pair)
from .diagrams import (COVECTOR, SINK, VECTOR, Cap, Cross, Cup, Id,
                       LayeredDiagram, Mat, NVertex, Perm,
                       canonical_ciliation, compose_vertical, to_graph)
from .evaluate import eval_contraction, eval_layered
from .linalg import (Matrix, Permutation, adjugate_oracle, charpoly_oracle,
                     det_oracle, format_rat, levi_civita, reversal_sign,
                     solve_oracle)
from .tensor import Tensor

DEFAULT_BOUND = 9


def derive_seed(master: int, *parts) -> int:
    """Stable sub-seed; never uses Python's randomized string hashing."""
    text = ":".join([str(master)] + [str(p) for p in parts])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def random_matrix(n: int, seed: int, *, invertible: bool = False) -> Matrix:
    """Uniform integer entries in [-DEFAULT_BOUND, DEFAULT_BOUND]; optionally
    resampled (at most 32 attempts) until invertible."""
    rng = random.Random(seed)
    for _ in range(32):
        m = Matrix([[rng.randint(-DEFAULT_BOUND, DEFAULT_BOUND)
                     for _ in range(n)] for _ in range(n)])
        if not invertible or det_oracle(m) != 0:
            return m
    raise RuntimeError("resampling exhausted looking for an invertible matrix")


def random_vector(n: int, seed: int) -> tuple[int, ...]:
    """Uniform integer entries in [-DEFAULT_BOUND, DEFAULT_BOUND]."""
    rng = random.Random(seed)
    return tuple(rng.randint(-DEFAULT_BOUND, DEFAULT_BOUND)
                 for _ in range(n))


# -- Check machinery ---------------------------------------------------------

class CheckFailure(Exception):
    def __init__(self, message: str, counterexample: dict | None = None):
        super().__init__(message)
        self.counterexample = counterexample or {}


@dataclass
class IdentityReport:
    id: str
    params: dict
    trials: int
    outcome: str                       # "pass" | "fail" | "error"
    counterexample: dict | None
    elapsed: float

    def line(self, timings: bool = False) -> str:
        status = self.outcome.upper()
        bits = [status, self.id]
        bits += [f"{k}={v}" for k, v in self.params.items()]
        if timings:
            bits.append(f"elapsed={self.elapsed:.3f}s")
        if self.counterexample:
            bits.append("counterexample=" + json.dumps(
                self.counterexample, sort_keys=True))
        return " ".join(bits)

    def record(self, timings: bool = False) -> dict:
        rec = {"id": self.id, "params": self.params, "trials": self.trials,
               "outcome": self.outcome,
               "counterexample": self.counterexample}
        if timings:
            rec["elapsed"] = self.elapsed
        return rec


class CheckContext:
    """Per-run helpers handed to a check procedure."""

    def __init__(self, check_id: str, n: int, trials: int, seed: int):
        self.check_id = check_id
        self.n = n
        self.trials = trials
        self.seed = seed

    def trial_seed(self, trial: int, tag: str = "") -> int:
        return derive_seed(self.seed, self.check_id, self.n, trial, tag)

    def matrix(self, trial: int, tag: str = "",
               invertible: bool = False) -> Matrix:
        return random_matrix(self.n, self.trial_seed(trial, "M" + tag),
                             invertible=invertible)

    def vector(self, trial: int, tag: str = "") -> tuple[int, ...]:
        return random_vector(self.n, self.trial_seed(trial, "v" + tag))

    def fail(self, message: str, **payload):
        detail = {"seed": self.seed, "n": self.n}
        for key, value in payload.items():
            detail[key] = _serialize(value)
        raise CheckFailure(message, detail)


def _serialize(value):
    if isinstance(value, Matrix):
        return [[format_rat(x) for x in row] for row in value.rows]
    if isinstance(value, Tensor):
        return {"shape": [value.n, value.out_arity, value.in_arity],
                "entries": [format_rat(x) for x in value.entries]}
    if isinstance(value, (tuple, list)):
        return [_serialize(v) for v in value]
    if isinstance(value, Fraction):
        return format_rat(value)
    return value


@dataclass(frozen=True)
class IdentityCheck:
    id: str
    summary: str
    procedure: object
    n_range: tuple[int, int] = (2, 6)
    uses_trials: bool = True
    stretch: bool = False


REGISTRY: dict[str, IdentityCheck] = {}


def _register(id: str, summary: str, n_range=(2, 6), uses_trials=True,
              stretch=False):
    def wrap(fn):
        REGISTRY[id] = IdentityCheck(id, summary, fn, n_range, uses_trials,
                                     stretch)
        return fn
    return wrap


def run_check(check_id: str, n: int, trials: int = 10,
              seed: int = 0) -> IdentityReport:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if check_id not in REGISTRY:
        raise KeyError(f"unknown identity {check_id!r}; "
                       f"see the registry listing")
    check = REGISTRY[check_id]
    lo, hi = check.n_range
    if not lo <= n <= hi:
        raise ValueError(
            f"check {check_id} supports n in {lo}..{hi}, got {n}")
    ctx = CheckContext(check_id, n, trials if check.uses_trials else 0, seed)
    params = {"n": n, "trials": ctx.trials, "seed": seed}
    start = time.perf_counter()
    try:
        check.procedure(ctx)
        outcome, counterexample = "pass", None
    except CheckFailure as failure:
        outcome, counterexample = "fail", dict(failure.counterexample)
        counterexample["message"] = str(failure)
    except Exception as exc:           # a broken check must not hide the rest
        outcome = "error"
        counterexample = {"seed": seed, "n": n,
                          "message": f"{type(exc).__name__}: {exc}"}
    elapsed = time.perf_counter() - start
    return IdentityReport(check_id, params, ctx.trials, outcome,
                          counterexample, elapsed)


def select_checks(max_n: int = 4,
                  include_stretch: bool = False) -> list[tuple[str, int]]:
    """(check id, n) for every check and every n in its range up to max_n,
    in registry order."""
    if max_n < 2:
        raise ValueError("max_n must be >= 2")
    return [(check.id, n) for check in REGISTRY.values()
            if include_stretch or not check.stretch
            for n in range(check.n_range[0], min(check.n_range[1], max_n) + 1)]


def run_all(max_n: int = 4, trials: int = 10, seed: int = 0,
            include_stretch: bool = False) -> list[IdentityReport]:
    return [run_check(check_id, n, trials, seed)
            for check_id, n in select_checks(max_n, include_stretch)]


def report_lines(reports, timings: bool = False):
    for r in reports:
        yield r.line(timings)


def report_records(reports, timings: bool = False):
    for r in reports:
        yield json.dumps(r.record(timings), sort_keys=True)


# -- Shared helpers -----------------------------------------------------------

def eval_graph(diagram: LayeredDiagram, bindings) -> Tensor:
    return eval_contraction(to_graph(diagram), bindings,
                            validated=True).tensor


def traced_terms(n: int, strands: int, closed: bool = False) -> list:
    """(signed count, open power, graph) for each class of the traced
    antisymmetrizer on `strands` strands, strand 1 left open unless closed
    (builders.antisym_traced_classes).  The first element is the class's
    signed count, not a sign.  The graphs are built once, so a trial only
    binds its matrix."""
    return [(term.sign, term.open_power, to_graph(term.diagram))
            for term in antisym_traced_classes(
                strands, None if closed else 0, "A", n)]


def traced_groups(terms, matrix: Matrix) -> dict[int, Tensor]:
    """Sums of traced_terms' terms grouped by the matrix power along the
    open strand, evaluated on the graph path.  Each term's first element is
    a signed count, not a sign, and scales its tensor."""
    groups: dict[int, Tensor] = {}
    for count, power, graph in terms:
        t = eval_contraction(graph, {"A": matrix}, validated=True).tensor
        weighted = t.scale(count)
        if power in groups:
            groups[power] = groups[power] + weighted
        else:
            groups[power] = weighted
    return groups


def closed_traced_scalar(terms, matrix: Matrix):
    """The sum of closed traced_terms' scalars.  Each term's first element
    is a signed count, not a sign, and multiplies its scalar."""
    total = 0
    for count, _, graph in terms:
        value = eval_contraction(graph, {"A": matrix},
                                 validated=True).tensor.as_scalar()
        total += count * value
    return total


# -- Registry entries ------------------------------------------------------------

@_register("trace_loop", "closed labeled loop equals the matrix trace",
           n_range=(2, 7))
def _check_trace_loop(ctx: CheckContext):
    d = trace_loop(ctx.n, "A")
    for trial in range(ctx.trials):
        a = ctx.matrix(trial)
        got = eval_layered(d, {"A": a}).tensor.as_scalar()
        if got != a.trace():
            ctx.fail(f"trace diagram gave {got}, trace is {a.trace()}",
                     trial=trial, A=a)


@_register("loop_dim", "closed unlabeled loop equals the dimension",
           n_range=(2, 7), uses_trials=False)
def _check_loop_dim(ctx: CheckContext):
    got = eval_layered(loop_diagram(ctx.n), {}).tensor.as_scalar()
    if got != ctx.n:
        ctx.fail(f"loop gave {got}, expected {ctx.n}")


@_register("det_permsum_vs_oracle",
           "signed permutation-diagram sum equals the determinant",
           n_range=(2, 7))
def _check_det_permsum(ctx: CheckContext):
    for trial in range(ctx.trials):
        a = ctx.matrix(trial)
        got = det_permsum_value(ctx.n, a)
        want = det_oracle(a)
        if got != want:
            ctx.fail(f"permutation sum gave {got}, determinant is {want}",
                     trial=trial, A=a)


@_register("kink_identity", "cup-over-cap kinks equal the plain strand",
           n_range=(2, 7), uses_trials=False)
def _check_kink(ctx: CheckContext):
    n = ctx.n
    ident = Tensor.identity(n, 1)
    vector_kink = LayeredDiagram(n, (VECTOR,), [(Id(), Cup()), (Cap(), Id())])
    covector_kink = LayeredDiagram(n, (COVECTOR,),
                                   [(Cup(), Id()), (Id(), Cap())])
    for tag, d in (("vector", vector_kink), ("covector", covector_kink)):
        for path, t in (("layered", eval_layered(d, {}).tensor),
                        ("contraction", eval_graph(d, {}))):
            if t != ident:
                ctx.fail(f"{tag} kink via {path} is not the identity",
                         kink=t)


@_register("cup_swap", "crossing after a cup swaps the output polarities",
           n_range=(2, 7), uses_trials=False)
def _check_cup_swap(ctx: CheckContext):
    n = ctx.n
    swapped = LayeredDiagram(n, (), [(Cup(),), (Cross(),)])
    plain = LayeredDiagram(n, (), [(Cup(),)])
    if swapped.outputs() != (VECTOR, COVECTOR):
        ctx.fail("swapped cup must output (vector, covector)",
                 outputs=list(swapped.outputs()))
    if plain.outputs() != (COVECTOR, VECTOR):
        ctx.fail("plain cup must output (covector, vector)",
                 outputs=list(plain.outputs()))
    ts = eval_layered(swapped, {}).tensor
    tp = eval_layered(plain, {}).tensor
    delta = Tensor.from_function(n, 2, 0,
                                 lambda outs, ins: int(outs[0] == outs[1]))
    if ts != delta or tp != delta:
        ctx.fail("cup entries must be the diagonal pairing either way",
                 swapped=ts, plain=tp)
    if ts != eval_graph(swapped, {}):
        ctx.fail("swapped cup disagrees across evaluators")


@_register("triple_isotopy",
           "bending one leg of a degree-3 vertex over a cap preserves it",
           n_range=(3, 3), uses_trials=False)
def _check_triple_isotopy(ctx: CheckContext):
    n = 3
    straight = complemental_node(3, n)
    bent_right = LayeredDiagram(n, (VECTOR,) * 3, [
        (NVertex(SINK, 2, canonical_ciliation(n, 2)), Id()),
        (Cross(),),
        (Cap(),),
    ])
    # bent_right consumes (v1, v2) then caps with v3; bent_left consumes
    # (v2, v3) and caps against v1, which reads the cyclic rotation, so a
    # permutation slice under it undoes the rotation
    def bent_left(perm):
        return LayeredDiagram(n, (VECTOR,) * 3, [
            (Perm(perm),),
            (Id(), NVertex(SINK, 2, canonical_ciliation(n, 2))),
            (Cap(),),
        ])

    ts = eval_layered(straight, {}).tensor
    tr_ = eval_layered(bent_right, {}).tensor
    tl = eval_layered(bent_left((3, 1, 2)), {}).tensor
    if not (ts == tr_ == tl):
        ctx.fail("the three presentations differ",
                 straight=ts, bent_right=tr_, bent_left=tl)
    # epsilon on three slots cannot see a cyclic rotation's direction, nor
    # whether the Perm slice acts at all (test_evaluate's
    # test_perm_piece_matches_cross_expansion pins the direction); a
    # transposition under bent_left must flip the sign
    swapped = eval_layered(bent_left((2, 1, 3)), {}).tensor
    if swapped != ts.scale(-1):
        ctx.fail("a transposition under bent_left must negate the vertex",
                 straight=ts, swapped=swapped)
    if ts != eval_graph(straight, {}):
        ctx.fail("straight form disagrees across evaluators")


@_register("cap_transpose_regression",
           "matrix slides around a cap as itself, crosses it as transpose",
           n_range=(2, 7))
def _check_cap_transpose(ctx: CheckContext):
    n = ctx.n
    inputs = (VECTOR, COVECTOR)

    def cap_with(pieces):
        return LayeredDiagram(n, inputs, [pieces, (Cap(),)])

    on_vector = cap_with((Mat("A"), Id()))
    along = cap_with((Id(), Mat("A")))
    against_t = cap_with((Id(), Mat("At", against_orientation=True)))
    against = cap_with((Id(), Mat("A", against_orientation=True)))
    for trial in range(ctx.trials):
        a = ctx.matrix(trial)
        b = {"A": a, "At": a.transpose()}
        t1 = eval_layered(on_vector, b).tensor
        if t1 != eval_layered(along, b).tensor:
            ctx.fail("label failed to slide around the cap", trial=trial, A=a)
        if t1 != eval_layered(against_t, b).tensor:
            ctx.fail("transposed against-orientation label disagrees",
                     trial=trial, A=a)
        t4 = eval_layered(against, b).tensor
        if (a == a.transpose()) != (t1 == t4):
            ctx.fail("against-orientation label must differ exactly for "
                     "asymmetric matrices", trial=trial, A=a)


@_register("vertex_order_sign",
           "swapping two ciliation entries negates the vertex",
           n_range=(2, 7), uses_trials=False)
def _check_vertex_order_sign(ctx: CheckContext):
    n = ctx.n
    base = canonical_ciliation(n, 2)
    swapped = (base[1], base[0]) + base[2:]
    t1 = eval_layered(complemental_node(2, n), {}).tensor
    t2 = eval_layered(complemental_node(2, n, ciliation=swapped), {}).tensor
    if t2 != -t1:
        ctx.fail("swapped-input vertex is not the exact negative")
    if t1.is_zero():
        ctx.fail("degenerate test: vertex evaluated to zero")


@_register("node_antisymmetry",
           "adjacent ciliation swaps negate; repeated inputs vanish",
           n_range=(2, 7), uses_trials=False)
def _check_node_antisymmetry(ctx: CheckContext):
    n = ctx.n
    for k in range(0, n + 1):
        base = canonical_ciliation(n, k)
        t_base = eval_layered(complemental_node(k, n), {}).tensor
        for pos in range(n - 1):
            cil = list(base)
            cil[pos], cil[pos + 1] = cil[pos + 1], cil[pos]
            t_swapped = eval_layered(
                complemental_node(k, n, ciliation=tuple(cil)), {}).tensor
            if t_swapped != -t_base:
                ctx.fail("adjacent ciliation swap did not negate",
                         k=k, position=pos)
        repeated = [ins for _, ins in map(t_base.index, t_base.nonzeros)
                    if len(set(ins)) < k]
        if repeated:
            ctx.fail("repeated basis inputs gave a nonzero value",
                     k=k, inputs=list(min(repeated)))


@_register("matrix_invariance",
           "a matrix on every strand of a vertex cancels to a determinant",
           n_range=(2, 7))
def _check_matrix_invariance(ctx: CheckContext):
    n = ctx.n
    for trial in range(ctx.trials):
        a = ctx.matrix(trial, invertible=True)
        det_a = det_oracle(a)
        for k in range(0, n + 1):
            bare = eval_graph(complemental_node(k, n), {})
            layers = []
            if k:
                layers.append((Mat("A"),) * k)
            layers.append((NVertex(SINK, k, canonical_ciliation(n, k)),))
            if n - k:
                layers.append((Mat("A"),) * (n - k))
            dressed = LayeredDiagram(n, (VECTOR,) * k, layers)
            got = eval_graph(dressed, {"A": a})
            if got != bare.scale(det_a):
                ctx.fail("full dressing is not det(A) times the bare vertex",
                         trial=trial, k=k, A=a)
            # trade: A on the inputs equals det(A) times inverse on outputs
            lhs_layers = []
            if k:
                lhs_layers.append((Mat("A"),) * k)
            lhs_layers.append((NVertex(SINK, k, canonical_ciliation(n, k)),))
            lhs = eval_graph(LayeredDiagram(n, (VECTOR,) * k, lhs_layers),
                             {"A": a})
            inv = adjugate_oracle(a).scale(Fraction(1, det_a))
            rhs_layers = [(NVertex(SINK, k, canonical_ciliation(n, k)),)]
            if n - k:
                rhs_layers.append((Mat("Ainv"),) * (n - k))
            rhs = eval_graph(LayeredDiagram(n, (VECTOR,) * k, rhs_layers),
                             {"Ainv": inv}).scale(det_a)
            if lhs != rhs:
                ctx.fail("input dressing does not trade for inverse outputs",
                         trial=trial, k=k, A=a)


@_register("complemental_node_formula",
           "mixed vertex equals the signed complement-permutation sum",
           n_range=(2, 7), uses_trials=False)
def _check_complemental_formula(ctx: CheckContext):
    n = ctx.n
    # the vertex is nonzero exactly on distinct digits: its entry at outputs
    # reversed(digits[k:]) and inputs digits[:k] is levi_civita(digits)
    signs = [(d, levi_civita(d)) for d in permutations(range(1, n + 1))]
    for k in range(0, n + 1):
        t = eval_layered(complemental_node(k, n), {}).tensor
        got = {t.index(flat): x for flat, x in t.nonzeros.items()}
        want = {(d[k:][::-1], d[:k]): sign for d, sign in signs}
        if got != want:
            ins = min(key[1] for key in got.keys() | want.keys()
                      if got.get(key) != want.get(key))
            ctx.fail("closed form mismatch on a basis input",
                     k=k, inputs=list(ins))


def _is_multiple(t: Tensor, c: int, u: Tensor) -> bool:
    """Whether t == c * u exactly, for a nonzero c, without building c * u:
    the same shape, as many nonzeros, and t holding c times each of u's
    (a key t lacks reads None), so the key sets are equal too.

    Its one reason is memory: it takes no wall time off `u.scale(c) != t`,
    but not building the 518,400-entry copy at n = 6 lowers the peak RSS
    of `check asym_compare --n 6` from 154 to 136 MB, and of
    `asym_special_cases` from 150 to 130 MB."""
    a, b = t.nonzeros, u.nonzeros
    return ((t.n, t.out_arity, t.in_arity) == (u.n, u.out_arity, u.in_arity)
            and len(a) == len(b)
            and all(map(eq, map(a.get, b), map(mul, b.values(), repeat(c)))))


@_register("asym_compare",
           "antisymmetrizer equals its node-pair form up to the stated "
           "constant", uses_trials=False, n_range=(2, 6))
def _check_asym_compare(ctx: CheckContext):
    n = ctx.n
    for k in range(0, n + 1):
        perm_sum = antisym_tensor(k, n)
        pair = eval_layered(antisym_nodepair(k, n), {}).tensor
        # pair = ±(n-k)! * perm_sum, tested on integers without dividing
        if not _is_multiple(pair, reversal_sign(n) * factorial(n - k),
                            perm_sum):
            ctx.fail("node pair over (n-k)! disagrees with the sum", k=k)


@_register("asym_zero_beyond_n",
           "antisymmetrizer on n+1 strands kills every basis input",
           uses_trials=False, n_range=(2, 6))
def _check_asym_zero(ctx: CheckContext):
    n = ctx.n
    k = n + 1
    # output slot s reads input slot p(s); k >= 3, so each getter gives a tuple
    terms = [(p.sign, itemgetter(*(i - 1 for i in p.images)))
             for p in Permutation.all_permutations(k)]
    # One input per multiset of digits: C(2n, n+1) nondecreasing tuples in
    # place of n^(n+1).  Permuting an input by pi only re-indexes its image
    # and multiplies it by sgn(pi), since ASym(pi.x) = sgn(pi) ASym(x), so
    # an input's image is zero exactly when its sorted form's image is.
    for ins in combinations_with_replacement(range(1, n + 1), k):
        image: dict[tuple, int] = {}
        for sign, get in terms:
            outs = get(ins)
            image[outs] = image.get(outs, 0) + sign
        if any(image.values()):
            ctx.fail("a basis input survived", inputs=list(ins))


@_register("asym_special_cases",
           "closed antisymmetrizer scalars and the determinant circle",
           n_range=(2, 6))
def _check_asym_special(ctx: CheckContext):
    n = ctx.n
    want = reversal_sign(n) * factorial(n)
    bare = eval_layered(vertex_pair(n, [[]] * n), {}).tensor.as_scalar()
    if bare != want:
        ctx.fail(f"bare circle gave {bare}, expected {want}")
    pair_n = eval_layered(antisym_nodepair(n, n), {}).tensor
    asym_n = antisym_tensor(n, n)
    if not _is_multiple(asym_n, reversal_sign(n), pair_n):
        ctx.fail("joined pair at k=n is not the signed antisymmetrizer")
    for trial in range(ctx.trials):
        a = ctx.matrix(trial)
        got = eval_layered(vertex_pair(n, [["A"]] * n),
                           {"A": a}).tensor.as_scalar()
        if got != want * det_oracle(a):
            ctx.fail("labeled circle is not the determinant times the "
                     "constant", trial=trial, A=a)


@_register("worked_example_minus2v",
           "the double-vertex diagram multiplies every vector by -2",
           n_range=(3, 3))
def _check_minus2v(ctx: CheckContext):
    n = 3
    t = eval_layered(antisym_nodepair(1, n), {}).tensor
    m = t.to_matrix()
    want = Matrix.identity(n).scale(-2)
    if m != want:
        ctx.fail("diagram matrix is not -2 I", got=m)
    for trial in range(ctx.trials):
        v = ctx.vector(trial)
        got = m.apply(v)
        if got != tuple(-2 * x for x in v):
            ctx.fail("random vector not scaled by -2", trial=trial,
                     v=list(v))


@_register("adjugate_formula",
           "vertex pair with one open strand yields the adjugate constant",
           n_range=(2, 7))
def _check_adjugate_formula(ctx: CheckContext):
    n = ctx.n
    composed = compose_vertical(adjugate_diagram(n, "A"),
                                LayeredDiagram(n, (VECTOR,), [(Mat("A"),)]))
    ident = Tensor.identity(n, 1)
    for trial in range(ctx.trials):
        a = ctx.matrix(trial)
        got = eval_graph(composed, {"A": a})
        # want is 0 for a singular matrix, which must give the zero map
        want = reversal_sign(n) * factorial(n - 1) * det_oracle(a)
        if got != ident.scale(want):
            ctx.fail(f"composed diagram is not {want} times the identity",
                     trial=trial, A=a, got=got)


@_register("adjugate_elements",
           "rescaled diagram entries equal the adjugate entrywise",
           n_range=(2, 7))
def _check_adjugate_elements(ctx: CheckContext):
    n = ctx.n
    for trial in range(ctx.trials):
        a = ctx.matrix(trial)
        got = adjugate_value(n, a)
        want = adjugate_oracle(a)
        if got != want:
            ctx.fail("adjugate entries disagree with the cofactor oracle",
                     trial=trial, A=a, got=got)


@_register("cramer", "diagram-side solutions match the exact solver",
           n_range=(2, 9))
def _check_cramer(ctx: CheckContext):
    n = ctx.n
    for trial in range(ctx.trials):
        a = ctx.matrix(trial, invertible=True)
        b = ctx.vector(trial)
        solution = cramer_solve(a, b)
        if solution.singular:
            ctx.fail("invertible matrix reported singular", trial=trial, A=a)
        want = solve_oracle(a, b)
        got = tuple(Fraction(x, 1) for x in solution.xs)
        if got != want:
            ctx.fail("solutions disagree", trial=trial, A=a, b=list(b))
    singular = Matrix([[1] * n for _ in range(n)])
    if not cramer_solve(singular, tuple([1] * n)).singular:
        ctx.fail("singular matrix not reported as singular")


@_register("crossout_lemma",
           "column substitution is invisible behind the nullified strand",
           n_range=(2, 9))
def _check_crossout(ctx: CheckContext):
    n = ctx.n
    bare_vertex = eval_graph(complemental_node(n, n), {})
    nullified_vertex = LayeredDiagram(n, (VECTOR,) * n, [
        tuple(Mat("P") if s == 2 else Id() for s in range(1, n + 1)),
        (NVertex(SINK, n, canonical_ciliation(n, n)),),
    ])
    det_vertex = LayeredDiagram(n, (VECTOR,) * n, [
        tuple(Mat("P") for _ in range(n)),
        tuple(Mat("M") for _ in range(n)),
        (NVertex(SINK, n, canonical_ciliation(n, n)),),
    ])
    # with e_j pinned at the vertex, a nullifier on any other bare strand is
    # invisible (two equal inputs vanish): the two vertices agree on every
    # entry whose first input, the flat index's leading digit, is j
    stride = n ** (n - 1)
    for j in range(1, n + 1):
        nullified = eval_graph(nullified_vertex,
                               {"P": crossout_nullifier(n, j)})
        want, got = ({flat: x for flat, x in t.nonzeros.items()
                      if flat // stride == j - 1}
                     for t in (bare_vertex, nullified))
        if got != want:
            flat = min(f for f in got.keys() | want.keys()
                       if got.get(f) != want.get(f))
            ctx.fail("nullifier visible beside the pinned input",
                     j=j, inputs=list(bare_vertex.index(flat)[1]))
    for trial in range(ctx.trials):
        a = ctx.matrix(trial)
        b = ctx.vector(trial)
        for j in range(1, n + 1):
            a_j = a.with_column(j, b)
            null = crossout_nullifier(n, j)
            # statement 1: M after the nullifier agrees for M in {A, A_j}
            strand = LayeredDiagram(n, (VECTOR,),
                                    [(Mat("P"),), (Mat("M"),)])
            t1 = eval_layered(strand, {"P": null, "M": a}).tensor
            t2 = eval_layered(strand, {"P": null, "M": a_j}).tensor
            if t1 != t2:
                ctx.fail("nullified strand distinguishes the substitution",
                         trial=trial, j=j, A=a, b=list(b))
            # statement 2: the fully nullified-and-labeled determinant
            # vertex cannot see the substituted column
            g1 = eval_graph(det_vertex, {"P": null, "M": a})
            g2 = eval_graph(det_vertex, {"P": null, "M": a_j})
            if g1 != g2:
                ctx.fail("nullified determinant vertex distinguishes the "
                         "substitution", trial=trial, j=j, A=a, b=list(b))


@_register("cayley_hamilton",
           "the traced antisymmetrizer on n+1 strands vanishes",
           n_range=(2, 8))
def _check_cayley(ctx: CheckContext):
    n = ctx.n
    terms = traced_terms(n, n + 1)
    for trial in range(ctx.trials):
        a = ctx.matrix(trial)
        groups = traced_groups(terms, a)
        total = Tensor.zeros(n, 1, 1)
        for g in groups.values():
            total = total + g
        if not total.is_zero():
            ctx.fail("traced antisymmetrizer is not zero", trial=trial, A=a)
        # grouped coefficients reproduce n! times the characteristic poly
        cp = charpoly_oracle(a)
        for i in range(n + 1):
            want = Tensor.from_matrix(
                (a ** i).scale(factorial(n) * cp[i]))
            if groups.get(i, Tensor.zeros(n, 1, 1)) != want:
                ctx.fail("grouped coefficient disagrees with the "
                         "characteristic polynomial", trial=trial, i=i, A=a)


@_register("char_coefficients",
           "half-labeled circles assemble the characteristic coefficients",
           n_range=(2, 9))
def _check_char_coefficients(ctx: CheckContext):
    n = ctx.n
    for trial in range(ctx.trials):
        a = ctx.matrix(trial)
        cp = charpoly_oracle(a)
        for i in range(n + 1):
            labels = [["A"]] * (n - i) + [[]] * i
            circle = eval_layered(vertex_pair(n, labels),
                                  {"A": a}).tensor.as_scalar()
            sign = -1 if (i + n // 2) & 1 else 1
            diagram_side = Fraction(sign, factorial(i) * factorial(n - i)) \
                * circle
            if factorial(n) * cp[i] != factorial(n) * diagram_side:
                ctx.fail("coefficient mismatch", trial=trial, i=i, A=a)


@_register("det_sum", "determinant of a sum expands over labeled circles",
           n_range=(2, 9))
def _check_det_sum(ctx: CheckContext):
    n = ctx.n
    for trial in range(ctx.trials):
        a = ctx.matrix(trial, "a")
        b = ctx.matrix(trial, "b")
        total = 0
        for i in range(n + 1):
            labels = [["A"]] * (n - i) + [["B"]] * i
            circle = eval_layered(vertex_pair(n, labels),
                                  {"A": a, "B": b}).tensor.as_scalar()
            total += comb(n, i) * circle
        got = Fraction(reversal_sign(n), factorial(n)) * total
        if got != det_oracle(a + b):
            ctx.fail("det(A+B) expansion failed", trial=trial, A=a, B=b)


@_register("asym_sum_decomposition",
           "traced antisymmetrizer splits by the cycle through the open "
           "strand", n_range=(2, 8))
def _check_asym_sum(ctx: CheckContext):
    n = ctx.n
    open_terms = [traced_terms(n, k + 1) for k in range(n + 1)]
    closed_terms = [traced_terms(n, s, closed=True) for s in range(n + 1)]
    strand_graphs = [to_graph(power_strand(n, "A", i)) for i in range(n + 1)]
    for trial in range(ctx.trials):
        a = ctx.matrix(trial)
        closed = [closed_traced_scalar(terms, a) for terms in closed_terms]
        strands = [eval_contraction(g, {"A": a}, validated=True).tensor
                   for g in strand_graphs]
        for k in range(0, n + 1):
            groups = traced_groups(open_terms[k], a)
            for i in range(k + 1):
                coeff = Fraction((-1) ** i * factorial(k), factorial(k - i))
                want = strands[i].scale(coeff * closed[k - i])
                got = groups.get(i, Tensor.zeros(n, 1, 1))
                if got != want:
                    ctx.fail("cycle-decomposition coefficient mismatch",
                             trial=trial, k=k, i=i, A=a)


@_register("binet_cauchy",
           "paired cross products expand into dot products", n_range=(3, 3))
def _check_binet(ctx: CheckContext):
    lhs, rhs = binet_cauchy_pair()

    def both_sides(vectors):
        left = scalar_probe(lhs, {}, vectors)
        right = sum(sign * scalar_probe(d, {}, vectors)
                    for sign, d in rhs)
        return left, right

    e1, e2 = (1, 0, 0), (0, 1, 0)
    left, right = both_sides([e1, e2, e1, e2])
    if not (left == right == 1):
        ctx.fail(f"basis case gave {left} and {right}, expected 1")
    for trial in range(ctx.trials):
        vectors = [ctx.vector(trial, tag) for tag in "uvwx"]
        left, right = both_sides(vectors)
        if left != right:
            ctx.fail("sides disagree", trial=trial,
                     vectors=[list(v) for v in vectors])
        left, right = both_sides([vectors[0], vectors[0],
                                  vectors[2], vectors[3]])
        if not (left == right == 0):
            ctx.fail("equal factors must vanish", trial=trial)


@_register("generalized_cross_product",
           "the (n-1)-input vertex matches the column determinant",
           n_range=(2, 8))
def _check_cross_product(ctx: CheckContext):
    n = ctx.n
    for trial in range(ctx.trials):
        vectors = [ctx.vector(trial, str(s)) for s in range(n - 1)]
        got = cross_product_node(n, vectors)
        for c in range(1, n + 1):
            basis = tuple(1 if r == c else 0 for r in range(1, n + 1))
            columns = [list(v) for v in vectors] + [list(basis)]
            want = det_oracle(Matrix(list(zip(*columns))))
            if got.get((c,), ()) != want:
                ctx.fail("component disagrees with the determinant",
                         trial=trial, c=c,
                         vectors=[list(v) for v in vectors])
        if n >= 3:
            repeated = [vectors[0]] + [vectors[0]] + vectors[2:] \
                if n > 3 else [vectors[0], vectors[0]]
            if not cross_product_node(n, repeated[:n - 1]).is_zero():
                ctx.fail("dependent inputs must vanish", trial=trial)


@_register("jacobi", "both routings of the labeled vertex pair agree",
           n_range=(2, 6), stretch=True)
def _check_jacobi(ctx: CheckContext):
    n = ctx.n
    for trial in range(ctx.trials):
        a = ctx.matrix(trial)
        for k in range(0, n + 1):
            lhs, rhs = jacobi_diagrams(k, n, "A")
            tl = eval_graph(lhs, {"A": a})
            tr_ = eval_graph(rhs, {"A": a})
            if tl != tr_:
                ctx.fail("wirings disagree", trial=trial, k=k, A=a)
        # k = n reduces to the closed determinant circle
        lhs, _ = jacobi_diagrams(n, n, "A")
        got = eval_graph(lhs, {"A": a}).as_scalar()
        if got != reversal_sign(n) * factorial(n) * det_oracle(a):
            ctx.fail("closed reduction disagrees with the determinant",
                     trial=trial, A=a)


@_register("dodgson",
           "2x2 minors of the adjugate are det(A) times complementary "
           "entries (Jacobi's theorem, k=2)",
           n_range=(3, 3), stretch=True)
def _check_dodgson(ctx: CheckContext):
    n = 3
    for trial in range(ctx.trials):
        a = ctx.matrix(trial)

        def minor(rows, cols):
            sub = Matrix([[a.entry(r, c) for c in cols] for r in rows])
            return det_oracle(sub)

        # 2x2 minors of the diagram adjugate against det(A) times the
        # complementary minors of A
        adj = adjugate_value(n, a)
        for rows in ((1, 2), (1, 3), (2, 3)):
            for cols in ((1, 2), (1, 3), (2, 3)):
                sub = Matrix([[adj.entry(r, c) for c in cols] for r in rows])
                comp_rows = tuple(i for i in (1, 2, 3) if i not in cols)
                comp_cols = tuple(i for i in (1, 2, 3) if i not in rows)
                sign = (-1) ** (sum(rows) + sum(cols))
                want = sign * det_oracle(a) * minor(comp_rows, comp_cols)
                if det_oracle(sub) != want:
                    ctx.fail("adjugate minor identity failed", trial=trial,
                             rows=list(rows), cols=list(cols), A=a)
