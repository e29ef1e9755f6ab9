"""Acceptance checklist.

One test per numbered criterion.  Each prints a single
"criterion NN <label>: PASS|FAIL" line (run pytest with -s to see them, which
pyproject.toml turns on by default) so the suite output doubles as the
checklist.  Stated time budgets are asserted inside the tests.
"""

import contextlib
import io
import itertools
import json
import random
import time
import warnings

from eqpart.constructions import (
    eight_cycle_partition,
    lift_two_partition,
    lifted_cycle_pair,
    permutation_switching,
)
from eqpart.documents import partition_to_doc
from eqpart.eigenfunctions import (
    NotEigen,
    NotMember,
    VertexFunction,
    classify_lambda1,
    classify_top_two,
    constant_function,
    in_top_two_eigenspaces,
    is_eigenfunction,
    partition_eigenfunction,
    quasi_cross,
    quasi_string,
    restrict,
    restriction_difference,
)
from eqpart.hamming import (
    AlphabetBlocks,
    GraphParams,
    LiftBlocks,
    eigenvalue,
    neighbor_table,
    random_automorphism,
)
from eqpart.partitions import (
    QuotientMatrix,
    TwoPartition,
    equitable_check,
    essential_coordinates,
    extend,
    is_induced_cycle,
    orthogonal_array_check,
    predicted_cell_size,
    quotient_eigenvalue_indices,
    transform,
)
from eqpart.search import (
    CyclePairLifting,
    EnumConstraints,
    backtracking_enumerate,
    brute_force_enumerate,
    classify_reduced_lambda2,
)
from eqpart.cli import run_command

SWEEP_GRAPHS = ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2))
ROUTE_GRAPHS = ((2, 2), (2, 3), (3, 2), (2, 4))
HALF_BLOCKS = (frozenset({0, 1}), frozenset({2, 3}))


@contextlib.contextmanager
def report(number, label, budget=None):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(f"took {elapsed:.2f}s, budget {budget:.0f}s")
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        verdict = "PASS" if ok else "FAIL"
        print(f"criterion {number:02d} {label}: {verdict} ({elapsed:.2f}s)")


def parity_base():
    params = GraphParams(2, 4)
    cells = [(a, b) for a in range(4) for b in range(4) if (a + b) % 2 == 0]
    return TwoPartition.from_tuples(params, cells)


def test_criterion_01_eight_cycle_certificate(tmp_path):
    with report(1, "eight-cycle pair certificate", budget=1.0):
        assert eigenvalue(GraphParams(4, 2), 2) == 0
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(partition_to_doc(eight_cycle_partition())))
        out = io.StringIO()
        assert run_command(["verify", str(path)], stdout=out, stderr=io.StringIO()) == 0
        cert = json.loads(out.getvalue())
        assert cert["equitable"] is True
        assert cert["quotient"] == [[2, 2], [2, 2]]
        assert cert["eigenvalues"] == [4, 0]
        assert cert["eigenvalue_index"] == 2
        assert cert["essential_coordinates"] == [1, 2, 3, 4]
        assert cert["induced_cycle_lengths"] == {"cell": 8, "complement": 8}


def membership_shapes(params):
    """Value tuples of all constants, quasi-strings, and quasi-crosses."""
    n, q = params.n, params.q
    out = {constant_function(params, c).values for c in (-1, 0, 1)}
    withempty = [frozenset(c) for r in range(q + 1)
                 for c in itertools.combinations(range(q), r)]
    nonempty = [s for s in withempty if s]
    for plus in withempty:
        for minus in withempty:
            if plus & minus or not (plus | minus):
                continue
            for k in range(1, n + 1):
                out.add(quasi_string(params, plus, minus, k).values)
    for plus in nonempty:
        for minus in nonempty:
            for i, j in itertools.permutations(range(1, n + 1), 2):
                out.add(quasi_cross(params, plus, minus, i, j).values)
    return out


def test_criterion_02_membership_sweep_matches_shapes():
    with report(2, "top-two membership equals the shape union", budget=10.0):
        for n, q in SWEEP_GRAPHS:
            params = GraphParams(n, q)
            actual = set()
            for values in itertools.product((-1, 0, 1), repeat=params.vertex_count):
                f = VertexFunction(params, values)
                member = in_top_two_eigenspaces(f)
                # the classifier must agree with the membership test exactly
                assert member == (not isinstance(classify_top_two(f), NotMember))
                if member:
                    actual.add(values)
            assert actual == membership_shapes(params)


def balanced_shapes(params):
    """Value tuples of the all-zero function, strings, and crosses."""
    n, q = params.n, params.q
    out = {(0,) * params.vertex_count}
    subs = [frozenset(c) for r in range(1, q + 1)
            for c in itertools.combinations(range(q), r)]
    for plus in subs:
        for minus in subs:
            if len(plus) != len(minus):
                continue
            if not (plus & minus):
                for k in range(1, n + 1):
                    out.add(quasi_string(params, plus, minus, k).values)
            for i, j in itertools.permutations(range(1, n + 1), 2):
                out.add(quasi_cross(params, plus, minus, i, j).values)
    return out


def test_criterion_03_lambda1_sweep_matches_balanced_shapes():
    with report(3, "ternary lambda_1 eigenfunctions are balanced shapes", budget=10.0):
        for n, q in SWEEP_GRAPHS:
            params = GraphParams(n, q)
            lam = eigenvalue(params, 1)
            actual = set()
            for values in itertools.product((-1, 0, 1), repeat=params.vertex_count):
                f = VertexFunction(params, values)
                # the exact eigen-equation A f = lambda_1 f decides membership
                eig = is_eigenfunction(f, lam)
                assert eig == (not isinstance(classify_lambda1(f, classify_top_two(f)), NotEigen))
                if eig:
                    actual.add(values)
            assert actual == balanced_shapes(params)


def annihilates(f, l1, l2):
    """Whether (A - l2 I)(A - l1 I) f = 0 holds exactly: the first factor
    from neighbor sums here, the second through is_eigenfunction."""
    table = neighbor_table(f.params)
    g = tuple(sum(f.values[w] for w in ws) - l1 * x for ws, x in zip(table, f.values))
    return is_eigenfunction(VertexFunction(f.params, g), l2)


def test_criterion_04_restriction_laws_on_random_partitions():
    with report(4, "restriction laws on 1000 random partitions"):
        rng = random.Random(0x5EED)
        pools = []
        for n, q in ((3, 2), (3, 3)):
            params = GraphParams(n, q)
            cells = backtracking_enumerate(params, EnumConstraints(eigenvalue_index=2))
            pools.append((params, [TwoPartition(params, cell) for cell in cells]))
        checked = 0
        for params, pool in pools:
            sub = GraphParams(params.n - 1, params.q)
            l1_sub = eigenvalue(sub, 1)
            l2_sub = eigenvalue(sub, 2)
            for _ in range(500):
                p = transform(rng.choice(pool), random_automorphism(params, rng))
                s = equitable_check(p)
                assert isinstance(s, QuotientMatrix)
                lam = s.rows[0][0] - s.rows[1][0]
                assert lam == eigenvalue(params, 2)
                assert predicted_cell_size(s, params) == p.size
                assert orthogonal_array_check(p, s) is None
                f = partition_eigenfunction(p, s)
                assert is_eigenfunction(f, lam)
                for k in range(1, params.n + 1):
                    for a, b in itertools.combinations(range(params.q), 2):
                        assert is_eigenfunction(restriction_difference(f, k, a, b), l1_sub)
                    for a in range(params.q):
                        assert annihilates(restrict(f, k, a), l1_sub, l2_sub)
                checked += 1
        assert checked == 1000


def suite_partitions():
    """Every equitable partition the rest of the suite produces."""
    searches = [(GraphParams(n, q), i) for n, q in ROUTE_GRAPHS for i in range(n + 1)]
    searches += [(GraphParams(4, 2), 2), (GraphParams(3, 3), 2)]
    parts = [TwoPartition(params, cell) for params, i in searches
             for cell in backtracking_enumerate(params, EnumConstraints(eigenvalue_index=i))]
    base = parity_base()
    parts.append(eight_cycle_partition())
    parts.append(permutation_switching(AlphabetBlocks(HALF_BLOCKS), base))
    parts.append(extend(base, 1))
    parts.append(lifted_cycle_pair(4, (0, 1)))
    parts.append(
        lift_two_partition(
            TwoPartition.from_vertices(GraphParams(3, 2), [0, 7]), LiftBlocks(HALF_BLOCKS)
        )
    )
    return parts


def test_criterion_05_size_formula_and_fiber_law():
    with report(5, "cell size and fiber laws across the suite"):
        checked = 0
        for p in suite_partitions():
            params = p.params
            s = equitable_check(p)
            assert isinstance(s, QuotientMatrix)
            assert predicted_cell_size(s, params) == p.size
            lam = s.rows[0][0] - s.rows[1][0]
            if params.n >= 2 and lam == eigenvalue(params, 2):
                assert orthogonal_array_check(p, s) is None
            checked += 1
        # 6 + 24 + 22 + 166 over the four route graphs, 68 on H(4,2),
        # 180 on H(3,3), and the 5 construction outputs
        assert checked == 471


def test_criterion_06_switching_instance():
    with report(6, "alphabet-block switching instance", budget=1.0):
        base = parity_base()
        switched = permutation_switching(AlphabetBlocks(HALF_BLOCKS), base)
        s = equitable_check(switched)
        assert isinstance(s, QuotientMatrix)
        assert s.rows == ((5, 4), (4, 5))
        assert s.rows[0][0] - s.rows[1][0] == 1 == eigenvalue(switched.params, 2)
        assert sorted(essential_coordinates(switched)) == [1, 2, 3]
        extension = equitable_check(extend(base, 1))
        assert isinstance(extension, QuotientMatrix)
        assert extension.rows == s.rows


def test_criterion_07_lifted_cycle_pair_instance():
    with report(7, "lifted cycle pair instance", budget=1.0):
        lifted = lifted_cycle_pair(4, (0, 1))
        assert lifted.params == GraphParams(4, 4)
        s = equitable_check(lifted)
        assert isinstance(s, QuotientMatrix)
        assert s.rows[0][0] - s.rows[1][0] == 4 == eigenvalue(lifted.params, 2)
        assert lifted.size == 128
        assert sorted(essential_coordinates(lifted)) == [1, 2, 3, 4]
        direct = lift_two_partition(eight_cycle_partition(), LiftBlocks(HALF_BLOCKS))
        assert lifted.cell == direct.cell


def test_criterion_08_lifting_preserves_the_eigenvalue_index():
    with report(8, "alphabet lifting preserves the eigenvalue index", budget=1.0):
        params = GraphParams(3, 2)
        code_pair = TwoPartition.from_vertices(params, [0, 7])
        s = equitable_check(code_pair)
        assert isinstance(s, QuotientMatrix)
        assert max(quotient_eigenvalue_indices(s, params)) == 2
        lifted = lift_two_partition(code_pair, LiftBlocks(HALF_BLOCKS))
        s_lift = equitable_check(lifted)
        assert isinstance(s_lift, QuotientMatrix)
        assert s_lift.rows[0][0] - s_lift.rows[1][0] == 1 == eigenvalue(lifted.params, 2)
        assert max(quotient_eigenvalue_indices(s_lift, lifted.params)) == 2


def test_criterion_09_reduced_enumeration_fully_classified():
    with report(9, "reduced second-eigenvalue partitions all classified", budget=60.0):
        params = GraphParams(4, 2)
        constraints = EnumConstraints(eigenvalue_index=2, reduced_only=True)
        found = backtracking_enumerate(params, constraints)
        assert found == brute_force_enumerate(params, constraints)
        assert len(found) == 24
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cell in found:
                p = TwoPartition(params, cell)
                tag = classify_reduced_lambda2(p)
                assert isinstance(tag, CyclePairLifting)
                assert is_induced_cycle(params, p.vertices()) == 8
                assert is_induced_cycle(params, p.complement().vertices()) == 8


def test_criterion_10_enumeration_routes_agree():
    with report(10, "backtracking equals brute force on four graphs"):
        for n, q in ROUTE_GRAPHS:
            params = GraphParams(n, q)
            for i in range(n + 1):
                constraints = EnumConstraints(eigenvalue_index=i)
                brute = brute_force_enumerate(params, constraints)
                assert set(brute) == set(backtracking_enumerate(params, constraints))


def test_criterion_11_thread_count_does_not_change_output():
    with report(11, "enumeration output is byte-identical across threads"):
        argv = ["enumerate", "--n", "4", "--q", "2", "--eig-index", "2", "--reduced-only"]
        outputs = []
        for threads in (1, 2, 8):
            out = io.StringIO()
            code = run_command(argv + ["--threads", str(threads)],
                               stdout=out, stderr=io.StringIO())
            assert code == 0
            outputs.append(out.getvalue())
        assert outputs[0] != ""
        assert outputs[0] == outputs[1] == outputs[2]
