"""Property tests, with inputs drawn by Hypothesis."""

import io
import json
import re
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqpart.cli import run_command
from eqpart.documents import cell_to_hex
from eqpart.eigenfunctions import MAX_ABS_VALUE
from eqpart.hamming import GraphParams, neighbor_table, random_automorphism, residual_witness
from eqpart.partitions import QuotientMatrix, TwoPartition, equitable_check, transform
from eqpart.search import EnumConstraints, backtracking_enumerate, brute_force_enumerate

# H(1, 300) has degree 299, so even an indicator needs 16-bit lanes.
GRAPHS = [GraphParams(n, q) for n, q in
          ((1, 2), (1, 5), (2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (1, 300))]
# value ranges: indicators, ternary functions, the VertexFunction guard, and
# wider values that reach 64-bit lanes or overflow them
RANGES = [(0, 1), (-1, 1), (-MAX_ABS_VALUE, MAX_ABS_VALUE), (-(1 << 40), 1 << 40),
          (-(1 << 62), 1 << 62)]


@st.composite
def residual_inputs(draw):
    params = draw(st.sampled_from(GRAPHS))
    lo, hi = draw(st.sampled_from(RANGES))
    if draw(st.booleans()):
        values = [draw(st.integers(lo, hi))] * params.vertex_count
    else:
        values = draw(st.lists(st.integers(lo, hi), min_size=params.vertex_count,
                               max_size=params.vertex_count))
    if lo == 0:
        values = bytes(values)  # the indicator form spectral_check passes
    bound = params.degree + 2
    return params, values, draw(st.integers(-bound, bound))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(residual_inputs())
@example((GraphParams(1, 300), bytes(299) + b"\x01", 1))  # 16-bit lanes
@example((GraphParams(3, 2), [MAX_ABS_VALUE, -MAX_ABS_VALUE] * 4, -5))  # 32-bit lanes
@example((GraphParams(3, 2), [1 << 40, 0] * 4, 3))  # 64-bit lanes
@example((GraphParams(3, 2), [1 << 62, 0] * 4, 3))  # past 64-bit lanes
@example((GraphParams(2, 4), [7] * 16, 8))  # constant
def test_residual_witness_matches_neighbor_sums(case):
    """residual_witness equals (A - lam I) values summed over neighbor_table:
    the residual at vertex 0 and the first vertex where it differs, or a
    ValueError when (degree + |lam|) * (max - min) needs more than 64 bits."""
    params, values, lam = case
    table = neighbor_table(params)
    r = [sum(values[w] for w in ws) - lam * x for ws, x in zip(table, values)]
    if (params.degree + abs(lam)) * (max(values) - min(values)) >> 64:
        with pytest.raises(ValueError, match="64-bit lanes"):
            residual_witness(params, values, lam)
        return
    first = next((v for v, x in enumerate(r) if x != r[0]), None)
    assert residual_witness(params, values, lam) == (r[0], first)


# Every graph with q^n <= 27 except the complete graphs H(1, q) with q > 12:
# at index 1 every one of their 2^q - 2 proper cells is equitable.  The 300
# derandomized examples below draw each of the 47 (graph, index) pairs.
SMALL_GRAPHS = [GraphParams(n, q) for n in range(1, 5) for q in range(2, 28)
                if q ** n <= 27 and (n > 1 or q <= 12)]
ENUMERATIONS = [(params, i) for params in SMALL_GRAPHS for i in range(params.n + 1)]


@lru_cache(maxsize=None)
def _labelled_cells(params, index):
    return frozenset(backtracking_enumerate(params, EnumConstraints(eigenvalue_index=index)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(ENUMERATIONS), st.integers(min_value=0))
def test_complement_law(case, pick):
    """The backtracking output is closed under complement, and the
    complement of a cell with quotient [[a, b], [c, d]] has quotient
    [[d, c], [b, a]]."""
    params, index = case
    cells = _labelled_cells(params, index)
    full = (1 << params.vertex_count) - 1
    assert {full ^ c for c in cells} == cells
    if cells:
        cell = sorted(cells)[pick % len(cells)]
        (a, b), (c, d) = equitable_check(TwoPartition(params, cell)).rows
        assert equitable_check(TwoPartition(params, full ^ cell)).rows == ((d, c), (b, a))


@st.composite
def moved_cells(draw):
    """A cell, equitable half the time, and a random automorphism."""
    params = draw(st.sampled_from(SMALL_GRAPHS))
    equitable = sorted(_labelled_cells(params, draw(st.integers(0, params.n))))
    if equitable and draw(st.booleans()):
        cell = draw(st.sampled_from(equitable))
    else:
        cell = draw(st.integers(1, (1 << params.vertex_count) - 2))
    g = random_automorphism(params, draw(st.randoms(use_true_random=False)))
    return TwoPartition(params, cell), g


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(moved_cells())
def test_automorphisms_keep_the_class_and_the_quotient(case):
    """An image of a cell under an automorphism has the same quotient
    matrix; a cell that is not equitable stays so (the witness vertices
    move with the cell)."""
    p, g = case
    image = transform(p, g)
    s, t = equitable_check(p), equitable_check(image)
    assert t == s if isinstance(s, QuotientMatrix) else not isinstance(t, QuotientMatrix)


# Graphs whose 2^(q^n) sweep takes well under a second: q^n <= 16.  The
# sweep over H(2, 5) or H(1, 25) takes about a minute for each quotient.
SWEEP_GRAPHS = [params for params in SMALL_GRAPHS if params.vertex_count <= 16]


@st.composite
def explicit_quotients(draw):
    params = draw(st.sampled_from(SWEEP_GRAPHS))
    k = params.degree
    s11, s21 = draw(st.integers(0, k)), draw(st.integers(0, k))
    return params, QuotientMatrix(((s11, k - s11), (s21, k - s21)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(explicit_quotients())
@example((GraphParams(2, 4), QuotientMatrix(((3, 3), (3, 3)))))  # lam = 0, no eigenvalue
@example((GraphParams(3, 2), QuotientMatrix(((0, 3), (1, 2)))))  # not self-paired
@example((GraphParams(4, 2), QuotientMatrix(((2, 2), (2, 2)))))  # self-paired
@example((GraphParams(2, 2), QuotientMatrix(((2, 0), (0, 2)))))  # S12 + S21 = 0
def test_backtracking_matches_brute_force_on_explicit_quotients(case):
    """Any explicit quotient with row sums equal to the degree, at an
    eigenvalue or not, self-paired or not: the two routes agree."""
    params, s = case
    c = EnumConstraints(quotient=s)
    if s.rows[0][1] + s.rows[1][0] == 0:
        with pytest.raises(ValueError, match="S12 \\+ S21 = 0"):
            backtracking_enumerate(params, c)
        assert brute_force_enumerate(params, c) == []
        return
    assert backtracking_enumerate(params, c) == brute_force_enumerate(params, c)


# Drawn JSON values: an int in [-1, 3] keeps q^n <= 64 when it replaces n or
# q of a base graph, and +-10^30 is refused by a guard before any work.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4) | st.integers(-1, 3)
    | st.sampled_from([10 ** 30, -10 ** 30]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)


@st.composite
def mutated_documents(draw):
    """(commands, bytes): a valid partition or function document of H(2, 2),
    H(2, 3) or H(3, 2), kept whole, with one key dropped, one value
    replaced, its text truncated or one byte of it replaced, and the
    commands that read it."""
    n, q = draw(st.sampled_from(((2, 2), (2, 3), (3, 2))))
    size = q ** n
    doc = {"format_version": 1, "n": n, "q": q}
    kind = draw(st.sampled_from(("cell", "vertices", "values")))
    if kind == "values":
        doc["values"] = draw(st.lists(st.integers(-1, 1), min_size=size, max_size=size))
        commands = ("classify-fn",)
    else:
        cell = draw(st.integers(1, (1 << size) - 2))
        doc[kind] = (cell_to_hex(cell, size) if kind == "cell"
                     else [v for v in range(size) if cell >> v & 1])
        commands = ("verify", "reduce", "classify-t5")
    how = draw(st.sampled_from(("keep", "drop", "replace", "truncate", "byte")))
    if how == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif how == "replace":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JSON_VALUES)
    data = json.dumps(doc).encode()
    if how == "truncate":
        data = data[:draw(st.integers(0, len(data) - 1))]
    elif how == "byte":
        i = draw(st.integers(0, len(data) - 1))
        data = data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1:]
    return commands, data


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=mutated_documents())
@example(case=(("verify", "reduce", "classify-t5"), b'\xff"format_version": 1}'))
def test_documents_never_end_in_a_traceback(tmp_path_factory, case):
    """Each command that reads a document ends a mutated one with exit 0
    or 1 and JSON lines on stdout, or with exit 2, nothing on stdout and
    one stderr line, whatever the mutation left of the text."""
    commands, data = case
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_bytes(data)
    for command in commands:
        out, err = io.StringIO(), io.StringIO()
        code = run_command([command, str(path)], stdout=out, stderr=err)
        if code == 2:
            assert out.getvalue() == "", command
            assert err.getvalue().startswith("error: "), command
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), command
        else:
            assert code in (0, 1) and err.getvalue() == "", command
            for line in out.getvalue().splitlines():
                assert isinstance(json.loads(line), dict), command


# Documents for the construction commands: n <= 3 and q^n <= 64, n = 1 included.
DOC_GRAPHS = [GraphParams(n, q) for n in (1, 2, 3) for q in range(2, 9) if q ** n <= 64]
# The reasons of the constructions' and classify_reduced_lambda2's failed gates
GATE_REASONS = re.compile("|".join((
    r"(row|column) \d+ of block \d+ meets the cell in ratio \d+(/\d+)?, expected \d+(/\d+)?",
    "switched partition lost equitability; base is not valid",
    "(input )?partition is not equitable",
    "(cell|complement) of the cycle pair is not an induced 8-cycle",
    r"second quotient eigenvalue -?\d+ is not lambda_2 = -?\d+",
    "partition is not reduced; delete nonessential coordinates first",
)))


@st.composite
def partition_documents(draw, graphs=DOC_GRAPHS):
    """A partition document, whose cell is equitable half the time when the
    graph has q^n <= 27."""
    params = draw(st.sampled_from(graphs))
    equitable = []
    if params in SMALL_GRAPHS:
        equitable = sorted(_labelled_cells(params, draw(st.integers(0, params.n))))
    if equitable and draw(st.booleans()):
        cell = draw(st.sampled_from(equitable))
    else:
        cell = draw(st.integers(1, (1 << params.vertex_count) - 2))
    return {"format_version": 1, "n": params.n, "q": params.q,
            "cell": cell_to_hex(cell, params.vertex_count)}


@st.composite
def block_texts(draw, q, size=None):
    """Blocks such as "2,0|1,3" of a shuffled range(q), each of the given
    size; with no size, of one drawn size half the time."""
    symbols = draw(st.permutations(range(q)))
    if size is None and draw(st.booleans()):
        size = draw(st.sampled_from([d for d in range(1, q + 1) if q % d == 0]))
    if size is None:
        cuts = sorted(draw(st.sets(st.integers(1, q - 1))))
    else:
        cuts = list(range(size, q, size))
    ends = [0, *cuts, q]
    return "|".join(",".join(map(str, symbols[a:b])) for a, b in zip(ends, ends[1:]))


@st.composite
def construction_argv(draw):
    """The argv of construct-a, construct-b, lift or classify-t5, with each
    document in place of its path; argparse accepts every one.  Blocks
    cover range(q'), q' in 2..8.  Half the time the arguments fit: a base
    of H(2, q) and blocks of its alphabet, one lift block of m symbols per
    symbol of the input, or an even q, a split of q/2 symbols and a cycle
    pair of H(4, 2)."""
    command = draw(st.sampled_from(("construct-a", "construct-b", "lift", "classify-t5")))
    fit = draw(st.booleans())
    if command == "construct-b":
        q = draw(st.sampled_from((2, 4, 6, 8)) if fit else st.integers(-1, 8))
        split = draw(block_texts(q // 2, q // 2) if fit else block_texts(draw(st.integers(2, 8))))
        argv = [command, "--q", str(q), "--split", split]
        if draw(st.booleans()):
            graphs = [GraphParams(4, 2)] if fit else DOC_GRAPHS
            argv += ["--cycle-pair", draw(partition_documents(graphs))]
        return argv
    doc = draw(partition_documents(
        [p for p in DOC_GRAPHS if p.n == 2] if fit and command == "construct-a" else DOC_GRAPHS))
    if command == "classify-t5":
        return [command, doc]
    if not fit:
        blocks = draw(block_texts(draw(st.integers(2, 8))))
    elif command == "construct-a":
        blocks = draw(block_texts(doc["q"]))
    else:
        m = draw(st.integers(1, 8 // doc["q"]))
        blocks = draw(block_texts(m * doc["q"], m))
    return [command, "--blocks", blocks, "--base" if command == "construct-a" else "--input", doc]


def _run_argv(tmp_path_factory, argv):
    """run_command on argv, each document in it written to a file and
    passed by its path.  Returns the exit code and the stdout lines parsed
    as JSON objects, after checking the contract every command keeps: exit
    0, 1 or 2 and no exception; exit 2 with nothing on stdout and one
    stderr line, "error: <reason>"; exit 0 or 1 with nothing on stderr."""
    paths = [tmp_path_factory.getbasetemp() / f"doc{k}.json" for k in range(len(argv))]
    for path, a in zip(paths, argv):
        if isinstance(a, dict):
            path.write_text(json.dumps(a))
    argv = [str(path) if isinstance(a, dict) else a for path, a in zip(paths, argv)]
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, stdout=out, stderr=err)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: "), argv
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv
        return code, []
    assert code in (0, 1) and err.getvalue() == "", argv
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    assert lines and all(isinstance(line, dict) for line in lines), argv
    return code, lines


H32_PAIR = {"format_version": 1, "n": 3, "q": 2, "vertices": [0, 7]}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=construction_argv())
@example(argv=["construct-a", "--blocks", "0,1", "--base", H32_PAIR])
@example(argv=["construct-a", "--blocks", "0,1|2,3", "--base",
               {"format_version": 1, "n": 2, "q": 2, "vertices": [0, 3]}])
@example(argv=["lift", "--blocks", "0|1|2", "--input", H32_PAIR])
@example(argv=["construct-b", "--q", "4", "--split", "0,1", "--cycle-pair", H32_PAIR])
@example(argv=["classify-t5", {"format_version": 1, "n": 1, "q": 3, "vertices": [0]}])
def test_construction_commands_keep_their_contract(tmp_path_factory, argv):
    """Exit 1 is a failed gate, printed as {"error": reason}, or an
    unclassified tag; every other refusal is exit 2, with nothing on
    stdout and one stderr line.  A base, input or cycle pair on the wrong
    graph is such a refusal, and so is H(1, q), which has no lambda_2."""
    code, lines = _run_argv(tmp_path_factory, argv)
    if code == 2:
        return
    result, = lines
    if "error" in result:
        assert code == 1 and GATE_REASONS.fullmatch(result["error"]), result
    elif code == 1:
        assert result["tag"]["kind"] == "unclassified", result


# Option values of the search commands.  Every admitted graph has n in
# {1, 2, 3} and q in {2, 3}, so it runs at once: at most 27 vertices, and
# the brute force sweeps at most 2^9 cells since it refuses H(3, 3).  Every
# other value is refused before any work: n or q out of range, q^n past
# 2^32, or, for q = 513, past the 512 vertices of the search and the 18 of
# the census.  The search forks at most one worker per CPU, whatever
# --threads asks for.
EXTREMES = [-(1 << 64), -1, 0, 1 << 33, 1 << 64]
MALFORMED_QUOTIENTS = ["", ";", "1,1", "1,1;1", "1,1;1,1;1,1", "a,b;c,d", "1.5,1;1,1",
                       "1,,1;1,1", "-1,5;2,2", f"{10 ** 30},0;0,1", " 2 , 2 ; 1 , 3 "]


@st.composite
def search_argv(draw):
    """The argv of verify, enumerate or sweep-ternary: a partition
    document, or --n, --q, --eig-index, --quotient (or neither
    constraint), --threads and the flags.  Half the time the options fit:
    a small graph, an index in [0, n], a quotient with the degree as its
    row sums and one or two threads; otherwise they take extreme and
    negative values and malformed quotients too.  Options take the
    --name=value form, so argparse accepts every value and each refusal is
    the handler's."""
    command = draw(st.sampled_from(("verify", "enumerate", "sweep-ternary")))
    if command == "verify":
        return [command, draw(partition_documents())]
    fit = draw(st.booleans())
    n = draw(st.sampled_from([1, 2, 3] if fit else [1, 2, 3, *EXTREMES]))
    q = draw(st.sampled_from([2, 3] if fit else [2, 3, 513, *EXTREMES]))
    argv = [command, f"--n={n}", f"--q={q}"]
    if command == "sweep-ternary":
        return argv
    constraint = draw(st.sampled_from(("index", "quotient") + (() if fit else ("neither",))))
    if constraint == "index":
        argv.append(f"--eig-index={draw(st.integers(0, n) if fit else st.sampled_from(EXTREMES))}")
    elif constraint == "quotient" and fit:
        k = n * (q - 1)
        s11, s21 = draw(st.integers(0, k)), draw(st.integers(0, k))
        argv.append(f"--quotient={s11},{k - s11};{s21},{k - s21}")
    elif constraint == "quotient":
        argv.append("--quotient=" + draw(st.one_of(
            st.sampled_from(MALFORMED_QUOTIENTS), st.text(",;-0123456789 ", max_size=12))))
    argv += [flag for flag in ("--brute-force", "--reduced-only", "--up-to-iso")
             if draw(st.booleans())]
    return argv + [f"--threads={draw(st.sampled_from([1, 2] if fit else [-1, 0, 1 << 64]))}"]


CYCLE_PAIR = {"format_version": 1, "n": 4, "q": 2, "cell": "e427"}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(argv=search_argv())
@example(argv=["verify", CYCLE_PAIR])   # both cells 2-regular: the induced cycles
@example(argv=["verify", {"format_version": 1, "n": 2, "q": 2, "vertices": [0]}])
@example(argv=["enumerate", "--n=2", "--q=3", "--quotient=2,2;1,3", "--up-to-iso"])
@example(argv=["enumerate", "--n=2", "--q=3", "--eig-index=1", "--brute-force"])
@example(argv=["enumerate", "--n=3", "--q=2", "--eig-index=2", "--reduced-only", "--threads=2"])
@example(argv=["enumerate", "--n=2", "--q=2", "--eig-index=1", "--threads=0"])
@example(argv=["sweep-ternary", "--n=1", "--q=19"])    # past TERNARY_VERTEX_LIMIT
@example(argv=["sweep-ternary", "--n=2", "--q=3"])
def test_search_commands_keep_their_contract(tmp_path_factory, argv):
    """verify, enumerate and sweep-ternary end every argv with exit 0, 1 or
    2 and no traceback, and exit 2 with one stderr line only.  verify
    prints one certificate, and exit 1 only when it is not equitable;
    enumerate prints its cells and then the summary that counts them, with
    exit 0; sweep-ternary prints counts of all 3^(q^n) functions."""
    code, lines = _run_argv(tmp_path_factory, argv)
    if code == 2:
        return
    if argv[0] == "verify":
        cert, = lines
        assert cert["equitable"] == (code == 0), cert
    elif argv[0] == "enumerate":
        assert code == 0 and lines[-1]["count"] == len(lines) - 1, argv
        assert sum(q["count"] for q in lines[-1]["quotients"]) == len(lines) - 1, argv
    else:
        census, = lines
        assert code == 0 and census["total"] == 3 ** int(argv[2][4:]) ** int(argv[1][4:]), census
