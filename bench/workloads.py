"""Seeded inputs and verified batches for the three benchmark workloads.

Each workload has a ``setup(seed, small)`` that turns the seed into the
inputs of one batch, a ``batch(inputs, tally, call)`` that runs the batch
against the package's public API and checks every output, and a ``probe``:
the arguments of ``setup_probe.py`` that do the program's part of set-up in
a fresh interpreter.  ``call(module, name, *args)`` invokes
``paircodes.<module>.<name>`` by looking the name up at call time, so the
tracer's wrappers are used when they are installed.

Workloads (all closed loop, one client, one process):

* ``sweep-deep``  -- ``consistency_scan`` at budget 2^21 over four rings:
  hundreds of tiny codes plus a dozen budget-sized ones, so the oracle
  kernel (``pairmetric.scan_minima``) dominates.
* ``sweep-wide``  -- the same API at budget 2^12 over a beta = 0 chain ring
  with ~2000 code specs, most over budget, so code construction
  (``codes``/``quotient``/``galois`` arithmetic) dominates.
* ``cli-mix``     -- a seeded stream of >= 100 ``paircodes.cli.main(argv)``
  requests, including a small share of malformed requests whose correct
  outcome is exit code 2 with a JSON error.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import time
from dataclasses import dataclass, field

# --- result accounting --------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed, and per-request latencies.

    ``wrong`` counts failed operations whose input was well formed: any of
    them makes the run incorrect.  Failures of malformed requests are counted
    in ``failed`` and listed under their class, but are expected defects of
    the program, not wrong answers.
    """
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    latencies_s: list = field(default_factory=list)
    output_bytes: int = 0
    classes: dict = field(default_factory=dict)

    def record(self, cls: str, problem: str | None, malformed: bool = False):
        entry = self.classes.setdefault(
            cls, {"attempted": 0, "failed": 0, "examples": []})
        self.attempted += 1
        entry["attempted"] += 1
        if problem is None:
            return
        self.failed += 1
        entry["failed"] += 1
        if not malformed:
            self.wrong += 1
        if len(entry["examples"]) < 3:
            entry["examples"].append(problem[:300])


# --- sweeps -------------------------------------------------------------------

# (p, m, n, s, alpha0, beta); alpha0 and beta are encoded field elements.
DEEP_RINGS = [
    (2, 1, 1, 3, 1, 0),
    (3, 1, 1, 2, 1, 1),
    (5, 1, 2, 1, 2, None),
    (3, 1, 2, 2, 2, None),
]
DEEP_BUDGET = 1 << 21
WIDE_RINGS = [(2, 1, 1, 4, 1, 0)]
WIDE_BUDGET = 1 << 10
# Reduced sizes for the self-check.
SMALL_DEEP_RINGS = [(2, 1, 1, 2, 1, 0), (5, 1, 2, 1, 2, None)]
SMALL_WIDE_RINGS = [(2, 1, 1, 3, 1, 0)]


@dataclass
class SweepInputs:
    rings: list
    budget: int
    seed: int


def build_rings(params) -> list:
    from paircodes import Field, QuotientRing
    return [QuotientRing(Field(p, m), n, s, a0, beta)
            for p, m, n, s, a0, beta in params]


def sweep_setup(params, budget):
    def setup(seed: int, small: bool = False) -> SweepInputs:
        ps = params[1] if small else params[0]
        return SweepInputs(build_rings(ps), budget, seed)
    return setup


def sweep_batch(inputs: SweepInputs, tally: Tally, call) -> None:
    """One ``consistency_scan`` per ring; every checked entry is one operation.

    The caller sets up fresh rings for each batch, so nothing memoized on a
    ring object survives from one batch to the next.
    """
    for idx, ring in enumerate(inputs.rings):
        rng = random.Random(f"{inputs.seed}:{idx}")
        try:
            report = call("theory", "consistency_scan", ring,
                          budget=inputs.budget, rng=rng)
            problems = [_entry_problem(ring.p, inputs.budget, e)
                        for e in report.entries] or ["no code was checked"]
            if not report.ok and not any(problems):
                problems.append("ScanReport.ok is false")
        except Exception as exc:  # counted, never aborts the run
            problems = [f"raised {exc!r}"]
        for problem in problems:
            tally.record(f"scan {ring!r}", problem)


def _entry_problem(p: int, budget: int, e) -> str | None:
    if not e.ok:
        return (f"{e.spec_text}: formula {e.formula_pair}, oracle "
                f"{e.oracle_pair} (witness {e.witness})")
    if not e.dim_ok:
        return f"{e.spec_text}: dim_p {e.dim_p} != log size {e.log_size}"
    if e.oracle_pair is None or p ** e.dim_p > budget:
        return f"{e.spec_text}: checked without an exhaustive scan"
    return None


# --- cli-mix inputs -------------------------------------------------------------


@dataclass(frozen=True)
class Ring:
    p: int
    m: int
    n: int
    s: int
    alpha0: str
    beta: str | None = None

    @property
    def ps(self) -> int:
        return self.p ** self.s

    @property
    def N(self) -> int:
        return self.n * self.ps

    @property
    def alog(self) -> int:
        """log_p of the coefficient alphabet size."""
        return self.m if self.beta is None else 2 * self.m

    def args(self) -> list[str]:
        out = ["--p", str(self.p), "--m", str(self.m), "--s", str(self.s),
               "--n", str(self.n), "--alpha0", self.alpha0]
        if self.beta is not None:
            out += ["--beta", self.beta]
        return out


def _field_rings() -> list[Ring]:
    rings = [Ring(2, 1, 1, s, "1") for s in (2, 3, 4, 5)]
    rings += [Ring(3, 1, 1, s, a) for s in (1, 2, 3) for a in "12"]
    rings += [Ring(3, 1, 2, s, "2") for s in (1, 2)]
    rings += [Ring(5, 1, 1, s, a) for s in (1, 2) for a in "1234"]
    rings += [Ring(5, 1, n, 1, a) for n in (2, 4) for a in "23"]
    rings += [Ring(7, 1, 1, 1, a) for a in "123456"]
    rings += [Ring(7, 1, 2, 1, a) for a in "356"]
    rings += [Ring(2, 2, 3, s, "0,1") for s in (1, 2)]
    rings += [Ring(3, 2, 2, 1, "1,1")]
    return rings


def _chain_rings() -> list[Ring]:
    rings = [Ring(2, 1, 1, s, "1", b) for s in (2, 3) for b in "01"]
    rings += [Ring(3, 1, 1, s, a, b) for s in (1, 2) for a in "12"
              for b in "012"]
    rings += [Ring(5, 1, 1, 1, a, b) for a in "14" for b in "03"]
    return rings


FIELD_RINGS = _field_rings()
CHAIN_RINGS = _chain_rings()
HEAVY_TABLE_RING = Ring(5, 1, 1, 2, "1", "0")       # 6738 code specs
LARGE_DISTANCE = (Ring(2, 1, 1, 5, "1"), "field-power:i=11")  # 2^21 words
HEAVY_FIELDS = [(2, 8), (3, 5)]
LIGHT_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (11, 1), (13, 1), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2)]


def _unit_b_texts(ring: Ring, rng: random.Random) -> list[str]:
    """b values for Type2/Type3 specs: zero, constants and one random unit.

    Only used for n = 1, m = 1 rings, where b is a unit exactly when
    b(alpha0) != 0 (mod p).
    """
    p, a0 = ring.p, int(ring.alpha0)
    out = ["0", "1", str(p - 1)]
    coeffs = [rng.randrange(p) for _ in range(3)]
    if sum(c * pow(a0, d, p) for d, c in enumerate(coeffs)) % p:
        out.append(",".join(map(str, coeffs)))
    return out


def spec_menu(ring: Ring, rng: random.Random) -> list[tuple[str, int]]:
    """Every (spec text, log_p size) of the ring, from the classification."""
    m, n, ps = ring.m, ring.n, ring.ps
    if ring.beta is None:
        return [(f"field-power:i={i}", m * n * (ps - i)) for i in range(ps + 1)]
    if ring.beta != "0":
        return [(f"chain:i={i}", m * n * (2 * ps - i))
                for i in range(2 * ps + 1)]
    bs = _unit_b_texts(ring, rng)
    out = [(f"type1:k={k}", 2 * m * n * (ps - k)) for k in range(ps + 1)]
    for k in range(ps):
        for j in range(-(-(ps + k) // 2), ps):
            out.append((f"type2:j={j},k={k},b={rng.choice(bs)}",
                        m * n * (ps - k)))
    for k in range(ps - 1):
        for t in range(1, ps - k):
            for j in range(k + (-(-t // 2)), k + t + 1):
                out.append((f"type3:j={j},k={k},t={t},b={rng.choice(bs)}",
                            m * n * (2 * ps - 2 * k - t)))
    return out


def _candidates(rng, lo_words, hi_words, max_n=None) -> list[tuple]:
    """Every (ring, spec) of a code with lo <= |C| <= hi words."""
    return [(ring, text) for ring in FIELD_RINGS + CHAIN_RINGS
            if max_n is None or ring.N <= max_n
            for text, lg in spec_menu(ring, rng)
            if lo_words <= ring.p ** lg <= hi_words]


@dataclass
class Request:
    cls: str          # reported class
    check: str        # key into CHECKS; None for malformed requests
    argv: list
    info: dict

    @property
    def malformed(self) -> bool:
        return self.check is None


def _distance_both(tier: str, ring: Ring, spec: str) -> Request:
    return Request(f"distance-both-{tier}", "distance-both",
                   ["distance", *ring.args(), "--spec", spec], {})


UPPER_RINGS = ([Ring(2, 1, 1, s, "1") for s in (4, 5, 6, 7)]
               + [Ring(3, 1, 1, 3, a) for a in "12"]
               + [Ring(3, 1, 2, 2, "2")]
               + [Ring(5, 1, 1, 2, a) for a in "23"]
               + [Ring(2, 1, 1, s, "1", "1") for s in (4, 5, 6)]
               + [Ring(3, 1, 1, 2, "1", b) for b in "12"])
UPPER_BUDGET = 1 << 12
# The F2 repro (radix overflow at dim >= 64).  At the largest budget and
# dimension of the class it also fixes the batch's peak memory, whichever
# specs the seed picks for the other upper-bound requests.
F2_REPRO = (Ring(2, 1, 1, 7, "1"), "field-power:i=1")


def _distance_upper(rng, ring: Ring, spec=None, budget=None) -> Request:
    if budget is None:
        budget = rng.randrange(UPPER_BUDGET // 2, UPPER_BUDGET + 1)
    if spec is None:
        spec = rng.choice([t for t, lg in spec_menu(ring, rng)
                           if ring.p ** lg > budget])
    return Request("distance-upper-bound", "distance-upper-bound",
                   ["distance", *ring.args(), "--spec", spec,
                    "--method", "brute", "--budget", str(budget)],
                   {"ring": ring, "spec": spec})


TABLE_RINGS = FIELD_RINGS + CHAIN_RINGS


def _tables(rng, ring=None) -> Request:
    ring = ring or rng.choice(TABLE_RINGS)
    fmt = rng.choice(["md", "csv", "json"])
    return Request("tables", "tables", ["tables", *ring.args(), "--format", fmt,
                              "--seed", str(rng.randrange(1 << 16))],
                   {"ring": ring, "format": fmt})


def _scan_mds(rng, ring=None) -> Request:
    ring = ring or rng.choice(TABLE_RINGS)
    return Request("scan-mds", "scan-mds", ["scan", "mds", *ring.args(),
                                "--seed", str(rng.randrange(1 << 16))],
                   {"ring": ring})


BUILD_RINGS = ([Ring(2, 1, 1, s, "1") for s in (5, 6, 7, 8)]
               + [Ring(2, 1, 1, s, "1", b) for s in (4, 5) for b in "01"]
               + [Ring(2, 1, 1, 6, "1", "1")]
               + [Ring(3, 1, 1, s, "1") for s in (3, 4)]
               + [Ring(3, 1, 2, 3, "2"), Ring(5, 1, 1, 2, "2")])


def _build_code(rng, ring: Ring) -> Request:
    spec, lg = rng.choice(spec_menu(ring, rng))
    return Request("build-code", "build-code",
                   ["build-code", *ring.args(), "--spec", spec],
                   {"ring": ring, "log_size": lg})


def _element_text(rng, p: int, m: int) -> str:
    while True:
        digits = [rng.randrange(p) for _ in range(m)]
        if any(digits):
            return ",".join(map(str, digits))


def _field_request(rng, tier: str, p: int, m: int) -> Request:
    fargs = ["--p", str(p), "--m", str(m)]
    n = rng.choice([1, 2, 3, 4, 5, 6])
    if rng.random() < 0.5:
        return Request(f"field-info-{tier}", "field-info",
                       ["field-info", *fargs, "--n", str(n)],
                       {"q": p ** m, "n": n})
    return Request(f"check-binomial-{tier}", "check-binomial",
                   ["check-binomial", *fargs, "--n", str(n),
                    "--alpha0", _element_text(rng, p, m)],
                   {"q": p ** m, "n": n})


def _malformed(rng) -> Request:
    """The F3/F4/F5 repros, with seeded parameters.

    The correct outcome of each is exit code 2 with a JSON error.
    """
    ring = rng.choice([r for r in FIELD_RINGS
                       if r.n == 1 and r.m == 1 and r.ps <= 9])
    spec = f"field-power:i={rng.randrange(1, ring.ps)}"
    kind = rng.choice(["spec", "alpha0-text", "alpha0-range", "budget"])
    args = ring.args()
    if kind == "spec":
        spec = f"field-power:i={rng.choice(['x', '1.5', 'two', ''])}"
        argv = ["distance", *args, "--spec", spec]
    elif kind == "alpha0-text":
        args[args.index("--alpha0") + 1] = rng.choice(["abc", "1.5", "0x1"])
        argv = ["distance", *args, "--spec", spec]
    elif kind == "alpha0-range":
        a0 = int(ring.alpha0) + ring.p * rng.randrange(1, 4)
        args[args.index("--alpha0") + 1] = str(a0)
        argv = ["distance", *args, "--spec", spec]
    else:
        argv = ["distance", *args, "--spec", spec, "--method", "brute",
                "--budget", str(rng.choice([0, -1, -4096]))]
    return Request(f"malformed-{kind}", None, argv, {})


# Requests of each class in one batch.  The costly classes have a fixed
# composition -- the heaviest requests (2^21 words, 6738 specs, GF(2^8) and
# GF(3^5) tables) a fixed number of times, upper-bound and build-code
# requests once per ring of their menu -- so that the batch's cost barely
# depends on the seed, which only picks specs, budgets, formats and order.
CLI_MIX = {
    "small": 45, "medium": 6, "large": 1, "upper": len(UPPER_RINGS),
    "tables": 8, "scan": 3, "heavy-table": 1, "build": len(BUILD_RINGS),
    "light-field": 10, "heavy-field": 2, "malformed": 6,
}
SMALL_CLI_MIX = {
    "small": 4, "medium": 0, "large": 0, "upper": 2, "tables": 2,
    "scan": 1, "heavy-table": 0, "build": 2, "light-field": 2,
    "heavy-field": 0, "malformed": 2,
}


def cli_requests(seed: int, mix: dict) -> list[Request]:
    """The heaviest requests first, in a fixed order; then the rest, shuffled.

    Starting every batch with the same heavy requests keeps the peak memory
    of a run from depending on which request the seed puts after which.
    """
    rng = random.Random(seed)
    heavy: list[Request] = []
    for _ in range(mix["large"]):
        heavy.append(_distance_both("large", *LARGE_DISTANCE))
        heavy.append(_distance_upper(rng, *F2_REPRO, UPPER_BUDGET))
    for _ in range(mix["heavy-table"]):
        heavy += [_tables(rng, HEAVY_TABLE_RING),
                  _scan_mds(rng, HEAVY_TABLE_RING)]
    heavy += [_field_request(rng, "heavy", *HEAVY_FIELDS[i % 2])
              for i in range(mix["heavy-field"])]
    small = _candidates(rng, 1, 1 << 12)
    medium = _candidates(rng, 1 << 15, 1 << 17, max_n=32)
    rest = [_distance_both("small", *rng.choice(small))
            for _ in range(mix["small"])]
    rest += [_distance_both("medium", *rng.choice(medium))
             for _ in range(mix["medium"])]
    rest += [_distance_upper(rng, UPPER_RINGS[i % len(UPPER_RINGS)])
             for i in range(mix["upper"])]
    rest += [_tables(rng) for _ in range(mix["tables"])]
    rest += [_scan_mds(rng) for _ in range(mix["scan"])]
    rest += [_build_code(rng, BUILD_RINGS[i % len(BUILD_RINGS)])
             for i in range(mix["build"])]
    rest += [_field_request(rng, "light", *rng.choice(LIGHT_FIELDS))
             for _ in range(mix["light-field"])]
    rest += [_malformed(rng) for _ in range(mix["malformed"])]
    rng.shuffle(rest)
    return heavy + rest


def cli_setup(seed: int, small: bool = False) -> list[Request]:
    """The request stream.  Every request builds its own field and ring, so
    the program's set-up is only importing the CLI and building its parser.
    """
    return cli_requests(seed, SMALL_CLI_MIX if small else CLI_MIX)


# --- cli-mix checks -------------------------------------------------------------


def _phi(x: int) -> int:
    out = x
    for r in _prime_factors(x):
        out -= out // r
    return out


def _prime_factors(x: int) -> list[int]:
    out, d = [], 2
    while d * d <= x:
        if x % d == 0:
            out.append(d)
            while x % d == 0:
                x //= d
        d += 1
    if x > 1:
        out.append(x)
    return out


def _binomial_irreducible(q: int, n: int, order: int) -> bool:
    """x^n - a over GF(q) is irreducible iff every prime r | n divides
    ord(a) but not (q-1)/ord(a), and q = 1 (mod 4) when 4 | n."""
    rest = (q - 1) // order
    if any(order % r or rest % r == 0 for r in _prime_factors(n)):
        return False
    return n % 4 != 0 or q % 4 == 1


def _results(out: str) -> list:
    return json.loads(out)["results"]


def _check_distance_both(req, out):
    res = _results(out)[0]
    brute, formula = res["brute"], res["formula"]
    if res.get("match") is not True:
        return f"match is {res.get('match')!r}"
    if brute["method"] != "exhaustive":
        return f"method {brute['method']!r} within the budget"
    if brute["d_sp"] != formula["d_sp"]:
        return f"brute {brute['d_sp']} != formula {formula['d_sp']}"
    return None


def _closed_form(ring: Ring, spec: str) -> int:
    from paircodes.theory import min_pair_distance_field
    family, _, value = spec.partition(":i=")
    i = int(value)
    if family == "chain":
        if i <= ring.ps:
            return 2
        i -= ring.ps
    return min_pair_distance_field(ring.n, ring.p, ring.s, i)[0]


def _check_upper(req, out):
    brute = _results(out)[0]["brute"]
    if brute["method"] != "upper-bound":
        return f"method {brute['method']!r} over the budget"
    bound = _closed_form(req.info["ring"], req.info["spec"])
    if brute["d_sp"] < bound:
        return f"upper bound {brute['d_sp']} < closed form {bound}"
    return None


def _table_rows(req, out) -> list[dict]:
    fmt = req.info["format"]
    if fmt == "json":
        return _results(out)
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(out)))
    lines = out.strip().splitlines()
    if lines[:2] != ["| generator | size | pair distance | remark |",
                     "|---|---|---|---|"]:
        raise ValueError("unexpected markdown header")
    rows = []
    for line in lines[2:]:
        gen, size, dist, remark = line.strip("| ").split(" | ")
        rows.append({"generator": gen, "size": size, "pair_distance": dist,
                     "remark": remark})
    return rows


def _check_tables(req, out):
    ring: Ring = req.info["ring"]
    rows = _table_rows(req, out)
    if ring.beta not in (None, "0") and rows:
        return f"{len(rows)} nontrivial MDS rows over a beta != 0 ring"
    for r in rows:
        base, _, lg = r["size"].partition("^")
        d = int(r["pair_distance"])
        if int(base) != ring.p or (ring.N - d + 2) * ring.alog != int(lg):
            return f"row {r} fails Singleton equality"
    return None


def _check_scan_mds(req, out):
    ring: Ring = req.info["ring"]
    for v in _results(out):
        if v["singleton_defect"] < 0:
            return f"{v['spec']} exceeds the Singleton bound"
        if v["is_mds"] != (v["singleton_defect"] == 0):
            return f"{v['spec']}: is_mds disagrees with its defect"
        if ring.beta not in (None, "0") and v["is_mds"] and not v["trivial"]:
            return f"{v['spec']}: nontrivial MDS over a beta != 0 ring"
    return None


def _check_build(req, out):
    res = _results(out)[0]
    want = req.info["log_size"]
    if res["log_size"] != want or res["dim_p"] != want:
        return (f"dim_p {res['dim_p']}, log_size {res['log_size']}, "
                f"classification {want}")
    if res["size"] != req.info["ring"].p ** want:
        return f"size {res['size']} != p^{want}"
    return None


def _check_field_info(req, out):
    res = _results(out)[0]
    q, n = req.info["q"], req.info["n"]
    if res["q"] != q:
        return f"q {res['q']} != {q}"
    if len(res["primitive_elements"]) != _phi(q - 1):
        return (f"{len(res['primitive_elements'])} primitive elements, "
                f"phi(q-1) = {_phi(q - 1)}")
    want = sum(_phi(d) for d in range(1, q) if (q - 1) % d == 0
               and _binomial_irreducible(q, n, d))
    if len(res["irreducible_binomial_constants"]) != want:
        return (f"{len(res['irreducible_binomial_constants'])} irreducible "
                f"binomial constants, expected {want}")
    return None


def _check_binomial(req, out):
    res = _results(out)[0]
    q, n = req.info["q"], req.info["n"]
    if (q - 1) % res["order"]:
        return f"order {res['order']} does not divide {q - 1}"
    if res["irreducible"] != _binomial_irreducible(q, n, res["order"]):
        return f"irreducible={res['irreducible']} for order {res['order']}"
    return None


CHECKS = {
    "distance-both": _check_distance_both,
    "distance-upper-bound": _check_upper,
    "tables": _check_tables,
    "scan-mds": _check_scan_mds,
    "build-code": _check_build,
    "field-info": _check_field_info,
    "check-binomial": _check_binomial,
}


def _check(req: Request, code, out: str, err: str) -> str | None:
    if req.malformed:
        if code != 2:
            return f"exit {code!r}, expected 2"
        try:
            error = json.loads(err.strip().splitlines()[-1])["error"]
            return None if error["type"] else "JSON error without a type"
        except Exception:  # any unreadable error report is a failure
            return "exit 2 without a JSON error"
    if code != 0:
        return f"exit {code!r}: {err.strip()[-200:]}"
    try:
        return CHECKS[req.check](req, out)
    except Exception as exc:  # output of an unexpected shape is a failure
        return f"unreadable output: {exc!r}"


def cli_batch(requests: list[Request], tally: Tally, call) -> None:
    """Send every request in turn; a request that raises is a failed one."""
    for req in requests:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = call("cli", "main", list(req.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # counted, never aborts the run
            code = f"raised {exc!r}"
        tally.latencies_s.append(time.perf_counter() - t0)
        text_out, text_err = out.getvalue(), err.getvalue()
        tally.output_bytes += len(text_out) + len(text_err)
        tally.record(req.cls, _check(req, code, text_out, text_err),
                     malformed=req.malformed)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object     # (seed, small) -> inputs of one batch
    batch: object     # (inputs, tally, call) -> None
    probe: list       # arguments of setup_probe.py


WORKLOADS = {
    "sweep-deep": Workload("sweep-deep",
                           sweep_setup((DEEP_RINGS, SMALL_DEEP_RINGS),
                                       DEEP_BUDGET),
                           sweep_batch, ["rings", json.dumps(DEEP_RINGS)]),
    "sweep-wide": Workload("sweep-wide",
                           sweep_setup((WIDE_RINGS, SMALL_WIDE_RINGS),
                                       WIDE_BUDGET),
                           sweep_batch, ["rings", json.dumps(WIDE_RINGS)]),
    "cli-mix": Workload("cli-mix", cli_setup, cli_batch, ["cli"]),
}
