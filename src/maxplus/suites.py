"""Seeded property suites behind ``check``.

Each suite is a draw step and a check step. One driver, ``_run``, seeds
every trial from ``trial_rng(seed, t)``; all of a trial's inputs are drawn
before any of its checks runs, and no check draws from the trial's
generator, so a single trial can be drawn again on its own. Reports carry
one record per failed check with an input digest sufficient to reproduce
the trial.

A run of independent draws with equal bounds and a known count is one sized
call; ``tests/test_rng_stream.py`` pins that it draws as the scalar calls would.

Wall-clock time is measured by ``check`` around the suite call, not by
the suites: the JSON rendering of a report must be byte-stable across
runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DenseSetTooCoarseError
from .functor import (
    check_fiber_bounds,
    fiber_inf,
    fiber_sup,
    lift_toward,
    preimage_contains,
    pushforward,
    sample_preimage,
    support_displacement,
    support_image_check,
)
from .ground import (
    FunctionTable,
    GroundSpace,
    PointMap,
    compose,
    fiber_points,
    identity_map,
    pullback,
    uniform_grid_1d,
    uniform_grid_2d,
)
from .kappametric import (
    _check_kappa,
    check_kappa_axioms,
    constant_candidate,
    distance_candidate,
    squared_distance_candidate,
)
from .measures import (
    IdempotentMeasure,
    _first_law_failure,
    _integrate_rows,
    _merge,
    check_axioms,
    combine,
    min_plus_functional,
    sum_functional,
)
from .rng import choose, rand_int, rand_uniform, subset, trial_rng
from .weaktop import WeakNeighborhood, approximate_on_dense


@dataclass
class SuiteReport:
    """Outcome of one suite run.

    ``failures`` is empty exactly when the suite passed; each record
    identifies the trial, the master seed, the check that failed, and a
    digest of the inputs for replay. ``seed`` is the master seed the
    records carry; it is not rendered on its own.
    """

    suite: str
    trials: int
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    seed: int = 0

    @classmethod
    def counting(cls, suite: str, trials: int, seed: int, checks) -> SuiteReport:
        """A report whose ``details["failures_by_check"]`` counts each declared check."""
        counts = dict.fromkeys(checks, 0)
        return cls(suite, trials, details={"failures_by_check": counts}, seed=seed)

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, trial: int, check: str, inputs, expected, actual) -> None:
        """Record one failed check, and count it when the report counts checks.

        ``inputs`` is the trial's inputs, or a function that returns them,
        so a suite only assembles them for a trial that fails. A check the
        report did not declare raises ``KeyError``.
        """
        counts = self.details.get("failures_by_check")
        if counts is not None:
            counts[check] += 1
        self.failures.append(_failure(trial, self.seed, check, inputs, expected, actual))

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "pass": self.passed,
            "failures": self.failures,
            "details": self.details,
        }

    def human_summary(self, seconds: float) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"suite {self.suite}: {self.trials} trials,"
            f" {len(self.failures)} failures, {verdict} ({seconds:.2f}s)"
        )


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _failure(trial: int, seed: int, check: str, inputs, expected, actual) -> dict:
    return {
        "trial": trial,
        "seed": seed,
        "check": check,
        "inputs": _digest(inputs() if callable(inputs) else inputs),
        "expected": str(expected),
        "actual": str(actual),
    }


_PLAIN_IDS = tuple(f"p{i}" for i in range(12))  # no suite draws a plain space above 12 points


def _plain_space(space_id: str, size: int) -> GroundSpace:
    return GroundSpace(space_id, _PLAIN_IDS[:size])


def _random_weights(rng, support) -> dict:
    """Weights in [-10, 0] on the support, one of them exactly 0."""
    weights = dict(zip(support, (-rng.uniform(0.0, 10.0, len(support))).tolist()))
    weights[choose(rng, support)] = 0.0
    return weights


def _random_measure(rng, space: GroundSpace, max_atoms: int = 8) -> IdempotentMeasure:
    k = rand_int(rng, 1, min(max_atoms, len(space)))
    return IdempotentMeasure(space, _random_weights(rng, subset(rng, space.point_ids, k)))


def _random_map(rng, source: GroundSpace, target: GroundSpace) -> PointMap:
    return PointMap._trusted(source, target, rng.integers(0, len(target), size=len(source), dtype=np.intp))


def _random_surjective_map(rng, source: GroundSpace, target: GroundSpace) -> PointMap:
    tpos = rng.integers(0, len(target), size=len(source), dtype=np.intp)
    tpos[rng.choice(len(source), size=len(target), replace=False)] = np.arange(len(target))
    return PointMap._trusted(source, target, tpos)


def _measure_dict(mu: IdempotentMeasure) -> dict:
    return {"space": mu.space_id, "atoms": dict(mu.atoms())}


def _run(report: SuiteReport, draw, check) -> None:
    """Each trial in turn: ``draw(rng, t)`` returns its inputs, then ``check`` records failures."""
    for t in range(report.trials):
        check(report, t, **draw(trial_rng(report.seed, t), t))


# --- axioms ----------------------------------------------------------------

def run_axioms(trials: int = 1000, seed: int = 0, tol: float = 1e-12) -> SuiteReport:
    """Norm, homogeneity, max-additivity, and order preservation.

    Random normalized measures (support 1-8, weights in [-10, 0]) are
    probed with 100 random function tables each. Norm, max-additivity
    and order preservation involve only ``max`` and monotone rounding, so
    they are compared exactly; homogeneity is the one bounded law and is
    compared within ``tol``. Two counterfeit functionals (min-plus and
    summation) are then fed to the black-box checker and must be
    rejected.
    """
    report = SuiteReport("axioms", trials, seed=seed)
    space = _plain_space("A", 10)
    n = len(space.point_ids)
    inner = 100

    def draw(rng, t):
        mu = _random_measure(rng, space)
        phi = rng.uniform(-10.0, 10.0, (inner, n))
        psi = rng.uniform(-10.0, 10.0, (inner, n))
        lam = rng.uniform(-5.0, 5.0, inner)
        eta = rng.uniform(0.0, 5.0, (inner, n))
        return {"mu": mu, "phi": phi, "psi": psi, "lam": lam, "eta": eta}

    def check(report, t, mu, phi, psi, lam, eta):
        failure = _first_law_failure(phi, psi, lam, lambda rows: _integrate_rows(mu, rows), tol, eta)
        if failure is None:
            return
        _, law, expected, actual = failure
        if law == "order-preservation":
            expected = f">= {expected}"
        report.fail(t, law, {"measure": _measure_dict(mu), "trial": t}, expected, actual)

    _run(report, draw, check)

    witness = _plain_space("B", 2)
    flat = IdempotentMeasure(witness, {"p0": 0.0, "p1": 0.0})
    two = IdempotentMeasure(witness, {"p0": 0.0, "p1": -1.0})
    counterfeits = report.details["counterfeits"] = {}
    for key, name, functional in (
        ("min_plus", "min-plus", min_plus_functional(flat)),
        ("summation", "summation", sum_functional(two)),
    ):
        result = check_axioms(functional, witness, 1000, seed, tol, name=name)
        counterfeits[key] = result.as_dict()
        if result.passed:
            report.fail(-1, f"counterfeit-{name}", {"name": name}, "rejected", "passed all trials")
    report.details["inner_tables_per_measure"] = inner
    return report


# --- functoriality -----------------------------------------------------------

def run_functor(trials: int = 500, seed: int = 0) -> SuiteReport:
    """Identity and composition laws, support image, and duality.

    Random chains X -> Y -> Z with spaces of up to 12 points; identity
    and composition must hold atom-exactly, the pushforward support must
    equal the set-image of the support, and integrating against the
    image measure must equal integrating the pulled-back table.
    """
    report = SuiteReport.counting(
        "functor", trials, seed, ("identity", "composition", "support_image", "duality")
    )

    def draw(rng, t):
        sx, sy, sz = map(_plain_space, (f"X{t}", f"Y{t}", f"Z{t}"), rng.integers(2, 13, size=3).tolist())
        f = _random_map(rng, sx, sy)
        g = _random_map(rng, sy, sz)
        mu = _random_measure(rng, sx)
        return {"f": f, "g": g, "mu": mu, "tables": rng.uniform(-10.0, 10.0, (3, len(sy)))}

    def check(report, t, f, g, mu, tables):
        def inputs():
            return {"trial": t, "f": dict(f.assign), "g": dict(g.assign), "measure": _measure_dict(mu)}

        if pushforward(identity_map(f.source), mu) != mu:
            report.fail(t, "identity", inputs, "mu", "changed by identity pushforward")

        gf = compose(g, f)
        image_mu = pushforward(f, mu)
        direct = pushforward(gf, mu)
        staged = pushforward(g, image_mu)
        if direct != staged:
            report.fail(t, "composition", inputs, _measure_dict(direct), _measure_dict(staged))

        if not (support_image_check(f, mu) and support_image_check(gf, mu)):
            report.fail(t, "support_image", inputs, "support equals image of support", "mismatch")

        for row in tables:
            phi = FunctionTable._trusted(f.target, row)
            # Exact: each side rounds w + phi(f x) once per atom, and since
            # rounding is monotone the per-fiber max commutes with it.
            lhs = image_mu.integrate(phi)
            rhs = mu.integrate(pullback(phi, f))
            if lhs != rhs:
                report.fail(t, "duality", inputs, rhs, lhs)
                break

    _run(report, draw, check)
    return report


# --- convexity of pushforward preimages --------------------------------------

_COEFF_CASES = ("both-zero", "beta-negative", "alpha-negative", "alpha-bottom", "beta-bottom")


def run_convexity(trials: int = 500, seed: int = 0) -> SuiteReport:
    """Max-plus convexity of pushforward preimages, plus support laws.

    Two sampled preimages of a random target measure are combined with
    admissible coefficients (cycling through both-finite and bottom
    cases); the combination must push forward to the target atom-exactly,
    its support must sit inside the union of the two supports (with
    equality when both coefficients are finite), and the support size is
    bounded by the sum of the two sizes.
    """
    report = SuiteReport.counting(
        "convexity", trials, seed, ("preimage", "support_subset", "support_union", "cardinality")
    )

    def draw(rng, t):
        sx = _plain_space(f"X{t}", rand_int(rng, 2, 12))
        sy = _plain_space(f"Y{t}", rand_int(rng, 1, 12))
        f = _random_map(rng, sx, sy)
        image = [y for y in sy.point_ids if y in f.image]
        k = rand_int(rng, 1, min(8, len(image)))
        nu = IdempotentMeasure(sy, _random_weights(rng, subset(rng, image, k)))
        seeds = rng.integers(0, 2**31, size=2).tolist()
        case = _COEFF_CASES[t % len(_COEFF_CASES)]
        if case == "both-zero":
            alpha, beta = 0.0, 0.0
        elif case == "beta-negative":
            alpha, beta = 0.0, -rand_uniform(rng, 0.1, 8.0)
        elif case == "alpha-negative":
            alpha, beta = -rand_uniform(rng, 0.1, 8.0), 0.0
        elif case == "alpha-bottom":
            alpha, beta = -math.inf, 0.0
        else:
            alpha, beta = 0.0, -math.inf
        return {"f": f, "nu": nu, "seeds": seeds, "case": case, "alpha": alpha, "beta": beta}

    def check(report, t, f, nu, seeds, case, alpha, beta):
        mu1, mu2 = (sample_preimage(f, nu, s) for s in seeds)
        combo = combine(alpha, mu1, beta, mu2)

        def inputs():
            return {"trial": t, "f": dict(f.assign), "nu": _measure_dict(nu), "mu1": _measure_dict(mu1),
                    "mu2": _measure_dict(mu2), "case": case}

        if not preimage_contains(f, nu, combo):
            report.fail(t, "preimage", inputs, _measure_dict(nu),
                        _measure_dict(pushforward(f, combo)))

        union = set(mu1.support) | set(mu2.support)
        combo_support = set(combo.support)
        if not combo_support <= union:
            report.fail(t, "support_subset", inputs, sorted(union), sorted(combo_support))
        if case in ("both-zero", "beta-negative", "alpha-negative") and combo_support != union:
            report.fail(t, "support_union", inputs, sorted(union), sorted(combo_support))
        if not len(combo) <= len(mu1) + len(mu2):
            report.fail(t, "cardinality", inputs, f"<= {len(mu1) + len(mu2)}", len(combo))

    _run(report, draw, check)
    report.details["coefficient_cases"] = list(_COEFF_CASES)
    return report


# --- density of dense-supported measures --------------------------------------

def _lipschitz_table(rng, space: GroundSpace, grid: np.ndarray, atoms: np.ndarray) -> FunctionTable:
    """A random 1-Lipschitz table on ``space``, whose points are the grid, then the atoms.

    The walk on the grid is one ``np.add.accumulate``, which adds strictly
    left to right: each value is the running sum ``v = v + s``. Each atom
    takes the tightest 1-Lipschitz extension, the min over the grid of
    ``walk + |c - x|``; the min never rounds. Ties cannot change the bits:
    ``abs`` never returns ``-0.0`` and ``x + (+0.0)`` is never ``-0.0``, so
    no sum is ``-0.0`` and equal minima are equal bits.
    """
    n = len(grid)
    pitch = grid[1] - grid[0]
    walk = np.empty(n)
    walk[1:] = rng.uniform(-pitch, pitch, n - 1)
    walk[0] = rand_uniform(rng, -5.0, 5.0)
    np.add.accumulate(walk, out=walk)
    extension = (walk + np.abs(atoms[:, None] - grid)).min(axis=1)
    return FunctionTable._trusted(space, np.concatenate([walk, extension]))


def run_density(trials: int = 200, seed: int = 0) -> SuiteReport:
    """Dense-subset approximation at grid scale.

    Measures supported off a 101-point grid of [0, 1] are approximated
    on the grid against up to five random 1-Lipschitz test tables with
    epsilon alternating between 0.1 and 0.01 — both above the resolution
    threshold L/(2(N-1)) = 0.005, so every trial must land strictly
    inside the neighborhood. One deliberately under-resolved call
    (epsilon 0.001, atom mid-cell) must fail with a coarseness error.
    """
    report = SuiteReport("density", trials, seed=seed)
    n_grid = 101
    epsilons = (0.1, 0.01)
    pitch = 1.0 / (n_grid - 1)
    grid_ids = tuple(f"g{i}" for i in range(n_grid))
    grid_coords = tuple(i * pitch for i in range(n_grid))
    grid = np.array(grid_coords)
    grid_points = [(g, (x,)) for g, x in zip(grid_ids, grid_coords)]

    def draw(rng, t):
        s = rand_int(rng, 1, 8)
        used = set(grid_coords)
        atom_coords = []
        for c in rng.uniform(0.0, 1.0, s).tolist():
            while c in used:
                c = (c + 1.3e-7) % 1.0
            used.add(c)
            atom_coords.append(c)
        atom_ids = tuple(f"a{j}" for j in range(s))
        space = GroundSpace(f"D{t}", grid_points + [(a, (c,)) for a, c in zip(atom_ids, atom_coords)])
        mu = IdempotentMeasure(space, _random_weights(rng, atom_ids))
        k = rand_int(rng, 1, 5)
        atoms = np.array(atom_coords)
        return {"mu": mu, "tests": [_lipschitz_table(rng, space, grid, atoms) for _ in range(k)]}

    def check(report, t, mu, tests):
        eps = epsilons[t % 2]
        def inputs():
            return {"trial": t, "epsilon": eps, "atoms": dict(mu.atoms()), "tables": len(tests)}

        try:
            nu = approximate_on_dense(mu, grid_ids, tests, eps)
        except DenseSetTooCoarseError as exc:
            report.fail(t, "approximation", inputs, f"discrepancy below {eps}",
                        exc.worst_discrepancy)
            return
        if not WeakNeighborhood(mu, tuple(tests), eps).contains(nu):
            report.fail(t, "containment", inputs, "inside neighborhood", "outside")
        if not set(nu.support) <= set(grid_ids):
            report.fail(t, "support_in_dense", inputs, "support inside the dense set",
                        sorted(nu.support))
        if not len(nu) <= len(mu):
            report.fail(t, "support_size", inputs, f"<= {len(mu)}", len(nu))

    _run(report, draw, check)
    # Deliberately under-resolved: a mid-cell atom at epsilon far below
    # the half-pitch resolution bound must be rejected.
    demo_space = GroundSpace("Ddemo", grid_points + [("a0", (0.505,))])
    demo_mu = IdempotentMeasure.dirac(demo_space, "a0")
    identity_table = FunctionTable._trusted(demo_space, demo_space._xy[:, 0])
    demo_eps = 0.001
    demo = {"epsilon": demo_eps, "raised": False, "worst_discrepancy": None}
    try:
        approximate_on_dense(demo_mu, grid_ids, [identity_table], demo_eps)
    except DenseSetTooCoarseError as exc:
        demo["raised"] = True
        demo["worst_discrepancy"] = exc.worst_discrepancy
    if not demo["raised"]:
        report.fail(-1, "coarseness_demo", {"epsilon": demo_eps}, "dense set too coarse",
                    "approximation unexpectedly succeeded")
    report.details["coarseness_demo"] = demo
    report.details["epsilon_values"] = list(epsilons)
    report.details["resolution_threshold"] = 1.0 / (2 * (n_grid - 1))
    return report


# --- openness of grid projections ---------------------------------------------

def _grid_projection(plane: GroundSpace, line: GroundSpace, n: int, axis: int) -> PointMap:
    assign = {
        f"g{i}_{j}": f"g{i if axis == 0 else j}"
        for i in range(n)
        for j in range(n)
    }
    return PointMap(plane, line, assign)


def run_openmap(trials: int = 200, seed: int = 0) -> SuiteReport:
    """Constructive lifting along coordinate projections of square grids.

    Target measures are made by sliding the atoms of a pushforward at
    most delta along the line; the lift must push forward to the target
    bit-exactly while staying within delta plus one grid pitch of the
    base support.
    """
    report = SuiteReport.counting(
        "openmap", trials, seed, ("target_near_base", "exact_pushforward", "displacement")
    )
    delta = 0.2
    sizes = (10, 15, 20, 25)
    planes = {n: uniform_grid_2d(f"G{n}", n) for n in sizes}
    lines = {n: uniform_grid_1d(f"H{n}", n) for n in sizes}
    projections = {
        (n, axis): _grid_projection(planes[n], lines[n], n, axis)
        for n in sizes
        for axis in (0, 1)
    }

    def draw(rng, t):
        n = sizes[t % len(sizes)]
        axis = t % 2
        mu0 = _random_measure(rng, planes[n])
        nu0 = pushforward(projections[(n, axis)], mu0)
        max_offset = int(delta * (n - 1))
        offsets = rng.integers(-max_offset, max_offset + 1, size=len(nu0)).tolist()
        slid = [min(max(i + d, 0), n - 1) for i, d in zip(nu0._idx.tolist(), offsets)]
        nu_prime = IdempotentMeasure._trusted(lines[n], *_merge(lines[n], slid, nu0._w.tolist()))
        return {"n": n, "axis": axis, "mu0": mu0, "nu0": nu0, "nu_prime": nu_prime}

    def check(report, t, n, axis, mu0, nu0, nu_prime):
        f = projections[(n, axis)]
        pitch = 1.0 / (n - 1)
        def inputs():
            return {"trial": t, "grid": n, "axis": axis, "mu0": _measure_dict(mu0),
                    "nu_prime": _measure_dict(nu_prime)}

        if not support_displacement(nu0, nu_prime) <= delta:
            report.fail(t, "target_near_base", inputs, f"<= {delta}",
                        support_displacement(nu0, nu_prime))

        lifted = lift_toward(f, mu0, nu_prime)
        if pushforward(f, lifted) != nu_prime:
            report.fail(t, "exact_pushforward", inputs, _measure_dict(nu_prime),
                        _measure_dict(pushforward(f, lifted)))
        # Exact: some fiber point lies at most max_offset pitches (<= delta) from a
        # base atom; the margin of one more pitch (>= 1/24) is far beyond rounding.
        moved = support_displacement(mu0, lifted)
        if not moved <= delta + pitch:
            report.fail(t, "displacement", inputs, f"<= {delta + pitch}", moved)

    _run(report, draw, check)
    report.details["delta"] = delta
    report.details["grid_sizes"] = list(sizes)
    return report


# --- fiber extremes and fiber bounds -------------------------------------------

def run_lemmas(trials: int = 500, seed: int = 0) -> SuiteReport:
    """Fiber extremes dominate correctly and fiber-supported integrals stay bounded.

    On random surjective maps, the per-fiber minimum table must sit below
    the source table (with the minimum attained in every fiber) and the
    per-fiber maximum above it; measures supported inside a single fiber
    must integrate any table to a value between the fiber extremes.
    """
    report = SuiteReport.counting(
        "lemmas", trials, seed, ("dominated", "extreme_attained", "fiber_bounds")
    )

    def draw(rng, t):
        ny = rand_int(rng, 1, 6)
        nx = rand_int(rng, ny, 12)
        sx = _plain_space(f"X{t}", nx)
        sy = _plain_space(f"Y{t}", ny)
        f = _random_surjective_map(rng, sx, sy)
        phi = FunctionTable._trusted(sx, rng.uniform(-10.0, 10.0, nx))
        y0 = choose(rng, list(sy.point_ids))
        pts = list(fiber_points(f, y0))
        sub = subset(rng, pts, rand_int(rng, 1, len(pts)))
        return {"f": f, "phi": phi, "y0": y0, "nu": IdempotentMeasure(sx, _random_weights(rng, sub))}

    def check(report, t, f, phi, y0, nu):
        lower = fiber_inf(f, phi)
        upper = fiber_sup(f, phi)
        def inputs():
            return {"trial": t, "f": dict(f.assign), "phi": dict(phi.values)}

        if not ((pullback(lower, f)._v <= phi._v) & (phi._v <= pullback(upper, f)._v)).all():
            report.fail(t, "dominated", inputs, "fiber min <= phi <= fiber max pointwise",
                        "violated")

        values, low, up = phi._v.tolist(), lower._v.tolist(), upper._v.tolist()
        for j, fiber in enumerate(f._fiber_pos):
            fiber_values = list(map(values.__getitem__, fiber))
            if low[j] not in fiber_values or up[j] not in fiber_values:
                report.fail(t, "extreme_attained", inputs, "extremes attained in every fiber",
                            f"not attained over {f.target._ids[j]!r}")
                break

        bound = check_fiber_bounds(f, y0, nu, phi)
        if not (bound.applicable and bound.passed):
            report.fail(t, "fiber_bounds", {**inputs(), "nu": _measure_dict(nu), "y0": y0},
                        f"{bound.lower} <= integral <= {bound.upper}",
                        bound.integral if bound.applicable else "inapplicable")

    _run(report, draw, check)
    return report


# --- set-distance axioms ---------------------------------------------------------

def _random_metric_space(rng, space_id: str, max_points: int = 20) -> GroundSpace:
    """Distinct points of [0, 10]^2, drawn one at a time: a repeated pair redraws."""
    m = rand_int(rng, 3, max_points)
    seen = set()
    points = []
    for i in range(m):
        c = (rand_uniform(rng, 0.0, 10.0), rand_uniform(rng, 0.0, 10.0))
        while c in seen:
            c = (c[0], rand_uniform(rng, 0.0, 10.0))
        seen.add(c)
        points.append((f"k{i}", c))
    return GroundSpace(space_id, points)


def run_kappa(trials: int = 100, seed: int = 0, tol: float = 1e-12) -> SuiteReport:
    """Set-distance axioms on random metric models, plus negative controls.

    The distance candidate must pass all four axioms on every random
    space; the constant candidate must fail belonging (K1) and the
    squared-distance candidate must fail the Lipschitz check (K3), each
    with a concrete counterexample. ``tol`` reaches only K3, the one
    bounded axiom (see :func:`check_kappa_axioms`).
    """
    report = SuiteReport("kappa", trials, seed=seed)
    inner = 10

    def draw(rng, t):
        return {"space": _random_metric_space(rng, f"K{t}"), "child_seed": rand_int(rng, 0, 2**31 - 1)}

    def check(report, t, space, child_seed):
        result = check_kappa_axioms(distance_candidate(space), inner, child_seed, tol)
        if not result.passed:
            failed = {
                k: v for k, v in result.axioms.items() if v["status"] == "fail"
            }
            report.fail(t, "distance_axioms", {"trial": t, "points": len(space)},
                        "all axioms pass", json.dumps(failed, sort_keys=True))

    _run(report, draw, check)
    witness_rng = trial_rng(seed, trials)
    witness = _random_metric_space(witness_rng, "Kwitness", max_points=12)
    counterfeits = report.details["counterfeits"] = {}
    results = _check_kappa(  # one stream of draws for both counterfeits
        (constant_candidate(witness), squared_distance_candidate(witness)), 1000, seed, tol,
    )
    for (key, check, name, axiom), result in zip(  # each counterfeit must fail its axiom
        (("constant", "counterfeit-constant", "constant", "K1"),
         ("squared_distance", "counterfeit-squared", "squared-distance", "K3")),
        results,
    ):
        counterfeits[key] = result.as_dict()
        status = result.axioms[axiom]["status"]
        if status != "fail":
            report.fail(-1, check, {"candidate": name}, f"{axiom} rejected", status)
    report.details["inner_trials_per_space"] = inner
    return report


SUITES = {
    "axioms": run_axioms,
    "functor": run_functor,
    "convexity": run_convexity,
    "density": run_density,
    "openmap": run_openmap,
    "lemmas": run_lemmas,
    "kappa": run_kappa,
}

BOUNDED_SUITES = frozenset({"axioms", "kappa"})
"""The suites with a bounded check (homogeneity, K3): the only runners that take ``tol``."""
