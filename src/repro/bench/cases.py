"""The built-in benchmark cases, registered declaratively.

Each case is one whole workload sweep; the trend store and the
regression gate reason about the case as a unit.  Correctness is
asserted inside the cases — a benchmark that silently computes the
wrong answer would poison the trajectory with meaningless timings.
What a case returns (reliabilities, counts, speedups, agreement flags)
is recorded as the record's ``extra`` payload; ``repro bench report
<id>`` prints it.

Groups:

``experiments``
    E1–E12, the paper's experiment series (one case per series).
``kernels``
    Bit-parallel kernels: Monte-Carlo worlds against the per-world
    loop, Karp–Luby, Gray-code enumeration.
``obs``
    Instrumentation overhead on the hottest polynomial path.
``runtime``
    Cost-model calibration quality and speculative racing.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction
from typing import Any, Dict

from repro import obs
from repro.bench.registry import register

# --------------------------------------------------------------------- #
# experiments group — the paper's E1..E12 series
# --------------------------------------------------------------------- #


@register(
    "experiments.e1_qf_reliability",
    group="experiments",
    params={"sizes": [4, 8, 16, 32], "density": 0.3, "error": "1/16"},
    quick={"sizes": [4, 8]},
    tags=("paper", "exact", "polynomial"),
)
def e1_qf_reliability(params: Dict[str, Any]) -> Dict[str, Any]:
    """Prop 3.1: quantifier-free reliability over growing databases."""
    from repro.logic.evaluator import FOQuery
    from repro.reliability.exact import reliability
    from repro.util.rng import make_rng
    from repro.workloads.random_db import random_unreliable_database

    query = FOQuery("E(x, y) & ~S(x) | S(y)", ("x", "y"))
    values = {}
    for size in params["sizes"]:
        db = random_unreliable_database(
            make_rng(size),
            size=size,
            relations={"E": 2, "S": 1},
            density=params["density"],
            error=params["error"],
        )
        # Exact far beyond world enumeration: 2^(n^2+n) worlds.
        assert len(db.uncertain_atoms()) == size * size + size
        with obs.span("bench.point", size=size):
            value = reliability(db, query, method="qf")
        assert 0 < value <= 1
        values[str(size)] = float(value)
    return {"reliability": values}


@register(
    "experiments.e2_sat_count",
    group="experiments",
    params={"variables": [6, 9, 12, 15]},
    quick={"variables": [6, 9]},
    repeats=2,
    tags=("paper", "hardness"),
)
def e2_sat_count(params: Dict[str, Any]) -> Dict[str, Any]:
    """Prop 3.2: #SAT through exact expected error (exponential)."""
    from repro.reductions.monotone2sat import (
        count_satisfying_assignments,
        sat_count_via_expected_error,
    )
    from repro.util.rng import make_rng
    from repro.workloads.random_cnf import random_monotone_2cnf

    counts = {}
    for variables in params["variables"]:
        formula = random_monotone_2cnf(
            make_rng(variables), variables=variables, clauses=variables
        )
        with obs.span("bench.point", variables=variables):
            count = sat_count_via_expected_error(formula)
        assert count == count_satisfying_assignments(formula)
        counts[str(variables)] = int(count)
    return {"sat_counts": counts}


@register(
    "experiments.e3_tree_walk",
    group="experiments",
    params={"uncertain": [4, 8, 12], "size": 4, "density": 0.4},
    quick={"uncertain": [4, 8]},
    repeats=2,
    tags=("paper", "exact"),
)
def e3_tree_walk(params: Dict[str, Any]) -> Dict[str, Any]:
    """Thm 4.2: the FP^#P computation tree, walked literally."""
    from repro.logic.evaluator import FOQuery
    from repro.relational.atoms import Atom
    from repro.reliability.exact import truth_probability
    from repro.reliability.space import scaled_world_counts, world_granularity
    from repro.reliability.unreliable import UnreliableDatabase
    from repro.util.rng import make_rng
    from repro.workloads.random_db import random_structure

    query = FOQuery("exists x y. E(x, y) & S(y)")
    checked = []
    for uncertain in params["uncertain"]:
        rng = make_rng(uncertain)
        structure = random_structure(
            rng, params["size"], {"E": 2, "S": 1}, density=params["density"]
        )
        atoms = sorted(structure.atoms(), key=repr)
        chosen = rng.sample(atoms, uncertain)
        mu = {atom: Fraction(1, rng.choice([3, 4, 5])) for atom in chosen}
        db = UnreliableDatabase(structure, mu)
        g = world_granularity(db)
        with obs.span("bench.point", uncertain=uncertain):
            accepted = 0
            total = 0
            for world, count in scaled_world_counts(db):
                total += count
                if query.evaluate(world, ()):
                    accepted += count
        assert total == g
        assert Fraction(accepted, g) == truth_probability(
            db, query, method="dnf"
        )
        checked.append(uncertain)
    return {"verified_uncertain_counts": checked}


@register(
    "experiments.e4_fptras",
    group="experiments",
    params={
        "epsilons": [0.2, 0.1, 0.05],
        "delta": 0.05,
        "variables": 12,
        "clauses": 8,
        "width": 3,
    },
    quick={"epsilons": [0.2, 0.1]},
    repeats=2,
    tags=("paper", "fptras"),
)
def e4_fptras(params: Dict[str, Any]) -> Dict[str, Any]:
    """Thm 5.3: Karp–Luby FPTRAS cost vs 1/epsilon at fixed size."""
    from repro.propositional.counting import probability_exact
    from repro.propositional.karp_luby import karp_luby, sample_count
    from repro.util.rng import make_rng
    from repro.workloads.random_dnf import random_kdnf, random_probabilities

    rng = make_rng(1)
    dnf = random_kdnf(
        rng,
        variables=params["variables"],
        clauses=params["clauses"],
        width=params["width"],
    )
    probs = random_probabilities(rng, dnf)
    exact = float(probability_exact(dnf, probs))
    samples = {}
    for epsilon in params["epsilons"]:
        with obs.span("bench.point", epsilon=epsilon):
            run = karp_luby(
                dnf, probs, epsilon, params["delta"], make_rng(2),
                method="coverage",
            )
        assert run.samples == sample_count(
            len(dnf.clauses), epsilon, params["delta"]
        )
        assert abs(run.estimate - exact) <= 2 * epsilon * exact
        samples[str(epsilon)] = run.samples
    return {"exact": exact, "samples_per_epsilon": samples}


@register(
    "experiments.e5_additive",
    group="experiments",
    params={
        "sizes": [4, 6, 8],
        "epsilon": 0.1,
        "delta": 0.1,
        # Grounding ablation: the share of atoms left uncertain, so
        # deterministic-atom folding has clauses to remove.
        "folding_fraction": 0.25,
    },
    quick={"sizes": [4, 6]},
    repeats=1,
    tags=("paper", "additive"),
)
def e5_additive(params: Dict[str, Any]) -> Dict[str, Any]:
    """Thm 5.4 / Cor 5.5: additive reliability estimation vs size."""
    from repro.logic.evaluator import FOQuery
    from repro.reliability.approx import reliability_additive
    from repro.reliability.exact import reliability
    from repro.reliability.grounding import ground_existential_to_dnf
    from repro.util.rng import make_rng
    from repro.workloads.random_db import random_unreliable_database

    query = FOQuery("exists x y. E(x, y) & S(x) & S(y)")

    def database(size, uncertain_fraction=1.0):
        return random_unreliable_database(
            make_rng(size),
            size=size,
            relations={"E": 2, "S": 1},
            density=0.3,
            error_choices=["1/8", "1/5"],
            uncertain_fraction=uncertain_fraction,
        )

    errors = {}
    clauses = {}
    for size in params["sizes"]:
        db = database(size)
        exact = float(reliability(db, query))
        with obs.span("bench.point", size=size):
            estimate = reliability_additive(
                db, query, params["epsilon"], params["delta"],
                make_rng(1000 + size),
            )
        assert abs(estimate.value - exact) <= params["epsilon"]
        errors[str(size)] = abs(estimate.value - exact)
        grounded = ground_existential_to_dnf(
            database(size, params["folding_fraction"]), query.formula
        )
        raw = grounded.clauses_before_folding
        assert raw == size * size  # one clause per (x, y) valuation
        assert len(grounded.dnf) < raw  # folding removed certain clauses
        clauses[str(size)] = {"raw": raw, "kept": len(grounded.dnf)}
    return {"absolute_errors": errors, "grounded_clauses": clauses}


@register(
    "experiments.e6_ar_decision",
    group="experiments",
    params={"nodes": [5, 6, 7], "naive_runs": 20},
    quick={"nodes": [5]},
    repeats=2,
    tags=("paper", "hardness"),
)
def e6_ar_decision(params: Dict[str, Any]) -> Dict[str, Any]:
    """Lem 5.9/5.10: absolute reliability via 4-colourability; H near 0."""
    from repro.logic.fo import neg
    from repro.reductions.fourcolouring import (
        encode_four_colouring,
        four_colourable_via_absolute_reliability,
        is_four_colourable,
        non_four_colouring_query,
    )
    from repro.reliability.exact import expected_error
    from repro.reliability.montecarlo import estimate_truth_probability
    from repro.util.rng import make_rng
    from repro.workloads.graphs import complete_graph, random_colourable_graph

    decisions = {}
    for nodes in params["nodes"]:
        vertex_list, edges = random_colourable_graph(
            make_rng(nodes), nodes, 4, 0.7
        )
        if not edges:
            continue
        with obs.span("bench.point", nodes=nodes):
            decision = four_colourable_via_absolute_reliability(
                vertex_list, edges
            )
        assert decision == is_four_colourable(vertex_list, edges)
        decisions[str(nodes)] = bool(decision)
    vertex_list, edges = complete_graph(5)
    with obs.span("bench.point", nodes="k5"):
        assert four_colourable_via_absolute_reliability(
            vertex_list, edges
        ) is False

    # Lemma 5.10: two disjoint K4s flip the answer only when both come
    # out properly coloured, so H = (24/256)^2 ~ 0.9%.  A 100-sample
    # naive estimator is off by half of H or more (often it reports 0)
    # in far more runs than any relative guarantee could allow.
    vertex_list, edges = complete_graph(4)
    nodes = list(vertex_list) + [v + 10 for v in vertex_list]
    edges = list(edges) + [(u + 10, v + 10) for u, v in edges]
    db = encode_four_colouring(nodes, edges)
    query = non_four_colouring_query()
    with obs.span("bench.point", nodes="2xk4"):
        h = expected_error(db, query)
        estimates = [
            estimate_truth_probability(
                db, neg(query.formula), make_rng(seed), samples=100
            )
            for seed in range(params["naive_runs"])
        ]
    assert h == Fraction(24, 256) ** 2
    far_off = sum(abs(e - float(h)) >= 0.5 * float(h) for e in estimates)
    assert far_off >= params["naive_runs"] // 4, estimates
    return {
        "decisions": decisions,
        "lemma_510": {"h": float(h), "naive_far_off": far_off},
    }


@register(
    "experiments.e7_padded",
    group="experiments",
    params={
        "sizes": [5, 7, 9],
        "epsilon": 0.15,
        "delta": 0.2,
        # xi ablation on the smallest size: the paper's budget t ~ 1/xi.
        "xis": ["1/10", "1/4", "2/5"],
    },
    quick={"sizes": [5], "xis": ["2/5"]},
    repeats=1,
    tags=("paper", "ptime"),
)
def e7_padded(params: Dict[str, Any]) -> Dict[str, Any]:
    """Thm 5.12: padded estimation of a Datalog (non-FO) query."""
    from repro.logic.datalog import reachability_query
    from repro.relational.builder import graph_structure
    from repro.reliability.padding import (
        padded_truth_probability,
        padding_sample_count,
    )
    from repro.reliability.unreliable import uniform_error
    from repro.util.rng import make_rng
    from repro.workloads.graphs import random_digraph

    query = reachability_query()
    epsilon, delta = params["epsilon"], params["delta"]
    estimates = {}
    samples = {}
    for size in params["sizes"]:
        nodes, edges = random_digraph(make_rng(size), size, 0.25)
        db = uniform_error(graph_structure(nodes, edges), Fraction(1, 10))
        with obs.span("bench.point", size=size):
            estimate = padded_truth_probability(
                db, query, epsilon, delta,
                make_rng(500 + size), args=(0, size - 1),
            )
        assert 0.0 <= estimate.value <= 1.0
        estimates[str(size)] = estimate.value
        if size > min(params["sizes"]):
            continue
        for xi in params["xis"]:  # the xi ablation, on the smallest size
            with obs.span("bench.point", size=size, xi=xi):
                estimate = padded_truth_probability(
                    db, query, epsilon, delta, make_rng(900), xi=xi,
                    args=(0, size - 1),
                )
            # The internal run targets epsilon / 2 (proof of Thm 5.12).
            assert estimate.samples == padding_sample_count(
                xi, epsilon / 2, delta
            )
            assert 0.0 <= estimate.value <= 1.0
            samples[xi] = estimate.samples
    return {"estimates": estimates, "samples_per_xi": samples}


@register(
    "experiments.e8_metafinite",
    group="experiments",
    params={
        "qf_sensors": [8, 16, 32],
        "agg_sensors": 6,
        "samples": 4000,
    },
    quick={"qf_sensors": [8, 16], "samples": 1000},
    tags=("paper", "metafinite"),
)
def e8_metafinite(params: Dict[str, Any]) -> Dict[str, Any]:
    """Thm 6.2: metafinite reliability — QF polynomial, aggregate 2^u."""
    from repro.metafinite.reliability import (
        estimate_metafinite_reliability,
        metafinite_reliability,
        metafinite_reliability_qf,
    )
    from repro.util.rng import make_rng
    from repro.workloads.scenarios import sensor_scenario

    qf_values = {}
    for sensors in params["qf_sensors"]:
        scenario = sensor_scenario(make_rng(sensors), sensors=sensors)
        with obs.span("bench.point", sensors=sensors, mode="qf"):
            value = metafinite_reliability_qf(
                scenario.db, scenario.queries["local"]
            )
        assert 0 < value <= 1
        qf_values[str(sensors)] = float(value)

    sensors = params["agg_sensors"]
    scenario = sensor_scenario(make_rng(sensors), sensors=sensors)
    with obs.span("bench.point", sensors=sensors, mode="aggregate"):
        exact = {
            name: float(
                metafinite_reliability(scenario.db, scenario.queries[name])
            )
            for name in ("total", "alarms", "hottest")
        }
    assert all(0 < value <= 1 for value in exact.values())
    # SUM reacts to every sensor's jitter: the most fragile aggregate.
    assert exact["total"] <= min(exact["alarms"], exact["hottest"])
    estimate = estimate_metafinite_reliability(
        scenario.db, scenario.queries["alarms"], make_rng(7),
        samples=params["samples"],
    )
    assert abs(estimate - exact["alarms"]) <= 0.05
    return {"qf": qf_values, "aggregate_exact": exact}


@register(
    "experiments.e9_rare_unions",
    group="experiments",
    params={"widths": [6, 10, 14], "budget": 3000, "clauses": 5},
    quick={"widths": [6, 10], "budget": 1000},
    tags=("paper", "ablation"),
)
def e9_rare_unions(params: Dict[str, Any]) -> Dict[str, Any]:
    """Karp–Luby vs naive Monte-Carlo on unions of rare events."""
    from repro.propositional.counting import probability_exact
    from repro.propositional.formula import DNF, Clause, Literal
    from repro.propositional.karp_luby import (
        karp_luby_samples,
        naive_probability_estimate,
    )
    from repro.util.rng import make_rng

    relative_errors = {}
    for width in params["widths"]:
        built = []
        for index in range(params["clauses"]):
            variables = [f"v{index}_{j}" for j in range(width)]
            built.append(Clause(Literal(v, True) for v in variables))
        dnf = DNF(built)
        probs = {v: Fraction(1, 4) for v in dnf.variables}
        exact = float(probability_exact(dnf, probs))
        assert exact > 0
        with obs.span("bench.point", width=width, estimator="karp_luby"):
            run = karp_luby_samples(
                dnf, probs, params["budget"], make_rng(width)
            )
        with obs.span("bench.point", width=width, estimator="naive"):
            naive = naive_probability_estimate(
                dnf, probs, params["budget"], make_rng(width)
            )
        # Karp-Luby stays relatively accurate; from width 10 on the
        # union is so rare that naive sampling sees no hit at all.
        assert abs(run.estimate - exact) / exact <= 0.2
        if width >= 10:
            assert naive == 0.0
        relative_errors[str(width)] = {
            "karp_luby": abs(run.estimate - exact) / exact,
            "naive_zero": naive == 0.0,
        }
    return {"relative_errors": relative_errors}


@register(
    "experiments.e10_exact_vs_sampling",
    group="experiments",
    params={
        "chain_lengths": [8, 32, 128],
        "dense_variables": 15,
        "epsilon": 0.05,
        "delta": 0.05,
    },
    quick={"chain_lengths": [8, 32], "epsilon": 0.1, "delta": 0.1},
    repeats=1,
    tags=("paper", "ablation"),
)
def e10_exact_vs_sampling(params: Dict[str, Any]) -> Dict[str, Any]:
    """Shannon expansion vs FPTRAS: chains and the dense-overlap regime."""
    from repro.propositional.bdd import probability_via_bdd
    from repro.propositional.counting import probability_exact
    from repro.propositional.formula import DNF, Clause, Literal
    from repro.propositional.karp_luby import karp_luby
    from repro.util.rng import make_rng
    from repro.workloads.random_dnf import random_kdnf, random_probabilities

    for length in params["chain_lengths"]:
        clauses = []
        for index in range(length):
            variables = [f"v{index * 3 + j}" for j in range(4)]
            clauses.append(Clause(Literal(v, True) for v in variables))
        dnf = DNF(clauses)
        probs = {v: Fraction(1, 3) for v in dnf.variables}
        with obs.span("bench.point", workload="chain", length=length):
            value = probability_exact(dnf, probs)
        assert 0 < value < 1

    variables = params["dense_variables"]
    rng = make_rng(variables)
    dnf = random_kdnf(
        rng, variables=variables, clauses=int(variables * 3.2), width=4
    )
    probs = random_probabilities(rng, dnf)
    with obs.span("bench.point", workload="dense", engine="exact"):
        exact_value = probability_exact(dnf, probs)
    with obs.span("bench.point", workload="dense", engine="bdd"):
        assert probability_via_bdd(dnf, probs) == exact_value
    with obs.span("bench.point", workload="dense", engine="karp_luby"):
        run = karp_luby(
            dnf, probs, params["epsilon"], params["delta"], make_rng(1)
        )
    exact = float(exact_value)
    agreement = abs(run.estimate - exact) / exact
    assert agreement <= 2 * params["epsilon"]
    return {"dense_exact": exact, "dense_relative_error": agreement}


@register(
    "experiments.e11_lifted",
    group="experiments",
    params={"sizes": [4, 8, 16, 24], "agree_sizes": [4, 8]},
    quick={"sizes": [4, 8], "agree_sizes": [4]},
    tags=("paper", "lifted"),
)
def e11_lifted(params: Dict[str, Any]) -> Dict[str, Any]:
    """Safe-plan lifted inference vs the grounded exact engine."""
    from repro.logic.conjunctive import ConjunctiveQuery
    from repro.reliability.exact import truth_probability
    from repro.reliability.lifted import UnsafeQueryError, lifted_probability
    from repro.util.rng import make_rng
    from repro.workloads.random_db import random_unreliable_database

    safe = ConjunctiveQuery.from_text("exists x y. R(x) & S(x, y) & T(x)")
    unsafe = ConjunctiveQuery.from_text("exists x y. R(x) & S(x, y) & T(y)")

    def database(size):
        return random_unreliable_database(
            make_rng(size),
            size=size,
            relations={"R": 1, "S": 2, "T": 1},
            density=0.3,
            error="1/6",
        )

    values = {}
    for size in params["sizes"]:
        db = database(size)
        with obs.span("bench.point", size=size, engine="lifted"):
            value = lifted_probability(db, safe)
        assert 0 <= value <= 1
        values[str(size)] = float(value)
    for size in params["agree_sizes"]:
        db = database(size)
        with obs.span("bench.point", size=size, engine="grounded"):
            grounded = truth_probability(db, safe.to_formula(), method="dnf")
        assert grounded == lifted_probability(db, safe)
        try:
            lifted_probability(db, unsafe)
        except UnsafeQueryError:
            pass
        else:
            raise AssertionError("lifted engine answered the unsafe CQ")
    return {"lifted_values": values}


@register(
    "experiments.e12_influence",
    group="experiments",
    params={"sizes": [3, 4, 5], "density": 0.4, "plan_budget": 3},
    quick={"sizes": [3, 4]},
    repeats=2,
    tags=("paper", "ablation"),
)
def e12_influence(params: Dict[str, Any]) -> Dict[str, Any]:
    """Birnbaum influence: conditioning engine vs compiled ROBDD.

    The greedy verification planner, whose exact lookahead is built on
    these computations, then runs on the smallest database.
    """
    from repro.reliability.influence import atom_influence
    from repro.reliability.repair import greedy_verification_plan
    from repro.util.rng import make_rng
    from repro.workloads.random_db import random_unreliable_database

    sentence = "exists x y. E(x, y) & S(x) & S(y)"
    databases = {
        size: random_unreliable_database(
            make_rng(size),
            size=size,
            relations={"E": 2, "S": 1},
            density=params["density"],
            error_choices=["1/6", "1/4"],
            uncertain_fraction=1.0,
        )
        for size in params["sizes"]
    }
    agreed = []
    for size, db in databases.items():
        with obs.span("bench.point", size=size, engine="conditioning"):
            conditioning = atom_influence(db, sentence, engine="conditioning")
        with obs.span("bench.point", size=size, engine="bdd"):
            bdd = atom_influence(db, sentence, engine="bdd")
        assert conditioning == bdd and conditioning
        agreed.append(size)

    size = min(params["sizes"])
    with obs.span("bench.point", size=size, engine="planner"):
        plan = greedy_verification_plan(
            databases[size], sentence, budget=params["plan_budget"]
        )
    # The lookahead schedules only verifications that gain reliability.
    assert plan and all(gain > 0 for _atom, gain in plan)
    return {
        "agreed_sizes": agreed,
        "plan_gains": [float(gain) for _atom, gain in plan],
    }


# --------------------------------------------------------------------- #
# kernels group — the bit-parallel sample loops
# --------------------------------------------------------------------- #


class _Opaque:
    """A query behind an object that does not compile, as Datalog and
    second-order queries are: the estimators run the per-world loop."""

    def __init__(self, query):
        self.query = query
        self.arity = query.arity

    def evaluate(self, structure, args=()):
        return self.query.evaluate(structure, args)


@register(
    "kernels.mc_truth",
    group="kernels",
    params={"size": 24, "samples": 30000},
    quick={"size": 12, "samples": 5000},
    repeats=2,
    tags=("kernels",),
)
def kernels_mc_truth(params: Dict[str, Any]) -> Dict[str, Any]:
    """Monte-Carlo truth probability: batched worlds vs the per-world
    loop that queries which do not compile run."""
    from repro.kernels import clear_caches
    from repro.logic.evaluator import FOQuery
    from repro.reliability.montecarlo import estimate_truth_probability
    from repro.util.rng import make_rng
    from repro.workloads.random_db import random_unreliable_database

    clear_caches()
    query = FOQuery("E(x, y) & ~S(x) | S(y)", ("x", "y"))
    size = params["size"]
    db = random_unreliable_database(
        make_rng(size), size, {"E": 2, "S": 1}, density=0.3, error="1/16"
    )
    args = (min(3, size - 1), min(17, size - 1))
    result = {}
    seconds = {}
    for loop, spelled in (("scalar", _Opaque(query)), ("batched", query)):
        with obs.span("bench.point", kernel=loop):
            start = time.perf_counter()
            result[f"{loop}_estimate"] = estimate_truth_probability(
                db, spelled, make_rng(7), samples=params["samples"], args=args
            )
            seconds[loop] = time.perf_counter() - start
        result[f"{loop}_s"] = round(seconds[loop], 6)
    result["speedup_batched"] = round(seconds["scalar"] / seconds["batched"], 2)
    return result


@register(
    "kernels.karp_luby",
    group="kernels",
    params={"width": 8, "clauses": 4, "samples": 20000},
    quick={"samples": 5000},
    repeats=2,
    tags=("kernels",),
)
def kernels_karp_luby(params: Dict[str, Any]) -> Dict[str, Any]:
    """Karp–Luby cover sampling on rare unions: the batched kernel."""
    from repro.kernels import clear_caches
    from repro.propositional.formula import DNF, Clause, Literal
    from repro.propositional.karp_luby import karp_luby_samples
    from repro.util.rng import make_rng

    clear_caches()
    built = []
    for index in range(params["clauses"]):
        variables = [f"v{index}_{j}" for j in range(params["width"])]
        built.append(Clause(Literal(v, True) for v in variables))
    dnf = DNF(built)
    probs = {v: Fraction(1, 4) for v in dnf.variables}
    with obs.span("bench.point", kernel="batched"):
        start = time.perf_counter()
        estimate = karp_luby_samples(
            dnf, probs, params["samples"], make_rng(11)
        ).estimate
        seconds = time.perf_counter() - start
    return {"batched_estimate": estimate, "batched_s": round(seconds, 6)}


@register(
    "kernels.gray_enumeration",
    group="kernels",
    params={"atoms": 16},
    quick={"atoms": 10},
    repeats=2,
    tags=("kernels", "exact"),
)
def kernels_gray(params: Dict[str, Any]) -> Dict[str, Any]:
    """Gray-code exact enumeration vs the itertools.product sweep."""
    from repro.kernels.gray import (
        gray_enumeration_probability,
        product_enumeration_probability,
    )
    from repro.util.rng import make_rng
    from repro.workloads.random_db import random_unreliable_database

    atom_count = params["atoms"]
    db = random_unreliable_database(
        make_rng(atom_count), atom_count, {"S": 1}, density=0.5, error="1/8"
    )
    atoms = sorted(db.uncertain_atoms(), key=repr)[:atom_count]
    target = atoms[0]
    predicate = lambda world: world.holds(target)

    with obs.span("bench.point", sweep="product"):
        start = time.perf_counter()
        product_value = product_enumeration_probability(db, atoms, predicate)
        product_s = time.perf_counter() - start
    with obs.span("bench.point", sweep="gray"):
        start = time.perf_counter()
        gray_value = gray_enumeration_probability(db, atoms, predicate)
        gray_s = time.perf_counter() - start
    assert gray_value == product_value  # exact rationals, bit-identical
    return {
        "product_s": round(product_s, 6),
        "gray_s": round(gray_s, 6),
        "speedup_gray": round(product_s / gray_s, 2),
        "bit_identical": True,
    }


# --------------------------------------------------------------------- #
# obs group — instrumentation overhead
# --------------------------------------------------------------------- #


@register(
    "obs.overhead",
    group="obs",
    params={"size": 24, "repeats": 3},
    quick={"size": 12, "repeats": 2},
    repeats=1,
    tags=("obs",),
)
def obs_overhead(params: Dict[str, Any]) -> Dict[str, Any]:
    """Recorder overhead on E1 qf reliability: null vs stats vs traced."""
    from repro.logic.evaluator import FOQuery
    from repro.reliability.exact import reliability
    from repro.util.rng import make_rng
    from repro.workloads.random_db import random_unreliable_database

    query = FOQuery("E(x, y) & ~S(x) | S(y)", ("x", "y"))
    size = params["size"]
    db = random_unreliable_database(
        make_rng(size), size, {"E": 2, "S": 1}, density=0.3, error="1/16"
    )
    run = lambda: reliability(db, query, method="qf")

    devnull = open(os.devnull, "w")
    try:
        recorders = {
            "null": obs.NullRecorder(),
            "stats": obs.StatsRecorder(),
            "traced": obs.StatsRecorder(sink=obs.JsonlSink(devnull)),
        }
        times = {name: [] for name in recorders}
        for recorder in recorders.values():  # warm-up
            with obs.use(recorder):
                run()
        for _ in range(params["repeats"]):
            for name, recorder in recorders.items():
                with obs.use(recorder):
                    start = time.perf_counter()
                    run()
                    times[name].append(time.perf_counter() - start)
    finally:
        devnull.close()

    null_s = min(times["null"])
    stats_s = min(times["stats"])
    traced_s = min(times["traced"])
    pct = lambda measured: round(100.0 * (measured - null_s) / null_s, 3)
    return {
        "null_recorder_s": round(null_s, 6),
        "stats_recorder_s": round(stats_s, 6),
        "traced_recorder_s": round(traced_s, 6),
        "overhead_pct": {
            "stats_vs_null": pct(stats_s),
            "traced_vs_null": pct(traced_s),
        },
    }


# --------------------------------------------------------------------- #
# runtime group — cost model and racing
# --------------------------------------------------------------------- #


@register(
    "runtime.costmodel",
    group="runtime",
    params={"cases": 4, "epsilon": 0.2, "delta": 0.2, "fit_repeats": 1},
    quick={"cases": 2},
    repeats=1,
    tags=("runtime",),
)
def runtime_costmodel(params: Dict[str, Any]) -> Dict[str, Any]:
    """Cost-model calibration: fit, then analyze/run agreement."""
    from repro.kernels import clear_caches
    from repro.logic.evaluator import FOQuery
    from repro.runtime.budget import Budget
    from repro.runtime.costmodel import calibrate, plan_chain
    from repro.runtime.executor import run_with_fallback
    from repro.util.errors import FallbackExhausted
    from repro.util.rng import make_rng
    from repro.workloads.random_db import random_unreliable_database

    clear_caches()
    with obs.span("bench.point", phase="calibrate"):
        model = calibrate(seed=0, repeats=params["fit_repeats"])
    assert model.engines

    queries = [
        ("exists x. S(x) | (exists y. E(x, y) & S(y))", []),
        ("exists x. exists y. E(x, y) & S(y) | exists x. S(x)", []),
    ]
    budget_atoms = 16
    agreed = 0
    for index in range(params["cases"]):
        db = random_unreliable_database(
            make_rng(500 + index), size=6, relations={"E": 2, "S": 1},
            density=0.6, uncertain_fraction=1.0,
        )
        assert len(db.uncertain_atoms()) > budget_atoms  # exact refuses
        text, free = queries[index % len(queries)]
        query = FOQuery(text, free)
        kwargs = dict(
            budget=Budget(max_atoms=budget_atoms),
            epsilon=params["epsilon"],
            delta=params["delta"],
            cost_model=model,
        )
        with obs.span("bench.point", phase="evaluate", case=index):
            plan = plan_chain(db, query, **kwargs)
            try:
                result = run_with_fallback(db, query, rng=index, **kwargs)
                selected = result.engine
            except FallbackExhausted:
                selected = None
        agreed += plan.selected == selected
    agreement = agreed / params["cases"]
    assert agreement == 1.0
    return {
        "calibrated_engines": sorted(model.engines),
        "analyze_run_agreement": agreement,
    }


@register(
    "runtime.racing",
    group="runtime",
    params={"stall": 0.4, "overlap": 0.1, "size": 4},
    quick={"stall": 0.3},
    repeats=1,
    warmup=0,
    tags=("runtime", "threads"),
)
def runtime_racing(params: Dict[str, Any]) -> Dict[str, Any]:
    """Speculative racing vs the sequential walk on a stalled engine."""
    from repro.kernels import clear_caches
    from repro.logic.evaluator import FOQuery
    from repro.runtime import faults
    from repro.runtime.executor import run_with_fallback
    from repro.util.rng import make_rng
    from repro.workloads.random_db import random_unreliable_database

    query = FOQuery("exists x. exists y. E(x, y) & S(y)")
    db = random_unreliable_database(
        make_rng(900), size=params["size"], relations={"E": 2, "S": 1},
        density=0.4,
    )

    def arm(race):
        clear_caches()
        start = time.perf_counter()
        # Stall the engine that answers a safe CQ first; racing lets the
        # exact engine, of the same guarantee tier, answer meanwhile.
        with faults.inject(
            {"safe_lifted": faults.SlowdownFault(seconds=params["stall"])}
        ):
            result = run_with_fallback(db, query, rng=0, race=race)
        return time.perf_counter() - start, result

    with obs.span("bench.point", arm="sequential"):
        sequential_s, sequential = arm(False)
    with obs.span("bench.point", arm="racing"):
        racing_s, racing = arm(params["overlap"])
    assert sequential.guarantee == racing.guarantee
    assert sequential.value == racing.value
    assert racing_s < sequential_s
    return {
        "sequential_s": round(sequential_s, 6),
        "racing_s": round(racing_s, 6),
        "speedup": round(sequential_s / racing_s, 2),
        "answers_agree": True,
    }


@register(
    "runtime.serve",
    group="runtime",
    params={"requests": 24, "pool": 3, "queue": 6, "size": 4},
    quick={"requests": 12},
    repeats=1,
    warmup=0,
    tags=("runtime", "serve", "threads"),
)
def runtime_serve(params: Dict[str, Any]) -> Dict[str, Any]:
    """Serving throughput of the multi-query scheduler on real threads.

    A mixed multi-tenant batch (staggered arrivals, tight and loose
    deadlines, one hopeless cost cap) drained through one
    :class:`repro.serve.Server` over the thread-pool scheduler.  The
    case asserts the accounting invariant before reporting wall-clock
    throughput, so a scheduling bug can never be mistaken for a
    performance regression.
    """
    from repro.kernels import clear_caches
    from repro.serve import ServeRequest, Server
    from repro.util.rng import make_rng
    from repro.workloads.random_db import random_unreliable_database

    clear_caches()
    db = random_unreliable_database(
        make_rng(910), size=params["size"], relations={"E": 2, "S": 1},
        density=0.4,
    )
    query = "exists x. exists y. E(x, y) & S(y)"
    requests = []
    for index in range(params["requests"]):
        kwargs = dict(
            id=f"q{index:02d}",
            query=query if index % 3 else "exists x. S(x)",
            tenant=("alpha", "beta", "gamma")[index % 3],
            seed=index,
            arrival=0.001 * index,
            epsilon=0.3,
            delta=0.3,
            deadline=30.0,
        )
        if index % 8 == 5:
            kwargs.update(chain=("exact",), max_cost=2, deadline=None)
        requests.append(ServeRequest(**kwargs))

    server = Server(
        db, pool_size=params["pool"], queue_capacity=params["queue"]
    )
    start = time.perf_counter()
    with obs.span("bench.point", arm="serve"):
        responses = server.run(requests)
    elapsed = time.perf_counter() - start

    counters = obs.summary(prefix="serve.")["counters"] if obs.enabled() else {}
    ok = sum(1 for response in responses if response.ok)
    refused = sum(1 for response in responses if not response.ok)
    assert len(responses) == params["requests"]
    assert ok + refused == params["requests"]
    if counters:
        assert counters["serve.submitted"] == (
            counters.get("serve.admitted", 0)
            + counters.get("serve.rejected", 0)
            + counters.get("serve.shed", 0)
        )
    return {
        "serve_s": round(elapsed, 6),
        "requests_per_s": round(params["requests"] / elapsed, 2),
        "ok": ok,
        "not_ok": refused,
    }


@register(
    "runtime.delta",
    group="runtime",
    params={"pairs": 9, "spectators": 22, "updates": 40, "min_speedup": 50.0},
    quick={"pairs": 5, "spectators": 6, "updates": 10, "min_speedup": 2.0},
    repeats=1,
    tags=("runtime", "delta", "exact"),
)
def runtime_delta(params: Dict[str, Any]) -> Dict[str, Any]:
    """Delta update stream vs m cold recomputes, bit-identical answers.

    A self-join query over ``pairs`` uncertain 2-cycles (k = 2*pairs
    uncertain atoms, forcing the DNF/grounding path) takes a stream of
    single-atom ``set_mu`` updates.  The delta arm propagates each
    change through only the affected diagram nodes; the cold arm
    regrounds all ``n^2`` clause instantiations and recompiles from
    scratch at every step — ``spectators`` pads the universe with
    untouched elements exactly the way a real database surrounds the
    updated tuples, which the cold arm must reground and the delta arm
    never looks at.  Every pair of answers is compared with ``==`` on
    exact Fractions before any timing is reported — the speedup of a
    wrong answer is meaningless.
    """
    from repro.delta import DeltaSession
    from repro.kernels import clear_caches
    from repro.relational.atoms import Atom
    from repro.relational.builder import StructureBuilder
    from repro.reliability.exact import truth_probability
    from repro.reliability.unreliable import UnreliableDatabase

    clear_caches()
    pairs = params["pairs"]
    builder = StructureBuilder(range(2 * pairs + params["spectators"]))
    builder.relation("E", 2)
    atoms = []
    mu = {}
    for index in range(pairs):
        a, b = 2 * index, 2 * index + 1
        for pair in ((a, b), (b, a)):
            builder.add("E", pair)
            atom = Atom("E", pair)
            atoms.append(atom)
            mu[atom] = Fraction(1 + index % 5, 8)
    db = UnreliableDatabase(builder.build(), mu)
    query = "exists x y. E(x, y) & E(y, x)"

    updates = [
        (atoms[i % len(atoms)], Fraction(1 + (i * 3) % 6, 8))
        for i in range(params["updates"])
    ]

    with obs.span("bench.point", arm="delta", k=len(atoms)):
        session = DeltaSession(db, query)
        start = time.perf_counter()
        delta_answers = []
        for atom, probability in updates:
            session.set_mu(atom, probability)
            delta_answers.append(session.probability())
        delta_s = time.perf_counter() - start

    with obs.span("bench.point", arm="cold", k=len(atoms)):
        current = db
        start = time.perf_counter()
        cold_answers = []
        for atom, probability in updates:
            current = current.with_errors({atom: probability})
            cold_answers.append(
                truth_probability(current, query, method="dnf")
            )
        cold_s = time.perf_counter() - start

    assert delta_answers == cold_answers  # bit-identical Fractions
    speedup = cold_s / delta_s if delta_s > 0 else float("inf")
    assert speedup >= params["min_speedup"]
    return {
        "uncertain_atoms": len(atoms),
        "updates": len(updates),
        "delta_s": round(delta_s, 6),
        "cold_s": round(cold_s, 6),
        "speedup_delta": round(speedup, 2),
        "bit_identical": True,
    }


@register(
    "kernels.cache_persist",
    group="kernels",
    params={"size": 10, "repeats": 3},
    quick={"size": 6, "repeats": 2},
    repeats=1,
    tags=("kernels", "cache"),
)
def kernels_cache_persist(params: Dict[str, Any]) -> Dict[str, Any]:
    """Warm start from the disk tier: second process recompiles nothing.

    One compilation-heavy query runs twice against a shared cache
    directory, with the in-memory tier wiped between passes (a stand-in
    for a fresh interpreter).  The warm pass must report persist hits
    and **zero** compile misses — the invariant the CI warm-start lane
    asserts across real subprocesses — and both passes must agree bit
    for bit.
    """
    import shutil
    import tempfile

    from repro.kernels import cache_persist, clear_caches
    from repro.relational.atoms import Atom
    from repro.relational.builder import StructureBuilder
    from repro.reliability.exact import truth_probability
    from repro.reliability.unreliable import UnreliableDatabase

    size = params["size"]
    builder = StructureBuilder(range(size))
    builder.relation("E", 2)
    mu = {}
    for index in range(size):
        for pair in ((index, (index + 1) % size), ((index + 1) % size, index)):
            builder.add("E", pair)
            mu[Atom("E", pair)] = Fraction(1 + index % 3, 8)
    db = UnreliableDatabase(builder.build(), mu)
    query = "exists x y. E(x, y) & E(y, x)"

    directory = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        cache_persist.configure(directory)

        def one_pass(arm):
            clear_caches()  # a "new process": empty memory, same disk
            recorder = obs.StatsRecorder()
            with obs.use(recorder):
                with obs.span("bench.point", arm=arm):
                    start = time.perf_counter()
                    for _ in range(params["repeats"]):
                        value = truth_probability(db, query, method="dnf")
                    elapsed = time.perf_counter() - start
            return value, elapsed, recorder.summary()["counters"]

        cold_value, cold_s, cold_counters = one_pass("cold")
        warm_value, warm_s, warm_counters = one_pass("warm")
    finally:
        cache_persist.deactivate()
        clear_caches()
        shutil.rmtree(directory, ignore_errors=True)

    assert cold_value == warm_value  # bit-identical through the pickle
    assert cold_counters.get("kernels.cache.persist.stores", 0) > 0
    assert warm_counters.get("kernels.cache.persist.hits", 0) > 0
    assert warm_counters.get("kernels.cache.misses", 0) == 0  # no recompiles
    return {
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "warm_persist_hits": warm_counters["kernels.cache.persist.hits"],
        "warm_compile_misses": 0,
        "bit_identical": True,
    }


@register(
    "runtime.safe_router",
    group="runtime",
    params={"sizes": [3, 4, 6, 9, 12], "brute_sizes": [3], "error": "1/6"},
    quick={"sizes": [3, 4, 6], "brute_sizes": [3]},
    repeats=1,
    warmup=0,
    tags=("runtime", "dichotomy", "polynomial"),
)
def runtime_safe_router(params: Dict[str, Any]) -> Dict[str, Any]:
    """Dichotomy routing: the safe family sweep, polynomial vs brute force.

    A hierarchical CQ runs through the default chain over growing
    databases: the static router answers every size in the polynomial
    ``safe_lifted`` tier (the sweep reaches sizes whose uncertain-atom
    count makes ``2^m`` world enumeration unthinkable).  On the small
    sizes the same reliabilities are recomputed by brute-force world
    enumeration — the exponential baseline the routing avoids — and the
    two must agree to the exact ``Fraction``.
    """
    from repro.logic.evaluator import FOQuery
    from repro.reliability.exact import truth_probability
    from repro.runtime.executor import run_with_fallback
    from repro.util.rng import make_rng
    from repro.workloads.random_db import random_unreliable_database

    query = FOQuery("exists x. exists y. E(x, y) & S(y)")
    routed_s: Dict[int, float] = {}
    routed_values: Dict[int, Fraction] = {}
    atoms: Dict[int, int] = {}
    databases = {
        size: random_unreliable_database(
            make_rng(920 + size),
            size=size,
            relations={"E": 2, "S": 1},
            density=0.5,
            error=params["error"],
        )
        for size in params["sizes"]
    }
    for size, db in databases.items():
        atoms[size] = len(db.uncertain_atoms())
        with obs.span("bench.point", arm="routed", size=size):
            start = time.perf_counter()
            result = run_with_fallback(db, query, quantity="reliability")
            routed_s[size] = time.perf_counter() - start
        assert result.engine == "safe_lifted"
        assert result.fraction is not None  # exact, not an estimate
        routed_values[size] = result.fraction

    brute_s: Dict[int, float] = {}
    for size in params["brute_sizes"]:
        db = databases[size]
        with obs.span("bench.point", arm="brute", size=size):
            start = time.perf_counter()
            holds_probability = truth_probability(
                db, "exists x. exists y. E(x, y) & S(y)", method="worlds"
            )
            brute_s[size] = time.perf_counter() - start
        # reliability = Pr[world agrees with the observed answer]
        holds = query.evaluate(db.structure, ())
        expected = holds_probability if holds else 1 - holds_probability
        assert routed_values[size] == expected, size
    largest = max(params["sizes"])
    smallest = min(params["sizes"])
    shared = max(params["brute_sizes"])
    return {
        "max_uncertain_atoms": atoms[largest],
        "routed_small_s": round(routed_s[smallest], 6),
        "routed_large_s": round(routed_s[largest], 6),
        "routed_growth": round(
            routed_s[largest] / max(routed_s[smallest], 1e-9), 2
        ),
        "brute_shared_s": round(brute_s[shared], 6),
        "routed_vs_brute": round(
            brute_s[shared] / max(routed_s[shared], 1e-9), 2
        ),
        "bit_identical": True,
    }

@register(
    "runtime.adaptive",
    group="runtime",
    params={
        "mc_size": 16,
        "mc_epsilon": 0.02,
        "kl_epsilon": 0.1,
        "delta": 0.05,
        "variables": 12,
        "clauses": 8,
        "width": 3,
        "repeats": 2,
    },
    quick={"mc_size": 12, "repeats": 1},
    repeats=1,
    tags=("runtime", "adaptive", "fptras"),
)
def runtime_adaptive(params: Dict[str, Any]) -> Dict[str, Any]:
    """Adaptive EB stopping vs fixed budgets on the E1 and E4 workloads.

    Two arms per workload, interleaved like ``obs.overhead`` (warm-up
    pass, then min-of-repeats): the fixed worst-case budget and the
    sequential empirical-Bernstein stopper at the *same* (epsilon,
    delta) guarantee.  The case asserts the headline claim — at least
    half the worst-case sample budget comes back unspent on both the
    additive (Hamming Monte Carlo) and relative (Karp–Luby) paths —
    and that both arms' answers stay within guarantee of the exact
    value, so a stopping-rule bug can never read as a speedup.
    """
    from repro.kernels import clear_caches
    from repro.logic.evaluator import FOQuery
    from repro.propositional.counting import probability_exact
    from repro.propositional.karp_luby import karp_luby, sample_count
    from repro.reliability.exact import reliability
    from repro.reliability.montecarlo import estimate_reliability_hamming
    from repro.runtime.adaptive import CostSurrogate, use_surrogate
    from repro.util.rng import make_rng
    from repro.workloads.random_db import random_unreliable_database
    from repro.workloads.random_dnf import random_kdnf, random_probabilities

    clear_caches()
    delta = params["delta"]

    # E1 workload: k-ary reliability by Hamming sampling (additive).
    size = params["mc_size"]
    mc_epsilon = params["mc_epsilon"]
    query = FOQuery("E(x, y) & ~S(x) | S(y)", ("x", "y"))
    db = random_unreliable_database(
        make_rng(size), size=size, relations={"E": 2, "S": 1},
        density=0.3, error="1/16",
    )
    mc_exact = float(reliability(db, query, method="qf"))

    def mc_arm(adaptive):
        with obs.recording() as rec:
            value = estimate_reliability_hamming(
                db, query, make_rng(7), mc_epsilon, delta,
                adaptive=adaptive,
            )
        counters = rec.summary()["counters"]
        return value, counters

    # E4 workload: DNF probability by Karp-Luby (relative).
    kl_epsilon = params["kl_epsilon"]
    rng = make_rng(1)
    dnf = random_kdnf(
        rng,
        variables=params["variables"],
        clauses=params["clauses"],
        width=params["width"],
    )
    probs = random_probabilities(rng, dnf)
    kl_exact = float(probability_exact(dnf, probs))
    kl_worst = sample_count(len(dnf.clauses), kl_epsilon, delta)

    def kl_arm(adaptive):
        run = karp_luby(
            dnf, probs, kl_epsilon, delta, make_rng(2),
            method="coverage", adaptive=adaptive,
        )
        return run

    arms = {
        "mc_fixed": lambda: mc_arm(False),
        "mc_adaptive": lambda: mc_arm(True),
        "kl_fixed": lambda: kl_arm(False),
        "kl_adaptive": lambda: kl_arm(True),
    }
    times = {name: [] for name in arms}
    results = {}
    with use_surrogate(CostSurrogate()):
        for name, arm in arms.items():  # warm-up
            arm()
        for _ in range(params["repeats"]):
            for name, arm in arms.items():
                with obs.span("bench.point", arm=name):
                    start = time.perf_counter()
                    results[name] = arm()
                    times[name].append(time.perf_counter() - start)

    mc_fixed_value, _ = results["mc_fixed"]
    mc_adaptive_value, mc_counters = results["mc_adaptive"]
    mc_drawn = mc_counters["adaptive.samples_drawn"]
    mc_saved = mc_counters["adaptive.samples_saved"]
    mc_worst = mc_drawn + mc_saved
    assert abs(mc_fixed_value - mc_exact) <= mc_epsilon
    assert abs(mc_adaptive_value - mc_exact) <= mc_epsilon
    assert mc_saved / mc_worst >= 0.5, (mc_drawn, mc_worst)

    kl_fixed = results["kl_fixed"]
    kl_adaptive = results["kl_adaptive"]
    assert kl_fixed.samples == kl_worst
    assert abs(kl_fixed.estimate - kl_exact) <= 2 * kl_epsilon * kl_exact
    assert abs(kl_adaptive.estimate - kl_exact) <= 2 * kl_epsilon * kl_exact
    kl_saved = kl_worst - kl_adaptive.samples
    assert kl_saved / kl_worst >= 0.5, (kl_adaptive.samples, kl_worst)

    fraction = lambda saved, worst: round(saved / worst, 4)
    return {
        "mc": {
            "worst_samples": mc_worst,
            "adaptive_samples": mc_drawn,
            "saved_fraction": fraction(mc_saved, mc_worst),
            "fixed_s": round(min(times["mc_fixed"]), 6),
            "adaptive_s": round(min(times["mc_adaptive"]), 6),
            "fixed_error": round(abs(mc_fixed_value - mc_exact), 6),
            "adaptive_error": round(abs(mc_adaptive_value - mc_exact), 6),
        },
        "kl": {
            "worst_samples": kl_worst,
            "adaptive_samples": kl_adaptive.samples,
            "saved_fraction": fraction(kl_saved, kl_worst),
            "fixed_s": round(min(times["kl_fixed"]), 6),
            "adaptive_s": round(min(times["kl_adaptive"]), 6),
            "fixed_rel_error": round(
                abs(kl_fixed.estimate - kl_exact) / kl_exact, 6
            ),
            "adaptive_rel_error": round(
                abs(kl_adaptive.estimate - kl_exact) / kl_exact, 6
            ),
        },
        "within_guarantee": True,
    }
