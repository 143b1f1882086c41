"""The built-in benchmark cases, registered declaratively.

Each case is one whole workload sweep; the trend store and the
regression gate reason about the case as a unit.  Correctness is
asserted inside the cases — a benchmark that silently computes the
wrong answer would poison the trajectory with meaningless timings.
What a case returns (reliabilities, counts, speedups, agreement flags)
is recorded as the record's ``extra`` payload; ``repro bench report
<id>`` prints it.

Every case is in the ``experiments`` group: E1–E12, the paper's
experiment series, one case per series.  The runtime's speed is
measured end to end by ``perfbench/run.py``, not here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict

from repro import obs
from repro.bench.registry import register

# --------------------------------------------------------------------- #
# experiments group — the paper's E1..E12 series
# --------------------------------------------------------------------- #


@register(
    "experiments.e1_qf_reliability",
    params={"sizes": [4, 8, 16, 32], "density": 0.3, "error": "1/16"},
    quick={"sizes": [4, 8]},
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
    params={"variables": [6, 9, 12, 15]},
    quick={"variables": [6, 9]},
    repeats=2,
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
    params={"uncertain": [4, 8, 12], "size": 4, "density": 0.4},
    quick={"uncertain": [4, 8]},
    repeats=2,
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
    params={
        "epsilons": [0.2, 0.1, 0.05],
        "delta": 0.05,
        "variables": 12,
        "clauses": 8,
        "width": 3,
    },
    quick={"epsilons": [0.2, 0.1]},
    repeats=2,
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
    params={"nodes": [5, 6, 7], "naive_runs": 20},
    quick={"nodes": [5]},
    repeats=2,
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
    params={
        "sizes": [5, 7, 9],
        "epsilon": 0.15,
        "delta": 0.2,
        # xi ablation on the smallest size: the paper's budget t ~ 1/xi.
        "xis": ["1/10", "1/4", "2/5"],
    },
    quick={"sizes": [5], "xis": ["2/5"]},
    repeats=1,
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
    params={
        "qf_sensors": [8, 16, 32],
        "agg_sensors": 6,
        "samples": 4000,
    },
    quick={"qf_sensors": [8, 16], "samples": 1000},
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
    params={"widths": [6, 10, 14], "budget": 3000, "clauses": 5},
    quick={"widths": [6, 10], "budget": 1000},
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
    params={
        "chain_lengths": [8, 32, 128],
        "dense_variables": 15,
        "epsilon": 0.05,
        "delta": 0.05,
    },
    quick={"chain_lengths": [8, 32], "epsilon": 0.1, "delta": 0.1},
    repeats=1,
)
def e10_exact_vs_sampling(params: Dict[str, Any]) -> Dict[str, Any]:
    """ROBDD vs FPTRAS: chains and the dense-overlap regime."""
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
    params={"sizes": [4, 8, 16, 24], "agree_sizes": [4, 8]},
    quick={"sizes": [4, 8], "agree_sizes": [4]},
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
    params={"sizes": [3, 4, 5], "density": 0.4, "plan_budget": 3},
    quick={"sizes": [3, 4]},
    repeats=2,
)
def e12_influence(params: Dict[str, Any]) -> Dict[str, Any]:
    """Birnbaum influence from one compiled ROBDD per database.

    The influences are checked against their definition, conditioning
    each atom by enumeration, on a size-2 database: enumeration costs
    ``2^atoms`` per atom, seconds already at size 3.  The greedy
    verification planner, whose exact lookahead is built on these
    computations, then runs on the smallest database.
    """
    from repro.logic.parser import parse
    from repro.propositional.counting import probability_enumerate
    from repro.reliability.grounding import (
        ground_existential_to_dnf,
        grounding_probabilities,
    )
    from repro.reliability.influence import atom_influence
    from repro.reliability.repair import greedy_verification_plan
    from repro.util.rng import make_rng
    from repro.workloads.random_db import random_unreliable_database

    sentence = "exists x y. E(x, y) & S(x) & S(y)"
    oracle_size = 2
    databases = {
        size: random_unreliable_database(
            make_rng(size),
            size=size,
            relations={"E": 2, "S": 1},
            density=params["density"],
            error_choices=["1/6", "1/4"],
            uncertain_fraction=1.0,
        )
        for size in [oracle_size, *params["sizes"]]
    }
    influences = {}
    for size, db in databases.items():
        with obs.span("bench.point", size=size, engine="bdd"):
            influences[size] = atom_influence(db, sentence)
        assert influences[size]

    dnf = ground_existential_to_dnf(databases[oracle_size], parse(sentence)).dnf
    probs = grounding_probabilities(databases[oracle_size], dnf)
    with obs.span("bench.point", size=oracle_size, engine="enumeration"):
        conditioning = {
            atom: probability_enumerate(dnf.restrict(atom, True), probs)
            - probability_enumerate(dnf.restrict(atom, False), probs)
            for atom in dnf.variables
        }
    assert influences[oracle_size] == conditioning
    size = min(params["sizes"])
    with obs.span("bench.point", size=size, engine="planner"):
        plan = greedy_verification_plan(
            databases[size], sentence, budget=params["plan_budget"]
        )
    # The lookahead schedules only verifications that gain reliability.
    assert plan and all(gain > 0 for _atom, gain in plan)
    return {
        "agreed_sizes": [oracle_size],
        "plan_gains": [float(gain) for _atom, gain in plan],
    }
