"""Mutants as data: one deliberate bug per fast path or single-step rule,
and the tests that must catch it.

Each entry is ``(name, file, old, new, test ids)``: ``file`` is relative
to the repository root, ``old`` occurs in it exactly once, and replacing
it with ``new`` must make at least one of the tests fail.  A test id is a
pytest node id without parameters, so it runs every case of its test.
``test_mutants.py`` checks the registry against the source in tier-1;
``run_mutants.py`` applies each mutant to a temporary copy of the
repository and runs its tests.
"""

MUTANTS = [
    (
        "power ladder tests the wrong bit",
        "src/deltatower/polyring.py",
        "        if n & 1:\n            result = result * base",
        "        if n & 2:\n            result = result * base",
        ("tests/test_polyring.py::test_power_is_repeated_multiplication",),
    ),
    (
        "exact division ignores the divisor's leading coefficient",
        "src/deltatower/polyring.py",
        "c = _normal(rc if qc == 1 else Fraction(rc, qc))",
        "c = _normal(rc)",
        ("tests/test_polyring.py::test_exact_div_by_a_constant_scales_by_its_inverse",),
    ),
    (
        "d_twist drops the twist",
        "src/deltatower/tower.py",
        "    return derive(x, spec) * twist",
        "    return derive(x, spec)",
        ("tests/test_tower.py::TestDTwist::test_generators_are_eigenvectors",),
    ),
    (
        "tower build drops the genericity check",
        "src/deltatower/cli.py",
        '        "genericity_e{i}": check_generic,\n',
        "",
        ("tests/test_cli.py::TestTowerBuild::test_check_lines_stream",),
    ),
    (
        "a grid batch counts as one instance",
        "src/deltatower/gridcheck.py",
        "        count += outcome",
        "        count += 1",
        ("tests/test_gridcheck.py::test_instance_counts_match_closed_forms",),
    ),
    (
        "an orbit's weight ignores repeated columns",
        "src/deltatower/gridcheck.py",
        "run = run + 1 if state == before else 1",
        "run = 1",
        ("tests/test_gridcheck.py::test_orbits_partition_the_column_assignments",),
    ),
    (
        "eigenvalues cached without their variables",
        "src/deltatower/relations.py",
        'key = ("eigenvalues", self.level, self.variables)',
        'key = ("eigenvalues", self.level)',
        ("tests/test_relations.py::test_eigenvalues_are_cached_per_spec_and_equal_a_fresh_logd",),
    ),
    (
        "weights cached without their variables",
        "src/deltatower/relations.py",
        'key = ("weights", self.level, self.variables)',
        'key = ("weights", self.level)',
        ("tests/test_relations.py::test_warm_spec_runs_equal_fresh_spec_runs",),
    ),
    (
        "qlinear_dot drops the coefficient over denominator 1",
        "src/deltatower/relations.py",
        "acc[m] = acc.get(m, 0) + coeff * c",
        "acc[m] = acc.get(m, 0) + c",
        ("tests/test_kernel_references.py::test_qlinear_dot_matches_the_element_sums",),
    ),
    (
        "a replay over the constants skips the functionals",
        "src/deltatower/relations.py",
        "if step.functionals != expected or step.pivot not in expected:",
        "if step.pivot not in expected:",
        (
            "tests/test_replay.py::test_a_tampered_constant_trace_fails",
            "tests/test_replay.py::test_a_functional_of_a_dropped_vector_fails",
        ),
    ),
    (
        "a difference over denominator 1 adds",
        "src/deltatower/elements.py",
        "return Element._parts(self.num - o.num if negate else self.num + o.num)",
        "return Element._parts(self.num + o.num)",
        ("tests/test_elements.py::test_a_number_minus_an_element_is_the_negated_difference",),
    ),
    (
        "the printer puts the constants in variable order",
        "src/deltatower/polyring.py",
        "ranks = _PRINT_RANKS if constants_first else _SHIFTS",
        "ranks = _SHIFTS",
        ("tests/test_printing.py::test_printed_elements_unchanged",),
    ),
]
