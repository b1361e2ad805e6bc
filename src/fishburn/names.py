"""The names the command line offers as argument choices.

Plain tuples and dicts that import nothing, so that building the CLI
parser loads no computing module.  `TERMINATING_EXPRS`,
`TERMINATING_FAMILIES`, `ROOT_EXPRS` and `ROOT_CHECK_FAMILIES` are owned
here and imported by `identities` and `roots`.  Every other tuple lists,
in the order the CLI shows them, the keys of a table that lives with its
code (`qseries` also reads `FAMILY_IDS` for its error message), and
`NUMERIC_REGISTRY_IDS` is the alias -> id view of the numeric table that
`identities` registers; `tests/test_cli.py` checks that each still equals
its table.
"""

# sorted keys of qseries._FAMILIES
FAMILY_IDS = ("F1", "F2", "F3", "F3-KR-first-form", "G1", "G2", "G3",
              "gamma1-lhs", "gamma1-rhs", "gamma2-lhs", "gamma2-rhs",
              "pentagonal-product", "pentagonal-sum", "pentagonal-theta",
              "prop12-lhs", "prop12-rhs")

# the terminating sums identities.evaluate_terminating evaluates
TERMINATING_EXPRS = ("comp1-left", "comp1-mid", "comp2-first", "comp2-mid",
                     "comp2-right")

# each compact identity whose terminating sums identities.verify_terminating
# compares, with its sums
TERMINATING_FAMILIES = {"comp1": ("comp1-left", "comp1-mid"),
                        "comp2": ("comp2-first", "comp2-mid", "comp2-right")}

# CLI alias -> registry id of each entry of hypergeom.NUMERIC_IDENTITIES, in
# its order; the registry lists the numeric identities from this table, so
# that building it does not import hypergeom
NUMERIC_REGISTRY_IDS = {"rf": "rogers-fine", "grf": "generalized-rf",
                        "watson-limit": "watson-limit",
                        "grf-degeneration": "grf-degeneration"}

# sorted keys of hypergeom.NUMERIC_IDENTITIES
NUMERIC_IDS = tuple(sorted(NUMERIC_REGISTRY_IDS))

# keys of asymptotics.MAIN_TERMS
TREND_SEQUENCES = ("fishburn", "rowFishburn")

# the sums roots.expand_at_root expands
ROOT_EXPRS = ("comp1-left", "comp1-right", "comp2-first", "comp2-mid",
              "comp2-right")

# each root-of-unity check roots.root_terminating_check runs, with the
# terminating family whose sums it compares
ROOT_CHECK_FAMILIES = {"comp1-left-vs-mid": "comp1", "comp2-three-way": "comp2"}

# sorted keys of oeis.SEQUENCES
OEIS_SEQUENCES = ("A022493", "A158691")
