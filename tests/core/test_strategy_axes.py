"""The five strategy axes: closed name -> factory dicts.

Each axis lives in the package that owns it (``repro.kernels``,
``repro.enumeration.kernels``, ``repro.enumeration``,
``repro.shedding``, ``repro.patterns``).  These tests pin the contract
of the dicts themselves: the names and their order, that each factory
builds the strategy its name promises with the knobs it is given, that
the ``make_*`` helpers reject unknown names with the axis' choices, and
that :func:`~repro.core.config.check_strategies` accepts exactly the
runnable combinations.
"""

from __future__ import annotations

import inspect
import itertools

import pytest

from repro.core.config import check_strategies
from repro.enumeration import (
    ENUMERATORS,
    AnchorEnumerator,
    BAEnumerator,
    FBAEnumerator,
    VBAEnumerator,
)
from repro.enumeration.kernels import (
    BITMAP_ENUMERATORS,
    ENUMERATION_KERNELS,
    NumpyEnumerationKernel,
    PythonEnumerationKernel,
    make_enumeration_kernel,
)
from repro.kernels import KERNELS, NumpyKernel, PythonKernel, make_kernel
from repro.model.constraints import PatternConstraints
from repro.patterns import (
    PATTERN_FAMILIES,
    EvolvingGroupTracker,
    PredictiveFamily,
    StrictFamily,
)
from repro.shedding import (
    SHED_POLICIES,
    NoShedPolicy,
    PatternAwareShedPolicy,
    RandomShedPolicy,
)
from repro.streaming.runtime import BACKENDS

CONSTRAINTS = PatternConstraints(m=2, k=3, l=2, g=2)

AXES = {
    "clustering_kernel": KERNELS,
    "enumeration_kernel": ENUMERATION_KERNELS,
    "enumerator": ENUMERATORS,
    "shed_policy": SHED_POLICIES,
    "pattern_family": PATTERN_FAMILIES,
}


class TestAxisNames:
    @pytest.mark.parametrize(
        "axis, names",
        [
            ("clustering_kernel", ("python", "numpy")),
            ("enumeration_kernel", ("python", "numpy")),
            ("enumerator", ("baseline", "fba", "vba")),
            ("shed_policy", ("none", "random", "pattern_aware")),
            ("pattern_family", ("strict", "evolving", "predictive")),
        ],
    )
    def test_names_in_order(self, axis, names):
        """The reference strategy comes first: sweeps and ``--help``
        list the names in dict order."""
        assert tuple(AXES[axis]) == names

    def test_five_axes_and_no_backend_axis(self):
        params = tuple(inspect.signature(check_strategies).parameters)
        assert params == tuple(AXES)
        assert "backend" not in params
        assert BACKENDS == ("serial", "process")

    def test_bitmap_enumerators_are_enumerators(self):
        assert BITMAP_ENUMERATORS == ("fba", "vba")
        assert set(BITMAP_ENUMERATORS) < set(ENUMERATORS)


class TestClusteringKernels:
    @pytest.mark.parametrize(
        "name, kind", [("python", PythonKernel), ("numpy", NumpyKernel)]
    )
    def test_factory_builds_a_working_kernel(self, name, kind):
        kernel = make_kernel(
            name, epsilon=2.0, min_pts=2, cell_width=6.0, metric_name="l1"
        )
        assert isinstance(kernel, kind)
        result = kernel.cluster([(1, 0.0, 0.0), (2, 0.5, 0.0), (3, 50.0, 0.0)])
        assert list(result.clusters.values()) == [(1, 2)]
        assert result.noise == {3}

    def test_unknown_name_lists_the_axis(self):
        with pytest.raises(ValueError) as excinfo:
            make_kernel("fortran", epsilon=2.0, min_pts=2, cell_width=6.0)
        assert str(excinfo.value) == (
            "unknown clustering kernel 'fortran'; choose from "
            "['python', 'numpy']"
        )


class TestEnumerationKernels:
    @pytest.mark.parametrize(
        "name, enumerator, kind",
        [
            ("python", "baseline", PythonEnumerationKernel),
            ("python", "fba", PythonEnumerationKernel),
            ("python", "vba", PythonEnumerationKernel),
            ("numpy", "fba", NumpyEnumerationKernel),
            ("numpy", "vba", NumpyEnumerationKernel),
        ],
    )
    def test_factory_builds_every_runnable_pair(self, name, enumerator, kind):
        kernel = make_enumeration_kernel(
            name, enumerator=enumerator, constraints=CONSTRAINTS
        )
        assert isinstance(kernel, kind)

    def test_unknown_name_lists_the_axis(self):
        with pytest.raises(ValueError) as excinfo:
            make_enumeration_kernel(
                "cuda", enumerator="fba", constraints=CONSTRAINTS
            )
        assert str(excinfo.value) == (
            "unknown enumeration kernel 'cuda'; choose from "
            "['python', 'numpy']"
        )

    def test_bitmap_pairing_enforced(self):
        with pytest.raises(ValueError, match="no bitmap form"):
            make_enumeration_kernel(
                "numpy", enumerator="baseline", constraints=CONSTRAINTS
            )


class TestEnumerators:
    @pytest.mark.parametrize(
        "name, kind",
        [
            ("baseline", BAEnumerator),
            ("fba", FBAEnumerator),
            ("vba", VBAEnumerator),
        ],
    )
    def test_factory_builds_the_anchor_machine(self, name, kind):
        machine = ENUMERATORS[name](
            7,
            CONSTRAINTS,
            ba_max_partition_size=20,
            vba_candidate_retention=None,
        )
        assert isinstance(machine, kind)
        assert machine.anchor == 7

    @pytest.mark.parametrize("name", ["baseline", "fba", "vba"])
    def test_forming_state_matches_bitmap_support(self, name):
        """The enumerators with a bitmap form are the ones that expose
        forming state (what the predictive family scores)."""
        machine = ENUMERATORS[name](3, CONSTRAINTS)
        exposes = (
            type(machine).forming_candidates
            is not AnchorEnumerator.forming_candidates
        )
        assert exposes == (name in BITMAP_ENUMERATORS)


class TestShedPolicies:
    @pytest.mark.parametrize(
        "name, kind",
        [
            ("none", NoShedPolicy),
            ("random", RandomShedPolicy),
            ("pattern_aware", PatternAwareShedPolicy),
        ],
    )
    def test_factory_builds_the_named_policy(self, name, kind):
        policy = SHED_POLICIES[name](0)
        assert isinstance(policy, kind)
        assert policy.name == name

    def test_none_drops_nothing(self):
        policy = SHED_POLICIES["none"](5)
        assert policy.select_drops(list(range(50)), 0.9, frozenset()) == []

    @pytest.mark.parametrize("name", ["random", "pattern_aware"])
    def test_seed_drives_the_drops(self, name):
        oids = list(range(200))
        first = SHED_POLICIES[name](11).select_drops(oids, 0.5, frozenset())
        again = SHED_POLICIES[name](11).select_drops(oids, 0.5, frozenset())
        other = SHED_POLICIES[name](12).select_drops(oids, 0.5, frozenset())
        assert first == again
        assert first and first != other


class TestPatternFamilies:
    def test_factories_construct_families_with_their_knob(self):
        families = {
            name: factory(CONSTRAINTS, theta=0.7, min_probability=0.4)
            for name, factory in PATTERN_FAMILIES.items()
        }
        assert isinstance(families["strict"], StrictFamily)
        assert isinstance(families["evolving"], EvolvingGroupTracker)
        assert families["evolving"].theta == 0.7
        assert isinstance(families["predictive"], PredictiveFamily)
        assert families["predictive"].min_probability == 0.4


def _invalid(selection: dict[str, str]) -> bool:
    enumerator = selection["enumerator"]
    return enumerator == "baseline" and (
        selection["enumeration_kernel"] == "numpy"
        or selection["pattern_family"] == "predictive"
    )


class TestCheckStrategies:
    def test_accepts_exactly_the_runnable_combinations(self):
        rejected = []
        for names in itertools.product(*AXES.values()):
            selection = dict(zip(AXES, names))
            try:
                check_strategies(**selection)
            except ValueError:
                rejected.append(selection)
            else:
                assert not _invalid(selection), selection
        assert rejected
        assert all(_invalid(selection) for selection in rejected)

    @pytest.mark.parametrize("enumerator", ["baseline", "fba", "vba"])
    def test_evolving_pairs_with_any_enumerator(self, enumerator):
        check_strategies(
            clustering_kernel="python",
            enumeration_kernel="python",
            enumerator=enumerator,
            shed_policy="none",
            pattern_family="evolving",
        )

    @pytest.mark.parametrize("axis", list(AXES))
    def test_unknown_name_rejected_on_every_axis(self, axis):
        selection = {name: next(iter(names)) for name, names in AXES.items()}
        selection[axis] = "nope"
        with pytest.raises(ValueError, match="'nope'; choose from"):
            check_strategies(**selection)


class TestCliChoices:
    @pytest.mark.parametrize(
        "flag, dest, axis",
        [
            ("--kernel", "kernel", "clustering_kernel"),
            ("--enum-kernel", "enum_kernel", "enumeration_kernel"),
            ("--enumerator", "enumerator", "enumerator"),
            ("--shed-policy", "shed_policy", "shed_policy"),
            ("--pattern-family", "pattern_family", "pattern_family"),
        ],
    )
    def test_every_name_parses(self, flag, dest, axis):
        from repro.cli import build_parser

        parser = build_parser()
        for name in AXES[axis]:
            args = parser.parse_args(
                ["detect", "--input", "x.csv", flag, name]
            )
            assert getattr(args, dest) == name
