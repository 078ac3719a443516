"""Plugin-registry tests: registration, capabilities, discovery, e2e.

Covers the registry contract itself (typed specs, duplicate handling,
unknown-name errors), the declarative capability checks that replaced
``ICPEConfig``'s literal-set if-chains, entry-point discovery, and the
acceptance path: a third-party plugin registered in-test via a synthetic
``repro.plugins`` entry point is selectable end-to-end through
``ICPEConfig`` -> ``Session`` and produces the reference pattern set.
"""

from __future__ import annotations

import warnings

import pytest

from repro.registry import (
    BUILTIN_SPECS,
    PLUGIN_KINDS,
    DuplicatePluginError,
    PluginCapabilities,
    PluginCompatibilityError,
    PluginRegistry,
    PluginSpec,
    UnknownPluginError,
    check_selection,
    default_registry,
    load_entry_point_plugins,
    register_builtin_plugins,
    reset_default_registry,
)
from repro.shedding import NoShedPolicy


def make_spec(kind="shed_policy", name="x", **caps) -> PluginSpec:
    return PluginSpec(
        kind=kind,
        name=name,
        factory=lambda **kwargs: ("built", kind, name),
        capabilities=PluginCapabilities(**caps),
        summary="test spec",
    )


class TestRegistryBasics:
    def test_register_and_get(self):
        registry = PluginRegistry()
        spec = registry.register(make_spec())
        assert registry.get("shed_policy", "x") is spec
        assert registry.has("shed_policy", "x")
        assert not registry.has("shed_policy", "y")

    def test_names_in_registration_order(self):
        registry = PluginRegistry()
        registry.register(make_spec(name="b"))
        registry.register(make_spec(name="a"))
        assert registry.names("shed_policy") == ("b", "a")

    def test_unknown_name_lists_registered(self):
        registry = PluginRegistry()
        registry.register(make_spec(kind="clustering_kernel", name="python"))
        with pytest.raises(UnknownPluginError, match="unknown clustering kernel"):
            registry.get("clustering_kernel", "fortran")
        with pytest.raises(ValueError, match="'python'"):
            registry.get("clustering_kernel", "fortran")

    def test_duplicate_rejected_unless_replace(self):
        registry = PluginRegistry()
        registry.register(make_spec())
        with pytest.raises(DuplicatePluginError):
            registry.register(make_spec())
        replacement = make_spec()
        assert registry.register(replacement, replace=True) is replacement

    def test_specs_and_kinds(self):
        registry = PluginRegistry()
        registry.register(make_spec(kind="shed_policy", name="a"))
        registry.register(make_spec(kind="enumerator", name="b"))
        assert registry.kinds() == ("shed_policy", "enumerator")
        assert len(registry.specs()) == 2
        assert len(registry.specs("shed_policy")) == 1

    def test_create_delegates_to_factory(self):
        registry = PluginRegistry()
        registry.register(make_spec(kind="enumerator", name="z"))
        assert registry.create("enumerator", "z") == ("built", "enumerator", "z")

    def test_empty_kind_or_name_rejected(self):
        with pytest.raises(Exception, match="non-empty"):
            PluginSpec(kind="", name="x", factory=lambda: None)


class TestCapabilities:
    def test_flags_roundtrip(self):
        caps = PluginCapabilities(requires_bitmap_enumeration=True)
        assert caps.flags()["requires_bitmap_enumeration"] is True
        assert caps.flags()["supports_ablation"] is True

    def test_summary_markers(self):
        assert PluginCapabilities().summary_markers() == "-"
        markers = PluginCapabilities(
            supports_ablation=False, requires_bitmap_enumeration=True
        ).summary_markers()
        assert "no-ablation" in markers and "needs-bitmap" in markers

    def test_bitmap_pairing_enforced(self):
        kernel = make_spec(
            kind="enumeration_kernel", name="bm",
            requires_bitmap_enumeration=True,
        )
        plain = make_spec(kind="enumerator", name="plain")
        bitmap = make_spec(
            kind="enumerator", name="bits", provides_bitmap_enumeration=True
        )
        with pytest.raises(PluginCompatibilityError, match="no bitmap form"):
            check_selection(
                {"enumeration_kernel": kernel, "enumerator": plain}
            )
        check_selection({"enumeration_kernel": kernel, "enumerator": bitmap})

    def test_partial_selection_is_fine(self):
        check_selection({})
        check_selection({"enumerator": make_spec(kind="enumerator")})


class TestBuiltins:
    def test_every_axis_registered(self):
        registry = default_registry()
        for kind in PLUGIN_KINDS:
            assert registry.names(kind), kind

    def test_five_axes_and_no_backend_axis(self):
        assert default_registry().kinds() == PLUGIN_KINDS
        assert len(PLUGIN_KINDS) == 5
        assert "backend" not in PLUGIN_KINDS

    def test_legacy_names_resolve(self):
        registry = default_registry()
        assert registry.names("clustering_kernel") == ("python", "numpy")
        assert registry.names("enumeration_kernel") == ("python", "numpy")
        assert registry.names("enumerator") == ("baseline", "fba", "vba")

    def test_builtin_specs_all_sourced_builtin(self):
        assert all(spec.source == "builtin" for spec in BUILTIN_SPECS)

    def test_python_clustering_kernel_constructs(self):
        kernel = default_registry().create(
            "clustering_kernel",
            "python",
            epsilon=2.0,
            min_pts=2,
            cell_width=6.0,
            metric_name="l1",
            lemma1=True,
            lemma2=True,
            local_index="rtree",
            rtree_fanout=16,
        )
        assert kernel.cluster([(1, 0.0, 0.0), (2, 0.5, 0.0)]).clusters

    def test_enumerator_capabilities_match_bitmap_support(self):
        registry = default_registry()
        caps = {
            name: registry.get("enumerator", name).capabilities
            for name in registry.names("enumerator")
        }
        assert not caps["baseline"].provides_bitmap_enumeration
        assert caps["fba"].provides_bitmap_enumeration
        assert caps["vba"].provides_bitmap_enumeration

    def test_validate_selection_resolves_all_axes(self):
        selection = default_registry().validate_selection(
            clustering_kernel="python",
            enumeration_kernel="python",
            enumerator="fba",
            shed_policy="none",
            pattern_family="strict",
        )
        assert set(selection) == set(PLUGIN_KINDS)


class TestPatternFamilyAxis:
    def test_builtin_family_names(self):
        assert default_registry().names("pattern_family") == (
            "strict", "evolving", "predictive"
        )

    def test_capability_markers(self):
        registry = default_registry()
        evolving = registry.get("pattern_family", "evolving")
        predictive = registry.get("pattern_family", "predictive")
        assert evolving.capabilities.summary_markers() == "-"
        assert "predicts-patterns" in predictive.capabilities.summary_markers()

    def test_forming_state_markers_on_enumerators(self):
        registry = default_registry()
        caps = {
            name: registry.get("enumerator", name).capabilities
            for name in registry.names("enumerator")
        }
        assert not caps["baseline"].provides_forming_state
        assert caps["fba"].provides_forming_state
        assert caps["vba"].provides_forming_state
        assert "forming-state" in caps["fba"].summary_markers()

    def test_predictive_requires_forming_state_enumerator(self):
        with pytest.raises(
            PluginCompatibilityError, match="forming-state enumerator"
        ):
            default_registry().validate_selection(
                enumerator="baseline", pattern_family="predictive"
            )

    def test_rejection_error_is_one_line(self):
        with pytest.raises(PluginCompatibilityError) as excinfo:
            default_registry().validate_selection(
                enumerator="baseline", pattern_family="predictive"
            )
        assert "\n" not in str(excinfo.value)

    def test_predictive_pairs_with_forming_state_enumerators(self):
        registry = default_registry()
        for enumerator in ("fba", "vba"):
            registry.validate_selection(
                enumerator=enumerator, pattern_family="predictive"
            )

    def test_evolving_pairs_with_any_enumerator(self):
        registry = default_registry()
        for enumerator in ("baseline", "fba", "vba"):
            registry.validate_selection(
                enumerator=enumerator, pattern_family="evolving"
            )

    def test_factories_construct_families(self):
        from repro.model.constraints import PatternConstraints
        from repro.patterns import (
            EvolvingGroupTracker,
            PredictiveFamily,
            StrictFamily,
        )

        registry = default_registry()
        constraints = PatternConstraints(m=2, k=3, l=2, g=2)
        strict = registry.create("pattern_family", "strict", constraints)
        evolving = registry.create(
            "pattern_family", "evolving", constraints, theta=0.7
        )
        predictive = registry.create(
            "pattern_family", "predictive", constraints, min_probability=0.4
        )
        assert isinstance(strict, StrictFamily)
        assert isinstance(evolving, EvolvingGroupTracker)
        assert isinstance(predictive, PredictiveFamily)

    def test_axis_joins_bench_sweeps(self):
        from repro.bench.harness import registered_strategy_names

        names = registered_strategy_names("pattern_family", reference="strict")
        assert names[0] == "strict"
        assert {"evolving", "predictive"} <= set(names)


class _EchoShedPolicy(NoShedPolicy):
    """A 'third-party' shed policy: drops nothing, counts its calls."""

    name = "echo"

    def __init__(self):
        self.calls = 0

    def select_drops(self, oids, rate, protected):
        self.calls += 1
        return []


def _register_echo(registry: PluginRegistry) -> None:
    registry.register(
        PluginSpec(
            kind="shed_policy",
            name="echo",
            factory=lambda seed=0: _EchoShedPolicy(),
            summary="test-only no-op policy",
            source="entry-point",
        )
    )


class _FakeEntryPoint:
    """Just enough of importlib.metadata.EntryPoint for discovery."""

    name = "echo-plugin"

    def load(self):
        return _register_echo


class _BrokenEntryPoint:
    name = "broken-plugin"

    def load(self):
        raise ImportError("synthetic failure")


@pytest.fixture
def echo_entry_point(monkeypatch):
    """Install a synthetic repro.plugins entry point for the test."""
    monkeypatch.setattr(
        "repro.registry.entrypoints._default_entries",
        lambda: [_FakeEntryPoint()],
    )
    reset_default_registry()
    yield
    reset_default_registry()


class TestEntryPoints:
    def test_loader_applies_callable(self):
        registry = PluginRegistry()
        assert load_entry_point_plugins(registry, [_FakeEntryPoint()]) == 1
        assert registry.has("shed_policy", "echo")

    def test_loader_applies_bare_spec(self):
        registry = PluginRegistry()

        class SpecEntry:
            name = "spec-entry"

            def load(self):
                return make_spec(kind="shed_policy", name="direct")

        load_entry_point_plugins(registry, [SpecEntry()])
        assert registry.has("shed_policy", "direct")

    def test_broken_entry_point_warns_not_raises(self):
        registry = PluginRegistry()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded = load_entry_point_plugins(
                registry, [_BrokenEntryPoint(), _FakeEntryPoint()]
            )
        assert loaded == 1
        assert registry.has("shed_policy", "echo")
        assert any("broken-plugin" in str(w.message) for w in caught)

    def test_default_registry_discovers(self, echo_entry_point):
        assert default_registry().has("shed_policy", "echo")

    def test_cli_choices_include_plugin(self, echo_entry_point):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["detect", "--input", "x.csv", "--shed-policy", "echo"]
        )
        assert args.shed_policy == "echo"


def _tiny_records():
    import random

    from repro.model.records import StreamRecord

    rng = random.Random(5)
    records, last = [], {}
    for t in range(1, 13):
        for oid in range(6):
            x = 1.0 * t + (0.1 * oid if oid < 4 else 40.0 * oid)
            records.append(
                StreamRecord(
                    oid, x + rng.uniform(-0.05, 0.05), 0.0, t, last.get(oid)
                )
            )
            last[oid] = t
    return records


class TestThirdPartyEndToEnd:
    def test_entry_point_shed_policy_selectable_end_to_end(
        self, echo_entry_point
    ):
        """The acceptance path: config names the plugin, the session
        consults it on every batch, and the pattern set matches the
        no-shedding reference."""
        from repro import open_session
        from repro.core.config import ICPEConfig
        from repro.model.constraints import PatternConstraints

        constraints = PatternConstraints(m=3, k=4, l=2, g=2)
        signatures = {}
        for policy in ("none", "echo"):
            config = ICPEConfig(
                epsilon=1.0,
                cell_width=4.0,
                min_pts=3,
                constraints=constraints,
                shed_policy=policy,
                shed_rate=0.5,
            )
            with open_session(config) as session:
                session.feed_many(_tiny_records())
            assert session.shed_policy.name == policy
            signatures[policy] = {
                (p.objects, p.times.times) for p in session.patterns
            }
        assert session.shed_policy.calls > 0
        assert signatures["none"], "workload should produce patterns"
        assert signatures["echo"] == signatures["none"]

    def test_runtime_registration_without_entry_point(self):
        """Programmatic registration on the default registry also works
        (and is undone by reset)."""
        try:
            _register_echo(default_registry())
            policy = default_registry().create("shed_policy", "echo")
            assert policy.name == "echo"
            assert policy.select_drops([1, 2], 0.5, frozenset()) == []
        finally:
            reset_default_registry()
        assert not default_registry().has("shed_policy", "echo")
