"""StreamEnvironment fluent-API tests."""

import pytest

from repro.streaming.dataflow import Operator
from repro.streaming.environment import StreamEnvironment


class Tally(Operator):
    def __init__(self):
        self.count = 0

    def process(self, element):
        self.count += 1
        yield element

    def finish(self):
        yield ("count", self.count)


class TestBuilder:
    def test_map_filter_chain(self):
        env = StreamEnvironment()
        env.source().map(lambda x: x * 2).filter(lambda x: x > 4)
        job = env.compile()
        outputs, works = job.run([1, 2, 3, 4])
        assert sorted(outputs) == [6, 8]
        assert len(works) == 2

    def test_flat_map(self):
        env = StreamEnvironment()
        env.source().flat_map(lambda x: [x, x + 10])
        outputs, _ = env.compile().run([1, 2])
        assert sorted(outputs) == [1, 2, 11, 12]

    def test_key_by_routes_next_stage(self):
        routed: dict[int, set] = {}

        class Recorder(Operator):
            def open(self, subtask_index, parallelism):
                self.index = subtask_index

            def process(self, element):
                routed.setdefault(element % 3, set()).add(self.index)
                return ()

        env = StreamEnvironment()
        env.source().key_by(lambda x: x % 3).process(Recorder, parallelism=3)
        env.compile().run(list(range(30)))
        for subtasks in routed.values():
            assert len(subtasks) == 1

    def test_named_stages(self):
        env = StreamEnvironment()
        (
            env.source()
            .key_by(lambda x: x, name="shuffle")
            .map(lambda x: x)
        )
        job = env.compile()
        assert job.stage_names == ["shuffle"]

    def test_finish_flushes_operators(self):
        env = StreamEnvironment()
        env.source().process(Tally)
        job = env.compile()
        job.run([1, 2, 3])
        outputs, _ = job.finish()
        assert ("count", 3) in outputs

    def test_compile_twice_yields_independent_jobs(self):
        env = StreamEnvironment()
        env.source().process(Tally)
        first = env.compile()
        second = env.compile()
        first.run([1, 2, 3])
        second.run([1])
        # Operator state is per-job: the two Tally instances are distinct.
        assert ("count", 3) in first.finish()[0]
        assert ("count", 1) in second.finish()[0]

    def test_stage_names_stable_across_compiles(self):
        env = StreamEnvironment()
        env.source().map(lambda x: x).filter(lambda x: True)
        names = env.compile().stage_names
        assert env.compile().stage_names == names
        assert env.graph().stage_names == names

    def test_compile_onto_parallel_backend(self):
        from repro.streaming.runtime import ParallelBackend

        env = StreamEnvironment()
        env.source().key_by(lambda x: x % 5).process(Tally, parallelism=5)
        serial_job = env.compile()
        with ParallelBackend(max_workers=3) as backend:
            parallel_job = env.compile(backend)
            data = list(range(40))
            serial_out, _ = serial_job.run(data)
            parallel_out, _ = parallel_job.run(data)
            assert serial_out == parallel_out
            assert serial_job.finish()[0] == parallel_job.finish()[0]
            # A borrowed backend instance survives job.close(): the job
            # does not own it, so the pool stays usable.
            parallel_job.close()
            assert env.compile(backend).run([1])[0] is not None

    def test_compile_by_backend_name(self):
        env = StreamEnvironment()
        env.source().map(lambda x: x + 1)
        job = env.compile(backend="parallel")
        assert job.backend.name == "parallel"
        outputs, _ = job.run([1, 2])
        assert sorted(outputs) == [2, 3]
        job.close()

    def test_empty_environment_rejected(self):
        with pytest.raises(ValueError):
            StreamEnvironment().compile()
        with pytest.raises(ValueError):
            StreamEnvironment().graph()

    def test_sink_collects(self):
        seen = []
        env = StreamEnvironment()
        env.source().map(lambda x: x + 1).sink(seen.append)
        env.compile().run([1, 2, 3])
        assert seen == [2, 3, 4]

    def test_icpe_like_topology(self):
        """A miniature of the ICPE job graph via the fluent API."""
        from repro.core.operators import AllocateOperator, QueryOperator
        from repro.join.query import CellJoiner

        env = StreamEnvironment()
        (
            env.source()
            .key_by(lambda p: p[0], name="allocate")
            .flat_map(
                lambda p: AllocateOperator(4.0, 2.0).process(p), parallelism=4
            )
            .key_by(lambda go: go.key, name="query")
            .process(
                lambda: QueryOperator(CellJoiner(epsilon=2.0)), parallelism=4
            )
        )
        job = env.compile()
        outputs, _ = job.run(
            [(1, 0.0, 0.0), (2, 1.0, 0.0), (3, 50.0, 50.0)], ctx=1
        )
        assert (1, 2) in outputs


class TestPipelineEnvironmentEquivalence:
    """The ICPE pipeline and the fluent builder share one topology path."""

    def _config(self):
        from repro.core.config import ICPEConfig
        from repro.model.constraints import PatternConstraints

        return ICPEConfig(
            epsilon=2.0,
            cell_width=6.0,
            min_pts=2,
            constraints=PatternConstraints(m=2, k=3, l=2, g=2),
            allocate_parallelism=4,
            query_parallelism=4,
            enumerate_parallelism=4,
        )

    def test_pipeline_graph_matches_environment_graph(self):
        from repro.core.icpe import ICPEPipeline

        config = self._config()
        pipeline = ICPEPipeline(config)
        graph = ICPEPipeline.build_environment(config).graph()
        assert pipeline.job.graph.stage_names == graph.stage_names
        assert pipeline.job.graph.parallelisms == graph.parallelisms
        assert graph.stage_names == ["allocate", "query", "cluster", "enumerate"]
        assert graph.parallelisms == [
            config.allocate_parallelism,
            config.query_parallelism,
            1,
            config.enumerate_parallelism,
        ]
        pipeline.close()

    def test_default_fan_out_follows_the_backend(self):
        from dataclasses import replace

        from repro.core.icpe import ICPEPipeline

        config = replace(
            self._config(),
            allocate_parallelism=None,
            query_parallelism=None,
            enumerate_parallelism=None,
        )
        for backend, workers, fan_out in (
            ("serial", None, 1),
            ("parallel", 3, 3),
        ):
            pipeline = ICPEPipeline(
                replace(config, backend=backend, parallel_workers=workers)
            )
            assert pipeline.job.graph.parallelisms == [
                fan_out, fan_out, 1, fan_out
            ]
            assert pipeline.config.enumerate_parallelism == fan_out
            pipeline.close()
        assert ICPEPipeline.build_environment(config).graph().parallelisms == [
            1, 1, 1, 1
        ]

    def test_independent_compiles_route_identically(self):
        from repro.core.icpe import ICPEPipeline

        config = self._config()
        env = ICPEPipeline.build_environment(config)
        first, second = env.compile(), env.compile()
        elements = [(oid, float(oid), 0.5 * oid) for oid in range(25)]
        for runtime_a, runtime_b in zip(first.runtimes, second.runtimes):
            if runtime_a.stage.name != "allocate":
                continue  # downstream stages key on derived records
            assert [runtime_a.route(e) for e in elements] == [
                runtime_b.route(e) for e in elements
            ]
