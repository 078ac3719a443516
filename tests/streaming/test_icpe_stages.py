"""The ICPE pipeline runs the stage list :func:`icpe_stages` describes."""

from dataclasses import replace

from repro.core.config import ICPEConfig
from repro.core.icpe import ICPEPipeline, icpe_stages
from repro.model.constraints import PatternConstraints
from repro.streaming.dataflow import StageRuntime


def _config():
    return ICPEConfig(
        epsilon=2.0,
        cell_width=6.0,
        min_pts=2,
        constraints=PatternConstraints(m=2, k=3, l=2, g=2),
        allocate_parallelism=4,
        query_parallelism=4,
        enumerate_parallelism=4,
    )


def _shape(runtimes):
    return (
        [runtime.stage.name for runtime in runtimes],
        [len(runtime.subtasks) for runtime in runtimes],
    )


class TestPipelineStages:
    def test_pipeline_runtimes_match_icpe_stages(self):
        config = _config()
        pipeline = ICPEPipeline(config)
        stages = icpe_stages(config)
        names = [stage.name for stage in stages]
        parallelisms = [stage.parallelism for stage in stages]
        assert _shape(pipeline.runtimes) == (names, parallelisms)
        assert names == ["allocate", "query", "cluster", "enumerate"]
        assert parallelisms == [
            config.allocate_parallelism,
            config.query_parallelism,
            1,
            config.enumerate_parallelism,
        ]
        pipeline.close()

    def test_default_fan_out_follows_the_backend(self):
        config = replace(
            _config(),
            allocate_parallelism=None,
            query_parallelism=None,
            enumerate_parallelism=None,
        )
        for backend, workers, fan_out in (
            ("serial", None, 1),
            ("process", 2, 2),
        ):
            pipeline = ICPEPipeline(
                replace(config, backend=backend, parallel_workers=workers)
            )
            assert _shape(pipeline.runtimes)[1] == [1, 1, 1, fan_out]
            assert pipeline.config.enumerate_parallelism == fan_out
            pipeline.close()
        assert [stage.parallelism for stage in icpe_stages(config)] == [
            1, 1, 1, 1
        ]

    def test_independent_builds_route_identically(self):
        config = _config()
        first = [StageRuntime(stage) for stage in icpe_stages(config)]
        second = [StageRuntime(stage) for stage in icpe_stages(config)]
        elements = [(oid, float(oid), 0.5 * oid) for oid in range(25)]
        for runtime_a, runtime_b in zip(first, second):
            assert runtime_a.subtasks[0] is not runtime_b.subtasks[0]
            if runtime_a.stage.name != "allocate":
                continue  # downstream stages key on derived records
            assert [runtime_a.route(e) for e in elements] == [
                runtime_b.route(e) for e in elements
            ]
