"""Unit tests for the shared context bundle."""

from repro.experiments.registry import (
    PlanContext,
    bundle_from_results,
    execute_plan,
    plan_union,
)


def run_bundle(ctx, processes=None):
    """The bundle campaign of ``ctx`` executed through the registry."""
    outcome = execute_plan(plan_union(["table1"], ctx), processes=processes)
    return bundle_from_results(ctx, outcome.results)


class TestBundleContents:
    def test_names(self, tiny_bundle):
        assert tiny_bundle.names == ["435.gromacs", "453.povray", "470.lbm",
                                     "605.mcf"]

    def test_isolation_per_name(self, tiny_bundle):
        assert set(tiny_bundle.isolation) == set(tiny_bundle.names)

    def test_pinte_sweep_per_name(self, tiny_bundle):
        for name in tiny_bundle.names:
            assert len(tiny_bundle.pinte[name]) == 5

    def test_pairs_panel_size(self, tiny_bundle):
        for name in tiny_bundle.names:
            assert len(tiny_bundle.pair_results(name)) == 2

    def test_pair_primary_is_name(self, tiny_bundle):
        for name in tiny_bundle.names:
            for result in tiny_bundle.pair_results(name):
                assert result.trace_name == name
                assert result.co_runner != name

    def test_accessors(self, tiny_bundle):
        n = len(tiny_bundle.names)
        assert len(tiny_bundle.all_isolation()) == n
        assert len(tiny_bundle.all_pinte()) == n * 5
        assert len(tiny_bundle.all_pairs()) == n * 2

    def test_modes(self, tiny_bundle):
        assert all(r.mode == "isolation" for r in tiny_bundle.all_isolation())
        assert all(r.mode == "pinte" for r in tiny_bundle.all_pinte())
        assert all(r.mode == "2nd-trace" for r in tiny_bundle.all_pairs())


class TestBuildOptions:
    def test_pairs_optional(self, config, tiny_scale):
        ctx = PlanContext(config=config, scale=tiny_scale,
                          suite=("435.gromacs",), p_values=(0.5,),
                          panel_size=0)
        bundle = run_bundle(ctx)
        assert bundle.pairs == {}
        assert bundle.pair_results("435.gromacs") == []

    def test_parallel_bundle_matches_serial(self, config, tiny_scale):
        """Executing the plan on two pool workers must give the same
        bundle, bit for bit, as executing it inline."""
        from repro.sim.serialize import result_to_dict

        names = ["435.gromacs", "470.lbm"]
        ctx = PlanContext(config=config, scale=tiny_scale, suite=names,
                          p_values=(0.5,), panel_size=1)
        serial = run_bundle(ctx)
        parallel = run_bundle(ctx, processes=2)

        def comparable(result):
            record = result_to_dict(result)
            record.pop("wall_time_seconds", None)
            # Wall-clock spans and trace-cache tallies are run bookkeeping,
            # not simulation output; they differ between the two runs.
            record["extra"] = {k: v for k, v in record["extra"].items()
                               if not k.endswith("_seconds")
                               and not k.startswith("trace_cache_")}
            return record

        for name in names:
            assert (comparable(serial.isolation[name])
                    == comparable(parallel.isolation[name]))
            assert (comparable(serial.pinte[name][0.5])
                    == comparable(parallel.pinte[name][0.5]))
            for a, b in zip(serial.pair_results(name),
                            parallel.pair_results(name)):
                assert comparable(a) == comparable(b)
