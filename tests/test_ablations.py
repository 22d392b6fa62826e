"""Tests for the ablation harness and its configuration knobs."""

import pytest

from repro.core.config import ClockPlan, CoreConfig
from repro.core.flywheel import FlywheelCore
from repro.experiments import ablations
from repro.experiments.common import ExperimentContext
from repro.workloads import InstructionStream, generate_program, get_profile


class TestAblationConfigs:
    def test_all_configs_distinct(self):
        labels = [label for label, _cfg in ablations.ABLATIONS]
        assert len(labels) == len(set(labels))
        assert "full" in labels

    @pytest.mark.parametrize("label,cfg", ablations.ABLATIONS)
    def test_each_config_runs(self, label, cfg):
        prog = generate_program(get_profile("smoke"))
        core = FlywheelCore(CoreConfig(phys_regs=512, regread_stages=2),
                            cfg, ClockPlan(), InstructionStream(prog))
        stats = core.run(2500, warmup=500)
        assert stats.committed >= 2500, label


class TestAblationRun:
    def test_rows_shape(self):
        ctx = ExperimentContext(instructions=3000, warmup=5000,
                                benchmarks=("smoke",))
        rows = ablations.run(ctx)
        assert rows[-1]["benchmark"] == "geomean"
        for label, _cfg in ablations.ABLATIONS:
            assert label in rows[0]
            assert rows[0][label] > 0
        # No knocked-out mechanism improves the geomean much, and a 4x
        # smaller EC never helps.
        avg = rows[-1]
        assert avg["ec_4k"] <= avg["full"] * 1.10
        assert avg["no_redistribution"] <= avg["full"] * 1.10
