"""Tests for the latency/frequency scaling model (Fig. 1 / Table 1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.timing.delay import logic_scale, wire_scale, TECH_NODES
from repro.timing.frequency import (
    PAPER_TABLE1,
    TABLE1_NODES,
    module_frequencies_mhz,
)
from repro.timing.structures import (
    cache_latency_ps,
    ec_latency_ps,
    iw_latency_ps,
    rf_latency_ps,
)


class TestScaling:
    def test_logic_scale_linear(self):
        assert logic_scale(0.18) == pytest.approx(1.0)
        assert logic_scale(0.09) == pytest.approx(0.5)

    def test_wire_scale_flat_and_worsening(self):
        assert wire_scale(0.18) == pytest.approx(1.0)
        assert wire_scale(0.06) > wire_scale(0.13) > 1.0

    def test_bad_node(self):
        with pytest.raises(ConfigError):
            logic_scale(5.0)


class TestTable1:
    @pytest.mark.parametrize("module", sorted(PAPER_TABLE1))
    @pytest.mark.parametrize("node", TABLE1_NODES)
    def test_within_six_percent_of_paper(self, module, node):
        ours = module_frequencies_mhz(node)[module]
        paper = PAPER_TABLE1[module][node]
        assert ours == pytest.approx(paper, rel=0.06)

    def test_iw_is_the_slowest_single_cycle_module(self):
        """The premise: the issue window sets the baseline clock."""
        for node in TABLE1_NODES:
            f = module_frequencies_mhz(node)
            assert f["iw_single_cycle"] <= f["rf_single_cycle"]
            assert f["iw_single_cycle"] <= f["icache_two_cycle"]

    def test_frontend_headroom_grows(self):
        """I-cache/IW frequency ratio grows toward 2x at 0.06um."""
        r18 = (module_frequencies_mhz(0.18)["icache_two_cycle"]
               / module_frequencies_mhz(0.18)["iw_single_cycle"])
        r06 = (module_frequencies_mhz(0.06)["icache_two_cycle"]
               / module_frequencies_mhz(0.06)["iw_single_cycle"])
        assert r06 > r18
        assert r06 == pytest.approx(2.0, rel=0.05)


class TestFig1Shape:
    def test_everything_improves_with_shrink(self):
        for fn in (lambda n: iw_latency_ps(n), lambda n: cache_latency_ps(n),
                   lambda n: rf_latency_ps(n), ec_latency_ps):
            lats = [fn(n) for n in TECH_NODES]
            assert lats == sorted(lats, reverse=True)

    def test_cache_iw_crossover(self):
        """Wire-dominated IW scales worse: the cache catches up by 60nm."""
        ratio_25 = cache_latency_ps(0.25) / iw_latency_ps(0.25)
        ratio_06 = cache_latency_ps(0.06) / iw_latency_ps(0.06)
        assert ratio_25 > 1.3
        assert ratio_06 < 1.15

    def test_smaller_structures_faster(self):
        for node in TECH_NODES:
            assert iw_latency_ps(node, 64, 4) < iw_latency_ps(node, 128, 6)
            assert rf_latency_ps(node, 128) < rf_latency_ps(node, 256)

    def test_ports_cost_latency(self):
        assert (cache_latency_ps(0.13, 64, 4, 2)
                > cache_latency_ps(0.13, 64, 2, 1))

    def test_shape_validation(self):
        with pytest.raises(ConfigError):
            iw_latency_ps(0.13, entries=1)
        with pytest.raises(ConfigError):
            rf_latency_ps(0.13, entries=8)
        with pytest.raises(ConfigError):
            cache_latency_ps(0.13, kb=0)


@settings(max_examples=30, deadline=None)
@given(node=st.sampled_from(TECH_NODES),
       entries=st.sampled_from([32, 64, 128, 256]),
       width=st.integers(2, 8))
def test_iw_latency_monotone_in_size(node, entries, width):
    assert (iw_latency_ps(node, entries, width)
            <= iw_latency_ps(node, entries * 2, width))
