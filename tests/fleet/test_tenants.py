"""Tenant population, placement, and per-device compilation."""

from __future__ import annotations

import dataclasses

import pytest

from repro.fleet.tenants import (
    TAIL_TENANT,
    FleetConfig,
    TenantWorkload,
    _build_ring,
    compile_fleet,
    place_tenant,
    tenant_weight,
)


class TestFleetConfig:
    def test_defaults_validate(self):
        FleetConfig()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("devices", 0),
            ("tenants", 0),
            ("zipf_s", 0.0),
            ("spread", 0),
            ("storm", "hurricane"),
            ("storm_fraction", 1.5),
            ("secure_fraction", -0.1),
            ("variants", ()),
            ("zipf_s", float("nan")),
            ("zipf_s", float("inf")),
            ("write_multiplier", 0.0),
            ("write_multiplier", float("nan")),
            ("write_multiplier", float("inf")),
        ],
    )
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            dataclasses.replace(FleetConfig(), **{field: value})

    def test_fingerprint_tracks_every_field(self):
        base = FleetConfig()
        assert base.fingerprint() == FleetConfig().fingerprint()
        changed = dataclasses.replace(base, tenants=base.tenants + 1)
        assert changed.fingerprint() != base.fingerprint()


class TestPlacement:
    def test_compile_is_deterministic(self):
        cfg = FleetConfig(devices=8, tenants=500)
        assert compile_fleet(cfg) == compile_fleet(cfg)

    def test_every_tenant_lands_on_exactly_one_device(self):
        cfg = FleetConfig(devices=8, tenants=500, max_active_tenants=10**9)
        specs = compile_fleet(cfg)
        seen = [slot.tenant for spec in specs for slot in spec.slots]
        assert sorted(seen) == list(range(cfg.tenants))

    def test_growth_moves_about_one_in_k_tenants_to_the_new_device(self):
        # the consistent-hash contract: adding a device to a k-device
        # fleet relocates ~1/(k+1) of tenants, every one of them TO the
        # new device -- nobody shuffles between surviving devices.
        old = FleetConfig(devices=8, tenants=4000, spread=1)
        new = dataclasses.replace(old, devices=9)
        old_ring, new_ring = _build_ring(old), _build_ring(new)
        moved = 0
        for tenant in range(old.tenants):
            before = place_tenant(old, old_ring, tenant)
            after = place_tenant(new, new_ring, tenant)
            if before != after:
                moved += 1
                assert after == 8, "moved tenant must land on the new device"
        fraction = moved / old.tenants
        assert 0.03 < fraction < 0.25, fraction

    def test_spread_routes_across_candidates(self):
        cfg = FleetConfig(devices=8, tenants=2000, spread=3)
        ring = _build_ring(cfg)
        homes = {place_tenant(cfg, ring, t) for t in range(cfg.tenants)}
        assert homes == set(range(cfg.devices))


class TestCompiledSpecs:
    def test_zipf_weights_are_heavy_tailed(self):
        cfg = FleetConfig()
        assert tenant_weight(cfg, 0) > tenant_weight(cfg, 1)
        assert tenant_weight(cfg, 0) / tenant_weight(cfg, 99) > 50

    def test_tail_aggregates_beyond_max_active(self):
        cfg = FleetConfig(devices=2, tenants=500, max_active_tenants=8)
        specs = compile_fleet(cfg)
        for spec in specs:
            assert len(spec.slots) <= cfg.max_active_tenants
            assert spec.tail_tenants > 0
            assert spec.tail_weight > 0.0
            assert TAIL_TENANT not in {slot.tenant for slot in spec.slots}
            assert spec.tenants == len(spec.slots) + spec.tail_tenants

    def test_device_seed_is_variant_independent(self):
        # the spec (and therefore the captured trace) depends only on
        # (cfg, device): every variant replays identical host traffic
        cfg = FleetConfig(devices=4, tenants=100)
        other = dataclasses.replace(cfg, variants=("secSSD",))
        assert [s.seed for s in compile_fleet(cfg)] == [
            s.seed for s in compile_fleet(other)
        ]

    def test_traffic_scale_bounded(self):
        cfg = FleetConfig(devices=8, tenants=500)
        for spec in compile_fleet(cfg):
            assert 0.25 <= spec.traffic_scale <= 4.0


class TestTenantWorkload:
    def test_trace_is_deterministic(self):
        from repro.fleet.scheduler import device_config
        from repro.sim.runner import capture_generator_trace

        cfg = FleetConfig(devices=2, tenants=60)
        spec = compile_fleet(cfg)[0]
        config = device_config(cfg)
        traces = []
        for _ in range(2):
            generator = TenantWorkload(cfg, spec, config.logical_pages)
            traces.append(capture_generator_trace(config, generator, 400))
        assert traces[0] == traces[1]
