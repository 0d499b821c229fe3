package api

import "testing"

// TestCacheKeysFrozen pins the exact cache keys of representative v2
// requests, captured before the v3 schema bump. The v3 schema added
// the montecarlo kind and optional (omitempty) plan fields without
// touching any existing kind's canonical encoding or key generation,
// so every key below must be byte-identical forever — a deployed
// fleet's disk and edge caches survive the upgrade with zero
// invalidation. If this test fails, the change it catches would
// silently wipe production caches on deploy: either restore the
// encoding, or consciously bump that kind's keyGeneration AND accept
// the wipe (then re-capture the keys).
func TestCacheKeysFrozen(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{
			"plan_default",
			&PlanRequest{},
			"74deff74634e3de3f156649131016c1e84cef864e382f4e8ed94aa532745e336",
		},
		{
			"plan_custom",
			&PlanRequest{Chip: "hf", Chips: 4, Coolant: "mineral-oil", ThresholdC: 85,
				Flip: true, GridNX: 64, GridNY: 64, ConvergeLeakage: true},
			"8cf2505e3bd29774154d668d1f0bbb24a1a58f1a537ea96f152b78aa9b2fd715",
		},
		{
			"cosim_default",
			&CosimRequest{},
			"98e0a57c97b7fa77c576ebf5e87971f35d29451483dd8969ee40e5c2a1bd586f",
		},
		{
			"cosim_custom",
			&CosimRequest{Benchmark: "cg", Chip: "lp", GHz: 1.5, Chips: 2,
				DurationS: 0.001, MaxSamples: 64},
			"490fdadab13c3d7ce4aee9f8e7e1d54bcad5d969430c14f989e32f46215151b2",
		},
		{
			"sweep_default",
			&SweepRequest{},
			"0694c08f506705ce7c679cc552cbd267aeebd50baf534431ee287e813938f06c",
		},
		{
			"sweep_custom",
			&SweepRequest{Chips: []string{"hf", "lp"}, Depths: []int{1, 2, 4},
				Coolants: []string{"water", "air"}, ThresholdsC: []float64{70, 85},
				GridNX: 16, GridNY: 16},
			"28c9f29679e0d401a9786230dfafe9075ba7d5a7a91c53d47d741146648102c6",
		},
		{
			"audit_default",
			&AuditRequest{},
			"20ff42c5ad6b91d3f85451472d5566364958a10371e18399462a5599cb05539a",
		},
		{
			"audit_custom",
			&AuditRequest{Chips: []string{"hf", "lp"}, Coolants: []string{"water", "air"},
				StartYear: 2027, EndYear: 2030, GrowthPerYear: 1.25, ThresholdC: 85,
				GridNX: 16, GridNY: 16, Flip: true},
			"8521b031827f246c7990bb6cf198d47289ebabf8504f6e7dcbbe5bfd79b15612",
		},
		{
			"cosimstream_default",
			&CosimStreamRequest{},
			"a6ba183c701278fb3b240b5ef93f0cb18513576716c80873870564ae2bf265e3",
		},
		{
			"cosimstream_custom",
			&CosimStreamRequest{Chip: "lp", Chips: 2, Coolant: "mineral-oil",
				GHz: 1.5, IntervalS: 0.02, Intervals: 100, SubSteps: 1,
				Trace:        []CosimStreamPhase{{DurationS: 1, Utilisation: 1}, {DurationS: 0.5, Utilisation: 0.2}},
				DTMSetpointC: 75, GridNX: 16, GridNY: 16, CheckpointEvery: 25, MaxSamples: 50},
			"c719fe19a7a6744526efbb128332d0b382868b7a8c5be89d8d102aaba8e2697a",
		},
	}
	for _, c := range cases {
		if got := c.req.CacheKey(); got != c.want {
			t.Errorf("%s cache key changed:\n got %s\nwant %s\n(a v2 key moved — deployed caches would be wiped)", c.name, got, c.want)
		}
	}
}

// The store envelope generation must also hold steady: rcache deletes
// entries written under any other generation, so bumping it IS the
// cache wipe the key freeze above guards against.
func TestCacheGenerationFrozen(t *testing.T) {
	if CacheGeneration != 2 {
		t.Fatalf("CacheGeneration = %d, want 2 — bumping it wipes every deployed rcache store", CacheGeneration)
	}
	for _, kind := range []string{"plan", "cosim", "sweep"} {
		if g := keyGeneration(kind); g != 2 {
			t.Errorf("keyGeneration(%s) = %d, want the frozen 2", kind, g)
		}
	}
	if g := keyGeneration("montecarlo"); g != 3 {
		t.Errorf("keyGeneration(montecarlo) = %d, want 3", g)
	}
	if g := keyGeneration("audit"); g != 6 {
		t.Errorf("keyGeneration(audit) = %d, want 6", g)
	}
	if g := keyGeneration("cosimstream"); g != 5 {
		t.Errorf("keyGeneration(cosimstream) = %d, want 5", g)
	}
}
