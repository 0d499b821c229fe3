package api

import (
	"testing"

	"waterimm/internal/mc"
)

// TestValidateErrorTexts pins the user-facing validation messages of
// every request kind. Each request carries exactly one bad field, so
// the message does not depend on the order the checks run in.
func TestValidateErrorTexts(t *testing.T) {
	params := map[string]mc.Dist{"h": {Kind: "uniform", Min: 0.5, Max: 2}}
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"plan/chip", &PlanRequest{Chip: "nope"}, "api: plan: power: unknown chip model \"nope\""},
		{"plan/coolant", &PlanRequest{Coolant: "steam"}, "api: plan: material: unknown coolant \"steam\""},
		{"plan/chips", &PlanRequest{Chips: 33}, "api: plan: chips must be in [1, 32], got 33"},
		{"plan/grid", &PlanRequest{GridNX: 3}, "api: plan: grid 3x32 out of range [4, 256]"},
		{"plan/budget", &PlanRequest{Chips: 9, GridNX: 256, GridNY: 256},
			"api: plan: grid 256x256 with 9 chips exceeds the 524288-cell-layer budget (reduce the grid or the stack depth)"},
		{"plan/eval_ghz", &PlanRequest{EvalGHz: 2.05}, "api: plan: eval_ghz 2.05 is not a VFS step of low-power"},
		{"plan/threshold", &PlanRequest{ThresholdC: 20}, "api: plan: threshold_c must be in (25, 200], got 20"},

		{"montecarlo/chip", &MonteCarloRequest{Chip: "nope", Params: params}, "api: montecarlo: power: unknown chip model \"nope\""},
		{"montecarlo/coolant", &MonteCarloRequest{Coolant: "steam", Params: params}, "api: montecarlo: material: unknown coolant \"steam\""},
		{"montecarlo/chips", &MonteCarloRequest{Chips: 33, Params: params}, "api: montecarlo: chips must be in [1, 32], got 33"},
		{"montecarlo/grid", &MonteCarloRequest{GridNX: 3, Params: params}, "api: montecarlo: grid 3x32 out of range [4, 256]"},
		{"montecarlo/budget", &MonteCarloRequest{Chips: 9, GridNX: 256, GridNY: 256, Params: params},
			"api: montecarlo: grid 256x256 with 9 chips exceeds the 524288-cell-layer budget (reduce the grid or the stack depth)"},
		{"montecarlo/eval_ghz", &MonteCarloRequest{EvalGHz: 2.05, Params: params}, "api: montecarlo: eval_ghz 2.05 is not a VFS step of low-power"},
		{"montecarlo/threshold", &MonteCarloRequest{ThresholdC: 20, ExceedC: 80, Params: params}, "api: montecarlo: threshold_c must be in (25, 200], got 20"},
		{"montecarlo/exceed", &MonteCarloRequest{ExceedC: 20, Params: params}, "api: montecarlo: exceed_c must be in (25, 200], got 20"},

		{"cosim/chip", &CosimRequest{Chip: "nope"}, "api: cosim: power: unknown chip model \"nope\""},
		{"cosim/coolant", &CosimRequest{Coolant: "steam"}, "api: cosim: material: unknown coolant \"steam\""},
		{"cosim/chips", &CosimRequest{Chips: 33}, "api: cosim: chips must be in [1, 32], got 33"},
		{"cosim/grid", &CosimRequest{GridNX: 3}, "api: cosim: grid 3x32 out of range [4, 256]"},
		{"cosim/budget", &CosimRequest{Chips: 9, GridNX: 256, GridNY: 256},
			"api: cosim: grid 256x256 with 9 chips exceeds the 524288-cell-layer budget (reduce the grid or the stack depth)"},
		{"cosim/ghz", &CosimRequest{GHz: 3.65}, "api: cosim: 3.65 GHz is not a VFS step of high-frequency"},

		{"cosimstream/chip", &CosimStreamRequest{Chip: "nope"}, "api: cosimstream: power: unknown chip model \"nope\""},
		{"cosimstream/coolant", &CosimStreamRequest{Coolant: "steam"}, "api: cosimstream: material: unknown coolant \"steam\""},
		{"cosimstream/chips", &CosimStreamRequest{Chips: 33}, "api: cosimstream: chips must be in [1, 32], got 33"},
		{"cosimstream/grid", &CosimStreamRequest{GridNX: 3}, "api: cosimstream: grid 3x32 out of range [4, 256]"},
		{"cosimstream/budget", &CosimStreamRequest{Chips: 9, GridNX: 256, GridNY: 256},
			"api: cosimstream: grid 256x256 with 9 chips exceeds the 524288-cell-layer budget (reduce the grid or the stack depth)"},
		{"cosimstream/ghz", &CosimStreamRequest{GHz: 3.65}, "api: cosimstream: 3.65 GHz is not a VFS step of high-frequency"},

		{"sweep/chip", &SweepRequest{Chips: []string{"nope"}}, "api: sweep: power: unknown chip model \"nope\""},
		{"sweep/coolant", &SweepRequest{Coolants: []string{"steam"}}, "api: sweep: material: unknown coolant \"steam\""},
		{"sweep/depth", &SweepRequest{Depths: []int{33}}, "api: sweep: depths must be in [1, 32], got 33"},
		{"sweep/grid", &SweepRequest{GridNX: 3}, "api: sweep: grid 3x32 out of range [4, 256]"},
		{"sweep/budget", &SweepRequest{Depths: []int{9}, GridNX: 256, GridNY: 256},
			"api: sweep: grid 256x256 with 9 chips exceeds the 524288-cell-layer budget (reduce the grid or the stack depth)"},
		{"sweep/threshold", &SweepRequest{ThresholdsC: []float64{20}}, "api: sweep: thresholds_c must be in (25, 200], got 20"},

		{"audit/chip", &AuditRequest{Chips: []string{"nope"}}, "api: audit: power: unknown chip model \"nope\""},
		{"audit/coolant", &AuditRequest{Coolants: []string{"steam"}}, "api: audit: material: unknown coolant \"steam\""},
		{"audit/grid", &AuditRequest{GridNX: 3}, "api: audit: grid 3x32 out of range [4, 256]"},
		{"audit/threshold", &AuditRequest{ThresholdC: 20}, "api: audit: threshold_c must be in (25, 200], got 20"},
	}
	for _, tc := range cases {
		tc.req.Normalize()
		err := tc.req.Validate()
		if err == nil {
			t.Errorf("%s: validated, want %q", tc.name, tc.want)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, err.Error(), tc.want)
		}
	}
}
