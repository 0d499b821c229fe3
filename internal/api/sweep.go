package api

import (
	"fmt"
	"slices"

	"waterimm/internal/material"
	"waterimm/internal/power"
)

// MaxSweepCells caps the cartesian product of a sweep request: a
// sweep fans out one planner job per cell, so the cap bounds both the
// service queue pressure and the response payload.
const MaxSweepCells = 512

// SweepRequest asks for a batch of plan requests over the cartesian
// product chips × depths × coolants × thresholds — the workload
// behind the paper's frequency-versus-stack-depth figures. Each cell
// is exactly the PlanRequest with the corresponding axis values, and
// shares that request's cache identity: a sweep cell and an
// equivalent /v1/plan request hit the same cache entry and in-flight
// deduplication.
type SweepRequest struct {
	// Chips lists power model names (low-power/lp, high-frequency/hf,
	// e5, phi). Default ["low-power"].
	Chips []string `json:"chips"`
	// Depths lists stack depths. Default [1..8].
	Depths []int `json:"depths"`
	// Coolants lists coolant names. Default: every coolant the paper
	// studies (air, water-pipe, mineral-oil, fluorinert, water).
	Coolants []string `json:"coolants"`
	// ThresholdsC lists junction temperature limits. Default [80].
	ThresholdsC []float64 `json:"thresholds_c"`
	// Flip, ConvergeLeakage, GridNX and GridNY apply to every cell,
	// with the same semantics and defaults as PlanRequest.
	Flip            bool `json:"flip"`
	ConvergeLeakage bool `json:"converge_leakage"`
	GridNX          int  `json:"grid_nx"`
	GridNY          int  `json:"grid_ny"`
}

// Kind implements Request.
func (r *SweepRequest) Kind() string { return "sweep" }

// Normalize implements Request. Axis lists are defaulted, alias-
// resolved, sorted and deduplicated, so two spellings of the same
// sweep share one canonical form (and therefore one cache key); the
// response cell order follows the normalized axis order.
func (r *SweepRequest) Normalize() {
	if len(r.Chips) == 0 {
		r.Chips = []string{"low-power"}
	}
	r.Chips = canonicalNames(r.Chips, power.CanonicalName)
	if len(r.Depths) == 0 {
		r.Depths = []int{1, 2, 3, 4, 5, 6, 7, 8}
	}
	slices.Sort(r.Depths)
	r.Depths = slices.Compact(r.Depths)
	if len(r.Coolants) == 0 {
		r.Coolants = coolantNames()
	}
	r.Coolants = canonicalNames(r.Coolants, nil)
	if len(r.ThresholdsC) == 0 {
		r.ThresholdsC = []float64{80}
	}
	slices.Sort(r.ThresholdsC)
	r.ThresholdsC = slices.Compact(r.ThresholdsC)
	if r.GridNX == 0 {
		r.GridNX = 32
	}
	if r.GridNY == 0 {
		r.GridNY = 32
	}
}

// Validate implements Request.
func (r *SweepRequest) Validate() error {
	for _, c := range r.Chips {
		if _, err := power.ModelByName(c); err != nil {
			return fmt.Errorf("api: sweep: %w", err)
		}
	}
	for _, c := range r.Coolants {
		if _, err := material.ByName(c); err != nil {
			return fmt.Errorf("api: sweep: %w", err)
		}
	}
	maxDepth := 0
	for _, d := range r.Depths {
		if d < 1 || d > 32 {
			return fmt.Errorf("api: sweep: depths must be in [1, 32], got %d", d)
		}
		if d > maxDepth {
			maxDepth = d
		}
	}
	for _, t := range r.ThresholdsC {
		if err := validTemp("thresholds_c", t); err != nil {
			return fmt.Errorf("api: sweep: %w", err)
		}
	}
	cells := len(r.Chips) * len(r.Depths) * len(r.Coolants) * len(r.ThresholdsC)
	if cells == 0 {
		return fmt.Errorf("api: sweep: empty axis (call Normalize first?)")
	}
	if cells > MaxSweepCells {
		return fmt.Errorf("api: sweep: %d cells exceed the %d-cell cap", cells, MaxSweepCells)
	}
	if err := validGrid(r.GridNX, r.GridNY); err != nil {
		return fmt.Errorf("api: sweep: %w", err)
	}
	if err := validGridLoad(r.GridNX, r.GridNY, maxDepth); err != nil {
		return fmt.Errorf("api: sweep: %w", err)
	}
	return nil
}

// CacheKey implements Request. The whole-sweep key is distinct from
// (and coexists with) the per-cell plan keys.
func (r *SweepRequest) CacheKey() string {
	c := r.clone()
	c.Normalize()
	return cacheKey(c.Kind(), c)
}

// clone deep-copies the request so CacheKey's normalization cannot
// mutate the caller's axis slices.
func (r *SweepRequest) clone() *SweepRequest {
	c := *r
	c.Chips = append([]string(nil), r.Chips...)
	c.Depths = append([]int(nil), r.Depths...)
	c.Coolants = append([]string(nil), r.Coolants...)
	c.ThresholdsC = append([]float64(nil), r.ThresholdsC...)
	return &c
}

// TotalCells is the expansion size, chips × depths × coolants ×
// thresholds.
func (r *SweepRequest) TotalCells() int {
	return len(r.Chips) * len(r.Depths) * len(r.Coolants) * len(r.ThresholdsC)
}

// Cells expands the normalized request into its plan cells in
// canonical order: chips (outer) × depths × coolants × thresholds
// (inner). Every returned PlanRequest is already normalized.
func (r *SweepRequest) Cells() []*PlanRequest {
	out := make([]*PlanRequest, 0, r.TotalCells())
	for _, chip := range r.Chips {
		for _, depth := range r.Depths {
			for _, coolant := range r.Coolants {
				for _, thr := range r.ThresholdsC {
					cell := &PlanRequest{
						Chip: chip, Chips: depth, Coolant: coolant,
						ThresholdC: thr, Flip: r.Flip,
						ConvergeLeakage: r.ConvergeLeakage,
						GridNX:          r.GridNX, GridNY: r.GridNY,
					}
					cell.Normalize()
					out = append(out, cell)
				}
			}
		}
	}
	return out
}

// SweepCell is one cell of a sweep response: the plan outcome plus
// the axis values and cache key identifying it.
type SweepCell struct {
	Chip       string  `json:"chip"`
	Chips      int     `json:"chips"`
	Coolant    string  `json:"coolant"`
	ThresholdC float64 `json:"threshold_c"`
	// Key is the cell's canonical plan cache key — the same key an
	// equivalent /v1/plan request would have.
	Key  string        `json:"key"`
	Plan *PlanResponse `json:"plan"`
}

// SweepResponse is the outcome of a sweep request, cells in canonical
// order (chips × depths × coolants × thresholds).
type SweepResponse struct {
	Cells []SweepCell `json:"cells"`
	// TotalCells counts the cells of the cartesian product; CachedCells
	// counts those answered from the result cache without solving.
	TotalCells  int `json:"total_cells"`
	CachedCells int `json:"cached_cells"`
}

// SweepProgress is the live per-cell progress of a running sweep job,
// surfaced through the async jobs API.
type SweepProgress struct {
	TotalCells  int `json:"total_cells"`
	DoneCells   int `json:"done_cells"`
	CachedCells int `json:"cached_cells"`
}
