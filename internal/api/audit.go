package api

import (
	"fmt"
	"math"
	"sort"

	"waterimm/internal/material"
	"waterimm/internal/power"
)

// MaxAuditCells caps the chips × coolants × years expansion of an
// audit request: every cell is a full planner solve in the worst
// case, so the cap bounds queue pressure like the sweep and
// montecarlo caps do.
const MaxAuditCells = 512

// Audit year window sanity bounds. The span cap keeps the growth
// extrapolation honest — compounding a per-year power-density factor
// over more than a few decades predicts nothing.
const (
	minAuditYear  = 1990
	maxAuditYear  = 2100
	maxAuditYears = 30
)

// AuditRequest asks for a chip roadmap audit: for every (chip,
// coolant) pair, walk the year axis scaling the chip's power density
// by GrowthPerYear^(year−StartYear) and report the first year the
// pair fails — either because the hotspot heat flux crosses the
// coolant's critical-heat-flux limit (the boiling crisis: no film
// coefficient can carry the heat) or because no VFS step holds the
// junction threshold.
//
// Expansion is deterministic: every (chip, coolant, year) cell is a
// canonical perturbed PlanRequest (PDyn = PStat = the year's growth
// factor) sharing the plan cache keyspace — so audit cells, sweep
// cells, montecarlo draws and plain /v1/plan requests all dedup
// onto one compute, and an identical audit resubmitted anywhere in
// the fleet is answered from cache edge-side.
type AuditRequest struct {
	// Chips lists power-model names to audit (aliases accepted).
	// Default ["low-power"]. Duplicates collapse; order is canonical
	// (sorted).
	Chips []string `json:"chips"`
	// Coolants lists coolant names to audit against. Default: every
	// coolant. Duplicates collapse; order is canonical (sorted).
	Coolants []string `json:"coolants"`
	// StartYear anchors the roadmap (growth factor 1). Default 2026.
	StartYear int `json:"start_year"`
	// EndYear is the last audited year, inclusive. Default 2033.
	EndYear int `json:"end_year"`
	// GrowthPerYear compounds the chip's power density per year.
	// Default 1.16 (the ~16 %/year the post-Dennard power-density
	// trend lines show).
	GrowthPerYear float64 `json:"growth_per_year"`
	// ThresholdC, Flip, ConvergeLeakage, GridNX and GridNY have
	// PlanRequest semantics and defaults; they shape every cell.
	ThresholdC      float64 `json:"threshold_c"`
	Flip            bool    `json:"flip"`
	ConvergeLeakage bool    `json:"converge_leakage"`
	GridNX          int     `json:"grid_nx"`
	GridNY          int     `json:"grid_ny"`
}

// Kind implements Request.
func (r *AuditRequest) Kind() string { return "audit" }

// canonicalNames resolves each name through canon (nil keeps names as
// they are), collapses duplicates and sorts, so every spelling of the
// same set shares one canonical form (and one cache key).
func canonicalNames(names []string, canon func(string) string) []string {
	seen := make(map[string]bool, len(names))
	out := make([]string, 0, len(names))
	for _, n := range names {
		if canon != nil {
			n = canon(n)
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// coolantNames lists every coolant, the default coolant axis of
// sweeps and audits.
func coolantNames() []string {
	var names []string
	for _, c := range material.Coolants() {
		names = append(names, c.Name)
	}
	return names
}

// Normalize implements Request.
func (r *AuditRequest) Normalize() {
	if len(r.Chips) == 0 {
		r.Chips = []string{"low-power"}
	}
	r.Chips = canonicalNames(r.Chips, power.CanonicalName)
	if len(r.Coolants) == 0 {
		r.Coolants = coolantNames()
	}
	r.Coolants = canonicalNames(r.Coolants, nil)
	if r.StartYear == 0 {
		r.StartYear = 2026
	}
	if r.EndYear == 0 {
		r.EndYear = 2033
	}
	if r.GrowthPerYear == 0 {
		r.GrowthPerYear = 1.16
	}
	if r.ThresholdC == 0 {
		r.ThresholdC = 80
	}
	if r.GridNX == 0 {
		r.GridNX = 32
	}
	if r.GridNY == 0 {
		r.GridNY = 32
	}
}

// Validate implements Request.
func (r *AuditRequest) Validate() error {
	if len(r.Chips) == 0 {
		return fmt.Errorf("api: audit: chips must name at least one power model")
	}
	for _, name := range r.Chips {
		if _, err := power.ModelByName(name); err != nil {
			return fmt.Errorf("api: audit: %w", err)
		}
	}
	if len(r.Coolants) == 0 {
		return fmt.Errorf("api: audit: coolants must name at least one coolant")
	}
	for _, name := range r.Coolants {
		if _, err := material.ByName(name); err != nil {
			return fmt.Errorf("api: audit: %w", err)
		}
	}
	if r.StartYear < minAuditYear || r.StartYear > maxAuditYear {
		return fmt.Errorf("api: audit: start_year must be in [%d, %d], got %d", minAuditYear, maxAuditYear, r.StartYear)
	}
	if r.EndYear < r.StartYear {
		return fmt.Errorf("api: audit: end_year %d before start_year %d", r.EndYear, r.StartYear)
	}
	if span := r.EndYear - r.StartYear + 1; span > maxAuditYears {
		return fmt.Errorf("api: audit: %d-year span exceeds the %d-year cap", span, maxAuditYears)
	}
	if r.GrowthPerYear <= 0 {
		return fmt.Errorf("api: audit: growth_per_year must be positive, got %g", r.GrowthPerYear)
	}
	// Every year's power scale must land inside the perturbation
	// window the plan cells accept; the extreme year is the binding
	// one on both sides (growth above or below 1).
	endScale := math.Pow(r.GrowthPerYear, float64(r.EndYear-r.StartYear))
	if endScale < minScale || endScale > maxScale {
		return fmt.Errorf("api: audit: growth %g compounds to a %g power scale by %d, outside [%g, %g]",
			r.GrowthPerYear, endScale, r.EndYear, minScale, maxScale)
	}
	if err := validTemp("threshold_c", r.ThresholdC); err != nil {
		return fmt.Errorf("api: audit: %w", err)
	}
	if err := validGrid(r.GridNX, r.GridNY); err != nil {
		return fmt.Errorf("api: audit: %w", err)
	}
	if cells := r.TotalCells(); cells > MaxAuditCells {
		return fmt.Errorf("api: audit: %d chips × %d coolants × %d years expand to %d cells, exceeding the %d-cell cap",
			len(r.Chips), len(r.Coolants), r.EndYear-r.StartYear+1, cells, MaxAuditCells)
	}
	return nil
}

// TotalCells is the expansion size, chips × coolants × years.
func (r *AuditRequest) TotalCells() int {
	return len(r.Chips) * len(r.Coolants) * (r.EndYear - r.StartYear + 1)
}

// CacheKey implements Request.
func (r *AuditRequest) CacheKey() string {
	c := *r
	c.Chips = append([]string(nil), r.Chips...)
	c.Coolants = append([]string(nil), r.Coolants...)
	c.Normalize()
	return cacheKey(c.Kind(), &c)
}

// YearScale returns the power-density growth factor of one audited
// year, quantized exactly as the expanded cells quantize it.
func (r *AuditRequest) YearScale(year int) float64 {
	return roundSig6(math.Pow(r.GrowthPerYear, float64(year-r.StartYear)))
}

// Cells expands the normalized request into its per-(chip, coolant,
// year) plan cells in canonical order: chips × coolants × years,
// years innermost. Every cell is an ordinary normalized perturbed
// PlanRequest — PDyn and PStat carry the year's compounded power
// density, EvalGHz pins the chip's top VFS step so the cell reports
// the peak temperature even when infeasible. Year 0's scale of 1 is
// an explicit nominal (Perturb{PDyn: 1, PStat: 1} is not empty), so
// every cell of an audit takes the same perturbed execution path.
func (r *AuditRequest) Cells() []*PlanRequest {
	cells := make([]*PlanRequest, 0, r.TotalCells())
	for _, chipName := range r.Chips {
		evalGHz := topGHz(chipName)
		for _, coolant := range r.Coolants {
			for year := r.StartYear; year <= r.EndYear; year++ {
				scale := r.YearScale(year)
				cell := &PlanRequest{
					Chip: chipName, Chips: 1, Coolant: coolant,
					ThresholdC: r.ThresholdC, Flip: r.Flip,
					ConvergeLeakage: r.ConvergeLeakage,
					GridNX:          r.GridNX, GridNY: r.GridNY,
					EvalGHz: evalGHz,
					Perturb: &Perturb{PDyn: scale, PStat: scale},
				}
				cell.Normalize()
				cells = append(cells, cell)
			}
		}
	}
	return cells
}

// roundSig6 matches Perturb.normalize's 6-significant-digit
// quantization, so YearScale agrees bit-for-bit with the scale the
// expanded cell carries.
func roundSig6(v float64) float64 {
	p := &Perturb{PDyn: v}
	p.normalize()
	return p.PDyn
}

// AuditYear is one audited year of one (chip, coolant) pair.
type AuditYear struct {
	Year int `json:"year"`
	// Scale is the compounded power-density factor of this year.
	Scale float64 `json:"scale"`
	// Feasible, FrequencyGHz and EvalPeakC mirror the year's plan
	// cell: is any VFS step admissible, the fastest admissible
	// frequency, and the peak temperature at the chip's top step.
	Feasible     bool    `json:"feasible"`
	FrequencyGHz float64 `json:"frequency_ghz,omitempty"`
	EvalPeakC    float64 `json:"eval_peak_c,omitempty"`
	// HotspotWCM2 is the year's peak die power density in W/cm²;
	// CHFLimitWCM2 is the coolant's boiling limit (0 = cannot boil);
	// CHFExceeded marks the boiling crisis.
	HotspotWCM2  float64 `json:"hotspot_w_cm2,omitempty"`
	CHFLimitWCM2 float64 `json:"chf_limit_w_cm2,omitempty"`
	CHFExceeded  bool    `json:"chf_exceeded,omitempty"`
	// FilmBoilingCells counts solver-side film-boiling cells, when
	// the two-phase re-solve engaged.
	FilmBoilingCells int `json:"film_boiling_cells,omitempty"`
}

// AuditRow is the audited year series of one (chip, coolant) pair
// with its first-failure summary. Years are 0 when the pair never
// fails that way inside the window.
type AuditRow struct {
	Chip    string      `json:"chip"`
	Coolant string      `json:"coolant"`
	Years   []AuditYear `json:"years"`
	// FirstCHFFailYear is the first year the hotspot flux crosses
	// the coolant's CHF limit; FirstThermalFailYear is the first
	// year no VFS step holds the threshold; FirstFailYear is the
	// earlier of the two.
	FirstCHFFailYear     int `json:"first_chf_fail_year,omitempty"`
	FirstThermalFailYear int `json:"first_thermal_fail_year,omitempty"`
	FirstFailYear        int `json:"first_fail_year,omitempty"`
}

// AuditResponse is the outcome of an audit request: one row per
// (chip, coolant) pair in canonical order.
type AuditResponse struct {
	Rows          []AuditRow `json:"rows"`
	StartYear     int        `json:"start_year"`
	EndYear       int        `json:"end_year"`
	GrowthPerYear float64    `json:"growth_per_year"`
	TotalCells    int        `json:"total_cells"`
	// CachedCells counts cells answered from the result cache;
	// DedupedCells counts cells coalesced onto an in-flight
	// duplicate.
	CachedCells  int `json:"cached_cells"`
	DedupedCells int `json:"deduped_cells"`
}
