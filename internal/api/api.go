package api

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"waterimm/internal/material"
	"waterimm/internal/npb"
	"waterimm/internal/power"
)

// SchemaVersion tags the canonical encoding; bump it whenever a
// field is added, renamed, or a default changes, so stale cache
// entries from older schema generations can never be returned.
//
// v2: added the sweep request kind and the grid node budget
// (gridNodeBudget) that plan and cosim validation now enforce.
//
// v3: added the montecarlo request kind, the job envelope
// (POST /v1/jobs with a type discriminator), and the optional
// perturb/eval_ghz fields on plan requests. The new plan fields are
// omitempty and absent from every previously reachable request, so
// the canonical encodings of all v2 requests are byte-identical —
// the per-kind key generations below therefore stay at 2 for
// plan/cosim/sweep and no deployed cache entry is invalidated
// (TestCacheKeysFrozen pins the exact keys).
//
// v4: added the audit request kind (chip-roadmap CHF audit, its own
// key generation 4) and the CHF/film-boiling response fields on
// PlanResponse. Response fields are not part of any cache key, and no
// existing kind's canonical request encoding changed, so every prior
// generation — and therefore every deployed cache entry — stays
// valid; CacheGeneration holds at 2.
//
// v5: added the cosimstream request kind (resumable streaming
// co-simulation, its own key generation 5). No existing kind's
// canonical encoding changed — every earlier per-kind generation and
// every deployed cache entry stays valid; CacheGeneration holds at 2.
const SchemaVersion = 5

// CacheGeneration is the result-store envelope generation the
// daemons pass to rcache.Open. It is deliberately decoupled from
// SchemaVersion: the store deletes entries written under any other
// generation, so this constant bumps only when deployed cache
// entries must actually be invalidated. The v3 schema added a new
// kind without changing any existing kind's canonical encoding, so
// deployed stores stay valid.
const CacheGeneration = 2

// keyGeneration returns the schema generation hashed into a kind's
// cache-key prefix. A kind's generation is bumped only when that
// kind's canonical encoding actually changes; kinds whose encodings
// are untouched keep their generation — and therefore their deployed
// cache entries — across a SchemaVersion bump.
func keyGeneration(kind string) int {
	switch kind {
	case "plan", "cosim", "sweep":
		return 2
	case "montecarlo":
		return 3
	case "audit":
		return 4
	case "cosimstream":
		return 5
	}
	panic(fmt.Sprintf("api: no key generation for kind %q", kind))
}

// Request is the common surface of the service's request kinds.
type Request interface {
	// Kind returns "plan", "cosim", "sweep", "montecarlo", "audit"
	// or "cosimstream".
	Kind() string
	// Normalize fills defaults and resolves aliases in place.
	Normalize()
	// Validate reports the first invalid field. Callers should
	// Normalize first; Validate does not apply defaults.
	Validate() error
	// CacheKey returns the canonical SHA-256 hex key of the
	// normalized request. It does not mutate the receiver.
	CacheKey() string
}

// chipAlias maps the short chip spellings the CLIs accept onto the
// canonical power.Model names.
var chipAlias = map[string]string{
	"lp": "low-power", "hf": "high-frequency",
}

// PlanRequest asks for the maximum temperature-constrained operating
// frequency of a chip stack under a coolant (core.Planner).
type PlanRequest struct {
	// Chip is a power model name: low-power (lp), high-frequency
	// (hf), e5, phi. Default low-power.
	Chip string `json:"chip"`
	// Chips is the stack depth. Default 1.
	Chips int `json:"chips"`
	// Coolant is a material coolant name: air, water-pipe,
	// mineral-oil, fluorinert, water. Default water.
	Coolant string `json:"coolant"`
	// ThresholdC is the junction temperature limit. Default 80.
	ThresholdC float64 `json:"threshold_c"`
	// Flip rotates every odd die by 180° (thermal-aware stacking).
	Flip bool `json:"flip"`
	// ConvergeLeakage iterates the leakage↔temperature fixed point
	// instead of assuming worst-case leakage at the threshold.
	ConvergeLeakage bool `json:"converge_leakage"`
	// GridNX and GridNY set the thermal grid resolution. Default 32.
	GridNX int `json:"grid_nx"`
	GridNY int `json:"grid_ny"`
	// EvalGHz, when non-zero, additionally evaluates the steady-state
	// peak temperature at this fixed VFS step (whether or not the
	// step is admissible) and reports it as PlanResponse.EvalPeakC —
	// the per-sample observable behind the montecarlo workload's
	// exceedance probability. Must be a VFS step of the chip.
	//
	// EvalGHz and Perturb are omitempty: absent they encode exactly
	// as the v2 schema did, so pre-existing plan cache keys are
	// unchanged (see keyGeneration).
	EvalGHz float64 `json:"eval_ghz,omitempty"`
	// Perturb applies physical-parameter perturbations to the cell;
	// nil means the nominal stack.
	Perturb *Perturb `json:"perturb,omitempty"`
}

// Kind implements Request.
func (r *PlanRequest) Kind() string { return "plan" }

// Normalize implements Request.
func (r *PlanRequest) Normalize() {
	if r.Chip == "" {
		r.Chip = "low-power"
	}
	if full, ok := chipAlias[r.Chip]; ok {
		r.Chip = full
	}
	if r.Chips == 0 {
		r.Chips = 1
	}
	if r.Coolant == "" {
		r.Coolant = "water"
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
	if r.Perturb != nil {
		if r.Perturb.empty() {
			// {"perturb": {}} and an absent perturb are the same
			// request; fold them onto one canonical form.
			r.Perturb = nil
		} else {
			r.Perturb.normalize()
		}
	}
}

// Validate implements Request.
func (r *PlanRequest) Validate() error {
	chip, err := power.ModelByName(r.Chip)
	if err != nil {
		return fmt.Errorf("api: plan: %w", err)
	}
	if r.EvalGHz != 0 {
		onStep := false
		for _, s := range chip.Steps() {
			if s.FHz == r.EvalGHz*1e9 {
				onStep = true
				break
			}
		}
		if !onStep {
			return fmt.Errorf("api: plan: eval_ghz %.2f is not a VFS step of %s", r.EvalGHz, chip.Name)
		}
	}
	if r.Perturb != nil {
		if err := r.Perturb.Validate(); err != nil {
			return fmt.Errorf("api: plan: %w", err)
		}
	}
	if _, err := material.ByName(r.Coolant); err != nil {
		return fmt.Errorf("api: plan: %w", err)
	}
	if r.Chips < 1 || r.Chips > 32 {
		return fmt.Errorf("api: plan: chips must be in [1, 32], got %d", r.Chips)
	}
	if r.ThresholdC <= 25 || r.ThresholdC > 200 {
		return fmt.Errorf("api: plan: threshold_c must be in (25, 200], got %g", r.ThresholdC)
	}
	if err := validGrid(r.GridNX, r.GridNY); err != nil {
		return fmt.Errorf("api: plan: %w", err)
	}
	if err := validGridLoad(r.GridNX, r.GridNY, r.Chips); err != nil {
		return fmt.Errorf("api: plan: %w", err)
	}
	return nil
}

// CacheKey implements Request.
func (r *PlanRequest) CacheKey() string {
	c := *r
	if r.Perturb != nil {
		p := *r.Perturb
		c.Perturb = &p
	}
	c.Normalize()
	return cacheKey(c.Kind(), &c)
}

// PlanResponse is the outcome of a plan request.
type PlanResponse struct {
	// Feasible is false when even the slowest VFS step violates the
	// threshold; the remaining fields are then zero.
	Feasible bool `json:"feasible"`
	// FrequencyGHz is the fastest admissible frequency.
	FrequencyGHz float64 `json:"frequency_ghz"`
	// VoltageV is the supply voltage of the chosen VFS step.
	VoltageV float64 `json:"voltage_v"`
	// PeakC is the steady-state peak temperature at that step.
	PeakC float64 `json:"peak_c"`
	// ChipPowerW is the chosen step's per-chip power at the
	// reference temperature.
	ChipPowerW float64 `json:"chip_power_w"`
	// DiePeaksC lists the peak temperature of each die layer, bottom
	// to top, at the chosen step.
	DiePeaksC []float64 `json:"die_peaks_c,omitempty"`
	// EvalPeakC is the steady-state peak temperature at the request's
	// fixed EvalGHz step; only present when eval_ghz was set. Unlike
	// the fields above it is reported even for infeasible plans — the
	// montecarlo exceedance estimate needs the temperature of every
	// sample, including the ones whose stack cannot hold the
	// threshold at any step.
	EvalPeakC float64 `json:"eval_peak_c,omitempty"`

	// Two-phase physics (all omitempty: responses for non-boiling
	// coolants and pre-CHF operating points look exactly as before).

	// HotspotWCM2 is the generation-side hotspot power density in
	// W/cm²: the die's hottest floorplan cell at the evaluated step
	// (EvalGHz when set, else the chosen step). 0 when no step was
	// evaluated (infeasible plan without eval_ghz).
	HotspotWCM2 float64 `json:"hotspot_w_cm2,omitempty"`
	// CHFLimitWCM2 is the coolant's critical-heat-flux limit in
	// W/cm² (Zuber pool boiling, or the flow-enhanced limit for the
	// pumped loop); 0 when the coolant cannot boil (air).
	CHFLimitWCM2 float64 `json:"chf_limit_w_cm2,omitempty"`
	// CHFExceeded reports that the hotspot power density exceeds the
	// coolant's CHF limit — the heat cannot leave the die through
	// that fluid at any film coefficient.
	CHFExceeded bool `json:"chf_exceeded,omitempty"`
	// FilmBoilingCells counts boundary cells that collapsed into the
	// film-boiling regime during the solver-side two-phase re-solve;
	// 0 whenever the field stays below CHF (the common case).
	FilmBoilingCells int `json:"film_boiling_cells,omitempty"`
}

// CosimRequest asks for an activity-driven performance↔thermal
// co-simulation (cosim.Run).
type CosimRequest struct {
	// Benchmark is an NPB kernel name (bt cg ep ft is lu mg sp ua).
	// Default ep.
	Benchmark string `json:"benchmark"`
	// Chip is a power model name; only the CMP models carry the
	// full-system configuration. Default high-frequency.
	Chip string `json:"chip"`
	// Chips is the stack depth. Default 1.
	Chips int `json:"chips"`
	// Coolant is a coolant name. Default water.
	Coolant string `json:"coolant"`
	// GHz is the initial (and uncore) frequency; it must be a VFS
	// step of the chip. Default 3.6.
	GHz float64 `json:"ghz"`
	// Scale shrinks the NPB problem class. Default 0.3.
	Scale float64 `json:"scale"`
	// Seed seeds the synthetic workload streams. Default 1.
	Seed int64 `json:"seed"`
	// IntervalS is the thermal coupling period in simulated seconds.
	// Default 100e-6.
	IntervalS float64 `json:"interval_s"`
	// DurationS loops the workload for this much simulated time;
	// 0 runs a single pass. Default 0.
	DurationS float64 `json:"duration_s"`
	// DVFSSetpointC enables the DVFS governor with this setpoint;
	// 0 leaves the governor off.
	DVFSSetpointC float64 `json:"dvfs_setpoint_c"`
	// DVFSHysteresisC is the governor hysteresis band; defaults to 1
	// when the governor is enabled.
	DVFSHysteresisC float64 `json:"dvfs_hysteresis_c"`
	// GridNX and GridNY set the thermal grid resolution. Default 32.
	GridNX int `json:"grid_nx"`
	GridNY int `json:"grid_ny"`
	// MaxSamples caps the returned time series; longer traces are
	// decimated evenly. Default 256. The cap is part of the cache
	// key (it changes the response payload).
	MaxSamples int `json:"max_samples"`
}

// Kind implements Request.
func (r *CosimRequest) Kind() string { return "cosim" }

// Normalize implements Request.
func (r *CosimRequest) Normalize() {
	if r.Benchmark == "" {
		r.Benchmark = "ep"
	}
	if r.Chip == "" {
		r.Chip = "high-frequency"
	}
	if full, ok := chipAlias[r.Chip]; ok {
		r.Chip = full
	}
	if r.Chips == 0 {
		r.Chips = 1
	}
	if r.Coolant == "" {
		r.Coolant = "water"
	}
	if r.GHz == 0 {
		r.GHz = 3.6
	}
	if r.Scale == 0 {
		r.Scale = 0.3
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.IntervalS == 0 {
		r.IntervalS = 100e-6
	}
	if r.DVFSSetpointC > 0 && r.DVFSHysteresisC == 0 {
		r.DVFSHysteresisC = 1
	}
	if r.GridNX == 0 {
		r.GridNX = 32
	}
	if r.GridNY == 0 {
		r.GridNY = 32
	}
	// Non-positive means "default": 0 is the zero value of an omitted
	// field, and a negative cap is meaningless — before this clamp it
	// slipped through to the decimation step, where a negative make()
	// length panics the worker. Clamping (rather than rejecting)
	// keeps 0-as-default semantics uniform with every other field.
	if r.MaxSamples <= 0 {
		r.MaxSamples = 256
	}
}

// Validate implements Request.
func (r *CosimRequest) Validate() error {
	if _, err := npb.ByName(r.Benchmark); err != nil {
		return fmt.Errorf("api: cosim: %w", err)
	}
	chip, err := power.ModelByName(r.Chip)
	if err != nil {
		return fmt.Errorf("api: cosim: %w", err)
	}
	// cosim.Run requires the frequency to land exactly on a VFS step
	// (the governor walks the discrete table), so mirror that check
	// here and fail at validation time rather than at run time.
	onStep := false
	for _, s := range chip.Steps() {
		if s.FHz == r.GHz*1e9 {
			onStep = true
			break
		}
	}
	if !onStep {
		return fmt.Errorf("api: cosim: %.2f GHz is not a VFS step of %s", r.GHz, chip.Name)
	}
	if _, err := material.ByName(r.Coolant); err != nil {
		return fmt.Errorf("api: cosim: %w", err)
	}
	if r.Chips < 1 || r.Chips > 32 {
		return fmt.Errorf("api: cosim: chips must be in [1, 32], got %d", r.Chips)
	}
	if r.Scale <= 0 || r.Scale > 10 {
		return fmt.Errorf("api: cosim: scale must be in (0, 10], got %g", r.Scale)
	}
	if r.IntervalS <= 0 || r.IntervalS > 1 {
		return fmt.Errorf("api: cosim: interval_s must be in (0, 1], got %g", r.IntervalS)
	}
	if r.DurationS < 0 || r.DurationS > 60 {
		return fmt.Errorf("api: cosim: duration_s must be in [0, 60], got %g", r.DurationS)
	}
	if r.DurationS > 0 && r.DurationS/r.IntervalS > 200_000 {
		return fmt.Errorf("api: cosim: duration_s/interval_s = %.0f intervals exceeds the 200000 cap",
			r.DurationS/r.IntervalS)
	}
	if r.DVFSSetpointC < 0 || r.DVFSHysteresisC < 0 {
		return fmt.Errorf("api: cosim: negative DVFS parameters")
	}
	if err := validGrid(r.GridNX, r.GridNY); err != nil {
		return fmt.Errorf("api: cosim: %w", err)
	}
	if err := validGridLoad(r.GridNX, r.GridNY, r.Chips); err != nil {
		return fmt.Errorf("api: cosim: %w", err)
	}
	if r.MaxSamples < 1 || r.MaxSamples > 100_000 {
		return fmt.Errorf("api: cosim: max_samples must be in [1, 100000], got %d", r.MaxSamples)
	}
	return nil
}

// CacheKey implements Request.
func (r *CosimRequest) CacheKey() string {
	c := *r
	c.Normalize()
	return cacheKey(c.Kind(), &c)
}

// CosimSample is one (possibly decimated) point of the trace.
type CosimSample struct {
	TimeS    float64 `json:"time_s"`
	GHz      float64 `json:"ghz"`
	PeakC    float64 `json:"peak_c"`
	DynamicW float64 `json:"dynamic_w"`
	StaticW  float64 `json:"static_w"`
	GIPS     float64 `json:"gips"`
}

// CosimResponse is the outcome of a cosim request.
type CosimResponse struct {
	// Seconds is the simulated execution time.
	Seconds float64 `json:"seconds"`
	// Iterations counts completed workload passes in looped mode.
	Iterations int `json:"iterations"`
	// MaxPeakC is the hottest transient instant.
	MaxPeakC float64 `json:"max_peak_c"`
	// SteadyPlannerPeakC is the static methodology's worst case for
	// the same operating point, for comparison.
	SteadyPlannerPeakC float64 `json:"steady_planner_peak_c"`
	// Throttles counts downward DVFS steps.
	Throttles int `json:"throttles"`
	// MeanGHz is the time-average core frequency.
	MeanGHz float64 `json:"mean_ghz"`
	// Intervals is the undecimated trace length.
	Intervals int `json:"intervals"`
	// Series is the (decimated) trace.
	Series []CosimSample `json:"series,omitempty"`
}

func validGrid(nx, ny int) error {
	if nx < 4 || nx > 256 || ny < 4 || ny > 256 {
		return fmt.Errorf("grid %dx%d out of range [4, 256]", nx, ny)
	}
	return nil
}

// gridNodeBudget caps nx·ny·chips. The per-axis grid bounds alone do
// not stop a request from assembling an enormous sparse system; the
// budget bounds the per-job memory. At the cap, a 256×256×8-chip
// stack is 256·256·(2·8+2) ≈ 1.2 M unknowns: ~7 CSR entries per row
// (≈ 100 MB matrix) plus solver vectors (~60 MB) plus the multigrid
// hierarchy (seven-point coarse operators total ≈ 0.33× the fine
// matrix, ≈ 32 MB; the bilinear transfers P and Pᵀ ≈ 110 MB) —
// roughly 300 MB per concurrent job, which one worker can hold
// comfortably. The budget is 4× the previous 128·128·8
// because multigrid preconditioning makes the CG iteration count
// grid-independent: a 256-per-axis solve now costs about as many
// iterations as a 64-per-axis one did under Jacobi. Validation
// limits are not part of the canonical request encoding, so raising
// the budget does not move any cache key (see SchemaVersion).
const gridNodeBudget = 256 * 256 * 8

func validGridLoad(nx, ny, chips int) error {
	if nx*ny*chips > gridNodeBudget {
		return fmt.Errorf("grid %dx%d with %d chips exceeds the %d-cell-layer budget (reduce the grid or the stack depth)",
			nx, ny, chips, gridNodeBudget)
	}
	return nil
}

// cacheKey hashes the canonical encoding of a normalized request.
// The prefix carries the kind's key generation (not SchemaVersion
// itself), so bumping the schema for one kind cannot wipe the
// deployed cache entries of the others.
func cacheKey(kind string, normalized any) string {
	b, err := json.Marshal(normalized)
	if err != nil {
		// Request types hold only plain scalars; Marshal cannot fail.
		panic(fmt.Sprintf("api: canonical marshal of %s request: %v", kind, err))
	}
	h := sha256.New()
	fmt.Fprintf(h, "waterimm/v%d/%s\x00", keyGeneration(kind), kind)
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}
