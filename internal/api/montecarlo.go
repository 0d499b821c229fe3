package api

import (
	"fmt"
	"sort"

	"waterimm/internal/mc"
)

// MaxMonteCarloCells caps the expansion of a montecarlo request. The
// Saltelli plan needs samples·(params+2) cells, each a full planner
// solve in the worst case, so the cap bounds queue pressure the same
// way MaxSweepCells does for sweeps — just higher, because the whole
// point of the workload is fanning thousands of cache-keyed cells
// through the dedup/cache/shedding machinery.
const MaxMonteCarloCells = 8192

// Perturb applies physical perturbations to one plan cell. Every
// field except AmbientC is a dimensionless scale on the nominal
// value (0 means "leave nominal", 1.0 is an explicit nominal);
// AmbientC is the absolute coolant inlet / ambient temperature in °C
// (0 means the 25 °C default). All values are quantized to 6
// significant digits during normalization so nearby spellings share
// one canonical form.
type Perturb struct {
	// DieK, BondK and TIMK scale the die / bond / TIM layer thermal
	// conductivities (stack.Params).
	DieK  float64 `json:"die_k,omitempty"`
	BondK float64 `json:"bond_k,omitempty"`
	TIMK  float64 `json:"tim_k,omitempty"`
	// H scales the coolant convection (film) coefficient on every
	// wetted surface.
	H float64 `json:"h,omitempty"`
	// PipeH scales the cold-plate pipe coefficient; BoardH scales the
	// board-to-air coefficient.
	PipeH  float64 `json:"pipe_h,omitempty"`
	BoardH float64 `json:"board_h,omitempty"`
	// AmbientC is the absolute coolant inlet temperature in °C.
	AmbientC float64 `json:"ambient_c,omitempty"`
	// PDyn and PStat scale the chip's dynamic and static power.
	PDyn  float64 `json:"p_dyn,omitempty"`
	PStat float64 `json:"p_stat,omitempty"`
}

func (p *Perturb) empty() bool { return *p == Perturb{} }

// scaleFields enumerates the scale-type fields for normalization and
// validation; AmbientC (absolute) is handled separately.
func (p *Perturb) scaleFields() []*float64 {
	return []*float64{&p.DieK, &p.BondK, &p.TIMK, &p.H, &p.PipeH, &p.BoardH, &p.PDyn, &p.PStat}
}

func (p *Perturb) normalize() {
	for _, f := range p.scaleFields() {
		*f = mc.RoundSig(*f, 6)
	}
	p.AmbientC = mc.RoundSig(p.AmbientC, 6)
}

// Scale limits: a conductivity or film coefficient scaled below 1/20
// or above 20× the nominal is outside any plausible uncertainty band
// and mostly probes solver pathologies; ambient must stay above
// freezing-adjacent lab conditions and below the lowest threshold
// the API accepts.
const (
	minScale    = 0.05
	maxScale    = 20.0
	minAmbientC = 5.0
	maxAmbientC = 60.0
)

// Validate reports the first out-of-range field.
func (p *Perturb) Validate() error {
	names := []string{"die_k", "bond_k", "tim_k", "h", "pipe_h", "board_h", "p_dyn", "p_stat"}
	for i, f := range p.scaleFields() {
		if *f != 0 && (*f < minScale || *f > maxScale) {
			return fmt.Errorf("perturb: %s scale must be 0 or in [%g, %g], got %g", names[i], minScale, maxScale, *f)
		}
	}
	if p.AmbientC != 0 && (p.AmbientC < minAmbientC || p.AmbientC > maxAmbientC) {
		return fmt.Errorf("perturb: ambient_c must be 0 or in [%g, %g], got %g", minAmbientC, maxAmbientC, p.AmbientC)
	}
	return nil
}

// mcParam describes one sampleable parameter: where a sampled value
// lands on the Perturb, and the hard clamp window samples are folded
// into before quantization.
type mcParam struct {
	set    func(*Perturb, float64)
	lo, hi float64
}

// mcParams is the montecarlo sampling vocabulary. Keys are the
// distribution-map names a request may use; all but ambient_c are
// scales on the nominal value.
var mcParams = map[string]mcParam{
	"die_k":     {func(p *Perturb, v float64) { p.DieK = v }, minScale, maxScale},
	"bond_k":    {func(p *Perturb, v float64) { p.BondK = v }, minScale, maxScale},
	"tim_k":     {func(p *Perturb, v float64) { p.TIMK = v }, minScale, maxScale},
	"h":         {func(p *Perturb, v float64) { p.H = v }, minScale, maxScale},
	"pipe_h":    {func(p *Perturb, v float64) { p.PipeH = v }, minScale, maxScale},
	"board_h":   {func(p *Perturb, v float64) { p.BoardH = v }, minScale, maxScale},
	"ambient_c": {func(p *Perturb, v float64) { p.AmbientC = v }, minAmbientC, maxAmbientC},
	"p_dyn":     {func(p *Perturb, v float64) { p.PDyn = v }, minScale, maxScale},
	"p_stat":    {func(p *Perturb, v float64) { p.PStat = v }, minScale, maxScale},
}

// MonteCarloRequest asks for an uncertainty sweep: the plan-shaped
// base case is solved under Samples·(len(Params)+2) parameter draws
// (a Saltelli paired plan, see internal/mc), and the cell results are
// reduced to output distributions and per-parameter Sobol indices.
//
// Expansion is deterministic: the same (seed, params, samples) tuple
// produces byte-identical plan cells — and therefore identical cache
// keys — on every engine, so repeat requests are answered from cache
// across users and across router backends.
type MonteCarloRequest struct {
	// Chip, Chips, Coolant, ThresholdC, Flip, ConvergeLeakage, GridNX
	// and GridNY have PlanRequest semantics and defaults; they define
	// the nominal cell every sample perturbs.
	Chip            string  `json:"chip"`
	Chips           int     `json:"chips"`
	Coolant         string  `json:"coolant"`
	ThresholdC      float64 `json:"threshold_c"`
	Flip            bool    `json:"flip"`
	ConvergeLeakage bool    `json:"converge_leakage"`
	GridNX          int     `json:"grid_nx"`
	GridNY          int     `json:"grid_ny"`
	// EvalGHz fixes the VFS step at which every sample's peak
	// temperature is evaluated for the exceedance estimate. Must be a
	// VFS step of the chip; default: the chip's top step.
	EvalGHz float64 `json:"eval_ghz"`
	// ExceedC is the junction-temperature threshold of the exceedance
	// probability P(peak > ExceedC) at the EvalGHz step. Default:
	// ThresholdC.
	ExceedC float64 `json:"exceed_c"`
	// Samples is the Saltelli base sample count N; the request
	// expands into N·(len(Params)+2) cells. Default 128.
	Samples int `json:"samples"`
	// Seed seeds the deterministic sample plan. Default 1.
	Seed int64 `json:"seed"`
	// Params maps parameter names (die_k, bond_k, tim_k, h, pipe_h,
	// board_h, ambient_c, p_dyn, p_stat) to input distributions.
	// All but ambient_c sample a scale on the nominal value;
	// ambient_c samples the absolute inlet temperature in °C.
	// Samples are clamped to the parameter's physical window and
	// quantized to 6 significant digits.
	Params map[string]mc.Dist `json:"params"`
}

// Kind implements Request.
func (r *MonteCarloRequest) Kind() string { return "montecarlo" }

// Normalize implements Request.
func (r *MonteCarloRequest) Normalize() {
	normStack(&r.Chip, "low-power", &r.Chips, &r.Coolant, &r.GridNX, &r.GridNY)
	if r.ThresholdC == 0 {
		r.ThresholdC = 80
	}
	if r.EvalGHz == 0 {
		// Default to the chip's top VFS step — the worst case, and
		// the step the paper's max-frequency claims are about.
		r.EvalGHz = topGHz(r.Chip)
	}
	if r.ExceedC == 0 {
		r.ExceedC = r.ThresholdC
	}
	if r.Samples == 0 {
		r.Samples = 128
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
}

// Validate implements Request.
func (r *MonteCarloRequest) Validate() error {
	chip, err := validStack(r.Chip, r.Chips, r.Coolant, r.GridNX, r.GridNY)
	if err == nil {
		err = validTemp("threshold_c", r.ThresholdC)
	}
	if err == nil {
		err = vfsStep(chip, r.EvalGHz, "eval_ghz %.2f")
	}
	if err == nil {
		err = validTemp("exceed_c", r.ExceedC)
	}
	if err != nil {
		return fmt.Errorf("api: montecarlo: %w", err)
	}
	if r.Samples < 8 || r.Samples > 2048 {
		return fmt.Errorf("api: montecarlo: samples must be in [8, 2048], got %d", r.Samples)
	}
	if r.Seed < 0 {
		return fmt.Errorf("api: montecarlo: seed must be non-negative, got %d", r.Seed)
	}
	if len(r.Params) == 0 {
		return fmt.Errorf("api: montecarlo: params must declare at least one distribution")
	}
	for _, name := range r.ParamNames() {
		spec, ok := mcParams[name]
		if !ok {
			return fmt.Errorf("api: montecarlo: unknown parameter %q (want one of %v)", name, paramVocabulary())
		}
		d := r.Params[name]
		if err := d.Validate(); err != nil {
			return fmt.Errorf("api: montecarlo: params[%s]: %w", name, err)
		}
		// Reject distributions whose entire support misses the
		// parameter's physical window: every sample would clamp to
		// one bound and the parameter would contribute zero variance.
		lo, hi := d.Support()
		if hi < spec.lo || lo > spec.hi {
			return fmt.Errorf("api: montecarlo: params[%s]: support [%g, %g] is outside the physical window [%g, %g]",
				name, lo, hi, spec.lo, spec.hi)
		}
	}
	if cells := r.TotalCells(); cells > MaxMonteCarloCells {
		return fmt.Errorf("api: montecarlo: %d samples over %d params expand to %d cells, exceeding the %d-cell cap",
			r.Samples, len(r.Params), cells, MaxMonteCarloCells)
	}
	return nil
}

// TotalCells is the Saltelli expansion size, samples·(params+2).
func (r *MonteCarloRequest) TotalCells() int {
	return r.Samples * (len(r.Params) + 2)
}

// ParamNames returns the declared parameter names in canonical
// (sorted) order — the column order of the sample plan and of the
// response's Sobol indices.
func (r *MonteCarloRequest) ParamNames() []string {
	names := make([]string, 0, len(r.Params))
	for name := range r.Params {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func paramVocabulary() []string {
	names := make([]string, 0, len(mcParams))
	for name := range mcParams {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// CacheKey implements Request. Params marshal with sorted keys, so
// the canonical encoding — and the key — is order-independent.
func (r *MonteCarloRequest) CacheKey() string {
	c := r.clone()
	c.Normalize()
	return cacheKey(c.Kind(), c)
}

// clone deep-copies the request so CacheKey's normalization cannot
// mutate the caller's distribution map.
func (r *MonteCarloRequest) clone() *MonteCarloRequest {
	c := *r
	if r.Params != nil {
		c.Params = make(map[string]mc.Dist, len(r.Params))
		for k, v := range r.Params {
			c.Params[k] = v
		}
	}
	return &c
}

// Cells expands the normalized request into its per-sample plan
// cells in Saltelli row order (A rows, B rows, then A_B^k per
// parameter in sorted-name order). Every cell is an ordinary
// normalized PlanRequest — it shares the plan cache keyspace, so a
// sample cell, an equivalent /v1/plan request, and the same cell
// from another user's identical montecarlo all dedup onto one
// compute. Expansion is bit-deterministic for a fixed request (see
// internal/mc).
func (r *MonteCarloRequest) Cells() []*PlanRequest {
	names := r.ParamNames()
	dists := make([]mc.Dist, len(names))
	for i, name := range names {
		dists[i] = r.Params[name]
	}
	plan := mc.NewPlan(uint64(r.Seed), dists, r.Samples)
	cells := make([]*PlanRequest, len(plan.Rows))
	for i, row := range plan.Rows {
		p := &Perturb{}
		for k, name := range names {
			spec := mcParams[name]
			v := row[k]
			if v < spec.lo {
				v = spec.lo
			}
			if v > spec.hi {
				v = spec.hi
			}
			spec.set(p, mc.RoundSig(v, 6))
		}
		cell := &PlanRequest{
			Chip: r.Chip, Chips: r.Chips, Coolant: r.Coolant,
			ThresholdC: r.ThresholdC, Flip: r.Flip,
			ConvergeLeakage: r.ConvergeLeakage,
			GridNX:          r.GridNX, GridNY: r.GridNY,
			EvalGHz: r.EvalGHz, Perturb: p,
		}
		cell.Normalize()
		cells[i] = cell
	}
	return cells
}

// MonteCarloSobol carries one parameter's sensitivity indices for
// both outputs.
type MonteCarloSobol struct {
	Param     string   `json:"param"`
	FreqGHz   mc.Sobol `json:"freq_ghz"`
	EvalPeakC mc.Sobol `json:"eval_peak_c"`
}

// MonteCarloResponse is the reduced outcome of a montecarlo request.
type MonteCarloResponse struct {
	// Samples is the Saltelli base count N; Params lists the sampled
	// parameters in plan-column (sorted) order; TotalCells is
	// N·(len(Params)+2).
	Samples    int      `json:"samples"`
	Params     []string `json:"params"`
	TotalCells int      `json:"total_cells"`
	// CachedCells counts cells answered from the result cache;
	// DedupedCells counts cells coalesced onto an in-flight
	// duplicate. TotalCells − CachedCells − DedupedCells cells were
	// actually solved.
	CachedCells  int `json:"cached_cells"`
	DedupedCells int `json:"deduped_cells"`
	// FreqGHz summarizes the max admissible frequency over the 2N
	// independent samples (infeasible samples contribute 0).
	// InfeasibleShare is the fraction of those samples with no
	// admissible step at all.
	FreqGHz         mc.Summary `json:"freq_ghz"`
	InfeasibleShare float64    `json:"infeasible_share"`
	// EvalPeakC summarizes the peak temperature at the fixed EvalGHz
	// step, and ExceedProb estimates P(peak > ExceedC) at that step.
	EvalGHz    float64    `json:"eval_ghz"`
	EvalPeakC  mc.Summary `json:"eval_peak_c"`
	ExceedC    float64    `json:"exceed_c"`
	ExceedProb float64    `json:"exceed_prob"`
	// Sobol lists per-parameter first-order (s1) and total-order
	// (st) indices for both outputs, in Params order.
	Sobol []MonteCarloSobol `json:"sobol"`
}
