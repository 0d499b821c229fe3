package api

import "fmt"

// CosimStreamRequest asks for an interval-coupled co-simulation served
// as a long-running streaming job (kind "cosimstream"): a utilisation
// trace drives the transient stack model one coupling interval at a
// time, per-interval results are pushed to the client over SSE, and
// the engine checkpoints the stepper state so a drained or killed
// backend resumes mid-simulation instead of recomputing from cold.
type CosimStreamRequest struct {
	// Chip is a power model name: low-power (lp), high-frequency
	// (hf), e5, phi. Default high-frequency.
	Chip string `json:"chip"`
	// Chips is the stack depth. Default 1.
	Chips int `json:"chips"`
	// Coolant is a coolant name. Default water.
	Coolant string `json:"coolant"`
	// GHz is the initial frequency; it must be a VFS step of the
	// chip. Default 3.6.
	GHz float64 `json:"ghz"`
	// IntervalS is the coupling period in simulated seconds.
	// Default 0.01 (a 10 ms governor control period).
	IntervalS float64 `json:"interval_s"`
	// Intervals is the run length in coupling periods. Default 512.
	Intervals int `json:"intervals"`
	// SubSteps integrates the thermal model this many backward-Euler
	// steps per interval. Default 2.
	SubSteps int `json:"sub_steps"`
	// Trace is the utilisation trace, cycled over the run; empty
	// means a steady full load.
	Trace []CosimStreamPhase `json:"trace,omitempty"`
	// DTMSetpointC enables the hysteresis DVFS governor with this
	// setpoint; 0 leaves the governor off.
	DTMSetpointC float64 `json:"dtm_setpoint_c"`
	// DTMHysteresisC is the governor dead band; defaults to 2 when
	// the governor is enabled.
	DTMHysteresisC float64 `json:"dtm_hysteresis_c"`
	// GridNX and GridNY set the thermal grid resolution. Default 32.
	GridNX int `json:"grid_nx"`
	GridNY int `json:"grid_ny"`
	// CheckpointEvery spills the stream's resumable state to the
	// disk cache every this many intervals. Default 64. It is part
	// of the cache key deliberately: it changes nothing about the
	// response, but folding it away would make two requests with
	// different durability promises share a key.
	CheckpointEvery int `json:"checkpoint_every"`
	// MaxSamples caps the Series of the final response; longer runs
	// are decimated evenly. The live SSE feed is never decimated.
	// Default 256.
	MaxSamples int `json:"max_samples"`
}

// CosimStreamPhase is one segment of the utilisation trace.
type CosimStreamPhase struct {
	// DurationS is the phase length in simulated seconds.
	DurationS float64 `json:"duration_s"`
	// Utilisation duty-cycles the dynamic power in [0, 1].
	Utilisation float64 `json:"utilisation"`
}

// Kind implements Request.
func (r *CosimStreamRequest) Kind() string { return "cosimstream" }

// Normalize implements Request.
func (r *CosimStreamRequest) Normalize() {
	normStack(&r.Chip, "high-frequency", &r.Chips, &r.Coolant, &r.GridNX, &r.GridNY)
	if r.GHz == 0 {
		r.GHz = 3.6
	}
	if r.IntervalS == 0 {
		r.IntervalS = 0.01
	}
	if r.Intervals == 0 {
		r.Intervals = 512
	}
	if r.SubSteps == 0 {
		r.SubSteps = 2
	}
	if r.DTMSetpointC > 0 && r.DTMHysteresisC == 0 {
		r.DTMHysteresisC = 2
	}
	if r.CheckpointEvery <= 0 {
		r.CheckpointEvery = 64
	}
	if r.MaxSamples <= 0 {
		r.MaxSamples = 256
	}
}

// Validate implements Request.
func (r *CosimStreamRequest) Validate() error {
	chip, err := validStack(r.Chip, r.Chips, r.Coolant, r.GridNX, r.GridNY)
	if err == nil {
		err = vfsStep(chip, r.GHz, "%.2f GHz")
	}
	if err != nil {
		return fmt.Errorf("api: cosimstream: %w", err)
	}
	if r.IntervalS <= 0 || r.IntervalS > 1 {
		return fmt.Errorf("api: cosimstream: interval_s must be in (0, 1], got %g", r.IntervalS)
	}
	if r.Intervals < 1 || r.Intervals > 100_000 {
		return fmt.Errorf("api: cosimstream: intervals must be in [1, 100000], got %d", r.Intervals)
	}
	if r.SubSteps < 1 || r.SubSteps > 64 {
		return fmt.Errorf("api: cosimstream: sub_steps must be in [1, 64], got %d", r.SubSteps)
	}
	if len(r.Trace) > 64 {
		return fmt.Errorf("api: cosimstream: trace has %d phases, max 64", len(r.Trace))
	}
	for i, p := range r.Trace {
		if p.DurationS <= 0 || p.DurationS > 3600 {
			return fmt.Errorf("api: cosimstream: trace phase %d duration_s must be in (0, 3600], got %g", i, p.DurationS)
		}
		if p.Utilisation < 0 || p.Utilisation > 1 {
			return fmt.Errorf("api: cosimstream: trace phase %d utilisation must be in [0, 1], got %g", i, p.Utilisation)
		}
	}
	if r.DTMSetpointC != 0 && (r.DTMSetpointC <= 25 || r.DTMSetpointC > 200) {
		return fmt.Errorf("api: cosimstream: dtm_setpoint_c must be 0 (off) or in (25, 200], got %g", r.DTMSetpointC)
	}
	if r.DTMHysteresisC < 0 {
		return fmt.Errorf("api: cosimstream: negative dtm_hysteresis_c")
	}
	if r.CheckpointEvery < 1 || r.CheckpointEvery > 100_000 {
		return fmt.Errorf("api: cosimstream: checkpoint_every must be in [1, 100000], got %d", r.CheckpointEvery)
	}
	if r.MaxSamples < 1 || r.MaxSamples > 100_000 {
		return fmt.Errorf("api: cosimstream: max_samples must be in [1, 100000], got %d", r.MaxSamples)
	}
	return nil
}

// CacheKey implements Request.
func (r *CosimStreamRequest) CacheKey() string {
	c := *r
	c.Trace = append([]CosimStreamPhase(nil), r.Trace...)
	c.Normalize()
	return cacheKey(c.Kind(), &c)
}

// CosimStreamInterval is one interval of the live feed: the SSE data
// payload of an "interval" event, and the element type of the final
// response's Series. Seq is 1-based and contiguous; a job resumed
// from a checkpoint continues the interrupted numbering.
type CosimStreamInterval struct {
	Seq         int     `json:"seq"`
	TimeS       float64 `json:"time_s"`
	GHz         float64 `json:"ghz"`
	PeakC       float64 `json:"peak_c"`
	DynamicW    float64 `json:"dynamic_w"`
	StaticW     float64 `json:"static_w"`
	Utilisation float64 `json:"utilisation"`
	// Throttled marks intervals after which the governor stepped the
	// frequency down.
	Throttled bool `json:"throttled,omitempty"`
}

// CosimStreamResponse is the final (cacheable) outcome of a
// cosimstream job. It is deterministic — a run resumed from a
// checkpoint produces a byte-identical response to an uninterrupted
// one — so identical requests are re-served from every cache tier.
type CosimStreamResponse struct {
	// Intervals is the undecimated run length.
	Intervals int `json:"intervals"`
	// Seconds is the simulated time covered.
	Seconds float64 `json:"seconds"`
	// MaxPeakC is the hottest instant.
	MaxPeakC float64 `json:"max_peak_c"`
	// MeanGHz is the time-average frequency.
	MeanGHz float64 `json:"mean_ghz"`
	// Throttles counts downward DVFS steps.
	Throttles int `json:"throttles"`
	// Series is the (decimated) trace.
	Series []CosimStreamInterval `json:"series,omitempty"`
}
