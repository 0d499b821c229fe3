package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"waterimm/internal/api"
	"waterimm/internal/mc"
	"waterimm/internal/service"
)

// refs are stored reference outputs the benchmark checks answers
// against. Regenerate them, from perfbench/, with
//
//	go run . -regen-refs
//
// after a change that is meant to move the physics.
type refs struct {
	// Canaries lists plan canaries per interactive client.
	Canaries   [icClients][]planRef `json:"canaries"`
	MonteCarlo mcRef                `json:"montecarlo"`
	Stream     streamRef            `json:"stream"`
	Cosim      cosimRef             `json:"cosim"`
}

//go:embed refs.json
var refsJSON []byte

// loadRefs decodes the stored references and checks they were made for
// the requests the workloads send today.
func loadRefs() (*refs, error) {
	var r refs
	if err := json.Unmarshal(refsJSON, &r); err != nil {
		return nil, fmt.Errorf("stored references: %w", err)
	}
	want := refs{MonteCarlo: mcRef{Req: *mcCanaryRequest()}, Stream: streamRef{Req: *streamCanaryRequest()}, Cosim: cosimRef{Req: *cosimCanaryRequest()}}
	got := refs{MonteCarlo: mcRef{Req: r.MonteCarlo.Req}, Stream: streamRef{Req: r.Stream.Req}, Cosim: cosimRef{Req: r.Cosim.Req}}
	for c := range want.Canaries {
		for i, req := range canaryPlans(c) {
			want.Canaries[c] = append(want.Canaries[c], planRef{Req: req})
			if i < len(r.Canaries[c]) {
				got.Canaries[c] = append(got.Canaries[c], planRef{Req: r.Canaries[c][i].Req})
			}
		}
	}
	a, err := json.Marshal(&want)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(&got)
	if err != nil {
		return nil, err
	}
	if string(a) != string(b) {
		return nil, fmt.Errorf("stored references were made for other requests; regenerate refs.json")
	}
	return &r, nil
}

// Tolerances: frequencies are VFS steps and must match exactly;
// temperatures may move within the solver's convergence tolerance.
const (
	tolPeakC  = 1e-3
	tolStat   = 1e-6
	tolMeanHz = 1e-9
)

type planRef struct {
	Req          api.PlanRequest `json:"req"`
	Feasible     bool            `json:"feasible"`
	FrequencyGHz float64         `json:"frequency_ghz"`
	PeakC        float64         `json:"peak_c"`
}

func (p planRef) check(resp *api.PlanResponse) error {
	if resp.Feasible != p.Feasible || resp.FrequencyGHz != p.FrequencyGHz || math.Abs(resp.PeakC-p.PeakC) > tolPeakC {
		return fmt.Errorf("answered feasible=%v %g GHz %g °C, reference feasible=%v %g GHz %g °C",
			resp.Feasible, resp.FrequencyGHz, resp.PeakC, p.Feasible, p.FrequencyGHz, p.PeakC)
	}
	return nil
}

// canaryPlans are the stored plan canaries of client c, drawn from its
// own key space (its stack depths, grids 16²–32²).
func canaryPlans(c int) []api.PlanRequest {
	d := icDepths(c)
	p := func(chip string, depth int, coolant string, thr float64, grid int) api.PlanRequest {
		return api.PlanRequest{Chip: chip, Chips: depth, Coolant: coolant, ThresholdC: thr, GridNX: grid, GridNY: grid}
	}
	return []api.PlanRequest{
		p("low-power", d[0], "water", 80, 16),
		p("high-frequency", d[1], "air", 85, 24),
		p("low-power", d[2], "fluorinert", 75, 32),
		p("high-frequency", d[0], "mineral-oil", 70, 16),
		p("low-power", d[1], "water-pipe", 80, 24),
		p("high-frequency", d[3], "water", 85, 16),
		p("low-power", d[3], "air", 70, 24),
		p("high-frequency", d[2], "water", 75, 32),
	}
}

type mcRef struct {
	Req             api.MonteCarloRequest `json:"req"`
	FreqGHz         mc.Summary            `json:"freq_ghz"`
	EvalPeakC       mc.Summary            `json:"eval_peak_c"`
	InfeasibleShare float64               `json:"infeasible_share"`
	ExceedProb      float64               `json:"exceed_prob"`
	Sobol           []api.MonteCarloSobol `json:"sobol"`
}

func (m mcRef) check(resp *api.MonteCarloResponse) error {
	near := func(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
	sumNear := func(a, b mc.Summary, tol float64) bool {
		return near(a.Mean, b.Mean, tol) && near(a.Std, b.Std, tol) && near(a.P5, b.P5, tol) &&
			near(a.P50, b.P50, tol) && near(a.P95, b.P95, tol) && near(a.Min, b.Min, tol) && near(a.Max, b.Max, tol)
	}
	ok := sumNear(resp.FreqGHz, m.FreqGHz, tolStat) && sumNear(resp.EvalPeakC, m.EvalPeakC, tolPeakC) &&
		near(resp.InfeasibleShare, m.InfeasibleShare, tolStat) && near(resp.ExceedProb, m.ExceedProb, tolStat) &&
		len(resp.Sobol) == len(m.Sobol)
	for i := 0; ok && i < len(m.Sobol); i++ {
		a, b := resp.Sobol[i], m.Sobol[i]
		ok = a.Param == b.Param && near(a.FreqGHz.S1, b.FreqGHz.S1, tolStat) && near(a.FreqGHz.ST, b.FreqGHz.ST, tolStat) &&
			near(a.EvalPeakC.S1, b.EvalPeakC.S1, tolPeakC) && near(a.EvalPeakC.ST, b.EvalPeakC.ST, tolPeakC)
	}
	if !ok {
		got, _ := json.Marshal(resp)
		return fmt.Errorf("montecarlo canary differs from its reference: %s", got)
	}
	return nil
}

type streamRef struct {
	Req       api.CosimStreamRequest `json:"req"`
	Intervals int                    `json:"intervals"`
	MaxPeakC  float64                `json:"max_peak_c"`
	MeanGHz   float64                `json:"mean_ghz"`
	Throttles int                    `json:"throttles"`
}

func (s streamRef) check(resp *api.CosimStreamResponse) error {
	if resp.Intervals != s.Intervals || math.Abs(resp.MaxPeakC-s.MaxPeakC) > tolPeakC ||
		math.Abs(resp.MeanGHz-s.MeanGHz) > tolMeanHz || resp.Throttles != s.Throttles {
		return fmt.Errorf("stream canary: %d intervals, max %g °C, mean %g GHz, %d throttles; reference %d, %g, %g, %d",
			resp.Intervals, resp.MaxPeakC, resp.MeanGHz, resp.Throttles, s.Intervals, s.MaxPeakC, s.MeanGHz, s.Throttles)
	}
	return nil
}

type cosimRef struct {
	Req       api.CosimRequest `json:"req"`
	MaxPeakC  float64          `json:"max_peak_c"`
	MeanGHz   float64          `json:"mean_ghz"`
	Throttles int              `json:"throttles"`
}

func (c cosimRef) check(resp *api.CosimResponse) error {
	if math.Abs(resp.MaxPeakC-c.MaxPeakC) > tolPeakC || math.Abs(resp.MeanGHz-c.MeanGHz) > tolMeanHz || resp.Throttles != c.Throttles {
		return fmt.Errorf("cosim canary: max %g °C, mean %g GHz, %d throttles; reference %g, %g, %d",
			resp.MaxPeakC, resp.MeanGHz, resp.Throttles, c.MaxPeakC, c.MeanGHz, c.Throttles)
	}
	return nil
}

// runJob submits one request to e and waits for its result.
func runJob(ctx context.Context, e *service.Engine, req api.Request) (any, error) {
	in, err := e.Submit(req)
	if err != nil {
		return nil, err
	}
	out, err := e.Wait(ctx, in.ID)
	if err != nil {
		return nil, err
	}
	if out.State != service.StateDone {
		return nil, fmt.Errorf("%s job %s ended %s: %s", req.Kind(), out.ID, out.State, out.Error)
	}
	return out.Result, nil
}

// regenRefs recomputes every stored reference on a plain engine.
func regenRefs(ctx context.Context, path string) error {
	e := service.New(service.Config{})
	defer e.Close()
	var r refs
	for c := range r.Canaries {
		for _, req := range canaryPlans(c) {
			q := req
			res, err := runJob(ctx, e, &q)
			if err != nil {
				return err
			}
			resp := res.(*api.PlanResponse)
			r.Canaries[c] = append(r.Canaries[c], planRef{Req: req, Feasible: resp.Feasible, FrequencyGHz: resp.FrequencyGHz, PeakC: resp.PeakC})
		}
	}
	r.MonteCarlo.Req = *mcCanaryRequest()
	q := r.MonteCarlo.Req
	res, err := runJob(ctx, e, &q)
	if err != nil {
		return err
	}
	m := res.(*api.MonteCarloResponse)
	r.MonteCarlo.FreqGHz, r.MonteCarlo.EvalPeakC = m.FreqGHz, m.EvalPeakC
	r.MonteCarlo.InfeasibleShare, r.MonteCarlo.ExceedProb, r.MonteCarlo.Sobol = m.InfeasibleShare, m.ExceedProb, m.Sobol

	r.Stream.Req = *streamCanaryRequest()
	sq := r.Stream.Req
	if res, err = runJob(ctx, e, &sq); err != nil {
		return err
	}
	s := res.(*api.CosimStreamResponse)
	r.Stream.Intervals, r.Stream.MaxPeakC, r.Stream.MeanGHz, r.Stream.Throttles = s.Intervals, s.MaxPeakC, s.MeanGHz, s.Throttles

	r.Cosim.Req = *cosimCanaryRequest()
	cq := r.Cosim.Req
	if res, err = runJob(ctx, e, &cq); err != nil {
		return err
	}
	co := res.(*api.CosimResponse)
	r.Cosim.MaxPeakC, r.Cosim.MeanGHz, r.Cosim.Throttles = co.MaxPeakC, co.MeanGHz, co.Throttles

	body, err := json.MarshalIndent(&r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(body, '\n'), 0o644)
}
