// Package mcpat is a small analytical power and area model in the
// spirit of McPAT v1.3, reduced to what the paper's methodology needs:
// distributing a chip-wide VFS operating point (from package power)
// over the floorplan units of a CMP, with per-component dynamic and
// static shares, plus activity-based scaling for the full-system
// simulator's energy accounting.
//
// The paper notes McPAT's reported error against real silicon
// (22.61 % power, 16.7 % area on Xeon Tulsa); this reimplementation
// inherits that early-design-stage spirit: component shares are
// calibrated constants, not circuit-level estimates.
package mcpat

import (
	"fmt"

	"waterimm/internal/floorplan"
	"waterimm/internal/power"
)

// Share is one component class's fraction of chip-wide dynamic and
// static power under the worst-case (stress) workload.
type Share struct {
	Kind    string
	Dynamic float64
	Static  float64
}

// Shares is a chip's component power decomposition.
type Shares []Share

// Validate checks that the dynamic and static fractions each sum to 1.
func (s Shares) Validate() error {
	var d, st float64
	for _, c := range s {
		if c.Dynamic < 0 || c.Static < 0 {
			return fmt.Errorf("mcpat: negative share for %q", c.Kind)
		}
		d += c.Dynamic
		st += c.Static
	}
	const eps = 1e-9
	if d < 1-eps || d > 1+eps || st < 1-eps || st > 1+eps {
		return fmt.Errorf("mcpat: shares sum to dyn=%.6f static=%.6f, want 1", d, st)
	}
	return nil
}

// SharesFor returns the component decomposition for a chip model name.
// Processor cores dominate dynamic power; the large SRAM arrays (L2 /
// LLC) dominate leakage — this contrast is what produces the
// non-uniform thermal maps of Figures 9, 16 and 18.
func SharesFor(name string) (Shares, error) {
	switch name {
	case "low-power", "high-frequency", "irds2033":
		return Shares{
			{Kind: "core", Dynamic: 0.64, Static: 0.35},
			{Kind: "l2", Dynamic: 0.24, Static: 0.50},
			{Kind: "router", Dynamic: 0.12, Static: 0.15},
		}, nil
	case "e5":
		return Shares{
			{Kind: "core", Dynamic: 0.72, Static: 0.40},
			{Kind: "l2", Dynamic: 0.20, Static: 0.50},
			{Kind: "mc", Dynamic: 0.08, Static: 0.10},
		}, nil
	case "phi":
		return Shares{
			{Kind: "core", Dynamic: 0.90, Static: 0.88},
			{Kind: "mc", Dynamic: 0.10, Static: 0.12},
		}, nil
	}
	return nil, fmt.Errorf("mcpat: no component shares for chip model %q", name)
}

// Assign distributes the power of VFS step s (with leakage evaluated
// at temperature tempC) over the floorplan's units according to the
// model's component shares, mutating the unit powers in place. Within
// a component class, power splits uniformly across the class's units.
func Assign(fp *floorplan.Floorplan, m power.Model, s power.Step, tempC float64) error {
	return AssignParts(fp, m, s.DynamicW, m.StaticAt(s, tempC))
}

// AssignParts distributes an arbitrary chip-wide dynamic and static
// power total over the floorplan's units by the model's component
// shares. Assign is AssignParts at a VFS step's operating point; the
// separated form exists because the resulting unit powers are linear
// in (dynamicW, staticW) with step-independent spatial shapes — which
// lets a solve session superpose two pre-solved basis fields instead
// of running a fresh conjugate-gradient solve per VFS step.
func AssignParts(fp *floorplan.Floorplan, m power.Model, dynamicW, staticW float64) error {
	shares, err := SharesFor(m.Name)
	if err != nil {
		return err
	}
	for _, sh := range shares {
		fp.SetKindPower(sh.Kind, dynamicW*sh.Dynamic+staticW*sh.Static)
	}
	return nil
}

// ChipAt builds a ready-to-solve floorplan for the chip model at the
// given VFS step and temperature: layout from package floorplan, unit
// powers from the component shares.
func ChipAt(m power.Model, s power.Step, tempC float64) (*floorplan.Floorplan, error) {
	fp, err := floorplan.ForModel(m.Name)
	if err != nil {
		return nil, err
	}
	if err := Assign(fp, m, s, tempC); err != nil {
		return nil, err
	}
	return fp, nil
}

// Activity counts the architectural events of an interval, produced
// by the full-system simulator and consumed by DynamicPower.
type Activity struct {
	Cycles       uint64
	Instructions uint64
	L1Accesses   uint64
	L2Accesses   uint64
	DRAMAccesses uint64
	NoCFlitHops  uint64
}

// Sub returns the counts a accrued since the earlier reading prev of
// the same cumulative counters: an interval's activity.
func (a Activity) Sub(prev Activity) Activity {
	return Activity{
		Cycles:       a.Cycles - prev.Cycles,
		Instructions: a.Instructions - prev.Instructions,
		L1Accesses:   a.L1Accesses - prev.L1Accesses,
		L2Accesses:   a.L2Accesses - prev.L2Accesses,
		DRAMAccesses: a.DRAMAccesses - prev.DRAMAccesses,
		NoCFlitHops:  a.NoCFlitHops - prev.NoCFlitHops,
	}
}

// Energy per event in joules at VddMax for the 22 nm baseline chip.
// These are whole-structure energies (fetch, decode, register file,
// clock tree — not just the ALU), calibrated so a compute-saturated
// core at fmax draws the McPAT-class ~10 W of core dynamic power:
// ~1.2 nJ per committed instruction, tens of pJ per L1 access,
// ~0.4 nJ per L2 bank access, ~15 nJ per DRAM access (row activation
// included), ~20 pJ per flit-hop.
const (
	energyPerInstr   = 1.2e-9
	energyPerL1      = 60e-12
	energyPerL2      = 400e-12
	energyPerDRAM    = 15e-9
	energyPerFlitHop = 20e-12
)

// DynamicPower converts an activity interval into average dynamic
// power in watts for the given VFS step: per-event energies scale
// with V² relative to VddMax, and the interval length is
// Cycles/FHz seconds.
func DynamicPower(m power.Model, s power.Step, a Activity) float64 {
	if a.Cycles == 0 || s.FHz == 0 {
		return 0
	}
	vr := s.V / m.Tech.VddMax
	energy := float64(a.Instructions)*energyPerInstr +
		float64(a.L1Accesses)*energyPerL1 +
		float64(a.L2Accesses)*energyPerL2 +
		float64(a.DRAMAccesses)*energyPerDRAM +
		float64(a.NoCFlitHops)*energyPerFlitHop
	seconds := float64(a.Cycles) / s.FHz
	return energy * vr * vr / seconds
}

// CacheAreaM2 estimates the silicon area of an SRAM cache in m² from
// capacity and associativity at the given technology node, using a
// 6T-cell model with array overheads — the flavour of estimate McPAT
// produces for on-chip memories.
func CacheAreaM2(sizeBytes int64, assoc int, techNm float64) float64 {
	if sizeBytes <= 0 || techNm <= 0 {
		return 0
	}
	// 6T SRAM cell ≈ 190 F² (Intel's 22 nm cell is 0.092 µm²) plus
	// ~90 % array overhead (decoders, sense amps, tags), slightly
	// growing with associativity.
	f := techNm * 1e-9
	cell := 190 * f * f
	overhead := 1.9 + 0.02*float64(assoc)
	return float64(sizeBytes*8) * cell * overhead
}
