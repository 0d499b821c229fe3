package coherence

import (
	"fmt"

	"waterimm/internal/noc"
	"waterimm/internal/sim"
)

// MCStats counts memory-controller activity.
type MCStats struct {
	Reads, Writes uint64
	// BusyFS accumulates channel-occupied time in femtoseconds.
	BusyFS uint64
}

// MC is a per-chip memory controller with a fixed access latency and
// a bandwidth-limited channel.
type MC struct {
	sys     *System
	id      int // chip index
	busyTil sim.Time
	latency sim.Time
	service sim.Time // per-line channel occupancy
	// banked is non-nil when Config.DRAMBanks selects the row-buffer
	// model.
	banked *bankedMC
	Stats  MCStats
}

func newMC(sys *System, id int) *MC {
	cfg := sys.Cfg
	mc := &MC{
		sys:     sys,
		id:      id,
		latency: sim.Time(cfg.MemLatencyNS * float64(sim.Nanosecond)),
		service: sim.Time(float64(cfg.LineBytes) / cfg.MemBytesPerNS * float64(sim.Nanosecond)),
	}
	if cfg.DRAMBanks > 0 {
		mc.banked = newBankedMC(cfg.DRAMTiming, cfg.DRAMBanks)
	}
	return mc
}

// Banked exposes the row-buffer statistics when the bank model is
// active (nil otherwise).
func (m *MC) Banked() *bankedMC { return m.banked }

// schedule reserves the channel and returns the completion time.
func (m *MC) schedule(addr uint64) sim.Time {
	if m.banked != nil {
		now := m.sys.K.Now()
		done := m.banked.schedule(now, addr)
		m.Stats.BusyFS += uint64(done - now)
		return done
	}
	start := m.sys.K.Now()
	if m.busyTil > start {
		start = m.busyTil
	}
	m.busyTil = start + m.service
	m.Stats.BusyFS += uint64(m.service)
	return m.busyTil + m.latency
}

// Receive handles memory traffic from the L2 banks.
func (m *MC) Receive(msg Msg) {
	switch msg.Type {
	case MsgMemRead:
		m.Stats.Reads++
		done := m.schedule(msg.Addr)
		value := m.sys.memValue[msg.Addr]
		m.sys.K.At(done, func() {
			m.sys.send(Msg{Type: MsgMemData, Addr: msg.Addr,
				Src: m.sys.mcCtrl(m.id), Dst: msg.Src, Value: value})
		})
	case MsgMemWrite:
		m.Stats.Writes++
		m.schedule(msg.Addr)
		m.sys.memValue[msg.Addr] = msg.Value
	default:
		panic(fmt.Sprintf("coherence: MC %d cannot handle %v", m.id, msg.Type))
	}
}

// System assembles the coherent memory hierarchy over the NoC.
type System struct {
	K    *sim.Kernel
	Mesh *noc.Mesh
	Cfg  Config

	L1s   []*L1
	Banks []*Bank
	MCs   []*MC

	// memValue is the DRAM image of the per-line data tokens.
	memValue map[uint64]uint64

	cycleFS sim.Time
	// Messages counts protocol messages by type (for tests and the
	// activity report).
	Messages map[MsgType]uint64
}

// New builds the hierarchy and its mesh on the kernel.
func New(k *sim.Kernel, cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mesh, err := noc.New(k, noc.DefaultConfig(cfg.Chips, cfg.FHz))
	if err != nil {
		return nil, err
	}
	if cfg.CoresPerChip+cfg.BanksPerChip != mesh.Config().NX*mesh.Config().NY {
		return nil, fmt.Errorf("coherence: %d cores + %d banks do not fill the %dx%d mesh",
			cfg.CoresPerChip, cfg.BanksPerChip, mesh.Config().NX, mesh.Config().NY)
	}
	s := &System{
		K: k, Mesh: mesh, Cfg: cfg,
		memValue: make(map[uint64]uint64),
		cycleFS:  sim.Cycle(cfg.FHz),
		Messages: make(map[MsgType]uint64),
	}
	for c := 0; c < cfg.Cores(); c++ {
		s.L1s = append(s.L1s, newL1(s, c))
	}
	for b := 0; b < cfg.Banks(); b++ {
		s.Banks = append(s.Banks, newBank(s, b))
	}
	for m := 0; m < cfg.Chips; m++ {
		s.MCs = append(s.MCs, newMC(s, m))
	}
	mesh.Deliver = s.deliver
	return s, nil
}

// Controller id space: cores, then banks, then MCs.
func (s *System) bankCtrl(bank int) int { return s.Cfg.Cores() + bank }
func (s *System) mcCtrl(chip int) int   { return s.Cfg.Cores() + s.Cfg.Banks() + chip }

// cycles converts core cycles to simulation time.
func (s *System) cycles(n int) sim.Time { return sim.Time(n) * s.cycleFS }

// routerOf maps a controller to its mesh router. Cores occupy the
// bottom tile row of each chip (Figure 5), the 12 L2 banks fill the
// remaining tiles, and each chip's memory controller shares the
// corner router with core 0.
func (s *System) routerOf(ctrl int) int {
	cfg := s.Cfg
	tilesPerChip := cfg.CoresPerChip + cfg.BanksPerChip
	switch {
	case ctrl < cfg.Cores():
		chip, t := ctrl/cfg.CoresPerChip, ctrl%cfg.CoresPerChip
		return chip*tilesPerChip + t
	case ctrl < cfg.Cores()+cfg.Banks():
		b := ctrl - cfg.Cores()
		chip, t := b/cfg.BanksPerChip, b%cfg.BanksPerChip
		return chip*tilesPerChip + cfg.CoresPerChip + t
	default:
		chip := ctrl - cfg.Cores() - cfg.Banks()
		return chip * tilesPerChip
	}
}

// send injects a protocol message into the mesh.
func (s *System) send(m Msg) {
	s.Messages[m.Type]++
	flits := s.Mesh.Config().CtrlFlits
	if m.Type.CarriesData() {
		flits = s.Mesh.Config().DataFlits
	}
	s.Mesh.Send(&noc.Packet{
		Src:     s.routerOf(m.Src),
		Dst:     s.routerOf(m.Dst),
		VNet:    m.Type.VNet(),
		Flits:   flits,
		Payload: m,
	})
}

// deliver routes an arrived packet to its controller, charging the
// controller's access latency.
func (s *System) deliver(p *noc.Packet) {
	m := p.Payload.(Msg)
	switch {
	case m.Dst < s.Cfg.Cores():
		s.L1s[m.Dst].Receive(m)
	case m.Dst < s.Cfg.Cores()+s.Cfg.Banks():
		bank := s.Banks[m.Dst-s.Cfg.Cores()]
		s.K.After(s.cycles(s.Cfg.L2LatencyCycles), func() { bank.Receive(m) })
	default:
		s.MCs[m.Dst-s.Cfg.Cores()-s.Cfg.Banks()].Receive(m)
	}
}

// CheckInvariants validates global protocol invariants; tests call it
// at quiescence. It verifies that (1) at most one L1 holds a line in
// M or E, (2) an M/E/O holder is the registered owner at the home,
// and (3) no home is still busy.
func (s *System) CheckInvariants() error {
	type holder struct {
		core  int
		state L1State
	}
	holders := make(map[uint64][]holder)
	for _, l1 := range s.L1s {
		for si := range l1.sets {
			for wi := range l1.sets[si] {
				ln := &l1.sets[si][wi]
				if ln.state != StateI {
					holders[ln.tag] = append(holders[ln.tag], holder{l1.core, ln.state})
				}
			}
		}
	}
	for addr, hs := range holders {
		exclusive, owners := 0, 0
		for _, h := range hs {
			switch h.state {
			case StateM, StateE:
				exclusive++
				owners++
			case StateO:
				owners++
			}
		}
		if exclusive > 1 || (exclusive == 1 && len(hs) > 1) {
			return fmt.Errorf("coherence: line %#x has %d holders with an exclusive copy: %v", addr, len(hs), hs)
		}
		if owners > 1 {
			return fmt.Errorf("coherence: line %#x has %d owners", addr, owners)
		}
	}
	for _, b := range s.Banks {
		if len(b.busy) != 0 {
			return fmt.Errorf("coherence: bank %d still busy on %d lines at quiescence", b.id, len(b.busy))
		}
		for si := range b.sets {
			for wi := range b.sets[si] {
				e := &b.sets[si][wi]
				if !e.valid || e.owner < 0 {
					continue
				}
				st := s.L1s[e.owner].HasLine(e.tag)
				if _, inWB := s.L1s[e.owner].wb[e.tag]; st == StateI && !inWB {
					return fmt.Errorf("coherence: line %#x registered to owner %d which holds neither copy nor writeback", e.tag, e.owner)
				}
			}
		}
	}
	return nil
}
