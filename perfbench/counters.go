package main

import (
	"reflect"

	"cmpleak/internal/config"
	"cmpleak/internal/core"
)

// counts are the simulated work counts of one or more simulations, read
// from the counters the simulator already exports.  They must repeat
// exactly for a given input.
type counts struct {
	Events, FarEvents    uint64
	Instructions         uint64
	L1Accesses, L1Misses uint64
	L2Accesses, L2Misses uint64
	L2Retry              uint64
	BusTxns, BusBusy     uint64
	BusArbStall          uint64
	WBFullStalls         uint64
	MemAccesses          uint64
	MemStall             uint64
	TurnOffs             uint64
	TurnOffWritebacks    uint64
	InducedMisses        uint64
	ProtocolInvals       uint64
	ThermalSamples       uint64
	Cycles               uint64
}

// readCounts snapshots a finished System.
func readCounts(s *core.System, cfg config.System) counts {
	var c counts
	eng := s.Engine()
	c.Events, c.FarEvents = eng.Executed, eng.FarEvents
	c.Cycles = uint64(eng.Now())
	for _, l1 := range s.L1s() {
		c.L1Accesses += l1.Accesses()
		c.L1Misses += l1.LoadMisses.Value() + l1.StoreMisses.Value()
		c.WBFullStalls += l1.WriteBuffer().FullStall.Value()
	}
	for _, l2 := range s.Controllers() {
		c.L2Accesses += l2.Accesses()
		c.L2Misses += l2.Misses()
		c.L2Retry += l2.RetryEvents.Value()
		c.TurnOffs += l2.TurnOffsCompleted.Value()
		c.TurnOffWritebacks += l2.TurnOffWritebacks.Value()
		c.InducedMisses += l2.DecayInducedMisses.Value()
		c.ProtocolInvals += l2.ProtocolInvalidations.Value()
	}
	bus := s.Bus()
	c.BusTxns = bus.Transactions.Value()
	c.BusBusy = bus.BusyCycles.Value()
	c.BusArbStall = bus.ArbStallCycles.Value()
	m := s.Memory()
	c.MemAccesses = m.TotalAccesses()
	c.MemStall = m.StallCycles.Value()
	// The power/thermal sampler fires every ThermalSampleCycles and once
	// more for the tail interval.
	if p := uint64(cfg.ThermalSampleCycles); p > 0 {
		c.ThermalSamples = (c.Cycles + p - 1) / p
	}
	return c
}

// add accumulates another simulation's counts.
func (c *counts) add(o counts) {
	a, b := reflect.ValueOf(c).Elem(), reflect.ValueOf(o)
	for i := range a.NumField() {
		a.Field(i).SetUint(a.Field(i).Uint() + b.Field(i).Uint())
	}
}

// instructions sums the retired instructions of the results.
func instructions(rs []core.Result) uint64 {
	var n uint64
	for _, r := range rs {
		n += r.Instructions
	}
	return n
}

// setCounts reports simulated work counts and model outputs.  rs are the
// results the counts came from; occupation and energy are their means and
// sums, IPC the aggregate over all of them.
func (e *env) setCounts(c counts, rs []core.Result) {
	c.Instructions = instructions(rs)
	e.set("sim.events", float64(c.Events))
	e.set("sim.far_ratio", ratio(float64(c.FarEvents), float64(c.Events)))
	e.set("core.l2_accesses", float64(c.L2Accesses))
	e.set("core.l2_miss_ratio", ratio(float64(c.L2Misses), float64(c.L2Accesses)))
	e.set("core.l2_retry_events", float64(c.L2Retry))
	e.set("cpu.instructions", float64(c.Instructions))
	e.set("coherence.l1_accesses", float64(c.L1Accesses))
	e.set("coherence.l1_miss_ratio", ratio(float64(c.L1Misses), float64(c.L1Accesses)))
	e.set("coherence.bus_txns", float64(c.BusTxns))
	e.set("coherence.bus_utilization", ratio(float64(c.BusBusy), float64(c.Cycles)))
	e.set("coherence.bus_arb_stall_cycles", float64(c.BusArbStall))
	e.set("cache.wb_full_stalls", float64(c.WBFullStalls))
	e.set("mem.accesses", float64(c.MemAccesses))
	e.set("mem.stall_cycles", float64(c.MemStall))
	e.set("decay.turnoffs", float64(c.TurnOffs))
	e.set("decay.turnoff_writebacks", float64(c.TurnOffWritebacks))
	e.set("decay.induced_misses", float64(c.InducedMisses))
	e.set("decay.protocol_invalidations", float64(c.ProtocolInvals))
	e.set("thermal.samples", float64(c.ThermalSamples))
	e.set("model.sim_cycles", float64(c.Cycles))
	e.set("model.ipc", ratio(float64(c.Instructions), float64(c.Cycles)))
	var occ, energy float64
	for _, r := range rs {
		occ += r.L2OccupationRate
		energy += r.EnergyJ
	}
	e.set("model.occupation", ratio(occ, float64(len(rs))))
	e.set("model.energy_j", energy)
}

// sameResult compares two results field for field, ignoring the label and
// benchmark name (they carry the harness's scheme name in a replay).
func sameResult(a, b core.Result) bool {
	a.Label, a.Benchmark = "", ""
	b.Label, b.Benchmark = "", ""
	return reflect.DeepEqual(a, b)
}
