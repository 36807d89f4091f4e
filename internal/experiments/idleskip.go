package experiments

import (
	"fmt"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/compose"
	"swizzleqos/internal/core"
	"swizzleqos/internal/fabric"
	"swizzleqos/internal/mesh"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/stats"
	"swizzleqos/internal/switchsim"
	"swizzleqos/internal/traffic"
)

// IdleSkipRow reports one engine's event-driven skip accounting under a
// common low-load workload.
type IdleSkipRow struct {
	Engine       string
	OutputPorts  int    // output ports the full walk would touch per cycle
	Delivered    uint64 // packets delivered (identical to the full walk's)
	IdleCycles   uint64 // idle output-cycles, visited or skipped
	SkippedOut   uint64 // output-cycles bulk-accounted without a visit
	SkippedAdmit uint64 // admission scans skipped via the nonempty mask
	Cycles       noc.Cycle
	// Err is the engine's terminal error if the run froze early.
	Err error
}

// SkipFraction returns the share of output-cycles the cycle loop never
// touched.
func (r IdleSkipRow) SkipFraction() float64 {
	return float64(r.SkippedOut) / (float64(r.OutputPorts) * float64(r.Cycles.Uint()))
}

// IdleSkip measures the event-driven idle skipping (see DESIGN.md) on all
// three engines at 2% per-flow offered load: most ports are idle in most
// cycles, and the skip counters make the avoided work observable. The
// counters are deterministic — identical runs report identical skips —
// which golden tests pin alongside the delivery behavior.
func IdleSkip(o Options) []IdleSkipRow {
	o = o.withDefaults()
	const load = 0.02
	var rows []IdleSkipRow

	// Radix-64 crossbar, one low-rate GB flow per input.
	{
		const radix = 64
		vticks := make([]core.VTime, radix)
		for i := range vticks {
			vticks[i] = noc.FlowSpec{Rate: 0.2, PacketLength: 4}.Vtick()
		}
		var b build
		sw := b.sw(switchsim.Config{Radix: radix, BEBufferFlits: 16, GLBufferFlits: 16, GBBufferFlits: 16},
			func(int) arb.Arbiter {
				return core.NewSSVC(core.Config{
					Radix: radix, CounterBits: 12, SigBits: 4,
					Policy: core.SubtractRealTime, Vticks: vticks,
				})
			})
		var seq traffic.Sequence
		for i := 0; i < radix; i++ {
			spec := noc.FlowSpec{Src: i, Dst: (i * 7) % radix,
				Class: noc.GuaranteedBandwidth, Rate: 0.2, PacketLength: 4}
			b.add(sw, traffic.Flow{Spec: spec, Gen: traffic.NewBernoulli(&seq, spec, load, o.Seed+uint64(i))})
		}
		sw.OnRelease(seq.Recycle)
		if b.err == nil {
			sw.Run(o.total())
		}
		rows = append(rows, skipRow("switch radix-64", radix, &sw.Counters, o.total(), firstErr(b.err, sw.Err())))
	}

	// 8x8 mesh, one low-rate GB flow per node.
	{
		const w, h = 8, 8
		m, err := mesh.New(mesh.Config{Width: w, Height: h, BufferFlits: 16})
		if err == nil {
			var seq traffic.Sequence
			nodes := w * h
			for i := 0; i < nodes && err == nil; i++ {
				dst := (i*7 + 3) % nodes
				if dst == i {
					dst = (dst + 1) % nodes
				}
				spec := noc.FlowSpec{Src: i, Dst: dst, Class: noc.GuaranteedBandwidth, PacketLength: 4}
				err = m.AddFlow(traffic.Flow{Spec: spec, Gen: traffic.NewBernoulli(&seq, spec, load, o.Seed+uint64(i))})
			}
			if err == nil {
				m.OnRelease(seq.Recycle)
				m.Run(o.total())
			}
		}
		var c fabric.Counters
		if m != nil {
			c = m.Counters
			err = firstErr(err, m.Err())
		}
		rows = append(rows, skipRow("mesh 8x8", w*h*5, &c, o.total(), err))
	}

	// Two-level Clos, one low-rate cross-leaf GB flow per terminal.
	{
		topo, err := compose.TwoLevelClos(4, 4, 2)
		var net *compose.Network
		if err == nil {
			net, err = compose.New(compose.Config{Topology: topo, BufferFlits: 16})
		}
		ports := 0
		for _, p := range topo.Ports {
			ports += p
		}
		if err == nil {
			var seq traffic.Sequence
			terms := net.Terminals()
			for i := 0; i < terms && err == nil; i++ {
				spec := noc.FlowSpec{Src: i, Dst: (i + 5) % terms,
					Class: noc.GuaranteedBandwidth, PacketLength: 4}
				err = net.AddFlow(traffic.Flow{Spec: spec, Gen: traffic.NewBernoulli(&seq, spec, load, o.Seed+uint64(i))})
			}
			if err == nil {
				net.OnRelease(seq.Recycle)
				net.Run(o.total())
			}
		}
		var c fabric.Counters
		if net != nil {
			c = net.Counters
			err = firstErr(err, net.Err())
		}
		rows = append(rows, skipRow("clos 4x4x2", ports, &c, o.total(), err))
	}
	return rows
}

// skipRow extracts the skip accounting from one engine's counters.
func skipRow(engine string, ports int, c *fabric.Counters, cycles noc.Cycle, err error) IdleSkipRow {
	return IdleSkipRow{
		Engine:       engine,
		OutputPorts:  ports,
		Delivered:    c.Delivered,
		IdleCycles:   c.IdleCycles,
		SkippedOut:   c.SkippedOutputs,
		SkippedAdmit: c.SkippedAdmits,
		Cycles:       cycles,
		Err:          err,
	}
}

// firstErr returns the first non-nil error.
func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// IdleSkipTable renders the skip accounting across engines.
func IdleSkipTable(rows []IdleSkipRow) *stats.Table {
	t := stats.NewTable(
		"event-driven idle skipping: output-cycles and admission scans avoided at 2% load",
		"engine", "ports", "delivered", "idle cycles", "skipped outputs", "skipped admits", "skip frac")
	for _, r := range rows {
		if r.Err != nil {
			t.AddRow(r.Engine, "error", r.Err.Error(), "", "", "", "")
			continue
		}
		t.AddRow(r.Engine, r.OutputPorts, r.Delivered, r.IdleCycles, r.SkippedOut, r.SkippedAdmit,
			fmt.Sprintf("%.3f", r.SkipFraction()))
	}
	return t
}
