package experiments

import (
	"fmt"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/core"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/stats"
	"swizzleqos/internal/switchsim"
	"swizzleqos/internal/traffic"
)

// ScaleResult summarises the radix-64 validation: a hotspot output with
// 31 reserved flows plus uniform background traffic across the other 63
// outputs, with a GL interrupt source cutting through the hotspot.
type ScaleResult struct {
	Radix            int
	HotspotFlows     int
	WorstRatio       float64 // min accepted/reserved on the hotspot
	HotspotTotal     float64 // accepted flits/cycle at the hotspot
	BackgroundTotal  float64 // accepted flits/cycle across background outputs
	GLWorstWait      core.Cycle
	GLBound          float64
	DeliveredPackets uint64
	// Err is set when the switch could not be constructed or the run
	// froze early.
	Err error
}

// Scale64 exercises the headline scalability claim (§1: "readily scalable
// to 64 nodes"; §4.4): a full radix-64 switch with a 512-bit bus (8
// lanes: 6 GB levels + BE + GL), 31 differentiated reservations into one
// hotspot output, saturated offered load, uniform background traffic on
// every other input, and a GL flow with its Eq. 1 bound.
func Scale64(o Options) ScaleResult {
	o = o.withDefaults()
	const (
		radix   = 64
		hotspot = 0
		gbLen   = 8
		glLen   = 4
		glBuf   = 16
	)
	res := ScaleResult{Radix: radix, WorstRatio: 1e9}

	// 31 hotspot flows from inputs 1..31 with reservations proportional
	// to 1/(i+1), scaled to 75% of the channel.
	var specs []noc.FlowSpec
	var weightSum float64
	for i := 1; i <= 31; i++ {
		weightSum += 1 / float64(i+1)
	}
	for i := 1; i <= 31; i++ {
		rate := (1 / float64(i+1)) / weightSum * 0.75
		specs = append(specs, noc.FlowSpec{
			Src: i, Dst: hotspot,
			Class:        noc.GuaranteedBandwidth,
			Rate:         rate,
			PacketLength: gbLen,
		})
	}
	res.HotspotFlows = len(specs)
	// Background: inputs 32..63 each send GB traffic to a distinct
	// non-hotspot output.
	for i := 32; i < radix; i++ {
		specs = append(specs, noc.FlowSpec{
			Src: i, Dst: i,
			Class:        noc.GuaranteedBandwidth,
			Rate:         0.5,
			PacketLength: gbLen,
		})
	}
	glSpec := noc.FlowSpec{
		Src: 63, Dst: hotspot,
		Class:        noc.GuaranteedLatency,
		Rate:         0.05,
		PacketLength: glLen,
	}

	// 512-bit bus, radix 64: 8 lanes; BE + GL leave 6 GB levels, so 2
	// significant bits (4 levels) fit.
	factory := func(out int) arb.Arbiter {
		return core.NewSSVC(core.Config{
			Radix:       radix,
			CounterBits: 10,
			SigBits:     2,
			Policy:      core.SubtractRealTime,
			Vticks:      vticksFor(radix, specs, out),
			EnableGL:    true,
			GLVtick:     noc.FlowSpec{Rate: 0.05, PacketLength: glLen}.Vtick(),
			GLBurst:     glBuf / glLen,
		})
	}
	var b build
	sw := b.sw(switchsim.Config{
		Radix:         radix,
		BEBufferFlits: fig4BufFlits,
		GLBufferFlits: glBuf,
		GBBufferFlits: fig4BufFlits,
	}, factory)

	var seq traffic.Sequence
	for _, s := range specs {
		b.add(sw, traffic.Flow{Spec: s, Gen: traffic.NewBacklogged(&seq, s, 4)})
	}
	var glTimes []noc.Cycle
	for t := o.Warmup; t < o.total(); t += 5000 {
		glTimes = append(glTimes, t)
	}
	b.add(sw, traffic.Flow{Spec: glSpec, Gen: traffic.NewTrace(&seq, glSpec, glTimes)})
	if b.err != nil {
		res.Err = b.err
		return res
	}

	col := stats.NewCollector(o.Warmup, o.total())
	sw.OnDeliver(func(p *noc.Packet) {
		col.OnDeliver(p)
		if p.Class == noc.GuaranteedLatency && p.DeliveredAt >= o.Warmup {
			if w := p.WaitingTime(); w > res.GLWorstWait {
				res.GLWorstWait = w
			}
		}
	})
	// One radix-64 switch is a single sequential simulation (cycles are
	// causally ordered), so the parallel runner does not apply; packet
	// recycling keeps its 64-output cycle loop allocation-free instead.
	sw.OnRelease(seq.Recycle)
	sw.Run(o.total())
	res.Err = sw.Err()

	for _, s := range specs[:res.HotspotFlows] {
		ratio := col.Throughput(stats.FlowKey{Src: s.Src, Dst: s.Dst, Class: s.Class}) / s.Rate
		if ratio < res.WorstRatio {
			res.WorstRatio = ratio
		}
	}
	res.HotspotTotal = col.OutputThroughput(hotspot)
	for out := 32; out < radix; out++ {
		res.BackgroundTotal += col.OutputThroughput(out)
	}
	res.GLBound = float64(gbLen) + 1*(float64(glBuf)+float64(glBuf)/float64(glLen))
	res.DeliveredPackets = col.TotalPackets()
	return res
}

// Table renders the radix-64 summary.
func (r ScaleResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("§4.4 scale: radix-%d switch, %d reserved hotspot flows + uniform background", r.Radix, r.HotspotFlows),
		"metric", "value")
	t.AddRow("worst hotspot accepted/reserved", fmt.Sprintf("%.3f", r.WorstRatio))
	t.AddRow("hotspot throughput (flits/cycle)", fmt.Sprintf("%.3f", r.HotspotTotal))
	t.AddRow("background throughput (flits/cycle)", fmt.Sprintf("%.1f", r.BackgroundTotal))
	t.AddRow("GL worst wait (cycles)", r.GLWorstWait)
	t.AddRow("GL bound tau_GL (cycles)", fmt.Sprintf("%.0f", r.GLBound))
	t.AddRow("packets delivered", r.DeliveredPackets)
	return t
}
