// Command ssvc-serve runs a crossbar simulation under reservation
// control: a continuously advancing switch whose GB/GL reservations are
// added, resized, and removed live — every mutation passing admission
// control and landing in a crash-safe journal before it is acknowledged
// (see internal/ctlplane and DESIGN.md "Control plane").
//
// Usage:
//
//	ssvc-serve -journal FILE [-script FILE] [-total N] [-listen ADDR]
//	           [-trace FILE] [-pace N] [-radix N] [-seed N] [-snap-every N]
//	           [-gb-share F] [-gl-share F] [-degrade] [-lmax N]
//	           [-fail SPEC]
//	ssvc-serve -replay FILE [-trace FILE]
//
// Serve mode advances the simulation -total cycles, applying commands
// from the -script file (`@<cycle> <command>` lines) at their stamped
// cycles and, when -listen is given, accepting the same line protocol
// over TCP. If the journal file already holds records, the daemon
// recovers: it re-executes the journal from genesis (verifying every
// snapshot), truncates any torn tail with a warning, skips script
// entries already journaled, and continues — the configuration flags
// are ignored in favour of the journal header, so a killed daemon
// restarted with the same arguments finishes the identical run.
//
// -pace throttles wall-clock speed to roughly N simulated cycles per
// millisecond (0 = as fast as possible) so a kill can land mid-run;
// pacing is pure wall-clock mechanism and never changes results.
//
// -fail injects fail-stop faults: comma-separated in<port>@<cycle> or
// out<port>@<cycle> specs, e.g. -fail in3@5000,out1@9000.
//
// Replay mode re-executes a journal and prints the recovered state;
// with -trace it also writes the re-derived delivery trace. Replaying
// the journal of a completed run must reproduce the identical trace and
// counters, byte for byte.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"swizzleqos/internal/ctlplane"
	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
)

func main() {
	os.Exit(serveMain(os.Args[1:], os.Stdout, os.Stderr))
}

// netCmd is one command arriving over the TCP listener.
type netCmd struct {
	cmd   ctlplane.Command
	reply chan ctlplane.Result
}

// serveMain is the testable entry point.
func serveMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ssvc-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		journal = fs.String("journal", "", "journal file (serve mode; created if missing, recovered if not)")
		script  = fs.String("script", "", "command script: @<cycle> <command> per line")
		total   = fs.Uint64("total", 100000, "cycles to run before a clean shutdown")
		listen  = fs.String("listen", "", "optional TCP address for live line-protocol commands")
		trace   = fs.String("trace", "", "write the delivery trace (JSONL) to this file")
		pace    = fs.Int("pace", 0, "throttle to ~N simulated cycles per wall millisecond (0 = unthrottled)")
		replay  = fs.String("replay", "", "replay mode: re-execute this journal and exit")

		radix     = fs.Int("radix", 8, "switch radix")
		seed      = fs.Uint64("seed", 1, "workload RNG seed")
		snapEvery = fs.Uint64("snap-every", 10000, "snapshot cadence in cycles (0 = none)")
		gbShare   = fs.Float64("gb-share", 0.85, "initial per-output GB budget share")
		glShare   = fs.Float64("gl-share", 0.05, "per-output GL bandwidth share")
		degrade   = fs.Bool("degrade", false, "start with the degrade budget-shrink policy (default reject)")
		lmax      = fs.Int("lmax", 8, "maximum admissible packet length, flits")
		failSpec  = fs.String("fail", "", "fail-stop schedule: in<port>@<cycle> or out<port>@<cycle>, comma separated")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var tw *traceWriter
	if *trace != "" {
		var err error
		tw, err = newTraceWriter(*trace)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer tw.Close()
	}
	var ro ctlplane.ReplayOptions
	if tw != nil {
		ro.OnDeliver = tw.OnDeliver
	}

	if *replay != "" {
		return replayMain(*replay, ro, stdout, stderr)
	}
	if *journal == "" {
		fmt.Fprintln(stderr, "ssvc-serve: -journal is required (or -replay)")
		return 2
	}

	fcfg, err := parseFailSpec(*failSpec)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	cfg := ctlplane.SimConfig{
		Radix:     *radix,
		LMax:      *lmax,
		GBShare:   *gbShare,
		GLShare:   *glShare,
		Degrade:   *degrade,
		Seed:      *seed,
		SnapEvery: noc.CycleOf(*snapEvery),
		Faults:    fcfg,
	}

	// Recover or start fresh. Recovery re-executes the journal from
	// genesis; with a trace file attached the re-executed prefix is
	// regenerated too, so the full trace of an interrupted-and-resumed
	// run is byte-identical to an uninterrupted one.
	p, warn, err := ctlplane.RecoverFile(*journal, ro)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if warn != "" {
		fmt.Fprintf(stderr, "ssvc-serve: %s\n", warn)
	}
	done := map[string]bool{}
	if p != nil {
		for _, tag := range journaledTags(*journal) {
			done[tag] = true
		}
		fmt.Fprintf(stdout, "recovered journal %s at cycle %d (%d reservations)\n",
			*journal, p.Now().Uint(), p.Table().Len())
	} else {
		jr, err := ctlplane.CreateJournal(*journal)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if p, err = ctlplane.New(cfg); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if tw != nil {
			p.OnDeliver(tw.OnDeliver)
		}
		if err := p.AttachJournal(jr, true); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	defer p.CloseJournal()

	var sched []ctlplane.Scheduled
	if *script != "" {
		text, err := os.ReadFile(*script)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if sched, err = ctlplane.ParseScript(string(text)); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	cmds := make(chan netCmd, 64)
	var ln net.Listener
	if *listen != "" {
		var lerr error
		if ln, lerr = net.Listen("tcp", *listen); lerr != nil {
			fmt.Fprintln(stderr, lerr)
			return 1
		}
		fmt.Fprintf(stdout, "listening on %s\n", ln.Addr())
		go acceptLoop(ln, cmds)
	}

	loopErr := serveLoop(p, sched, done, cmds, noc.CycleOf(*total), *pace, stdout)
	if ln != nil {
		// The serve loop no longer drains cmds: stop new connections and
		// answer in-flight commands with a rejection so no TCP client
		// blocks forever on a reply that will never come.
		ln.Close()
		go drainCmds(cmds, p.Now())
	}
	if loopErr != nil {
		fmt.Fprintln(stderr, loopErr)
		return 1
	}
	if err := p.Finish(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	printSummary(p, stdout)
	return 0
}

// serveLoop drives the plane to the total cycle, interleaving scripted
// and networked commands. Scripted commands apply at exactly their
// stamped cycles (skipping those a recovered journal already holds), so
// a resumed run is indistinguishable from an uninterrupted one.
func serveLoop(p *ctlplane.Plane, sched []ctlplane.Scheduled, done map[string]bool,
	cmds chan netCmd, total noc.Cycle, pace int, stdout io.Writer) error {
	const chunk = 4096
	for {
		now := p.Now()
		for len(sched) > 0 && sched[0].At <= now {
			s := sched[0]
			sched = sched[1:]
			if done[s.Cmd.Tag] || s.At < now {
				continue // already journaled before the crash, or missed (journal has the truth)
			}
			r := p.Apply(s.Cmd)
			fmt.Fprintf(stdout, "@%d %s: %s\n", now.Uint(), s.Cmd.Op, r)
		}
	drain:
		for {
			select {
			case c := <-cmds:
				c.reply <- p.Apply(c.cmd)
			default:
				break drain
			}
		}
		if now >= total {
			return p.Err()
		}
		next := total
		if len(sched) > 0 && sched[0].At < next {
			next = sched[0].At
		}
		step := noc.SatSub(next, now)
		if step > chunk {
			step = chunk
		}
		if err := p.Advance(step); err != nil {
			return err
		}
		if pace > 0 {
			time.Sleep(time.Duration(step.Uint()/uint64(pace)+1) * time.Millisecond)
		}
	}
}

// acceptLoop serves the line protocol on the listener: one command per
// line, one result line back.
func acceptLoop(ln net.Listener, cmds chan netCmd) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn) {
			defer conn.Close()
			sc := bufio.NewScanner(conn)
			for sc.Scan() {
				line := strings.TrimSpace(sc.Text())
				if line == "" {
					continue
				}
				cmd, err := ctlplane.ParseCommand(line)
				if err != nil {
					fmt.Fprintf(conn, "err reason=bad-request msg=%q\n", err.Error())
					continue
				}
				nc := netCmd{cmd: cmd, reply: make(chan ctlplane.Result, 1)}
				cmds <- nc
				fmt.Fprintf(conn, "%s\n", <-nc.reply)
			}
		}(conn)
	}
}

// drainCmds answers commands that were in flight (or still arriving
// from open connections) when the serve loop stopped: each gets a
// frozen rejection instead of silence. Runs until process exit — the
// channel is never closed because connection goroutines may still send.
func drainCmds(cmds chan netCmd, now noc.Cycle) {
	for c := range cmds {
		c.reply <- ctlplane.Result{
			Cycle:  now,
			Reason: ctlplane.ReasonFrozen,
			Msg:    "run complete, daemon shutting down",
		}
	}
}

// replayMain re-executes a journal and prints the recovered state.
func replayMain(path string, ro ctlplane.ReplayOptions, stdout, stderr io.Writer) int {
	recs, _, warn, err := ctlplane.ReadJournal(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if warn != "" {
		fmt.Fprintf(stderr, "ssvc-serve: %s\n", warn)
	}
	p, err := ctlplane.Rebuild(recs, ro)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	printSummary(p, stdout)
	return 0
}

// printSummary renders the final control-plane state.
func printSummary(p *ctlplane.Plane, w io.Writer) {
	st := p.Stats()
	c := p.Counters()
	fmt.Fprintf(w, "cycle=%d delivered=%d data-cycles=%d trace=%016x\n",
		p.Now().Uint(), p.Delivered(), c.DataCycles, p.TraceHash())
	fmt.Fprintf(w, "admitted=%d rejected=%d expired=%d revoked=%d active=%d\n",
		st.Admitted, st.RejectedBudget+st.RejectedBound+st.RejectedOther,
		st.Expired, st.Revoked, p.Table().Len())
}

// journaledTags collects the script tags already recorded in a journal,
// so a resumed daemon never re-applies a scripted command.
func journaledTags(path string) []string {
	recs, _, _, err := ctlplane.ReadJournal(path)
	if err != nil {
		return nil
	}
	var tags []string
	for _, rec := range recs {
		if rec.Kind == ctlplane.KindCmd && rec.Cmd != nil && rec.Cmd.Cmd.Tag != "" {
			tags = append(tags, rec.Cmd.Cmd.Tag)
		}
	}
	return tags
}

// parseFailSpec parses -fail: in<port>@<cycle> / out<port>@<cycle>.
func parseFailSpec(spec string) (*faults.Config, error) {
	if spec == "" {
		return nil, nil
	}
	cfg := &faults.Config{Seed: 1}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		var input bool
		var rest string
		switch {
		case strings.HasPrefix(part, "in"):
			input, rest = true, part[2:]
		case strings.HasPrefix(part, "out"):
			input, rest = false, part[3:]
		default:
			return nil, fmt.Errorf("ssvc-serve: bad -fail entry %q (want in<port>@<cycle> or out<port>@<cycle>)", part)
		}
		ps, cs, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("ssvc-serve: bad -fail entry %q (missing @<cycle>)", part)
		}
		port, err := strconv.Atoi(ps)
		if err != nil {
			return nil, fmt.Errorf("ssvc-serve: bad -fail port %q", ps)
		}
		at, err := strconv.ParseUint(cs, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("ssvc-serve: bad -fail cycle %q", cs)
		}
		cfg.FailStops = append(cfg.FailStops, faults.FailStop{Input: input, Port: port, At: noc.CycleOf(at)})
	}
	return cfg, nil
}

// traceWriter streams one JSON line per delivered packet. The trace of
// a run — live, resumed after a kill, or replayed from the journal —
// must be byte-identical.
type traceWriter struct {
	f *os.File
	w *bufio.Writer
}

func newTraceWriter(path string) (*traceWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("ssvc-serve: create trace: %w", err)
	}
	return &traceWriter{f: f, w: bufio.NewWriterSize(f, 1<<16)}, nil
}

func (t *traceWriter) OnDeliver(p *noc.Packet) {
	fmt.Fprintf(t.w, `{"id":%d,"src":%d,"dst":%d,"class":%d,"len":%d,"created":%d,"delivered":%d,"retries":%d}`+"\n",
		p.ID, p.Src, p.Dst, p.Class, p.Length, p.CreatedAt.Uint(), p.DeliveredAt.Uint(), p.Retries)
}

func (t *traceWriter) Close() error {
	if err := t.w.Flush(); err != nil {
		t.f.Close()
		return err
	}
	return t.f.Close()
}
