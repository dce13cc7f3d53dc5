package des

import (
	"fmt"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/consensus"
	"github.com/oblivious-consensus/conciliator/internal/fault"
	"github.com/oblivious-consensus/conciliator/internal/memory"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// proc is one process's executor state: the stop-and-wait RPC client
// that ships its protocol core's operations to the memory server. The
// protocol state itself lives in the run's consensus.FlatConsensus.
type proc struct {
	id  int32
	rng xrand.Rand

	// Stop-and-wait RPC state.
	opSeq   uint32
	await   bool
	req     message
	rto     int64
	steps   int64
	retrans int64

	// Chaos state. seedBase is the seed incarnation 0's RNG was reseeded
	// from; incarnation k > 0 reseeds from its named fork keyed by k, so
	// amnesiac restarts draw fresh-but-replayable protocol randomness.
	inc       uint32
	down      bool
	gaveUp    bool
	opRetries int
	seedBase  uint64
	resyncs   int64
}

// runner holds one run's entire state.
type runner struct {
	cfg     Config
	q       eventQueue
	net     *network
	srv     *server
	mon     *fault.Monitor
	procs   []proc
	core    *consensus.FlatConsensus
	now     int64
	decided int
	events  int64

	// Resolved retry policy.
	rto0       int64
	rtoCap     int64
	backoff    float64
	jitter     float64
	maxRetries int
	retryRng   *xrand.Rand
	// timers gates the retransmission machinery: armed whenever the
	// network can lose messages or the chaos layer can drop them (a
	// down node discards deliveries).
	timers bool

	// Chaos accounting.
	gaveUp     int
	crashes    int64
	restarts   int64
	chaosDrops int64

	// overflowed is set when a process exceeds the phase budget; the
	// main loop converts it to a run error.
	overflowed *proc
}

// Run executes one discrete-event consensus run and returns its Result.
// The error is non-nil when the run failed to terminate inside its event
// budget (also recorded as a nontermination violation); the Result is
// meaningful either way.
func Run(cfg Config) (Result, error) {
	res, err := run(cfg, nil)
	sim.AddSteps(res.TotalSteps())
	observeRun(res)
	return res, err
}

// run is Run with a hook that, when non-nil, sees the runner after setup
// and before the first event.
func run(cfg Config, hook func(*runner)) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}

	root := xrand.New(cfg.Seed)
	// Disjoint named forks: the network's stream is independent of every
	// process's protocol randomness, keeping the adversary oblivious;
	// retry jitter and the chaos schedule draw from their own forks for
	// the same reason. Draw order here must match Config.ChaosSchedule.
	netRng := root.ForkNamed(0x4e57)   // "NET"
	procRng := root.ForkNamed(0xa190)  // per-process seed stream
	retryRng := root.ForkNamed(0x4a77) // retry-timer jitter
	chaosRng := root.ForkNamed(0xc405) // crash schedule materialization

	// The core's own phase budget sits one past the DES's, so the DES's
	// overflow check (a run error) always fires before the core's
	// safety valve (a decision) could.
	core, cerr := consensus.NewFlat(cfg.N, consensus.FlatConfig{
		Conciliator: cfg.Protocol,
		AC:          consensus.ACRegister,
		Epsilon:     cfg.Epsilon,
		MaxPhases:   cfg.MaxPhases + 1,
	})
	if cerr != nil {
		return Result{}, cerr
	}
	mon := fault.NewMonitor()
	d := &runner{
		cfg:      cfg,
		net:      newNetwork(cfg.Net, cfg.N, netRng),
		srv:      newServer(cfg.N, core.Memory(), mon),
		mon:      mon,
		procs:    make([]proc, cfg.N),
		core:     core,
		retryRng: retryRng,
	}
	d.rto0 = cfg.Retry.RTO.Nanoseconds()
	if d.rto0 <= 0 {
		d.rto0 = 8 * cfg.Net.Latency.Mean.Nanoseconds()
		if d.rto0 < 1000 {
			d.rto0 = 1000
		}
	}
	d.rtoCap = cfg.Retry.Cap.Nanoseconds()
	if d.rtoCap <= 0 {
		d.rtoCap = 64 * d.rto0
	}
	d.backoff = cfg.Retry.Backoff
	if d.backoff == 0 {
		d.backoff = 2
	}
	d.jitter = cfg.Retry.Jitter
	d.maxRetries = cfg.Retry.MaxRetries
	chaos := materializeChaos(cfg.Chaos, cfg.N, chaosRng)
	d.timers = d.net.lossy || len(chaos) > 0

	inputs := cfg.Inputs
	if inputs == nil {
		inputs = make([]int, cfg.N)
		for i := range inputs {
			inputs[i] = i % 2
		}
	}
	coreInputs := make([]int64, cfg.N)
	for i, v := range inputs {
		coreInputs[i] = int64(v)
	}
	core.Reset(coreInputs)
	for i := range d.procs {
		p := &d.procs[i]
		p.id = int32(i)
		p.seedBase = procRng.SeedNamed(uint64(i))
		p.rng.Reseed(p.seedBase)
	}
	if hook != nil {
		hook(d)
	}
	// All processes wake at virtual time zero, drawing their phase-0
	// personae; their first requests get distinct latencies, which
	// staggers them naturally.
	for i := range d.procs {
		p := &d.procs[i]
		core.Init(i, &p.rng)
		d.issue(p)
	}
	// Crash events enter the queue after the initial sends, so a crash
	// at t=0 still lands after every process issued its first request —
	// deterministically, since events due at the same time pop in push
	// order.
	for _, e := range chaos {
		d.q.push(e.At.Nanoseconds(), e.Target, evCrash,
			message{Op: memory.Op{Key: uint64(e.Down.Nanoseconds()), Val: int64(e.Restart)}})
	}

	var err error
loop:
	for d.decided+d.gaveUp < cfg.N {
		ev, ok := d.q.pop()
		if !ok {
			pending := cfg.N - d.decided - d.gaveUp
			mon.Report("nontermination", "event queue drained with %d of %d processes undecided", pending, cfg.N)
			err = fmt.Errorf("des: deadlock: queue empty with %d processes undecided", pending)
			break
		}
		d.events++
		if d.events > cfg.MaxEvents {
			pending := cfg.N - d.decided - d.gaveUp
			mon.Report("nontermination", "event budget %d exhausted with %d of %d processes undecided", cfg.MaxEvents, pending, cfg.N)
			err = fmt.Errorf("des: event budget %d exhausted with %d processes undecided", cfg.MaxEvents, pending)
			break
		}
		d.now = ev.at
		switch ev.kind {
		case evDeliver:
			if ev.to == serverID {
				if d.srv.down {
					d.chaosDrops++
					break
				}
				d.srv.handle(&d.q, d.net, d.now, ev.msg)
			} else {
				p := &d.procs[ev.to]
				if p.down {
					d.chaosDrops++
					break
				}
				d.onReply(p, ev.msg)
			}
		case evTimer:
			p := &d.procs[ev.to]
			// Timers die with the incarnation that armed them, and a
			// down or resigned process keeps no timers alive.
			if p.down || p.gaveUp || ev.msg.inc != p.inc {
				break
			}
			d.onTimer(p, ev.msg)
		case evCrash:
			d.onCrash(ev.to, ev.msg)
		case evRestart:
			d.onRestart(ev.to, ev.msg)
		}
		if perr := d.phaseOverflow(); perr != nil {
			err = perr
			break loop
		}
	}

	d.srv.finish()
	outs := make([]int, cfg.N)
	finished := make([]bool, cfg.N)
	steps := make([]int64, cfg.N)
	outcomes := make([]ProcOutcome, cfg.N)
	phases := 0
	for i := range d.procs {
		p := &d.procs[i]
		finished[i], steps[i] = d.core.Decided(i), p.steps
		switch {
		case finished[i]:
			outs[i] = int(d.core.Output(i))
			outcomes[i] = OutcomeDecided
		case p.gaveUp:
			outcomes[i] = OutcomeGaveUp
		default:
			outcomes[i] = OutcomeUndecided
		}
		if ph := d.core.Phase(i) + 1; ph > phases {
			phases = ph
		}
	}
	mon.CheckOutcome(inputs, outs, finished)

	res := Result{
		N:             cfg.N,
		Protocol:      cfg.Protocol,
		Rounds:        d.core.Rounds(),
		AllDecided:    d.decided == cfg.N,
		Phases:        phases,
		Steps:         steps,
		MsgsSent:      d.net.sent,
		MsgsDelivered: d.net.delivered,
		MsgsDropped:   d.net.dropped,
		MsgsBlocked:   d.net.blocked,
		VirtualTime:   time.Duration(d.now) * time.Nanosecond,
		Events:        d.events,
		Crashes:       d.crashes,
		Restarts:      d.restarts,
		Wipes:         d.srv.wipes,
		ChaosDrops:    d.chaosDrops,
		GaveUp:        d.gaveUp,
		Outcomes:      outcomes,
		OpsApplied:    d.srv.applied,
		DupDrops:      d.srv.dupDrops,
		Violations:    mon.Finish(),
	}
	for i := range d.procs {
		res.Retransmits += d.procs[i].retrans
		res.Resyncs += d.procs[i].resyncs
	}
	if res.AllDecided {
		res.Decision = outs[0]
	}
	return res, err
}

// phaseOverflow converts a process exceeding the phase budget (flagged
// in onReply) into a run error.
func (d *runner) phaseOverflow() error {
	if d.overflowed == nil {
		return nil
	}
	p := d.overflowed
	d.mon.Report("nontermination", "process %d exceeded the phase budget %d", p.id, d.cfg.MaxPhases)
	return fmt.Errorf("des: process %d exceeded the phase budget %d without committing", p.id, d.cfg.MaxPhases)
}

// sendReq issues a new stop-and-wait request from p (charging one step,
// except for session resyncs, which are bookkeeping rather than protocol
// work) and arms the retransmission timer when messages can be lost.
func (d *runner) sendReq(p *proc, m message) {
	p.opSeq++
	m.from = p.id
	m.opSeq = p.opSeq
	m.inc = p.inc
	p.req = m
	p.await = true
	p.opRetries = 0
	if !m.sync {
		p.steps++
	}
	d.net.send(&d.q, d.now, p.id, serverID, m)
	if d.timers {
		p.rto = d.rto0
		d.q.push(d.now+d.jittered(p.rto), p.id, evTimer, message{opSeq: p.opSeq, inc: p.inc})
	}
}

// jittered spreads a timeout by up to jitter*rto of extra delay, drawn
// from the dedicated retry fork. Jitter 0 draws nothing, so configs
// without it replay byte-identically to builds that predate it.
func (d *runner) jittered(rto int64) int64 {
	if d.jitter > 0 {
		rto += int64(float64(rto) * d.jitter * d.retryRng.Float64())
	}
	return rto
}

// onTimer handles a retransmission timer: if the guarded operation is
// still outstanding, resend and back off; otherwise the timer is stale.
// A bounded retry policy gives up here instead of retrying forever.
func (d *runner) onTimer(p *proc, m message) {
	if !p.await || p.req.opSeq != m.opSeq {
		return
	}
	if d.maxRetries > 0 && p.opRetries >= d.maxRetries {
		d.giveUp(p)
		return
	}
	p.opRetries++
	p.retrans++
	d.net.send(&d.q, d.now, p.id, serverID, p.req)
	if p.rto < d.rtoCap {
		p.rto = int64(float64(p.rto) * d.backoff)
		if p.rto > d.rtoCap {
			p.rto = d.rtoCap
		}
	}
	d.q.push(d.now+d.jittered(p.rto), p.id, evTimer, message{opSeq: p.req.opSeq, inc: p.inc})
}

// giveUp retires a process whose retry budget is exhausted: it stops
// participating and is reported in Result.Outcomes instead of hanging
// the event loop. Consensus safety is unaffected — a silent process is
// indistinguishable from a slow one.
func (d *runner) giveUp(p *proc) {
	p.gaveUp = true
	p.await = false
	d.gaveUp++
}

// onCrash takes a node down. Crashes aimed at an already-down, resigned
// or decided process are ignored (no restart is scheduled), which keeps
// overlapping schedule entries well-defined.
func (d *runner) onCrash(to int32, m message) {
	if to == serverID {
		if d.srv.down {
			return
		}
		d.srv.down = true
	} else {
		p := &d.procs[to]
		if p.down || p.gaveUp || d.core.Decided(int(to)) {
			return
		}
		p.down = true
	}
	d.crashes++
	d.q.push(d.now+int64(m.Key), to, evRestart, m)
}

// onRestart brings a node back up. Durable restarts resume from the
// persisted state (the outstanding request is re-sent, since its reply
// may have been discarded during the down window); amnesiac restarts
// lose everything, bump the incarnation, reseed the protocol RNG from
// the incarnation-keyed fork, restart the protocol core, and re-enter
// through an opSync handshake. Decided processes are never crashed (see
// onCrash), so a restarting process has no decision to lose.
func (d *runner) onRestart(to int32, m message) {
	if to == serverID {
		d.srv.down = false
		d.restarts++
		if RestartKind(m.Val) == RestartAmnesiac {
			d.srv.wipe()
		}
		return
	}
	p := &d.procs[to]
	if !p.down {
		return
	}
	p.down = false
	d.restarts++
	if RestartKind(m.Val) == RestartDurable {
		if p.await {
			// The reply (or request) in flight when we crashed was
			// dropped; retransmit under a fresh timer.
			p.retrans++
			p.rto = d.rto0
			p.opRetries = 0
			d.net.send(&d.q, d.now, p.id, serverID, p.req)
			d.q.push(d.now+d.jittered(p.rto), p.id, evTimer, message{opSeq: p.req.opSeq, inc: p.inc})
		}
		return
	}
	// Amnesiac: all volatile protocol state is gone. The new incarnation
	// draws its phase-0 persona from its fresh stream now and starts
	// issuing once the resync handshake completes.
	p.inc++
	p.resyncs++
	xrand.New(p.seedBase).ForkNamedInto(uint64(p.inc), &p.rng)
	d.core.Restart(int(p.id), &p.rng)
	p.opSeq = 0
	p.await = false
	p.opRetries = 0
	d.sendReq(p, message{sync: true})
}

// issue sends the protocol core's next operation for p.
func (d *runner) issue(p *proc) {
	d.sendReq(p, message{Op: d.core.Issue(int(p.id))})
}

// onReply feeds p's awaited reply to its protocol core and issues the
// next operation. Stale or duplicate replies (sequence mismatch) are
// ignored; the core only ever moves on the reply it is waiting for. The
// adopt-commit monitors observe each phase's Propose where it starts
// (the conciliator's last reply) and where it ends.
func (d *runner) onReply(p *proc, m message) {
	pid := int(p.id)
	if !p.await || m.opSeq != p.opSeq || m.inc != p.inc || d.core.Decided(pid) || p.gaveUp {
		return
	}
	p.await = false
	if m.sync {
		// Session re-established; run the restarted protocol.
		d.issue(p)
		return
	}
	ph, inAC, acIn := d.core.Phase(pid), d.core.InAC(pid), d.core.ACInput(pid)
	decided := d.core.Complete(pid, memory.Reply{OK: m.ok, Key: m.Key, Val: m.Val}, &p.rng)
	switch {
	case !inAC && d.core.InAC(pid):
		d.mon.ObserveACPropose(ph, pid, int(d.core.ACInput(pid)))
	case inAC && (decided || d.core.Phase(pid) != ph):
		d.mon.ObserveAC(ph, pid, int(acIn), int(d.core.Output(pid)), decided)
	}
	if decided {
		d.decided++
		return
	}
	if d.core.Phase(pid) >= d.cfg.MaxPhases {
		d.overflowed = p
		return
	}
	d.issue(p)
}
