package main

// The live grid the workloads run on: 16 GSI-authenticated GRAM sites on
// loopback TCP, each behind a simulated WAN, and one durable agent. Every
// hook the program calls back into (the site runtime, the wire.Faults
// delay seams, the Selector, the Notifier) is harness code defined here.

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"condorg/internal/condorg"
	"condorg/internal/faultclass"
	"condorg/internal/gram"
	"condorg/internal/gsi"
	"condorg/internal/journal"
	"condorg/internal/lrm"
	"condorg/internal/wire"
)

const (
	numSites    = 16
	cpusPerSite = 8
	// wanDelay is the simulated one-way processing latency every
	// gatekeeper and JobManager request pays, as in the repository's
	// multi-site benchmarks.
	wanDelay = 5 * time.Millisecond
	// progName is the one registered site program. Its argument is the
	// job's token; its stdout is expectedStdout(stdin).
	progName = "bench"
)

// credentials is the test grid's trust fabric: one CA every site trusts
// and one user proxy the agent authenticates with.
type credentials struct {
	anchor *gsi.Certificate
	proxy  *gsi.Credential
}

func newCredentials() (credentials, error) {
	now := time.Now()
	ca, err := gsi.NewCA("/O=Grid/CN=Bench-CA", now, 24*time.Hour)
	if err != nil {
		return credentials{}, err
	}
	user, err := ca.IssueUser("/O=Grid/CN=bench", now, 24*time.Hour)
	if err != nil {
		return credentials{}, err
	}
	proxy, err := gsi.NewProxy(user, now, 12*time.Hour)
	if err != nil {
		return credentials{}, err
	}
	return credentials{anchor: ca.Certificate(), proxy: proxy}, nil
}

// runRecord is what the runtime seam saw of one token: how many times the
// program ran, and when the last run started and ended.
type runRecord struct {
	runs       int
	start, end time.Time
}

// runLedger is the exactly-once oracle's view from inside the sites.
type runLedger struct {
	mu   sync.Mutex
	runs map[string]*runRecord
}

func newRunLedger() *runLedger { return &runLedger{runs: make(map[string]*runRecord)} }

func (l *runLedger) begin(token string) {
	l.mu.Lock()
	r := l.runs[token]
	if r == nil {
		r = &runRecord{}
		l.runs[token] = r
	}
	r.runs++
	r.start = time.Now()
	l.mu.Unlock()
}

func (l *runLedger) end(token string) {
	l.mu.Lock()
	if r := l.runs[token]; r != nil {
		r.end = time.Now()
	}
	l.mu.Unlock()
}

func (l *runLedger) get(token string) runRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	if r := l.runs[token]; r != nil {
		return *r
	}
	return runRecord{}
}

// benchProgram is the site runtime: it records the run under its token
// (its one argument) and writes expectedStdout(stdin).
func benchProgram(ledger *runLedger) gram.JobFunc {
	return func(_ context.Context, args []string, stdin []byte, stdout, _ io.Writer, _ map[string]string) error {
		if len(args) != 1 {
			return fmt.Errorf("bench program: want [token], got %q", args)
		}
		ledger.begin(args[0])
		defer ledger.end(args[0])
		_, err := stdout.Write(expectedStdout(stdin))
		return err
	}
}

// stdoutRepeat is how many times the program's output repeats its input:
// 16 KiB of stdin streams 64 KiB of stdout.
const stdoutRepeat = 4

// expectedStdout is the deterministic function of stdin every job prints:
// stdoutRepeat copies, copy k XORed with k+1 so no copy equals the input.
// Empty stdin prints "ok\n".
func expectedStdout(stdin []byte) []byte {
	if len(stdin) == 0 {
		return []byte("ok\n")
	}
	out := make([]byte, 0, stdoutRepeat*len(stdin))
	for k := 0; k < stdoutRepeat; k++ {
		for _, b := range stdin {
			out = append(out, b^byte(k+1))
		}
	}
	return out
}

// frameCounter counts request frames per wire verb at the server seams.
type frameCounter struct {
	mu     sync.Mutex
	counts map[string]int64
}

func newFrameCounter() *frameCounter { return &frameCounter{counts: make(map[string]int64)} }

func (c *frameCounter) add(verb string) {
	c.mu.Lock()
	c.counts[verb]++
	c.mu.Unlock()
}

func (c *frameCounter) get(verb string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[verb]
}

// delayHook is a wire.Faults delay seam: it counts every frame it sees
// (when counting is on) and delays the verbs wan selects by wanDelay
// (unless local is on).
func delayHook(frames *frameCounter, counting, local *atomic.Bool, wan func(verb string) bool) func(string) time.Duration {
	return func(verb string) time.Duration {
		if counting.Load() {
			frames.add(verb)
		}
		if wan(verb) && !local.Load() {
			return wanDelay
		}
		return 0
	}
}

func always(string) bool { return true }

// spoolWAN selects the agent-spool verbs a remote site's traffic crosses
// the WAN for: reads of staged inputs, stdout appends and stats. The
// agent's own spool writes are machine-local.
func spoolWAN(verb string) bool {
	return verb == "gass.read" || verb == "gass.append" || verb == "gass.stat"
}

// roundRobin is the harness Selector: jobs without a pinned site rotate
// across the 16 gatekeepers.
type roundRobin struct {
	sites []string
	next  atomic.Uint64
}

func (r *roundRobin) Select(condorg.SubmitRequest) (string, error) {
	return r.sites[(r.next.Add(1)-1)%uint64(len(r.sites))], nil
}

// notifier receives the agent's terminal-state notifications and wakes
// the closed-loop submitters; it never blocks the agent.
type notifier struct {
	mu   sync.Mutex
	done map[string]bool // job ID -> terminal notification seen
	wake chan struct{}   // closed and replaced at each notification
}

func newNotifier() *notifier {
	return &notifier{done: make(map[string]bool), wake: make(chan struct{})}
}

// Notify implements condorg.Notifier. Subjects read "job <id> <verb>".
func (n *notifier) Notify(_, subject, _ string) {
	var id, verb string
	if _, err := fmt.Sscanf(subject, "job %s %s", &id, &verb); err != nil {
		return
	}
	if verb != "completed" && verb != "failed" && verb != "held" {
		return
	}
	n.mu.Lock()
	n.done[id] = true
	close(n.wake)
	n.wake = make(chan struct{})
	n.mu.Unlock()
}

// isDone reports whether id was notified, and otherwise returns a channel
// that closes at the next notification.
func (n *notifier) isDone(id string) (bool, <-chan struct{}) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.done[id], n.wake
}

// grid is one live deployment: sites, agent, and the harness's seams.
type grid struct {
	dir      string
	sites    []*gram.Site
	agent    *condorg.Agent
	agentCfg condorg.AgentConfig
	notes    *notifier
	ledger   *runLedger
	frames   *frameCounter
	counting atomic.Bool // count frames at the seams
	local    atomic.Bool // drop the WAN delay: the harness reads outputs as the local user
}

// startGrid starts numSites sites and the agent under dir. spoolDelay adds
// the WAN delay to remote reads and appends against the agent's spool.
func startGrid(dir string, creds credentials, spoolDelay bool) (*grid, error) {
	g := &grid{
		dir:    dir,
		notes:  newNotifier(),
		ledger: newRunLedger(),
		frames: newFrameCounter(),
	}
	rt := gram.NewFuncRuntime()
	rt.Register(progName, benchProgram(g.ledger))
	siteFaults := &wire.Faults{}
	siteFaults.SetDelay(delayHook(g.frames, &g.counting, &g.local, always))
	addrs := make([]string, numSites)
	for i := range addrs {
		name := "site" + strconv.Itoa(i)
		cluster, err := lrm.NewCluster(lrm.Config{Name: name, Cpus: cpusPerSite})
		if err != nil {
			g.close()
			return nil, err
		}
		site, err := gram.NewSite(gram.SiteConfig{
			Name:             name,
			Anchor:           creds.anchor,
			Cluster:          cluster,
			Runtime:          rt,
			StateDir:         filepath.Join(dir, name),
			GatekeeperFaults: siteFaults,
			JobManagerFaults: siteFaults,
		})
		if err != nil {
			g.close()
			return nil, fmt.Errorf("start %s: %w", name, err)
		}
		g.sites = append(g.sites, site)
		addrs[i] = site.GatekeeperAddr()
	}
	gassWAN := func(string) bool { return false }
	if spoolDelay {
		gassWAN = spoolWAN
	}
	gassFaults := &wire.Faults{}
	gassFaults.SetDelay(delayHook(g.frames, &g.counting, &g.local, gassWAN))
	cbFaults := &wire.Faults{}
	cbFaults.SetDelay(delayHook(g.frames, &g.counting, &g.local, func(string) bool { return false }))
	g.agentCfg = condorg.AgentConfig{
		StateDir:   filepath.Join(dir, "agent"),
		Credential: creds.proxy,
		Selector:   &roundRobin{sites: addrs},
		Notifier:   g.notes,
		Journal:    journal.StoreOptions{Sync: true},
		Faults:     condorg.FaultOptions{GASS: gassFaults, Callback: cbFaults},
		// The breaker must never open on this healthy grid: a site
		// parked by a slow moment under load would turn queueing into
		// retries, and the benchmark measures the healthy path.
		Breaker: faultclass.BreakerConfig{
			Threshold: 1000,
			BaseDelay: 10 * time.Millisecond,
			MaxDelay:  20 * time.Millisecond,
		},
	}
	agent, err := condorg.NewAgent(g.agentCfg)
	if err != nil {
		g.close()
		return nil, fmt.Errorf("start agent: %w", err)
	}
	g.agent = agent
	return g, nil
}

// reopenAgent closes the agent and recovers a new one from the same state
// directory, returning how long NewAgent took. It writes dirty pages back
// and collects the closed agent's garbage first, so the timing holds
// neither.
func (g *grid) reopenAgent() (time.Duration, error) {
	g.agent.Close()
	g.agent = nil
	flushDirty()
	runtime.GC()
	start := time.Now()
	agent, err := condorg.NewAgent(g.agentCfg)
	elapsed := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("recover agent: %w", err)
	}
	g.agent = agent
	return elapsed, nil
}

// stopSites closes every site; the agent keeps running.
func (g *grid) stopSites() {
	for _, s := range g.sites {
		s.Close()
	}
	g.sites = nil
}

func (g *grid) close() {
	if g.agent != nil {
		g.agent.Close()
	}
	for _, s := range g.sites {
		s.Close()
	}
	os.RemoveAll(g.dir)
}
